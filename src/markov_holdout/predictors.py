"""Finite-memory predictors, losses, and exact/empirical risks.

A predictor is a lookup table from the q most recent past symbols to a
predicted next symbol.  Risks are taken under the composite stationary law
(exact) or along a sampled validation segment (empirical).  Ties are always
broken toward the lowest symbol / lowest candidate index; with argmin-style
numpy reductions that is the first minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import MarkovizedChain
from .errors import (
    DimensionMismatchError,
    EmptySegmentError,
    RangeError,
)


@dataclass(frozen=True)
class LossSpec:
    """Loss table L[prediction, outcome] with entries in [0, 1]."""

    table: np.ndarray
    name: str = "loss"

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 2:
            raise DimensionMismatchError(
                f"loss table must be square with >= 2 symbols, got {t.shape}")
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise RangeError("loss entries must lie in [0, 1]")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def symbols(self) -> int:
        return self.table.shape[0]

    @classmethod
    def misclassification(cls, symbols: int) -> "LossSpec":
        return cls(table=1.0 - np.eye(symbols), name="misclassification")


@dataclass(frozen=True)
class PredictorTable:
    """Memory-q predictor: table[context] = predicted symbol.

    Contexts code the q most recent past symbols most-recent-first, exactly
    like composite feature indices, so an order-q predictor applied to a
    chain embedded at order p >= q reads features // S**(p-q).
    """

    order: int
    symbols: int
    table: np.ndarray

    def __post_init__(self):
        if self.order < 0:
            raise RangeError("memory order must be >= 0")
        if self.symbols < 2:
            raise RangeError("need at least 2 symbols")
        t = np.array(self.table, dtype=np.int64)
        if t.shape != (self.symbols ** self.order,):
            raise DimensionMismatchError(
                f"table must have length {self.symbols ** self.order}, "
                f"got {t.shape}")
        if np.any(t < 0) or np.any(t >= self.symbols):
            raise RangeError("predictions must be symbols in [0, S)")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def predictions(self, chain: MarkovizedChain) -> np.ndarray:
        """Predicted symbol for every composite state of ``chain``."""
        if self.symbols != chain.symbols:
            raise DimensionMismatchError("symbol count mismatch")
        return self.table[chain.context_index(self.order)]


def state_losses(predictor: PredictorTable, chain: MarkovizedChain,
                 loss: LossSpec) -> np.ndarray:
    """Per-composite-state loss: L(g(features(x)), target(x))."""
    if loss.symbols != chain.symbols:
        raise DimensionMismatchError("loss table symbol count mismatch")
    return loss.table[predictor.predictions(chain), chain.targets]


def exact_risk(predictor: PredictorTable, chain: MarkovizedChain,
               loss: LossSpec) -> float:
    """Stationary risk E_Q[L(g(features), target)]."""
    return float(chain.stationary @ state_losses(predictor, chain, loss))


def loss_variance(predictor: PredictorTable, chain: MarkovizedChain,
                  loss: LossSpec) -> float:
    """Exact stationary variance of the per-state loss (canonical V proxy)."""
    ell = state_losses(predictor, chain, loss)
    mean = chain.stationary @ ell
    return float(chain.stationary @ (ell - mean) ** 2)


def bayes_predictor(chain: MarkovizedChain, loss: LossSpec) -> PredictorTable:
    """Risk-minimizing full-memory predictor, ties to the lowest symbol.

    For each length-p context the prediction minimizes the expected loss
    under the base conditional law of the next symbol.
    """
    base = chain.base
    s = base.symbols
    p = chain.embedding_order
    contexts = np.arange(s ** p)
    rows = base.conditional[contexts // s ** (p - base.order)]
    expected = rows @ loss.table.T          # (S^p, S): cost of predicting y
    return PredictorTable(order=p, symbols=s,
                          table=np.argmin(expected, axis=1))


def _states(states, n_states: int) -> np.ndarray:
    """``states`` as a 1-D intp array, each an integer in [0, n_states).

    Indexing would wrap a negative state around to the end, and counting
    would reject it with a bare numpy error, so both get RangeError here.
    """
    states = np.asarray(states)
    if states.ndim != 1:
        raise DimensionMismatchError(
            f"states must be a 1-D sequence, got shape {states.shape}")
    if states.dtype.kind not in "iu":
        raise RangeError(f"states must be integers, got dtype {states.dtype}")
    if len(states) and (states.min() < 0 or states.max() >= n_states):
        raise RangeError(f"states must lie in [0, {n_states})")
    return states.astype(np.intp, copy=False)


def erm_fit(chain: MarkovizedChain, order_q: int, learn: np.ndarray,
            loss: LossSpec) -> PredictorTable:
    """Per-context empirical risk minimizer over the learning states.

    Every learning state contributes one (context, target) pair, and one
    ``bincount`` of context·s + target (s symbols) tallies them into a
    table of counts; each seen context predicts the symbol minimizing the
    summed training loss against its targets (ties to the lowest symbol).
    Contexts never seen fall back to the globally most frequent target.
    Learning states must be integers in [0, chain.n_states) (RangeError).
    """
    if len(learn) < 1:
        raise EmptySegmentError("cannot fit on an empty learning segment")
    learn = _states(learn, chain.n_states)
    s = chain.symbols
    contexts = chain.context_index(order_q)[learn]
    targets = chain.targets[learn]
    counts = np.bincount(contexts * s + targets,
                         minlength=s ** (order_q + 1)).reshape(-1, s)
    cost = counts @ loss.table.T
    table = np.argmin(cost, axis=1)
    seen = counts.any(axis=1)
    if not seen.all():
        table[~seen] = int(np.argmax(counts.sum(axis=0)))
    return PredictorTable(order=order_q, symbols=s, table=table)


def holdout_select(loss_matrix: np.ndarray, segment: np.ndarray,
                   burn: int = 0):
    """Index of the empirical-risk minimizer on the validation segment.

    Row k of ``loss_matrix`` is candidate k's :func:`state_losses`; its
    empirical risk is their mean over segment[burn:], which must not be
    empty (EmptySegmentError).  The mean depends on the segment only
    through its state-visit counts, so it is computed as
    ``loss_matrix @ counts / (len(segment) - burn)``: for 0/1 losses every
    sum is an exact integer and the risks equal the gathered mean bit for
    bit; other loss tables may differ from it in the last digits.  States
    must be integers in [0, S) (RangeError).  Returns (index, empirical
    risks); ties go to the lowest index.
    """
    if len(loss_matrix) < 1:
        raise RangeError("need at least one candidate")
    if burn < 0:
        raise RangeError("burn-in must be >= 0")
    if len(segment) - burn < 1:
        raise EmptySegmentError(
            f"segment of {len(segment)} states with burn-in {burn} is empty")
    n_states = loss_matrix.shape[1]
    counts = np.bincount(_states(segment, n_states)[burn:],
                         minlength=n_states)
    return _select_by_counts(loss_matrix, counts)


def _select_by_counts(loss_matrix: np.ndarray, counts: np.ndarray):
    # holdout_select on a segment given by its state-visit counts, which sum
    # to its (positive) length
    risks = loss_matrix @ counts / counts.sum()
    return int(np.argmin(risks)), risks


def oracle_select(loss_matrix: np.ndarray, stationary: np.ndarray):
    """Index of the exact-risk minimizer; ties go to the lowest index.

    Returns (index, loss_matrix @ stationary), the exact risk of each row.
    """
    if len(loss_matrix) < 1:
        raise RangeError("need at least one candidate")
    risks = loss_matrix @ stationary
    return int(np.argmin(risks)), risks


def conditional_risk(predictor: PredictorTable, chain: MarkovizedChain,
                     x_last: int, horizon_b: int, loss: LossSpec) -> float:
    """Risk of the state b+1 steps after conditioning on X_n = x_last."""
    if not 0 <= x_last < chain.n_states:
        raise RangeError(f"state {x_last} outside [0, {chain.n_states})")
    if horizon_b < 0:
        raise RangeError("horizon must be >= 0")
    row = np.linalg.matrix_power(chain.kernel.matrix, horizon_b + 1)[x_last]
    return float(row @ state_losses(predictor, chain, loss))


def disagreement_variance(g: PredictorTable, g_star: PredictorTable,
                          chain: MarkovizedChain) -> float:
    """Variance D(1-D) of the disagreement indicator under the tuple law.

    D is a probability, clamped to [0, 1]: a stationary law that sums to
    1 + 1 ulp would otherwise give D > 1 and a negative variance.
    """
    d = float(chain.stationary @ (g.predictions(chain) !=
                                  g_star.predictions(chain)))
    d = min(max(d, 0.0), 1.0)
    return d * (1.0 - d)
