"""Finite-memory predictors, losses, and exact/empirical risks.

A predictor is a lookup table from the q most recent past symbols to a
predicted next symbol.  Risks are taken under the composite stationary law
(exact) or along a sampled segment (empirical).  Ties are always broken
toward the lowest symbol / lowest candidate index; with argmin-style numpy
reductions that is the first minimizer.

A segment enters this module only as its state-visit counts (counts[x] =
visits to state x, e.g. ``np.bincount(states, minlength=chain.n_states)``):
a loss depends only on the state, so the empirical risk and the ERM
(context, target) tally depend on the segment only through them.  Counts
must have shape (S,) (DimensionMismatchError), an integer dtype and no
negative entry (RangeError), and a positive total (EmptySegmentError).
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


def _counts(counts, n_states: int) -> np.ndarray:
    """``counts`` as an array, once it is a segment's state-visit counts."""
    counts = np.asarray(counts)
    if counts.shape != (n_states,):
        raise DimensionMismatchError(
            f"counts must have shape ({n_states},), got {counts.shape}")
    if counts.dtype.kind not in "iu":
        raise RangeError(f"counts must be integers, got dtype {counts.dtype}")
    if np.any(counts < 0):
        raise RangeError("counts must be >= 0")
    if counts.sum() < 1:
        raise EmptySegmentError("counts sum to 0: the segment is empty")
    return counts


def erm_fit(chain: MarkovizedChain, order_q: int, counts: np.ndarray,
            loss: LossSpec) -> PredictorTable:
    """Per-context empirical risk minimizer on a learning segment's counts.

    State x = t·s^p + c·s^(p-q) + r has target t and memory-q context c
    (s symbols, embedding order p, r < s^(p-q)), so summing ``counts`` over
    r tallies the learning segment's (context, target) pairs.  Each seen
    context predicts the symbol minimizing the summed training loss
    against its targets (ties to the lowest symbol); contexts never seen
    fall back to the globally most frequent target.  ``order_q`` must lie
    in [0, p] (RangeError).
    """
    p = chain.embedding_order
    if not 0 <= order_q <= p:
        raise RangeError(f"memory order must lie in [0, {p}]")
    s = chain.symbols
    pairs = _counts(counts, chain.n_states).reshape(
        s, s ** order_q, -1).sum(axis=2).T
    table = np.argmin(pairs @ loss.table.T, axis=1)
    seen = pairs.any(axis=1)
    if not seen.all():
        table[~seen] = int(np.argmax(pairs.sum(axis=0)))
    return PredictorTable(order=order_q, symbols=s, table=table)


def holdout_select(loss_matrix: np.ndarray, counts: np.ndarray):
    """Index of the empirical-risk minimizer on a validation segment.

    Row k of ``loss_matrix`` is candidate k's :func:`state_losses`, and
    ``counts`` are the segment's state-visit counts.  Candidate k's
    empirical risk, its mean loss along the segment, is
    ``loss_matrix[k] @ counts / counts.sum()``: for 0/1 losses every sum is
    an exact integer and the risks equal the gathered mean bit for bit;
    other loss tables may differ from it in the last digits.  Returns
    (index, empirical risks); ties go to the lowest index.
    """
    if len(loss_matrix) < 1:
        raise RangeError("need at least one candidate")
    counts = _counts(counts, loss_matrix.shape[1])
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
