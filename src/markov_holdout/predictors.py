"""Finite-memory predictors, losses, and exact/empirical risks.

A predictor is a lookup table from the q most recent past symbols to a
predicted next symbol.  Risks are taken under the composite stationary law
(exact) or along a sampled segment (empirical), each as one
:func:`expectation`.  Ties are always broken
toward the lowest symbol / lowest candidate index; with argmin-style numpy
reductions that is the first minimizer.

A segment enters this module only as its state-visit counts (counts[x] =
visits to state x, e.g. ``np.bincount(states, minlength=chain.n_states)``):
a loss depends only on the state, so the empirical risk and the ERM
(context, target) tally depend on the segment only through them.  Counts
must have shape (S,) (DimensionMismatchError), an integer dtype and no
negative entry (RangeError), and a positive total (EmptySegmentError).
:func:`erm_losses`, :func:`holdout_select` and :func:`oracle_select` also
take a leading replication axis, one segment per row, and apply the same
rule to every row at once.
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


def _check_loss_symbols(chain: MarkovizedChain, *losses: LossSpec) -> None:
    """DimensionMismatchError unless each loss has the chain's symbols."""
    if any(loss.symbols != chain.symbols for loss in losses):
        raise DimensionMismatchError("loss table symbol count mismatch")


def state_losses(predictor: PredictorTable, chain: MarkovizedChain,
                 loss: LossSpec) -> np.ndarray:
    """Per-composite-state loss: L(g(features(x)), target(x))."""
    _check_loss_symbols(chain, loss)
    return loss.table[predictor.predictions(chain), chain.targets]


def expectation(values: np.ndarray, law: np.ndarray) -> np.ndarray:
    """Sum of ``values * law`` along the last axis, the one contraction
    every risk goes through.

    An einsum without ``optimize`` runs numpy's own sum-of-products loop,
    never BLAS, so a risk has one summation order whatever the operand
    shapes and whichever OpenBLAS kernel the CPU selects (``optimize``
    would hand the contraction back to BLAS).  Leading axes broadcast: a
    (..., N, S) stack against an (S,) law gives (..., N).
    """
    return np.einsum("...s,...s->...", values, law)


def exact_risk(predictor: PredictorTable, chain: MarkovizedChain,
               loss: LossSpec) -> float:
    """Stationary risk E_Q[L(g(features), target)].

    It is the :func:`expectation` of the :func:`state_losses` under Q, so
    it equals the predictor's row of :func:`oracle_select` bit for bit.
    """
    return float(expectation(state_losses(predictor, chain, loss),
                             chain.stationary))


def bayes_predictor(chain: MarkovizedChain, loss: LossSpec) -> PredictorTable:
    """Risk-minimizing full-memory predictor, ties to the lowest symbol.

    For each length-p context the prediction minimizes the expected loss
    under the base conditional law of the next symbol.
    """
    _check_loss_symbols(chain, loss)
    base = chain.base
    s = base.symbols
    p = chain.embedding_order
    contexts = np.arange(s ** p)
    rows = base.conditional[contexts // s ** (p - base.order)]
    expected = rows @ loss.table.T          # (S^p, S): cost of predicting y
    return PredictorTable(order=p, symbols=s,
                          table=np.argmin(expected, axis=1))


def _counts(counts, shape: tuple) -> np.ndarray:
    """``counts`` as an array, once it is of ``shape`` and each row along
    its last axis is a segment's state-visit counts."""
    counts = np.asarray(counts)
    if counts.shape != shape:
        raise DimensionMismatchError(
            f"counts must have shape {shape}, got {counts.shape}")
    if counts.dtype.kind not in "iu":
        raise RangeError(f"counts must be integers, got dtype {counts.dtype}")
    if np.any(counts < 0):
        raise RangeError("counts must be >= 0")
    if np.any(counts.sum(axis=-1) < 1):
        raise EmptySegmentError("counts sum to 0: the segment is empty")
    return counts


def _fit_checks(chain: MarkovizedChain, orders, counts, losses,
                lead: tuple) -> tuple[np.ndarray, list]:
    """(``counts`` as an array of shape lead + (S,), each order's
    :meth:`~MarkovizedChain.context_index`), once every order lies in
    [0, p] by that method's rule and each of ``losses`` has the chain's
    symbols."""
    contexts = [chain.context_index(q) for q in orders]
    _check_loss_symbols(chain, *losses)
    return _counts(counts, lead + (chain.n_states,)), contexts


def _erm_tables(chain: MarkovizedChain, order_q: int, counts: np.ndarray,
                loss: LossSpec) -> np.ndarray:
    """ERM tables (..., s^q) of checked learning counts (..., S), by the
    rule of :func:`erm_fit`.

    State x = t·s^p + c·s^(p-q) + r has target t and memory-q context c
    (s symbols, embedding order p, r < s^(p-q)), so summing the counts
    over r tallies each segment's (context, target) pairs.
    """
    s = chain.symbols
    pairs = counts.reshape(counts.shape[:-1] + (s, s ** order_q, -1)).sum(
        axis=-1).swapaxes(-1, -2)
    table = np.argmin(pairs @ loss.table.T, axis=-1)
    fallback = np.argmax(pairs.sum(axis=-2), axis=-1)
    return np.where(pairs.any(axis=-1), table, fallback[..., None])


def erm_fit(chain: MarkovizedChain, order_q: int, counts: np.ndarray,
            loss: LossSpec) -> PredictorTable:
    """Per-context empirical risk minimizer on a learning segment's counts.

    Each context seen in the segment predicts the symbol minimizing the
    summed training ``loss`` against its targets (ties to the lowest
    symbol); contexts never seen fall back to the segment's most frequent
    target.  ``order_q`` must lie in [0, p] (RangeError), and ``loss``
    must have the chain's symbols (DimensionMismatchError).
    """
    counts = _fit_checks(chain, (order_q,), counts, (loss,), ())[0]
    return PredictorTable(order=order_q, symbols=chain.symbols,
                          table=_erm_tables(chain, order_q, counts, loss))


def erm_losses(chain: MarkovizedChain, orders, counts: np.ndarray,
               train_loss: LossSpec, loss: LossSpec) -> np.ndarray:
    """Per-state ``loss`` of each order's ERM fit, for a stack of segments.

    ``counts`` has shape (..., S), one learning segment's counts per row.
    Entry [..., k, x] is :func:`state_losses` of ``erm_fit(chain,
    orders[k], row, train_loss)``, the fits taken by the same rule for all
    rows at once.
    """
    counts, contexts = _fit_checks(chain, orders, counts, (train_loss, loss),
                                   np.shape(counts)[:-1])
    out = np.empty(counts.shape[:-1] + (len(orders), chain.n_states))
    for k, (q, context) in enumerate(zip(orders, contexts)):
        tables = _erm_tables(chain, q, counts, train_loss)
        out[..., k, :] = loss.table[tables[..., context], chain.targets]
    return out


def _select(risks: np.ndarray):
    """(index, risks) of the first minimizer along the candidate axis."""
    index = np.argmin(risks, axis=-1)
    return (int(index) if risks.ndim == 1 else index), risks


def _candidates(loss_matrix) -> np.ndarray:
    """``loss_matrix`` as an array of shape (..., N, S) with N >= 1."""
    loss_matrix = np.asarray(loss_matrix)
    if loss_matrix.ndim < 2:
        raise DimensionMismatchError(
            "loss matrix needs a candidate axis and a state axis, got "
            f"shape {loss_matrix.shape}")
    if loss_matrix.shape[-2] < 1:
        raise RangeError("need at least one candidate")
    return loss_matrix


def holdout_select(loss_matrix: np.ndarray, counts: np.ndarray):
    """Index of the empirical-risk minimizer on a validation segment.

    Row k of ``loss_matrix`` (N, S) is candidate k's :func:`state_losses`,
    and ``counts`` (S,) are the segment's state-visit counts.  Candidate
    k's empirical risk, its mean loss along the segment, is
    ``expectation(loss_matrix[k], counts) / counts.sum()``: for 0/1 losses
    every sum is an exact integer and the risks equal the gathered mean
    bit for bit; other loss tables may differ from it in the last digits,
    but not with the BLAS kernel, since :func:`expectation` never calls
    BLAS.  Returns
    (index, empirical risks); ties go to the lowest index.

    A leading replication axis selects for many segments at once:
    ``loss_matrix`` (R, N, S) and ``counts`` (R, S) give an (R,) index
    array and (R, N) risks, row r as the call on row r would give.
    """
    loss_matrix = _candidates(loss_matrix)
    counts = _counts(counts, loss_matrix.shape[:-2] + loss_matrix.shape[-1:])
    return _select(expectation(loss_matrix, counts[..., None, :])
                   / counts.sum(axis=-1, keepdims=True))


def oracle_select(loss_matrix: np.ndarray, stationary: np.ndarray):
    """Index of the exact-risk minimizer; ties go to the lowest index.

    Returns (index, ``expectation(loss_matrix, stationary)``), the exact
    risk of each row, which for a row of :func:`state_losses` equals
    :func:`exact_risk` bit for bit.  ``loss_matrix`` may carry a leading
    replication axis, as in :func:`holdout_select`.
    """
    loss_matrix = _candidates(loss_matrix)
    if np.shape(stationary) != loss_matrix.shape[-1:]:
        raise DimensionMismatchError(
            f"stationary law must have shape {loss_matrix.shape[-1:]}, "
            f"got {np.shape(stationary)}")
    return _select(expectation(loss_matrix, stationary))


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
    d = float(expectation(g.predictions(chain) != g_star.predictions(chain),
                          chain.stationary))
    d = min(max(d, 0.0), 1.0)
    return d * (1.0 - d)
