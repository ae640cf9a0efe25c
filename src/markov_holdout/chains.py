"""Exact diagnostics for finite-state Markov chains.

A chain is a row-stochastic matrix over a finite state space.  Everything
in this module is computed exactly (up to float64 round-off): stationary
law, total variation distance to stationarity, mixing profile and mixing
time, time reversal, pseudo-spectral gap, and the embedding of
higher-order chains as first-order chains on tuple states.

A :class:`MarkovizedChain` (an order-k chain embedded at order p) is
solved on its (k+1)-tuple chain and builds no dense kernel unless asked.
The mixing profile, the reversed-row check and the pseudo-spectral gap
read the powers K^j from one generator, :func:`_power_rows`, which alone
knows how they are held: the dense K^j of a raw :class:`TransitionKernel`,
or one row per class of the context quotient of a chain (row x of K^j
depends on x only through its top max(k, p+1-j) symbols).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigensolverFailureError,
    HorizonExceededError,
    NonPrimitiveError,
    NumericalFailureError,
    RangeError,
    SizeOverflowError,
    ZeroStationaryMassError,
)

LN2 = math.log(2.0)

# numerical tolerances and search caps shared by the diagnostics below
ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10
REVERSAL_ROW_SUM_TOL = 1e-10
ZERO_MASS_TOL = 1e-14
MONOTONE_SLACK = 1e-12
GAP_K_CAP = 64
MARKOVIZE_STATE_CAP = 4096


def _stochastic_rows(m: np.ndarray, entries: str, row: str) -> np.ndarray:
    # m frozen, once its entries lie in [0, 1] and each row sums to 1 within
    # ROW_SUM_TOL; `entries` and `row` name them in the messages
    if np.any(m < 0.0) or np.any(m > 1.0):
        raise RangeError(f"{entries} entries must lie in [0, 1]")
    sums = m.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
    if bad.size:
        raise RangeError(f"{row} {bad[0]} sums to {sums[bad[0]]:.17g}, not 1")
    m.setflags(write=False)
    return m


class TransitionKernel:
    """Validated row-stochastic matrix.

    Parameters
    ----------
    matrix : array_like, shape (S, S)
        Row ``x`` is the law of the next state given current state ``x``.
    require_primitive : bool
        When True (default) reject kernels that are not primitive
        (irreducible and aperiodic); primitivity is what guarantees a
        unique stationary law and uniform ergodicity.  Deterministic 0/1
        kernels fail this; pass False to study them anyway.

    Raises
    ------
    DimensionMismatchError
        Non-square or empty input.
    RangeError
        Entries outside [0, 1] or a row sum off by more than ``ROW_SUM_TOL``
        (the message names the offending row).
    NonPrimitiveError
        Kernel not primitive and ``require_primitive`` is True.
    """

    def __init__(self, matrix, require_primitive: bool = True):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimensionMismatchError(
                f"kernel must be a non-empty square matrix, got shape {m.shape}")
        self.matrix = _stochastic_rows(m, "kernel", "row")
        self.size = int(m.shape[0])
        self._primitive: bool | None = None
        if require_primitive and not self.primitive:
            raise NonPrimitiveError(
                "kernel is not primitive (irreducible and aperiodic)")

    @property
    def primitive(self) -> bool:
        if self._primitive is None:
            self._primitive = is_primitive(self.matrix)
        return self._primitive

    def __repr__(self):  # pragma: no cover
        return f"TransitionKernel(size={self.size})"


def is_primitive(matrix: np.ndarray) -> bool:
    """Primitivity test by boolean matrix powers.

    Repeatedly squares the positivity pattern until the exponent passes the
    Wielandt bound (S-1)^2 + 1, returning early on the first all-positive
    power.  Once some power is all-positive every later power is too (each
    row has a positive entry), so squaring cannot skip over positivity.
    """
    s = matrix.shape[0]
    # positivity pattern in {0,1}; float dtype so BLAS does the matmul
    c = (matrix > 0.0).astype(float)
    bound = (s - 1) ** 2 + 1
    exponent = 1
    while True:
        if np.all(c > 0.0):
            return True
        if exponent >= bound:
            return False
        c = ((c @ c) > 0.0).astype(float)
        exponent *= 2


def stationary_distribution(kernel: TransitionKernel) -> np.ndarray:
    """Stationary law Q solving QK = Q, sum(Q) = 1.

    GTH state reduction (Grassmann, Taksar & Heyman, Oper. Res. 1985):
    censor the states from the last down to the first, then rebuild Q
    from the first up.  Every step adds, multiplies or divides
    nonnegative numbers only, so each Q(x) is accurate relative to its
    own size, however small; a dense linear solve is accurate only to
    about 1e-16 absolute, which the relative reversed-row rule of
    :func:`time_reversal` rejects on states of small mass.

    Raises
    ------
    NumericalFailureError
        A state with no outflow to the states not yet censored (the kernel
        is not irreducible), or residual ||QK - Q||_1 above
        ``STATIONARY_RESIDUAL_TOL``.
    """
    k = kernel.matrix
    a = np.array(k)
    for n in range(kernel.size - 1, 0, -1):
        outflow = a[n, :n].sum()
        if not outflow > 0.0:
            raise NumericalFailureError(
                f"stationary solve: state {n} has no outflow")
        a[:n, n] /= outflow
        a[:n, :n] += np.outer(a[:n, n], a[n, :n])
    q = np.ones(kernel.size)
    for n in range(1, kernel.size):
        q[n] = q[:n] @ a[:n, n]
    q /= q.sum()
    residual = np.abs(q @ k - q).sum()
    if residual > STATIONARY_RESIDUAL_TOL:
        raise NumericalFailureError(
            f"stationary residual {residual:.3e} exceeds "
            f"{STATIONARY_RESIDUAL_TOL:.1e}")
    return q


def _stationary_by_power_iteration(matrix: np.ndarray, tol: float = 1e-13,
                                   max_steps: int = 10 ** 6) -> np.ndarray:
    # slow independent oracle for the GTH solve; used by tests
    s = matrix.shape[0]
    q = np.full(s, 1.0 / s)
    for _ in range(max_steps):
        nxt = q @ matrix
        if np.abs(nxt - q).sum() <= tol:
            return nxt / nxt.sum()
        q = nxt
    raise NumericalFailureError("power iteration did not converge")


def total_variation(p, q) -> float:
    """Total variation distance between two laws on the same finite space."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise DimensionMismatchError(
            f"laws must be 1-d with equal length, got {p.shape} and {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class MixingProfile:
    """Distance-to-stationarity profile with the induced mixing certificate.

    ``d_values[t]`` is the worst-start TV distance after t steps; ``t_mix``
    the first t with d(t) <= epsilon_level; (certificate_c, certificate_rho)
    = (2, 2^(-1/t_mix)) dominates the profile: d(t) <= C * rho^t, the value
    of :func:`mixing_certificate`, which alone evaluates it.
    """

    certificate_c: ClassVar[float] = 2.0

    d_values: np.ndarray
    t_mix: int
    epsilon_level: float = 0.25

    def __post_init__(self):
        if self.t_mix < 1:
            raise RangeError("mixing time must be >= 1")
        d = np.asarray(self.d_values, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise DimensionMismatchError(
                f"distance profile must be 1-d and non-empty, got {d.shape}")
        # NaN fails every comparison of the monotone check below
        if not np.isfinite(d).all():
            raise RangeError("distance profile has a non-finite entry")
        if np.any(d[1:] - d[:-1] > MONOTONE_SLACK):
            raise NumericalFailureError("distance profile is not non-increasing")
        object.__setattr__(self, "d_values", d)

    @property
    def certificate_rho(self) -> float:
        return math.exp(-LN2 / self.t_mix)


def mixing_certificate(t: int, t_mix: int) -> float:
    """The mixing certificate C * 2^(-t/t_mix), C = ``certificate_c`` of
    :class:`MixingProfile`: a bound on d(t) for a chain of mixing time t_mix.

    Every coupling term of the bounds is this value: the burn-in terms at
    t = b, the forms with the burn-in optimized away at t = -1.
    """
    return MixingProfile.certificate_c * math.exp(-t * LN2 / t_mix)


def _law(kernel, q):
    # the caller's Q, else the chain's own, else the solved one
    if q is not None:
        return _checked_law(kernel, q)
    if isinstance(kernel, MarkovizedChain):
        return kernel.stationary
    return stationary_distribution(kernel)


def _checked_law(kernel, q) -> np.ndarray:
    # a caller's Q as floats, one finite entry per state: NaN passes every
    # comparison the later checks make
    q = np.asarray(q, dtype=float)
    if q.shape != (kernel.size,):
        raise DimensionMismatchError("stationary law has wrong length")
    if not np.isfinite(q).all():
        raise RangeError("stationary law has a non-finite entry")
    return q


def _append_weights(base: HigherOrderChainSpec, p: int) -> np.ndarray:
    # weights[y, u] = conditional[u // s^(p-k), y], the weight with which
    # column y*s^p + u of the (p+1)-tuple chain appends y.  Held as a
    # contiguous (s, s^p) array: the transposed view of the same entries
    # sends numpy's broadcast product down a strided slow path, 2.2 ms
    # against 0.47 ms at the second power of an S = 1024 chain, for the
    # same bits
    s, k = base.symbols, base.order
    return np.ascontiguousarray(
        base.conditional[np.arange(s ** p) // s ** (p - k)].T)


def _class_kernel(weights: np.ndarray) -> np.ndarray:
    # K of the (p+1)-tuple chain as one row per class c = x // s: class c
    # appends y with weight weights[y, c] at column y*s^p + c, and every
    # other entry is +0.0.  Values are only placed, so the bits are those of
    # the weights
    s, classes = weights.shape
    c = np.arange(classes)[:, None]
    rows = np.zeros((classes, s * classes))
    rows[c, np.arange(s) * classes + c] = weights.T
    return rows


def _append_step(summed: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows P K of the (p+1)-tuple chain from their oldest-symbol sums.

    ``summed[:, u] = sum_a P[:, u*s + a]``: the s predecessors u*s + a of
    column y*s^p + u all append y with weight ``weights[y, u]``, from
    :func:`_append_weights`.  Both operands are contiguous, so the product
    runs on numpy's contiguous inner loop; the bits are those of any
    layout, as each entry is one multiplication.
    """
    return (summed[:, None, :] * weights).reshape(len(summed), -1)


def _class_sums(rows: np.ndarray, s: int) -> np.ndarray:
    # rows.reshape(-1, s^p, s).sum(axis=2) with numpy's bits.  numpy's
    # pairwise sum adds fewer than 8 terms one by one, left to right from
    # -0.0 (which leaves the first term as it is), but a reduction over so
    # short an axis pays its inner-loop set-up once per output entry: 2.7 ms
    # against 0.33 ms for s - 1 whole-column adds at S = 1024.  From 8 terms
    # on numpy adds in eight interleaved partial sums, so those stay with it
    terms = rows.reshape(len(rows), -1, s)
    if s >= 8:
        return terms.sum(axis=2)
    out = terms[:, :, 0] + terms[:, :, 1]
    for a in range(2, s):
        out += terms[:, :, a]
    return out


def _power_rows(kernel, q: np.ndarray):
    """Yield (C_j, W_j) for j = 1, 2, ...: K^j as one row per class.

    K^j = E_j C_j for the S x R_j indicator E_j of a partition of the
    states into R_j classes of equal rows, and W_j = E_j^T q holds the
    class masses of ``q``.  A raw kernel has one class per state: C_j is
    the dense K^j, one S x S product per step, and W_j = q.

    For a :class:`MarkovizedChain`, row x of K^j depends on x only through
    its top r_j = max(k, p+1-j) symbols: the p+1-j it still keeps and the
    k that set the first draw.  C_j holds one row per class
    c = x // s^(p+1-r_j), taken at the representative c * s^(p+1-r_j).
    C_1 is :func:`_class_kernel`, placed directly: the bits
    :func:`_append_step` gives on the identity, where 0 * w = +0.0 for
    every weight w but -0.0.
    The representatives of step j+1 are every s^(r_j - r_{j+1})-th of
    step j, and each later step is one :func:`_append_step`: O(R_j * S)
    work.

    Each step does the floating-point operations of the plain numpy
    expressions on contiguous operands, which keeps its bits and takes
    about half the time at S = 1024.  The append weights are built once
    per sequence as a contiguous array, not read through a transposed
    view each step, and for s < 8 the class sums over the oldest symbol
    are unrolled into whole-column adds by :func:`_class_sums`, in the
    order numpy adds so few terms, not reduced along a length-s axis.
    Going back to either form keeps the bits and brings back its slow
    path.
    """
    if not isinstance(kernel, MarkovizedChain):
        power = kernel.matrix
        while True:
            yield power, q
            power = power @ kernel.matrix
    s, k, p = kernel.symbols, kernel.base.order, kernel.embedding_order
    weights = _append_weights(kernel.base, p)
    rows = _class_kernel(weights)
    digits = p
    j = 1
    while True:
        yield rows, q.reshape(len(rows), -1).sum(axis=1)
        nxt = max(k, p - j)
        rows = _append_step(_class_sums(rows[::s ** (digits - nxt)], s),
                            weights)
        digits = nxt
        j += 1


def _distances(q: np.ndarray, powers):
    # d(t) for t = 0, 1, ...: the worst start's TV distance to q, from the
    # (C_j, W_j) of _power_rows; row x of K^0 is the point mass at x.
    # |C_j - q| goes to one buffer sized for C_1, which has the most rows,
    # instead of two new temporaries a step
    yield 0.5 * float(np.max((1.0 - q) + (q.sum() - q)))
    buffer = None
    for rows, _ in powers:
        if buffer is None:
            buffer = np.empty_like(rows)
        gaps = np.subtract(rows, q, out=buffer[:len(rows)])
        yield 0.5 * np.abs(gaps, out=gaps).sum(axis=1).max()


def mixing_time(kernel: TransitionKernel | MarkovizedChain,
                level: float = 0.25, q: np.ndarray | None = None,
                horizon: int | None = None) -> MixingProfile:
    """Mixing profile up to max(t_mix, horizon) at threshold ``level``.

    d(t) is the maximum TV distance to Q over the rows of K^t that
    :func:`_power_rows` yields, which include every distinct row.

    Parameters
    ----------
    level : float
        TV threshold defining t_mix, in (0, 1); default 1/4.
    horizon : int, optional
        Extend the stored profile past t_mix (for plotting/domination tests).

    Raises
    ------
    DimensionMismatchError
        ``q`` does not have one entry per state.
    RangeError
        ``level`` lies outside (0, 1), ``horizon`` is below 0, or ``q`` has
        a non-finite or a negative entry.
    NumericalFailureError
        ``q`` is not a stationary law: ||QK - Q||_1 + |sum(Q) - 1| exceeds
        ``STATIONARY_RESIDUAL_TOL``.
    HorizonExceededError
        d(t) stays above ``level`` through the step cap 10 * S**2.
    """
    if not 0.0 < level < 1.0:
        raise RangeError("level must lie in (0, 1)")
    if horizon is not None and horizon < 0:
        raise RangeError("horizon must be >= 0")
    q = _law(kernel, q)
    # d(t) tends to the TV distance from Q to the true law, so a Q that is
    # not one would walk to the step cap before it failed.  QK = W_1 C_1
    # comes from the first power, which the walk then reuses; a TV distance
    # needs no positive mass, so the zero-mass rule of the reversal does not
    # apply
    if np.any(q < 0.0):
        raise RangeError(
            f"stationary law has a negative entry at state {int(np.argmin(q))}")
    powers = _power_rows(kernel, q)
    first = next(powers)
    rows, masses = first
    residual = np.abs(masses @ rows - q).sum() + abs(q.sum() - 1.0)
    if residual > STATIONARY_RESIDUAL_TOL:
        raise NumericalFailureError(
            f"stationary residual {residual:.3e} exceeds "
            f"{STATIONARY_RESIDUAL_TOL:.1e}")
    cap = 10 * kernel.size ** 2
    distances = _distances(q, itertools.chain([first], powers))
    # d_values[t] = d(t); a NaN distance is never <= level, so it walks to
    # the cap
    d_values = [next(distances)]
    while not d_values[-1] <= level:
        if len(d_values) > cap:
            raise HorizonExceededError(
                f"d(t) > {level} for all t <= {cap}")
        d_values.append(next(distances))
    # d(0) = 1 - min(Q) >= 1/2 for S >= 2, so t_mix >= 1 at any level <= 1/2;
    # guard anyway for exotic levels
    t_mix = max(len(d_values) - 1, 1)
    while horizon is not None and len(d_values) <= horizon:
        d_values.append(next(distances))
    return MixingProfile(d_values=np.array(d_values), t_mix=t_mix,
                         epsilon_level=level)


def _check_stationary(kernel, q, first=None) -> np.ndarray:
    # the checks that make K* well defined for a caller-supplied Q; row x of
    # K* sums to (QK)(x) / Q(x), which is 1 exactly when Q is stationary.
    # QK = W_1 C_1 comes from `first`, the first power of a sequence the
    # caller has started on this Q, else from a sequence of its own
    q = _checked_law(kernel, q)
    if np.any(q <= ZERO_MASS_TOL):
        raise ZeroStationaryMassError(
            f"stationary mass <= {ZERO_MASS_TOL:.1e} at state "
            f"{int(np.argmin(q))}")
    rows, masses = next(_power_rows(kernel, q)) if first is None else first
    qk = masses @ rows
    if np.any(np.abs(qk / q - 1.0) > REVERSAL_ROW_SUM_TOL):
        raise NumericalFailureError("reversed rows do not sum to 1")
    return q


def time_reversal(kernel: TransitionKernel, q: np.ndarray) -> TransitionKernel:
    """Time-reversed kernel K*(x, z) = Q(z) K(z, x) / Q(x).

    Raises
    ------
    DimensionMismatchError
        ``q`` does not have one entry per state.
    RangeError
        ``q`` has a non-finite entry.
    ZeroStationaryMassError
        Some Q(x) <= ``ZERO_MASS_TOL``.
    NumericalFailureError
        A reversed row sum drifts from 1 by more than
        ``REVERSAL_ROW_SUM_TOL``.
    """
    q = _check_stationary(kernel, q)
    rev = (q[None, :] * kernel.matrix.T) / q[:, None]
    rev /= rev.sum(axis=1)[:, None]
    # reversal preserves the positivity pattern transpose, hence primitivity
    return TransitionKernel(rev, require_primitive=False)


@dataclass(frozen=True)
class SpectralDiagnostics:
    """Pseudo-spectral gap search result.

    ``gammas[i]`` is gamma_k at k = i + 1, where gamma_k =
    (1 - lambda_2((M^k)^T M^k)) / k with M = D K D^{-1}, D = diag(sqrt(Q));
    (M^k)^T M^k is similar to the reversiblization (K*)^k K^k.  ``gamma_ps``
    is the max over the searched range and ``argmax_k`` its argument.
    ``k_stop`` is where the search terminated: the first k >= 1/max (no
    later k can beat the running max, because gamma_k <= 1/k) or the hard
    cap.
    """

    gamma_ps: float
    argmax_k: int
    gammas: tuple[float, ...]
    k_stop: int


def _gram_matrices(kernel, q: np.ndarray):
    """Yield, for k = 1, 2, ..., a symmetric PSD matrix G_k whose nonzero
    eigenvalues are those of (M^k)^T M^k, M = D K D^{-1}, D = diag(sqrt(Q)).

    G_k = H (H diag(1/Q))^T with H = W^(1/2) C, from the rows C and masses
    W of :func:`_power_rows`.  With K^k = E C and E^T D^2 E = W,
    (M^k)^T M^k = B^T B for B = W^(1/2) C D^{-1}, and G_k = B B^T has the
    same nonzero eigenvalues.  A raw kernel has E = I and B = M^k; a
    chain gives an R_k x R_k matrix, and the other eigenvalues are 0.
    For k <= p+1-order the classes of a chain's K^k reach disjoint
    columns, so G_k is exactly diagonal; its diagonal still comes from
    the product, as every other entry does.  Before the first G, the
    first power checks Q as :func:`_check_stationary` does, so a gap
    starts one sequence of powers.
    """
    powers = _power_rows(kernel, q)
    rows, masses = next(powers)
    q = _check_stationary(kernel, q, (rows, masses))
    while True:
        h = np.sqrt(masses)[:, None] * rows
        yield h @ (h / q[None, :]).T
        rows, masses = next(powers)


def _eigenvalues(gram: np.ndarray) -> np.ndarray:
    # ascending eigenvalues of a symmetric matrix.  LAPACK's tridiagonal
    # reduction leaves a diagonal matrix as it is and dsterf then sorts its
    # diagonal, so that matrix skips the solver with the same bits; a
    # non-finite diagonal fails, as LAPACK fails on it from 3 x 3 up
    diagonal = gram.diagonal()
    if np.count_nonzero(gram) == np.count_nonzero(diagonal):
        if not np.all(np.isfinite(diagonal)):
            raise EigensolverFailureError(
                "Eigenvalues did not converge: non-finite diagonal")
        return np.sort(diagonal)
    try:
        return np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailureError(str(exc)) from exc


def pseudo_spectral_gap(kernel: TransitionKernel | MarkovizedChain,
                        q: np.ndarray | None = None) -> SpectralDiagnostics:
    """Pseudo-spectral gap gamma_ps = max_k gamma((K*)^k K^k) / k.

    With D = diag(sqrt(Q)) and M = D K D^{-1}, the reversiblization
    satisfies D (K*)^k K^k D^{-1} = (M^k)^T M^k, which is symmetric by
    construction.  Each k takes lambda_2 from :func:`_gram_matrices`, one
    matrix per k with the eigenvalues of (M^k)^T M^k (and zeros for a
    :class:`MarkovizedChain`): the sorted diagonal of an exactly diagonal
    matrix, as LAPACK returns it, else a symmetric eigensolver.  Early k can
    give gamma_k = 0 (a repeated eigenvalue 1 at small k happens for
    embedded higher-order chains); the stop rule k >= 1/max only engages
    once the running max is positive.

    Raises
    ------
    DimensionMismatchError
        ``q`` does not have one entry per state.
    RangeError
        ``q`` has a non-finite entry.
    ZeroStationaryMassError
        Some Q(x) is numerically zero.
    EigensolverFailureError
        LAPACK failed to converge, or a diagonal G_k is not finite.
    NumericalFailureError
        Q is inconsistent with the kernel (reversed row sums off 1) or an
        eigenvalue lies far outside [0, 1].
    """
    if kernel.size < 2:
        raise DimensionMismatchError("need at least 2 states for a spectral gap")
    grams = _gram_matrices(kernel, _law(kernel, q))
    gammas = []
    best = 0.0
    best_k = 0
    k = 0
    while k < GAP_K_CAP:
        k += 1
        # a Python float, so gamma_ps and gammas are Python floats
        lam2 = float(_eigenvalues(next(grams))[-2])
        if lam2 > 1.0 + 1e-8 or lam2 < -1e-8:
            raise NumericalFailureError(
                f"eigenvalue {lam2!r} of A_{k} outside [0, 1]")
        lam2 = min(max(lam2, 0.0), 1.0)
        gammas.append((1.0 - lam2) / k)
        if gammas[-1] > best:
            best = gammas[-1]
            best_k = k
        if best > 0.0 and k >= 1.0 / best:
            break
    return SpectralDiagnostics(gamma_ps=best, argmax_k=best_k,
                               gammas=tuple(gammas), k_stop=k)


@dataclass(frozen=True)
class HigherOrderChainSpec:
    """Order-k chain on symbols {0..S-1} given by its conditional law.

    ``conditional`` has shape (S**order, S): row c is the law of the next
    symbol given the last ``order`` symbols, where context c encodes those
    symbols most-recent-first (the previous symbol is the most significant
    base-S digit).
    """

    symbols: int
    order: int
    conditional: np.ndarray

    def __post_init__(self):
        if self.symbols < 2:
            raise RangeError("need at least 2 symbols")
        if self.order < 1:
            raise RangeError("order must be >= 1")
        cond = np.array(self.conditional, dtype=float)
        expected = (self.symbols ** self.order, self.symbols)
        if cond.shape != expected:
            raise DimensionMismatchError(
                f"conditional must have shape {expected}, got {cond.shape}")
        object.__setattr__(self, "conditional", _stochastic_rows(
            cond, "conditional", "conditional row"))

    @classmethod
    def from_kernel(cls, matrix) -> "HigherOrderChainSpec":
        """Order-1 spec from a plain transition matrix."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("kernel must be square")
        return cls(symbols=m.shape[0], order=1, conditional=m)


class MarkovizedChain:
    """First-order chain on tuples (Y_t, ..., Y_{t-p}) embedding an order-k chain.

    Composite labels are base-S integers with the most recent symbol most
    significant: x = Y_t * S^p + Y_{t-1} * S^{p-1} + ... + Y_{t-p}.  A step
    appending symbol y maps x to y * S^p + x // S.  Derived indices:

    - target(x)    = x // S^p           (the symbol a predictor must guess)
    - features(x)  = x mod S^p          (the p symbols it may look at)
    - a memory-q predictor reads features(x) // S^(p-q)
    - the next-symbol law of x is conditional row x // S^(p+1-k)

    It carries no sampler state.  Construct through :func:`markovize`.
    """

    def __init__(self, base: HigherOrderChainSpec, embedding_order: int,
                 stationary: np.ndarray):
        self.base = base
        self.embedding_order = embedding_order
        self.stationary = stationary
        s = base.symbols
        p = embedding_order
        self.n_states = n = s ** (p + 1)
        xs = np.arange(n)
        self.targets = xs // s ** p
        self.feature_index = xs % s ** p

    @cached_property
    def kernel(self) -> TransitionKernel:
        """Dense S x S kernel, built on first access only."""
        return _tuple_kernel(self.base, self.embedding_order, False)

    @property
    def symbols(self) -> int:
        return self.base.symbols

    @property
    def size(self) -> int:
        """State count, as :attr:`TransitionKernel.size`."""
        return self.n_states

    def decode(self, label: int) -> tuple[int, ...]:
        """Composite label -> (Y_t, Y_{t-1}, ..., Y_{t-p})."""
        s = self.base.symbols
        out = []
        for _ in range(self.embedding_order + 1):
            out.append(label % s)
            label //= s
        return tuple(reversed(out))

    def encode(self, syms) -> int:
        """(Y_t, Y_{t-1}, ..., Y_{t-p}) -> composite label."""
        syms = tuple(int(v) for v in syms)
        if len(syms) != self.embedding_order + 1:
            raise DimensionMismatchError(
                f"need {self.embedding_order + 1} symbols, got {len(syms)}")
        s = self.base.symbols
        label = 0
        for v in syms:
            if not 0 <= v < s:
                raise RangeError(f"symbol {v} outside [0, {s})")
            label = label * s + v
        return label

    def context_index(self, order_q: int):
        """Per-state memory-q context indices (vectorized)."""
        p = self.embedding_order
        if not 0 <= order_q <= p:
            raise RangeError(f"memory order must lie in [0, {p}]")
        return self.feature_index // self.base.symbols ** (p - order_q)

    def symbol_marginal(self) -> np.ndarray:
        """Stationary law of a single symbol (projection of the tuple law)."""
        out = np.zeros(self.base.symbols)
        np.add.at(out, self.targets, self.stationary)
        return out


def _tuple_kernel(base: HigherOrderChainSpec, p: int,
                  require_primitive: bool) -> TransitionKernel:
    # (p+1)-tuple chain: state x has the row of its class x // s
    s = base.symbols
    return TransitionKernel(
        _class_kernel(_append_weights(base, p))[np.arange(s ** (p + 1)) // s],
        require_primitive=require_primitive)


def markovize(base: HigherOrderChainSpec, embedding_order: int,
              require_primitive: bool = True) -> MarkovizedChain:
    """Embed an order-k chain as a first-order chain on (p+1)-tuples.

    Only the s^(k+1)-state (k+1)-tuple chain is checked for primitivity
    (equivalent for p >= k: both hold exactly when ``conditional > 0``)
    and solved; the append rule Q_(j+1)(y*s^j + u) = Q_j(u) *
    conditional[u // s^(j-k), y] extends its law to (p+1)-tuples.  The
    S x S kernel is built lazily, by :attr:`MarkovizedChain.kernel`.

    Parameters
    ----------
    base : HigherOrderChainSpec
    embedding_order : int
        p >= base.order; predictors built on the result may consult up to
        p past symbols.  The composite space has S**(p+1) states, at most
        ``MARKOVIZE_STATE_CAP``.
    require_primitive : bool
        The composite kernel of a strictly positive conditional is always
        primitive; conditionals with structural zeros leave unreachable
        tuple states and fail the check.  Pass False to build anyway (e.g.
        to study deterministic chains).

    Raises
    ------
    RangeError, SizeOverflowError, NonPrimitiveError
    """
    k = base.order
    p = embedding_order
    s = base.symbols
    if p < k:
        raise RangeError(f"embedding order {p} < base order {k}")
    n = s ** (p + 1)
    if n > MARKOVIZE_STATE_CAP:
        raise SizeOverflowError(
            f"composite space needs {n} states, cap is {MARKOVIZE_STATE_CAP}")
    kernel = _tuple_kernel(base, k, require_primitive)
    if kernel.primitive:
        stationary = stationary_distribution(kernel)
        for j in range(k + 1, p + 1):
            stationary = _append_step(stationary[None],
                                      _append_weights(base, j))[0]
    else:
        # no unique stationary law; use a uniform placeholder so sampling
        # from explicit starts still works
        stationary = np.full(n, 1.0 / n)
    return MarkovizedChain(base, p, stationary)
