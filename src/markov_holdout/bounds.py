"""Closed-form concentration and oracle bounds for hold-out selection.

Every function evaluates one right-hand side exactly as stated for a
uniformly ergodic chain with mixing time ``t_mix`` (TV level 1/4) and
pseudo-spectral gap ``gamma_ps``.  Raw values are returned unclamped; a
value >= 1 is a vacuous tail bound and is flagged, never an error.

Conventions: ``m`` validation length, ``b`` coupling burn-in, ``epsilon``
deviation level, ``a`` the multiplicative localization parameter in (0, 1)
("over" compares (1+a)-scaled risks, "under" (1-a)), ``theta`` the oracle
leniency in (0, 1), ``n_candidates`` the union-bound count, ``tau_star``
the fixed point of the noise modulus at sample size m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .chains import LN2, HigherOrderChainSpec, MarkovizedChain
from .errors import (
    BinaryOnlyError,
    DimensionMismatchError,
    DivisionGuardError,
    KeyMismatchError,
    NoSolutionError,
    RangeError,
)

_DENOM_GUARD = 1e-300
_HOEFFDING_SHAPE = 1.0 + 9.0 * LN2   # shared constant in the Hoeffding family


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise RangeError(message)


def _check_common(m=None, b=None, epsilon=None, t_mix=None, gamma_ps=None,
                  a=None, theta=None, n_candidates=None, tau_star=None) -> None:
    if m is not None:
        _check(m == int(m) and m >= 1, f"m must be a positive integer, got {m}")
    if b is not None:
        _check(b == int(b) and b >= 0, f"b must be a non-negative integer, got {b}")
        if m is not None:
            _check(b < m, f"need b < m, got b={b}, m={m}")
    if epsilon is not None:
        _check(0.0 <= epsilon <= 1.0, f"epsilon must lie in [0, 1], got {epsilon}")
    if t_mix is not None:
        _check(t_mix == int(t_mix) and t_mix >= 1,
               f"t_mix must be a positive integer, got {t_mix}")
    if gamma_ps is not None:
        _check(0.0 < gamma_ps <= 1.0,
               f"gamma_ps must lie in (0, 1], got {gamma_ps}")
    if a is not None:
        _check(0.0 < a < 1.0, f"a must lie in (0, 1), got {a}")
    if theta is not None:
        _check(0.0 < theta < 1.0, f"theta must lie in (0, 1), got {theta}")
    if n_candidates is not None:
        _check(n_candidates == int(n_candidates) and n_candidates >= 1,
               f"n_candidates must be a positive integer, got {n_candidates}")
    if tau_star is not None:
        _check(tau_star > 0.0, f"tau_star must be positive, got {tau_star}")


def _side_factor(a: float, side: str) -> float:
    if side == "over":
        return 1.0 + a
    if side == "under":
        return 1.0 - a
    raise RangeError(f"side must be 'over' or 'under', got {side!r}")


# ---------------------------------------------------------------------------
# Hoeffding family


def hoeffding_gap_tail(m: int, b: int, epsilon: float, t_mix: int) -> float:
    """Tail for the burn-in empirical mean: worst-start coupling + Hoeffding."""
    _check_common(m=m, b=b, epsilon=epsilon, t_mix=t_mix)
    return (math.exp(-2.0 * (m - b) * epsilon ** 2 / (9.0 * t_mix))
            + 2.0 * math.exp(-b * LN2 / t_mix))


def gap_event_shift(m: int, b: int) -> Fraction:
    """Exact threshold shift b/m attached to the full-mean shifted event."""
    _check_common(m=m, b=b)
    return Fraction(int(b), int(m))


def hoeffding_tail(m: int, epsilon: float, t_mix: int) -> float:
    """Burn-in-free deviation tail with the optimized b folded in."""
    _check_common(m=m, epsilon=epsilon, t_mix=t_mix)
    prefactor = 2.0 * math.exp(LN2 / t_mix) + 1.0
    return prefactor * math.exp(
        -m * epsilon ** 2 * LN2 / (_HOEFFDING_SHAPE * t_mix))


def selection_hoeffding_tail(n_candidates: int, m: int, epsilon: float,
                             t_mix: int) -> float:
    """Union bound over the candidate family."""
    _check_common(n_candidates=n_candidates)
    return n_candidates * hoeffding_tail(m, epsilon, t_mix)


def expectation_bound_hoeffding(n_candidates: int, m: int, t_mix: int) -> float:
    """Bound on E[max candidate deviation] from integrating the union tail."""
    _check_common(m=m, t_mix=t_mix, n_candidates=n_candidates)
    log_term = math.log(
        math.e * n_candidates * (2.0 * math.exp(LN2 / t_mix) + 1.0))
    return math.sqrt(log_term * _HOEFFDING_SHAPE * t_mix / (LN2 * m))


def oracle_gap_hoeffding(n_candidates: int, m: int, t_mix: int) -> float:
    """Bound on E[risk(selected) - risk(best candidate)]."""
    return 2.0 * expectation_bound_hoeffding(n_candidates, m, t_mix)


# ---------------------------------------------------------------------------
# Bernstein family


def bernstein_tail_raw(n: int, epsilon: float, gamma_ps: float,
                       variance: float, centering_bound: float = 1.0) -> float:
    """Variance-adaptive tail for a sum of n stationary evaluations."""
    _check_common(m=n, gamma_ps=gamma_ps)
    _check(epsilon >= 0.0, f"epsilon must be >= 0, got {epsilon}")
    _check(0.0 <= variance <= 0.25,
           f"variance proxy must lie in [0, 0.25], got {variance}")
    _check(0.0 < centering_bound <= 1.0,
           f"centering bound must lie in (0, 1], got {centering_bound}")
    denom = (8.0 * (n + 1.0 / gamma_ps) * variance
             + 20.0 * n * epsilon * centering_bound)
    if denom < _DENOM_GUARD:
        raise DivisionGuardError(
            f"denominator {denom!r} too small (epsilon and variance both ~0)")
    return math.exp(-n ** 2 * epsilon ** 2 * gamma_ps / denom)


def bernstein_deviation_radius(n: int, delta: float, gamma_ps: float,
                               variance: float,
                               centering_bound: float = 1.0) -> float:
    """Radius r with P(|sum deviation| > r) <= delta, inverted from the tail."""
    _check_common(m=n, gamma_ps=gamma_ps)
    _check(0.0 < delta < 1.0, f"delta must lie in (0, 1), got {delta}")
    _check(0.0 <= variance <= 0.25,
           f"variance proxy must lie in [0, 0.25], got {variance}")
    _check(0.0 < centering_bound <= 1.0,
           f"centering bound must lie in (0, 1], got {centering_bound}")
    log_term = math.log(1.0 / delta)
    return (math.sqrt(8.0 * (gamma_ps + 1.0) / gamma_ps ** 2
                      * n * variance * log_term)
            + 20.0 / gamma_ps * centering_bound * log_term)


def bernstein_gap_tail(m: int, b: int, epsilon: float, a: float,
                       gamma_ps: float, t_mix: int, side: str) -> float:
    """Localized (multiplicatively scaled) tail with explicit burn-in."""
    _check_common(m=m, b=b, epsilon=epsilon, t_mix=t_mix, gamma_ps=gamma_ps, a=a)
    factor = _side_factor(a, side)
    shape = 8.0 * (1.0 + 1.0 / gamma_ps) + 20.0
    return (math.exp(-(m - b) * gamma_ps * a * factor * epsilon / shape)
            + 2.0 * math.exp(-b * LN2 / t_mix))


def bernstein_tail(m: int, epsilon: float, a: float, gamma_ps: float,
                   t_mix: int, side: str) -> float:
    """Localized tail with the burn-in optimized away."""
    _check_common(m=m, epsilon=epsilon, t_mix=t_mix, gamma_ps=gamma_ps, a=a)
    factor = _side_factor(a, side)
    shape = 8.0 * (1.0 + 1.0 / gamma_ps) + 20.0
    prefactor = 1.0 + 2.0 * math.exp(LN2 / t_mix)
    return prefactor * math.exp(
        -a * factor * m * epsilon / (4.0 * t_mix * shape))


def expectation_bound_bernstein(n_candidates: int, m: int, a: float,
                                t_mix: int, gamma_ps: float,
                                side: str) -> float:
    """Bound on the expected scaled deviation of the selected candidate."""
    _check_common(m=m, t_mix=t_mix, gamma_ps=gamma_ps, a=a,
                  n_candidates=n_candidates)
    factor = _side_factor(a, side)
    shape = 8.0 * (1.0 + 1.0 / gamma_ps) + 20.0
    log_term = math.log(
        math.e * n_candidates * (2.0 * math.exp(LN2 / t_mix) + 1.0))
    return 4.0 * t_mix * shape * log_term / (a * factor * m)


def _bernstein_log_coefficient(n_candidates, m, a, t_mix, gamma_ps):
    over = expectation_bound_bernstein(n_candidates, m, a, t_mix, gamma_ps,
                                       "over")
    under = expectation_bound_bernstein(n_candidates, m, a, t_mix, gamma_ps,
                                        "under")
    return over + under


def oracle_gap_bernstein(n_candidates: int, m: int, a: float, t_mix: int,
                         gamma_ps: float, risk_best: float) -> float:
    """Bound on E[risk(selected)] - risk(best): variance terms plus a
    multiplicative (2a/(1-a^2)) * risk(best) localization cost."""
    _check(risk_best >= 0.0, f"risk must be >= 0, got {risk_best}")
    variance_terms = _bernstein_log_coefficient(n_candidates, m, a, t_mix,
                                                gamma_ps)
    return variance_terms + 2.0 * a / (1.0 - a * a) * risk_best


def oracle_excess_bernstein(n_candidates: int, m: int, a: float, t_mix: int,
                            gamma_ps: float, risk_best: float,
                            risk_bayes: float) -> float:
    """Bound on E[risk(selected)] - risk_bayes, as printed.

    Not strictly an oracle inequality: the right side keeps an additive
    (2a/(1-a^2)) * risk_bayes term that does not vanish with the excess.
    Reports built on it carry ``not_strictly_oracle=True``.
    """
    _check(risk_bayes >= 0.0, f"risk must be >= 0, got {risk_bayes}")
    _check(risk_best >= risk_bayes - 1e-12,
           "best candidate risk cannot beat the Bayes risk")
    loc = 2.0 * a / (1.0 - a * a)
    variance_terms = _bernstein_log_coefficient(n_candidates, m, a, t_mix,
                                                gamma_ps)
    return ((1.0 + loc) * (risk_best - risk_bayes) + variance_terms
            + loc * risk_bayes)


# ---------------------------------------------------------------------------
# Noise-condition family


def nc_gap_tail(n_candidates: int, m: int, b: int, epsilon: float,
                theta: float, gamma_ps: float, t_mix: int,
                tau_star: float) -> float:
    """Excess-risk tail under the variance-modulus noise condition, with burn-in."""
    _check_common(m=m, b=b, epsilon=epsilon, t_mix=t_mix, gamma_ps=gamma_ps,
                  theta=theta, n_candidates=n_candidates, tau_star=tau_star)
    shape = 16.0 * (1.0 + 1.0 / gamma_ps) * m * tau_star + 80.0 * theta
    exponent = (theta * gamma_ps * (m - b) * epsilon) / ((1.0 + theta) * shape)
    return (n_candidates * math.exp(-exponent)
            + 2.0 * math.exp(-b * LN2 / t_mix))


def nc_event_shift(m: int, b: int, theta: float) -> float:
    """Threshold shift (1+theta) * 2b/m attached to the full-mean event."""
    _check_common(m=m, b=b, theta=theta)
    return (1.0 + theta) * 2.0 * b / m


def nc_tail(n_candidates: int, m: int, epsilon: float, theta: float,
            gamma_ps: float, t_mix: int, tau_star: float) -> float:
    """Excess-risk tail with the burn-in optimized away."""
    _check_common(m=m, epsilon=epsilon, t_mix=t_mix, gamma_ps=gamma_ps,
                  theta=theta, n_candidates=n_candidates, tau_star=tau_star)
    shape = 16.0 * (1.0 + 1.0 / gamma_ps) * m * tau_star + 80.0 * theta
    exponent = (theta * gamma_ps * m * epsilon) / (4.0 * t_mix
                                                   * (1.0 + theta) * shape)
    prefactor = n_candidates + 2.0 * math.exp(LN2 / t_mix)
    return prefactor * math.exp(-exponent)


def nc_oracle_rhs(n_candidates: int, m: int, theta: float, gamma_ps: float,
                  t_mix: int, tau_star: float, excess_best: float) -> float:
    """Bound on E[risk(selected) - risk_bayes] given the best candidate excess."""
    _check_common(m=m, t_mix=t_mix, gamma_ps=gamma_ps, theta=theta,
                  n_candidates=n_candidates, tau_star=tau_star)
    _check(excess_best >= 0.0, f"excess must be >= 0, got {excess_best}")
    shape = 16.0 * (1.0 + 1.0 / gamma_ps) * m * tau_star + 80.0 * theta
    log_term = math.log(
        math.e * (2.0 * math.exp(LN2 / t_mix) + n_candidates))
    return (1.0 + theta) * (excess_best
                            + 4.0 * t_mix * shape * log_term
                            / (theta * gamma_ps * m))


def mt_oracle_rhs(n_candidates: int, m: int, theta: float, gamma_ps: float,
                  t_mix: int, alpha: float, h: float,
                  excess_best: float) -> float:
    """:func:`nc_oracle_rhs` specialized to the polynomial modulus, with the
    fixed point solved in closed form; algebraically identical to plugging
    tau_star(m) of the polynomial model into nc_oracle_rhs."""
    _check_common(m=m, t_mix=t_mix, gamma_ps=gamma_ps, theta=theta,
                  n_candidates=n_candidates)
    _check(0.0 < alpha <= 1.0, f"alpha must lie in (0, 1], got {alpha}")
    _check(h > 0.0, f"h must be positive, got {h}")
    _check(excess_best >= 0.0, f"excess must be >= 0, got {excess_best}")
    log_term = math.log(
        math.e * (2.0 * math.exp(LN2 / t_mix) + n_candidates))
    slow = 320.0 * t_mix / (gamma_ps * m)
    fast = (64.0 * t_mix * (1.0 + 1.0 / gamma_ps)
            * h ** (-alpha / (2.0 - alpha))
            / (theta * gamma_ps * m ** (1.0 / (2.0 - alpha))))
    return (1.0 + theta) * (excess_best + (slow + fast) * log_term)


# ---------------------------------------------------------------------------
# Noise models


def _bisect_fixed_point(omega, m: int, lo: float = 1e-15, hi: float = 1.0,
                        tol: float = 1e-12) -> float:
    """Smallest-bracket bisection for omega(eps) = sqrt(m) * eps."""
    root = math.sqrt(m)

    def f(x):
        return omega(x) - root * x

    if f(lo) <= 0.0 or f(hi) > 0.0:
        raise NoSolutionError(
            f"omega never crosses sqrt(m)*eps inside [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MammenTsybakovNoise:
    """Polynomial variance modulus omega(r) = (r/h)^(alpha/2)."""

    alpha: float
    h: float

    def __post_init__(self):
        _check(0.0 < self.alpha <= 1.0,
               f"alpha must lie in (0, 1], got {self.alpha}")
        _check(self.h > 0.0, f"h must be positive, got {self.h}")

    def omega(self, r: float) -> float:
        _check(r >= 0.0, f"modulus argument must be >= 0, got {r}")
        return (r / self.h) ** (self.alpha / 2.0)

    def tau_star(self, m: int) -> float:
        """Fixed point of omega(eps) = sqrt(m)*eps: (m h^alpha)^(-1/(2-alpha))."""
        _check_common(m=m)
        return (m * self.h ** self.alpha) ** (-1.0 / (2.0 - self.alpha))


@dataclass(frozen=True)
class TabulatedNoise:
    """Variance modulus given on a grid, linearly interpolated.

    Validation enforces the defining property that omega(x)/sqrt(x) is
    non-increasing (equivalently omega is concave-like enough for a unique
    fixed point).
    """

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        r = np.array(self.radii, dtype=float)
        v = np.array(self.values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or len(r) < 2:
            raise DimensionMismatchError(
                "radii/values must be equal-length 1-d arrays with >= 2 "
                f"points, got {r.shape} and {v.shape}")
        if r[0] < 0.0 or np.any(np.diff(r) <= 0.0):
            raise RangeError("radii must be non-negative and strictly increasing")
        if np.any(v < 0.0):
            raise RangeError("modulus values must be >= 0")
        positive = r > 0.0
        ratio = v[positive] / np.sqrt(r[positive])
        if np.any(np.diff(ratio) > 1e-12):
            raise RangeError("omega(x)/sqrt(x) must be non-increasing")
        r.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)

    def omega(self, r: float) -> float:
        _check(r >= 0.0, f"modulus argument must be >= 0, got {r}")
        return float(np.interp(r, self.radii, self.values))

    def tau_star(self, m: int) -> float:
        _check_common(m=m)
        return _bisect_fixed_point(self.omega, m)


def margin(chain_or_spec) -> float:
    """Smallest conditional margin |2 P(1 | context) - 1| of a binary chain.

    Accepts a markovized chain or a raw base spec (the latter lets one
    measure deterministic chains that cannot be embedded).
    """
    if isinstance(chain_or_spec, MarkovizedChain):
        base = chain_or_spec.base
    elif isinstance(chain_or_spec, HigherOrderChainSpec):
        base = chain_or_spec
    else:
        raise RangeError(f"cannot take the margin of {type(chain_or_spec)!r}")
    if base.symbols != 2:
        raise BinaryOnlyError("margin is defined for binary chains only")
    return float(np.abs(2.0 * base.conditional[:, 1] - 1.0).min())


# ---------------------------------------------------------------------------
# Reporting


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: raw value, clamped-to-1 value, vacuity flag."""

    bound_id: str
    raw: float
    clamped: float
    vacuous: bool
    inputs: dict = field(default_factory=dict)


def _gap_shift(p: dict) -> Fraction:
    return gap_event_shift(p["m"], p["b"])


def _nc_shift(p: dict) -> float:
    return nc_event_shift(p["m"], p["b"], p["theta"])


# registered tail/radius/expectation forms for grid evaluation by the CLI:
# id -> (function, parameter names, grid parameter or None, shift or None).
# A shift maps the parameters to the threshold shift of the full-mean event
# that verify checks the form on; None means the form's own event is checked.
BOUND_FORMS = {
    "hoeffding_gap": (hoeffding_gap_tail,
                      ("m", "b", "epsilon", "t_mix"), "epsilon", None),
    # the full-mean event shifted by b/m has the burn-in event's tail
    "hoeffding_shifted": (hoeffding_gap_tail,
                          ("m", "b", "epsilon", "t_mix"), "epsilon",
                          _gap_shift),
    "hoeffding": (hoeffding_tail, ("m", "epsilon", "t_mix"), "epsilon", None),
    "selection_hoeffding": (selection_hoeffding_tail,
                            ("n_candidates", "m", "epsilon", "t_mix"),
                            "epsilon", None),
    "bernstein_raw": (bernstein_tail_raw,
                      ("m", "epsilon", "gamma_ps", "variance",
                       "centering_bound"), "epsilon", None),
    "bernstein_radius": (bernstein_deviation_radius,
                         ("m", "delta", "gamma_ps", "variance",
                          "centering_bound"), "delta", None),
    "bernstein_gap_over": (partial(bernstein_gap_tail, side="over"),
                           ("m", "b", "epsilon", "a", "gamma_ps", "t_mix"),
                           "epsilon", _gap_shift),
    "bernstein_gap_under": (partial(bernstein_gap_tail, side="under"),
                            ("m", "b", "epsilon", "a", "gamma_ps", "t_mix"),
                            "epsilon", _gap_shift),
    "bernstein_over": (partial(bernstein_tail, side="over"),
                       ("m", "epsilon", "a", "gamma_ps", "t_mix"),
                       "epsilon", None),
    "bernstein_under": (partial(bernstein_tail, side="under"),
                        ("m", "epsilon", "a", "gamma_ps", "t_mix"),
                        "epsilon", None),
    "expectation_hoeffding": (expectation_bound_hoeffding,
                              ("n_candidates", "m", "t_mix"), None, None),
    "oracle_gap_hoeffding": (oracle_gap_hoeffding,
                             ("n_candidates", "m", "t_mix"), None, None),
    "expectation_bernstein_over": (
        partial(expectation_bound_bernstein, side="over"),
        ("n_candidates", "m", "a", "t_mix", "gamma_ps"), None, None),
    "expectation_bernstein_under": (
        partial(expectation_bound_bernstein, side="under"),
        ("n_candidates", "m", "a", "t_mix", "gamma_ps"), None, None),
    "noise_gap": (nc_gap_tail,
                  ("n_candidates", "m", "b", "epsilon", "theta", "gamma_ps",
                   "t_mix", "tau_star"), "epsilon", _nc_shift),
    "noise": (nc_tail,
              ("n_candidates", "m", "epsilon", "theta", "gamma_ps", "t_mix",
               "tau_star"), "epsilon", None),
}


def evaluate_bound(bound_id: str, params: dict) -> BoundReport:
    """Evaluate a registered bound form from a parameter mapping.

    The mapping must provide every parameter the form names
    (``centering_bound`` defaults to 1.0); extra keys are ignored.
    """
    if bound_id not in BOUND_FORMS:
        raise KeyMismatchError(f"unknown bound id {bound_id!r}")
    func, names = BOUND_FORMS[bound_id][:2]
    filled = {"centering_bound": 1.0, **params}
    missing = [k for k in names if filled.get(k) is None]
    if missing:
        raise KeyMismatchError(
            f"bound {bound_id!r} missing parameters {missing}")
    inputs = {k: filled[k] for k in names}
    raw = func(*inputs.values())
    return BoundReport(bound_id=bound_id, raw=raw, clamped=min(raw, 1.0),
                       vacuous=raw >= 1.0, inputs=inputs)
