"""Closed-form concentration and oracle bounds for hold-out selection.

Every function evaluates one right-hand side exactly as stated for a
uniformly ergodic chain with mixing time ``t_mix`` (TV level 1/4) and
pseudo-spectral gap ``gamma_ps``.  Raw values are returned unclamped; a
value >= 1 is a vacuous tail bound and is flagged, never an error.

Conventions: ``m`` validation length, ``b`` coupling burn-in, ``epsilon``
deviation level, ``a`` multiplicative localization ("over" compares
(1+a)-scaled risks, "under" (1-a)), ``theta`` oracle leniency,
``n_candidates`` union-bound count, ``tau_star`` the noise modulus's fixed
point at m.  ``_DOMAINS`` holds the one domain rule of each parameter name.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial, wraps

import numpy as np

from .chains import LN2, HigherOrderChainSpec, MarkovizedChain
from .errors import (
    BinaryOnlyError,
    DimensionMismatchError,
    DivisionGuardError,
    KeyMismatchError,
    NoSolutionError,
    NumericalFailureError,
    RangeError,
)

_DENOM_GUARD = 1e-300
_HOEFFDING_SHAPE = 1.0 + 9.0 * LN2   # shared constant in the Hoeffding family

_WHOLE = (lambda v: v == int(v) and v >= 1, "must be a positive integer")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
_HALF_OPEN_UNIT = (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0.0, "must be >= 0")

# parameter name -> (test, domain text), in the order a call checks them;
# a failed test is the RangeError "<name> <domain>, got <value>"
_DOMAINS = {
    "m": _WHOLE,
    "b": (lambda v: v == int(v) and v >= 0, "must be a non-negative integer"),
    "epsilon": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "t_mix": _WHOLE,
    "gamma_ps": _HALF_OPEN_UNIT,
    "a": _OPEN_UNIT,
    "theta": _OPEN_UNIT,
    "n_candidates": _WHOLE,
    "tau_star": _POSITIVE,
    "delta": _OPEN_UNIT,
    "variance": (lambda v: 0.0 <= v <= 0.25, "must lie in [0, 0.25]"),
    "centering_bound": _HALF_OPEN_UNIT,
    "risk_best": _NON_NEGATIVE,
    "risk_bayes": _NON_NEGATIVE,
    "excess_best": _NON_NEGATIVE,
    "alpha": _HALF_OPEN_UNIT,
    "h": _POSITIVE,
    "r": _NON_NEGATIVE,   # the argument of a noise modulus
}


def _check_domains(values: dict, rules=tuple(_DOMAINS.items())) -> None:
    """Check each value that is not None by the rule of its name."""
    m = values.get("m")
    for name, (test, domain) in rules:
        value = values.get(name)
        if value is not None and not test(value):
            raise RangeError(f"{name} {domain}, got {value}")
        if name == "b" and not (value is None or m is None or value < m):
            raise RangeError(f"need b < m, got b={value}, m={m}")


@cache
def _positional(func) -> tuple[tuple[str, object], ...]:
    # (name, default or None) of each positional parameter, read once per
    # function: inspect.signature costs more than evaluating a bound
    return tuple((name, None if p.default is p.empty else p.default)
                 for name, p in inspect.signature(func).parameters.items()
                 if p.kind is p.POSITIONAL_OR_KEYWORD)


def _checked(func):
    # func, checking each argument by its name's rule; rules are picked here
    names = tuple(name for name, _ in _positional(func))
    rules = tuple(item for item in _DOMAINS.items() if item[0] in names)

    @wraps(func)
    def checked(*args, **kwargs):
        _check_domains(dict(zip(names, args), **kwargs), rules)
        return func(*args, **kwargs)
    return checked


def _side_factor(a: float, side: str) -> float:
    if side == "over":
        return 1.0 + a
    if side == "under":
        return 1.0 - a
    raise RangeError(f"side must be 'over' or 'under', got {side!r}")


# ---------------------------------------------------------------------------
# Hoeffding family


@_checked
def hoeffding_gap_tail(m: int, b: int, epsilon: float, t_mix: int) -> float:
    """Tail for the burn-in empirical mean: worst-start coupling + Hoeffding."""
    return (math.exp(-2.0 * (m - b) * epsilon ** 2 / (9.0 * t_mix))
            + 2.0 * math.exp(-b * LN2 / t_mix))


@_checked
def gap_event_shift(m: int, b: int) -> Fraction:
    """Exact threshold shift b/m attached to the full-mean shifted event."""
    return Fraction(int(b), int(m))


@_checked
def hoeffding_tail(m: int, epsilon: float, t_mix: int) -> float:
    """Burn-in-free deviation tail with the optimized b folded in."""
    prefactor = 2.0 * math.exp(LN2 / t_mix) + 1.0
    return prefactor * math.exp(
        -m * epsilon ** 2 * LN2 / (_HOEFFDING_SHAPE * t_mix))


@_checked
def selection_hoeffding_tail(n_candidates: int, m: int, epsilon: float,
                             t_mix: int) -> float:
    """Union bound over the candidate family."""
    return n_candidates * hoeffding_tail(m, epsilon, t_mix)


@_checked
def expectation_bound_hoeffding(n_candidates: int, m: int, t_mix: int) -> float:
    """Bound on E[max candidate deviation] from integrating the union tail."""
    log_term = math.log(
        math.e * n_candidates * (2.0 * math.exp(LN2 / t_mix) + 1.0))
    return math.sqrt(log_term * _HOEFFDING_SHAPE * t_mix / (LN2 * m))


@_checked
def oracle_gap_hoeffding(n_candidates: int, m: int, t_mix: int) -> float:
    """Bound on E[risk(selected) - risk(best candidate)]."""
    return 2.0 * expectation_bound_hoeffding(n_candidates, m, t_mix)


# ---------------------------------------------------------------------------
# Bernstein family


def bernstein_tail_raw(m: int, epsilon: float, gamma_ps: float,
                       variance: float, centering_bound: float = 1.0) -> float:
    """Variance-adaptive tail for a sum of m stationary evaluations."""
    _check_domains({**locals(), "epsilon": None})  # this epsilon may exceed 1
    if not epsilon >= 0.0:
        raise RangeError(f"epsilon must be >= 0, got {epsilon}")
    denom = (8.0 * (m + 1.0 / gamma_ps) * variance
             + 20.0 * m * epsilon * centering_bound)
    if denom < _DENOM_GUARD:
        raise DivisionGuardError(
            f"denominator {denom!r} too small (epsilon and variance both ~0)")
    return math.exp(-m ** 2 * epsilon ** 2 * gamma_ps / denom)


@_checked
def bernstein_deviation_radius(m: int, delta: float, gamma_ps: float,
                               variance: float,
                               centering_bound: float = 1.0) -> float:
    """Radius r with P(|sum deviation| > r) <= delta, inverted from the tail."""
    log_term = math.log(1.0 / delta)
    return (math.sqrt(8.0 * (gamma_ps + 1.0) / gamma_ps ** 2
                      * m * variance * log_term)
            + 20.0 / gamma_ps * centering_bound * log_term)


@_checked
def bernstein_gap_tail(m: int, b: int, epsilon: float, a: float,
                       gamma_ps: float, t_mix: int, side: str) -> float:
    """Localized (multiplicatively scaled) tail with explicit burn-in."""
    factor = _side_factor(a, side)
    shape = 8.0 * (1.0 + 1.0 / gamma_ps) + 20.0
    return (math.exp(-(m - b) * gamma_ps * a * factor * epsilon / shape)
            + 2.0 * math.exp(-b * LN2 / t_mix))


@_checked
def bernstein_tail(m: int, epsilon: float, a: float, gamma_ps: float,
                   t_mix: int, side: str) -> float:
    """Localized tail with the burn-in optimized away."""
    factor = _side_factor(a, side)
    shape = 8.0 * (1.0 + 1.0 / gamma_ps) + 20.0
    prefactor = 1.0 + 2.0 * math.exp(LN2 / t_mix)
    return prefactor * math.exp(
        -a * factor * m * epsilon / (4.0 * t_mix * shape))


@_checked
def expectation_bound_bernstein(n_candidates: int, m: int, a: float,
                                t_mix: int, gamma_ps: float,
                                side: str) -> float:
    """Bound on the expected scaled deviation of the selected candidate."""
    factor = _side_factor(a, side)
    shape = 8.0 * (1.0 + 1.0 / gamma_ps) + 20.0
    log_term = math.log(
        math.e * n_candidates * (2.0 * math.exp(LN2 / t_mix) + 1.0))
    return 4.0 * t_mix * shape * log_term / (a * factor * m)


def _bernstein_log_coefficient(n_candidates, m, a, t_mix, gamma_ps):
    return sum(expectation_bound_bernstein(n_candidates, m, a, t_mix,
                                           gamma_ps, side)
               for side in ("over", "under"))


@_checked
def oracle_gap_bernstein(n_candidates: int, m: int, a: float, t_mix: int,
                         gamma_ps: float, risk_best: float) -> float:
    """Bound on E[risk(selected)] - risk(best): variance terms plus a
    multiplicative (2a/(1-a^2)) * risk(best) localization cost."""
    variance_terms = _bernstein_log_coefficient(n_candidates, m, a, t_mix,
                                                gamma_ps)
    return variance_terms + 2.0 * a / (1.0 - a * a) * risk_best


@_checked
def oracle_excess_bernstein(n_candidates: int, m: int, a: float, t_mix: int,
                            gamma_ps: float, risk_best: float,
                            risk_bayes: float) -> float:
    """Bound on E[risk(selected)] - risk_bayes, as printed.

    Not strictly an oracle inequality: the right side keeps an additive
    (2a/(1-a^2)) * risk_bayes term that does not vanish with the excess.
    Reports built on it carry ``not_strictly_oracle=True``.
    """
    if not risk_best >= risk_bayes - 1e-12:
        raise RangeError("best candidate risk cannot beat the Bayes risk")
    loc = 2.0 * a / (1.0 - a * a)
    variance_terms = _bernstein_log_coefficient(n_candidates, m, a, t_mix,
                                                gamma_ps)
    return ((1.0 + loc) * (risk_best - risk_bayes) + variance_terms
            + loc * risk_bayes)


# ---------------------------------------------------------------------------
# Noise-condition family


@_checked
def nc_gap_tail(n_candidates: int, m: int, b: int, epsilon: float,
                theta: float, gamma_ps: float, t_mix: int,
                tau_star: float) -> float:
    """Excess-risk tail under the variance-modulus noise condition, with burn-in."""
    shape = 16.0 * (1.0 + 1.0 / gamma_ps) * m * tau_star + 80.0 * theta
    exponent = (theta * gamma_ps * (m - b) * epsilon) / ((1.0 + theta) * shape)
    return (n_candidates * math.exp(-exponent)
            + 2.0 * math.exp(-b * LN2 / t_mix))


@_checked
def nc_event_shift(m: int, b: int, theta: float) -> float:
    """Threshold shift (1+theta) * 2b/m attached to the full-mean event.

    b and m are divided by 4 first, which is exact, so 2(1+theta)b cannot
    overflow for b < m; a shift that did not overflow keeps the bits of the
    product taken left to right.
    """
    return (1.0 + theta) * 2.0 * (b / 4.0) / (m / 4.0)


@_checked
def nc_tail(n_candidates: int, m: int, epsilon: float, theta: float,
            gamma_ps: float, t_mix: int, tau_star: float) -> float:
    """Excess-risk tail with the burn-in optimized away."""
    shape = 16.0 * (1.0 + 1.0 / gamma_ps) * m * tau_star + 80.0 * theta
    exponent = (theta * gamma_ps * m * epsilon) / (4.0 * t_mix
                                                   * (1.0 + theta) * shape)
    prefactor = n_candidates + 2.0 * math.exp(LN2 / t_mix)
    return prefactor * math.exp(-exponent)


@_checked
def nc_oracle_rhs(n_candidates: int, m: int, theta: float, gamma_ps: float,
                  t_mix: int, tau_star: float, excess_best: float) -> float:
    """Bound on E[risk(selected) - risk_bayes] given the best candidate excess."""
    shape = 16.0 * (1.0 + 1.0 / gamma_ps) * m * tau_star + 80.0 * theta
    log_term = math.log(
        math.e * (2.0 * math.exp(LN2 / t_mix) + n_candidates))
    return (1.0 + theta) * (excess_best
                            + 4.0 * t_mix * shape * log_term
                            / (theta * gamma_ps * m))


@_checked
def mt_oracle_rhs(n_candidates: int, m: int, theta: float, gamma_ps: float,
                  t_mix: int, alpha: float, h: float,
                  excess_best: float) -> float:
    """:func:`nc_oracle_rhs` specialized to the polynomial modulus, with the
    fixed point solved in closed form; algebraically identical to plugging
    tau_star(m) of the polynomial model into nc_oracle_rhs."""
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
        _check_domains(vars(self))

    @_checked
    def omega(self, r: float) -> float:
        return (r / self.h) ** (self.alpha / 2.0)

    @_checked
    def tau_star(self, m: int) -> float:
        """Fixed point of omega(eps) = sqrt(m)*eps: (m h^alpha)^(-1/(2-alpha))."""
        try:
            return (m * self.h ** self.alpha) ** (-1.0 / (2.0 - self.alpha))
        except OverflowError as exc:
            raise NumericalFailureError(
                f"tau_star overflows at m={m}, h={self.h}") from exc


@dataclass(frozen=True)
class TabulatedNoise:
    """Variance modulus given on a grid, linearly interpolated.

    Validation enforces the defining property that omega(x)/sqrt(x) is
    non-increasing (equivalently omega is concave-like enough for a unique
    fixed point).  Every radius, omega(0) and every ratio must be finite.
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
        # checked first: numpy warns on differences of infinities
        if not (np.isfinite(r).all() and np.isfinite(v[r == 0.0]).all()):
            raise RangeError("radii and omega(0) must be finite")
        if r[0] < 0.0 or np.any(np.diff(r) <= 0.0):
            raise RangeError("radii must be non-negative and strictly increasing")
        if np.any(v < 0.0):
            raise RangeError("modulus values must be >= 0")
        positive = r > 0.0
        # a ratio past the largest double is rejected, not a numpy warning
        with np.errstate(over="ignore"):
            ratio = v[positive] / np.sqrt(r[positive])
        if not np.all(np.isfinite(ratio)):
            at = r[positive][~np.isfinite(ratio)][0]
            raise RangeError(
                f"omega(x)/sqrt(x) is not finite at radius {at.item()!r}")
        if np.any(np.diff(ratio) > 1e-12):
            raise RangeError("omega(x)/sqrt(x) must be non-increasing")
        r.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)

    @_checked
    def omega(self, r: float) -> float:
        return float(np.interp(r, self.radii, self.values))

    @_checked
    def tau_star(self, m: int) -> float:
        return _bisect_fixed_point(self.omega, m)


# a margin at or below this is numerically zero
ZERO_MARGIN_TOL = 1e-12


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


# registered tail/radius/expectation forms for grid evaluation by the CLI:
# id -> (function, shift or None).  A form's parameters are its function's
# positional parameters, so renaming one renames a `bounds` config key; the
# CLI sweeps epsilon if the form takes it, else delta.  A shift maps the
# parameters to the threshold shift of the full-mean event that verify
# checks the form on; None means the form's own event is checked.
BOUND_FORMS = {
    "hoeffding_gap": (hoeffding_gap_tail, None),
    # the full-mean event shifted by b/m has the burn-in event's tail
    "hoeffding_shifted": (hoeffding_gap_tail, gap_event_shift),
    "hoeffding": (hoeffding_tail, None),
    "selection_hoeffding": (selection_hoeffding_tail, None),
    "bernstein_raw": (bernstein_tail_raw, None),
    "bernstein_radius": (bernstein_deviation_radius, None),
    "bernstein_gap_over": (partial(bernstein_gap_tail, side="over"),
                           gap_event_shift),
    "bernstein_gap_under": (partial(bernstein_gap_tail, side="under"),
                            gap_event_shift),
    "bernstein_over": (partial(bernstein_tail, side="over"), None),
    "bernstein_under": (partial(bernstein_tail, side="under"), None),
    "expectation_hoeffding": (expectation_bound_hoeffding, None),
    "oracle_gap_hoeffding": (oracle_gap_hoeffding, None),
    "expectation_bernstein_over": (
        partial(expectation_bound_bernstein, side="over"), None),
    "expectation_bernstein_under": (
        partial(expectation_bound_bernstein, side="under"), None),
    "noise_gap": (nc_gap_tail, nc_event_shift),
    "noise": (nc_tail, None),
}


def _form(bound_id: str) -> tuple:
    """(function, shift) of a registered form."""
    if bound_id not in BOUND_FORMS:
        raise KeyMismatchError(f"unknown bound id {bound_id!r}")
    return BOUND_FORMS[bound_id]


def _evaluate(func, params: dict, label: str) -> tuple[dict, float]:
    """(inputs, value) of ``func`` called on its positional parameters, each
    read from ``params`` by name or else taken from its default.

    A parameter with neither is a KeyMismatchError; an ArithmeticError or a
    NaN value is a NumericalFailureError.  Both messages begin with
    ``label``.  An infinite value is returned: what it means is the
    caller's rule.
    """
    inputs = {k: params.get(k, default) for k, default in _positional(func)}
    missing = [k for k, v in inputs.items() if v is None]
    if missing:
        raise KeyMismatchError(f"{label} missing parameters {missing}")
    try:
        value = func(*inputs.values())
    except ArithmeticError as exc:
        raise NumericalFailureError(
            f"{label} failed to evaluate: {exc}") from exc
    if math.isnan(value):
        raise NumericalFailureError(f"{label} evaluated to NaN")
    return inputs, value


def form_parameters(bound_id: str) -> tuple[str, ...]:
    """Parameter names of a registered form, in its function's order."""
    return tuple(name for name, _ in _positional(_form(bound_id)[0]))


def event_shift(bound_id: str, params: dict):
    """Threshold shift of the full-mean event verify checks a form on, from
    the shift function's parameters in ``params``; None when the form's own
    event is checked."""
    shift = _form(bound_id)[1]
    if shift is None:
        return None
    return _evaluate(shift, params, f"shift of bound {bound_id!r}")[1]


def evaluate_bound(bound_id: str, params: dict) -> BoundReport:
    """Evaluate a registered bound form from a parameter mapping.

    The mapping must provide every parameter the form's function takes
    that has no default (``centering_bound`` defaults to 1.0); extra keys
    are ignored.  A raw value of +inf is a vacuous bound, not an error.
    """
    inputs, raw = _evaluate(_form(bound_id)[0], params,
                            f"bound {bound_id!r}")
    return BoundReport(bound_id=bound_id, raw=raw, clamped=min(raw, 1.0),
                       vacuous=raw >= 1.0, inputs=inputs)
