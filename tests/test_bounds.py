"""Closed-form bound evaluators against frozen high-precision values.

Every frozen constant below was computed with a 50-digit mpmath
transcription of the same closed form, written independently of the
implementation, and is asserted to 1e-9 relative.  Wider randomized grids
against live mpmath re-evaluation run in the acceptance suite.
"""

import inspect
import itertools
from fractions import Fraction

import numpy as np
import pytest

from markov_holdout import (
    BinaryOnlyError,
    DivisionGuardError,
    HigherOrderChainSpec,
    HoldoutError,
    KeyMismatchError,
    MammenTsybakovNoise,
    NoSolutionError,
    NumericalFailureError,
    RangeError,
    TabulatedNoise,
    bernstein_deviation_radius,
    bernstein_gap_tail,
    bernstein_tail,
    bernstein_tail_raw,
    evaluate_bound,
    expectation_bound_bernstein,
    expectation_bound_hoeffding,
    gap_event_shift,
    hoeffding_gap_tail,
    hoeffding_tail,
    margin,
    markovize,
    mt_oracle_rhs,
    nc_event_shift,
    nc_gap_tail,
    nc_oracle_rhs,
    nc_tail,
    oracle_excess_bernstein,
    oracle_gap_bernstein,
    oracle_gap_hoeffding,
    selection_hoeffding_tail,
)
from markov_holdout.bounds import (
    BOUND_FORMS,
    _DOMAINS,
    _bisect_fixed_point,
    event_shift,
    form_parameters,
)

REL = 1e-9


# ---------------------------------------------------------------------------
# Hoeffding family, frozen values


def test_hoeffding_gap_tail_frozen():
    assert hoeffding_gap_tail(100, 10, 0.3, 2) == pytest.approx(
        0.46906965974059917, rel=REL)


def test_hoeffding_shifted_tail_equals_gap_tail():
    # the shifted event carries the identical tail; only the threshold moves
    rep = evaluate_bound("hoeffding_shifted",
                         {"m": 500, "b": 20, "epsilon": 0.1, "t_mix": 3})
    assert rep.raw == hoeffding_gap_tail(500, 20, 0.1, 3)
    assert gap_event_shift(500, 20) == Fraction(1, 25)


def test_hoeffding_tail_frozen():
    assert hoeffding_tail(100, 0.5, 1) == pytest.approx(
        0.45631126781144565, rel=REL)


def test_selection_hoeffding_tail_frozen():
    assert selection_hoeffding_tail(2, 500, 0.2, 3) == pytest.approx(
        3.717898199596747, rel=REL)
    assert selection_hoeffding_tail(1, 500, 0.2, 3) == pytest.approx(
        hoeffding_tail(500, 0.2, 3), rel=1e-15)


def test_expectation_bound_hoeffding_frozen():
    assert expectation_bound_hoeffding(1, 100, 1) == pytest.approx(
        0.5220111526364474, rel=REL)
    assert oracle_gap_hoeffding(1, 100, 1) == pytest.approx(
        1.0440223052728947, rel=REL)


# ---------------------------------------------------------------------------
# Bernstein family, frozen values


def test_bernstein_tail_raw_frozen():
    assert bernstein_tail_raw(100, 0.2, 0.5, 0.25, 1.0) == pytest.approx(
        0.7181148045390404, rel=REL)


def test_bernstein_deviation_radius_frozen():
    assert bernstein_deviation_radius(100, 0.1, 0.5, 0.25, 1.0) == pytest.approx(
        144.66862141733117, rel=REL)


def test_bernstein_gap_tail_frozen():
    assert bernstein_gap_tail(100, 10, 0.1, 0.5, 0.5, 2, "over") == pytest.approx(
        0.9886634523883452, rel=REL)


def test_bernstein_tail_frozen_both_sides():
    assert bernstein_tail(1000, 0.1, 0.5, 0.5, 2, "over") == pytest.approx(
        3.0937559316540484, rel=REL)
    assert bernstein_tail(1000, 0.1, 0.5, 0.5, 2, "under") == pytest.approx(
        3.565952928182986, rel=REL)


def test_expectation_bound_bernstein_frozen_both_sides():
    assert expectation_bound_bernstein(3, 1000, 0.5, 2, 0.5,
                                       "over") == pytest.approx(
        1.6150071332837543, rel=REL)
    assert expectation_bound_bernstein(3, 1000, 0.5, 2, 0.5,
                                       "under") == pytest.approx(
        4.845021399851262, rel=REL)


def test_oracle_gap_bernstein_frozen():
    assert oracle_gap_bernstein(2, 2000, 0.5, 3, 0.51, 2.0 / 15.0) == pytest.approx(
        4.303947539183983, rel=REL)


def test_oracle_excess_collapses_to_gap_when_best_is_bayes():
    # with risk_best == risk_bayes the excess form reduces exactly to the
    # gap form, a useful internal consistency identity
    gap = oracle_gap_bernstein(2, 2000, 0.5, 3, 0.51, 2.0 / 15.0)
    excess = oracle_excess_bernstein(2, 2000, 0.5, 3, 0.51, 2.0 / 15.0,
                                     2.0 / 15.0)
    assert excess == pytest.approx(gap, rel=1e-12)


def test_oracle_excess_grows_with_approximation_error():
    tight = oracle_excess_bernstein(2, 2000, 0.5, 3, 0.51, 0.2, 0.2)
    loose = oracle_excess_bernstein(2, 2000, 0.5, 3, 0.51, 0.3, 0.2)
    assert loose > tight


# ---------------------------------------------------------------------------
# noise-condition family, frozen values


def test_nc_gap_tail_frozen():
    assert nc_gap_tail(3, 1000, 20, 0.05, 0.5, 0.51, 3,
                       1.0 / 600.0) == pytest.approx(2.8167924184046065,
                                                     rel=REL)


def test_nc_event_shift():
    assert nc_event_shift(500, 20, 0.5) == pytest.approx(0.12, rel=1e-15)
    # 2b overflows a double, the shift does not
    assert nc_event_shift(1e308, 9e307, 0.5) == pytest.approx(2.7, rel=1e-15)


def test_nc_event_shift_keeps_the_bits_of_the_left_to_right_product():
    # every shift (1 + theta) * 2.0 * b / m that does not overflow, over b
    # and m from 1 to 1e308 and theta in (0, 1); 2b overflows near the top
    rng = np.random.default_rng(61)
    overflowed = 0
    for _ in range(20000):
        m = float(np.floor(10.0 ** rng.uniform(0.0, 308.0)))
        b = float(np.floor(rng.uniform(0.0, 1.0) * m))
        theta = float(rng.uniform(0.0, 1.0)) or 0.5
        if not b < m:
            continue
        expected = (1.0 + theta) * 2.0 * b / m
        shift = nc_event_shift(m, b, theta)
        if expected == float("inf"):
            overflowed += 1
            assert 0.0 <= shift < 4.0
        else:
            assert shift == expected, (m, b, theta)
    assert overflowed > 0


def test_nc_tail_sharp_at_large_m():
    tau = MammenTsybakovNoise(1.0, 0.6).tau_star(200_000)
    assert nc_tail(2, 200_000, 1.0, 0.5, 0.51, 3, tau) == pytest.approx(
        2.045509025647379e-10, rel=REL)
    assert nc_tail(2, 200_000, 1.0, 0.5, 0.51, 3, tau) < 1e-6


def test_nc_oracle_rhs_frozen():
    assert nc_oracle_rhs(2, 2000, 0.5, 0.255, 4, 1.0 / 1200.0,
                         0.0) == pytest.approx(39.91645625854508, rel=REL)


def test_nc_equals_mt_at_critical_radius():
    # spot identity; the 1000-point randomized grid runs in acceptance
    rng = np.random.default_rng(83)
    for _ in range(25):
        n_cand = int(rng.integers(1, 6))
        m = int(rng.integers(50, 5000))
        theta = float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(0.05, 1.0))
        t_mix = int(rng.integers(1, 8))
        h = float(rng.uniform(0.05, 1.0))
        excess = float(rng.uniform(0.0, 0.5))
        tau = MammenTsybakovNoise(1.0, h).tau_star(m)
        lhs = nc_oracle_rhs(n_cand, m, theta, gamma, t_mix, tau, excess)
        rhs = mt_oracle_rhs(n_cand, m, theta, gamma, t_mix, 1.0, h, excess)
        assert lhs == pytest.approx(rhs, rel=1e-10)


# ---------------------------------------------------------------------------
# shape properties


def test_tails_decrease_in_epsilon_and_m():
    eps = np.linspace(0.01, 1.0, 40)
    for tail in (
        lambda e, m: hoeffding_tail(m, e, 3),
        lambda e, m: bernstein_tail(m, e, 0.5, 0.51, 3, "over"),
        lambda e, m: nc_tail(2, m, e, 0.5, 0.51, 3, 1e-3),
        lambda e, m: hoeffding_gap_tail(m, 20, e, 3),
    ):
        values = [tail(float(e), 500) for e in eps]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        by_m = [tail(0.3, m) for m in (100, 400, 1600, 6400)]
        assert all(a >= b - 1e-15 for a, b in zip(by_m, by_m[1:]))


def test_gap_tail_coupling_term_decreases_in_b():
    values = [hoeffding_gap_tail(1000, b, 0.05, 3) for b in range(0, 200, 10)]
    # small epsilon: the coupling term dominates, so larger burn-in helps
    assert values[0] > values[-1]


def test_expectation_bounds_shrink_with_m():
    small = expectation_bound_hoeffding(4, 100, 3)
    large = expectation_bound_hoeffding(4, 10000, 3)
    assert large < small / 5     # ~ 1/sqrt(m) decay
    small_b = expectation_bound_bernstein(4, 100, 0.5, 3, 0.51, "over")
    large_b = expectation_bound_bernstein(4, 10000, 0.5, 3, 0.51, "over")
    assert large_b == pytest.approx(small_b / 100.0, rel=1e-12)  # 1/m decay


# ---------------------------------------------------------------------------
# validation and guards


def test_bound_argument_validation():
    with pytest.raises(RangeError):
        hoeffding_tail(0, 0.5, 1)
    with pytest.raises(RangeError):
        hoeffding_tail(100, 1.5, 1)
    with pytest.raises(RangeError):
        hoeffding_tail(100, 0.5, 0)
    with pytest.raises(RangeError):
        hoeffding_gap_tail(100, 100, 0.5, 1)     # b must stay below m
    with pytest.raises(RangeError):
        bernstein_tail(100, 0.5, 1.0, 0.5, 1, "over")   # a in (0, 1)
    with pytest.raises(RangeError):
        bernstein_tail(100, 0.5, 0.5, 1.5, 1, "over")   # gamma in (0, 1]
    with pytest.raises(RangeError):
        bernstein_tail(100, 0.5, 0.5, 0.5, 1, "above")  # bad side label
    with pytest.raises(RangeError):
        bernstein_tail_raw(100, 0.2, 0.5, 0.3)          # variance cap 1/4
    with pytest.raises(RangeError):
        bernstein_deviation_radius(100, 1.0, 0.5, 0.25)
    with pytest.raises(RangeError):
        nc_tail(2, 100, 0.5, 0.5, 0.5, 1, 0.0)          # tau must be > 0


def test_bernstein_raw_division_guard():
    with pytest.raises(DivisionGuardError):
        bernstein_tail_raw(100, 0.0, 0.5, 0.0)


# ---------------------------------------------------------------------------
# noise models


def test_mt_noise_closed_forms():
    model = MammenTsybakovNoise(1.0, 0.6)
    assert model.omega(0.6) == pytest.approx(1.0, rel=1e-15)
    assert model.omega(0.0) == 0.0
    assert model.tau_star(100) == pytest.approx(1.0 / 60.0, rel=1e-12)
    assert model.tau_star(2000) == pytest.approx(1.0 / 1200.0, rel=1e-12)


def test_mt_noise_general_alpha_solves_fixed_point():
    rng = np.random.default_rng(89)
    for _ in range(20):
        alpha = float(rng.uniform(0.2, 1.0))
        h = float(rng.uniform(0.05, 1.0))
        m = int(rng.integers(20, 100_000))
        model = MammenTsybakovNoise(alpha, h)
        tau = model.tau_star(m)
        # definition: omega(tau) = sqrt(m) * tau
        assert model.omega(tau) == pytest.approx(np.sqrt(m) * tau,
                                                 rel=1e-10)
        # bisection solver finds the same root
        assert _bisect_fixed_point(model.omega, m) == pytest.approx(
            tau, rel=1e-6, abs=1e-13)


def test_mt_noise_validation():
    with pytest.raises(RangeError):
        MammenTsybakovNoise(0.0, 0.5)
    with pytest.raises(RangeError):
        MammenTsybakovNoise(1.5, 0.5)
    with pytest.raises(RangeError):
        MammenTsybakovNoise(1.0, 0.0)


def test_tabulated_noise_constant_curve():
    # omega == 1/2 crosses sqrt(m) eps at eps = 1/(2 sqrt(m)) exactly
    model = TabulatedNoise(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert model.omega(0.3) == pytest.approx(0.5)
    assert model.tau_star(400) == pytest.approx(1.0 / 40.0, abs=1e-10)


def test_tabulated_noise_matches_mt_on_dense_grid():
    mt = MammenTsybakovNoise(1.0, 0.6)
    radii = np.linspace(0.0, 1.0, 20_001)
    model = TabulatedNoise(radii, np.sqrt(radii / 0.6))
    # piecewise-linear interpolation of a concave curve; modest tolerance
    assert model.tau_star(900) == pytest.approx(mt.tau_star(900), rel=1e-3)


def test_tabulated_noise_no_solution():
    # omega == 0 never exceeds sqrt(m) eps on (0, 1]
    flat = TabulatedNoise(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(NoSolutionError):
        flat.tau_star(100)
    # omega == 10 stays above sqrt(m) eps for small m: no crossing below 1
    high = TabulatedNoise(np.array([0.0, 1.0]), np.array([10.0, 10.0]))
    with pytest.raises(NoSolutionError):
        high.tau_star(4)


def test_tabulated_noise_rejects_invalid_shape():
    # omega(x)/sqrt(x) must be non-increasing; omega = x^2 violates it
    radii = np.linspace(0.0, 1.0, 101)
    with pytest.raises(RangeError):
        TabulatedNoise(radii, radii ** 2)
    with pytest.raises(RangeError):
        TabulatedNoise(np.array([0.0, -1.0]), np.array([0.0, 1.0]))


@pytest.mark.parametrize("radii, values, radius", [
    ([0.0, 5e-324], [0.0, 1e308], "5e-324"),
    ([0.0, 1e-300, 0.5], [0.0, 1e308, 1e308], "1e-300"),
    ([0.0, 0.5], [0.0, float("inf")], "0.5"),
    ([0.0, 0.5], [0.0, float("nan")], "0.5"),
], ids=["overflow", "overflow-at-an-inner-radius", "infinite", "nan"])
def test_tabulated_noise_rejects_a_ratio_that_is_not_finite(radii, values,
                                                            radius):
    # filterwarnings = error: a numpy overflow warning would fail here too
    with pytest.raises(RangeError) as info:
        TabulatedNoise(np.array(radii), np.array(values))
    assert str(info.value) == ("omega(x)/sqrt(x) is not finite at radius "
                               f"{radius}")


@pytest.mark.parametrize("radii, values", [
    ([0.0, 1.0, np.inf], [0.0, 1.0, np.inf]),
    ([0.0, 1.0, np.inf], [0.0, 1.0, 1.0]),
    ([0.0, np.inf, np.inf], [0.0, 1.0, 1.0]),
    ([0.0, 1.0, np.nan], [0.0, 1.0, 1.0]),
    ([np.nan, 1.0], [0.0, 1.0]),
    ([0.0, 1.0], [np.nan, 1.0]),
    ([0.0, 1.0], [np.inf, 1.0]),
], ids=["infinite-radius-and-value", "infinite-radius", "repeated-infinity",
        "nan-radius", "nan-first-radius", "nan-at-zero", "infinite-at-zero"])
def test_tabulated_noise_rejects_what_is_not_finite(radii, values):
    # filterwarnings = error: a numpy warning before the error fails here.
    # Values at positive radii keep the ratio's own line (above)
    with pytest.raises(RangeError) as info:
        TabulatedNoise(np.array(radii), np.array(values))
    assert str(info.value) == "radii and omega(0) must be finite"


# ---------------------------------------------------------------------------
# margin


def test_margin_two_state(two_state_chain):
    assert margin(two_state_chain) == pytest.approx(0.6, abs=1e-12)


def test_margin_order_two(order2_chain):
    assert margin(order2_chain) == pytest.approx(0.2, abs=1e-12)


def test_margin_accepts_spec_directly(order2_spec):
    assert margin(order2_spec) == pytest.approx(0.2, abs=1e-12)


def test_margin_is_worst_context():
    # margin = min over contexts of |2 eta - 1|: rows give 1.0 and 0.8
    spec = HigherOrderChainSpec(2, 1, np.array([[1.0, 0.0], [0.1, 0.9]]))
    assert margin(spec) == pytest.approx(0.8, abs=1e-15)
    exact = HigherOrderChainSpec(2, 1, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert margin(exact) == pytest.approx(1.0, abs=1e-15)


def test_margin_requires_binary_symbols():
    spec = HigherOrderChainSpec(3, 1, np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(BinaryOnlyError):
        margin(spec)


# ---------------------------------------------------------------------------
# registry


def test_evaluate_bound_matches_direct_call():
    rep = evaluate_bound("hoeffding", {"m": 100, "epsilon": 0.5, "t_mix": 1})
    assert rep.raw == pytest.approx(hoeffding_tail(100, 0.5, 1), rel=1e-15)
    assert rep.clamped == pytest.approx(min(rep.raw, 1.0))
    assert rep.vacuous == (rep.raw >= 1.0)
    assert rep.bound_id == "hoeffding"


def test_evaluate_bound_clamps_and_flags_vacuous():
    rep = evaluate_bound("bernstein_over",
                         {"m": 10, "epsilon": 0.05, "a": 0.5,
                          "gamma_ps": 0.5, "t_mix": 2})
    assert rep.raw > 1.0
    assert rep.clamped == 1.0
    assert rep.vacuous
    # a form that overflows to +inf is still just a vacuous bound
    rep = evaluate_bound("bernstein_radius",
                         {"m": 100, "delta": 0.05, "gamma_ps": 1e-160,
                          "variance": 0.25})
    assert rep.raw == float("inf")
    assert rep.clamped == 1.0
    assert rep.vacuous


def test_evaluate_bound_unknown_id():
    with pytest.raises(KeyMismatchError):
        evaluate_bound("not_a_bound", {})


def test_evaluate_bound_missing_parameter():
    with pytest.raises(KeyMismatchError):
        evaluate_bound("hoeffding", {"m": 100})


@pytest.mark.parametrize("call", [
    lambda: evaluate_bound("not_a_bound", {}),
    lambda: form_parameters("not_a_bound"),
    lambda: event_shift("not_a_bound", {}),
], ids=["evaluate_bound", "form_parameters", "event_shift"])
def test_registry_lookups_reject_an_unknown_id_alike(call):
    with pytest.raises(KeyMismatchError) as info:
        call()
    assert str(info.value) == "unknown bound id 'not_a_bound'"


@pytest.mark.parametrize("call, line", [
    (lambda: evaluate_bound("hoeffding", {"m": 100}),
     "bound 'hoeffding' missing parameters ['epsilon', 't_mix']"),
    (lambda: event_shift("noise_gap", {"m": 100}),
     "shift of bound 'noise_gap' missing parameters ['b', 'theta']"),
], ids=["evaluate_bound", "event_shift"])
def test_forms_and_shifts_name_their_missing_parameters(call, line):
    with pytest.raises(KeyMismatchError) as info:
        call()
    assert str(info.value) == line


# ---------------------------------------------------------------------------
# domain rules, one per parameter name

# one value outside each name's domain and the exact rejection it gives
OUTSIDE = {
    "m": (0, "m must be a positive integer, got 0"),
    "b": (-1, "b must be a non-negative integer, got -1"),
    "epsilon": (1.5, "epsilon must lie in [0, 1], got 1.5"),
    "t_mix": (2.5, "t_mix must be a positive integer, got 2.5"),
    "gamma_ps": (1.5, "gamma_ps must lie in (0, 1], got 1.5"),
    "a": (1.0, "a must lie in (0, 1), got 1.0"),
    "theta": (0.0, "theta must lie in (0, 1), got 0.0"),
    "n_candidates": (0, "n_candidates must be a positive integer, got 0"),
    "tau_star": (0.0, "tau_star must be positive, got 0.0"),
    "delta": (1.0, "delta must lie in (0, 1), got 1.0"),
    "variance": (0.3, "variance must lie in [0, 0.25], got 0.3"),
    "centering_bound": (2.0, "centering_bound must lie in (0, 1], got 2.0"),
    "risk_best": (-0.1, "risk_best must be >= 0, got -0.1"),
    "risk_bayes": (-0.1, "risk_bayes must be >= 0, got -0.1"),
    "excess_best": (-0.1, "excess_best must be >= 0, got -0.1"),
    "alpha": (1.5, "alpha must lie in (0, 1], got 1.5"),
    "h": (0.0, "h must be positive, got 0.0"),
    "r": (-0.1, "r must be >= 0, got -0.1"),
}

# a point inside every domain, at which each checked function evaluates
INSIDE = {"m": 100, "b": 10, "epsilon": 0.3, "t_mix": 2, "gamma_ps": 0.5,
          "a": 0.5, "theta": 0.5, "n_candidates": 2, "tau_star": 1e-3,
          "delta": 0.1, "variance": 0.25, "centering_bound": 1.0,
          "risk_best": 0.2, "risk_bayes": 0.1, "excess_best": 0.1,
          "alpha": 1.0, "h": 0.5, "r": 0.3, "side": "over"}

FLAT = TabulatedNoise(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
CHECKED = {
    "hoeffding_gap_tail": hoeffding_gap_tail,
    "gap_event_shift": gap_event_shift,
    "hoeffding_tail": hoeffding_tail,
    "selection_hoeffding_tail": selection_hoeffding_tail,
    "expectation_bound_hoeffding": expectation_bound_hoeffding,
    "oracle_gap_hoeffding": oracle_gap_hoeffding,
    "bernstein_deviation_radius": bernstein_deviation_radius,
    "bernstein_gap_tail": bernstein_gap_tail,
    "bernstein_tail": bernstein_tail,
    "expectation_bound_bernstein": expectation_bound_bernstein,
    "oracle_gap_bernstein": oracle_gap_bernstein,
    "oracle_excess_bernstein": oracle_excess_bernstein,
    "nc_gap_tail": nc_gap_tail,
    "nc_event_shift": nc_event_shift,
    "nc_tail": nc_tail,
    "nc_oracle_rhs": nc_oracle_rhs,
    "mt_oracle_rhs": mt_oracle_rhs,
    "MammenTsybakovNoise": MammenTsybakovNoise,
    "MammenTsybakovNoise.omega": MammenTsybakovNoise(1.0, 0.5).omega,
    "MammenTsybakovNoise.tau_star": MammenTsybakovNoise(1.0, 0.5).tau_star,
    "TabulatedNoise.omega": FLAT.omega,
    "TabulatedNoise.tau_star": FLAT.tau_star,
}


def _parameters(func):
    return list(inspect.signature(func).parameters)


@pytest.mark.parametrize("label, name", [
    (label, name) for label, func in CHECKED.items()
    for name in _parameters(func) if name != "side"])
def test_each_parameter_is_rejected_by_name(label, name):
    func = CHECKED[label]
    args = {k: INSIDE[k] for k in _parameters(func)}
    func(**args)   # the point itself is accepted
    value, message = OUTSIDE[name]
    with pytest.raises(RangeError) as info:
        func(**{**args, name: value})
    assert str(info.value) == message
    # positionally too: the rule follows the name, not the keyword
    with pytest.raises(RangeError) as info:
        func(*{**args, name: value}.values())
    assert str(info.value) == message


def test_bernstein_raw_takes_an_epsilon_above_one():
    with pytest.raises(RangeError) as info:
        bernstein_tail_raw(100, -0.1, 0.5, 0.25)
    assert str(info.value) == "epsilon must be >= 0, got -0.1"
    assert 0.0 < bernstein_tail_raw(100, 2.0, 0.5, 0.25) < 1.0
    for name in ("m", "gamma_ps", "variance", "centering_bound"):
        value, message = OUTSIDE[name]
        args = {"m": 100, "epsilon": 2.0, "gamma_ps": 0.5, "variance": 0.25,
                "centering_bound": 1.0, name: value}
        with pytest.raises(RangeError) as info:
            bernstein_tail_raw(**args)
        assert str(info.value) == message


@pytest.mark.parametrize("label", [
    label for label, func in CHECKED.items() if "b" in _parameters(func)])
def test_burn_in_must_stay_below_m(label):
    func = CHECKED[label]
    args = {k: INSIDE[k] for k in _parameters(func)}
    with pytest.raises(RangeError) as info:
        func(**{**args, "b": 100})
    assert str(info.value) == "need b < m, got b=100, m=100"


def test_side_label_keeps_its_message():
    with pytest.raises(RangeError) as info:
        bernstein_tail(100, 0.5, 0.5, 0.5, 1, "above")
    assert str(info.value) == "side must be 'over' or 'under', got 'above'"


def test_oracle_excess_rejects_a_negative_best_risk():
    # a best risk a hair below zero passed the old cross-check against a
    # Bayes risk of 0; it is now rejected by its own rule, as in the gap form
    with pytest.raises(RangeError) as info:
        oracle_excess_bernstein(2, 2000, 0.5, 3, 0.51, -1e-13, 0.0)
    assert str(info.value) == "risk_best must be >= 0, got -1e-13"
    with pytest.raises(RangeError) as info:
        oracle_excess_bernstein(2, 2000, 0.5, 3, 0.51, 0.1, 0.2)
    assert str(info.value) == "best candidate risk cannot beat the Bayes risk"


def test_every_form_parameter_has_a_domain_rule():
    names = {name for bound_id in BOUND_FORMS
             for name in form_parameters(bound_id)}
    names |= {name for _, shift in BOUND_FORMS.values() if shift is not None
              for name in _parameters(shift)}
    assert names - {"side"} <= set(_DOMAINS)
    assert set(OUTSIDE) == set(_DOMAINS)


# in-domain extremes of the bound parameters: the smallest subnormal, a
# tiny and a huge normal float, and the ends of the unit interval
EXTREMES = (5e-324, 1e-300, 0.0, 1.0, 1e308)


def _only_holdout_errors(func, *args):
    # func's value, or None for the HoldoutError it raised; any other
    # exception propagates and fails the test
    try:
        return func(*args)
    except HoldoutError:
        return None


def test_bound_forms_raise_only_holdout_errors_at_extremes():
    # every pair of a form's parameters over the extremes, the others at an
    # inside point: evaluate_bound and event_shift return or raise a
    # HoldoutError, so the CLI reports every failure as one error line
    for bound_id in BOUND_FORMS:
        names = form_parameters(bound_id)
        base = {name: INSIDE[name] for name in names}
        for pair in itertools.combinations_with_replacement(names, 2):
            for values in itertools.product(EXTREMES, repeat=2):
                params = {**base, **dict(zip(pair, values))}
                _only_holdout_errors(evaluate_bound, bound_id, params)
                _only_holdout_errors(event_shift, bound_id, params)


def test_noise_fixed_points_raise_only_holdout_errors_at_extremes():
    positive = [v for v in EXTREMES if v > 0.0]
    models = [_only_holdout_errors(MammenTsybakovNoise, alpha, h)
              for alpha in EXTREMES for h in EXTREMES]
    # a table whose omega(r)/sqrt(r) overflows is rejected as well
    models += [_only_holdout_errors(TabulatedNoise, np.array([0.0, r]),
                                    np.array([v0, v1]))
               for r in positive for v0 in EXTREMES for v1 in EXTREMES]
    models = [model for model in models if model is not None]
    assert {type(model) for model in models} == {MammenTsybakovNoise,
                                                 TabulatedNoise}
    for model in models:
        for m in EXTREMES:
            _only_holdout_errors(model.tau_star, m)


def test_mt_fixed_point_overflow_names_m_and_h():
    # (m h^alpha)^(-1/(2-alpha)) overflows a double at h = 5e-324
    with pytest.raises(NumericalFailureError) as info:
        MammenTsybakovNoise(1.0, 5e-324).tau_star(100)
    assert str(info.value) == "tau_star overflows at m=100, h=5e-324"
