"""Chain diagnostics: kernels, stationary laws, mixing, reversal, spectral gap.

Closed-form targets for the two-state kernel [[0.9, 0.1], [0.2, 0.8]]:
second eigenvalue 0.7, stationary law (2/3, 1/3), worst-start TV profile
d(t) = (2/3) * 0.7^t, so t_mix = 3 at level 1/4 and 8 at level 0.05.  The
kernel is reversible, hence A_k = K^{2k} and gamma_k = (1 - 0.49^k) / k,
maximized at k = 1 with value 0.51.
"""

import math

import numpy as np
import pytest

from markov_holdout import chains, harness
from markov_holdout import (
    DimensionMismatchError,
    EigensolverFailureError,
    HigherOrderChainSpec,
    HorizonExceededError,
    LossSpec,
    MixingProfile,
    NonPrimitiveError,
    NumericalFailureError,
    RangeError,
    SizeOverflowError,
    TransitionKernel,
    ZeroStationaryMassError,
    bayes_predictor,
    coupling_check,
    markovize,
    mixing_certificate,
    mixing_time,
    pseudo_spectral_gap,
    stationary_distribution,
    time_reversal,
    total_variation,
)
from markov_holdout.chains import (
    LN2,
    _append_step,
    _append_weights,
    _check_stationary,
    _gram_matrices,
    _power_rows,
    _stationary_by_power_iteration,
    is_primitive,
)

from conftest import random_primitive_binary_kernel


# ---------------------------------------------------------------------------
# kernel validation and primitivity


def test_kernel_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        TransitionKernel(np.array([[0.5, 0.5]]))


def test_kernel_rejects_negative_entries():
    with pytest.raises(RangeError):
        TransitionKernel(np.array([[1.2, -0.2], [0.5, 0.5]]))


def test_kernel_rejects_bad_row_sum_and_names_row():
    with pytest.raises(RangeError, match="row 1"):
        TransitionKernel(np.array([[0.5, 0.5], [0.6, 0.6]]))


def test_kernel_rejects_non_primitive_by_default():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NonPrimitiveError):
        TransitionKernel(swap)


def test_kernel_escape_hatch_allows_non_primitive():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    k = TransitionKernel(swap, require_primitive=False)
    assert k.size == 2
    assert not k.primitive


def test_is_primitive_classifies_known_matrices():
    # period-2 swap: irreducible but not aperiodic
    assert not is_primitive(np.array([[0.0, 1.0], [1.0, 0.0]]))
    # identity: aperiodic but reducible
    assert not is_primitive(np.eye(2))
    # cycle with one self-loop: primitive
    cyc = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert is_primitive(cyc)
    assert is_primitive(np.full((3, 3), 1.0 / 3.0))


def test_is_primitive_matches_power_positivity_on_random_patterns():
    rng = np.random.default_rng(7)
    wielandt = (4 - 1) ** 2 + 1
    for _ in range(200):
        pattern = (rng.random((4, 4)) < 0.35).astype(float)
        rows = pattern.sum(axis=1)
        pattern[rows == 0, rng.integers(0, 4)] = 1.0
        matrix = pattern / pattern.sum(axis=1, keepdims=True)
        power = np.linalg.matrix_power(matrix, wielandt)
        assert is_primitive(matrix) == bool((power > 0).all())


# ---------------------------------------------------------------------------
# stationary law


def test_stationary_two_state_closed_form(two_state_kernel):
    q = stationary_distribution(two_state_kernel)
    assert q == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-10)


def test_stationary_iid_uniform(iid_kernel):
    q = stationary_distribution(iid_kernel)
    assert q == pytest.approx([0.5, 0.5], abs=1e-14)


def test_stationary_agrees_with_power_iteration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        size = int(rng.integers(2, 7))
        matrix = rng.uniform(0.05, 1.0, size=(size, size))
        matrix /= matrix.sum(axis=1, keepdims=True)
        kernel = TransitionKernel(matrix)
        q = stationary_distribution(kernel)
        q_oracle = _stationary_by_power_iteration(matrix)
        assert q == pytest.approx(q_oracle, abs=1e-10)
        assert q @ matrix == pytest.approx(q, abs=1e-12)
        assert q.sum() == pytest.approx(1.0, abs=1e-14)


def test_stationary_rejects_a_state_with_no_outflow():
    # state 1 of the identity never leaves, so the solve cannot censor it
    kernel = TransitionKernel(np.eye(2), require_primitive=False)
    with pytest.raises(NumericalFailureError,
                       match="stationary solve: state 1 has no outflow"):
        stationary_distribution(kernel)


def test_stationary_rejects_a_residual_above_its_tolerance(monkeypatch):
    # rows 1e-4 off 1, let in by a looser row-sum rule, have no law Q with
    # QK = Q for the solve to meet
    monkeypatch.setattr(chains, "ROW_SUM_TOL", 1e-3)
    kernel = TransitionKernel([[0.5, 0.5], [0.4, 0.5999]])
    with pytest.raises(NumericalFailureError, match="stationary residual"):
        stationary_distribution(kernel)


def test_power_iteration_oracle_raises_when_it_does_not_converge(
        two_state_matrix):
    with pytest.raises(NumericalFailureError,
                       match="power iteration did not converge"):
        _stationary_by_power_iteration(two_state_matrix, max_steps=1)


# ---------------------------------------------------------------------------
# total variation and distance profile


def test_total_variation_values():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)


def test_total_variation_rejects_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        total_variation([1.0], [0.5, 0.5])


def test_distance_profile_two_state_closed_form(two_state_kernel):
    q = stationary_distribution(two_state_kernel)
    d = mixing_time(two_state_kernel, q=q, horizon=30).d_values
    t = np.arange(31)
    assert d == pytest.approx((2.0 / 3.0) * 0.7 ** t, abs=1e-12)


def test_distance_profile_iid(iid_kernel):
    q = stationary_distribution(iid_kernel)
    d = mixing_time(iid_kernel, q=q, horizon=4).d_values
    assert d == pytest.approx([0.5, 0.0, 0.0, 0.0, 0.0], abs=1e-15)


def test_distance_profile_is_non_increasing_on_random_kernels():
    rng = np.random.default_rng(23)
    for _ in range(25):
        kernel = random_primitive_binary_kernel(rng)
        q = stationary_distribution(kernel)
        d = mixing_time(kernel, q=q, horizon=40).d_values
        assert (np.diff(d) <= 1e-12).all()


def test_distance_profile_matches_matrix_power_oracle(order2_spec):
    # d(t) = max_x TV(row x of K^t, Q) from np.linalg.matrix_power and
    # total_variation, t = 0 .. t_mix + 4, on seeded non-reversible raw
    # kernels and on embedded chains diagnosed on their context quotient
    rng = np.random.default_rng(59)
    subjects = []
    for size in (3, 4, 5, 6):
        matrix = rng.uniform(0.05, 1.0, size=(size, size))
        kernel = TransitionKernel(matrix / matrix.sum(axis=1)[:, None])
        q = stationary_distribution(kernel)
        flow = q[:, None] * kernel.matrix
        assert np.abs(flow - flow.T).max() > 1e-3  # not reversible
        subjects.append((kernel, kernel.matrix, q))
    specs = [(order2_spec, (2, 3, 4)),
             (HigherOrderChainSpec(3, 1, rng.dirichlet(np.ones(3), size=3)),
              (1, 2, 3))]
    for spec, orders in specs:
        for p in orders:
            chain = markovize(spec, p)
            subjects.append((chain, chain.kernel.matrix, chain.stationary))
    for subject, matrix, q in subjects:
        horizon = mixing_time(subject, q=q).t_mix + 4
        d = mixing_time(subject, q=q, horizon=horizon).d_values
        oracle = [max(total_variation(row, q)
                      for row in np.linalg.matrix_power(matrix, t))
                  for t in range(horizon + 1)]
        assert d == pytest.approx(oracle, rel=0, abs=1e-13)


# ---------------------------------------------------------------------------
# mixing time


def test_mixing_time_two_state(two_state_kernel):
    profile = mixing_time(two_state_kernel)
    assert profile.t_mix == 3
    assert profile.epsilon_level == 0.25
    assert profile.certificate_c == 2.0
    assert profile.certificate_rho == pytest.approx(2.0 ** (-1.0 / 3.0))
    # profile is reported at least through t_mix
    assert len(profile.d_values) >= 4


def test_mixing_time_finer_level(two_state_kernel):
    # (2/3) 0.7^t <= 0.05 first at t = 8
    assert mixing_time(two_state_kernel, level=0.05).t_mix == 8


def test_mixing_time_iid(iid_kernel):
    assert mixing_time(iid_kernel).t_mix == 1


def test_mixing_time_composite_two_state(two_state_chain):
    # one composite step reproduces the base law, so d_c(t) = d_base(t-1)
    profile = mixing_time(two_state_chain.kernel)
    assert profile.t_mix == 4
    assert profile.d_values[0] == pytest.approx(14.0 / 15.0, abs=1e-12)
    t = np.arange(1, len(profile.d_values))
    assert profile.d_values[1:] == pytest.approx(
        (2.0 / 3.0) * 0.7 ** (t - 1), abs=1e-12)


def test_mixing_time_certificate_dominates_profile(two_state_kernel):
    profile = mixing_time(two_state_kernel)
    curve = np.array([mixing_certificate(t, profile.t_mix)
                      for t in range(51)])
    q = stationary_distribution(two_state_kernel)
    d = mixing_time(two_state_kernel, q=q, horizon=50).d_values
    assert (d <= curve + 1e-12).all()


def test_mixing_certificate_is_one_formula_bit_for_bit():
    # C * 2^(-t/t_mix) with C = 2, at t = -1 (one step early) too
    for t_mix in range(1, 65):
        for t in range(-1, 65):
            assert (mixing_certificate(t, t_mix)
                    == 2.0 * math.exp(-t * LN2 / t_mix))


def test_mixing_time_raises_when_horizon_exhausted(two_state_kernel):
    with pytest.raises(HorizonExceededError):
        mixing_time(two_state_kernel, level=1e-30)


def test_mixing_time_rejects_a_negative_horizon(two_state_kernel):
    # horizon 0 is the shortest profile, the one that stops at t_mix
    assert (mixing_time(two_state_kernel, horizon=0).d_values.tolist()
            == mixing_time(two_state_kernel).d_values.tolist())
    with pytest.raises(RangeError, match="horizon must be >= 0"):
        mixing_time(two_state_kernel, horizon=-1)


def test_mixing_profile_rejects_non_monotone_distances():
    with pytest.raises(NumericalFailureError):
        MixingProfile(d_values=np.array([0.5, 0.2, 0.3]), t_mix=1)


def test_mixing_profile_rejects_nan_and_empty_distances():
    # NaN fails every comparison of the monotone check, so that check
    # alone lets it through
    with pytest.raises(RangeError):
        MixingProfile(d_values=[1.0, np.nan, 0.1], t_mix=2)
    with pytest.raises(DimensionMismatchError):
        MixingProfile(d_values=[], t_mix=1)


# ---------------------------------------------------------------------------
# time reversal


def test_time_reversal_fixed_point_for_reversible_chain(two_state_kernel):
    # every two-state chain is reversible: K* == K
    q = stationary_distribution(two_state_kernel)
    rev = time_reversal(two_state_kernel, q)
    assert rev.matrix == pytest.approx(two_state_kernel.matrix, abs=1e-12)


def test_time_reversal_formula_three_state():
    matrix = np.array([[0.1, 0.6, 0.3], [0.2, 0.3, 0.5], [0.7, 0.2, 0.1]])
    kernel = TransitionKernel(matrix)
    q = stationary_distribution(kernel)
    rev = time_reversal(kernel, q)
    expected = (q[None, :] * matrix.T) / q[:, None]
    assert rev.matrix == pytest.approx(expected, abs=1e-12)
    # reversal preserves the stationary law and is an involution
    assert q @ rev.matrix == pytest.approx(q, abs=1e-12)
    back = time_reversal(rev, q)
    assert back.matrix == pytest.approx(matrix, abs=1e-12)


def test_time_reversal_rejects_zero_mass():
    kernel = TransitionKernel(np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ZeroStationaryMassError):
        time_reversal(kernel, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# pseudo-spectral gap


def test_gap_two_state_closed_form(two_state_kernel):
    diag = pseudo_spectral_gap(two_state_kernel)
    assert diag.gamma_ps == pytest.approx(0.51, abs=1e-8)
    assert diag.argmax_k == 1
    assert diag.k_stop == 2
    assert diag.gammas[0] == pytest.approx(0.51, abs=1e-8)
    assert diag.gammas[1] == pytest.approx((1.0 - 0.49 ** 2) / 2.0, abs=1e-8)


@pytest.mark.parametrize("subject", ["two_state_kernel", "order2_chain"])
def test_gap_values_are_python_floats(request, subject):
    # a numpy scalar would leak into artifacts: a numpy bool compared from
    # it is written True, not true
    diag = pseudo_spectral_gap(request.getfixturevalue(subject))
    assert type(diag.gamma_ps) is float
    assert diag.gammas and all(type(g) is float for g in diag.gammas)


def test_gap_iid_is_one_exactly(iid_kernel):
    diag = pseudo_spectral_gap(iid_kernel)
    assert diag.gamma_ps == 1.0
    assert diag.argmax_k == 1


def test_gap_composite_halves_base_value(two_state_chain):
    # composite A_1 has eigenvalue 1 with multiplicity 2 (gamma_1 = 0); the
    # maximizing block is k = 2 where gamma = (1 - 0.49)/2
    diag = pseudo_spectral_gap(two_state_chain.kernel)
    assert diag.gammas[0] == pytest.approx(0.0, abs=1e-12)
    assert diag.gamma_ps == pytest.approx(0.255, abs=1e-8)
    assert diag.argmax_k == 2
    assert diag.k_stop == 4


def test_gap_order_two_fixture(order2_chain):
    diag = pseudo_spectral_gap(order2_chain.kernel)
    assert diag.gamma_ps == pytest.approx(0.18788897449072015, abs=1e-9)
    assert diag.argmax_k == 3
    assert diag.k_stop == 6


def test_gap_matches_dense_eigensolver_oracle(order2_chain):
    # recompute gamma_k from the unsymmetrized product (K*)^k K^k with a
    # general eigensolver and compare; two-state chains are all reversible,
    # so larger random kernels and the order-2 embedding (structural zeros)
    # make the oracle tell K from K*; the embedding is diagnosed both as its
    # dense kernel and as the chain itself, on the context quotient
    rng = np.random.default_rng(37)
    kernels = [random_primitive_binary_kernel(rng) for _ in range(20)]
    for size in (3, 4, 5, 6):
        matrix = rng.uniform(0.05, 1.0, size=(size, size))
        kernels.append(TransitionKernel(matrix / matrix.sum(axis=1)[:, None]))
    subjects = [(kernel, kernel) for kernel in kernels]
    subjects += [(order2_chain.kernel, order2_chain.kernel),
                 (order2_chain, order2_chain.kernel)]
    for subject, kernel in subjects:
        q = stationary_distribution(kernel)
        rev = time_reversal(kernel, q).matrix
        diag = pseudo_spectral_gap(subject)
        for k in range(1, len(diag.gammas) + 1):
            a_k = np.linalg.matrix_power(rev, k) @ np.linalg.matrix_power(
                kernel.matrix, k)
            eigs = np.sort(np.real(np.linalg.eigvals(a_k)))
            gamma_oracle = (1.0 - eigs[-2]) / k
            assert diag.gammas[k - 1] == pytest.approx(gamma_oracle, abs=1e-8)


def test_gap_rejects_bad_stationary_law():
    # uniform is not stationary here: the column sums are 1.0, 1.1, 0.9
    matrix = np.array([[0.1, 0.6, 0.3], [0.2, 0.3, 0.5], [0.7, 0.2, 0.1]])
    with pytest.raises(NumericalFailureError):
        pseudo_spectral_gap(TransitionKernel(matrix), np.full(3, 1.0 / 3.0))
    kernel = TransitionKernel(np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ZeroStationaryMassError):
        pseudo_spectral_gap(kernel, np.array([1.0, 0.0]))


def test_gap_rejects_non_finite_stationary_law():
    # NaN fails every comparison, so it used to pass the zero-mass and the
    # reversed-row checks and give gamma_ps = 0 from NaN gammas
    kernel = TransitionKernel([[0.9, 0.1], [0.2, 0.8]])
    for bad in ([np.nan, 0.5], [np.inf, 0.5]):
        with pytest.raises(RangeError):
            pseudo_spectral_gap(kernel, np.array(bad))
        with pytest.raises(RangeError):
            time_reversal(kernel, np.array(bad))


def test_mixing_time_rejects_bad_stationary_law(two_state_kernel):
    # a short q used to raise a bare numpy ValueError on a 3-state kernel,
    # and a NaN q ran to the step cap
    three = TransitionKernel([[0.1, 0.6, 0.3], [0.2, 0.3, 0.5],
                              [0.7, 0.2, 0.1]])
    with pytest.raises(DimensionMismatchError):
        mixing_time(three, q=np.array([0.5, 0.5]))
    with pytest.raises(RangeError):
        mixing_time(two_state_kernel, q=np.array([np.nan, 0.5]))


def test_mixing_time_rejects_a_law_that_is_not_stationary_at_once(
        two_state_matrix, order2_spec, monkeypatch):
    # a negative or non-stationary q keeps d(t) above the level, so the
    # walk would run to the 10 S^2 step cap: 640 powers for a uniform q on
    # the 8-state embedded two-state chain.  It must fail from the first
    # power, which checks QK = Q
    drawn = []

    def counted(kernel, q):
        for power in _power_rows(kernel, q):
            drawn.append(power)
            yield power

    monkeypatch.setattr(chains, "_power_rows", counted)
    chain = markovize(HigherOrderChainSpec.from_kernel(two_state_matrix), 2)
    s1024 = markovize(order2_spec, 9)
    for kernel, q, error in [
            (chain, np.full(8, 1.0 / 8), NumericalFailureError),
            (chain, 2.0 * chain.stationary, NumericalFailureError),
            (chain.kernel, np.full(8, 1.0 / 8), NumericalFailureError),
            (s1024, np.full(1024, 1.0 / 1024), NumericalFailureError),
            (chain, chain.stationary * [2.0] + [0, -1, 0, 0, 0, 0, 0, 0],
             RangeError),
            (TransitionKernel(two_state_matrix), np.array([1.5, -0.5]),
             RangeError)]:
        drawn.clear()
        with pytest.raises(error):
            mixing_time(kernel, q=q)
        assert len(drawn) <= 1
    assert mixing_time(chain, q=chain.stationary).t_mix == 5
    # a TV distance needs no positive mass: state 2 is transient, and its
    # row of K^2 is (1/2, 1/4, 1/4), 1/4 from Q
    transient = TransitionKernel([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                                  [0.5, 0.0, 0.5]], require_primitive=False)
    q = np.array([0.5, 0.5, 0.0])
    assert mixing_time(transient, q=q).d_values.tolist() == [1.0, 0.5, 0.25]
    with pytest.raises(ZeroStationaryMassError):
        pseudo_spectral_gap(transient, q)


def test_gap_never_exceeds_one_over_k():
    rng = np.random.default_rng(41)
    for _ in range(20):
        kernel = random_primitive_binary_kernel(rng)
        diag = pseudo_spectral_gap(kernel)
        for k, gamma in enumerate(diag.gammas, start=1):
            assert gamma <= 1.0 / k + 1e-12


# ---------------------------------------------------------------------------
# diagnostics of markovized chains on the context quotient


@pytest.mark.parametrize("symbols,order", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_quotient_diagnostics_match_dense_path(symbols, order):
    # the quotient path (chain) against the dense path (chain.kernel) on
    # seeded random strictly positive chains embedded at p = k .. k+3,
    # three per p where the state space is small
    rng = np.random.default_rng(1000 * symbols + order)
    for p in range(order, order + 4):
        if symbols ** (p + 1) > 1024:
            continue
        for _ in range(3 if symbols ** (p + 1) <= 64 else 1):
            spec = HigherOrderChainSpec(symbols, order, rng.dirichlet(
                np.ones(symbols), size=symbols ** order))
            chain = markovize(spec, p)
            q = chain.stationary
            dense = pseudo_spectral_gap(chain.kernel, q)
            quotient = pseudo_spectral_gap(chain, q)
            assert quotient.k_stop == dense.k_stop
            assert quotient.argmax_k == dense.argmax_k
            assert quotient.gammas == pytest.approx(dense.gammas, rel=0,
                                                    abs=1e-12)
            dense_mix = mixing_time(chain.kernel, q=q)
            horizon = dense_mix.t_mix + 2 * p + 3
            dense_d = mixing_time(chain.kernel, q=q, horizon=horizon).d_values
            quotient_mix = mixing_time(chain)
            quotient_d = mixing_time(chain, horizon=horizon)
            assert quotient_mix.t_mix == quotient_d.t_mix == dense_mix.t_mix
            assert len(quotient_d.d_values) == len(dense_d) == horizon + 1
            assert quotient_d.d_values == pytest.approx(dense_d, rel=0,
                                                        abs=1e-15)


def _seeded_chains():
    # one seeded strictly positive chain per (s, k, p), s in {2, 3},
    # k in {1, 2}, p = k .. k+3, and the verify-cond-s1024 chain: the
    # order-2 binary chain of configs/order2_binary.json at p = 9
    out = []
    for symbols in (2, 3):
        for order in (1, 2):
            rng = np.random.default_rng(100 * symbols + order)
            for p in range(order, order + 4):
                spec = HigherOrderChainSpec(symbols, order, rng.dirichlet(
                    np.ones(symbols), size=symbols ** order))
                out.append(pytest.param(spec, p, id=f"s{symbols}k{order}p{p}"))
    spec = HigherOrderChainSpec(2, 2, [[0.9, 0.1], [0.7, 0.3],
                                       [0.4, 0.6], [0.2, 0.8]])
    out.append(pytest.param(spec, 9, id="s1024"))
    return out


SEEDED_CHAINS = _seeded_chains()


@pytest.mark.parametrize("spec,p", SEEDED_CHAINS + [pytest.param(
    HigherOrderChainSpec(2, 1, [[1.0, 0.0], [0.5, 0.5]]), 2, id="zeros")])
def test_first_power_has_the_bits_of_the_append_step(spec, p):
    # the directly placed first power against the append step on K^0 = I,
    # sign bits of the zeros included; "zeros" has structural zero weights
    chain = markovize(spec, p, require_primitive=False)
    rows, masses = next(_power_rows(chain, chain.stationary))
    expected = _append_step(np.eye(spec.symbols ** p),
                            _append_weights(spec, p))
    assert rows.shape == expected.shape
    assert np.array_equal(rows, expected)
    assert np.array_equal(np.signbit(rows), np.signbit(expected))
    assert np.array_equal(
        masses, chain.stationary.reshape(len(rows), -1).sum(axis=1))


@pytest.mark.parametrize("spec,p", SEEDED_CHAINS)
def test_gap_matches_eigvalsh_on_every_gram_matrix_bit_for_bit(spec, p):
    # the diagonal G_k skip the eigensolver; every gamma_k must still be
    # the one eigvalsh gives, to the last bit
    chain = markovize(spec, p)
    q = chain.stationary
    diag = pseudo_spectral_gap(chain, q)
    grams = _gram_matrices(chain, q)
    oracle = []
    for k in range(1, diag.k_stop + 1):
        lam2 = np.linalg.eigvalsh(next(grams))[-2]
        oracle.append((1.0 - min(max(lam2, 0.0), 1.0)) / k)
    assert diag.gammas == tuple(oracle)


@pytest.mark.parametrize("spec,p", SEEDED_CHAINS)
def test_gram_matrices_are_diagonal_exactly_up_to_p_plus_one_minus_k(spec, p):
    # for k <= p+1-order the classes of K^k reach disjoint columns; the next
    # power shares columns between classes, as conditional > 0
    chain = markovize(spec, p)
    grams = _gram_matrices(chain, chain.stationary)
    for k in range(1, p + 2 - spec.order):
        gram = next(grams)
        assert np.array_equal(gram, np.diag(gram.diagonal())), k
    gram = next(grams)
    assert not np.array_equal(gram, np.diag(gram.diagonal()))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gap_rejects_non_finite_diagonal_gram(two_state_kernel, monkeypatch,
                                              bad):
    # a diagonal G_k skips LAPACK but must fail as LAPACK fails on it
    gram = np.diag([1.0, bad, 0.5])
    monkeypatch.setattr(chains, "_gram_matrices",
                        lambda kernel, q: iter([gram]))
    with pytest.raises(EigensolverFailureError):
        pseudo_spectral_gap(two_state_kernel)


def test_gap_turns_a_lapack_failure_into_an_eigensolver_error(
        two_state_kernel, monkeypatch):
    # G_1 of the two-state kernel is not diagonal, so it reaches LAPACK
    def fail(gram):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(EigensolverFailureError,
                       match="Eigenvalues did not converge"):
        pseudo_spectral_gap(two_state_kernel)


@pytest.mark.parametrize("lam2", [1.5, -0.5])
def test_gap_rejects_an_eigenvalue_outside_the_unit_interval(
        two_state_kernel, monkeypatch, lam2):
    gram = np.diag([lam2, 2.0])
    monkeypatch.setattr(chains, "_gram_matrices",
                        lambda kernel, q: iter([gram]))
    with pytest.raises(NumericalFailureError,
                       match=rf"eigenvalue {lam2} of A_1 outside \[0, 1\]"):
        pseudo_spectral_gap(two_state_kernel)


def test_gap_starts_one_sequence_of_powers(order2_chain, two_state_kernel,
                                          monkeypatch):
    # the stationarity check reads the first power of the sequence the Gram
    # matrices go on with; time_reversal, which needs no later power, keeps
    # its own check
    starts = []

    def counted(kernel, q):
        starts.append(kernel)
        return _power_rows(kernel, q)

    monkeypatch.setattr(chains, "_power_rows", counted)
    for kernel in (order2_chain, order2_chain.kernel, two_state_kernel):
        starts.clear()
        pseudo_spectral_gap(kernel)
        assert starts == [kernel]
    starts.clear()
    time_reversal(two_state_kernel, stationary_distribution(two_state_kernel))
    assert starts == [two_state_kernel]


def test_quotient_path_rejects_bad_stationary_law(order2_chain):
    uniform = np.full(order2_chain.size, 1.0 / order2_chain.size)
    with pytest.raises(NumericalFailureError):
        pseudo_spectral_gap(order2_chain, uniform)
    with pytest.raises(NumericalFailureError):
        pseudo_spectral_gap(order2_chain.kernel, uniform)
    zero = order2_chain.stationary.copy()
    zero[3] = 0.0
    with pytest.raises(ZeroStationaryMassError):
        pseudo_spectral_gap(order2_chain, zero)
    with pytest.raises(DimensionMismatchError):
        pseudo_spectral_gap(order2_chain, np.full(4, 0.25))


def _reference_power_rows(chain, q):
    # _power_rows in its plain numpy form: the append weights read through
    # a transposed view, the class sum a reduction along a length-s axis
    s, k, p = chain.symbols, chain.base.order, chain.embedding_order
    classes = np.arange(s ** p)[:, None]
    rows = np.zeros((s ** p, s ** (p + 1)))
    rows[classes, np.arange(s) * s ** p + classes] = (
        chain.base.conditional[classes[:, 0] // s ** (p - k)])
    digits = p
    j = 1
    while True:
        yield rows, q.reshape(len(rows), -1).sum(axis=1)
        nxt = max(k, p - j)
        summed = rows[::s ** (digits - nxt)].reshape(-1, s ** p, s).sum(axis=2)
        weights = chain.base.conditional[np.arange(s ** p) // s ** (p - k)].T
        rows = (summed[:, None, :] * weights[None]).reshape(len(summed), -1)
        digits = nxt
        j += 1


def _reference_distances(q, powers):
    # _distances with its two out-of-place temporaries per step
    yield 0.5 * float(np.max((1.0 - q) + (q.sum() - q)))
    for rows, _ in powers:
        yield 0.5 * np.abs(rows - q[None, :]).sum(axis=1).max()


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _power_chains():
    # s = 2, 3, 4 at k = 1..3, each at p = k and at the largest p with
    # S <= 1024; a 4-symbol chain at S = 4096; 8-symbol chains, whose class
    # sums numpy adds pairwise.  Each with seeded Dirichlet entries and
    # with dyadic entries that include zeros
    largest = {2: 9, 3: 5, 4: 4}
    cases = [(s, k, p) for s in (2, 3, 4) for k in (1, 2, 3)
             for p in sorted({k, largest[s]})]
    cases += [(4, 3, 5), (8, 1, 1), (8, 1, 3)]
    out = []
    for s, k, p in cases:
        rng = np.random.default_rng(1000 * s + 10 * k + p)
        contexts = s ** k
        dyadic = rng.multinomial(16, np.full(s, 1.0 / s), size=contexts) / 16
        dyadic[::2, 1] += dyadic[::2, 0]
        dyadic[::2, 0] = 0.0
        for name, conditional in (
                ("dirichlet", rng.dirichlet(np.ones(s), size=contexts)),
                ("dyadic", dyadic)):
            out.append(pytest.param(
                HigherOrderChainSpec(s, k, conditional), p,
                id=f"s{s}k{k}p{p}-{name}"))
    return out


@pytest.mark.parametrize("spec,p", _power_chains())
def test_power_steps_keep_the_bits_of_the_plain_numpy_form(spec, p):
    # rows, masses and d(t) of 14 power steps, bit for bit and sign bits
    # of zeros included, against the plain numpy expressions they replace
    chain = markovize(spec, p, require_primitive=False)
    q = chain.stationary
    steps = zip(range(14), _power_rows(chain, q), _reference_power_rows(chain, q))
    for j, (rows, masses), (ref_rows, ref_masses) in steps:
        assert rows.shape == ref_rows.shape, j
        assert np.array_equal(_bits(rows), _bits(ref_rows)), j
        assert np.array_equal(_bits(masses), _bits(ref_masses)), j
    distances = chains._distances(q, _power_rows(chain, q))
    reference = _reference_distances(q, _reference_power_rows(chain, q))
    assert np.array_equal(_bits([next(distances) for _ in range(15)]),
                          _bits([next(reference) for _ in range(15)]))


def test_gap_and_coupling_keep_their_bits_on_the_s1024_chain(order2_spec,
                                                            monkeypatch):
    # the verify-cond-s1024 chain: gammas and coupling entries against the
    # same diagnostics run on the plain numpy power steps
    chain = markovize(order2_spec, 9)
    loss = LossSpec.misclassification(2)
    bayes = bayes_predictor(chain, loss)

    def diagnostics():
        return (pseudo_spectral_gap(chain, chain.stationary).gammas,
                coupling_check(chain, bayes, loss).entries)

    gammas, entries = diagnostics()
    monkeypatch.setattr(chains, "_power_rows", _reference_power_rows)
    monkeypatch.setattr(harness, "_power_rows", _reference_power_rows)
    monkeypatch.setattr(chains, "_distances", _reference_distances)
    ref_gammas, ref_entries = diagnostics()
    assert len(gammas) == len(ref_gammas) > 1
    assert np.array_equal(_bits(gammas), _bits(ref_gammas))
    assert len(entries) == len(ref_entries) == 21
    assert np.array_equal(_bits(entries), _bits(ref_entries))


def test_markovized_chain_answers_size(order2_spec):
    chain = markovize(order2_spec, 3)
    assert chain.size == chain.kernel.size == chain.n_states == 16


# ---------------------------------------------------------------------------
# higher-order specs and markovization


def test_spec_rejects_wrong_row_count():
    with pytest.raises(DimensionMismatchError):
        HigherOrderChainSpec(2, 2, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_spec_rejects_bad_rows():
    with pytest.raises(RangeError):
        HigherOrderChainSpec(2, 1, np.array([[0.7, 0.7], [0.5, 0.5]]))


def test_markovize_two_state_stationary_closed_form(two_state_chain):
    # pair law Q_c(y_t, y_{t-1}) = Q(y_{t-1}) K(y_{t-1}, y_t), with the most
    # recent symbol most significant in the composite label
    expected = np.array([
        (2.0 / 3.0) * 0.9,          # (0, 0)
        (1.0 / 3.0) * 0.2,          # (0, 1)
        (2.0 / 3.0) * 0.1,          # (1, 0)
        (1.0 / 3.0) * 0.8,          # (1, 1)
    ])
    assert two_state_chain.stationary == pytest.approx(expected, abs=1e-12)


def test_markovize_kernel_structure(two_state_chain):
    # from composite x, appending y reaches exactly y*S^p + x//S with the
    # base conditional probability; everything else is structurally zero
    matrix = two_state_chain.kernel.matrix
    base = two_state_chain.base.conditional
    for x in range(4):
        for y in range(2):
            dest = y * 2 + x // 2
            assert matrix[x, dest] == pytest.approx(base[x // 2 ** 1, y])
        assert np.count_nonzero(matrix[x]) <= 2


def test_markovize_order_two_fixture(order2_chain):
    assert order2_chain.n_states == 8
    expected = np.array([0.525, 7.0 / 120.0, 1.0 / 30.0, 0.05,
                         7.0 / 120.0, 0.025, 0.05, 0.2])
    assert order2_chain.stationary == pytest.approx(expected, abs=1e-9)


def test_markovize_symbol_marginal_matches_base(two_state_chain):
    assert two_state_chain.symbol_marginal() == pytest.approx(
        [2.0 / 3.0, 1.0 / 3.0], abs=1e-12)


def test_markovize_embedding_above_base_order(order2_spec):
    # embed with one extra lag: stationary symbol marginal is unchanged
    chain = markovize(order2_spec, 3)
    assert chain.n_states == 16
    base_chain = markovize(order2_spec, 2)
    assert chain.symbol_marginal() == pytest.approx(
        base_chain.symbol_marginal(), abs=1e-10)


def test_markovize_rejects_embedding_below_base_order(order2_spec):
    with pytest.raises(RangeError):
        markovize(order2_spec, 1)


def test_markovize_enforces_state_cap():
    spec = HigherOrderChainSpec(2, 1, np.array([[0.9, 0.1], [0.2, 0.8]]))
    with pytest.raises(SizeOverflowError):
        markovize(spec, 12)


def test_encode_decode_roundtrip(order2_chain):
    for x in range(order2_chain.n_states):
        syms = order2_chain.decode(x)
        assert order2_chain.encode(syms) == x
    assert order2_chain.decode(5) == (1, 0, 1)


def test_encode_validates_input(two_state_chain):
    with pytest.raises(DimensionMismatchError):
        two_state_chain.encode((0,))
    with pytest.raises(RangeError):
        two_state_chain.encode((0, 2))


def test_context_index_views(order2_chain):
    xs = np.arange(8)
    # q = 0: single context; q = 1: most recent past symbol y_{t-1};
    # q = 2: both past symbols
    assert (order2_chain.context_index(0) == 0).all()
    assert order2_chain.context_index(1) == pytest.approx((xs % 4) // 2)
    assert order2_chain.context_index(2) == pytest.approx(xs % 4)
    with pytest.raises(RangeError):
        order2_chain.context_index(3)


@pytest.mark.parametrize("symbols,order", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_markovize_stationary_law_extends_the_tuple_chain(symbols, order):
    # Q built by the append rule from the (k+1)-tuple chain against the
    # solve and power iteration on the dense (p+1)-tuple kernel
    rng = np.random.default_rng(2000 * symbols + order)
    for p in range(order, order + 4):
        if symbols ** (p + 1) > 1024:
            continue
        spec = HigherOrderChainSpec(symbols, order, rng.dirichlet(
            np.ones(symbols), size=symbols ** order))
        chain = markovize(spec, p)
        q = chain.stationary
        assert is_primitive(chain.kernel.matrix)
        assert np.abs(q - stationary_distribution(chain.kernel)).sum() <= 1e-12
        oracle = _stationary_by_power_iteration(chain.kernel.matrix)
        assert np.abs(q - oracle).sum() <= 1e-12
        _check_stationary(chain, q)  # raises on a failed reversed-row rule


def test_markovize_structural_zeros_need_escape_hatch():
    for order, conditional, p in [
            # deterministic base symbols make many composite pairs unreachable
            (1, [[0.0, 1.0], [1.0, 0.0]], 1),
            # one zero conditional leaves tuple columns with no mass at p = k+1
            (2, [[0.9, 0.1], [0.0, 1.0], [0.4, 0.6], [0.2, 0.8]], 3)]:
        spec = HigherOrderChainSpec(2, order, np.array(conditional))
        with pytest.raises(NonPrimitiveError):
            markovize(spec, p)
        chain = markovize(spec, p, require_primitive=False)
        assert chain.n_states == 2 ** (p + 1)
        assert not is_primitive(chain.kernel.matrix)
