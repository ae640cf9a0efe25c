"""Acceptance suite: one test per verifiable claim, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``.  Each test is a complete,
independently meaningful check of one advertised property of the package:

1.  exact diagnostics on closed-form fixtures
2.  the (2, 2^(-1/t_mix)) certificate dominates the true mixing profile
3.  the coupling inequality, exact on both sides
4.  every closed-form bound matches an independent 50-digit re-evaluation,
    and the two oracle forms coincide at the critical radius
5.  Monte Carlo tail domination for the additive (Hoeffding-type) bound
6.  the same for the multiplicative (Bernstein-type) and noise-adaptive forms
7.  measured oracle gaps sit below all three closed-form right-hand sides
8.  excess risk shrinks at the fast rate when the family contains Bayes
9.  ERM, Bayes, and the noise-condition check agree with exhaustive
    brute-force enumeration on all small cases
10. the verification CLI is byte-for-byte deterministic

Statistical tests use frozen seeds and Wilson 99% upper limits, so they are
deterministic; wall-clock budget assertions are generous.
"""

import itertools
import json
import time

import mpmath as mp
import numpy as np
import pytest

from markov_holdout import (
    ExperimentConfig,
    HigherOrderChainSpec,
    LossSpec,
    MammenTsybakovNoise,
    PredictorTable,
    SeedSpec,
    TransitionKernel,
    bayes_predictor,
    bernstein_deviation_radius,
    bernstein_gap_tail,
    bernstein_tail,
    bernstein_tail_raw,
    conditional_risk,
    coupling_check,
    erm_fit,
    exact_risk,
    expectation_bound_bernstein,
    evaluate_bound,
    expectation_bound_hoeffding,
    hoeffding_gap_tail,
    hoeffding_tail,
    markovize,
    mixing_time,
    mt_oracle_rhs,
    nc_gap_tail,
    nc_oracle_rhs,
    nc_tail,
    noise_condition_check,
    oracle_excess_bernstein,
    oracle_gap_bernstein,
    oracle_gap_check,
    oracle_gap_hoeffding,
    pseudo_spectral_gap,
    run_replications,
    sample_stationary_trajectory,
    selection_hoeffding_tail,
    stationary_distribution,
    verify_bounds,
    wilson_upper,
)
from markov_holdout.cli import main as cli_main

from conftest import random_primitive_binary_kernel

mp.mp.dps = 50
LN2 = mp.log(2)


# ---------------------------------------------------------------------------
# shared Monte Carlo run for the domination and oracle-gap criteria


@pytest.fixture(scope="module")
def domination_run(two_state_chain):
    config = ExperimentConfig(
        chain=two_state_chain,
        orders=(0, 1),
        loss=LossSpec.misclassification(2),
        n=500, m=500, replications=2000,
        epsilon_grid=tuple(round(0.05 * i, 2) for i in range(1, 11)),
        mode="conditional",
        a=0.5, theta=0.5,
        noise=MammenTsybakovNoise(1.0, 0.6),
        master_seed=424242)
    return run_replications(config)


@pytest.fixture(scope="module")
def domination_report(domination_run):
    return verify_bounds(domination_run)


def _family(report, bound_ids):
    return [e for e in report.estimates if e.bound_id in bound_ids]


# ---------------------------------------------------------------------------
# 1. diagnostics exactness


def test_diagnostics_exactness(two_state_kernel, iid_kernel):
    start = time.perf_counter()

    q = stationary_distribution(two_state_kernel)
    assert q == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-10)
    assert mixing_time(two_state_kernel).t_mix == 3
    assert pseudo_spectral_gap(two_state_kernel).gamma_ps == pytest.approx(
        0.51, abs=1e-8)

    assert mixing_time(iid_kernel).t_mix == 1
    assert pseudo_spectral_gap(iid_kernel).gamma_ps == 1.0

    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. certificate domination


def test_certificate_domination(two_state_kernel, iid_kernel):
    start = time.perf_counter()
    rng = np.random.default_rng(20260825)
    kernels = [two_state_kernel, iid_kernel]
    kernels += [random_primitive_binary_kernel(rng) for _ in range(100)]

    for kernel in kernels:
        q = stationary_distribution(kernel)
        profile = mixing_time(kernel, q=q)
        d = mixing_time(kernel, q=q, horizon=50).d_values
        t = np.arange(51)
        certificate = 2.0 * np.exp(-t * np.log(2) / profile.t_mix)
        assert (d <= certificate + 1e-12).all()
        gamma = pseudo_spectral_gap(kernel, q).gamma_ps
        assert gamma >= 1.0 / (2.0 * profile.t_mix) - 1e-12

    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 3. coupling inequality, exact on both sides


def test_coupling_inequality_exact(two_state_chain, zero_one_loss):
    start = time.perf_counter()
    g = bayes_predictor(two_state_chain, zero_one_loss)
    t_mix = mixing_time(two_state_chain.kernel).t_mix
    stationary_risk = exact_risk(g, two_state_chain, zero_one_loss)

    report = coupling_check(two_state_chain, g, zero_one_loss, b_max=20)
    assert report.passed
    assert len(report.entries) == 21

    for b, lhs, rhs in report.entries:
        # recompute both sides from scratch
        worst = max(
            abs(conditional_risk(g, two_state_chain, x, b, zero_one_loss)
                - stationary_risk)
            for x in range(two_state_chain.n_states))
        assert lhs == pytest.approx(worst, abs=1e-15)
        assert rhs == pytest.approx(2.0 * np.exp(-b * np.log(2) / t_mix),
                                    rel=1e-15)
        assert worst <= rhs + 1e-12

    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 4. closed forms vs independent 50-digit re-evaluation


def _assert_close(lib_value, ref_value, rel=mp.mpf("1e-9")):
    ref = mp.mpf(ref_value) if not isinstance(ref_value, mp.mpf) else ref_value
    if ref < mp.mpf("1e-250"):
        # both negligibly zero: domination claims are unaffected down here
        assert lib_value <= 1e-250
        return
    assert abs(mp.mpf(lib_value) - ref) / ref <= rel


def test_bound_evaluators_match_high_precision():
    start = time.perf_counter()
    rng = np.random.default_rng(90210)

    def draw():
        m = int(rng.integers(10, 20_001))
        return {
            "m": m,
            "b": int(rng.integers(0, m // 2 + 1)),
            "eps": float(rng.uniform(0.01, 1.0)),
            "t": int(rng.integers(1, 11)),
            "g": float(rng.uniform(0.05, 1.0)),
            "a": float(rng.uniform(0.05, 0.95)),
            "th": float(rng.uniform(0.05, 0.95)),
            "N": int(rng.integers(1, 9)),
            "V": float(rng.uniform(0.0, 0.25)),
            "B": float(rng.uniform(0.05, 1.0)),
            "tau": float(rng.uniform(1e-6, 0.1)),
            "delta": float(rng.uniform(0.001, 0.999)),
            "rb": float(rng.uniform(0.1, 0.9)),
            "h": float(rng.uniform(0.05, 1.0)),
            "alpha": float(rng.uniform(0.2, 1.0)),
        }

    for _ in range(40):
        p = draw()
        m, b = p["m"], p["b"]
        eps, t = mp.mpf(p["eps"]), p["t"]
        g, a, th = mp.mpf(p["g"]), mp.mpf(p["a"]), mp.mpf(p["th"])
        N, V, B = p["N"], mp.mpf(p["V"]), mp.mpf(p["B"])
        tau, delta = mp.mpf(p["tau"]), mp.mpf(p["delta"])
        rb, rstar = mp.mpf(p["rb"]), mp.mpf(p["rb"]) / 2
        h, alpha = mp.mpf(p["h"]), mp.mpf(p["alpha"])

        couple = 2 * mp.e ** (-b * LN2 / t)
        hoeff_pre = 2 * mp.e ** (LN2 / t) + 1
        hoeff_shape = 1 + 9 * LN2

        _assert_close(
            hoeffding_gap_tail(m, b, p["eps"], t),
            mp.e ** (-2 * (m - b) * eps ** 2 / (9 * t)) + couple)
        _assert_close(
            evaluate_bound("hoeffding_shifted",
                           {"m": m, "b": b, "epsilon": p["eps"],
                            "t_mix": t}).raw,
            mp.e ** (-2 * (m - b) * eps ** 2 / (9 * t)) + couple)
        _assert_close(
            hoeffding_tail(m, p["eps"], t),
            hoeff_pre * mp.e ** (-m * eps ** 2 * LN2 / (hoeff_shape * t)))
        _assert_close(
            selection_hoeffding_tail(N, m, p["eps"], t),
            N * hoeff_pre * mp.e ** (-m * eps ** 2 * LN2 / (hoeff_shape * t)))
        _assert_close(
            expectation_bound_hoeffding(N, m, t),
            mp.sqrt(mp.log(mp.e * N * hoeff_pre) * hoeff_shape * t / (LN2 * m)))
        _assert_close(
            oracle_gap_hoeffding(N, m, t),
            2 * mp.sqrt(mp.log(mp.e * N * hoeff_pre) * hoeff_shape * t
                        / (LN2 * m)))

        if V > 0:
            _assert_close(
                bernstein_tail_raw(m, p["eps"], p["g"], p["V"], p["B"]),
                mp.e ** (-m ** 2 * eps ** 2 * g
                         / (8 * (m + 1 / g) * V + 20 * m * eps * B)))
            _assert_close(
                bernstein_deviation_radius(m, p["delta"], p["g"], p["V"],
                                           p["B"]),
                mp.sqrt(8 * (g + 1) / g ** 2 * m * V * mp.log(1 / delta))
                + 20 * B * mp.log(1 / delta) / g)

        bern_shape = 8 * (1 + 1 / g) + 20
        for side, factor in (("over", 1 + a), ("under", 1 - a)):
            _assert_close(
                bernstein_gap_tail(m, b, p["eps"], p["a"], p["g"], t, side),
                mp.e ** (-(m - b) * g * a * factor * eps / bern_shape)
                + couple)
            _assert_close(
                bernstein_tail(m, p["eps"], p["a"], p["g"], t, side),
                (1 + 2 * mp.e ** (LN2 / t))
                * mp.e ** (-a * factor * m * eps / (4 * t * bern_shape)))
            _assert_close(
                expectation_bound_bernstein(N, m, p["a"], t, p["g"], side),
                4 * t * bern_shape * mp.log(mp.e * N * hoeff_pre)
                / (a * factor * m))

        exp_over = 4 * t * bern_shape * mp.log(mp.e * N * hoeff_pre) \
            / (a * (1 + a) * m)
        exp_under = 4 * t * bern_shape * mp.log(mp.e * N * hoeff_pre) \
            / (a * (1 - a) * m)
        loc = 2 * a / (1 - a ** 2)
        _assert_close(
            oracle_gap_bernstein(N, m, p["a"], t, p["g"], p["rb"]),
            exp_over + exp_under + loc * rb)
        _assert_close(
            oracle_excess_bernstein(N, m, p["a"], t, p["g"], p["rb"],
                                    p["rb"] / 2),
            (1 + loc) * (rb - rstar) + exp_over + exp_under + loc * rstar)

        nc_kappa = 16 * (1 + 1 / g) * m * tau + 80 * th
        nc_log = mp.log(mp.e * (2 * mp.e ** (LN2 / t) + N))
        _assert_close(
            nc_gap_tail(N, m, b, p["eps"], p["th"], p["g"], t, p["tau"]),
            N * mp.e ** (-th * g * (m - b) * eps / ((1 + th) * nc_kappa))
            + couple)
        _assert_close(
            nc_tail(N, m, p["eps"], p["th"], p["g"], t, p["tau"]),
            (N + 2 * mp.e ** (LN2 / t))
            * mp.e ** (-th * g * m * eps / (4 * t * (1 + th) * nc_kappa)))
        _assert_close(
            nc_oracle_rhs(N, m, p["th"], p["g"], t, p["tau"], p["rb"]),
            (1 + th) * (rb + 4 * t * nc_kappa * nc_log / (th * g * m)))
        _assert_close(
            mt_oracle_rhs(N, m, p["th"], p["g"], t, p["alpha"], p["h"],
                          p["rb"]),
            (1 + th) * (rb + (320 * t / (g * m)
                              + 64 * t * (1 + 1 / g)
                              * h ** (-alpha / (2 - alpha))
                              / (th * g * m ** (1 / (2 - alpha)))) * nc_log))
        _assert_close(
            MammenTsybakovNoise(p["alpha"], p["h"]).tau_star(m),
            (m * h ** alpha) ** (-1 / (2 - alpha)))

    # the two oracle right-hand sides coincide at the critical radius
    rng = np.random.default_rng(31337)
    for _ in range(1000):
        N = int(rng.integers(1, 9))
        m = int(rng.integers(10, 100_000))
        th = float(rng.uniform(0.05, 0.95))
        g = float(rng.uniform(0.05, 1.0))
        t = int(rng.integers(1, 11))
        alpha = float(rng.uniform(0.2, 1.0))
        h = float(rng.uniform(0.05, 1.0))
        excess = float(rng.uniform(0.0, 1.0))
        tau = MammenTsybakovNoise(alpha, h).tau_star(m)
        lhs = nc_oracle_rhs(N, m, th, g, t, tau, excess)
        rhs = mt_oracle_rhs(N, m, th, g, t, alpha, h, excess)
        assert abs(lhs - rhs) / rhs <= 1e-10

    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 5. Monte Carlo tail domination, additive bound


def test_tail_domination_hoeffding(domination_run, domination_report):
    start = time.perf_counter()
    run = domination_run
    t_mix = run.mixing.t_mix
    m, trials = run.config.m, run.config.replications

    # deviation of the selected candidate, recomputed from the raw arrays
    rows = np.arange(trials)
    selected_dev = np.abs(run.empirical[rows, run.k_hat]
                          - run.exact[rows, run.k_hat])
    informative = 0
    for eps in run.config.epsilon_grid:
        bound = hoeffding_tail(m, eps, t_mix)
        if bound >= 1.0:
            continue
        informative += 1
        upper = wilson_upper(int((selected_dev > eps).sum()), trials)
        assert upper <= bound
    assert informative > 0   # the check must have teeth somewhere

    # library verdicts for the additive family: no violations, and at
    # least one genuinely dominated (non-vacuous) estimate
    family = _family(domination_report,
                     {"hoeffding", "selection_hoeffding"})
    assert family
    assert all(e.verdict != "VIOLATION" for e in family)
    assert any(e.verdict == "dominated" for e in family)
    assert domination_report.violations == 0

    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 6. Monte Carlo tail domination, multiplicative and noise-adaptive bounds


def test_tail_domination_bernstein(domination_run, domination_report):
    start = time.perf_counter()
    family = _family(domination_report, {"bernstein_over", "bernstein_under"})
    assert family
    for est in family:
        assert est.verdict != "VIOLATION"
        if not est.vacuous:
            assert est.wilson_upper <= est.bound
    assert time.perf_counter() - start < 60.0


def test_tail_domination_noise_adaptive(domination_run, domination_report):
    start = time.perf_counter()
    run = domination_run
    assert run.tau_star == pytest.approx(1.0 / (0.6 * run.config.m), rel=1e-12)
    family = _family(domination_report, {"noise", "noise_gap"})
    assert family
    for est in family:
        assert est.verdict != "VIOLATION"
        if not est.vacuous:
            assert est.wilson_upper <= est.bound
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 7. oracle gaps below the closed-form right-hand sides


def test_oracle_gap_inequalities(domination_run):
    start = time.perf_counter()
    for kind in ("hoeffding", "bernstein", "noise"):
        report = oracle_gap_check(domination_run, kind)
        assert report.passed, f"{kind}: {report.mean_gap} vs {report.rhs}"
        assert report.mean_gap + 3.0 * report.std_error <= report.rhs
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 8. fast-rate scaling with a Bayes-containing family


def test_fast_rate_scaling():
    start = time.perf_counter()
    base = HigherOrderChainSpec(
        2, 1, np.array([[0.62, 0.38], [0.38, 0.62]]))
    chain = markovize(base, 1)
    loss = LossSpec.misclassification(2)
    h = 0.24     # = margin(chain); alpha = 1
    noise = MammenTsybakovNoise(1.0, h)
    bayes = bayes_predictor(chain, loss)

    mean_excess = {}
    for m in (250, 500, 1000):
        config = ExperimentConfig(
            chain=chain, orders=(0, 1), loss=loss, n=2000, m=m,
            replications=2000, epsilon_grid=(0.1,), noise=noise,
            master_seed=777)
        run = run_replications(config)
        # the fitted memory-1 candidate must recover the Bayes table, so
        # the family contains the global optimum and excess-over-best
        # equals excess-over-Bayes
        assert (run.candidates[1].table == bayes.table).all()
        excess = run.exact_hat - run.bayes_risk
        assert (excess >= -1e-15).all()
        mean_excess[m] = float(excess.mean())
        rhs = nc_oracle_rhs(2, m, 0.5, run.spectral.gamma_ps,
                            run.mixing.t_mix, noise.tau_star(m), 0.0)
        assert mean_excess[m] < rhs

    # seed chosen so the smallest m still misselects occasionally: the
    # trend comparison below is then informative, not 0 <= 0
    assert mean_excess[250] > 0.0
    assert mean_excess[1000] <= 0.6 * mean_excess[250]

    assert time.perf_counter() - start < 180.0


# ---------------------------------------------------------------------------
# 9. exhaustive brute-force oracles on all small cases


def test_exhaustive_small_case_oracles(two_state_chain, order2_spec,
                                       order2_chain, zero_one_loss):
    start = time.perf_counter()

    # (a) ERM equals the brute-force class argmin on every binary symbol
    # stream of length <= 12 (streams shorter than p+1 = 3 carry no
    # composite states and are skipped), for memory orders q <= 2
    chain = order2_chain
    tgt = chain.targets
    ctxs = {q: chain.context_index(q) for q in (0, 1, 2)}
    for length in range(3, 13):
        for bits in itertools.product((0, 1), repeat=length):
            states = np.array([
                chain.encode((bits[i], bits[i - 1], bits[i - 2]))
                for i in range(2, length)])
            y = tgt[states]
            for q in (0, 1, 2):
                fitted = erm_fit(
                    chain, q, np.bincount(states, minlength=chain.n_states),
                    zero_one_loss)
                c = ctxs[q][states]
                achieved = np.mean(fitted.table[c] != y)
                brute = min(
                    np.mean(np.array(tab)[c] != y)
                    for tab in itertools.product((0, 1), repeat=2 ** q))
                assert achieved == pytest.approx(brute, abs=1e-12)

    # (b) the Bayes table attains the exhaustive-table minimum risk for
    # binary chains with embedding order p <= 3
    for test_chain in (two_state_chain, order2_chain,
                       markovize(order2_spec, 3)):
        p = test_chain.embedding_order
        best = min(
            exact_risk(PredictorTable(p, 2, np.array(tab)), test_chain,
                       zero_one_loss)
            for tab in itertools.product((0, 1), repeat=2 ** p))
        bayes_risk = exact_risk(bayes_predictor(test_chain, zero_one_loss),
                                test_chain, zero_one_loss)
        assert bayes_risk == pytest.approx(best, abs=1e-12)

    # (c) the noise condition holds for all 4 memory-1 binary tables on
    # the two-state fixture
    report = noise_condition_check(two_state_chain, 1)
    assert report.n_tables == 4
    assert report.passed
    assert report.worst_slack <= 1e-12

    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 10. CLI determinism


def test_verify_cli_determinism(tmp_path):
    config = {
        "chain": {"kernel": [[0.9, 0.1], [0.2, 0.8]], "embedding_order": 1},
        "orders": [0, 1],
        "loss": "misclassification",
        "n": 300,
        "m": 250,
        "replications": 400,
        "epsilon_grid": [0.1, 0.25, 0.4],
        "noise": {"kind": "mammen-tsybakov", "alpha": 1.0, "h": None},
        "noise_check_order": 1,
        "seed": 20260825,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["verify", "--config", str(cfg_path), "--out",
                     str(out_a), "--quiet"]) == 0
    assert cli_main(["verify", "--config", str(cfg_path), "--out",
                     str(out_b), "--quiet"]) == 0

    assert (out_a / "report.json").read_bytes() == \
        (out_b / "report.json").read_bytes()
    assert (out_a / "report.csv").read_bytes() == \
        (out_b / "report.csv").read_bytes()
