"""Monte Carlo harness: Wilson intervals, replication runs, event tables,
verification verdicts, oracle-gap checks, coupling and noise-condition checks.

Runs here are deliberately small (about a hundred replications) so the whole
module stays fast; statistical power comes from the acceptance suite.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from markov_holdout import (
    ExperimentConfig,
    HigherOrderChainSpec,
    LossSpec,
    MammenTsybakovNoise,
    PredictorTable,
    RangeError,
    SeedSpec,
    ZeroMarginError,
    bayes_predictor,
    coupling_check,
    erm_fit,
    event_table,
    exact_risk,
    holdout_select,
    markovize,
    mixing_time,
    noise_condition_check,
    run_replications,
    sample_stationary_trajectory,
    tail_probability,
    verify_bounds,
    wilson_upper,
)
from markov_holdout.errors import UnknownEventError
from markov_holdout.harness import WILSON_Z_99


# ---------------------------------------------------------------------------
# Wilson upper limits


def test_wilson_z_matches_normal_quantile():
    assert WILSON_Z_99 == pytest.approx(stats.norm.ppf(0.995), abs=1e-12)


def test_wilson_upper_at_zero_count():
    z = WILSON_Z_99
    for trials in (100, 2000, 10_000):
        expected = z * z / (trials + z * z)
        assert wilson_upper(0, trials) == pytest.approx(expected, rel=1e-12)


def test_wilson_upper_matches_direct_formula():
    z = WILSON_Z_99
    for count, trials in ((3, 100), (250, 2000), (999, 1000)):
        p = count / trials
        center = (p + z * z / (2 * trials)) / (1 + z * z / trials)
        half = (z / (1 + z * z / trials)) * np.sqrt(
            p * (1 - p) / trials + z * z / (4 * trials ** 2))
        assert wilson_upper(count, trials) == pytest.approx(center + half,
                                                            rel=1e-12)


def test_wilson_upper_properties():
    assert wilson_upper(100, 100) == pytest.approx(1.0, abs=1e-12)
    uppers = [wilson_upper(c, 500) for c in range(0, 501, 50)]
    assert all(a < b for a, b in zip(uppers, uppers[1:]))
    assert all(0.0 < u <= 1.0 + 1e-12 for u in uppers)
    with pytest.raises(RangeError):
        wilson_upper(5, 4)
    with pytest.raises(RangeError):
        wilson_upper(-1, 10)


# ---------------------------------------------------------------------------
# configuration validation


def _config(two_state_chain, **overrides):
    base = dict(chain=two_state_chain, orders=(0, 1),
                loss=LossSpec.misclassification(2), n=150, m=120,
                replications=120, epsilon_grid=(0.1, 0.2), master_seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_requires_minimum_replications(two_state_chain):
    with pytest.raises(RangeError):
        _config(two_state_chain, replications=99)


def test_config_rejects_bad_orders(two_state_chain):
    with pytest.raises(RangeError):
        _config(two_state_chain, orders=(0, 2))     # above embedding order
    with pytest.raises(RangeError):
        _config(two_state_chain, orders=(1, 1))     # duplicates
    with pytest.raises(RangeError):
        _config(two_state_chain, orders=())         # no candidates


def test_config_rejects_bad_grid(two_state_chain):
    with pytest.raises(RangeError):
        _config(two_state_chain, epsilon_grid=())
    with pytest.raises(RangeError):
        _config(two_state_chain, epsilon_grid=(-0.1, 0.5))
    with pytest.raises(RangeError):
        _config(two_state_chain, epsilon_grid=(0.5, 1.5))
    # epsilon = 0 is legal: the bound is trivially vacuous there
    _config(two_state_chain, epsilon_grid=(0.0, 0.5))


def test_config_rejects_bad_mode_and_gap(two_state_chain):
    with pytest.raises(RangeError):
        _config(two_state_chain, mode="bootstrap")
    with pytest.raises(RangeError):
        _config(two_state_chain, gap_b=120)         # must stay below m
    with pytest.raises(RangeError):
        _config(two_state_chain, a=1.0)
    with pytest.raises(RangeError):
        _config(two_state_chain, theta=0.0)


# ---------------------------------------------------------------------------
# replication runs


@pytest.fixture(scope="module")
def small_run(two_state_chain):
    config = ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=200, m=150, replications=120,
        epsilon_grid=(0.1, 0.2, 0.4), gap_b=10,
        noise=MammenTsybakovNoise(1.0, 0.6), master_seed=5)
    return run_replications(config)


def test_run_shapes_and_ranges(small_run):
    r, n_cand = 120, 2
    assert small_run.empirical.shape == (r, n_cand)
    assert small_run.gap_empirical.shape == (r, n_cand)
    assert small_run.exact.shape == (r, n_cand)
    assert small_run.k_hat.shape == (r,)
    assert ((small_run.empirical >= 0) & (small_run.empirical <= 1)).all()
    assert ((0 <= small_run.k_hat) & (small_run.k_hat < n_cand)).all()


def test_conditional_mode_freezes_candidates(small_run, two_state_chain,
                                             zero_one_loss):
    # exact risks are constant across replications: one learning draw
    assert (small_run.exact == small_run.exact[0]).all()
    # and they equal risks of an ERM refit on the seed-(master, 0) trajectory
    traj = sample_stationary_trajectory(two_state_chain, 200, 150,
                                        SeedSpec(5, 0))
    for order, cand in zip((0, 1), small_run.candidates):
        refit = erm_fit(two_state_chain, order, traj.learning, zero_one_loss)
        assert (cand.table == refit.table).all()
        assert exact_risk(refit, two_state_chain,
                          zero_one_loss) == pytest.approx(
            small_run.exact[0, order])


def test_selected_risks_and_oracle(small_run):
    hat = small_run.exact_hat
    tilde = small_run.exact_tilde
    assert (hat >= tilde - 1e-15).all()
    freq = small_run.selection_frequency()
    assert freq.sum() == pytest.approx(1.0)
    assert freq[1] > 0.5     # memory-1 ERM wins most splits here


def test_run_is_reproducible(two_state_chain, small_run):
    config = ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=200, m=150, replications=120,
        epsilon_grid=(0.1, 0.2, 0.4), gap_b=10,
        noise=MammenTsybakovNoise(1.0, 0.6), master_seed=5)
    rerun = run_replications(config)
    assert (rerun.empirical == small_run.empirical).all()
    assert (rerun.k_hat == small_run.k_hat).all()


def test_threads_do_not_change_results(two_state_chain, small_run):
    config = ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=200, m=150, replications=120,
        epsilon_grid=(0.1, 0.2, 0.4), gap_b=10,
        noise=MammenTsybakovNoise(1.0, 0.6), master_seed=5, threads=2)
    rerun = run_replications(config)
    assert (rerun.empirical == small_run.empirical).all()
    assert (rerun.gap_empirical == small_run.gap_empirical).all()
    assert (rerun.k_hat == small_run.k_hat).all()


def test_marginal_mode_redraws_learning(two_state_chain):
    config = ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=60, m=80, replications=120,
        epsilon_grid=(0.2,), mode="marginal", master_seed=11)
    run = run_replications(config)
    # short learning series: the memory-1 fit varies, so exact risks vary
    assert len(np.unique(run.exact[:, 1])) > 1
    assert run.candidates is None


def test_marginal_replication_matches_manual_refit(two_state_chain,
                                                   zero_one_loss):
    config = ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=60, m=80, replications=100,
        epsilon_grid=(0.2,), mode="marginal", master_seed=11)
    run = run_replications(config)
    # replication r draws its full trajectory from stream (master, r)
    for r in (1, 50, 100):
        traj = sample_stationary_trajectory(two_state_chain, 60, 80,
                                            SeedSpec(11, r))
        for j, order in enumerate((0, 1)):
            refit = erm_fit(two_state_chain, order, traj.learning,
                            zero_one_loss)
            assert exact_risk(refit, two_state_chain,
                              zero_one_loss) == pytest.approx(
                run.exact[r - 1, j])


def test_marginal_threads_do_not_change_results(two_state_chain):
    def run(threads):
        return run_replications(ExperimentConfig(
            chain=two_state_chain, orders=(0, 1),
            loss=LossSpec.misclassification(2), n=60, m=80,
            replications=120, epsilon_grid=(0.2,), mode="marginal",
            gap_b=10, master_seed=11, threads=threads))

    serial, pooled = run(1), run(2)
    for name in ("empirical", "gap_empirical", "exact", "k_hat", "k_tilde"):
        assert (getattr(pooled, name) == getattr(serial, name)).all(), name


# Values recorded from the replication code before its two modes shared one
# worker.  With 0/1 losses every empirical risk is (loss count) / m, so the
# counts are exact integers; the index-weighted sums also catch replications
# that moved between rows.
@pytest.mark.parametrize("mode", ["conditional", "marginal"])
def test_replication_ties_go_to_lowest_index(two_state_chain, mode):
    # a zero training loss makes every context predict 0 at both orders, so
    # the candidates' losses agree in every replication; listing the higher
    # order first catches a harness that prefers the lower order or the
    # last minimizer
    run = run_replications(_config(two_state_chain, orders=(1, 0), mode=mode,
                                   train_loss=LossSpec(np.zeros((2, 2)))))
    assert (run.empirical[:, 0] == run.empirical[:, 1]).all()
    assert (run.k_hat == 0).all()
    assert (run.k_tilde == 0).all()


@pytest.mark.parametrize("mode, n, m, seed, counts, weighted, k_hat, "
                         "k_hat_weighted, exact_means", [
    ("conditional", 200, 40, 5, [1580, 620], [97499, 38108], [16, 104], 6470,
     [0.33333333333333337, 0.1333333333333332]),
    ("marginal", 60, 80, 11, [3599, 1369], [219311, 86095], [6, 114], 6797,
     [0.38888888888888923, 0.13999999999999985]),
])
def test_replications_match_recorded_values(two_state_chain, mode, n, m, seed,
                                            counts, weighted, k_hat,
                                            k_hat_weighted, exact_means):
    run = run_replications(ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=n, m=m, replications=120,
        epsilon_grid=(0.1,), mode=mode, gap_b=10, master_seed=seed))
    loss_counts = np.rint(run.empirical * m).astype(int)
    assert np.abs(run.empirical * m - loss_counts).max() < 1e-9
    rows = np.arange(1, 121)
    assert loss_counts.sum(axis=0).tolist() == counts
    assert (rows @ loss_counts).tolist() == weighted
    assert np.bincount(run.k_hat, minlength=2).tolist() == k_hat
    assert int(rows @ run.k_hat) == k_hat_weighted
    assert run.exact.mean(axis=0) == pytest.approx(exact_means, rel=1e-12)


# ---------------------------------------------------------------------------
# events and tail estimates


def test_event_table_contents(small_run):
    events = event_table(small_run)
    for gid in ("g0", "g1"):
        assert f"abs_dev[{gid}]" in events
        assert f"scaled_over[{gid}]" in events
        assert f"gap_abs_dev[{gid}]" in events
        assert f"shifted_abs_dev[{gid}]" in events
    assert "over_dev_selected" in events
    assert "under_dev_best" in events
    assert "excess_vs_best" in events
    assert "excess_vs_best_gap" in events
    spec = events["abs_dev[g0]"]
    assert spec.stats.shape == (120,)
    assert spec.bound_id == "hoeffding"
    assert events["shifted_abs_dev[g0]"].shift == pytest.approx(10.0 / 150.0)


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_shifted_full_mean_event_implies_burn_in_event(small_run, a):
    # With 0/1 losses and exact risks in [0, 1], the full-mean event at
    # eps + b/m fires only when the burn-in event at eps does: this is what
    # lets verify check the burn-in forms on the full-mean statistic.
    m, b = small_run.config.m, small_run.config.gap_b
    rng = np.random.default_rng(20260825)
    segments = [(rng.random(m) < rng.random()).astype(int)
                for _ in range(200)]
    head = np.r_[np.zeros(b, int), np.ones(m - b, int)]
    segments += [head, 1 - head]
    risks = np.r_[0.0, 1.0, np.linspace(0.0, 1.0, 41)[1:-1], rng.random(20)]
    losses = np.array([[0.0, 1.0]])          # state s loses s
    full, gap = np.array([[holdout_select(losses, seg, burn)[1][0]
                           for seg in segments]
                          for burn in (0, b)]).repeat(len(risks), axis=1)
    exact = np.tile(risks, len(segments))
    run = replace(small_run, config=replace(small_run.config, orders=(0,),
                                            a=a),
                  empirical=full[:, None], gap_empirical=gap[:, None],
                  exact=exact[:, None], k_hat=np.zeros(len(full), int),
                  k_tilde=np.zeros(len(full), int))
    on_full = event_table(run)
    on_burn = event_table(replace(run, empirical=gap[:, None]))
    pairs = [(on_full["shifted_abs_dev[g0]"], on_full["gap_abs_dev[g0]"]),
             (on_full["gap_scaled_over[g0]"], on_burn["scaled_over[g0]"]),
             (on_full["gap_scaled_under[g0]"], on_burn["scaled_under[g0]"])]
    eps_grid = np.r_[np.linspace(0.0, 1.0, 201), rng.random(50)]
    for shifted, burn_in in pairs:
        assert shifted.shift == pytest.approx(b / m, rel=1e-15)
        fired = 0
        for eps in eps_grid:
            full_event = shifted.stats > eps + shifted.shift
            assert not np.any(full_event & ~(burn_in.stats > eps)), \
                (shifted.event_id, eps)
            fired += int(full_event.sum())
        assert fired > 0, shifted.event_id


def test_abs_dev_statistics_match_run_arrays(small_run):
    events = event_table(small_run)
    manual = np.abs(small_run.empirical[:, 0] - small_run.exact[:, 0])
    assert events["abs_dev[g0]"].stats == pytest.approx(manual)


def test_tail_probability_counts(small_run):
    estimates = tail_probability(small_run, "abs_dev[g1]", (0.1, 0.2, 0.4))
    stats_ = np.abs(small_run.empirical[:, 1] - small_run.exact[:, 1])
    for est, eps in zip(estimates, (0.1, 0.2, 0.4)):
        assert est.count == int((stats_ > eps).sum())
        assert est.trials == 120
        assert est.p_hat == pytest.approx(est.count / 120)
        assert est.wilson_upper == pytest.approx(wilson_upper(est.count, 120))
    counts = [e.count for e in estimates]
    assert counts == sorted(counts, reverse=True)


def test_tail_probability_unknown_event(small_run):
    with pytest.raises(UnknownEventError):
        tail_probability(small_run, "no_such_event", (0.1,))


def test_verify_bounds_dominated_verdicts(small_run):
    report = verify_bounds(small_run)
    assert report.estimates
    assert report.violations == 0
    assert report.passed
    verdicts = {e.verdict for e in report.estimates}
    assert verdicts <= {"dominated", "vacuous-bound"}
    for est in report.estimates:
        if est.verdict == "dominated":
            assert est.wilson_upper <= est.bound
        else:
            assert est.vacuous


def test_verify_bounds_flags_forced_violations(two_state_chain):
    config = ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=200, m=150, replications=120,
        epsilon_grid=(0.1, 0.3), master_seed=5, bound_scale=1e-9)
    report = verify_bounds(run_replications(config))
    assert report.violations > 0
    assert not report.passed
    assert any(e.verdict == "VIOLATION" for e in report.estimates)


def test_verify_bounds_scale_can_make_everything_vacuous(two_state_chain):
    config = ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=200, m=150, replications=120,
        epsilon_grid=(0.1, 0.3), master_seed=5, bound_scale=1e9)
    report = verify_bounds(run_replications(config))
    assert report.violations == 0
    assert report.vacuous == len(report.estimates)
    assert report.passed


# ---------------------------------------------------------------------------
# oracle-gap checks


def test_oracle_gap_check_requires_enough_replications(small_run):
    from markov_holdout import oracle_gap_check
    with pytest.raises(RangeError):
        oracle_gap_check(small_run, "hoeffding")


@pytest.fixture(scope="module")
def oracle_run(two_state_chain):
    config = ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=300, m=200, replications=1000,
        epsilon_grid=(0.2,), noise=MammenTsybakovNoise(1.0, 0.6),
        master_seed=13)
    return run_replications(config)


def test_oracle_gap_check_kinds(oracle_run):
    from markov_holdout import oracle_gap_check
    for kind in ("hoeffding", "bernstein", "noise"):
        rep = oracle_gap_check(oracle_run, kind)
        assert rep.kind == kind
        assert rep.passed
        assert rep.mean_gap + 3 * rep.std_error <= rep.rhs
        assert rep.std_error >= 0.0
    # sanity: measured mean gap matches the run arrays
    rep = oracle_gap_check(oracle_run, "hoeffding")
    gaps = oracle_run.exact_hat - oracle_run.exact_tilde
    assert rep.mean_gap == pytest.approx(gaps.mean())
    assert rep.std_error == pytest.approx(gaps.std(ddof=1) / np.sqrt(1000))


def test_oracle_gap_check_bernstein_details(oracle_run):
    from markov_holdout import oracle_gap_check
    rep = oracle_gap_check(oracle_run, "bernstein")
    assert rep.details["not_strictly_oracle"]
    assert "excess_rhs_as_printed" in rep.details


def test_oracle_gap_check_unknown_kind(oracle_run):
    from markov_holdout import oracle_gap_check
    with pytest.raises(UnknownEventError):
        oracle_gap_check(oracle_run, "chernoff")


def test_oracle_gap_check_noise_needs_model(two_state_chain):
    from markov_holdout import oracle_gap_check
    config = ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=300, m=200, replications=1000,
        epsilon_grid=(0.2,), master_seed=13)
    run = run_replications(config)
    with pytest.raises(RangeError):
        oracle_gap_check(run, "noise")


# ---------------------------------------------------------------------------
# coupling check


def test_coupling_check_two_state(two_state_chain, zero_one_loss):
    g = bayes_predictor(two_state_chain, zero_one_loss)
    report = coupling_check(two_state_chain, g, zero_one_loss, b_max=20)
    assert report.passed
    assert len(report.entries) == 21
    assert report.t_mix == 4
    for b, lhs, rhs in report.entries:
        assert lhs <= rhs + 1e-12
        assert rhs == pytest.approx(2.0 * np.exp(-b * np.log(2) / 4))


def test_coupling_check_iid_deviation_is_zero(iid_chain, zero_one_loss):
    g = bayes_predictor(iid_chain, zero_one_loss)
    report = coupling_check(iid_chain, g, zero_one_loss, b_max=5)
    assert report.passed
    for _, lhs, _ in report.entries:
        assert lhs < 1e-14


def test_coupling_check_worst_start_is_exact(two_state_chain, zero_one_loss):
    from markov_holdout import conditional_risk
    g = bayes_predictor(two_state_chain, zero_one_loss)
    stationary = exact_risk(g, two_state_chain, zero_one_loss)
    report = coupling_check(two_state_chain, g, zero_one_loss, b_max=6)
    for b, lhs, _ in report.entries:
        manual = max(abs(conditional_risk(g, two_state_chain, x, b,
                                          zero_one_loss) - stationary)
                     for x in range(4))
        assert lhs == pytest.approx(manual, abs=1e-15)


# ---------------------------------------------------------------------------
# noise-condition check


def test_noise_condition_check_two_state(two_state_chain):
    report = noise_condition_check(two_state_chain, 1)
    assert report.passed
    assert report.margin == pytest.approx(0.6, abs=1e-12)
    assert report.n_tables == 4
    assert report.worst_slack <= 1e-12


def test_noise_condition_check_constant_order(two_state_chain):
    report = noise_condition_check(two_state_chain, 0)
    assert report.passed
    assert report.n_tables == 2


def test_noise_condition_check_order_two(order2_chain):
    report = noise_condition_check(order2_chain, 2)
    assert report.passed
    assert report.n_tables == 16
    assert report.margin == pytest.approx(0.2, abs=1e-12)


def test_noise_condition_check_rejects_non_binary():
    from markov_holdout import BinaryOnlyError
    spec = HigherOrderChainSpec(3, 1, np.array([
        [0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]))
    chain = markovize(spec, 1)
    with pytest.raises(BinaryOnlyError):
        noise_condition_check(chain, 1)


def test_noise_condition_check_rejects_zero_margin(iid_chain):
    with pytest.raises(ZeroMarginError):
        noise_condition_check(iid_chain, 1)


def test_noise_condition_check_order_limit(order2_chain):
    with pytest.raises(RangeError):
        noise_condition_check(order2_chain, 3)
