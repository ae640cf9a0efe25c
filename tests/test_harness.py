"""Monte Carlo harness: Wilson intervals, replication runs, event tables,
verification verdicts, oracle-gap checks, coupling and noise-condition checks.

Runs here are deliberately small (about a hundred replications) so the whole
module stays fast; statistical power comes from the acceptance suite.
"""

import concurrent.futures
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from markov_holdout import (
    DimensionMismatchError,
    ExperimentConfig,
    HigherOrderChainSpec,
    LossSpec,
    MammenTsybakovNoise,
    MixingProfile,
    PredictorTable,
    RangeError,
    SeedSpec,
    ZeroMarginError,
    bayes_predictor,
    coupling_check,
    NumericalFailureError,
    erm_fit,
    event_table,
    exact_risk,
    holdout_select,
    markovize,
    mixing_time,
    noise_condition_check,
    oracle_select,
    run_replications,
    sample_conditional_continuation,
    sample_stationary_trajectory,
    state_losses,
    tail_probability,
    verify_bounds,
    wilson_upper,
)
from markov_holdout.bounds import margin
from markov_holdout.chains import TransitionKernel, pseudo_spectral_gap
from markov_holdout.config import experiment_from_dict
from markov_holdout.errors import ConfigError, UnknownEventError
from markov_holdout.predictors import conditional_risk
from markov_holdout import bounds as bnd
from markov_holdout import harness
from markov_holdout.harness import WILSON_Z_99, _replication_rows

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads"


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


@pytest.mark.parametrize("overrides, message", [
    ({"orders": ()}, "need at least one candidate order"),
    ({"orders": (0, 2)}, "candidate orders must lie in [0, 1]"),
    ({"orders": (1, 1)}, "candidate orders must be distinct"),
    ({"n": 0}, "learning length n must be >= 1"),
    ({"epsilon_grid": ()}, "epsilon grid must be non-empty"),
    # m, epsilon, a and theta by their rules in bounds._DOMAINS, with the
    # texts the bound forms give
    ({"m": 0}, "m must be a positive integer, got 0"),
    ({"m": 1.5}, "m must be a positive integer, got 1.5"),
    ({"epsilon_grid": (0.5, 1.5)}, "epsilon must lie in [0, 1], got 1.5"),
    ({"epsilon_grid": (-0.1,)}, "epsilon must lie in [0, 1], got -0.1"),
    ({"a": 1.0}, "a must lie in (0, 1), got 1.0"),
    ({"theta": 0.0}, "theta must lie in (0, 1), got 0.0"),
    ({"n": 2 ** 62, "m": 2 ** 62},
     f"n + m = {2 ** 63} states do not fit in one int64 array"),
    ({"replications": 99}, "need at least 100 replications"),
    ({"mode": "bootstrap"}, "unknown mode 'bootstrap'"),
    ({"gap_b": 120}, "need 0 <= gap_b < m"),
    ({"gap_b": -1}, "need 0 <= gap_b < m"),
    ({"bound_scale": 0.0}, "bound_scale must be positive"),
    ({"threads": 0}, "threads must be >= 1"),
    ({"coupling_b_max": -1}, "coupling_b_max must be >= 0"),
    ({"noise_check_order": 2},
     "order must lie in [0, 1] (enumeration grows doubly exponentially)"),
])
def test_config_rejection_texts(two_state_chain, overrides, message):
    with pytest.raises(RangeError) as info:
        _config(two_state_chain, **overrides)
    assert str(info.value) == message


def test_config_rejects_loss_of_another_alphabet(two_state_chain):
    # a 3-symbol loss or training loss on a binary chain is rejected when
    # the config is built, before any diagnostics or draws
    ternary = LossSpec.misclassification(3)
    for losses in ({"loss": ternary}, {"train_loss": ternary}):
        with pytest.raises(DimensionMismatchError,
                           match="^loss table symbol count mismatch$"):
            _config(two_state_chain, **losses)


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
        refit = erm_fit(two_state_chain, order,
                        np.bincount(traj[:200], minlength=4), zero_one_loss)
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
            refit = erm_fit(two_state_chain, order,
                            np.bincount(traj[:60], minlength=4),
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


@pytest.fixture
def pool_sizes(monkeypatch):
    # (max_workers, jobs mapped) of every pool asked for, and in
    # pool_sizes.chunks the number of chunks run, in a pool or not; the fake
    # maps in this process and starts none, so no width asked for here forks
    # anything
    class Sizes(list):
        chunks = 0

    sizes = Sizes()
    rows = harness._replication_rows

    def counted_rows(job):
        sizes.chunks += 1
        return rows(job)

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            sizes.append((self.max_workers, len(jobs)))
            return map(fn, jobs)

    monkeypatch.setattr(harness, "_replication_rows", counted_rows)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def _pool_run(chain, threads):
    return run_replications(ExperimentConfig(
        chain=chain, orders=(0, 1), loss=LossSpec.misclassification(2),
        n=40, m=30, replications=100, epsilon_grid=(0.2,), master_seed=3,
        threads=threads))


def test_pool_has_no_more_workers_than_jobs(two_state_chain, pool_sizes,
                                            monkeypatch):
    # a fork start forks every worker at the first submit, so a pool wider
    # than its jobs would fork idle processes; with more CPUs than
    # replications, the R = 100 replications cap the workers, and each
    # worker gets 4 chunks up to one replication per chunk
    monkeypatch.setattr(os, "cpu_count", lambda: 1000)
    serial = _pool_run(two_state_chain, 1)
    assert pool_sizes == [] and pool_sizes.chunks == 4
    # smallest first: should the fake go unused, a real pool of 2 runs and
    # the check fails before a wide one is asked for
    for threads, workers, jobs in ((2, 2, 8), (25, 25, 100),
                                   (300, 100, 100)):
        pooled = _pool_run(two_state_chain, threads)
        assert pool_sizes.pop() == (workers, jobs) and not pool_sizes
        for name in ("empirical", "exact", "k_hat", "k_tilde"):
            assert (getattr(pooled, name) == getattr(serial, name)).all()


@pytest.mark.parametrize("cpus, threads, workers", [
    (3, 2, 2), (3, 1_000_000, 3), (None, 1_000_000, 1), (2, 1000, 2),
    (1, 4, 1)])
def test_pool_has_no_more_workers_than_cpus(two_state_chain, pool_sizes,
                                            monkeypatch, cpus, threads,
                                            workers):
    # the chunks follow the workers opened, 4 each, not the threads asked
    # for: threads = 10^6 on 3 CPUs maps 12 jobs, not 100 of one
    # replication each.  One worker, as on one CPU or where os.cpu_count()
    # is None (unknown), runs its 4 chunks in this process with no pool
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    pooled = _pool_run(two_state_chain, threads)
    assert pool_sizes == ([(workers, 4 * workers)] if workers > 1 else [])
    assert pool_sizes.chunks == 4 * workers
    serial = _pool_run(two_state_chain, 1)
    for name in ("empirical", "exact", "k_hat", "k_tilde"):
        assert (getattr(pooled, name) == getattr(serial, name)).all()


def test_package_import_leaves_the_pool_unimported():
    # only a run with threads > 1 needs concurrent.futures, which pulls in
    # multiprocessing; the CLI's start-up and serial runs skip it
    code = ("import sys, markov_holdout.cli; "
            "print(sorted(m for m in ('concurrent.futures', "
            "'multiprocessing') if m in sys.modules))")
    src = str(Path(harness.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def _rows_match_public_calls(config, loss_matrix, x_last, chunks):
    """Run the worker on each chunk and check its rows, bit for bit,
    against per-replication erm_fit, state_losses, holdout_select and
    oracle_select calls; return the oracle's learning counts.  With no
    burn-in (gap_b = 0) the worker returns no gapped rows."""
    chain, n, m, b = config.chain, config.n, config.m, config.gap_b
    k_hat, k_tilde, emp, gap, exact = (
        None if col[0] is None else np.concatenate(col) for col in zip(*(
            _replication_rows((config, loss_matrix, x_last, chunk))
            for chunk in chunks)))
    assert (gap is None) == (b == 0)
    learned = []
    for i, r in enumerate(np.concatenate(chunks).tolist()):
        seed = SeedSpec(config.master_seed, r)
        if loss_matrix is None:
            states = sample_stationary_trajectory(chain, n, m, seed)
            counts = np.bincount(states[:n], minlength=chain.n_states)
            fits = [erm_fit(chain, q, counts, config.effective_train_loss)
                    for q in config.orders]
            losses = np.stack([state_losses(g, chain, config.loss)
                               for g in fits])
            seg = states[n:]
            learned.append(counts)
        else:
            losses = loss_matrix
            seg = sample_conditional_continuation(chain, x_last, m, seed)
        index, full = holdout_select(
            losses, np.bincount(seg, minlength=chain.n_states))
        assert k_hat[i] == index
        assert emp[i].tolist() == full.tolist()
        if b > 0:
            _, gapped = holdout_select(
                losses, np.bincount(seg[b:], minlength=chain.n_states))
            assert gap[i].tolist() == gapped.tolist()
        best, risks = oracle_select(losses, chain.stationary)
        assert k_tilde[i] == best
        assert exact[i].tolist() == risks.tolist()
    return k_hat, k_tilde, learned


# both modes with a burn-in of 7 states, and with none (gap_b = 0), the
# layout of the conditional workloads and of configs/verify_two_state.json,
# where the burn-in gets no block of counts
MODES_AND_BURN_IN = [
    pytest.param(mode, gap_b, id=mode + ("" if gap_b else "-no-burn-in"))
    for gap_b in (7, 0) for mode in ("conditional", "marginal")]


@pytest.mark.parametrize("zero_one", [True, False])
@pytest.mark.parametrize("mode, gap_b", MODES_AND_BURN_IN)
def test_replication_rows_count_each_segment_once(two_state_chain, mode,
                                                  zero_one, gap_b):
    # the worker counts each replication's states once, in one block per
    # segment with states, and fits and selects for the whole chunk at
    # once; its rows equal, bit for bit, the public per-replication calls,
    # for 0/1 loss tables and for random tables in [0, 1].  At gap_b = 0
    # the burn-in has no block and the validation block is the last
    rng = np.random.default_rng(1501)

    def table(shape):
        t = rng.random(shape)
        return np.round(t) if zero_one else t

    chain = two_state_chain
    config = _config(chain, mode=mode, n=60, m=80, gap_b=gap_b,
                     loss=LossSpec(table((2, 2))))
    loss_matrix, x_last = (None, None) if mode == "marginal" else \
        (table((2, chain.n_states)), 2)
    _rows_match_public_calls(config, loss_matrix, x_last,
                             [np.arange(1, 41)])


@pytest.mark.parametrize("mode", ["conditional", "marginal"])
def test_replication_rows_match_public_calls_in_edge_cases(two_state_chain,
                                                           mode):
    chain = two_state_chain
    frozen = (None, None) if mode == "marginal" else \
        (np.array([[0.0, 1.0, 1.0, 0.0], [0.5, 0.5, 0.0, 1.0]]), 1)
    # n = 2 learning states leave a context unseen in some replications, so
    # the fallback to the most frequent target runs inside the batch
    config = _config(chain, mode=mode, n=2, m=50, gap_b=3)
    learned = _rows_match_public_calls(config, *frozen, [np.arange(1, 61)])[2]
    if mode == "marginal":
        per_context = np.array(learned).reshape(-1, 2, 2).sum(axis=1)
        assert (per_context == 0).any()
    # chunks of 14, 14 and 13 replications give the rows one chunk gives
    config = _config(chain, mode=mode, n=60, m=80, gap_b=7,
                     loss=LossSpec(np.array([[0.0, 0.7], [0.9, 0.2]])))
    _rows_match_public_calls(config, *frozen,
                             np.array_split(np.arange(1, 42), 3))
    # a zero training loss makes every marginal fit predict 0 at both
    # orders, and conditional mode freezes two equal rows, so the batched
    # candidates tie and the lowest index must win
    config = _config(chain, mode=mode, orders=(1, 0), n=60, m=80, gap_b=7,
                     train_loss=LossSpec(np.zeros((2, 2))))
    tied = (None, None) if mode == "marginal" else \
        (np.tile([[0.0, 1.0, 1.0, 0.0]], (2, 1)), 1)
    k_hat, k_tilde, _ = _rows_match_public_calls(config, *tied,
                                                 [np.arange(1, 41)])
    assert (k_hat == 0).all() and (k_tilde == 0).all()


@pytest.mark.parametrize("position", [0, -1, "row-end"])
@pytest.mark.parametrize("mode, gap_b", MODES_AND_BURN_IN)
def test_replication_rows_reject_states_outside_range(two_state_chain,
                                                      monkeypatch, mode,
                                                      position, gap_b):
    # a state S would count in the next segment's block, in the next row's
    # first block (at the end of a row that shares its draw with the next),
    # or past the last block; the chunk's segment totals catch all three
    chain = two_state_chain
    name = ("sample_stationary_trajectory" if mode == "marginal"
            else "sample_conditional_continuation")
    draw = getattr(harness, name)
    row = 140 if mode == "marginal" else 80

    def corrupt(*args):
        states = draw(*args)
        assert len(states) == 4 * row
        states[row - 1 if position == "row-end" else position] = (
            chain.n_states)
        return states

    monkeypatch.setattr(harness, name, corrupt)
    config = _config(chain, mode=mode, n=60, m=80, gap_b=gap_b)
    loss_matrix, x_last = (None, None) if mode == "marginal" else \
        (np.ones((2, chain.n_states)), 2)
    with pytest.raises(NumericalFailureError, match="outside"):
        _replication_rows((config, loss_matrix, x_last, np.arange(1, 5)))


def test_replication_chunk_at_s1024_pages_in_one_count_block():
    # verify-cond-s1024 (S = 1024, m = 2000, gap_b = 0) runs chunks of 250
    # replications.  Its one validation segment needs one (250, 1024) int64
    # block of counts, 2 MiB, which the risks cast once to float64.  A block
    # for the empty burn-in and the sum of the two blocks would add 4 MiB
    # (8.0 MiB traced), paged in again for every chunk
    with open(WORKLOADS / "verify-cond-s1024.json") as fh:
        config = experiment_from_dict({**json.load(fh), "seed": 20260825})
    chain = config.chain
    learn = sample_stationary_trajectory(
        chain, config.n, 0, SeedSpec(config.master_seed, 0))
    counts = np.bincount(learn, minlength=chain.n_states)
    loss_matrix = np.stack([
        state_losses(erm_fit(chain, q, counts, config.loss), chain,
                     config.loss) for q in config.orders])
    assert loss_matrix.shape == (4, 1024) and config.gap_b == 0
    tracemalloc.start()
    try:
        _replication_rows((config, loss_matrix, int(learn[-1]),
                           np.arange(1, 251)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20


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
    full, gap = np.array([[holdout_select(losses, np.bincount(
                               seg[burn:], minlength=2))[1][0]
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


def _with_grid(run, grid):
    return replace(run, config=replace(run.config, epsilon_grid=grid))


def test_tail_probability_counts(small_run):
    run = _with_grid(small_run, (0.1, 0.2, 0.4))
    estimates = tail_probability(run, "abs_dev[g1]")
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
        tail_probability(_with_grid(small_run, (0.1,)), "no_such_event")


@pytest.fixture(scope="module")
def negative_control_run(two_state_chain):
    # every bound scaled by 1e-9: informative and below any tail estimate
    return run_replications(ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=200, m=150, replications=120,
        epsilon_grid=(0.1, 0.3), master_seed=5, bound_scale=1e-9))


@pytest.mark.parametrize("run_name", ["small_run", "negative_control_run"])
def test_verify_bounds_joins_tail_probability_cells(request, run_name):
    run = request.getfixturevalue(run_name)
    report = verify_bounds(run)
    joined = [est for event_id in event_table(run)
              for est in tail_probability(run, event_id)]
    assert list(report.estimates) == joined
    assert (report.violations + report.vacuous + report.dominated
            == len(report.estimates))
    verdicts = [e.verdict for e in report.estimates]
    assert report.violations == verdicts.count("VIOLATION")
    assert report.vacuous == verdicts.count("vacuous-bound")
    assert report.passed == (report.violations == 0)


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


def test_verify_bounds_flags_forced_violations(negative_control_run):
    report = verify_bounds(negative_control_run)
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
    # the refusal names the check by its CHECKS label
    from markov_holdout import oracle_gap_check
    for kind, label in (("hoeffding", "oracle hoeffding"),
                        ("expectation_hoeffding", "expectation hoeffding")):
        with pytest.raises(RangeError) as info:
            oracle_gap_check(small_run, kind)
        assert str(info.value) == (f"{label} check needs >= 1000 "
                                   "replications, got 120")


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


def test_oracle_right_sides_equal_their_positional_calls(order2_chain):
    # each right side is bound by name from one mapping; it must equal the
    # form called with its arguments in order, bit for bit.  No candidate
    # here is as good as the Bayes predictor of this order-2 chain, so the
    # best risk differs from the Bayes risk and a swap of the two shows
    from markov_holdout import oracle_gap_check
    run = run_replications(ExperimentConfig(
        chain=order2_chain, orders=(0,),
        loss=LossSpec.misclassification(2), n=300, m=200, replications=1000,
        epsilon_grid=(0.2,), noise=MammenTsybakovNoise(1.0, 0.2),
        master_seed=13))
    cfg, t_mix, gamma_ps = run.config, run.mixing.t_mix, run.spectral.gamma_ps
    risk_best = float(run.exact_tilde.mean())
    assert risk_best > run.bayes_risk
    expected = {
        "hoeffding": bnd.oracle_gap_hoeffding(cfg.n_candidates, cfg.m, t_mix),
        "bernstein": bnd.oracle_gap_bernstein(
            cfg.n_candidates, cfg.m, cfg.a, t_mix, gamma_ps, risk_best),
        "noise": bnd.nc_oracle_rhs(
            cfg.n_candidates, cfg.m, cfg.theta, gamma_ps, t_mix, run.tau_star,
            risk_best - run.bayes_risk),
    }
    for kind, rhs in expected.items():
        assert oracle_gap_check(run, kind).rhs == rhs, kind
    printed = bnd.oracle_excess_bernstein(cfg.n_candidates, cfg.m, cfg.a,
                                          t_mix, gamma_ps, risk_best,
                                          run.bayes_risk)
    assert (oracle_gap_check(run, "bernstein").details["excess_rhs_as_printed"]
            == printed)


@pytest.mark.parametrize("setting, kind, message", [
    ("theta", "noise", "oracle noise right side failed to evaluate: "
                       "float division by zero"),
    ("a", "bernstein", "oracle bernstein right side is inf"),
])
def test_oracle_gap_check_rejects_a_right_side_that_overflows(
        oracle_run, setting, kind, message):
    # a = 5e-324 and theta = 5e-324 lie in (0, 1), but the oracle right
    # sides divide by them
    from markov_holdout import oracle_gap_check
    run = replace(oracle_run,
                  config=replace(oracle_run.config, **{setting: 5e-324}))
    with pytest.raises(NumericalFailureError) as info:
        oracle_gap_check(run, kind)
    assert str(info.value) == message


def test_oracle_right_side_that_is_nan_names_its_kind(oracle_run,
                                                     monkeypatch):
    # no in-domain input reaches this line; a stand-in form does
    key, label, statistic, _, details = harness.CHECKS["noise"]
    monkeypatch.setitem(harness.CHECKS, "noise", (
        key, label, statistic, lambda m: float("nan"), details))
    with pytest.raises(NumericalFailureError) as info:
        harness.oracle_gap_check(oracle_run, "noise")
    assert str(info.value) == "oracle noise right side evaluated to NaN"


def test_oracle_gap_check_unknown_kind(oracle_run):
    from markov_holdout import oracle_gap_check
    with pytest.raises(UnknownEventError) as info:
        oracle_gap_check(oracle_run, "chernoff")
    assert str(info.value) == (
        "unknown check kind 'chernoff'; known kinds: hoeffding, bernstein, "
        "noise, expectation_hoeffding")


def test_oracle_gap_check_noise_needs_model(two_state_chain):
    from markov_holdout import oracle_gap_check
    config = ExperimentConfig(
        chain=two_state_chain, orders=(0, 1),
        loss=LossSpec.misclassification(2), n=300, m=200, replications=1000,
        epsilon_grid=(0.2,), master_seed=13)
    run = run_replications(config)
    with pytest.raises(RangeError) as info:
        oracle_gap_check(run, "noise")
    assert str(info.value) == "oracle noise check needs a noise model"


@pytest.mark.parametrize("change, kinds", [
    ({"replications": 999}, ()),
    ({"run_oracle_checks": False}, ()),
    ({"noise": None}, ("hoeffding", "bernstein", "expectation_hoeffding")),
    ({}, ("hoeffding", "bernstein", "noise", "expectation_hoeffding")),
], ids=["below-floor", "turned-off", "no-noise-model", "all"])
def test_planned_checks(oracle_run, change, kinds):
    # oracle_run has R = 1000, the floor, and a noise model
    config = replace(oracle_run.config, **change)
    assert harness.planned_checks(config) == kinds


def test_expectation_check_averages_the_largest_candidate_deviation(
        oracle_run):
    rep = harness.oracle_gap_check(oracle_run, "expectation_hoeffding")
    stats = np.abs(oracle_run.empirical - oracle_run.exact).max(axis=1)
    assert rep.mean_gap == stats.mean()
    assert rep.std_error == stats.std(ddof=1) / np.sqrt(1000)
    cfg = oracle_run.config
    assert rep.rhs == bnd.expectation_bound_hoeffding(
        cfg.n_candidates, cfg.m, oracle_run.mixing.t_mix)
    assert rep.details["statistic"] == "max_k |empirical_k - exact_k|"
    assert rep.passed


@pytest.fixture(scope="module")
def cond_s16_run():
    with open(WORKLOADS / "verify-cond-s16.json") as fh:
        cfg = json.load(fh)
    return run_replications(experiment_from_dict({**cfg, "seed": 20260825}))


@pytest.mark.parametrize("divisor, passed", [(1, True), (10, True),
                                             (20, False)])
def test_expectation_check_fails_a_bound_shrunk_twentyfold(
        cond_s16_run, monkeypatch, divisor, passed):
    # mean + 3 SE is 0.01113 against a bound of 0.1611: the bound over 20,
    # 0.00806, fails; over 10, 0.0161, still passes, so a tenfold error in
    # the form's constant would go unseen at R = 1000
    key, label, statistic, form, details = harness.CHECKS[
        "expectation_hoeffding"]
    monkeypatch.setitem(harness.CHECKS, "expectation_hoeffding", (
        key, label, statistic,
        lambda n_candidates, m, t_mix: form(n_candidates, m, t_mix) / divisor,
        details))
    rep = harness.oracle_gap_check(cond_s16_run, "expectation_hoeffding")
    assert rep.mean_gap + 3 * rep.std_error == pytest.approx(0.01113,
                                                             abs=1e-5)
    assert rep.rhs == pytest.approx(0.1611 / divisor, rel=1e-3)
    assert rep.passed is passed


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


def test_coupling_check_fails_under_a_too_fast_profile(zero_one_loss):
    # negative control: a slow chain judged against a profile that claims
    # t_mix = 1 breaks the certificate once 2 * 2^-b falls below the true
    # deviation, so the check must fail
    chain = markovize(HigherOrderChainSpec.from_kernel(
        [[0.97, 0.03], [0.03, 0.97]]), 1)
    assert mixing_time(chain).t_mix == 13
    g = PredictorTable(order=0, symbols=2, table=np.array([0]))
    fast = MixingProfile(d_values=np.array([0.5, 0.0]), t_mix=1)
    report = coupling_check(chain, g, zero_one_loss, b_max=8, profile=fast)
    assert report.t_mix == 1
    assert report.passed is False
    assert any(lhs > rhs + 1e-12 for _, lhs, rhs in report.entries)
    assert coupling_check(chain, g, zero_one_loss, b_max=8).passed


def test_coupling_check_iid_deviation_is_zero(iid_chain, zero_one_loss):
    g = bayes_predictor(iid_chain, zero_one_loss)
    report = coupling_check(iid_chain, g, zero_one_loss, b_max=5)
    assert report.passed
    for _, lhs, _ in report.entries:
        assert lhs < 1e-14


def test_coupling_check_worst_start_is_exact(two_state_chain, order2_spec,
                                             zero_one_loss):
    # class rows against the dense matrix power of conditional_risk, on
    # chains embedded at p = k, at p = k + 1 and on three symbols
    from markov_holdout import conditional_risk
    three = HigherOrderChainSpec.from_kernel(
        np.random.default_rng(3).dirichlet(np.ones(3), size=3))
    for chain, loss in [(two_state_chain, zero_one_loss),
                        (markovize(order2_spec, 3), zero_one_loss),
                        (markovize(three, 2), LossSpec.misclassification(3))]:
        g = bayes_predictor(chain, loss)
        stationary = exact_risk(g, chain, loss)
        report = coupling_check(chain, g, loss, b_max=6)
        assert len(report.entries) == 7
        for b, lhs, _ in report.entries:
            manual = max(abs(conditional_risk(g, chain, x, b, loss)
                             - stationary) for x in range(chain.n_states))
            assert lhs == pytest.approx(manual, abs=1e-15)


def test_verify_path_never_builds_the_dense_kernel(order2_spec,
                                                   zero_one_loss):
    chain = markovize(order2_spec, 3)
    run_replications(_config(chain, orders=(0, 1, 3)))
    coupling_check(chain, bayes_predictor(chain, zero_one_loss),
                   zero_one_loss)
    assert "kernel" not in vars(chain)
    # so a pool job ships the conditional table and Q, not an S x S matrix
    with open(WORKLOADS / "verify-cond-s1024.json") as fh:
        config = experiment_from_dict(json.load(fh))
    assert config.chain.n_states == 1024
    assert len(pickle.dumps(config)) < 100_000


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
    # the binary rule is margin's own
    with pytest.raises(BinaryOnlyError,
                       match="^margin is defined for binary chains only$"):
        noise_condition_check(chain, 1)


def test_noise_condition_check_rejects_zero_margin(iid_chain):
    with pytest.raises(ZeroMarginError):
        noise_condition_check(iid_chain, 1)


def test_noise_condition_check_order_limit(order2_chain):
    with pytest.raises(RangeError):
        noise_condition_check(order2_chain, 3)


# ---------------------------------------------------------------------------
# guards across the library: each rejects its input with its own message


@pytest.mark.parametrize("call, error, message", [
    (lambda chain: margin(3), RangeError,
     "cannot take the margin of <class 'int'>"),
    (lambda chain: MixingProfile(np.array([0.5, 0.1]), 0), RangeError,
     "mixing time must be >= 1"),
    (lambda chain: pseudo_spectral_gap(TransitionKernel([[1.0]])),
     DimensionMismatchError, "need at least 2 states for a spectral gap"),
    (lambda chain: wilson_upper(0, 0), RangeError,
     "need at least one trial"),
    (lambda chain: coupling_check(chain, bayes_predictor(
        chain, LossSpec.misclassification(2)),
        LossSpec.misclassification(2), -1), RangeError,
     "b_max must be >= 0"),
    (lambda chain: PredictorTable(order=-1, symbols=2, table=[0]),
     RangeError, "memory order must be >= 0"),
    (lambda chain: PredictorTable(order=0, symbols=1, table=[0]),
     RangeError, "need at least 2 symbols"),
    (lambda chain: PredictorTable(order=0, symbols=3, table=[0]).predictions(
        chain), DimensionMismatchError, "symbol count mismatch"),
    (lambda chain: state_losses(PredictorTable(order=0, symbols=2, table=[0]),
                                chain, LossSpec.misclassification(3)),
     DimensionMismatchError, "loss table symbol count mismatch"),
    (lambda chain: conditional_risk(
        PredictorTable(order=0, symbols=2, table=[0]), chain, 4, 0,
        LossSpec.misclassification(2)), RangeError, "state 4 outside [0, 4)"),
    (lambda chain: conditional_risk(
        PredictorTable(order=0, symbols=2, table=[0]), chain, 0, -1,
        LossSpec.misclassification(2)), RangeError, "horizon must be >= 0"),
    (lambda chain: sample_stationary_trajectory(chain, 5, -1, SeedSpec(0, 0)),
     RangeError, "validation length must be >= 0"),
    # lengths past what numpy can index, rejected before any allocation
    (lambda chain: sample_stationary_trajectory(chain, 2 ** 62, 0,
                                                SeedSpec(0, 0)),
     RangeError,
     "1 rows of n + m = 4611686018427387904 states do not fit in one int64 "
     "array"),
    (lambda chain: sample_stationary_trajectory(
        chain, 2 ** 59, 2 ** 59, [SeedSpec(0, 0), SeedSpec(0, 1)]),
     RangeError,
     "2 rows of n + m = 1152921504606846976 states do not fit in one int64 "
     "array"),
    (lambda chain: sample_conditional_continuation(chain, 0, 2 ** 62,
                                                   SeedSpec(0, 0)),
     RangeError,
     "1 rows of m = 4611686018427387904 states do not fit in one int64 "
     "array"),
    (lambda chain: experiment_from_dict([]), ConfigError,
     "config must be a JSON object"),
], ids=["margin-of-an-int", "mixing-profile-t_mix-0", "gap-of-one-state",
        "wilson-no-trials", "coupling-negative-b_max",
        "predictor-negative-order", "predictor-one-symbol",
        "predictions-symbol-mismatch", "state-losses-symbol-mismatch",
        "conditional-risk-state", "conditional-risk-horizon",
        "trajectory-negative-m", "trajectory-too-long",
        "trajectory-rows-too-long", "continuation-too-long",
        "experiment-from-a-list"])
def test_guard_rejects_with_its_message(two_state_chain, call, error,
                                        message):
    with pytest.raises(error) as info:
        call(two_state_chain)
    assert str(info.value) == message


def test_experiment_rejects_a_length_no_array_can_hold(two_state_chain):
    with pytest.raises(RangeError) as info:
        ExperimentConfig(chain=two_state_chain, orders=(0, 1),
                         loss=LossSpec.misclassification(2), n=2 ** 62, m=8,
                         replications=100, epsilon_grid=(0.1,))
    assert str(info.value) == ("n + m = 4611686018427387912 states do not "
                               "fit in one int64 array")
