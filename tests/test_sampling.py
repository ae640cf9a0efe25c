"""Trajectory sampling: seeding, determinism, and distributional checks.

The distributional tests run fixed seeds and compare empirical frequencies
against exact laws with 3-standard-error (or chi-square) tolerances, so they
are deterministic once the seed is frozen.
"""

import gc
import sys
import threading
import weakref
from bisect import bisect_right

import numpy as np
import pytest
from scipy import stats

from markov_holdout import (
    EmptySegmentError,
    HigherOrderChainSpec,
    RangeError,
    SeedSpec,
    markovize,
    sample_conditional_continuation,
    sample_stationary_trajectory,
    sampling,
)


# ---------------------------------------------------------------------------
# seeds and arguments


def test_seed_spec_validates_range():
    SeedSpec(0, 0)
    SeedSpec(2 ** 64 - 1, 2 ** 64 - 1)
    with pytest.raises(RangeError):
        SeedSpec(-1, 0)
    with pytest.raises(RangeError):
        SeedSpec(0, 2 ** 64)
    # numpy would truncate these keys to seed 1's stream
    for bad in (1.5, True, 1.0, np.float64(1.0), np.True_):
        with pytest.raises(RangeError):
            SeedSpec(bad)
        with pytest.raises(RangeError):
            SeedSpec(0, bad)
    # numpy integers and keys past 2^63 are integers too
    for v in (np.int64(3), np.uint64(2 ** 64 - 1), 2 ** 63):
        assert SeedSpec(v, v).key.tolist() == [int(v), int(v)]


def test_sample_rejects_empty_segments(two_state_chain):
    with pytest.raises(RangeError):
        sample_stationary_trajectory(two_state_chain, 0, 5, SeedSpec(1))
    with pytest.raises(EmptySegmentError):
        sample_conditional_continuation(two_state_chain, 0, 0, SeedSpec(1))


def test_continuation_rejects_bad_start_state(two_state_chain):
    with pytest.raises(RangeError):
        sample_conditional_continuation(two_state_chain, 4, 3, SeedSpec(1))


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_reproduces_trajectory(two_state_chain):
    a = sample_stationary_trajectory(two_state_chain, 50, 50, SeedSpec(99, 3))
    b = sample_stationary_trajectory(two_state_chain, 50, 50, SeedSpec(99, 3))
    assert (a == b).all()


def test_replication_index_changes_stream(two_state_chain):
    a = sample_stationary_trajectory(two_state_chain, 200, 0, SeedSpec(99, 1))
    b = sample_stationary_trajectory(two_state_chain, 200, 0, SeedSpec(99, 2))
    assert (a != b).any()


def test_master_seed_changes_stream(two_state_chain):
    a = sample_stationary_trajectory(two_state_chain, 200, 0, SeedSpec(1, 0))
    b = sample_stationary_trajectory(two_state_chain, 200, 0, SeedSpec(2, 0))
    assert (a != b).any()


def test_continuation_matches_its_own_replay(two_state_chain):
    a = sample_conditional_continuation(two_state_chain, 3, 40, SeedSpec(7, 5))
    b = sample_conditional_continuation(two_state_chain, 3, 40, SeedSpec(7, 5))
    assert (a == b).all()
    assert len(a) == 40


# ---------------------------------------------------------------------------
# structural correctness


def test_transitions_respect_structural_zeros(two_state_chain):
    # composite steps must satisfy next = y * S^p + x // S; all other
    # transitions have zero mass and must never be drawn
    traj = sample_stationary_trajectory(two_state_chain, 50_000, 0, SeedSpec(5))
    x = traj[:-1]
    nxt = traj[1:]
    assert ((nxt == x // 2) | (nxt == x // 2 + 2)).all()


def test_largest_uniform_never_selects_zero_mass(monkeypatch):
    # row 0 of this conditional sums to 1 - 4e-13, within the row-sum
    # tolerance; a uniform in [1 - 4e-13, 1) must still land on a state
    # the kernel can reach, not on the zero-mass last column
    spec = HigherOrderChainSpec.from_kernel([[0.6, 0.4 - 4e-13],
                                             [0.3, 0.7]])
    chain = markovize(spec, 1)
    top = np.nextafter(1.0, 0.0)

    class LargestUniform:
        def random(self, size=None, out=None):
            if out is None:
                return np.full(size, top)
            out[:] = top
            return out

    monkeypatch.setattr(sampling, "_streams",
                        lambda seeds: (LargestUniform() for _ in seeds))
    matrix = chain.kernel.matrix
    for start in range(chain.n_states):
        states = sample_conditional_continuation(chain, start, 4, SeedSpec(0))
        path = [start, *states.tolist()]
        assert all(matrix[x, z] > 0.0 for x, z in zip(path, path[1:]))


def _clamped_cumsum(law):
    c = np.cumsum(law)
    c[c.searchsorted(c[-1]):] = 1.0
    return c.tolist()


def _dense_reference_walk(rows, state, uniforms):
    # reference sampler: bisect on the clamped cumulative sums of each dense
    # kernel row (rows = _dense_rows(chain)), the S x S form the walks on
    # base-conditional tables must reproduce
    path = []
    for u in uniforms:
        state = bisect_right(rows[state], u)
        path.append(state)
    return path


def _dense_rows(chain):
    return [_clamped_cumsum(row) for row in chain.kernel.matrix]


def _reference_row(chain, seed, length, start=None):
    # the dense-row reference walk on the first `length` uniforms of seed's
    # own generator: from start, or from X_1 ~ Q when start is None
    u = seed.generator().random(length).tolist()
    rows = _dense_rows(chain)
    if start is None:
        start = bisect_right(_clamped_cumsum(chain.stationary), u.pop(0))
        return [start, *_dense_reference_walk(rows, start, u)]
    return _dense_reference_walk(rows, start, u)


def _reference_chains():
    # (chain, grid): a grid g rounds the chain's uniforms down to multiples
    # of 1/g
    rng = np.random.default_rng(20260825)
    chains = []
    for s in (2, 3):
        for k in (1, 2):
            for p in (k, k + 1):
                cond = rng.dirichlet(np.ones(s), size=s ** k)
                chains.append(markovize(HigherOrderChainSpec(s, k, cond), p))
    zero = rng.dirichlet(np.ones(3), size=3)
    zero[1] = [0.5, 0.5, 0.0]
    chains.append(markovize(HigherOrderChainSpec(3, 1, zero), 2,
                            require_primitive=False))
    short = rng.dirichlet(np.ones(3), size=9)
    short[2] = [0.6, 0.4 - 4e-13, 0.0]
    chains.append(markovize(HigherOrderChainSpec(3, 2, short), 2,
                            require_primitive=False))
    # binary chains with 16 and 32 contexts, either side of _MAX_CONTEXTS
    for k, p in ((4, 4), (4, 5), (5, 5)):
        cond = rng.dirichlet(np.ones(2), size=2 ** k)
        chains.append(markovize(HigherOrderChainSpec(2, k, cond), p))
    pairs = [(chain, None) for chain in chains]
    # dyadic rows on a grid of quarters: uniforms equal to cumulative entries
    # must draw the next symbol up, as bisect_right does
    dyadic = HigherOrderChainSpec(2, 1, [[0.5, 0.5], [0.25, 0.75]])
    pairs.append((markovize(dyadic, 2), 4))
    # three cumulative entries in the guide cell that starts at 0.5, so a
    # uniform above them in that cell needs more than one correction pass
    crowded = [[0.5, 1e-12, 0.5 - 1e-12], [0.5 + 2e-12, 0.25, 0.25 - 2e-12],
               [0.2, 0.3, 0.5]]
    pairs.append((markovize(HigherOrderChainSpec(3, 1, crowded), 2), None))
    return pairs


def _lengths(walk, blocks):
    # lengths around a gram, around a chunk, around the walk's block, and one
    # that spans `blocks` blocks; the bisect walk steps one state at a time
    gram = getattr(walk, "gram", 1)
    chunk, size = sampling._CHUNK * gram, walk.size
    return sorted({1, gram - 1, gram, gram + 1, chunk - 1, chunk, chunk + 1,
                   size - 1, size, size + 1, blocks * size + chunk + 3} - {0})


def _gram_cells(chain, gram):
    # a _GRAM_CELLS that gives the chunked walk of `chain` grams of `gram`
    # steps: B^g * s^k is at most the cap for g = gram and above it after
    if gram == 1:
        return 1
    walk = sampling._ChunkedWalk(chain)
    return max(walk.buckets, 2) ** gram * walk.contexts


@pytest.mark.parametrize(
    "top_every, gram",
    [(None, None), (3, None), (None, 1), (3, 1), (None, 2), (3, 2)],
    ids=["None", "3", "None-g1", "3-g1", "None-g2", "3-g2"])
def test_sampler_matches_dense_row_reference(monkeypatch, top_every, gram):
    # both entry points of both walks against the dense-row reference on the
    # same uniforms; with top_every set, every third uniform of the stream is
    # the largest double below 1, which reaches the clamped end of each
    # table.  The injection wraps each row's generator from the stream seam
    # and counts positions in that row's stream, not in one draw, so the
    # walks may draw blocks of any length.  With gram set, the chunked walk
    # alone runs, with grams of that many steps; by default its grams are as
    # long as _GRAM_CELLS allows.
    real = sampling._streams

    class Injected:
        grid = None

        def __init__(self, gen):
            self.gen = gen
            self.drawn = 0

        def random(self, size=None, out=None):
            u = self.gen.random(size, out=out)
            flat = u.reshape(-1)
            if Injected.grid is not None:
                flat[:] = np.floor(flat * Injected.grid) / Injected.grid
            if top_every is not None:
                top = np.nextafter(1.0, 0.0)
                flat[-self.drawn % top_every::top_every] = top
            self.drawn += len(flat)
            return u

    monkeypatch.setattr(sampling, "_streams",
                        lambda seeds: map(Injected, real(seeds)))

    def uniforms(seed, length):
        return Injected(seed.generator()).random(length).tolist()

    walks = ((2 ** 64, sampling._ChunkedWalk), (0, sampling._BisectWalk))
    if gram is not None:
        walks = walks[:1]

    def check_both_walks(blocks):
        for max_contexts, kind in walks:
            with monkeypatch.context() as patch:
                patch.setattr(sampling, "_MAX_CONTEXTS", max_contexts)
                for c, (chain, grid) in enumerate(_reference_chains()):
                    if gram is not None:
                        patch.setattr(sampling, "_GRAM_CELLS",
                                      _gram_cells(chain, gram))
                    walk = kind(chain)
                    assert gram is None or walk.gram == gram
                    Injected.grid = grid
                    _check_against_reference(chain, c, _lengths(walk, blocks),
                                             uniforms)

    check_both_walks(2)
    # blocks of a few states: a long draw spans many blocks of both walks
    monkeypatch.setattr(sampling, "_CELLS", 3 * sampling._CHUNK)
    check_both_walks(20)


def _check_against_reference(chain, c, lengths, uniforms):
    # uniforms(seed, length): the first `length` uniforms of seed's stream
    rows = _dense_rows(chain)
    for length in lengths:
        seed = SeedSpec(41, c)
        u = uniforms(seed, length)
        traj = sample_stationary_trajectory(chain, 1, length - 1, seed)
        first = bisect_right(_clamped_cumsum(chain.stationary), u[0])
        expected = [first, *_dense_reference_walk(rows, first, u[1:])]
        assert traj.tolist() == expected
    # every start for lengths up to p + 1, where the first states still
    # carry the start's digits, and a few starts for the long lengths
    short = range(1, chain.embedding_order + 2)
    for start in range(chain.n_states):
        few = start in (0, 1, chain.n_states // 2, chain.n_states - 1)
        for m in sorted({*short, *(lengths if few else [40])}):
            seed = SeedSpec(43 + c, start)
            states = sample_conditional_continuation(chain, start, m, seed)
            assert states.tolist() == _dense_reference_walk(
                rows, start, uniforms(seed, m))


@pytest.mark.parametrize("cells", [None, 3 * sampling._CHUNK],
                         ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("max_contexts", [2 ** 64, 0],
                         ids=["chunked", "bisect"])
def test_rows_do_not_depend_on_grouping(monkeypatch, max_contexts, cells):
    # row i of a call with many seeds is the draw of seed i alone, and the
    # dense-row reference walk on the uniforms of seed i's own generator,
    # whichever seeds share the call or a pass of the walk.  The lengths
    # cover a row that still carries the start's digits (up to p + 1), a
    # chunk boundary, three rows to a block and a row longer than a block
    monkeypatch.setattr(sampling, "_MAX_CONTEXTS", max_contexts)
    if cells is not None:
        monkeypatch.setattr(sampling, "_CELLS", cells)
    chain = _fresh_chain()
    walk = sampling._chain_walk(chain)
    kind = sampling._BisectWalk if max_contexts == 0 else sampling._ChunkedWalk
    assert type(walk) is kind
    p = chain.embedding_order
    chunk = sampling._CHUNK * getattr(walk, "gram", 1)
    start = chain.n_states - 3
    seeds = [SeedSpec(71, r) for r in range(9)]
    for length in sorted({1, 2, p, p + 1, chunk, chunk + 1, walk.size // 3,
                          walk.size + 1}):
        continued = [_reference_row(chain, seed, length, start)
                     for seed in seeds]
        stationary = [_reference_row(chain, seed, length) for seed in seeds]
        for size in (1, 7, len(seeds)):
            groups = [seeds[i] if size == 1 else seeds[i:i + size]
                      for i in range(0, len(seeds), size)]
            drawn = [sample_conditional_continuation(chain, start, length, g)
                     for g in groups]
            assert np.concatenate(drawn).reshape(
                len(seeds), length).tolist() == continued
            drawn = [sample_stationary_trajectory(chain, 1, length - 1, g)
                     for g in groups]
            assert np.concatenate(drawn).reshape(
                len(seeds), length).tolist() == stationary


def test_samplers_take_sequences_of_seeds(two_state_chain):
    seeds = (SeedSpec(3, 1), SeedSpec(3, 2))
    states = sample_conditional_continuation(two_state_chain, 1, 5, seeds)
    assert states.dtype == np.int64 and states.shape == (10,)
    assert sample_stationary_trajectory(two_state_chain, 2, 3, []).shape == (0,)
    with pytest.raises(TypeError):
        sample_conditional_continuation(two_state_chain, 1, 5, [SeedSpec(3), 4])


def test_deterministic_cycle_base_symbols():
    # base symbols rotate 0 -> 1 -> 2 -> 0 deterministically
    conditional = np.array([[0.0, 1.0, 0.0],
                            [0.0, 0.0, 1.0],
                            [1.0, 0.0, 0.0]])
    spec = HigherOrderChainSpec(3, 1, conditional)
    chain = markovize(spec, 1, require_primitive=False)
    start = chain.encode((0, 2))
    states = sample_conditional_continuation(chain, start, 9, SeedSpec(0))
    symbols = [chain.decode(x)[0] for x in states]
    assert symbols == [1, 2, 0, 1, 2, 0, 1, 2, 0]


def test_continuation_first_step_uses_start_row(two_state_chain):
    # from composite (1, 1) the next symbol is 1 with probability 0.8
    start = two_state_chain.encode((1, 1))
    hits = 0
    reps = 4000
    for r in range(reps):
        step = sample_conditional_continuation(two_state_chain, start, 1,
                                               SeedSpec(123, r))
        hits += two_state_chain.decode(step[0])[0]
    se = np.sqrt(0.8 * 0.2 / reps)
    assert abs(hits / reps - 0.8) < 3 * se


# ---------------------------------------------------------------------------
# the per-chain walk cache


def _fresh_chain():
    # a chain no other test has drawn from, so no walk of it is cached yet
    return markovize(HigherOrderChainSpec(2, 2, [[0.9, 0.1], [0.7, 0.3],
                                                 [0.4, 0.6], [0.2, 0.8]]), 3)


def _count_builds(monkeypatch):
    # the walks _walk builds from here on, in order
    built = []
    for name in ("_ChunkedWalk", "_BisectWalk"):
        def build(chain, kind=getattr(sampling, name)):
            built.append(kind(chain))
            return built[-1]
        monkeypatch.setattr(sampling, name, build)
    return built


def test_walk_is_built_once_per_chain(monkeypatch):
    built = _count_builds(monkeypatch)
    chain = _fresh_chain()
    for r in range(4):
        sample_conditional_continuation(chain, 3, 50, SeedSpec(1, r))
        sample_stationary_trajectory(chain, 20, 30, SeedSpec(2, r))
    assert len(built) == 1


def test_walk_cache_drops_collected_chains():
    gc.collect()
    cached = len(sampling._WALKS)
    chain = _fresh_chain()
    sample_conditional_continuation(chain, 3, 50, SeedSpec(1))
    assert chain in sampling._WALKS
    assert len(sampling._WALKS) == cached + 1
    # neither the cache nor the walk keeps the chain alive
    alive = weakref.ref(chain)
    del chain
    gc.collect()
    assert alive() is None
    assert len(sampling._WALKS) <= cached


# ---------------------------------------------------------------------------
# the kept stream of each thread


@pytest.mark.parametrize("max_contexts", [2 ** 64, 0],
                         ids=["chunked", "bisect"])
def test_no_philox_is_built_after_a_threads_first_draw(monkeypatch,
                                                       max_contexts):
    # every stream re-keys the thread's kept generator: single- and
    # multi-seed calls of both samplers, rows shorter and longer than a block
    monkeypatch.setattr(sampling, "_MAX_CONTEXTS", max_contexts)
    monkeypatch.setattr(sampling, "_CELLS", 3 * sampling._CHUNK)
    chain = _fresh_chain()
    sample_conditional_continuation(chain, 3, 5, SeedSpec(9))
    built = []
    real = np.random.Philox

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    seeds = [SeedSpec(9, r) for r in range(1, 6)]
    for m in (5, sampling._chain_walk(chain).size + 1):
        for seed in (seeds[0], seeds):
            sample_conditional_continuation(chain, 3, m, seed)
            sample_stationary_trajectory(chain, 1, m, seed)
    assert built == []
    # the count sees a build
    SeedSpec(9).generator()
    assert len(built) == 1


def test_threads_draw_their_own_streams(monkeypatch):
    # four threads, more than a small machine's cores, draw interleaved
    # seeds of one chain under a short switch interval.  Each row must be
    # the serial single-seed draw: a generator shared between threads would
    # be re-keyed by one thread while another draws from it
    monkeypatch.setattr(sampling, "_CELLS", 3 * sampling._CHUNK)
    chain = _fresh_chain()
    lengths = (3, 2 * sampling._chain_walk(chain).size + 1)
    seeds = [SeedSpec(17, r) for r in range(48)]
    expected = {(seed, m): sample_conditional_continuation(
        chain, 3, m, seed).tolist() for seed in seeds for m in lengths}
    drawn = {}
    workers = 4
    barrier = threading.Barrier(workers, timeout=60)

    def draw(first):
        barrier.wait()
        for seed in seeds[first::workers]:
            for m in lengths:
                drawn[seed, m] = sample_conditional_continuation(
                    chain, 3, m, seed).tolist()

    threads = [threading.Thread(target=draw, args=(t,))
               for t in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert drawn == expected


def test_rows_do_not_depend_on_earlier_draws():
    # draws of 1, 5 and 10 001 uniforms leave the kept Philox part way
    # through its four-word buffer, at a counter past 0; each later seed's
    # row must still be its own generator's reference
    chain = _fresh_chain()
    for r, length in enumerate((1, 5, 10001, 1, 5)):
        seed = SeedSpec(23, r)
        assert sample_conditional_continuation(
            chain, 3, length, seed).tolist() == _reference_row(
                chain, seed, length, 3)
        seed = SeedSpec(29, r)
        assert sample_stationary_trajectory(
            chain, 1, length - 1, seed).tolist() == _reference_row(
                chain, seed, length)


# ---------------------------------------------------------------------------
# distributional checks (fixed seeds, 3-SE style tolerances)


def test_stationary_symbol_frequencies_iid(iid_chain):
    # targets of an i.i.d. fair-coin chain are i.i.d. Bernoulli(1/2)
    traj = sample_stationary_trajectory(iid_chain, 1_000_000, 0, SeedSpec(17))
    freq = (traj // 2).mean()
    assert abs(freq - 0.5) < 3 * np.sqrt(0.25 / 1_000_000)


def test_stationary_state_frequencies_two_state(two_state_chain):
    traj = sample_stationary_trajectory(two_state_chain, 1_000_000, 0,
                                        SeedSpec(29))
    counts = np.bincount(traj, minlength=4) / len(traj)
    # correlated samples: allow 0.005 absolute (roughly 3.5 effective SE)
    assert counts == pytest.approx(two_state_chain.stationary, abs=0.005)


def test_transition_frequencies_chi_square(two_state_chain):
    traj = sample_stationary_trajectory(two_state_chain, 100_000, 0,
                                        SeedSpec(31))
    x, nxt = traj[:-1], traj[1:]
    observed = np.zeros((4, 4))
    np.add.at(observed, (x, nxt), 1.0)
    matrix = two_state_chain.kernel.matrix
    visits = observed.sum(axis=1, keepdims=True)
    expected = visits * matrix
    # zero-mass cells must stay exactly empty
    assert (observed[matrix == 0.0] == 0).all()
    mask = expected > 0
    statistic = ((observed[mask] - expected[mask]) ** 2 / expected[mask]).sum()
    dof = int(mask.sum()) - 4  # one constraint per row
    p_value = stats.chi2.sf(statistic, dof)
    assert p_value > 1e-4


def test_conditional_law_matches_kernel_powers(two_state_chain):
    # law of the b-th continuation step from x equals row x of K^(b+1)
    reps = 200_000
    start = two_state_chain.encode((0, 0))
    horizon = 3
    # replication r's states are row r, as one call per seed would give them
    states = sample_conditional_continuation(
        two_state_chain, start, horizon,
        [SeedSpec(863, r) for r in range(reps)]).reshape(reps, horizon)
    counts = np.stack([np.bincount(col, minlength=4) for col in states.T])
    matrix = two_state_chain.kernel.matrix
    for b in range(horizon):
        law = np.linalg.matrix_power(matrix, b + 1)[start]
        freq = counts[b] / reps
        se = np.sqrt(np.maximum(law * (1 - law), 1e-12) / reps)
        assert (np.abs(freq - law) < 3 * se + 1e-9).all()


def test_first_state_of_stationary_trajectory_has_stationary_law(two_state_chain):
    reps = 100_000
    # the first state of each replication, one Philox stream each
    firsts = sample_stationary_trajectory(
        two_state_chain, 1, 0, [SeedSpec(977, r) for r in range(reps)])
    counts = np.bincount(firsts, minlength=4)
    freq = counts / reps
    law = two_state_chain.stationary
    se = np.sqrt(law * (1 - law) / reps)
    assert (np.abs(freq - law) < 3 * se + 1e-9).all()
