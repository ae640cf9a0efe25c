"""Seeded trajectory simulation on markovized chains.

Streams are drawn with a counter-based generator (Philox) keyed by
(master_seed, replication_index), so replication r is reproducible in
isolation and independent of how many other replications ran before it.
A step appends a symbol y, x -> y * S^p + x // S.  y is drawn by inverse
CDF: it is the number of entries <= u (what ``bisect_right`` returns) of the
cumulative row of ``chain.base.conditional`` for the context
x // S^(p+1-k), set to 1.0 from the entry where the row reaches its total,
so zero mass is never drawn.

:func:`_walk` fills one row per seed, a (rows, w) block at a time, and
draws each block's uniforms from the rows' streams as it goes.  Philox draws
of consecutive sizes give the doubles of one draw of the whole length, so
the block size never changes a state.  Rows of at most half a block share a
pass of the walk, as many as fit; a longer row walks alone, block by block,
so a walk holds its states plus O(_CELLS + _STEPS) more.  Each thread keeps
one Philox and re-keys it to each row's seed (:func:`_streams`), setting
its whole state, so which rows share a call or a pass, and what the thread
drew before, never changes a row either.
Each chain's walk is built at its first draw and kept in a weak-keyed cache
until the chain is collected, under the module constants of that draw: a
test that patches a walk constant must draw from a chain built after the
patch.  Two walks give the same states from the same uniforms:

- the chunked walk (:class:`_ChunkedWalk`) composes the one-step context
  maps into tables over grams of g steps, finds each uniform's bucket with
  a guide table, follows all s^k contexts of every chunk of grams of all
  rows of a block at once, one numpy ``take`` per gram, and rebuilds the
  states from the drawn symbols;
- the bisect walk (:class:`_BisectWalk`) draws one state per Python step.
  It runs for chains with more than _MAX_CONTEXTS contexts: the chunked
  walk's cost per step grows with s^k and the bisect walk's does not, and
  the constant is their measured crossover.
"""

from __future__ import annotations

import numbers
import threading
import weakref
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .chains import MarkovizedChain
from .errors import EmptySegmentError, RangeError

_UINT64_CEIL = 2 ** 64
# grams per chunk of the chunked walk
_CHUNK = 32
# (gram, context) cells and steps per block of the chunked walk, at most: a
# block's work arrays then stay small enough to be reused from the heap
# rather than paged in anew.  The bisect walk's cost per state does not
# depend on s^k, so its blocks hold _CELLS states
_CELLS = 12288
_STEPS = 2 ** 14
# chains with more contexts s^k than this walk by bisect (measured crossover)
_MAX_CONTEXTS = 16
# bound on the (gram, context) rows B^g * s^k of the chunked walk's tables
_GRAM_CELLS = 2 ** 14
# cells of [0, 1) in the chunked walk's guide table, a power of two
_GUIDE = 4096
# most states one int64 array holds: numpy indexes at most intp-max bytes,
# so a longer length is rejected rather than failing to allocate
_MAX_STATES = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize
# each chain's walk, built at its first draw and dropped with the chain
_WALKS = weakref.WeakKeyDictionary()
# each thread's kept generator and its fresh state, built at its first draw
_KEPT = threading.local()


@dataclass(frozen=True)
class SeedSpec:
    """Key (master_seed, replication_index) for one reproducible stream."""

    master_seed: int
    replication_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "replication_index"):
            v = getattr(self, name)
            # numpy casts a float or a bool key to an integer one, so 1.5
            # and True would draw seed 1's stream
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise RangeError(f"{name} must be an integer, got {v!r}")
            if not 0 <= v < _UINT64_CEIL:
                raise RangeError(f"{name} must lie in [0, 2**64), got {v}")

    @property
    def key(self) -> np.ndarray:
        """The Philox key of this stream."""
        return np.array([self.master_seed, self.replication_index],
                        dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key))


def _seed_list(seed) -> list[SeedSpec]:
    # one SeedSpec or a sequence of them, as a list
    seeds = [seed] if isinstance(seed, SeedSpec) else list(seed)
    if not all(isinstance(s, SeedSpec) for s in seeds):
        raise TypeError("seeds must be SeedSpec instances")
    return seeds


def _streams(seeds):
    """Yield the generator of each seed's stream in turn.

    Every row draws its uniforms through here.  Each thread keeps one
    Philox generator, so concurrent callers never share a stream, and sets
    its state for every seed to a new Philox's, counter 0 and buffer empty,
    with the seed's key: the stream :meth:`SeedSpec.generator` builds,
    without the OS entropy a new Philox draws and the key throws away.
    The whole state is set, so nothing carries over from an earlier seed
    or call.  A generator is valid until the thread's next one is yielded.
    """
    kept = getattr(_KEPT, "generator", None)
    if kept is None:
        kept = _KEPT.generator = np.random.Generator(np.random.Philox())
        _KEPT.fresh = kept.bit_generator.state
    fresh = _KEPT.fresh
    for seed in seeds:
        fresh["state"]["key"] = seed.key
        kept.bit_generator.state = fresh
        yield kept


def _cumulative(law: np.ndarray) -> np.ndarray:
    # cumulative sums along the last axis, set to 1.0 from the first entry at
    # the final total (a positive-mass entry) on, so a law summing to just
    # under 1 cannot send u < 1 to a trailing zero-mass state; the sums of a
    # nonnegative law never decrease, so those are the entries >= the total
    c = np.cumsum(law, axis=-1)
    c[c >= c[..., -1:]] = 1.0
    return c


def _chain_walk(chain):
    # the chain's cached walk, built at its first draw under the module
    # constants of then: a test that patches a walk constant must draw from
    # a chain built after the patch
    walk = _WALKS.get(chain)
    if walk is None:
        many = chain.base.symbols ** chain.base.order > _MAX_CONTEXTS
        walk = _WALKS[chain] = (_BisectWalk if many else _ChunkedWalk)(chain)
    return walk


def rows_per_block(chain: MarkovizedChain, length: int) -> int:
    """How many rows of `length` states one block of the chain's walk holds.

    At least one: a longer row walks alone, block by block.
    """
    return max(1, _chain_walk(chain).size // length)


def _walk(chain, seeds: list[SeedSpec], x_last: int | None,
          out: np.ndarray) -> None:
    # fill row i of out with states drawn from the stream of seeds[i], one
    # per uniform.  Every uniform walks one step on from x_last; with x_last
    # None a row's first uniform draws X_1 ~ Q and the rest walk on from it
    walk = _chain_walk(chain)
    first = x_last is None
    if first:
        law = _cumulative(chain.stationary)
    streams = _streams(seeds)
    per = max(1, walk.size // out.shape[1])
    for lo in range(0, len(out), per):
        rows = out[lo:lo + per]
        # each row's uniforms, or the first block of a longer row's
        u = np.empty((len(rows), min(out.shape[1], walk.size + first)))
        for row in u:
            gen = next(streams)
            gen.random(out=row)
        if first:
            starts = law.searchsorted(u[:, 0], side="right")
            rows[:, 0] = starts
            u, rows = u[:, 1:], rows[:, 1:]
        else:
            starts = np.full(len(rows), x_last)
        for start in range(0, rows.shape[1], walk.size):
            part = rows[:, start:start + walk.size]
            if start:
                # a lone row, so gen is still keyed to its seed
                u = gen.random(part.shape)
            starts = walk.block(u, starts, part)


class _BisectWalk:
    """The walk of one chain, one bisect of a cumulative table per state.

    The context x // S^(p+1-k) is constant over runs of S^(p+1-k) states,
    so rows[x] is its table.
    """

    def __init__(self, chain):
        s, p, k = chain.base.symbols, chain.embedding_order, chain.base.order
        tables = _cumulative(chain.base.conditional).tolist()
        self.rows = [t for t in tables for _ in range(s ** (p + 1 - k))]
        self.symbols, self.high = s, s ** p
        self.size = _CELLS

    def block(self, u: np.ndarray, starts: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        """Write the states after starts[i], one per uniform of u[i], into
        out[i]; return each row's last state."""
        rows, s, high = self.rows, self.symbols, self.high
        last = []
        for uniforms, state, dest in zip(u.tolist(), starts.tolist(), out):
            path = []
            for v in uniforms:
                state = bisect_right(rows[state], v) * high + state // s
                path.append(state)
            dest[:] = path
            last.append(state)
        return np.array(last)


class _ChunkedWalk:
    """The walk of one chain, computed a block of uniforms at a time.

    The next-symbol law reads only the context c = x // S^(p+1-k), and the
    context moves by c -> y * S^(k-1) + c // S.  The symbol y drawn from c
    is the number of entries <= u of c's clamped cumulative row (what
    bisect_right returns), so it changes only where u crosses an entry of
    some row.  Bucket b holds the u with exactly b of the distinct entries
    < 1 of all rows (the edges) <= u, so each of the B buckets has one
    context map.  A uniform's bucket starts at the count of edges <= the
    lower end of its cell among _GUIDE cells of [0, 1), and moves up one
    edge per pass, as many passes as the most edges one cell holds.

    A gram is g consecutive buckets, g the largest with B^g * s^k <=
    _GRAM_CELLS: moves[G, c] is the context after gram G from c and
    symbol_rows[G * s^k + c] the g symbols it draws, one byte each.  A
    block is cut into chunks of at most _CHUNK grams; one walker per
    (chunk, start context) follows that chunk's gram maps with one take per
    gram, the chunks are chained from the known start context, and the
    states are rebuilt from the drawn symbols.
    """

    def __init__(self, chain):
        s, k = chain.base.symbols, chain.base.order
        self.symbols, self.embedding_order = s, chain.embedding_order
        self.contexts = contexts = s ** k
        self.context_unit = s ** (chain.embedding_order + 1 - k)
        cum = _cumulative(chain.base.conditional)
        # u < 1 never reaches an entry >= 1.0
        edges = np.array(sorted(set(cum[cum < 1.0].tolist())))
        self.buckets = buckets = len(edges) + 1
        # u's cell is floor(u * _GUIDE), exact for a power of two; at most
        # `passes` edges lie above a cell's lower end and below u, and the
        # padded last edge is never <= u
        lower = np.arange(_GUIDE) / _GUIDE
        self.guide = np.searchsorted(edges, lower, side="right")
        ahead = np.searchsorted(edges, lower + 1.0 / _GUIDE) - self.guide
        self.passes = int(ahead.max())
        # the symbol bucket b draws from context c is the count of c's
        # entries <= the bucket's lower edge: edges[b - 1], or -1.0 for b = 0
        floors = np.append(-1.0, edges)
        drawn = (cum <= floors[:, None, None]).sum(axis=2)
        self.edges = np.append(edges, 2.0)
        context = np.arange(contexts)
        step = (drawn * s ** (k - 1) + context // s).reshape(-1)
        drawn = drawn.astype(np.min_scalar_type(s - 1)).reshape(-1)
        # a single bucket (every row a point mass) still composes grams
        g = 1
        while max(buckets, 2) ** (g + 1) * contexts <= _GRAM_CELLS:
            g += 1
        self.gram = g
        # digit i of gram G, most significant first, is the bucket of its
        # step i; `after` holds the context after each prefix of i digits
        symbol_rows = np.empty((buckets ** g, contexts, g), dtype=drawn.dtype)
        after = context[None, :]
        for i in range(g):
            at = after[:, None, :] + (np.arange(buckets) * contexts)[:, None]
            rows = symbol_rows.reshape(buckets ** i, buckets, -1, contexts, g)
            rows[..., i] = drawn.take(at)[:, :, None, :]
            after = step.take(at).reshape(-1, contexts)
        self.moves = after
        self.symbol_rows = symbol_rows.reshape(-1, g)
        self.digit_weights = buckets ** np.arange(g - 1, -1, -1)
        self.digit_units = s ** np.arange(1, chain.embedding_order + 1)
        self.state_type = np.min_scalar_type(-chain.n_states)
        self.size = g * max(_CHUNK, min(_CELLS // contexts, _STEPS // g))

    def block(self, u: np.ndarray, starts: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        """Write the states after starts[i], one per uniform of u[i], into
        out[i]; return each row's last state."""
        s, p, contexts, g = (self.symbols, self.embedding_order,
                             self.contexts, self.gram)
        rows, w = u.shape
        grams = -(-w // g)
        chunks = -(-grams // _CHUNK)
        length = -(-grams // chunks)
        # the steps past w draw bucket 0; nothing reads their symbols, and
        # only a row's last chunk, whose end no later chunk starts from, has
        # them
        bucket = np.zeros((rows, chunks * length * g), dtype=np.intp)
        b = bucket[:, :w]
        # every index is in range; mode="clip" only spares the copy that
        # take makes of `out` under the default mode="raise"
        self.guide.take((u * _GUIDE).astype(np.intp), out=b, mode="clip")
        for _ in range(self.passes):
            b += u >= self.edges.take(b)
        gram = bucket.reshape(rows * chunks, length, g) @ self.digit_weights
        # slab i of maps holds gram i of every chunk of every row.  Walker
        # (j, c) has the value j * contexts + c, its own index into the
        # slab, so chunk j's maps are biased by j * contexts once taken
        here = np.arange(rows * chunks * contexts)
        maps = self.moves.take(gram.T, axis=0).reshape(length, -1)
        maps += here - here % contexts
        walkers = np.empty_like(maps)
        for table, after in zip(maps, walkers):
            here = table.take(here, out=after, mode="clip")
        ends = (here % contexts).tolist()
        # each row's chunks are chained from the row's start context
        firsts = []
        for i, start in enumerate((starts // self.context_unit).tolist()):
            firsts.append(start)
            for j in range(i * chunks, (i + 1) * chunks - 1):
                start = ends[j * contexts + start]
                firsts.append(start)
        # the context before each gram picks its row of symbols
        bias = np.arange(rows * chunks) * contexts
        before = np.empty((length, rows * chunks), dtype=np.intp)
        before[0] = firsts
        walkers[:-1].take(bias + firsts, axis=1, out=before[1:], mode="clip")
        before[1:] -= bias
        gram *= contexts
        gram += before.T
        symbols = self.symbol_rows.take(gram.reshape(-1), axis=0)
        # x_t = sum_j y_(t-j) S^(p-j), with the digits of the start for
        # t <= p; the sums are < S, so they are taken in the smallest type
        # that fits
        y = symbols.reshape(rows, -1)[:, :w].astype(self.state_type)
        x = y * s ** p
        for j in range(1, p + 1):
            x[:, j:] += y[:, :-j] * s ** (p - j)
        out[:] = x
        digits = min(p, w)
        out[:, :digits] += starts[:, None] // self.digit_units[:digits]
        return out[:, -1]


def sample_stationary_trajectory(chain: MarkovizedChain, n: int, m: int,
                                 seed: SeedSpec | Sequence[SeedSpec]
                                 ) -> np.ndarray:
    """Draw X_1 ~ Q and n + m - 1 transitions from each seed's stream.

    Returns the n + m states of each seed, back to back in the order of the
    seeds (one SeedSpec counts as a sequence of one); the first n of a row
    are its learning part and the last m its validation part.  A row is
    the same whichever seeds share the call.
    """
    if n < 1:
        raise RangeError("need n >= 1 learning states")
    if m < 0:
        raise RangeError("validation length must be >= 0")
    seeds = _seed_list(seed)
    if len(seeds) * (n + m) > _MAX_STATES:
        raise RangeError(f"{len(seeds)} rows of n + m = {n + m} states do "
                         "not fit in one int64 array")
    states = np.empty(len(seeds) * (n + m), dtype=np.int64)
    _walk(chain, seeds, None, states.reshape(len(seeds), n + m))
    return states


def sample_conditional_continuation(chain: MarkovizedChain, x_last: int,
                                    m: int,
                                    seed: SeedSpec | Sequence[SeedSpec]
                                    ) -> np.ndarray:
    """Draw m further states of the chain started from X_n = x_last.

    Returns the m new states of each seed (x_last excluded), back to back
    in the order of the seeds (one SeedSpec counts as a sequence of one);
    the first state of a row is distributed as row x_last of the kernel.
    A row is the same whichever seeds share the call.
    """
    if not 0 <= x_last < chain.n_states:
        raise RangeError(f"state {x_last} outside [0, {chain.n_states})")
    if m < 1:
        raise EmptySegmentError("continuation needs m >= 1 states")
    seeds = _seed_list(seed)
    if len(seeds) * m > _MAX_STATES:
        raise RangeError(f"{len(seeds)} rows of m = {m} states do not fit "
                         "in one int64 array")
    states = np.empty(len(seeds) * m, dtype=np.int64)
    _walk(chain, seeds, x_last, states.reshape(len(seeds), m))
    return states
