"""Seeded trajectory simulation on markovized chains.

Streams are drawn with a counter-based generator (Philox) keyed by
(master_seed, replication_index), so replication r is reproducible in
isolation and independent of how many other replications ran before it.
A step appends a symbol y, x -> y * S^p + x // S, drawn by inverse CDF from
per-call cumulative tables, one per row of ``chain.base.conditional`` and
set to 1.0 from the entry where the row reaches its total, so zero mass is
never drawn.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .chains import MarkovizedChain
from .errors import DimensionMismatchError, EmptySegmentError, RangeError

_UINT64_CEIL = 2 ** 64


@dataclass(frozen=True)
class SeedSpec:
    """Key (master_seed, replication_index) for one reproducible stream."""

    master_seed: int
    replication_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "replication_index"):
            v = getattr(self, name)
            if not 0 <= v < _UINT64_CEIL:
                raise RangeError(f"{name} must lie in [0, 2**64), got {v}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.replication_index],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Trajectory:
    """A sampled composite-state path split into learning and validation parts."""

    states: np.ndarray
    n_learning: int
    m_validation: int

    def __post_init__(self):
        if len(self.states) != self.n_learning + self.m_validation:
            raise DimensionMismatchError(
                f"{len(self.states)} states != {self.n_learning} + "
                f"{self.m_validation}")

    @property
    def learning(self) -> np.ndarray:
        return self.states[:self.n_learning]

    @property
    def validation(self) -> np.ndarray:
        return self.states[self.n_learning:]


def _cumulative(law: np.ndarray) -> list[float]:
    # cumulative sums set to 1.0 from the first entry at the final total (a
    # positive-mass entry) on, so a law summing to just under 1 cannot send
    # u < 1 to a trailing zero-mass state
    c = np.cumsum(law)
    c[c.searchsorted(c[-1]):] = 1.0
    return c.tolist()


def _walk(chain, state: int, uniforms, out: np.ndarray, offset: int) -> None:
    # the context x // S^(p+1-k) is constant over runs of S^(p+1-k) states,
    # so rows[x] is its table; bisect on small python lists beats numpy here
    s, p, k = chain.base.symbols, chain.embedding_order, chain.base.order
    tables = [_cumulative(row) for row in chain.base.conditional]
    rows = [t for t in tables for _ in range(s ** (p + 1 - k))]
    high = s ** p
    for i, u in enumerate(uniforms):
        state = bisect_right(rows[state], u) * high + state // s
        out[offset + i] = state


def sample_stationary_trajectory(chain: MarkovizedChain, n: int, m: int,
                                 seed: SeedSpec) -> Trajectory:
    """Draw X_1 ~ Q and n + m - 1 transitions; first n states are learning."""
    if n < 1:
        raise RangeError("need n >= 1 learning states")
    if m < 0:
        raise RangeError("validation length must be >= 0")
    gen = seed.generator()
    uniforms = gen.random(n + m).tolist()
    states = np.empty(n + m, dtype=np.int64)
    first = bisect_right(_cumulative(chain.stationary), uniforms[0])
    states[0] = first
    _walk(chain, first, uniforms[1:], states, 1)
    return Trajectory(states=states, n_learning=n, m_validation=m)


def sample_conditional_continuation(chain: MarkovizedChain, x_last: int,
                                    m: int, seed: SeedSpec) -> np.ndarray:
    """Draw m further states of the chain started from X_n = x_last.

    Returns the new states only (x_last excluded); the first entry is
    distributed as row x_last of the kernel.
    """
    if not 0 <= x_last < chain.n_states:
        raise RangeError(f"state {x_last} outside [0, {chain.n_states})")
    if m < 1:
        raise EmptySegmentError("continuation needs m >= 1 states")
    gen = seed.generator()
    uniforms = gen.random(m).tolist()
    states = np.empty(m, dtype=np.int64)
    _walk(chain, x_last, uniforms, states, 0)
    return states
