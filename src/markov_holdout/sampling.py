"""Seeded trajectory simulation on markovized chains.

Streams are drawn with a counter-based generator (Philox) keyed by
(master_seed, replication_index), so replication r is reproducible in
isolation and independent of how many other replications ran before it.
Transitions use inverse-CDF lookups on per-row cumulative tables set to 1.0
from the entry where the row reaches its total, so zero mass is never drawn.
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


def _walk(cum_rows, state: int, uniforms, out: np.ndarray, offset: int) -> None:
    # tight inner loop: bisect on small python lists beats numpy here
    for i, u in enumerate(uniforms):
        state = bisect_right(cum_rows[state], u)
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
    first = bisect_right(chain._cum_stationary, uniforms[0])
    states[0] = first
    _walk(chain._cum_rows, first, uniforms[1:], states, 1)
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
    _walk(chain._cum_rows, x_last, uniforms, states, 0)
    return states
