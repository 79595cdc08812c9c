"""Counter-based random number streams.

Reproducibility contract (bit-exact, cross-platform, documented in the
README): a stream is identified by (master_seed, stream_id), both 64-bit.

    base   = mix64(master_seed XOR (GOLDEN * stream_id mod 2^64))
    raw(i) = mix64((base + GOLDEN * (i + 1)) mod 2^64)          i = 0, 1, ...
    u53(i) = (raw(i) >> 11) * 2^-53                             in [0, 1)
    bernoulli(p, i) = u53(i) < p

Blocks of Bernoulli draws (below) compare the raw words with an integer
threshold instead: u53(i) < p iff raw(i) < ceil(p * 2^53) * 2^11, both
sides exact, so the bits are those of the float comparison.

mix64 is the SplitMix64 finalizer; mix64_array is the same arithmetic on
a uint64 array, shared by a stream's raw_block and raw_at, which draws a
(stream, index) grid at once for any array of draw indices; raw_grid is
its contiguous case.  Each draw depends on its (seed, stream, index)
alone, so a caller may draw any subset of a stream's indices and get
the bits those indices have in the whole stream.  Distinct
(master_seed, stream_id) pairs give streams that are independent for
testing purposes; identical pairs reproduce identical bit sequences. Trials of a Monte Carlo run own
stream_ids 0..trials-1 so they parallelize without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX1) & MASK64
    x ^= x >> 27
    x = (x * _MIX2) & MASK64
    x ^= x >> 31
    return x


# uint64 array arithmetic wraps mod 2^64 (numpy checks overflow only on
# scalars), which is the arithmetic of mix64 and the stream formulas.  The
# constants are 0-d arrays rather than numpy scalars: an operation between
# arrays skips the scalar conversion, which dominates on a short row
_U = np.uint64
_A_GOLDEN, _A_MIX1, _A_MIX2, _A30, _A27, _A31 = (
    np.array(c, dtype=np.uint64) for c in (GOLDEN, _MIX1, _MIX2, 30, 27, 31))


def mix64_array(x: np.ndarray) -> np.ndarray:
    """mix64 of every element of a uint64 array, in place; returns x."""
    x ^= x >> _A30
    x *= _A_MIX1
    x ^= x >> _A27
    x *= _A_MIX2
    x ^= x >> _A31
    return x


def _draws(bases: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """raw(i) for every draw index i of idx, a uint64 array, of the streams
    with the given bases, one row per base (a 0-d bases array gives one
    flat row): base + GOLDEN * (i + 1) is (base + GOLDEN) + GOLDEN * i."""
    return mix64_array((bases + _A_GOLDEN)[..., None] + idx * _A_GOLDEN)


def raw_at(master_seed: int, t0: int, t1: int, idx: np.ndarray, step: int = 1) -> np.ndarray:
    """raw(i) for every draw index i of idx (nonnegative integers) of
    streams t0, t0 + step, ... below t1, one row per stream and one column
    per index; entry (k, j) is RngStream(master_seed, t0 + k * step).raw(idx[j])."""
    streams = _U(t0 & MASK64) + np.arange(0, t1 - t0, step, dtype=np.uint64)
    bases = mix64_array(_U(master_seed & MASK64) ^ streams * _A_GOLDEN)
    return _draws(bases, np.asarray(idx, dtype=np.uint64))


def raw_grid(master_seed: int, t0: int, t1: int, start: int, count: int,
             step: int = 1) -> np.ndarray:
    """raw(start..start+count-1) of streams t0, t0 + step, ... below t1, one
    row per stream, raw_at's contiguous case; row k is bit-identical to
    RngStream(master_seed, t0 + k * step).raw_block."""
    return raw_at(master_seed, t0, t1, np.arange(start, start + count, dtype=np.uint64), step)


def uniforms(raw: np.ndarray) -> np.ndarray:
    """u53 of an array of raw words."""
    return (raw >> _U(11)).astype(np.float64) * _INV53


def below(raw: np.ndarray, p: float) -> np.ndarray:
    """uniforms(raw) < p, bit for bit, without converting to floats.

    p * 2^53 is exact, so the integer u53 lies below it iff it lies below
    its ceiling c, iff raw < c << 11.  For p < 1, c <= 2^53 - 1 and the
    threshold is at most 2^64 - 2048; p >= 1 holds for every draw, and
    p <= 0 (or nan) for none."""
    if p >= 1.0:
        return np.ones(raw.shape, dtype=bool)
    if not p > 0.0:
        return np.zeros(raw.shape, dtype=bool)
    return raw < _U(math.ceil(p * 2.0 ** 53) << 11)


@dataclass(frozen=True)
class RngStream:
    """Stateless counter-based stream; all draws are pure in (seed, id, i)."""

    master_seed: int
    stream_id: int = 0

    @cached_property
    def base(self) -> int:
        return mix64(self.master_seed ^ ((GOLDEN * self.stream_id) & MASK64))

    def raw(self, i: int) -> int:
        """The i-th 64-bit word of the stream."""
        return mix64((self.base + GOLDEN * (i + 1)) & MASK64)

    def uniform(self, i: int) -> float:
        """The i-th uniform draw in [0, 1), using 53 bits."""
        return (self.raw(i) >> 11) * _INV53

    def bernoulli(self, p: float, i: int) -> bool:
        return self.uniform(i) < p

    def raw_block(self, start: int, count: int) -> np.ndarray:
        """Vectorized raw(start..start+count-1); bit-identical to raw()."""
        return _draws(np.array(self.base, dtype=np.uint64),
                      np.arange(start, start + count, dtype=np.uint64))

    def uniform_block(self, start: int, count: int) -> np.ndarray:
        return uniforms(self.raw_block(start, count))

    # -- convenience draws used by samplers ---------------------------------

    def randint_below(self, n: int, i: int) -> int:
        """Uniform integer in [0, n) from draw i (multiply-shift, n < 2^53)."""
        return int(self.uniform(i) * n)

    def choose_subset(self, items, size: int, i0: int = 0):
        """Deterministic partial Fisher-Yates sample of `size` items; draw j
        is uniform(i0 + j)."""
        pool = list(items)
        if size > len(pool):
            raise ValueError("sample larger than population")
        return shuffled_prefix(pool, self.uniform_block(i0, size).tolist())


def shuffled_prefix(pool, draws):
    """The first len(draws) items of a partial Fisher-Yates shuffle of pool,
    a list or a memoryview (in place, the prefix of pool's type): uniform
    draw j swaps item j with item j + int(u * (n - j)), the product of
    randint_below."""
    n = len(pool)
    for j, u in enumerate(draws):
        k = j + int(u * (n - j))
        pool[j], pool[k] = pool[k], pool[j]
    return pool[:len(draws)]
