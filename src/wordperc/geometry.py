"""Finite regions of Z^d and the oriented macroscopic slab graph.

Conventions, fixed once for the whole library:

* Intervals are half-open ``(lo, hi]``; the integer points of an interval
  are ``lo+1 .. hi``.  Closed boxes like [-m, m]^d are stored as
  ``(-m-1, m]`` per axis, so box unions tile exactly.
* Point rank: the first coordinate varies fastest.  All bit-packed
  structures and all RNG consumption follow rank order.
* Neighbor order: plain lexicographic order of the neighbor points, which
  puts every minus-direction neighbor before every plus-direction one.
  Deterministic order makes searches and witnesses reproducible.

Macro vertices live in Z^3 regardless of the ambient dimension d; for
d > 3 the extra coordinates of their boxes are pinned to the (-k, k]
slab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .errors import DomainError

Point = tuple[int, ...]
MacroVertex = tuple[int, int, int]

_MAX_VOLUME = 1 << 62
# Axes a region may have, checked before any per-axis tuple or list is
# built; past 62 axes of two or more sites the volume exceeds _MAX_VOLUME.
MAX_DIM = 64


def check_dim(d: int):
    if not 1 <= d <= MAX_DIM:
        raise DomainError(f"dimension must lie in 1..{MAX_DIM}, not {d}")


@dataclass(frozen=True)
class Region:
    """Axis-aligned product of half-open integer intervals (lo, hi]."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        check_dim(len(self.intervals))
        vol = 1
        for lo, hi in self.intervals:
            if lo >= hi:
                raise DomainError(f"empty interval ({lo}, {hi}]")
            vol *= hi - lo
            if vol > _MAX_VOLUME:
                raise DomainError("region volume exceeds 64-bit count")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.intervals)

    @cached_property
    def volume(self) -> int:
        return math.prod(self.sizes)

    def contains(self, pt: Point) -> bool:
        if len(pt) != self.dim:
            return False
        return all(lo < x <= hi for x, (lo, hi) in zip(pt, self.intervals))

    def issubset(self, other: "Region") -> bool:
        return self.dim == other.dim and all(
            olo <= lo and hi <= ohi
            for (lo, hi), (olo, ohi) in zip(self.intervals, other.intervals)
        )

    def rank(self, pt: Point) -> int:
        """Index of pt in rank order (first coordinate fastest)."""
        if len(pt) != len(self.intervals):
            raise DomainError(f"point {pt} does not have {len(self.intervals)} coordinates")
        r = 0
        stride = 1
        for x, (lo, hi) in zip(pt, self.intervals):
            if not lo < x <= hi:
                raise DomainError(f"point {pt} outside region")
            r += (x - lo - 1) * stride
            stride *= hi - lo
        return r

    def unrank(self, r: int) -> Point:
        coords = []
        for lo, hi in self.intervals:
            size = hi - lo
            coords.append(lo + 1 + r % size)
            r //= size
        return tuple(coords)

    def iter_points(self) -> Iterator[Point]:
        """All points in rank order."""
        for r in range(self.volume):
            yield self.unrank(r)

    def points_array(self) -> np.ndarray:
        """(volume, dim) int array of points in rank order."""
        return _points_array(self.intervals)

    def intersect(self, other: "Region") -> "Region | None":
        if self.dim != other.dim:
            raise DomainError("dimension mismatch")
        ivs = []
        for (alo, ahi), (blo, bhi) in zip(self.intervals, other.intervals):
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo >= hi:
                return None
            ivs.append((lo, hi))
        return Region(tuple(ivs))

    def around(self, pt: Point, r: int) -> "Region":
        """The box of the points of the region within sup distance r >= 0
        of pt, one of its points."""
        self.rank(pt)  # DomainError off the region
        return Region(tuple((max(lo, x - r - 1), min(hi, x + r))
                            for x, (lo, hi) in zip(pt, self.intervals)))

    def min_point(self) -> Point:
        return tuple(lo + 1 for lo, _ in self.intervals)


@lru_cache(maxsize=256)
def _points_array(intervals) -> np.ndarray:
    region = Region(intervals)
    out = np.empty((region.volume, region.dim), dtype=np.int64)
    stride = 1
    for i, (lo, hi) in enumerate(intervals):
        size = hi - lo
        reps = region.volume // (size * stride)
        out[:, i] = np.tile(np.repeat(np.arange(lo + 1, hi + 1), stride), reps)
        stride *= size
    out.setflags(write=False)
    return out


def neighbor_ranks(intervals) -> np.ndarray:
    """(volume, 2d) array of neighbor ranks in lexicographic neighbor
    order; -1 where the neighbor leaves the region.  The reference for
    neighbor_steps, built from the points."""
    region = Region(intervals)
    d = region.dim
    sizes = region.sizes
    vol = region.volume
    out = np.full((vol, 2 * d), -1, dtype=np.int64)
    offsets = _points_array(intervals) - [lo + 1 for lo, _ in intervals]
    strides = np.ones(d, dtype=np.int64)
    for i in range(1, d):
        strides[i] = strides[i - 1] * sizes[i - 1]
    ranks = offsets @ strides
    # column order: minus directions by axis, then plus directions by
    # reversed axis == lexicographic order of the neighbor points
    col = 0
    for axis in range(d):
        ok = offsets[:, axis] > 0
        out[ok, col] = ranks[ok] - strides[axis]
        col += 1
    for axis in range(d - 1, -1, -1):
        ok = offsets[:, axis] < sizes[axis] - 1
        out[ok, col] = ranks[ok] + strides[axis]
        col += 1
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def neighbor_steps(sizes) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """neighbor_ranks as plain-int offsets, for scalar loops, where numpy
    element access is slow: the in-region neighbors of rank r are r + s
    for s in steps[kind[r]], in neighbor_ranks order.  kind[r] is the
    bitmask of r's in-region directions, from its coordinate r // stride
    % size on each axis longer than one site; each such axis at least
    doubles the volume, so a kind has at most 2 log2(volume) bits.  The
    table depends on the axis sizes alone, and is keyed on them."""
    axes, volume = [], 1
    for size in sizes:
        axes += [(volume, size)] * (size > 1)
        volume *= size
    # minus directions by axis, then plus directions by reversed axis
    offsets = [-stride for stride, _ in axes] + [stride for stride, _ in reversed(axes)]
    ranks = np.arange(volume)
    kind = np.zeros_like(ranks)
    for j, (stride, size) in enumerate(axes):
        x = ranks // stride % size
        kind |= (x > 0) << j | (x < size - 1) << len(offsets) - 1 - j
    kind = kind.tolist()
    steps = {c: tuple(o for j, o in enumerate(offsets) if c >> j & 1) for c in set(kind)}
    return kind, steps


def ranks_within(part: Region, region: Region) -> np.ndarray:
    """The ranks in region of the points of part, a box inside it, in
    part's own rank order, as a read-only array."""
    ranks = np.zeros(1, dtype=np.int64)
    stride = 1
    for (lo, hi), (rlo, rhi) in zip(part.intervals, region.intervals):
        axis = np.arange(lo - rlo, hi - rlo, dtype=np.int64) * stride
        ranks = (axis[:, None] + ranks).ravel()  # first coordinate fastest
        stride *= rhi - rlo
    ranks.setflags(write=False)
    return ranks


def neighbors(v: Point, region: Region) -> list[Point]:
    """Lattice neighbors of v inside region, lexicographically ordered."""
    if not region.contains(v):
        raise DomainError(f"{v} not in region")
    out = []
    for axis in range(region.dim):
        for step in (-1, 1):
            u = list(v)
            u[axis] += step
            u = tuple(u)
            if region.contains(u):
                out.append(u)
    return sorted(out)


def inner_boundary(lamb: Region, ambient: Region) -> set[Point]:
    """Points of lamb with a lattice neighbor in ambient minus lamb.

    Both arguments are interval products, so the boundary is exactly the
    union of the faces of lamb along which ambient extends further.
    """
    if not lamb.issubset(ambient):
        raise DomainError("lambda must be contained in the ambient region")
    pts = lamb.points_array()
    mask = np.zeros(lamb.volume, dtype=bool)
    for axis in range(lamb.dim):
        lo, hi = lamb.intervals[axis]
        alo, ahi = ambient.intervals[axis]
        if alo < lo:
            mask |= pts[:, axis] == lo + 1
        if ahi > hi:
            mask |= pts[:, axis] == hi
    return {tuple(p) for p in pts[mask]}


# -- standard regions --------------------------------------------------------


def box(m: int, d: int) -> Region:
    """Closed ball B_m(0) = [-m, m]^d in the sup norm."""
    check_dim(d)
    if m < 0:
        raise DomainError("box needs m >= 0")
    return Region(tuple((-m - 1, m) for _ in range(d)))


def lambda_box(n: int, h: int, k: int, d: int = 3) -> Region:
    """The slab box [-kn, kn]^2 x (0, hk] x (-k, k]^(d-3)."""
    if d < 3:
        raise DomainError("lambda_box needs d >= 3")
    check_dim(d)
    if n < 1 or h < 1 or k < 1:
        raise DomainError("lambda_box needs n, h, k >= 1")
    ivs = [(-k * n - 1, k * n), (-k * n - 1, k * n), (0, h * k)]
    ivs += [(-k, k)] * (d - 3)
    return Region(tuple(ivs))


def slab_window(h: int, k: int, d: int, half_width: int) -> Region:
    """Finite window of the slab Z^2 x (0, hk] x (-k, k]^(d-3).

    The slab is infinite in the first two coordinates; a window with
    half_width > kn is a faithful ambient for boundary queries on
    lambda_box(n, ...).
    """
    if d < 3:
        raise DomainError("slab_window needs d >= 3")
    check_dim(d)
    ivs = [(-half_width - 1, half_width), (-half_width - 1, half_width), (0, h * k)]
    ivs += [(-k, k)] * (d - 3)
    return Region(tuple(ivs))


# -- macroscopic slab graph --------------------------------------------------


def is_macro_vertex(v: MacroVertex, h: int) -> bool:
    """Membership in the macro vertex set for slab height h."""
    v1, v2, v3 = v
    return (
        0 < v3 < h
        and v1 % 2 == 0
        and (v1 // 2 + v2) % 2 == 0
        and (v1 // 2 + v3) % 2 == 0
    )


_MACRO_STEPS = ((2, -1, -1), (2, -1, 1), (2, 1, -1), (2, 1, 1))


def macro_out_neighbors(u: MacroVertex, h: int) -> list[MacroVertex]:
    """Oriented out-neighbors u + (2, +-1, +-1) that stay in the slab."""
    if not is_macro_vertex(u, h):
        raise DomainError(f"{u} is not a macro vertex for h={h}")
    out = []
    for step in _MACRO_STEPS:
        v = (u[0] + step[0], u[1] + step[1], u[2] + step[2])
        if 0 < v[2] < h:
            out.append(v)
    return out


def _check_macro_parity(u: MacroVertex):
    v1, v2, v3 = u
    if v1 % 2 or (v1 // 2 + v2) % 2 or (v1 // 2 + v3) % 2:
        raise DomainError(f"{u} violates macro vertex parity")


def macro_box(u: MacroVertex, k: int, d: int = 3) -> Region:
    """The micro box B^u = k.u + (-k, k]^d (u embedded with trailing 0s)."""
    if k % 2 or k < 2:
        raise DomainError("k must be even and >= 2")
    _check_macro_parity(u)
    shift = list(u) + [0] * (d - 3)
    return Region(tuple((k * s - k, k * s + k) for s in shift))


def macro_face(u: MacroVertex, k: int, d: int = 3) -> Region:
    """The seed face F^u = k.u + {-k} x (-k, k]^(d-1)."""
    if k % 2 or k < 2:
        raise DomainError("k must be even and >= 2")
    _check_macro_parity(u)
    shift = list(u) + [0] * (d - 3)
    ivs = [(k * shift[0] - k - 1, k * shift[0] - k)]
    ivs += [(k * s - k, k * s + k) for s in shift[1:]]
    return Region(tuple(ivs))


def block_count_constant(k: int, d: int) -> int:
    """C = |[-k, k]^d| = (2k+1)^d, kept exactly as defined (note: the
    boxes B^u themselves have (2k)^d points; C is the seed-offset budget
    per macro column, not a box volume)."""
    return (2 * k + 1) ** d
