"""Oriented site percolation on the planar graph and on the macro slab.

Planar graph: vertices {(x, y): x even, x/2 + y even}, oriented edges
u -> u + (2, +-1).  Slab graph: the macro vertex set of the geometry
module, edges u -> u + (2, +-1, +-1).

Window sets (slab): with V the macro vertex set,

    B_n = V n ((n, 2n) x (-2n, 2n) x (0, h))
    L_n = V n ({cL} x [-n, n] x (0, h))      cL = smallest even column > n
    R_n = V n ({cR} x [-n, n] x (0, h))      cR = 2n - 2

The defining column indices n+1 and 2n-1 hold no macro vertices when
their parity is odd, so the columns snap to the nearest even column
inside the box; thin windows B_{n,m} / L_{n,m} / R_{n,m} shrink the
y-extent to (-2m, 2m) and [-m, m].

Reach convention: a vertex transmits only if it is itself open (site
percolation reads every path vertex, endpoints included).  Exploration
sequences instead treat their start set as externally infected - they
never query S - so the oracle equivalence against reach uses
seeded=True, under which sources transmit unconditionally and the reach
set collects vertices at the end of paths with at least one edge.

Every edge steps from column x to column x + 2, so reach is one sweep
over a window's columns, each column an int bitmask over (y, z):
reached(c) = (shifts(reached(c - 1)) | sources(c)) & open(c), or, when
seeded, shifts(reached(c - 1) | sources(c - 1)) & open(c).  explore()
stays a one-vertex-at-a-time exploration: renormalization needs its
stateful verdicts, and it is the independent oracle of the sweep.

The statistics (crossing, domination, xi5n) run a block of trials in one
sweep: a column int holds one copy of the window's column per trial,
separated by zero guard bits at least as wide as the largest shift, so
no reach leaks from one copy into the next.  Blocks draw at most
config.BLOCK_SITES sites (or one trial).  A window is a parity
rectangle known by its bounds: rect_points enumerates it as one sorted
array once config.MAX_SITES is checked from the bounds, and a
statistic's layout, built from it once per parameter set, keeps two
int64 index arrays (16 bytes a site).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import check_sites, trial_blocks
from .errors import DomainError
from .estimate import binomial_tail_geq, frequency, run_trials, wilson_interval
from .geometry import is_macro_vertex
from .rng import RngStream, below, raw_grid, shuffled_prefix, uniforms
from .words import _pack, _tile, _unpack

PlanarVertex = tuple[int, int]
SlabVertex = tuple[int, int, int]


def is_planar_vertex(v) -> bool:
    x, y = v
    return x % 2 == 0 and (x // 2 + y) % 2 == 0


def planar_out(v):
    x, y = v
    return ((x + 2, y - 1), (x + 2, y + 1))


def slab_out(v):
    x, y, z = v
    return (
        (x + 2, y - 1, z - 1),
        (x + 2, y - 1, z + 1),
        (x + 2, y + 1, z - 1),
        (x + 2, y + 1, z + 1),
    )


def _parity_count(lo: int, hi: int, r: int) -> int:
    """Integers in [lo, hi] congruent to r mod 2."""
    return max(0, (hi - lo - (r - lo) % 2) // 2 + 1)


def rect_sites(x_rng, y_rng, h=None) -> int:
    """len(planar_rect(*x_rng, *y_rng)), or with h len(slab_rect(x_rng,
    y_rng, h)), in O(1): column x = 2j holds the y (and z) of j's parity."""
    j_lo, j_hi = -(-x_rng[0] // 2), x_rng[1] // 2
    return sum(_parity_count(j_lo, j_hi, r) * _parity_count(*y_rng, r)
               * (1 if h is None else _parity_count(1, h - 1, r)) for r in (0, 1))


def rect_points(x_rng, y_rng, h=None) -> np.ndarray:
    """The vertices in [x_rng] x [y_rng], planar, or with h the macro
    vertices with 0 < z < h, as a sorted (sites, 2 or 3) array: column
    x = 2j holds the (y, z) grid of j's parity, so columns alternate two
    grids."""
    check_sites(rect_sites(x_rng, y_rng, h), "window")
    j_lo, j_hi = -(-x_rng[0] // 2), x_rng[1] // 2
    grids = []
    for r in (j_lo % 2, (j_lo + 1) % 2):
        axes = [np.arange(y_rng[0] + (r - y_rng[0]) % 2, y_rng[1] + 1, 2)]
        if h is not None:
            axes.append(np.arange(2 - r, h, 2))
        grids.append(np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes)))
    js = np.arange(j_lo, j_hi + 1)
    xs = np.repeat(2 * js, np.resize([len(g) for g in grids], len(js)))
    return np.column_stack([xs, np.resize(np.concatenate(grids), (len(xs), len(axes)))])


def planar_rect(x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> tuple[PlanarVertex, ...]:
    """Planar vertices in [x_lo, x_hi] x [y_lo, y_hi], sorted."""
    return tuple(map(tuple, rect_points((x_lo, x_hi), (y_lo, y_hi)).tolist()))


def slab_rect(x_rng, y_rng, h: int) -> tuple[SlabVertex, ...]:
    """Macro vertices with x in [x_rng], y in [y_rng], 0 < z < h, sorted."""
    return tuple(map(tuple, rect_points(x_rng, y_rng, h).tolist()))


def snap_left_column(n: int) -> int:
    return n + 1 if (n + 1) % 2 == 0 else n + 2


def snap_right_column(n: int) -> int:
    return 2 * n - 2


@dataclass(frozen=True)
class SlabWindows:
    """The exploration window with its left and right target columns."""

    n: int
    h: int
    m: int | None  # None for the full window, else the thin half-width
    B: tuple[SlabVertex, ...]
    L: tuple[SlabVertex, ...]
    R: tuple[SlabVertex, ...]

    @property
    def B_set(self):
        return frozenset(self.B)


def _slab_key(n: int, h: int, m=None) -> tuple[int, int, int | None]:
    """(n, h, m) of a slab window, m as its integer thin half-width."""
    if n < 3 or h < 2:
        raise DomainError("slab windows need n >= 3, h >= 2")
    return n, h, None if m is None else int(math.ceil(m))


def _slab_bounds(n: int, h: int, m: int | None):
    """The (x_rng, y_rng) bounds of B, L and R for the key (n, h, m)."""
    w = n if m is None else m
    cL, cR = snap_left_column(n), snap_right_column(n)
    return ((n + 1, 2 * n - 1), (-2 * w + 1, 2 * w - 1)), ((cL, cL), (-w, w)), ((cR, cR), (-w, w))


@lru_cache(maxsize=8)
def slab_windows(n: int, h: int, m=None) -> SlabWindows:
    """The full window, or with m the thin one of y-extent ceil(m)."""
    key = _slab_key(n, h, m)
    return SlabWindows(*key, *(slab_rect(*rng, h) for rng in _slab_bounds(*key)))


class _Layout:
    """Dense column grid of one window, built once per window.

    Column c holds the vertices with x = x0 + 2c as the bits of one int:
    (x, y) at bit y - y0, (x, y, z) at bit (y - y0) * stride + z - z0.
    A slab row keeps one spare bit above its top z, so a z-step off
    either end of a row lands on a bit that holds no vertex.  The
    out-neighbors of a column's bits are then its shifts by each of
    `steps`, both ways, in the next column.

    A block of copies (one per trial, or per seed set) stacks copy i of
    every column at bit i * pitch: the copy's `width` bits, then zero
    guard bits as many as the largest step, so no shift carries a bit
    from one copy into its neighbour.
    """

    def __init__(self, kind: str, pts: np.ndarray):
        """pts: the window's vertices, sorted, as a (sites, 2 or 3) array."""
        self.kind = kind
        self.sites, self.dim = pts.shape
        lo = pts.min(axis=0) if len(pts) else np.zeros(self.dim, dtype=np.int64)
        span = pts.max(axis=0) - lo + 1 if len(pts) else np.ones(self.dim, dtype=np.int64)
        self.x0, self.y0 = int(lo[0]), int(lo[1])
        self.z0 = int(lo[2]) if kind == "slab" else 0
        self.nz = int(span[2]) if kind == "slab" else 1
        self.stride = self.nz + 1 if kind == "slab" else 1
        self.steps = (self.stride - 1, self.stride + 1) if kind == "slab" else (1,)
        self.ncols = int(span[0]) // 2 + 1
        self.ny = int(span[1])
        self.width = self.ny * self.stride
        self.pitch = self.width + self.steps[-1]
        self.col = (pts[:, 0] - self.x0) // 2
        dz = pts[:, 2] - self.z0 if kind == "slab" else 0
        self.bit = (pts[:, 1] - self.y0) * self.stride + dz
        self.inside = self.pack(np.ones((1, self.sites), dtype=bool))

    @cached_property
    def vertices(self) -> tuple:
        """The window's vertices, sorted; derived when first asked, so a
        layout kept for a parameter set holds its two index arrays only."""
        dy, dz = np.divmod(self.bit, self.stride)
        axes = (self.x0 + 2 * self.col, self.y0 + dy, self.z0 + dz)[:self.dim]
        return tuple(zip(*(a.tolist() for a in axes)))

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def pack(self, bits) -> list[int]:
        """A (copies, vertices) block of per-vertex bits (sorted vertex
        order) as one int per column, copy i at bit i * pitch."""
        nb = (len(bits) * self.pitch + 7) // 8
        grid = np.zeros(self.ncols * 8 * nb, dtype=bool)
        grid[self.col * (8 * nb) + self.bit + self.pitch * np.arange(len(bits))[:, None]] = bits
        data = memoryview(np.packbits(grid, bitorder="little"))
        return [int.from_bytes(data[i:i + nb], "little") for i in range(0, len(data), nb)]

    def unpack(self, col: int, copies: int) -> np.ndarray:
        """A stacked column int as a (copies, width) bool array."""
        return _unpack(col, copies * self.pitch).reshape(copies, self.pitch)[:, :self.width]

    def tile(self, col: int, copies: int) -> int:
        """A one-copy column int repeated in each of the copies."""
        return _tile(col, self.pitch, copies * self.pitch)

    def cell(self, v):
        """(column, bit) of a window vertex, or None."""
        if len(v) != self.dim or not all(isinstance(t, (int, np.integer)) for t in v):
            return None
        dx, dy = v[0] - self.x0, v[1] - self.y0
        dz = v[2] - self.z0 if self.dim == 3 else 0
        c = dx // 2
        if dx % 2 or not (0 <= c < self.ncols and 0 <= dy < self.ny and 0 <= dz < self.nz):
            return None
        b = dy * self.stride + dz
        return (c, b) if self.inside[c] >> b & 1 else None

    def mask(self, vertices) -> list[int]:
        """Window vertices as one int per column; DomainError for any other."""
        cols = [0] * self.ncols
        for v in vertices:
            cb = self.cell(v)
            if cb is None:
                raise DomainError(f"source {tuple(v)} outside the window")
            cols[cb[0]] |= 1 << cb[1]
        return cols

    def column(self, x: int) -> int:
        """Column index of x; may fall outside range(ncols)."""
        return (x - self.x0) // 2

    def points(self, c: int, col: int) -> list:
        """The vertices of column c whose bits are set in col."""
        x, out = self.x0 + 2 * c, []
        while col:
            b = (col & -col).bit_length() - 1
            col &= col - 1
            dy, dz = divmod(b, self.stride)
            out.append((x, self.y0 + dy, self.z0 + dz)[:self.dim])
        return out

    def in_rect(self, x_rng, y_rng) -> np.ndarray:
        """Sorted-order indices of the window vertices with x in [x_rng], y in [y_rng]."""
        x, y = self.x0 + 2 * self.col, self.y0 + self.bit // self.stride
        return np.flatnonzero((x >= x_rng[0]) & (x <= x_rng[1]) & (y >= y_rng[0]) & (y <= y_rng[1]))

    def sweep_block(self, columns: list[int], c_src: int, sources: int, seeded: bool,
                    c_dst: int, copies: int) -> np.ndarray:
        """Column c_dst of a stacked sweep whose sources all lie in column
        c_src, as a (copies, width) bool array."""
        seeds = [0] * self.ncols
        seeds[c_src] = sources
        return self.unpack(_sweep(columns, self.steps, seeds, seeded)[c_dst], copies)


@lru_cache(maxsize=32)
def _cached_layout(kind, vertices, h) -> _Layout:
    """The layout of a caller's vertex list, sorted and checked."""
    check = is_planar_vertex if kind == "planar" else (lambda v: is_macro_vertex(v, h))
    verts = sorted(vertices)
    for v in verts:
        if not check(v):
            raise DomainError(f"{v} is not a vertex of the {kind} graph")
    return _Layout(kind, np.array(verts, dtype=np.int64).reshape(-1, 2 if kind == "planar" else 3))


def _layout(kind, vertices, h) -> _Layout:
    if kind not in ("planar", "slab"):
        raise DomainError(f"unknown oriented graph kind {kind!r}")
    if not isinstance(vertices, tuple):
        vertices = tuple(map(tuple, vertices))
    return _cached_layout(kind, vertices, h if kind == "slab" else None)


class OrientedConfig:
    """Open/closed assignment on a finite window of an oriented graph;
    open_bits follow the sorted vertex order, and are held only as the
    layout's column ints.  vertices may also be the window's layout,
    which saves the cache lookup in per-trial loops."""

    def __init__(self, kind: str, vertices, open_bits, gamma=None, provenance=None, h=None):
        self.layout = vertices if isinstance(vertices, _Layout) else _layout(kind, vertices, h)
        self.kind = self.layout.kind
        self.h = h
        self.vertices = self.layout.vertices
        open_bits = np.asarray(open_bits, dtype=bool)
        if open_bits.shape != (self.layout.sites,):
            raise DomainError("open-bit array shape mismatch")
        self.columns = self.layout.pack(open_bits[None])
        self.gamma = gamma
        self.provenance = provenance

    @property
    def index(self) -> dict:
        return self.layout.index

    def out_neighbors(self, v):
        return planar_out(v) if self.kind == "planar" else slab_out(v)

    def is_open(self, v) -> bool:
        """Whether window vertex v is open; KeyError for any other."""
        cell = self.layout.cell(v)
        if cell is None:
            raise KeyError(v)
        return bool(self.columns[cell[0]] >> cell[1] & 1)


def _sample_block(lay: _Layout, gamma: float, master_seed: int, s0: int, s1: int,
                  step: int = 1) -> np.ndarray:
    """Open bits of streams s0, s0 + step, ... below s1, one (sorted
    vertex order) row per stream: vertex i is open when the stream's
    uniform i is below gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise DomainError("gamma must lie in [0, 1]")
    return below(raw_grid(master_seed, s0, s1, 0, lay.sites, step), gamma)


def sample_oriented(kind, vertices, gamma, rng: RngStream, h=None) -> OrientedConfig:
    """Each vertex open with probability gamma; bits consumed in sorted
    vertex order."""
    lay = _layout(kind, vertices, h)
    bits = _sample_block(lay, gamma, rng.master_seed, rng.stream_id, rng.stream_id + 1)[0]
    return OrientedConfig(kind, lay, bits, gamma, (rng.master_seed, rng.stream_id), h=h)


def _sweep(columns: list[int], steps, seeds: list[int], seeded: bool) -> list[int]:
    """Reach one column at a time over open columns (stacked or not);
    seeds are per-column source masks.

    A vertex is reached when open and it is a source (unseeded) or an
    out-neighbor of a reached vertex, or of any source when seeded."""
    prev, out = 0, []
    for o, s in zip(columns, seeds):
        nxt = 0
        for k in steps:
            nxt |= (prev << k) | (prev >> k)
        if seeded:
            cur = nxt & o
            prev = cur | s
        else:
            cur = prev = (nxt | s) & o
        out.append(cur)
    return out


def oriented_reach(cfg: OrientedConfig, sources, target=None, seeded=False) -> set:
    """Vertices reachable from the sources along open oriented paths.

    seeded=False: every path vertex including the source must be open;
    a source itself is reached when open (zero-edge path).
    seeded=True: sources transmit unconditionally and are not themselves
    reported; reached means at the end of a path with >= 1 edge whose
    vertices after the source are all open.
    """
    lay = cfg.layout
    cols = _sweep(cfg.columns, lay.steps, lay.mask(sources), seeded)
    reached = {v for c, col in enumerate(cols) for v in lay.points(c, col)}
    if target is not None:
        reached &= set(map(tuple, target))
    return reached


def xi_column_reach(cfg: OrientedConfig, A, n: int) -> set[int]:
    """The set of y in [-n, n] with an open oriented path from A to
    (5n, y); n must be even so the target column holds vertices."""
    if n % 2:
        raise DomainError("xi_column_reach needs even n")
    for a in A:
        if a[0] != 0:
            raise DomainError("A must lie on the column x = 0")
    lay = cfg.layout
    cols = _sweep(cfg.columns, lay.steps, lay.mask(A), False)
    c = lay.column(5 * n)
    if not 0 <= c < lay.ncols:
        return set()
    return {v[1] for v in lay.points(c, cols[c]) if -n <= v[1] <= n}


@dataclass(frozen=True)
class ExplorationState:
    """Final state of an exploration sequence with its decision trace."""

    S: frozenset
    U: frozenset
    V: frozenset
    trace: tuple  # ((vertex, verdict), ...) in query order

    def no_vertex_queried_twice(self) -> bool:
        qs = [z for z, _ in self.trace]
        return len(qs) == len(set(qs))


def explore(S, window, decision, kind="slab") -> ExplorationState:
    """Run the one-vertex-at-a-time exploration to fixation.

    At each step the minimum vertex of the out-boundary of U inside the
    window and outside V is queried; an open verdict joins U, a closed
    one joins V.  S itself is never queried.
    """
    out = planar_out if kind == "planar" else slab_out
    window_set = window if isinstance(window, (set, frozenset)) else frozenset(window)
    U = {tuple(s) for s in S}
    S_frozen = frozenset(U)
    V: set = set()
    heap = []
    in_cand = set()

    def push_out_of(v):
        for w in out(v):
            if w in window_set and w not in U and w not in V and w not in in_cand:
                in_cand.add(w)
                heapq.heappush(heap, w)

    for s in U:
        push_out_of(s)
    trace = []
    while heap:
        z = heapq.heappop(heap)
        in_cand.discard(z)
        if z in U or z in V:
            continue
        verdict = bool(decision(z))
        trace.append((z, verdict))
        if verdict:
            U.add(z)
            push_out_of(z)
        else:
            V.add(z)
    return ExplorationState(S_frozen, frozenset(U), frozenset(V), tuple(trace))


def forward_cone(S, window, kind="slab") -> set:
    """All window vertices reachable from S ignoring openness."""
    out = planar_out if kind == "planar" else slab_out
    window_set = window if isinstance(window, (set, frozenset)) else frozenset(window)
    seen = set()
    stack = [tuple(s) for s in S]
    while stack:
        v = stack.pop()
        for w in out(v):
            if w in window_set and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def sample_seed_set(vertices, density: float, rng: RngStream):
    """Deterministic random subset of ceil(density * |vertices|) vertices."""
    verts = sorted(vertices)
    picks = _seed_picks(len(verts), density, rng.master_seed, rng.stream_id,
                        rng.stream_id + 1)[0]
    return sorted(verts[j] for j in picks)


def _seed_picks(count: int, density: float, master_seed: int, s0: int, s1: int,
                step: int = 1) -> np.ndarray:
    """Per stream s0, s0 + step, ... below s1, the sorted-order positions
    of the ceil(density * count) seeds it picks, one int64 row each: a
    partial Fisher-Yates shuffle of the positions, draw j being the
    stream's uniform j.  The positions are shuffled in place as a
    memoryview of an int64 array, 8 bytes each, not as a list of int
    objects, and only the picked prefix is kept."""
    k = max(1, math.ceil(density * count))
    if k > count:
        raise ValueError("sample larger than population")
    draws = uniforms(raw_grid(master_seed, s0, s1, 0, k, step)).tolist()
    picks = np.empty((len(draws), k), dtype=np.int64)
    for i, row in enumerate(draws):
        picks[i] = shuffled_prefix(memoryview(np.arange(count, dtype=np.int64)), row)
    return picks


def _seed_column(bits: np.ndarray, picks, pitch: int, keep=None) -> int:
    """One column int, copy i at bit i * pitch holding bits[j] for each j
    in row i of picks (where keep[j]): one pack of a (copies, pitch) grid."""
    grid = np.zeros((len(picks), pitch), dtype=bool)
    grid[np.arange(len(picks))[:, None], bits[picks]] = True if keep is None else keep[picks]
    return _pack(grid)


@lru_cache(maxsize=8)
def _slab_layout(n: int, h: int, m: int | None) -> _Layout:
    """The layout of slab_windows(n, h, m).B, from its bounds, once per key."""
    return _Layout("slab", rect_points(*_slab_bounds(n, h, m)[0], h))


def _crossing_trials(key, gamma, delta, master_seed, threshold, t0, t1) -> list[bool]:
    """Crossing verdicts of trials t0..t1-1 on the window of key = (n, h,
    m), a block of trials per sweep; trial t owns streams 2t (seed set)
    and 2t + 1 (site bits)."""
    lay, m = _slab_layout(*key), key[2]
    _, L, R = _slab_bounds(*key)
    L_bits = lay.bit[lay.in_rect(*L)]
    on_R = np.zeros(lay.width, dtype=bool)
    on_R[lay.bit[lay.in_rect(*R)]] = True
    # R is empty when its column holds no vertex (h = 2 keeps one column
    # parity), and that column may lie past the window's last one
    cL, cR = lay.column(L[0][0]), min(lay.column(R[0][0]), lay.ncols - 1)
    out = []
    for b0, b1 in trial_blocks(t0, t1, lay.sites):
        copies = b1 - b0
        picks = _seed_picks(len(L_bits), delta, master_seed, 2 * b0, 2 * b1, 2)
        S = _seed_column(L_bits, picks, lay.pitch)
        cols = lay.pack(_sample_block(lay, gamma, master_seed, 2 * b0 + 1, 2 * b1 + 1, 2))
        reach = lay.sweep_block(cols, cL, S, True, cR, copies)
        if cL == cR:
            # the exploration's U_inf is S plus the seeded reach (acceptance
            # 4); S lies on column cL, which is column cR only when n <= 4
            reach |= lay.unpack(S, copies)
        hits = (reach & on_R).sum(axis=1)
        out += (hits > threshold if m is not None else hits >= threshold).tolist()
    return out


def crossing_stat(trials: int, n: int, h: int, gamma: float, delta: float, master_seed: int,
                  thin: bool = False) -> dict:
    """Monte Carlo frequency of the right-column crossing event.

    Full windows: the event is |U_inf n R_n| >= |R_n| / 1000.  Thin
    windows (B_{n, n/h}): the event is N > n / 20, with N the number of
    right-column vertices reached.  Reports a Wilson 95% interval.
    """
    key = _slab_key(n, h, n / h if thin else None)
    _, L, R = _slab_bounds(*key)
    if not rect_sites(*L, h):
        raise DomainError("left column is empty; increase n")
    right_size = rect_sites(*R, h)
    threshold = (n / 20.0) if thin else (right_size / 1000.0)
    args = (key, gamma, delta, master_seed, threshold)
    successes = sum(run_trials(_crossing_trials, args, trials))
    return {
        "kind": "crossing",
        "window": "thin" if thin else "full",
        "n": n,
        "h": h,
        "gamma": gamma,
        "delta": delta,
        "trials": trials,
        "successes": successes,
        **frequency(successes, trials),
        "threshold": threshold,
        "right_column_size": right_size,
    }


def _xi_bounds(n: int):
    """The (x_rng, y_rng) bounds of planar_window_for_xi(n)."""
    Y = n + (5 * n) // 2 + 2
    return (0, 5 * n), (-Y, Y)


def planar_window_for_xi(n: int):
    """Window holding every path relevant to column-5n reach queries."""
    x_rng, y_rng = _xi_bounds(n)
    return planar_rect(*x_rng, *y_rng)


@lru_cache(maxsize=8)
def _xi_layout(n: int) -> _Layout:
    """The layout of planar_window_for_xi(n), from its bounds, once per n."""
    return _Layout("planar", rect_points(*_xi_bounds(n)))


def _domination_trials(gamma, delta, n, master_seed, t0, t1) -> list[tuple]:
    """(|xi^S_5n n W|, and the three path events) of trials t0..t1-1;
    trial t owns streams 2t (seed set) and 2t + 1 (site bits).  One sweep
    runs a block of trials with four copies each: the seed sets S, S'
    (S inside the middle band), the low band and the high band, copy
    k * T + i holding set k of the block's trial i."""
    lay = _xi_layout(n)
    bits0 = lay.bit[lay.in_rect((0, 0), (-n, n))]
    y0s = lay.y0 + bits0  # a planar bit is y - y0
    quarter = max(1, (delta / 4) * n)
    seed_density = min(1.0, delta * n / max(1, len(bits0)))  # |S| >= delta * n
    middle = (y0s >= -n + quarter) & (y0s <= n - quarter)
    low_band = _seed_column(bits0, np.flatnonzero(y0s <= -n + quarter)[None], lay.pitch)
    high_band = _seed_column(bits0, np.flatnonzero(y0s >= n - quarter)[None], lay.pitch)
    y5 = lay.y0 + np.arange(lay.width)  # the y of each bit of column 5n
    in_W, top, bottom = np.abs(y5) <= n, y5 >= n, y5 <= -n
    c0, c5 = lay.column(0), lay.column(5 * n)
    out = []
    for b0, b1 in trial_blocks(t0, t1, lay.sites):
        T, span = b1 - b0, (b1 - b0) * lay.pitch
        picks = _seed_picks(len(bits0), seed_density, master_seed, 2 * b0, 2 * b1, 2)
        S = _seed_column(bits0, picks, lay.pitch)
        S_mid = _seed_column(bits0, picks, lay.pitch, middle)
        sources = (S | S_mid << span | lay.tile(low_band, T) << 2 * span
                   | lay.tile(high_band, T) << 3 * span)
        block = lay.pack(_sample_block(lay, gamma, master_seed, 2 * b0 + 1, 2 * b1 + 1, 2))
        sets = _tile(1, span, 4 * span)
        cols = [c * sets for c in block]
        r = lay.sweep_block(cols, c0, sources, False, c5, 4 * T).reshape(4, T, lay.width)
        xi = (r[0] & in_W).sum(axis=1)
        out += zip(xi.tolist(), r[1].any(axis=1).tolist(), (r[2] & top).any(axis=1).tolist(),
                   (r[3] & bottom).any(axis=1).tolist())
    return out


def domination_probe(gamma: float, delta: float, n: int, trials: int, master_seed: int) -> dict:
    """Statistical probe of the product-1/2 domination heuristic.

    For random S of density delta on the left column, estimates the
    increasing events {|xi^S_5n n W| >= s} against the exact product-1/2
    benchmark P(Bin(|W|, 1/2) >= s), and the three path events whose
    conjunction reroutes full-line reach through S'.  A probe, not a
    proof: only finitely many increasing events are examined.
    """
    if n % 2 or n < 4:
        raise DomainError("domination probe needs even n >= 4")
    if not 0 < delta < 0.1:
        raise DomainError("delta must lie in (0, 1/10)")
    W = rect_sites((5 * n, 5 * n), (-n, n))  # the target column |y| <= n
    thresholds = sorted({1, max(1, W // 4), max(1, W // 2)})
    outcomes = run_trials(_domination_trials, (gamma, delta, n, master_seed), trials)
    counts = {s: sum(xi >= s for xi, *_ in outcomes) for s in thresholds}
    comp = {
        "s_prime_to_column": sum(o[1] for o in outcomes),
        "down_diagonal": sum(o[2] for o in outcomes),
        "up_diagonal": sum(o[3] for o in outcomes),
        "all_three": sum(o[1] and o[2] and o[3] for o in outcomes),
    }
    events = []
    for s in thresholds:
        lo, hi = wilson_interval(counts[s], trials)
        bench = binomial_tail_geq(W, 0.5, s)
        events.append(
            {
                "threshold": s,
                "frequency": counts[s] / trials,
                "wilson95": [lo, hi],
                "product_half_benchmark": bench,
                "dominates": lo >= bench,
            }
        )
    return {
        "kind": "domination",
        "gamma": gamma,
        "delta": delta,
        "n": n,
        "trials": trials,
        "target_column_size": W,
        "increasing_events": events,
        "path_events": {name: frequency(c, trials) for name, c in comp.items()},
        "note": "statistical probe of finitely many increasing events, not a proof",
    }


def _xi5n_trials(n, gamma, master_seed, t0, t1) -> list[set[int]]:
    """xi_column_reach from the column-0 segment |y| <= n, per trial, a
    block of trials per sweep."""
    if n % 2:
        raise DomainError("xi_column_reach needs even n")
    lay = _xi_layout(n)
    col0 = sum(1 << b for b in lay.bit[lay.in_rect((0, 0), (-n, n))].tolist())
    y5 = lay.y0 + np.arange(lay.width)  # the y of each bit of column 5n
    in_W = np.abs(y5) <= n
    y_W = y5[in_W]
    c0, c5 = lay.column(0), lay.column(5 * n)
    out = []
    for b0, b1 in trial_blocks(t0, t1, lay.sites):
        cols = lay.pack(_sample_block(lay, gamma, master_seed, b0, b1))
        rows = lay.sweep_block(cols, c0, lay.tile(col0, b1 - b0), False, c5, b1 - b0)[:, in_W]
        out += [set(y_W[row.astype(bool)].tolist()) for row in rows]
    return out


def xi5n_stat(trials: int, n: int, gamma, master_seed: int) -> dict:
    """Marginal frequency, per y in [-n, n], of an open oriented path from
    the column-0 segment |y| <= n to (5n, y); trial t owns stream t."""
    outcomes = run_trials(_xi5n_trials, (n, float(gamma), master_seed), trials)
    counts = Counter(y for ys in outcomes for y in ys)
    return {
        "kind": "xi5n",
        "n": n,
        "gamma": gamma,
        "trials": trials,
        "per_y_frequency": {str(y): c / trials for y, c in sorted(counts.items())},
    }
