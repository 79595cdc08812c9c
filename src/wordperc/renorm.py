"""Seeds, good events, the boundary-to-boundary event, and the
micro-to-macro exploration.

A seed for a macro vertex u is a subset S of its face F^u with one word
offset per vertex; it is a delta-seed when |S| >= delta * |F^u| and every
offset is at most C * u1 with C = (2k+1)^d.  The good event at u asks
that, for every out-neighbor v, the set of face points of F^v reachable
from the seed by reading the word inside F^u u B^u (offsets within
C * v1) has size at least 64000 * delta * |F^v|.  The existential over
sub-seeds is decided by this canonical maximal set: a qualifying
sub-seed exists iff the canonical set is large enough.

Two offset budgets appear in the source material: membership inside one
box is bounded by C * v1, while the reported minimal arrival during an
ambient run is bounded by C * (n + v1).  Only the first is implemented:
every box search, inside an exploration too, stops at C * v1 (or the
caller's ``t_membership``), so propagated seeds carry arrivals up to C * v1.

The micro-to-macro exploration propagates arrival sets face to face via
single-box searches, which is exactly the inductive step the good event
certifies; each box is examined at most once (auditable), so every
verdict consumes fresh randomness.  A box costs one search in both
modes, seed_sets_from's: the verdict is the good-event threshold on its
per-face arrivals, which an accepted box passes on as seeds (the face
membership of a minimal-arrival search is that of good_event's).

A SeedSet holds one word offset per point of its face, in the face's
rank order, with the searches' UNREACHED for a point not in the seed:
the delta-seed bounds are a count and a maximum, and merging arrivals
is an element-wise minimum.  Points appear only at the edges:
SeedSet.from_dict and to_dict, and the exploration's T and T_prime.
F^u u B^u is itself a box, so every box search runs on that region
alone, its colours gathered from the window and its seed scattered into
its ranks through cached index arrays; its first arrivals (an array
over box ranks) are gathered into each out-neighbor face's ranks.
Cached bitsets of those faces, or of the scale-n boundary, are the
exact searches' site masks (early stops, prune targets) and event_Emn's
sources.  walk_good_events decides a block of trials' walk-decided good
events with one stacked relaxed sweep; good_event's walk branch is its
one-trial case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import Configuration, check_sites, sample_trials
from .errors import CapacityError, DomainError
from .estimate import frequency, run_trials
from .geometry import (
    Region,
    block_count_constant,
    check_dim,
    inner_boundary,
    lambda_box,
    macro_box,
    macro_face,
    macro_out_neighbors,
    ranks_within,
    slab_window,
)
from .oriented import explore, slab_windows
from .rng import RngStream
from .words import has_period_two
from .search import (
    MAX_INDEX,
    UNREACHED,
    SourceSet,
    exact_word_reach,
    relaxed_reach_block,
    relaxed_word_reach,
)

Point = tuple[int, ...]

# Search-tree nodes one exact box search may use when the caller names no
# budget; the self-avoiding search is exponential in the worst case, so an
# exceeded budget raises CapacityError instead of running without bound.
EXACT_NODE_BUDGET = 1_000_000


def _budget(node_budget: int | None) -> int:
    return EXACT_NODE_BUDGET if node_budget is None else node_budget


@dataclass(frozen=True)
class RenormParams:
    """Desk-scale renormalization parameters; C is kept exactly (2k+1)^d."""

    d: int
    p: float
    k: int
    delta: float
    h: int

    def __post_init__(self):
        if self.d < 3:
            raise DomainError("renormalization needs d >= 3")
        check_dim(self.d)
        if not 0.0 <= self.p <= 1.0:
            raise DomainError("p must lie in [0, 1]")
        if self.k < 2 or self.k % 2:
            raise DomainError("k must be even and >= 2")
        if not 0 < self.delta * 64000 < 1:
            raise DomainError("delta must lie in (0, 1/64000)")
        if self.h < 2:
            raise DomainError("h must be at least 2")

    @property
    def C(self) -> int:
        return block_count_constant(self.k, self.d)

    def face_size(self) -> int:
        return (2 * self.k) ** (self.d - 1)


@dataclass(frozen=True, eq=False)
class SeedSet:
    """A seed (S, t) on the face F^u of macro vertex u: offsets[i] is the
    word offset of the i-th point of F^u in its rank order, or UNREACHED off
    S.  The seed takes the array over and makes it read-only."""

    u: tuple[int, int, int]
    offsets: np.ndarray

    def __post_init__(self):
        self.offsets.setflags(write=False)

    @classmethod
    def from_dict(cls, u, mapping, params: RenormParams) -> "SeedSet":
        """The seed of these point -> offset entries, each on F^u and in [0, MAX_INDEX]."""
        face = macro_face(u, params.k, params.d)
        offsets = np.full(face.volume, UNREACHED, dtype=np.int64)
        for v, t in mapping.items():
            if not 0 <= t <= MAX_INDEX:
                raise DomainError(f"seed offset {t} outside [0, {MAX_INDEX}]")
            offsets[face.rank(tuple(v))] = t  # DomainError off the face
        return cls(tuple(u), offsets)

    @classmethod
    def full_face(cls, u, params: RenormParams, offset: int = 0) -> "SeedSet":
        return cls(tuple(u), np.full(params.face_size(), offset, dtype=np.int64))

    def size(self) -> int:
        return int(np.count_nonzero(self.offsets < UNREACHED))

    def to_dict(self, params: RenormParams) -> dict:
        """The seed as point -> offset, in F^u's rank order."""
        points = _face_points(self.u, params.k, params.d)
        return {v: t for v, t in zip(points, self.offsets.tolist(), strict=True) if t < UNREACHED}


def is_delta_seed(seed: SeedSet, delta: float, params: RenormParams) -> bool:
    """Density and offset bounds of a seed candidate: a count and a maximum."""
    if seed.size() < delta * params.face_size():
        return False
    return bool(seed.offsets.max(where=seed.offsets < UNREACHED, initial=0) <= params.C * seed.u[0])


@lru_cache(maxsize=256)
def _search_box(u, k: int, d: int) -> tuple[Region, tuple[int, ...]]:
    """F^u u B^u as a region of its own: (k u1 - k - 1, k u1 + k] on the
    first axis and B^u's intervals on the others; and F^u's ranks in it."""
    face, bx = macro_face(u, k, d), macro_box(u, k, d)
    box = Region(((face.intervals[0][0], bx.intervals[0][1]),) + bx.intervals[1:])
    return box, tuple(ranks_within(face, box).tolist())


@lru_cache(maxsize=256)
def _box_view(u, k: int, d: int, intervals) -> tuple[Region, np.ndarray]:
    """F^u u B^u and the ranks of its points in the window with these
    intervals, the gather of its colours.  Restricting a box keeps rank
    order, so a search on it visits what a search masked to it inside
    the window visits, in the same order."""
    window, (box, _) = Region(intervals), _search_box(u, k, d)
    if not box.issubset(window):
        raise DomainError(f"F^u u B^u of {u} not inside the configuration")
    return box, ranks_within(box, window)


def _restrict(cfg: Configuration, u, params: RenormParams) -> Configuration:
    """The configuration on F^u u B^u alone."""
    box, ranks = _box_view(u, params.k, params.d, cfg.region.intervals)
    return Configuration.from_bools(box, cfg.bools()[ranks])


@lru_cache(maxsize=256)
def _out_faces(u, k: int, d: int, outs: tuple) -> tuple:
    """The points of F^v inside F^u u B^u, all a box search can reach, for
    every out-neighbor v of outs: per v as a bitset over the box and as
    the box rank of every point of F^v in its rank order, -1 off the box;
    and the bitset of them all."""
    box, _ = _search_box(u, k, d)
    faces, union = [], 0
    for v in outs:
        face = macro_face(v, k, d)
        part = face.intersect(box)
        in_box = ranks_within(part, box)
        gather = np.full(face.volume, -1)
        gather[ranks_within(part, face)] = in_box
        gather.setflags(write=False)
        bits = sum(1 << r for r in in_box.tolist())
        faces.append((bits, gather))
        union |= bits
    return tuple(faces), union


def _need(params: RenormParams) -> int:
    """Face points the good event asks of every out-neighbor face."""
    threshold = 64000.0 * params.delta * params.face_size()
    return max(1, math.ceil(threshold - 1e-12))


def walks_decide(xi, mode: str, bound: int) -> bool:
    """Whether the walk (relaxed) search answers the box question.  A
    bound past the searches' MAX_INDEX is a CapacityError, raised before
    the word is read up to it."""
    if mode not in ("exact", "relaxed"):
        raise DomainError(f"unknown search mode {mode!r}")
    if bound > MAX_INDEX:
        raise CapacityError(f"max_index capped at {MAX_INDEX}")
    # for period-<=2 words on the bipartite lattice, loop erasure makes
    # walk and self-avoiding reachability agree on membership and minima
    return mode == "relaxed" or has_period_two(xi, bound)


@lru_cache(maxsize=1024)
def _face_points(v, k: int, d: int) -> tuple[Point, ...]:
    return tuple(map(tuple, macro_face(v, k, d).points_array().tolist()))


def _sources(seed: SeedSet, xi, params: RenormParams) -> SourceSet:
    """The seed's offsets as the sources of its box search, in box ranks."""
    box, ranks = _search_box(seed.u, params.k, params.d)
    by_t: dict[int, int] = {}
    for r, t in zip(ranks, seed.offsets.tolist()):
        by_t[t] = by_t.get(t, 0) | 1 << r
    by_t.pop(UNREACHED, None)  # the face points off the seed
    return SourceSet(box, (by_t,), (xi,))


def seed_sets_from(
    cfg: Configuration,
    seed: SeedSet,
    xi,
    params: RenormParams,
    mode: str = "exact",
    t_membership: int | None = None,
    node_budget: int | None = None,
) -> dict:
    """Canonical propagated seeds: for every out-neighbor v of u, the
    SeedSet on F^v of the points reached from the seed inside F^u u B^u,
    at their minimal arrival offsets; the search and its offsets stop at
    the membership bound, C * v1 by default.  An exact search may use
    node_budget search-tree nodes (EXACT_NODE_BUDGET when None)."""
    u = seed.u
    outs = tuple(macro_out_neighbors(u, params.h))
    if not outs:
        return {}
    bound = params.C * (u[0] + 2) if t_membership is None else t_membership
    faces, union = _out_faces(u, params.k, params.d, outs)
    box = _restrict(cfg, u, params)
    if walks_decide(xi, mode, bound):
        res = relaxed_word_reach(box, _sources(seed, xi, params), bound)
    else:
        res = exact_word_reach(box, _sources(seed, xi, params), bound,
                               node_budget=_budget(node_budget), prune_targets=(union, "min"))
    # first arrivals in box ranks; index -1 reads the UNREACHED in the slot past them
    first = np.append(res.first_arrivals(union), UNREACHED)
    return {v: SeedSet(v, first[gather]) for v, (_, gather) in zip(outs, faces)}


def walk_good_events(window: Region, colors: np.ndarray, seed: SeedSet, xi,
                     params: RenormParams) -> np.ndarray:
    """good_event of the delta-seed for every row of colors, one trial's
    rank-order colouring of the window, where the walk search decides it
    (walks_decide).  One stacked relaxed sweep of the rows' F^u u B^u
    gives each trial's reached sites, and a trial is good iff every
    out-neighbor face holds at least the needed number of them."""
    u = seed.u
    outs = tuple(macro_out_neighbors(u, params.h))
    if not outs:
        return np.ones(len(colors), dtype=bool)
    box, ranks = _box_view(u, params.k, params.d, window.intervals)
    reached = relaxed_reach_block(box, colors[:, ranks], _sources(seed, xi, params),
                                  params.C * (u[0] + 2), reached=True)
    faces, _ = _out_faces(u, params.k, params.d, outs)
    return np.all([reached[:, gather[gather >= 0]].sum(axis=1) >= _need(params)
                   for _, gather in faces], axis=0)


def good_event(
    cfg: Configuration,
    seed: SeedSet,
    xi,
    params: RenormParams,
    mode: str = "exact",
    node_budget: int | None = None,
) -> bool:
    """Whether the seed propagates 64000*delta-dense seeds to every
    out-neighbor face while reading the word inside F^u u B^u.  A walk
    decided event is the one-trial case of walk_good_events; an exact
    search may use node_budget search-tree nodes (EXACT_NODE_BUDGET when
    None)."""
    if not is_delta_seed(seed, params.delta, params):
        raise DomainError("good_event needs a delta-seed")
    u = seed.u
    outs = macro_out_neighbors(u, params.h)
    if not outs:
        return True
    need = _need(params)
    bound = params.C * (u[0] + 2)
    if walks_decide(xi, mode, bound):
        return bool(walk_good_events(cfg.region, cfg.bools()[None], seed, xi, params)[0])
    faces, union = _out_faces(u, params.k, params.d, tuple(outs))
    res = exact_word_reach(_restrict(cfg, u, params), _sources(seed, xi, params), bound,
                           early_stop=[(bits, need) for bits, _ in faces],
                           node_budget=_budget(node_budget),
                           prune_targets=(union, "membership"))
    return all((res.reached & bits).bit_count() >= need for bits, _ in faces)


@lru_cache(maxsize=16)
def lambda_boundary(n: int, params: RenormParams) -> frozenset[Point]:
    """Inner boundary of the slab box at scale n, within the slab."""
    lam = lambda_box(n, params.h, params.k, params.d)
    amb = slab_window(params.h, params.k, params.d, params.k * n + 2)
    return frozenset(inner_boundary(lam, amb))


@lru_cache(maxsize=16)
def _boundary_sites(n: int, params: RenormParams, intervals) -> tuple[int, tuple]:
    """lambda_boundary(n) in the window with these intervals, which holds
    it: its rank-order bitset and its (point, rank) pairs."""
    window = Region(intervals)
    points = tuple((y, int(window.rank(y))) for y in sorted(lambda_boundary(n, params)))
    return sum(1 << r for _, r in points), points


def event_Emn(
    cfg: Configuration,
    m: int,
    n: int,
    xi,
    params: RenormParams,
    mode: str = "relaxed",
    t_bound: int | None = None,
):
    """The boundary-to-boundary propagation event at scales m -> n.

    True iff a subset T of the inner boundary of the scale-n box, of
    density 8 * delta, is word-reached from the scale-(m+1) boundary with
    offsets at most C * n; decided by taking T = the full reachable
    subset.  n = m is the whole probability space by definition.  An
    exact search may use EXACT_NODE_BUDGET search-tree nodes.
    Returns (occurred, T).
    """
    if not 1 <= m <= n:
        raise DomainError("event needs n >= m >= 1")
    if n == m:
        return True, None
    lam_n = lambda_box(n, params.h, params.k, params.d)
    if not lam_n.issubset(cfg.region):
        raise DomainError("configuration window too small for the scale-n box")
    window = cfg.region.intervals
    sources = SourceSet(cfg.region, ({0: _boundary_sites(m + 1, params, window)[0]},), (xi,))
    target_mask, targets = _boundary_sites(n, params, window)
    bound = params.C * n if t_bound is None else t_bound
    if walks_decide(xi, mode, bound):
        res = relaxed_word_reach(cfg, sources, bound)
    else:
        res = exact_word_reach(cfg, sources, bound, prune_targets=(target_mask, "membership"),
                               node_budget=_budget(None))
    T = {y for y, r in targets if res.reached >> r & 1}
    return len(T) >= 8 * params.delta * len(targets), T


def micro_window(n: int, params: RenormParams) -> Region:
    """Region covering every box and face touched by an exploration run."""
    k = params.k
    ivs = [
        (k * n - 1, (2 * n + 1) * k),
        (-2 * k * n - k - 1, 2 * k * n + k),
        (0, params.h * k),
    ]
    ivs += [(-k, k)] * (params.d - 3)
    return Region(tuple(ivs))


def micro_left_column(n: int, params: RenormParams) -> Region:
    """The micro seed column at x = k*n (one slab-thick plane)."""
    k = params.k
    ivs = [(k * n - 1, k * n), (-k * n - 1, k * n), (0, params.h * k)]
    ivs += [(-k, k)] * (params.d - 3)
    return Region(tuple(ivs))


@dataclass
class ExplorationReport:
    n: int
    T_macro: tuple
    U0: tuple
    U_inf: tuple
    V_inf: tuple
    trace: tuple
    queried: tuple
    right_hits: int
    right_size: int
    T_prime: dict
    T_prime_threshold: float
    audit_no_requeries: bool
    audit_box_overlaps: tuple

    @property
    def T_prime_size(self) -> int:
        return len(self.T_prime)


def macro_exploration(
    cfg: Configuration,
    T: dict,
    xi,
    params: RenormParams,
    n: int,
    mode: str = "relaxed",
    node_budget: int | None = None,
) -> ExplorationReport:
    """Run the seeded macro exploration over the window at scale n.

    T maps micro seed-column vertices to word offsets (at most C * n).
    Face-to-face propagation happens through one box at a time; the
    verdict for a macro vertex is the good event on its accumulated
    arrival seed, evaluated on the configuration restricted to its own
    box and face.  Every exact box search gets node_budget search-tree
    nodes (EXACT_NODE_BUDGET when None).
    """
    win = slab_windows(n, params.h)
    T = {tuple(v): int(t) for v, t in T.items()}
    for v, t in T.items():
        if not 0 <= t <= min(params.C * n, MAX_INDEX):
            raise DomainError(f"offset {t} of {v} outside [0, min(C*n, MAX_INDEX)]")
    # arrivals: each macro vertex's accumulated seed; the macro seed column
    # T_macro is the left-column faces holding a delta-dense share of T
    arrivals: dict = {}
    for u in win.L:
        offsets = np.array([T.get(v, UNREACHED) for v in _face_points(u, params.k, params.d)])
        if np.count_nonzero(offsets < UNREACHED) >= params.delta * params.face_size():
            arrivals[u] = SeedSet(u, offsets)
    T_macro = tuple(arrivals)
    queried: list = []

    def verdict(u) -> bool:
        queried.append(u)
        if u not in arrivals or not is_delta_seed(arrivals[u], params.delta, params):
            return False
        # one box search: the good event is the threshold on its faces
        grown = seed_sets_from(cfg, arrivals[u], xi, params, mode=mode, node_budget=node_budget)
        ok = all(got.size() >= _need(params) for got in grown.values())
        if ok:
            for w, got in grown.items():
                if w in arrivals:
                    got = SeedSet(w, np.minimum(arrivals[w].offsets, got.offsets))
                arrivals[w] = got
        return ok

    U0 = tuple(sorted(u for u in T_macro if verdict(u)))
    state = explore(U0, win.B_set, verdict)
    # the right-column report and the forwarded target set
    right = state.U & set(win.R)
    out_of_R = {w for u in right for w in macro_out_neighbors(u, params.h)} - state.U
    # faces of distinct macro vertices are disjoint: T' is their union
    T_prime = {y: t for w in sorted(out_of_R & arrivals.keys())
               for y, t in arrivals[w].to_dict(params).items()}
    return ExplorationReport(
        n=n,
        T_macro=tuple(sorted(T_macro)),
        U0=U0,
        U_inf=tuple(sorted(state.U)),
        V_inf=tuple(sorted(state.V)),
        trace=state.trace,
        queried=tuple(queried),
        right_hits=len(right),
        right_size=len(win.R),
        T_prime=T_prime,
        T_prime_threshold=8 * params.delta * len(lambda_boundary(2 * n, params)),
        audit_no_requeries=len(queried) == len(set(queried)),
        audit_box_overlaps=overlap_audit(sorted(set(queried)), params.k, params.d),
    )


def overlap_audit(vertices, k: int, d: int) -> tuple:
    """The pairs (a, b) of the sorted macro vertices whose boxes meet
    ("box-box") or whose faces meet ("face-face"), in pairwise order.
    Two parts meet iff on every axis each one's lower bound lies below the
    other's upper bound; all pairs are tested at once on the bounds, an
    axis at a time."""
    if not vertices:
        return ()
    # bounds[axis, i, kind] = (lo, hi) of vertex i's box (kind 0) or face (kind 1)
    bounds = np.array([[macro_box(a, k, d).intervals, macro_face(a, k, d).intervals]
                       for a in vertices]).transpose(2, 0, 1, 3)
    meet = True
    for lo, hi in zip(bounds[..., 0], bounds[..., 1]):
        meet = meet & (lo[:, None] < hi) & (lo < hi[:, None])  # [i, j, kind]
    kinds = ("box-box", "face-face")
    return tuple((vertices[i], vertices[j], kinds[c])
                 for i, j, c in np.argwhere(meet).tolist() if i < j)


def _emn_trials(m, n, xi, params, mode, master_seed, t0, t1) -> list[bool]:
    """E_mn verdicts of trials t0..t1-1; trial t samples the slab from stream t."""
    win = slab_window(params.h, params.k, params.d, half_width=params.k * n + 2)
    return [event_Emn(cfg, m, n, xi, params, mode=mode)[0]
            for cfg in sample_trials(win, params.p, master_seed, t0, t1)]


def emn_stat(trials: int, m: int, n: int, xi, params: RenormParams, master_seed: int,
             mode: str) -> dict:
    """Monte Carlo frequency of the event E_mn with a Wilson 95% interval."""
    successes = sum(run_trials(_emn_trials, (m, n, xi, params, mode, master_seed), trials))
    return {
        "kind": "emn",
        "m": m,
        "n": n,
        "successes": successes,
        "trials": trials,
        **frequency(successes, trials),
        "mode": mode,
    }


def _exploration_trials(n, xi, params, tdensity, mode, master_seed, t0, t1) -> list[tuple]:
    """(right hits, clean audits, |T'|) of trials t0..t1-1.  Trial t
    samples the window from stream t and keeps each micro left-column
    point, at offset 0, with probability tdensity from stream 2^32 + t."""
    window = micro_window(n, params)
    check_sites(window.volume)  # before the seed column is built
    col = micro_left_column(n, params).points_array()
    out = []
    for t, cfg in enumerate(sample_trials(window, params.p, master_seed, t0, t1), t0):
        keep = RngStream(master_seed, (1 << 32) + t).uniform_block(0, len(col)) < tdensity
        T = {tuple(pt): 0 for pt in col[keep].tolist()}
        rep = macro_exploration(cfg, T, xi, params, n, mode=mode)
        clean = rep.audit_no_requeries and not rep.audit_box_overlaps
        out.append((rep.right_hits, clean, rep.T_prime_size))
    return out


def exploration_stat(trials: int, n: int, xi, params: RenormParams, tdensity: float,
                     master_seed: int, mode: str) -> dict:
    """Micro-to-macro explorations from random seed columns: the mean
    right-column hits, the trials with clean audits, and every |T'|."""
    args = (n, xi, params, tdensity, mode, master_seed)
    outcomes = run_trials(_exploration_trials, args, trials)
    return {
        "kind": "explore",
        "trials": trials,
        "mean_right_hits": sum(hits for hits, _, _ in outcomes) / trials,
        "audits_clean": sum(clean for _, clean, _ in outcomes),
        "t_prime_sizes": [size for _, _, size in outcomes],
    }
