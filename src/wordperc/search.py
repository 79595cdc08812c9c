"""Word-reachability searches over a configuration.

Three searches with one contract between them:

* ``one_connected_set``: ordinary 1-connectivity (the constant word).
* ``relaxed_word_reach``: BFS over (vertex, word-index) product states,
  allowing revisits.  A superset of the exact semantics, linear in
  |region| * max_index; always labeled as an upper bound.
* ``exact_word_reach``: depth-first backtracking over self-avoiding
  paths, pruned by the relaxed table (a state the relaxed search cannot
  reach is provably unreachable).  This is the paths-as-defined
  semantics; worst case exponential, meant for small boxes.

A source (x, t_x, word) reads its word starting at index t_x on x
itself: a path x = v_0 ~ ... ~ v_j = y arrives at y with index
t = t_x + j and requires color(v_i) = word[t_x + i] for every i.

Searches run inside an optional boolean mask over the configuration's
region (used for non-product domains like a box plus its seed face).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Configuration
from .errors import CapacityError, DomainError
from .geometry import Region, neighbor_ranks, neighbor_steps
from .words import Word, WordGenerator, enumerate_words

MAX_INDEX = 1 << 20
Point = tuple[int, ...]


@dataclass(frozen=True)
class SourceSet:
    """Sources (vertex, start offset, word id) with the id-indexed words."""

    entries: tuple[tuple[Point, int, int], ...]
    words: tuple

    def __post_init__(self):
        for _, t, wid in self.entries:
            if t < 0:
                raise DomainError("negative word offset")
            if not 0 <= wid < len(self.words):
                raise DomainError("word id out of range")

    @classmethod
    def single(cls, vertex: Point, word, offset: int = 0) -> "SourceSet":
        return cls(((tuple(vertex), offset, 0),), (word,))

    @classmethod
    def uniform(cls, vertices, word, offsets=None) -> "SourceSet":
        vs = [tuple(v) for v in vertices]
        if offsets is None:
            offsets = [0] * len(vs)
        return cls(tuple((v, t, 0) for v, t in zip(vs, offsets)), (word,))


@dataclass
class ReachResult:
    """Reached (vertex, index) pairs; arrival sets are integer bitsets."""

    region: Region
    arrivals: dict = field(default_factory=dict)  # Point -> int bitset of t
    min_arrival: dict = field(default_factory=dict)  # Point -> smallest t
    witnesses: dict | None = None  # Point -> path (vertex tuple)
    exact: bool = True
    index_hits: int = 0  # bitset of indices at which anything was reached

    def vertices(self) -> set[Point]:
        return set(self.min_arrival)

    def pairs(self) -> set[tuple[Point, int]]:
        out = set()
        for v, bits in self.arrivals.items():
            t = 0
            while bits:
                if bits & 1:
                    out.add((v, t))
                bits >>= 1
                t += 1
        return out

    def contains_pair(self, v: Point, t: int) -> bool:
        return bool((self.arrivals.get(tuple(v), 0) >> t) & 1)

    def issubset(self, other: "ReachResult") -> bool:
        return all(
            bits & ~other.arrivals.get(v, 0) == 0 for v, bits in self.arrivals.items()
        )


def _letters(word, upto: int) -> Word:
    """Materialize indices 0..upto of a Word or WordGenerator."""
    if isinstance(word, Word):
        if word.length <= upto:
            raise DomainError("word too short for requested index range")
        return word
    if isinstance(word, WordGenerator):
        return word.prefix(upto + 1)
    return Word.from_bits(word)


def region_mask(region: Region, parts) -> np.ndarray:
    """Rank-order membership mask of a union of subregions."""
    mask = np.zeros(region.volume, dtype=bool)
    pts = region.points_array()
    for part in parts:
        sub = np.ones(region.volume, dtype=bool)
        for axis, (lo, hi) in enumerate(part.intervals):
            sub &= (pts[:, axis] > lo) & (pts[:, axis] <= hi)
        mask |= sub
    return mask


from functools import lru_cache


@lru_cache(maxsize=256)
def _neighbor_bitmasks(intervals) -> tuple[int, ...]:
    nbr = neighbor_ranks(intervals)
    out = []
    for r in range(nbr.shape[0]):
        m = 0
        for u in nbr[r]:
            if u >= 0:
                m |= 1 << int(u)
        out.append(m)
    return tuple(out)


def _bits_of(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _relaxed_small(region, colors, mask, letters, groups_srcs, max_index, collect):
    """Bitmask product-state BFS for regions of at most 64 sites."""
    nbrmask = _neighbor_bitmasks(region.intervals)
    colors_int = 0
    mask_int = 0
    for r in range(region.volume):
        if colors[r]:
            colors_int |= 1 << r
        if mask[r]:
            mask_int |= 1 << r
    ones = colors_int & mask_int
    zeros = mask_int & ~colors_int
    minarr: dict[int, int] = {}
    arr_bits: dict[int, int] = {} if collect else None
    hits = 0
    by_t: dict[int, int] = {}
    for r, t in groups_srcs:
        by_t[t] = by_t.get(t, 0) | (1 << r)
    t_first = min(by_t)
    t_last = max(by_t)
    period2 = all(letters[i] == letters[i - 2] for i in range(2, max_index + 1))
    prev = prev2 = None
    cur = 0
    for t in range(t_first, max_index + 1):
        allowed = ones if letters[t] else zeros
        nxt = 0
        if prev is not None:
            for r in _bits_of(prev):
                nxt |= nbrmask[r]
            nxt &= allowed
        nxt |= by_t.get(t, 0) & allowed
        cur = nxt
        if cur:
            hits |= 1 << t
            for r in _bits_of(cur):
                if r not in minarr:
                    minarr[r] = t
                if arr_bits is not None:
                    arr_bits[r] = arr_bits.get(r, 0) | (1 << t)
        elif t >= t_last:
            break
        if (
            arr_bits is None
            and period2
            and t_last <= t - 2
            and prev2 is not None
            and cur == prev2
        ):
            hits |= ((1 << (max_index - t + 1)) - 1) << t
            break
        prev2, prev = prev, cur
    return minarr, arr_bits, hits


def _prepare(cfg: Configuration, sources: SourceSet, max_index: int, within):
    if max_index < 0:
        raise DomainError("max_index must be nonnegative")
    if max_index > MAX_INDEX:
        raise CapacityError(f"max_index capped at {MAX_INDEX}")
    region = cfg.region
    colors = cfg.bools()
    if within is None:
        mask = np.ones(region.volume, dtype=bool)
    else:
        mask = np.asarray(within, dtype=bool)
        if mask.shape != (region.volume,):
            raise DomainError("within-mask shape mismatch")
    groups: dict[int, list[tuple[int, int]]] = {}
    for v, t, wid in sources.entries:
        try:
            r = region.rank(v)  # also validates membership
        except DomainError:
            raise DomainError(f"source {v} outside the configuration region")
        if t > max_index:
            continue
        groups.setdefault(wid, []).append((r, t))
    nbr = neighbor_ranks(region.intervals)
    return region, colors, mask, nbr, groups


def one_connected_set(cfg: Configuration, S, region: Region | None = None, within=None) -> set[Point]:
    """Vertices 1-connected to S through 1-sites; S members count only if
    their own site is 1."""
    reg = cfg.region
    if region is not None and region.intervals != reg.intervals:
        raise DomainError("one_connected_set region must match the configuration")
    colors = cfg.bools()
    if within is not None:
        colors = colors & np.asarray(within, bool)
    open_ = colors.tobytes()  # plain-int indexing for the scalar loop
    kind, steps = neighbor_steps(reg.intervals)
    seen = bytearray(reg.volume)
    queue = []
    for v in S:
        if not reg.contains(v):
            raise DomainError(f"{v} outside region")
        r = reg.rank(v)
        if open_[r] and not seen[r]:
            seen[r] = 1
            queue.append(r)
    for r in queue:  # grows while it is walked: breadth-first order
        for s in steps[kind[r]]:
            u = r + s
            if open_[u] and not seen[u]:
                seen[u] = 1
                queue.append(u)
    return set(map(tuple, reg.points_array()[np.frombuffer(seen, bool)].tolist()))


def distance_map(cfg: Configuration, S, within=None) -> dict[Point, int]:
    """BFS distance through 1-sites from the 1-sites of S."""
    reg = cfg.region
    colors = cfg.bools()
    mask = np.ones(reg.volume, dtype=bool) if within is None else np.asarray(within, bool)
    nbr = neighbor_ranks(reg.intervals)
    dist = np.full(reg.volume, -1, dtype=np.int64)
    frontier = []
    for v in S:
        r = reg.rank(v)
        if colors[r] and mask[r] and dist[r] < 0:
            dist[r] = 0
            frontier.append(r)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for r in frontier:
            for u in nbr[r]:
                if u >= 0 and dist[u] < 0 and colors[u] and mask[u]:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return {reg.unrank(int(r)): int(dist[r]) for r in np.nonzero(dist >= 0)[0]}


def relaxed_word_reach(
    cfg: Configuration,
    sources: SourceSet,
    max_index: int,
    within=None,
    collect_arrivals: bool = True,
) -> ReachResult:
    """Product-state BFS; reached pairs form a superset of the exact ones."""
    region, colors, mask, nbr, groups = _prepare(cfg, sources, max_index, within)
    result = ReachResult(region, exact=False)
    if region.volume <= 64:
        for wid, srcs in groups.items():
            letters = _letters(sources.words[wid], max_index)
            mins, arrs, hits = _relaxed_small(
                region, colors, mask, letters, srcs, max_index, collect_arrivals
            )
            result.index_hits |= hits
            for r, t in mins.items():
                pt = region.unrank(r)
                if pt not in result.min_arrival or t < result.min_arrival[pt]:
                    result.min_arrival[pt] = t
                if arrs is not None:
                    result.arrivals[pt] = result.arrivals.get(pt, 0) | arrs[r]
        return result
    ones = colors & mask
    zeros = ~colors & mask
    minarr = np.full(region.volume, -1, dtype=np.int64)
    arr_bits = {} if collect_arrivals else None
    for wid, srcs in groups.items():
        letters = _letters(sources.words[wid], max_index)
        period2 = all(letters[i] == letters[i - 2] for i in range(2, max_index + 1))
        by_t: dict[int, list[int]] = {}
        for r, t in srcs:
            by_t.setdefault(t, []).append(r)
        t_first = min(by_t)
        t_last_inject = max(by_t)
        prev = None  # frontier at t-1
        prev2 = None  # frontier at t-2
        for t in range(t_first, max_index + 1):
            allowed = ones if letters[t] else zeros
            cur = np.zeros(region.volume, dtype=bool)
            if prev is not None:
                src_ranks = np.nonzero(prev)[0]
                for col in range(nbr.shape[1]):
                    tgt = nbr[src_ranks, col]
                    cur[tgt[tgt >= 0]] = True
                cur &= allowed
            for r in by_t.get(t, ()):
                if allowed[r]:
                    cur[r] = True
            no_pending = all(tt <= t for tt in by_t)
            if cur.any():
                result.index_hits |= 1 << t
                hit = np.nonzero(cur)[0]
                newly = hit[minarr[hit] < 0]
                minarr[newly] = t
                if arr_bits is not None:
                    for r in hit:
                        arr_bits[int(r)] = arr_bits.get(int(r), 0) | (1 << t)
            elif no_pending:
                break
            # period-2 letter windows repeat once the frontier matches two
            # steps back; arrivals are then complete (minima only; full
            # arrival bitsets keep accumulating, so no break there)
            if (
                arr_bits is None
                and period2
                and t_last_inject <= t - 2
                and prev2 is not None
                and np.array_equal(cur, prev2)
            ):
                result.index_hits |= ((1 << (max_index - t + 1)) - 1) << t
                break
            prev2, prev = prev, cur
    for r in np.nonzero(minarr >= 0)[0]:
        pt = region.unrank(int(r))
        result.min_arrival[pt] = int(minarr[r])
        if arr_bits is not None:
            result.arrivals[pt] = arr_bits[int(r)]
    return result


def _relaxed_table(colors, mask, nbr, letters, srcs, t0, t1):
    """Per-index reachability arrays for pruning the exact search."""
    vol = colors.shape[0]
    ones = colors & mask
    zeros = ~colors & mask
    table = []
    by_t: dict[int, list[int]] = {}
    for r, t in srcs:
        by_t.setdefault(t, []).append(r)
    frontier = np.zeros(vol, dtype=bool)
    for t in range(t0, t1 + 1):
        allowed = ones if letters[t] else zeros
        if t == t0:
            frontier = np.zeros(vol, dtype=bool)
        else:
            prev = frontier
            frontier = np.zeros(vol, dtype=bool)
            src_ranks = np.nonzero(prev)[0]
            for col in range(nbr.shape[1]):
                tgt = nbr[src_ranks, col]
                ok = tgt >= 0
                frontier[tgt[ok]] = True
            frontier &= allowed
        for r in by_t.get(t, ()):
            if allowed[r]:
                frontier[r] = True
        table.append(frontier)
    return table


def _useful_table(colors, mask, nbr, letters, t0, t1, target_mask, minarr, flavor):
    """Backward companion of the relaxed table: states from which the
    relaxed dynamics can still resolve a target.

    flavor "membership": a target y is unresolved while unreached.
    flavor "min": y is also worth improving at indices below its best
    known arrival.  Pruning on this table is sound for reached-vertex
    sets (membership) and minimal arrivals (min); it must not be used
    when the full (vertex, index) pair set is wanted.
    """
    vol = colors.shape[0]
    ones = colors & mask
    zeros = ~colors & mask
    unreached = target_mask.copy()
    best = np.full(vol, np.iinfo(np.int64).max, dtype=np.int64)
    for r, t in minarr.items():
        unreached[r] = False
        best[r] = t
    table = [None] * (t1 - t0 + 1)
    nxt = np.zeros(vol, dtype=bool)
    for t in range(t1, t0 - 1, -1):
        allowed = ones if letters[t] else zeros
        if t == t1:
            cur = np.zeros(vol, dtype=bool)
        else:
            cur = np.zeros(vol, dtype=bool)
            src_ranks = np.nonzero(nxt)[0]
            for col in range(nbr.shape[1]):
                tgt = nbr[src_ranks, col]
                ok = tgt >= 0
                cur[tgt[ok]] = True
            cur &= allowed
        goal = target_mask & allowed & unreached
        if flavor == "min":
            goal = goal | (target_mask & allowed & (best > t))
        cur |= goal
        table[t - t0] = cur
        nxt = cur
    return table


class _StopSearch(Exception):
    pass


def _dfs_small(region, colors, mask, letters, srcs, t_lo, t1, cap,
               record, node_budget, state):
    """Bitmask depth-first search for regions of at most 64 sites."""
    nbr = neighbor_ranks(region.intervals)
    kind, steps = neighbor_steps(region.intervals)
    letter_bits = tuple(letters[i] if i <= t1 else 0 for i in range(t1 + 1))
    col_int = 0
    mask_int = 0
    for r in range(region.volume):
        if colors[r]:
            col_int |= 1 << r
        if mask[r]:
            mask_int |= 1 << r
    # relaxed pruning table as int bitmasks
    table_np = _relaxed_table(colors, mask, nbr, letters, srcs, t_lo, t1)
    table = [
        int.from_bytes(np.packbits(f, bitorder="little").tobytes(), "little")
        for f in table_np
    ]
    for start, t_start in sorted(srcs, key=lambda s: (s[1], s[0])):
        sbit = 1 << start
        if not (mask_int & sbit) or ((col_int >> start) & 1) != letter_bits[t_start]:
            continue
        path = [start]
        visited = sbit
        record(start, t_start, path)
        stack = [(start, t_start, 0)]
        while stack:
            r, t, col = stack[-1]
            advanced = False
            if len(path) < cap:
                offs = steps[kind[r]]
                while col < len(offs):
                    u = r + offs[col]
                    col += 1
                    ubit = 1 << u
                    if visited & ubit or not (mask_int & ubit):
                        continue
                    tn = t + 1
                    if tn > t1 or ((col_int >> u) & 1) != letter_bits[tn]:
                        continue
                    if not (table[tn - t_lo] & ubit):
                        continue
                    state["nodes"] += 1
                    if node_budget is not None and state["nodes"] > node_budget:
                        raise CapacityError("exact search exceeded its node budget")
                    stack[-1] = (r, t, col)
                    stack.append((u, tn, 0))
                    visited |= ubit
                    path.append(u)
                    record(u, tn, path)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                visited &= ~(1 << r)
                path.pop()


def exact_word_reach(
    cfg: Configuration,
    sources: SourceSet,
    max_index: int,
    within=None,
    want_witness: bool = False,
    early_stop=None,
    stop_at_index: int | None = None,
    node_budget: int | None = None,
    max_path_len: int | None = None,
    prune_targets=None,
) -> ReachResult:
    """Self-avoiding word reachability with witness paths.

    early_stop: optional list of (mask, threshold) pairs; the search
    returns as soon as every mask holds at least threshold reached
    vertices (good-event decisions need only the thresholds).
    stop_at_index: return as soon as any arrival happens at this index.
    node_budget: cap on search-tree nodes; exceeding it raises
    CapacityError rather than returning a truncated answer.
    prune_targets: (mask, flavor) restricting the question to target
    vertices; the search additionally discards states from which no
    unresolved target is even relaxed-reachable.  flavor "membership"
    preserves the reached-vertex set on the mask, "min" also preserves
    minimal arrivals; full (vertex, index) pair sets are NOT preserved.
    """
    region, colors, mask, nbr, groups = _prepare(cfg, sources, max_index, within)
    result = ReachResult(region, exact=True)
    if want_witness:
        result.witnesses = {}
    mask_volume = int(mask.sum())
    reached_any = np.zeros(region.volume, dtype=bool)
    targets = None
    if early_stop:
        targets = [(np.asarray(m, bool), int(th)) for m, th in early_stop]
    counts = [0] * len(targets) if targets else None
    target_mask = flavor = None
    if prune_targets is not None:
        target_mask, flavor = np.asarray(prune_targets[0], bool), prune_targets[1]
        if flavor not in ("membership", "min"):
            raise DomainError(f"unknown prune flavor {flavor!r}")

    arr_bits: dict[int, int] = {}
    minarr: dict[int, int] = {}
    state = {"nodes": 0, "stale": 0}

    def record(rank: int, t: int, path: list[int]):
        prev = minarr.get(rank)
        improved = prev is None or t < prev
        if improved:
            minarr[rank] = t
        if target_mask is not None and improved and target_mask[rank]:
            state["stale"] += 1
        arr_bits[rank] = arr_bits.get(rank, 0) | (1 << t)
        result.index_hits |= 1 << t
        if not reached_any[rank]:
            reached_any[rank] = True
            if want_witness:
                result.witnesses[region.unrank(rank)] = tuple(
                    region.unrank(r) for r in path
                )
            if targets:
                for i, (m, th) in enumerate(targets):
                    if m[rank]:
                        counts[i] += 1
                if all(c >= th for c, (_, th) in zip(counts, targets)):
                    raise _StopSearch
        if stop_at_index is not None and t == stop_at_index:
            raise _StopSearch

    small = region.volume <= 64 and prune_targets is None
    try:
        for wid in sorted(groups):
            srcs = groups[wid]
            t_lo = min(t for _, t in srcs)
            cap = mask_volume if max_path_len is None else min(max_path_len, mask_volume)
            t1 = min(max_index, max(t for _, t in srcs) + cap - 1)
            letters = _letters(sources.words[wid], t1)
            if small:
                _dfs_small(
                    region, colors, mask, letters, srcs, t_lo, t1, cap,
                    record, node_budget, state,
                )
                continue
            table = _relaxed_table(colors, mask, nbr, letters, srcs, t_lo, t1)
            useful = None
            if target_mask is not None:
                useful = _useful_table(
                    colors, mask, nbr, letters, t_lo, t1, target_mask, minarr, flavor
                )
                state["stale"] = 0
                refresh_after = max(1024, 4 * mask_volume)
                nodes_at_refresh = state["nodes"]
            visited = np.zeros(region.volume, dtype=bool)
            for start, t_start in sorted(srcs, key=lambda s: (s[1], s[0])):
                if not mask[start] or colors[start] != letters[t_start]:
                    continue
                path = [start]
                visited[start] = True
                try:
                    record(start, t_start, path)
                    if useful is not None and not useful[t_start - t_lo][start]:
                        continue
                    stack = [(start, t_start, 0)]
                    while stack:
                        if (
                            useful is not None
                            and state["stale"]
                            and state["nodes"] - nodes_at_refresh >= refresh_after
                        ):
                            useful = _useful_table(
                                colors, mask, nbr, letters, t_lo, t1,
                                target_mask, minarr, flavor,
                            )
                            state["stale"] = 0
                            nodes_at_refresh = state["nodes"]
                        r, t, col = stack[-1]
                        advanced = False
                        if len(path) < cap:
                            while col < nbr.shape[1]:
                                u = int(nbr[r, col])
                                col += 1
                                if u < 0 or visited[u] or not mask[u]:
                                    continue
                                tn = t + 1
                                if tn > t1 or colors[u] != letters[tn]:
                                    continue
                                if not table[tn - t_lo][u]:
                                    continue
                                if useful is not None and not useful[tn - t_lo][u]:
                                    continue
                                state["nodes"] += 1
                                if node_budget is not None and state["nodes"] > node_budget:
                                    raise CapacityError(
                                        "exact search exceeded its node budget"
                                    )
                                stack[-1] = (r, t, col)
                                stack.append((u, tn, 0))
                                visited[u] = True
                                path.append(u)
                                record(u, tn, path)
                                advanced = True
                                break
                        if not advanced:
                            stack.pop()
                            visited[r] = False
                            path.pop()
                finally:
                    for r in path:
                        visited[r] = False
                    path.clear()
    except _StopSearch:
        pass
    for r, bits in arr_bits.items():
        pt = region.unrank(r)
        result.arrivals[pt] = bits
        result.min_arrival[pt] = minarr[r]
    return result


def verify_witness(cfg: Configuration, path, word, t_start: int) -> bool:
    """Replay a witness: self-avoiding and reading word[t_start..]."""
    if len(set(path)) != len(path):
        return False
    letters = _letters(word, t_start + len(path) - 1)
    prev = None
    for i, v in enumerate(path):
        if cfg.bit_at(v) != letters[t_start + i]:
            return False
        if prev is not None and sum(abs(a - b) for a, b in zip(prev, v)) != 1:
            return False
        prev = v
    return True


def sees_all_words(
    cfg: Configuration,
    from_region: Region,
    length: int,
    horizon: Region | None = None,
    mode: str = "exact",
):
    """Whether every word of the given length is read from some vertex of
    from_region along a path inside the horizon. Returns (ok, failing)."""
    if length < 0:
        raise DomainError("negative word length")
    if length > 24:
        raise CapacityError("sees_all_words capped at L <= 24")
    if mode not in ("exact", "relaxed"):
        raise DomainError(f"unknown mode {mode!r}")
    if length == 0:
        return True, None
    reg = cfg.region
    within = None if horizon is None else region_mask(reg, [horizon])
    starts = [p for p in from_region.iter_points() if reg.contains(p)]
    if not starts:
        raise DomainError("from-region does not meet the configuration region")
    for word in enumerate_words(length):
        src = SourceSet.uniform(starts, word)
        if mode == "relaxed":
            res = relaxed_word_reach(cfg, src, length - 1, within, collect_arrivals=False)
        else:
            res = exact_word_reach(cfg, src, length - 1, within, stop_at_index=length - 1)
        if not (res.index_hits >> (length - 1)) & 1:
            return False, word
    return True, None
