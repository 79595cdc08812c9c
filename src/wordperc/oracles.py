"""Independent brute-force implementations for small instances.

These are deliberately written against the definitions (explicit path
enumeration over point tuples) and share no machinery with the search
module, so they can act as oracles for it; ``verify_witness`` replays a
witness path the same way.
"""

from __future__ import annotations

from collections import deque

from .config import Configuration
from .geometry import Region, neighbors
from .search import SourceSet, _letters


def saw_reach_bruteforce(
    cfg: Configuration, sources: SourceSet, max_index: int, allowed=None
) -> set:
    """All (vertex, index) pairs reachable along self-avoiding paths.

    Plain recursive enumeration; exponential, for oracle use only.
    """
    region = cfg.region
    ok = (lambda p: True) if allowed is None else (lambda p: p in allowed)
    reached = set()

    def extend(v, t, letters, seen):
        reached.add((v, t))
        if t == max_index:
            return
        for u in neighbors(v, region):
            if u in seen or not ok(u):
                continue
            if cfg.bit_at(u) != letters[t + 1]:
                continue
            seen.add(u)
            extend(u, t + 1, letters, seen)
            seen.remove(u)

    for v, t0, wid in sources.entries:
        if t0 > max_index or not ok(v):
            continue
        letters = _letters(sources.words[wid], max_index)
        if cfg.bit_at(v) != letters[t0]:
            continue
        extend(v, t0, letters, {v})
    return reached


def walk_reach_bruteforce(
    cfg: Configuration, sources: SourceSet, max_index: int, allowed=None
) -> set:
    """All (vertex, index) pairs reachable along walks, revisits allowed.

    Plain breadth-first search over (point, index, word id) states, one
    state at a time; for oracle use only.
    """
    region = cfg.region
    ok = (lambda p: True) if allowed is None else (lambda p: p in allowed)
    letters = {}
    seen = set()
    queue = deque()
    for v, t0, wid in sources.entries:
        v = tuple(v)
        if t0 > max_index or not ok(v):
            continue
        if wid not in letters:
            letters[wid] = _letters(sources.words[wid], max_index)
        if cfg.bit_at(v) == letters[wid][t0] and (v, t0, wid) not in seen:
            seen.add((v, t0, wid))
            queue.append((v, t0, wid))
    while queue:
        v, t, wid = queue.popleft()
        if t == max_index:
            continue
        for u in neighbors(v, region):
            state = (u, t + 1, wid)
            if ok(u) and state not in seen and cfg.bit_at(u) == letters[wid][t + 1]:
                seen.add(state)
                queue.append(state)
    return {(v, t) for v, t, _ in seen}


def connected_bruteforce(cfg: Configuration, S, region: Region | None = None) -> set:
    """1-connected set via explicit simple-path enumeration."""
    region = region or cfg.region
    reached = set()

    def walk(v, seen):
        reached.add(v)
        for u in neighbors(v, region):
            if u not in seen and cfg.bit_at(u) == 1:
                seen.add(u)
                walk(u, seen)
                seen.remove(u)

    for x in S:
        if cfg.bit_at(x) == 1:
            walk(x, {x})
    return reached


def distance_map(cfg: Configuration, S, within=None) -> dict:
    """Graph distance through 1-sites from the 1-sites of S, inside the
    rank-order bitset within; plain breadth-first search over points."""
    region = cfg.region

    def ok(p):
        return cfg.bit_at(p) == 1 and (within is None or within >> region.rank(p) & 1)

    dist = {}
    frontier = []
    for v in map(tuple, S):
        if v not in dist and ok(v):
            dist[v] = 0
            frontier.append(v)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in neighbors(v, region):
                if u not in dist and ok(u):
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


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
