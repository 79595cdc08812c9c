"""Executable spanning-forest coupling.

Two configurations (omega, omega_tilde) are grown together so that each
is a Bernoulli(p) product sample, while every vertex 1-connected to the
source set S in omega is word-connected to a source in omega_tilde, with
the connecting forest branch as an explicit certificate.

Exploration: repeatedly take the minimum (in rank order) unexplored
vertex y' that neighbors an explored 1-vertex, attach it under its
minimum explored 1-neighbor y at forest depth d+1, and draw the pair of
colors from the three-way table (w = word of y's tree, read at d+1):

    (1, w[d+1])   with prob p
    (0, 0)        with prob 1-2p if w[d+1] = 0, else 1-p
    (0, 1)        with prob p    if w[d+1] = 0

Sources are handled by the same table at index 0 (so omega_tilde starts
reading the word on the source itself).  The alternative convention that
reads only from index 1 leaves the source's omega_tilde color an
independent Bernoulli(p) draw; it is available via start_index=1.
Undiscovered vertices are filled i.i.d. at the end, in rank order, two
uniforms each (omega, then omega_tilde).

Draws: every vertex consumes at most two uniforms, so pair t takes all of
them from row t of one grid, raw_grid(seed, t0, t1, 0, 2 * volume), which
couple_block draws for a block of trials (config.trial_blocks over
2 * volume sites), in exploration order: one per table draw, two per
start_index=1 source and per filled vertex; wierman_couple draws its one
row with the stream's raw_block.  The draws are read only as u < p and
u < 2p (rng.below, the bits of the float comparisons), and row t is
bit-identical to stream t's scalar draws, so identical inputs reproduce
identical pairs bit for bit.

The table's omega colour is u < p whatever the letter, so the exploration
order depends on omega alone: the per-row loop only explores, recording
each vertex's parent, depth and tree.  One finish over the block then
reads each distinct word once (Word.letters, WordGenerator.letters), as
far as the block's deepest vertex, and sets omega_tilde to "u < 2p and
omega equal to the letter", which is the table since u < p implies
u < 2p.  A finite Word that is too short fails only when an exploration
reads past its end.  verify_block checks a block of certificates with
array operations and the stacked 1-connectivity sweep of
search.one_connected_block, reading the words itself rather than through
the finish; wierman_couple and verify_coupling are the one-row cases of
couple_block and verify_block.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from .config import Configuration, Provenance, check_sites
from .errors import DomainError
from .geometry import Region, neighbor_steps
from .rng import RngStream, below, raw_grid
from .search import one_connected_block
from .words import Word, WordGenerator


class CoupledPair:
    """Result of one coupling run; array-backed, views built on demand."""

    def __init__(self, region, omega, omega_tilde, parent, root_idx, depth,
                 explored, sources, words, start_index, provenance):
        self.region = region
        self.omega = omega
        self.omega_tilde = omega_tilde
        self._parent = parent          # rank -> parent rank, -1 root, -2 none
        self._root_idx = root_idx      # rank -> source index, -1 none
        self._depth = depth            # rank -> forest depth, -1 none
        self._explored = explored      # bool per rank
        self.sources = sources         # tuple of points
        self.words = words             # tuple aligned with sources
        self.start_index = start_index
        self.provenance = provenance

    def branch(self, v) -> list:
        """Forest path from v's root source down to v."""
        r = self.region.rank(v)
        if not self._explored[r]:
            raise DomainError(f"{v} was not explored")
        path = []
        while r >= 0:
            path.append(self.region.unrank(int(r)))
            r = self._parent[r]
        return path[::-1]


def _letter_plane(words, tree, depth, start_index) -> np.ndarray:
    """Letter depth[x] of words[tree[x]] at every vertex x of the planes
    (anything at unexplored vertices, where both are -1).  Each distinct
    word object is read once, as far as the deepest vertex (a finite Word
    only to its end); a read past the end of a finite Word, at a depth of
    at least start_index, fails as too short."""
    n = int(depth.max(initial=0)) + 1  # every source is explored at depth 0
    table = np.zeros((len(words), n), dtype=bool)  # row i: words[i]'s letters
    read: dict[int, np.ndarray] = {}
    for i, w in enumerate(words):
        letters = read.get(id(w))
        if letters is None:
            if isinstance(w, Word):
                letters = w.letters()[:n]
            elif isinstance(w, WordGenerator):
                letters = w.letters(n)
            else:
                raise DomainError("words must be Word or WordGenerator instances")
            read[id(w)] = letters
        table[i, :len(letters)] = letters
        if len(letters) < n and (depth[tree == i] >= max(len(letters), start_index)).any():
            raise DomainError("coupling word too short; use a generator")
    return table[tree, depth]


def couple_block(
    region: Region,
    S,
    words,
    p: float,
    master_seed: int,
    t0: int,
    t1: int,
    start_index: int = 0,
) -> list[CoupledPair]:
    """The coupled pairs of trials t0..t1-1 on `region` from sources S with
    their words; pair t draws from stream (master_seed, t) and equals
    wierman_couple(..., RngStream(master_seed, t), start_index).  A region
    above config.MAX_SITES is refused before any draw."""
    return _couple(region, S, words, p, start_index,
                   lambda span: raw_grid(master_seed, t0, t1, 0, span),
                   [Provenance(p, master_seed, t) for t in range(t0, t1)])


def wierman_couple(
    region: Region,
    S,
    words,
    p: float,
    rng: RngStream,
    start_index: int = 0,
) -> CoupledPair:
    """Grow the coupled pair on `region` from sources S with their words
    (couple_block's one-row case, drawn from the stream's own base)."""
    return _couple(region, S, words, p, start_index,
                   lambda span: rng.raw_block(0, span)[None],
                   [Provenance(p, rng.master_seed, rng.stream_id)])[0]


def _couple(region, S, words, p, start_index, draw, provs) -> list[CoupledPair]:
    """One pair per row of the raw grid draw(2 * volume), in order, with
    the given provenances (one per row)."""
    if not 0.0 <= p <= 0.5:
        raise DomainError(
            "coupling table needs p <= 1/2; flip colors to fold p into range"
        )
    if start_index not in (0, 1):
        raise DomainError("start_index must be 0 or 1")
    sources = tuple(tuple(v) for v in S)
    if len(set(sources)) != len(sources):
        raise DomainError("duplicate source vertices")
    if isinstance(words, (Word, WordGenerator)):
        words = [words] * len(sources)
    words = tuple(words)
    if len(words) != len(sources):
        raise DomainError("need one word per source")
    src_ranks = []
    for v in sources:
        try:
            src_ranks.append(region.rank(v))
        except DomainError:
            raise DomainError(f"source {v} outside the region") from None
    vol = region.volume
    check_sites(vol)
    kind, steps = neighbor_steps(region.sizes)
    rows, span = len(provs), 2 * vol
    raw = draw(span)
    lt_p, lt_2p = below(raw, p), below(raw, 2 * p)
    del raw
    # as bytes the draws index to small ints, so the loop allocates nothing
    # per draw; k runs over the whole block, row t's draws at t * span
    below_p, below_2p = lt_p.tobytes(), lt_2p.tobytes()
    # the block's planes: parent rank (-1 root, -2 unexplored), depth and
    # tree of every vertex (-1 unexplored); then omega of every explored
    # vertex, the u < 2p bit of its draw (a start_index=1 source's free
    # omega_tilde color instead) and the explored flags
    n = rows * vol
    forest = np.full((3, rows, vol), -1, dtype=np.int64)
    forest[0] = -2
    planes, flags = memoryview(forest.reshape(-1)), bytearray(3 * n)
    stripes = memoryview(flags)
    ends = []  # draws each row consumed before its fill
    for row in range(rows):
        k, a, b = row * span, row * vol, row * vol + vol
        parent, depth, tree = planes[a:b], planes[n + a:n + b], planes[2 * n + a:2 * n + b]
        aux = stripes[n + a:n + b]
        # omega is written only on exploration, so before the fill its 1s
        # are exactly the explored 1-vertices, the ones that may adopt
        omega = bytearray(vol)
        seen = bytearray(vol)  # explored or queued; every queued vertex gets explored
        for i, r in enumerate(src_ranks):
            parent[r], depth[r], tree[r] = -1, 0, i
            aux[r] = below_p[k + 1] if start_index else below_2p[k]
            seen[r] = 1
            if below_p[k]:
                omega[r] = 1
            k += 1 + start_index
        # frontier: unexplored neighbors of explored 1-vertices, popped in
        # rank order
        heap = []
        for r in src_ranks:
            if omega[r]:
                for s in steps[kind[r]]:
                    x = r + s
                    if not seen[x]:
                        seen[x] = 1
                        heap.append(x)
        heapify(heap)
        while heap:
            r = heappop(heap)
            # minimum explored 1-neighbor adopts the new vertex; one exists,
            # since r was queued by one and explored vertices stay explored
            for s in steps[kind[r]]:
                y = r + s
                if omega[y]:
                    break
            parent[r] = y
            depth[r] = depth[y] + 1
            tree[r] = tree[y]
            aux[r] = below_2p[k]
            if below_p[k]:
                omega[r] = 1
                for s in steps[kind[r]]:
                    x = r + s
                    if not seen[x]:
                        seen[x] = 1
                        heappush(heap, x)
            k += 1
        flags[a:b], flags[2 * n + a:2 * n + b] = omega, seen
        ends.append(k - row * span)
    del below_p, below_2p, lt_2p  # the fill reads lt_p alone

    parent, depth, tree = forest[0], forest[1], forest[2]
    flags = np.frombuffer(flags, dtype=bool).reshape(3, rows, vol)
    om, ti, explored = flags[0], flags[1], flags[2]
    # the three-way table on every vertex that reads its word: omega_tilde
    # is the letter where u < p, else 1 iff the letter is 0 and u < 2p; as
    # u < p implies u < 2p, that is u < 2p and omega equal to the letter.
    # Vertices at a depth below start_index keep their draw: a
    # start_index=1 source its free colour, an unexplored vertex its fill
    ti &= (om == _letter_plane(words, tree, depth, start_index)) | (depth < start_index)
    # fill undiscovered vertices i.i.d., two uniforms each (omega, then
    # omega_tilde), rank order
    for row, k in enumerate(ends):
        rest = ~explored[row]
        end = k + 2 * np.count_nonzero(rest)
        om[row][rest] = lt_p[row, k:end:2]
        ti[row][rest] = lt_p[row, k + 1:end:2]

    configs = Configuration.from_rows(region, flags[:2].reshape(2 * rows, vol), provs * 2)
    return [CoupledPair(region, configs[row], configs[rows + row], parent[row], tree[row],
                        depth[row], explored[row], sources, words, start_index, provs[row])
            for row in range(rows)]


def verify_block(pairs) -> list[tuple[bool, str | None]]:
    """verify_coupling of each pair, with O(volume) array operations over
    the whole block.  The pairs share their region, sources, words and
    start_index, as couple_block's do.

    search.one_connected_block recomputes the 1-clusters of S
    independently, in one stacked sweep; each must equal its forest's
    explored 1-vertices.  Every explored non-root must hang under an
    explored 1-vertex, one level deeper and in the same tree, and every
    root must be the source its tree names, at depth 0.  Then every parent
    is a cluster vertex, so the branches of cluster vertices run through
    cluster vertices only, and a vertex's offset on its branch is its
    depth.  Checking each cluster vertex's own omega_tilde letter against
    word[root_idx][depth] therefore checks every branch letter, which is
    what replaying the branches would do.

    Returns one (ok, info) per pair; info locates the pair's first failure.
    """
    if not pairs:
        return []
    head = pairs[0]
    region, sources, words = head.region, head.sources, head.words
    if any((q.region, q.sources, q.words, q.start_index)
           != (region, sources, words, head.start_index) for q in pairs[1:]):
        raise DomainError("verify_block needs pairs of one region, sources, words "
                          "and start_index")
    omega = np.array([q.omega.bools() for q in pairs])
    tilde = np.array([q.omega_tilde.bools() for q in pairs])
    explored = np.array([q._explored for q in pairs])
    rows, vol = omega.shape
    parent = np.array([q._parent for q in pairs])
    depth = np.array([q._depth for q in pairs])
    root_idx = np.array([q._root_idx for q in pairs])
    ones = explored & omega
    stray = one_connected_block(region, omega, sources) != ones
    # the forest checks run on the explored vertices only: the rank-th
    # vertex of row row_of, x = base + rank flat over the block
    row_of, rank = explored.nonzero()
    base = row_of * vol
    x = base + rank
    up, dep, tree = parent.ravel()[x], depth.ravel()[x], root_idx.ravel()[x]
    kid = up != -1
    # a root must sit at depth 0 on the source its tree names; a name out
    # of range points at the sentinel rank -1
    n_src = len(sources)
    src_rank = np.array([region.rank(s) for s in sources] + [-1])
    names = np.where((tree >= 0) & (tree < n_src), tree, n_src)
    misplaced = ~kid & ((dep != 0) | (src_rank[names] != rank))
    # each kid's parent wrapped into the region (a parent out of range is
    # no rank at all), then made flat over the block
    orphan = up % vol
    orphan, up = kid & (orphan != up), orphan + base
    # (what fails, message) in the order they are reported
    checks = [
        (orphan, "explored vertex {v} has no parent"),
        (kid & ~ones.ravel()[up], "{v}: parent is not an explored 1-vertex"),
        (kid & (dep != depth.ravel()[up] + 1), "{v}: depth is not its parent's plus one"),
        (kid & (tree != root_idx.ravel()[up]), "{v}: tree differs from its parent's"),
        (misplaced, "root {v} is not its tree's source at depth 0"),
    ]
    failed = stray.any(axis=1)
    failed[row_of[checks[0][0] | checks[1][0] | checks[2][0] | checks[3][0] | misplaced]] = True
    # read letters only where the forest holds up: there depths and trees
    # are those of real branches
    reads = ones.ravel()[x] & ~failed[row_of]
    if head.start_index:
        reads &= dep > 0
    # the letters the branches must carry, letter dep of words[tree], read
    # here from each source's word: the finish's own reads are what is checked
    at, trees = dep[reads], tree[reads]
    want = np.zeros(len(at), dtype=bool)
    for i, w in enumerate(words):
        mine = trees == i
        if mine.any():
            d = at[mine]
            n = int(d.max()) + 1
            letters = w.letters() if isinstance(w, Word) else w.letters(n)
            if len(letters) < n:
                raise DomainError("coupling word too short; use a generator")
            want[mine] = letters[d]
    wrong = tilde.ravel()[x[reads]] != want
    if np.count_nonzero(wrong):
        misread = np.zeros(len(x), dtype=bool)
        misread[reads] = wrong
        checks.append((misread, "{v} misreads its tree's word at depth {d}"))
        failed[row_of[misread]] = True

    out = [(True, None)] * rows
    for row in failed.nonzero()[0].tolist():
        if stray[row].any():
            pts = region.points_array()[stray[row]]
            out[row] = (False, "forest 1-vertices disagree with the 1-cluster at "
                               f"{sorted(map(tuple, pts.tolist()))[:3]}")
            continue
        mine = row_of == row
        for fails, text in checks:
            bad = (fails & mine).nonzero()[0]
            if bad.size:
                r = int(rank[bad[0]])
                out[row] = (False, text.format(v=region.unrank(r), d=depth[row, r]))
                break
    return out


def verify_coupling(pair: CoupledPair):
    """Check one pair's certificate (verify_block's one-row case).

    Returns (ok, info); info locates a failure.
    """
    return verify_block([pair])[0]
