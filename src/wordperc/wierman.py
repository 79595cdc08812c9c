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

Draws: every vertex consumes at most two uniforms, so a pair takes all of
them from one block, raw_block(0, 2 * volume), in exploration order:
one per table draw, two per start_index=1 source and per filled vertex.
The block is read only as u < p and u < 2p (rng.below, the bits of the
float comparisons) and is bit-identical to scalar draws, so identical
inputs reproduce identical pairs bit for bit.  Word letters are read
lazily, each (word, index) once, so a finite Word that is too short fails
only when the exploration actually reaches its end.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from .config import Configuration, Provenance
from .errors import DomainError
from .geometry import Region, neighbor_steps
from .rng import RngStream, below
from .search import one_connected_set
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


def _letter(word, i: int) -> int:
    if isinstance(word, Word):
        if i >= word.length:
            raise DomainError("coupling word too short; use a generator")
        return word[i]
    if isinstance(word, WordGenerator):
        return word.bit(i)
    raise DomainError("words must be Word or WordGenerator instances")


def _letter_rows(words) -> list[list[int]]:
    """One lazily grown letter list per source; sources that share a word
    object share its list."""
    rows: dict[int, list[int]] = {}
    return [rows.setdefault(id(w), []) for w in words]


def _read(row: list[int], word, i: int) -> int:
    """Letter i of word, first reading every letter not yet in row."""
    while len(row) <= i:
        row.append(_letter(word, len(row)))
    return row[i]


def _table(below_p: int, below_2p: int, letter: int) -> tuple[int, int]:
    """The three-way coupling table: colors (omega, omega_tilde) from a
    uniform u, given as the outcomes of u < p and u < 2p."""
    if below_p:
        return 1, letter
    if letter == 0 and below_2p:
        return 0, 1
    return 0, 0


def wierman_couple(
    region: Region,
    S,
    words,
    p: float,
    rng: RngStream,
    start_index: int = 0,
) -> CoupledPair:
    """Grow the coupled pair on `region` from sources S with their words."""
    if not 0.0 <= p <= 0.5:
        raise DomainError(
            "coupling table needs p <= 1/2; flip colors to fold p into range"
        )
    if start_index not in (0, 1):
        raise DomainError("start_index must be 0 or 1")
    sources = [tuple(v) for v in S]
    if len(set(sources)) != len(sources):
        raise DomainError("duplicate source vertices")
    if isinstance(words, (Word, WordGenerator)):
        words = [words] * len(sources)
    words = list(words)
    if len(words) != len(sources):
        raise DomainError("need one word per source")
    vol = region.volume
    kind, steps = neighbor_steps(region.sizes)
    # the uniforms enter only through u < p and u < 2p; as bytes they index
    # to small ints, so the scalar loop allocates no float per draw
    raw = rng.raw_block(0, 2 * vol)
    lt_p = below(raw, p)
    below_p, below_2p = lt_p.tobytes(), below(raw, 2 * p).tobytes()
    k = 0  # uniforms consumed
    rows = _letter_rows(words)
    # omega is written only on exploration, so before the fill its 1s are
    # exactly the explored 1-vertices, the ones that may adopt
    omega = bytearray(vol)
    tilde = bytearray(vol)
    seen = bytearray(vol)  # explored or queued; every queued vertex gets explored
    at = {}  # explored 1-vertex -> (depth, source index)
    record = []  # (rank, parent, depth, source index) per explored vertex

    for i, v in enumerate(sources):
        if not region.contains(v):
            raise DomainError(f"source {v} outside the region")
        r = region.rank(v)
        if start_index == 0:
            w, wt = _table(below_p[k], below_2p[k], _read(rows[i], words[i], 0))
            k += 1
        else:
            w, wt = below_p[k], below_p[k + 1]
            k += 2
        omega[r], tilde[r], seen[r] = w, wt, 1
        record.append((r, -1, 0, i))
        if w:
            at[r] = (0, i)

    # frontier: unexplored neighbors of explored 1-vertices, popped in rank order
    heap = []
    for r in at:
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
        d, i = at[y]
        d += 1
        row = rows[i]
        w, wt = _table(below_p[k], below_2p[k],
                       row[d] if d < len(row) else _read(row, words[i], d))
        k += 1
        omega[r], tilde[r] = w, wt
        record.append((r, y, d, i))
        if w:
            at[r] = (d, i)
            for s in steps[kind[r]]:
                x = r + s
                if not seen[x]:
                    seen[x] = 1
                    heappush(heap, x)

    # fill undiscovered vertices i.i.d., two uniforms each, rank order
    om = np.frombuffer(omega, dtype=bool)
    ti = np.frombuffer(tilde, dtype=bool)
    explored = np.frombuffer(seen, dtype=bool)
    rest = np.flatnonzero(~explored)
    n = rest.size
    om[rest] = lt_p[k:k + 2 * n:2]
    ti[rest] = lt_p[k + 1:k + 2 * n:2]

    rec = np.array(record, dtype=np.int64).reshape(-1, 4)

    def scatter(col, none):
        out = np.full(vol, none, dtype=np.int64)
        out[rec[:, 0]] = rec[:, col]
        return out

    prov = Provenance(p, rng.master_seed, rng.stream_id)
    return CoupledPair(
        region,
        Configuration.from_bools(region, om, prov),
        Configuration.from_bools(region, ti, prov),
        scatter(1, -2),
        scatter(3, -1),
        scatter(2, -1),
        explored,
        tuple(sources),
        tuple(words),
        start_index,
        prov,
    )


def verify_coupling(pair: CoupledPair):
    """Check the certificate with O(volume) array operations.

    one_connected_set recomputes the 1-cluster of S independently; it must
    equal the forest's explored 1-vertices.  Every explored non-root must
    hang under an explored 1-vertex, one level deeper and in the same tree,
    and every root must be the source its tree names, at depth 0.  Then
    every parent is a cluster vertex, so the branches of cluster vertices
    run through cluster vertices only, and a vertex's offset on its branch
    is its depth.  Checking each cluster vertex's own omega_tilde letter
    against word[root_idx][depth] therefore checks every branch letter,
    which is what replaying the branches would do.

    Returns (ok, info); info locates a failure.
    """
    region = pair.region
    omega_bits = pair.omega.bools()
    tilde_bits = pair.omega_tilde.bools()
    explored, parent = pair._explored, pair._parent
    depth, root_idx = pair._depth, pair._root_idx
    ones = explored & omega_bits
    cluster = one_connected_set(pair.omega, pair.sources)
    forest_ones = set(map(tuple, region.points_array()[ones].tolist()))
    if cluster != forest_ones:
        missing = cluster ^ forest_ones
        return False, f"forest 1-vertices disagree with the 1-cluster at {sorted(missing)[:3]}"

    n_src = len(pair.sources)
    e = np.flatnonzero(explored)
    pe = parent[e]
    is_root = pe == -1
    roots, kids, pk = e[is_root], e[~is_root], pe[~is_root]
    bad = (pk < 0) | (pk >= region.volume)
    if bad.any():
        return False, f"explored vertex {region.unrank(int(kids[bad.argmax()]))} has no parent"
    for bad, what in (
        (~ones[pk], "parent is not an explored 1-vertex"),
        (depth[kids] != depth[pk] + 1, "depth is not its parent's plus one"),
        (root_idx[kids] != root_idx[pk], "tree differs from its parent's"),
    ):
        if bad.any():
            return False, f"{region.unrank(int(kids[bad.argmax()]))}: {what}"
    # a root must sit at depth 0 on the source its tree names; a name out
    # of range points at the sentinel rank -1
    names = root_idx[roots]
    names = np.where((names >= 0) & (names < n_src), names, n_src)
    src_rank = np.array([region.rank(s) for s in pair.sources] + [-1], dtype=np.int64)
    bad = (depth[roots] != 0) | (src_rank[names] != roots)
    if bad.any():
        r = int(roots[bad.argmax()])
        return False, f"root {region.unrank(r)} is not its tree's source at depth 0"

    c = np.flatnonzero(ones & (depth >= pair.start_index))
    rows = _letter_rows(pair.words)
    want = [_read(rows[i], pair.words[i], d)
            for i, d in zip(root_idx[c].tolist(), depth[c].tolist())]
    bad = tilde_bits[c] != np.array(want, dtype=bool)
    if bad.any():
        r = int(c[bad.argmax()])
        return False, f"{region.unrank(r)} misreads its tree's word at depth {depth[r]}"
    return True, None
