"""Word-reachability searches over a configuration.

Three searches with one contract between them:

* ``one_connected_set``: ordinary 1-connectivity (the constant word), the
  one-row case of ``one_connected_block``.
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

Every walk search is one kernel: a set of sites is a Python-int bitset
(bit r is rank r), and ``_step`` moves it to all its lattice neighbors
with one masked shift per axis direction (the shift-and idea of
Baeza-Yates and Gonnet, CACM 1992, applied on a lattice).  ``_sweep``
alternates steps with masking by the sites whose color is the next
letter: forward from the sources it gives the relaxed reach and the
exact search's pruning table, backward from the targets the table of
states that can still resolve one.  The exact search is a single
depth-first generator (``_paths``) with an int visited set over
``neighbor_steps``: it reads its table as ``bytes`` views of the fronts,
whose bit test costs the same at any offset, so a block search reads a
copy at its bit offset in place.  It yields each step,
``exact_word_reach`` consumes the steps in a plain loop that records
arrivals, checks its stop rules and returns, and ``_walks_to_end``, the
exact leaf check of the block searches, only asks whether a step reaches
a given index.

Both searches return their fronts, one rank-order bitset of the sites
reached at each index, in a ``ReachResult`` of at most (max_index + 1) *
volume bits; arrival sets, minimal arrivals and index hits are views of
them.  The one relaxed sweep loop, ``_relaxed_sweep``, stops early once
a period-2 word's fronts repeat, and the result keeps the last two.
``relaxed_reach_block`` runs it for a block of trials at once and keeps
no fronts; asked only which trials reach max_index, it stops a period-2
word one index past its last seed, where a copy's front is empty iff it
is empty at max_index, and is otherwise ``relaxed_word_reach``'s sweep
run on every copy at once (multi-spin coding, after Jacobs and Rebbi,
J. Comput. Phys. 41, 1981): trial k is the k-th copy of the region
along an extra axis that ``_step`` never steps, the per-axis edge masks
repeated once per copy, so one sweep over the stacked bitset advances
every trial.  ``one_connected_block`` runs the constant word 1 over the
same stacked lattice to its fixpoint, the 1-clusters of a block of
colourings at once.

``_nb_step`` is the non-backtracking step (Hashimoto's operator on the
directed edges, Adv. Stud. Pure Math. 15, 1989): 2d fronts per index,
one per direction of entry, each shifted from the union of every front
but the one that would step straight back.  Boxes of Z^d are bipartite
with girth 4, so a walk of at most 3 steps revisits a site only by
stepping straight back, and on a path no walk that never steps back
revisits one: there (``_decided``) ``_nb_sweep`` gives exact reach with
no depth-first search.  ``exact_reach_block`` to max_index <= 3, or on a
path, takes its answer from that sweep; otherwise it keeps the relaxed
sweep's fronts as every trial's forward table: since exact reach is a
subset of relaxed reach, a trial it does not reach at max_index fails,
and each other trial runs only ``_walks_to_end``, which reads the
trial's copy in place through byte views of the stacked fronts
(``_occupied`` tells the copies with a nonempty front in a few int
operations).

``sees_all_words_block`` walks the word trie depth first for a block of
trials at once, ``sees_all_words`` being its one-row case: the front of
a prefix is its parent's front stepped and masked by its last letter, so
words sharing a prefix share its fronts, and a trial fails at the first
leaf whose front is empty (the first word of the subtree that the empty
front settles).  Exact, for words of length at most 4 or on a path, the
fronts are the directional non-backtracking ones and decide the leaf
alike; for longer words on other regions a leaf also fails if its chain
of fronts admits no self-avoiding walk to its last index.  Its
start-ball and horizon bitsets are cached per pair of region intervals,
since every block asks for the same ones.

A search masks its colour bitsets straight from ``Configuration.bits``
(the same rank order).  Every site set a search takes (``within``, for
non-product domains like a box plus its seed face, the early-stop masks
and the prune targets) is such a rank-order bitset, as are the seeds a
``SourceSet`` holds per word and offset, and the pruned table is swept
back from the targets that the search's own fronts leave open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, chain, repeat
from operator import or_

import numpy as np

from .config import Configuration
from .errors import CapacityError, DomainError
from .geometry import Region, neighbor_steps, ranks_within
from .words import Word, WordGenerator, _occupied, _pack, _tile, _unpack, has_period_two

MAX_INDEX = 1 << 20
UNREACHED = MAX_INDEX + 1  # a first arrival past every index a search reads
Point = tuple[int, ...]


@dataclass(frozen=True)
class SourceSet:
    """Sources on a region: seeds[wid] maps each offset to the bitset of the
    ranks that read word wid from it on.  Points are ranked once, on entry."""

    region: Region
    seeds: tuple[dict[int, int], ...]
    words: tuple

    @classmethod
    def from_entries(cls, region: Region, entries, words) -> "SourceSet":
        """Sources (vertex, offset, word id) on region, each checked."""
        seeds: list[dict[int, int]] = [{} for _ in words]
        for v, t, wid in entries:
            if t < 0 or not 0 <= wid < len(words):
                raise DomainError("negative word offset" if t < 0 else "word id out of range")
            seeds[wid][t] = seeds[wid].get(t, 0) | 1 << int(region.rank(v))
        return cls(region, tuple(seeds), tuple(words))

    @classmethod
    def single(cls, region: Region, vertex: Point, word, offset: int = 0) -> "SourceSet":
        return cls.from_entries(region, ((vertex, offset, 0),), (word,))

    @classmethod
    def uniform(cls, region: Region, vertices, word, offsets=None) -> "SourceSet":
        offsets = repeat(0) if offsets is None else offsets
        return cls.from_entries(region, ((v, t, 0) for v, t in zip(vertices, offsets)), (word,))

    @property
    def entries(self) -> tuple[tuple[Point, int, int], ...]:
        """The sources as (vertex, offset, word id), by word id, offset and rank."""
        return tuple((tuple(v), t, wid) for wid, by_t in enumerate(self.seeds)
                     for t, bits in sorted(by_t.items())
                     for v in self.region.points_array()[_ranks(bits, self.region.volume)].tolist())


@dataclass
class ReachResult:
    """Reached (vertex, index) pairs as one rank-order bitset of sites per
    index: fronts[t] holds the ranks reached at index t.  A word whose
    relaxed sweep stopped on a period-2 repeat at index s adds (s, F_{s-1},
    F_s) to tails: at every index t in (s, max_index] it also reaches F_s
    if t - s is even and F_{s-1} if odd, which adds no vertex.  The views
    are built on first use, their dicts in rank order."""

    region: Region
    fronts: list[int]
    max_index: int
    exact: bool = True
    tails: tuple = ()
    witnesses: dict | None = None  # Point -> path (vertex tuple)

    def _indexed(self):
        """(front, bitset of the indices it is reached at), tails included."""
        for t, front in enumerate(self.fronts):
            yield front, 1 << t
        for s, odd, even in self.tails:
            n = self.max_index - s
            yield odd, _tile(1, 2, n) << s + 1
            yield even, _tile(2, 2, n) << s + 1

    @cached_property
    def reached(self) -> int:
        """The sites reached at some index, as a bitset."""
        return reduce(or_, self.fronts, 0)

    def first_arrivals(self, sites: int = -1) -> np.ndarray:
        """Per rank, the first index a site of sites is reached at, else UNREACHED."""
        first = np.full(self.region.volume, UNREACHED, dtype=np.int64)
        left = sites & self.reached
        for t, front in enumerate(self.fronts):
            if new := front & left:
                first[_unpack(new, first.size)] = t
                left ^= new
        return first

    def _points(self, ranks, values) -> dict:
        return dict(zip(map(tuple, self.region.points_array()[ranks].tolist()), values))

    @cached_property
    def min_arrival(self) -> dict:
        """Point -> smallest index it is reached at."""
        first = self.first_arrivals()
        ranks = np.flatnonzero(first < UNREACHED)
        return self._points(ranks, first[ranks].tolist())

    @cached_property
    def arrivals(self) -> dict:
        """Point -> int bitset of the indices it is reached at."""
        bits: dict[int, int] = {}
        for front, indices in self._indexed():
            for r in _ranks(front, self.region.volume).tolist():
                bits[r] = bits.get(r, 0) | indices
        return self._points(sorted(bits), [bits[r] for r in sorted(bits)])

    @cached_property
    def index_hits(self) -> int:
        """Bitset of the indices at which anything is reached."""
        return reduce(or_, (indices for front, indices in self._indexed() if front), 0)

    def vertices(self) -> set[Point]:
        return set(self.min_arrival)

    def pairs(self) -> set[tuple[Point, int]]:
        return {(v, t) for v, bits in self.arrivals.items()
                for t in range(bits.bit_length()) if bits >> t & 1}

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


def region_mask(region: Region, parts) -> int:
    """Rank-order bitset of a union of subregions, each cut to region."""
    mask = np.zeros(region.volume, dtype=bool)
    for part in parts:
        if (inside := part.intersect(region)) is not None:
            mask[ranks_within(inside, region)] = True
    return _pack(mask)


_PART_BITS: dict[tuple, int] = {}  # (intervals, part) -> _part_bits


def _part_bits(intervals, part) -> int:
    """The bitset of the subregion part of the region with these intervals,
    cached per pair: sees_all_words_block asks for the same ones every block.
    The cache is bounded by the bits it holds, 2^27 (16 MiB), not by its
    entries: the up to 65 start balls of a decay run in a radius-64 horizon
    in d = 3 all stay.  A pair that would pass the bound empties it first."""
    bits = _PART_BITS.get((intervals, part))
    if bits is None:
        bits = region_mask(Region(intervals), [Region(part)])
        if sum(b.bit_length() for b in _PART_BITS.values()) + bits.bit_length() > 1 << 27:
            _PART_BITS.clear()
        _PART_BITS[intervals, part] = bits
    return bits


def _ranks(bits: int, volume: int) -> np.ndarray:
    """The set ranks of a bitset, ascending."""
    return np.flatnonzero(_unpack(bits, volume))


@lru_cache(maxsize=32)
def _stacked(sizes, copies: int = 1):
    """Per axis (stride, up, down) of `copies` copies of a region with these
    axis sizes side by side along an extra axis that _step never takes: up
    holds the ranks r whose neighbor r + stride is in their copy, down
    those whose r - stride is; and the repunit with bit k * volume set for
    every copy k.  Keyed on the shape and the copies alone, so every box of
    one shape shares an entry, and so do a range's blocks but its last."""
    volume = math.prod(sizes)
    out = []
    stride = 1
    for size in sizes:
        # along an axis of this size, the ranks repeat in runs of stride
        # sites per coordinate; all but the last run step up, all but the
        # first step down
        inner = (1 << stride * (size - 1)) - 1
        out.append((stride, _tile(inner, stride * size, copies * volume),
                    _tile(inner << stride, stride * size, copies * volume)))
        stride *= size
    return tuple(out), _tile(1, volume, copies * volume)


def _step(front: int, lattice) -> int:
    """All lattice neighbors of a bitset; the lattice is undirected, so
    this one step serves forward and backward sweeps."""
    out = 0
    for stride, up, down in lattice:
        out |= (front & up) << stride | (front & down) >> stride
    return out


def _sweep(lattice, allowed, letters: int, indices, seeds: dict, front: int = 0):
    """Yield (t, F_t) for t in indices, F_t = (step(F_prev) | seeds[t]) &
    allowed[letter t]: the sites a walk reading the letters can occupy at
    index t after starting (forward) or before ending (backward) in a seed;
    F_prev is front before the first index."""
    for t in indices:
        front = (_step(front, lattice) | seeds.get(t, 0)) & allowed[letters >> t & 1]
        yield t, front


def _nb_step(fronts, lattice) -> list:
    """One non-backtracking step of directional fronts (Hashimoto's
    operator on the directed edges): fronts[2i] holds sites entered by
    +e_i, fronts[2i + 1] sites entered by -e_i, and so does the result for
    their neighbours.  A site leaves by every direction but straight back,
    so the shift along +e_i takes the union of every front but
    fronts[2i + 1]: the 2d masked shifts of _step."""
    pairs = list(zip(fronts[::2], fronts[1::2]))
    axes = [plus | minus for plus, minus in pairs]
    out = []
    for i, ((stride, up, down), (plus, minus)) in enumerate(zip(lattice, pairs)):
        rest = reduce(or_, axes[:i] + axes[i + 1:], 0)
        out += ((rest | plus) & up) << stride, ((rest | minus) & down) >> stride
    return out


def _nb_sweep(lattice, allowed, letters: int, indices, seeds: dict, fronts=0):
    """_sweep over non-backtracking walks from the seeds at index 0 (the
    only ones its callers have): yield (t, D_t) for t in indices, D_t the
    directional fronts (see _nb_step) of the sites such a walk reading the
    letters can occupy at index t; fronts is D before the first index.  A
    seed leaves every way: it stands in every front."""
    for t in indices:
        moved = _nb_step(fronts, lattice) if t else [seeds[0]] * (2 * len(lattice))
        fronts = [front & allowed[letters >> t & 1] for front in moved]
        yield t, fronts


def _decided(sizes, last_index: int) -> bool:
    """Whether non-backtracking walks of last_index steps on a region of
    these axis sizes (or any part of it) are exactly its self-avoiding
    ones.  Boxes of Z^d are bipartite with girth 4, so a walk of at most 3
    steps revisits a site only by stepping straight back; on a path (at
    most one axis longer than one site) no walk that never steps back
    revisits a site."""
    return last_index <= 3 or sum(size > 1 for size in sizes) <= 1


def _groups(region: Region, sources: SourceSet, max_index: int) -> dict[int, dict[int, int]]:
    """Each word id's seeds up to max_index; the sources must lie on region."""
    if max_index < 0:
        raise DomainError("max_index must be nonnegative")
    if max_index > MAX_INDEX:
        raise CapacityError(f"max_index capped at {MAX_INDEX}")
    if sources.region.intervals != region.intervals or min(chain(*sources.seeds), default=0) < 0:
        raise DomainError("sources must lie on the search's region, at nonnegative offsets")
    kept = ({t: bits for t, bits in by_t.items() if t <= max_index and _mask(bits, region.volume)}
            for by_t in sources.seeds)
    return {wid: by_t for wid, by_t in enumerate(kept) if by_t}


def _mask(mask, volume: int) -> int:
    """A site mask, checked like Configuration.bits: a rank-order bitset of
    the region, a nonnegative int below 2^volume."""
    if not isinstance(mask, int) or mask < 0 or mask >> volume:
        raise DomainError("a site mask must be a bitset of the region's ranks")
    return mask


def _allowed(cfg: Configuration, within):
    """The 0-sites and the 1-sites of cfg inside within (a site mask, or
    None for the whole region), as bitsets."""
    volume = cfg.region.volume
    inside = (1 << volume) - 1 if within is None else _mask(within, volume)
    return inside & ~cfg.bits, inside & cfg.bits


def _one_connected(region: Region, open_: int, copies: int, S) -> int:
    """The sites of the stacked copies of region 1-connected to S through
    open_, as a bitset: the constant word 1 swept to its fixpoint."""
    seeds = reduce(or_, (1 << int(region.rank(v)) for v in S), 0)
    lattice, repunit = _stacked(region.sizes, copies)
    seen = front = seeds * repunit & open_
    while front:
        front = _step(front, lattice) & open_ & ~seen
        seen |= front
    return seen


def one_connected_block(region: Region, colors: np.ndarray, S) -> np.ndarray:
    """For each row of colors (one rank-order colouring of region), the
    sites 1-connected to S through 1-sites, as a (rows, volume) bool array;
    S members count only if their own site is 1.  Every row is a copy of
    the stacked sweep of relaxed_reach_block."""
    copies, _, _, (_, ones) = _block(region, colors)
    seen = _one_connected(region, ones, copies, S)
    return _unpack(seen, copies * region.volume).reshape(copies, region.volume)


def one_connected_set(cfg: Configuration, S, within=None) -> set[Point]:
    """Vertices 1-connected to S through 1-sites (inside the site mask
    within); S members count only if their own site is 1.  The one-copy
    case of one_connected_block."""
    reg = cfg.region
    seen = _one_connected(reg, _allowed(cfg, within)[1], 1, S)
    return set(map(tuple, reg.points_array()[_unpack(seen, reg.volume)].tolist()))


def _relaxed_sweep(lattice, allowed, sources, groups, max_index, repunit=1, settle=False):
    """Yield (t, F_t, tail) along the relaxed sweep of each word id's
    sources in turn, seeded once per copy of the repunit.  An id's sweep
    stops past its last seed at an empty front, or, for period-2 letters,
    at a front equal to the one two steps back: its fronts then alternate
    F_{t-1}, F_t up to max_index, and tail is F_{t-1} (else None).

    settle is for a caller that asks only which copies of F_max_index are
    nonempty: a period-2 id's sweep then stops at the first index t past
    its last seed, with tail F_{t-1}, as a copy of F_t is empty iff its
    copy of F_max_index is.  For t past the last seed, every site v of F_t
    was stepped from a neighbour u in F_{t-1}, whose colour is letter
    t - 1 = letter t + 1, so u lies in F_{t+1}: a nonempty copy stays
    nonempty up to max_index, and an empty one stays empty."""
    for wid, by_t in groups.items():
        letters = _letters(sources.words[wid], max_index)
        period2 = has_period_two(letters, max_index)
        # a one-bit seed is spread over the copies by a shift, not a product
        seeds = {t: repunit << bits.bit_length() - 1 if bits & bits - 1 == 0 else bits * repunit
                 for t, bits in by_t.items()}
        t_last = max(seeds)
        prev = prev2 = None
        indices = range(min(seeds), max_index + 1)
        for t, front in _sweep(lattice, allowed, letters.bits, indices, seeds):
            if period2 and t > t_last and (settle or t > t_last + 1 and front == prev2):
                yield t, front, prev
                break
            yield t, front, None
            if not front and t >= t_last:
                break
            prev2, prev = prev, front


def reach_radius(word, max_index: int, relaxed: bool) -> int:
    """The sup-norm radius around one source at offset 0 within which a
    block reach to max_index reads colours, relaxed (relaxed_reach_block)
    or exact (exact_reach_block): a walk to index t stays within distance
    t of its source, and the relaxed sweep of a word of period at most 2
    up to max_index settles at index 1, the first past its seed (see
    _relaxed_sweep).  The reach on region & [source - r, source + r]^d,
    its sites keeping their colours, thus answers as on the region."""
    if relaxed and has_period_two(word, max_index):
        return min(max_index, 1)
    return max_index


def relaxed_word_reach(cfg: Configuration, sources: SourceSet, max_index: int,
                       within=None) -> ReachResult:
    """Product-state BFS; reached pairs form a superset of the exact ones.
    The one-copy relaxed sweep, its words' fronts united index by index."""
    region, groups = cfg.region, _groups(cfg.region, sources, max_index)
    allowed = _allowed(cfg, within)
    lattice, _ = _stacked(region.sizes, 1)
    fronts: list[int] = []
    tails = []
    for t, front, tail in _relaxed_sweep(lattice, allowed, sources, groups, max_index):
        fronts += [0] * (t + 1 - len(fronts))
        fronts[t] |= front
        if tail is not None:
            tails.append((t, tail, front))
    return ReachResult(region, fronts, max_index, exact=False, tails=tuple(tails))


def _block(region: Region, colors: np.ndarray):
    """(copies, lattice, repunit, allowed) of the rows of colors stacked as
    copies of region along an extra axis that _step never takes, allowed
    being the 0-sites and the 1-sites of every copy."""
    if colors.ndim != 2 or colors.shape[1] != region.volume:
        raise DomainError("colour block shape mismatch")
    copies, volume = colors.shape
    ones = _pack(colors)  # bit k * volume + r is rank r of trial k
    lattice, repunit = _stacked(region.sizes, copies)
    return copies, lattice, repunit, ((1 << copies * volume) - 1 & ~ones, ones)


def relaxed_reach_block(
    region: Region, colors: np.ndarray, sources: SourceSet, max_index: int,
    reached: bool = False,
) -> np.ndarray:
    """For each row of colors (one trial's rank-order colouring of region),
    whether relaxed_word_reach on it reaches anything at max_index (bit
    max_index of its index_hits).  The rows are stacked as copies of the
    region along an extra axis that _step never takes, and a trial
    succeeds iff its copy of the front at max_index is nonempty.  A word
    of period at most 2 up to max_index settles one index past its last
    seed (see _relaxed_sweep), where relaxed_word_reach sweeps on to its
    fronts' repeat.

    With reached, the (rows, volume) 0/1 array of the sites each trial
    reaches at some index up to max_index instead: the union of the
    fronts, which are the vertices of relaxed_word_reach's min_arrival.

    The sweep reads every word up to max_index, so a word shorter than
    that is a DomainError even where no walk could get so far."""
    groups = _groups(region, sources, max_index)
    copies, lattice, repunit, allowed = _block(region, colors)
    volume = region.volume
    sites = copies * volume
    hits = seen = 0
    for t, front, tail in _relaxed_sweep(lattice, allowed, sources, groups, max_index, repunit,
                                         settle=not reached):
        seen |= front
        # past the last seed, a copy of a period-2 front is empty iff its
        # copy at max_index is (a settled or repeating sweep's last front)
        if t == max_index or tail is not None:
            hits |= front
    if reached:
        return _unpack(seen, sites).reshape(copies, volume)
    return _unpack(hits, sites).reshape(copies, volume).any(axis=1)


def exact_reach_block(region: Region, colors: np.ndarray, sources: SourceSet,
                      max_index: int) -> np.ndarray:
    """For each row of colors, whether exact_word_reach(cfg, sources,
    max_index, stop_at_index=max_index) on it reaches index max_index,
    for the one source at offset 0 of a reach trial (any other source set
    is a DomainError).

    One sweep of the stacked rows from the source gives every trial's
    forward table, the fronts at indices 0..max_index.  Where the walks to
    max_index that never step straight back are the self-avoiding ones
    (max_index <= 3, or a path-shaped region; see _decided), the sweep is
    _nb_sweep and decides every trial: it succeeds iff its copy of the
    front at max_index is nonempty, and no depth-first step is taken.
    Otherwise it is the relaxed sweep: exact reach is a subset of relaxed
    reach, so a trial whose front at max_index is empty fails, and each
    other trial runs _walks_to_end at its copy's bit offset, reading the
    fronts in place as bytes views that replace them one by one: the steps
    exact_word_reach takes, over the same table in the same neighbour
    order.  No self-avoiding walk gets past index volume - 1 and
    exact_word_reach reads the word only that far, so the sweep stops at
    min(max_index, volume - 1), reading the same letters, and a larger
    max_index fails every trial.  The block keeps at most min(max_index,
    volume - 1) + 1 fronts of rows * volume bits, at most max(BLOCK_SITES,
    volume) for a block of config.trial_blocks."""
    if [{t: bits.bit_count() for t, bits in by_t.items()} for by_t in sources.seeds] != [{0: 1}]:
        raise DomainError("exact_reach_block takes one source at offset 0")
    start = _groups(region, sources, max_index)[0][0].bit_length() - 1  # checks max_index too
    volume = region.volume
    top = min(max_index, volume - 1)
    copies, lattice, repunit, allowed = _block(region, colors)
    letters = _letters(sources.words[0], top).bits
    directed = _decided(region.sizes, max_index)
    sweep = (_nb_sweep if directed else _sweep)(lattice, allowed, letters, range(top + 1),
                                                 {0: repunit << start})
    fronts = [reduce(or_, front) if directed else front for _, front in sweep]
    if max_index > top:
        return np.zeros(copies, dtype=bool)
    sites = copies * volume
    out = _unpack(_occupied(fronts[max_index], copies, volume), sites)[::volume]
    if not directed and out.any():
        kind, steps = neighbor_steps(region.sizes)
        for t, front in enumerate(fronts):  # in place: the block holds one table
            fronts[t] = front.to_bytes(-(-sites // 8), "little")
        for k in np.flatnonzero(out).tolist():
            out[k] = _walks_to_end(steps, kind, fronts, [start], max_index + 1, k * volume)
    return out


def _pruned(forward, lattice, allowed, letters, t0, target, fronts, flavor):
    """The forward table forward[t - t0] cut to the states from which the
    relaxed dynamics can still resolve a target (the backward companion
    of the forward table), as a new list; fronts are the search's own.

    flavor "membership": a target y is unresolved while unreached.
    flavor "min": y is also worth improving at indices t below its best
    known arrival, that is while it is in none of fronts[0..t].  Pruning
    on this table is sound for reached-vertex sets (membership) and
    minimal arrivals (min); it must not be used when the full (vertex,
    index) pair set is wanted.
    """
    t1 = t0 + len(forward) - 1
    if flavor == "min":
        reached = list(accumulate(fronts[:t1 + 1] + [0] * (t1 + 1 - len(fronts)), or_))[t0:]
    else:
        reached = [reduce(or_, fronts, 0)] * len(forward)
    goals = {t: target & ~seen for t, seen in enumerate(reached, t0)}
    useful = [f for _, f in _sweep(lattice, allowed, letters, range(t1, t0 - 1, -1), goals)]
    return [f & u for f, u in zip(forward, useful[::-1])]


def _paths(steps, kind, ok, t_lo, t_hi, cap, start, t_start, base=0):
    """Self-avoiding walks from start at index t_start, depth first in
    neighbor order, whose site at each index t lies in ok[t - t_lo], up to
    index t_hi and cap sites.  A row of ok is a bytes view of a bitset
    holding rank u at bit base + u, so a test costs the same at any
    offset of a stacked block.  Yields (rank, t, path) after every step,
    path being the stack of (rank, index, untried neighbor steps); the
    caller may stop iterating, or update ok in place between steps."""
    stack = [(start, t_start, iter(steps[kind[start]]))]
    visited = 1 << start
    while stack:
        r, t, nbrs = stack[-1]
        row = ok[t + 1 - t_lo] if len(stack) < cap and t < t_hi else b""  # b"": no step
        for s in nbrs if row else ():
            u = r + s
            b = base + u
            if row[b >> 3] >> (b & 7) & 1 and not visited >> u & 1:
                stack.append((u, t + 1, iter(steps[kind[u]])))
                visited |= 1 << u
                yield u, t + 1, stack
                break
        else:
            stack.pop()
            visited ^= 1 << r


def _walks_to_end(steps, kind, fronts, starts, length, base=0) -> bool:
    """Whether a self-avoiding walk from one of the start ranks reaches
    index length - 1 with its site at each index t in fronts[t], a bytes
    view holding rank u at bit base + u."""
    first = fronts[0]
    for r in starts:
        b = base + r
        if first[b >> 3] >> (b & 7) & 1:
            for _, t, _ in _paths(steps, kind, fronts, 0, length - 1, length, r, 0, base):
                if t == length - 1:
                    return True
    return False


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

    within and the masks below are rank-order bitsets of the region.
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

    One loop over the sources' starts and the steps of their walks: a
    step counts against the node budget, each start and step is recorded
    (arrival, first-arrival counts, witness) and checked against the stop
    rules, and the pruned table is rebuilt from the fronts once enough
    target arrivals improved since the last build.  Node counts, and so
    which searches exceed a budget, depend on this order.
    """
    region, groups = cfg.region, _groups(cfg.region, sources, max_index)
    allowed = _allowed(cfg, within)
    lattice = _stacked(region.sizes)[0]
    kind, steps = neighbor_steps(region.sizes)
    mask_volume = (allowed[0] | allowed[1]).bit_count()
    stops = [[_mask(m, region.volume), int(th)] for m, th in early_stop or ()]
    below = sum(th > 0 for _, th in stops)  # stops[i][1]: what mask i still lacks
    target, flavor = 0, None
    if prune_targets is not None:
        target, flavor = _mask(prune_targets[0], region.volume), prune_targets[1]
        if flavor not in ("membership", "min"):
            raise DomainError(f"unknown prune flavor {flavor!r}")
    refresh_after = max(1024, 4 * mask_volume)
    nbytes = -(-region.volume // 8)

    fronts: list[int] = []  # fronts[t]: ranks reached at t
    res = ReachResult(region, fronts, max_index, exact=True,
                      witnesses={} if want_witness else None)
    minarr: dict[int, int] = {}  # rank -> best arrival, to count improvements
    nodes = 0
    cap = mask_volume if max_path_len is None else min(max_path_len, mask_volume)
    for wid, by_t in groups.items():
        t_lo, t1 = min(by_t), min(max_index, max(by_t) + cap - 1)
        letters = _letters(sources.words[wid], t1).bits
        # ok[t - t_lo]: sites a self-avoiding path may occupy at index t
        sweep = _sweep(lattice, allowed, letters, range(t_lo, t1 + 1), by_t)
        forward = [f for _, f in sweep]
        table = forward if flavor is None else _pruned(forward, lattice, allowed, letters,
                                                       t_lo, target, fronts, flavor)
        ok = [f.to_bytes(nbytes, "little") for f in table]  # _paths reads bytes views
        stale, refreshed = 0, nodes  # improved target arrivals, nodes at the last build
        starts = ((r, t) for t in sorted(by_t)  # each on a site of its first letter
                  for r in _ranks(by_t[t] & allowed[letters >> t & 1], region.volume).tolist())
        for start, t_start in starts:
            walk = _paths(steps, kind, ok, t_lo, t1, cap, start, t_start)
            for u, t, path in chain([(start, t_start, [(start,)])], walk):
                if len(path) > 1:  # a step of the walk, not its start
                    nodes += 1
                    if node_budget is not None and nodes > node_budget:
                        raise CapacityError("exact search exceeded its node budget")
                prev = minarr.get(u)
                if prev is None or t < prev:
                    minarr[u] = t
                    stale += target >> u & 1
                if t >= len(fronts):
                    fronts += [0] * (t + 1 - len(fronts))
                fronts[t] |= 1 << u
                if prev is None:
                    if want_witness:
                        res.witnesses[region.unrank(u)] = tuple(
                            region.unrank(entry[0]) for entry in path)
                    if stops:
                        for entry in stops:
                            if entry[1] > 0 and entry[0] >> u & 1:
                                entry[1] -= 1
                                below -= not entry[1]
                        if not below:
                            return res
                if t == stop_at_index:
                    return res
                if len(path) == 1 and not ok[t - t_lo][u >> 3] >> (u & 7) & 1:
                    break  # the start is recorded but no walk leaves it
                # stale counts only improved prune targets, so it is 0 without them
                if stale and nodes - refreshed >= refresh_after:
                    ok[:] = (f.to_bytes(nbytes, "little") for f in _pruned(
                        forward, lattice, allowed, letters, t_lo, target, fronts, flavor))
                    stale, refreshed = 0, nodes
    return res


def sees_all_words_block(
    region: Region,
    colors: np.ndarray,
    from_region: Region,
    length: int,
    horizon: Region | None = None,
    mode: str = "exact",
) -> list:
    """For each row of colors (one trial's rank-order colouring of region),
    sees_all_words on it: (ok, failing).

    One depth-first walk of the word trie, 0 before 1, over the rows
    stacked as copies of the region: the front of a prefix is its parent's
    front stepped and masked by the sites of its last letter, for every
    copy at once.  A copy leaves the walk at its first failure, and the
    walk ends when no copy is left.  An empty front fails a copy's whole
    subtree, whose first word is that prefix padded with zeros, so the
    copy fails at the first leaf whose front is empty, with that leaf's
    word.  A relaxed leaf is seen iff its front is nonempty.  Exact, where
    the walks of length - 1 steps that never step straight back are the
    self-avoiding ones (length <= 4, or a path-shaped region; see
    _decided), the walk keeps the directional fronts of _nb_sweep instead,
    and a leaf is seen iff their union is nonempty: no depth-first step is
    taken.  Otherwise an exact leaf is seen iff _walks_to_end, reading the
    copy's chain of fronts along the leaf's word in place at its bit
    offset, finds a self-avoiding walk to index length - 1: the steps the
    one-row walk takes, each front the walk recomputes also refreshing its
    bytes view, which the leaf checks read.  The block keeps length fronts
    of rows * volume bits (2d of them an index when directional), and
    views of them for the leaf checks."""
    if length < 0:
        raise DomainError("negative word length")
    if length > 24:
        raise CapacityError("sees_all_words capped at L <= 24")
    if mode not in ("exact", "relaxed"):
        raise DomainError(f"unknown mode {mode!r}")
    copies, lattice, repunit, allowed = _block(region, colors)
    volume = region.volume
    out = [(True, None)] * copies
    if length == 0:
        return out
    inside = (1 << volume) - 1
    if horizon is not None:
        inside = _part_bits(region.intervals, horizon.intervals)
    starts = 0
    if from_region.dim == region.dim:
        starts = _part_bits(region.intervals, from_region.intervals)
    if not starts:
        raise DomainError("from-region does not meet the configuration region")
    exact = mode == "exact"
    if exact and length > inside.bit_count():
        return [(False, Word(0, length))] * copies  # no self-avoiding path is that long
    directed = exact and _decided(region.sizes, length - 1)
    walks = exact and not directed  # the leaf checks run _walks_to_end
    if walks:  # only they read a walk table
        kind, steps = neighbor_steps(region.sizes)
        ranks = _ranks(starts, volume).tolist()
    every = inside * repunit
    allowed = (allowed[0] & every, allowed[1] & every)
    seeds = {0: starts * repunit}
    sweep = _nb_sweep if directed else _sweep
    live = repunit  # bit k * volume for each copy still in the walk
    sites = copies * volume
    fronts = [0] * length  # fronts[t]: sites a walk reading word[:t + 1] holds at t
    views = [b""] * length  # fronts[t] as bytes, which the leaf checks read
    nbytes = -(-sites // 8)
    word = t = 0  # letter i is bit i; letters after t are 0 (the 0-children)
    while True:
        # fronts t.. along the 0-children, down to a leaf
        prev = fronts[t - 1] if t else 0
        for t, front in sweep(lattice, allowed, word, range(t, length), seeds, prev):
            fronts[t] = front
            if walks:
                views[t] = front.to_bytes(nbytes, "little")
        if directed:
            front = reduce(or_, front)
        failed = live & ~_occupied(front, copies, volume)
        if walks:
            for k in (_ranks(live ^ failed, sites) // volume).tolist():
                if not _walks_to_end(steps, kind, views, ranks, length, k * volume):
                    failed |= 1 << k * volume
        if failed:
            for k in (_ranks(failed, sites) // volume).tolist():
                out[k] = (False, Word(word, length))
            live ^= failed
        while t >= 0 and word >> t & 1:  # back up past walked 1-children
            word ^= 1 << t
            t -= 1
        if t < 0 or not live:
            return out
        word |= 1 << t


def sees_all_words(
    cfg: Configuration,
    from_region: Region,
    length: int,
    horizon: Region | None = None,
    mode: str = "exact",
):
    """Whether every word of the given length is read from some vertex of
    from_region along a path inside the horizon. Returns (ok, failing),
    failing being the first unseen word in enumerate_words order.  The
    one-row case of sees_all_words_block."""
    return sees_all_words_block(cfg.region, cfg.bools()[None], from_region, length,
                                horizon, mode)[0]
