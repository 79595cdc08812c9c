import hashlib
import json
from pathlib import Path

import pytest

from wordperc.config import Configuration, enumerate_configs, flip_colors, sample
from wordperc.errors import CapacityError, DomainError
from wordperc.geometry import Region, box
from wordperc.oracles import (connected_bruteforce, distance_map, saw_reach_bruteforce,
                              verify_witness, walk_reach_bruteforce)
from wordperc.rng import RngStream
from wordperc.search import (
    SourceSet,
    exact_reach_block,
    exact_word_reach,
    one_connected_set,
    region_mask,
    relaxed_reach_block,
    relaxed_word_reach,
    sees_all_words,
)
from wordperc.words import (AlternatingWord, ConstantWord, PeriodicWord, ProductWord, Word,
                            enumerate_words)

R33 = Region(((-2, 1), (-2, 1)))  # 3x3 around the origin
ORIGIN_CELL = Region(((-1, 0), (-1, 0)))  # the one cell (0, 0)


def test_one_connected_degenerate():
    ones = sample(R33, 1.0, RngStream(0, 0))
    zeros = sample(R33, 0.0, RngStream(0, 0))
    S = [(0, 0)]
    assert one_connected_set(ones, S) == set(R33.iter_points())
    assert one_connected_set(zeros, S) == set()


def test_one_connected_vs_bruteforce_exhaustive():
    S = [(-1, -1), (0, 0)]
    for cfg in enumerate_configs(R33):
        assert one_connected_set(cfg, S) == connected_bruteforce(cfg, S)


def test_exact_reach_2x2_example():
    # rank order (0,0),(1,0),(0,1),(1,1); bits 1,0,0,1
    r = Region(((-1, 1), (-1, 1)))
    cfg = Configuration.from_bits(r, [1, 0, 0, 1])
    res = exact_word_reach(cfg, SourceSet.single(r, (0, 0), Word.from_string("10")), 1)
    assert res.arrivals[(1, 0)] >> 1 & 1
    assert res.arrivals[(0, 1)] >> 1 & 1
    assert not res.arrivals.get((1, 1), 0) >> 1 & 1


def test_all_ones_constant_word_reach():
    cfg = sample(R33, 1.0, RngStream(1, 0))
    res = exact_word_reach(cfg, SourceSet.single(R33, (0, 0), ConstantWord(1)), 4)
    # every vertex within L1 distance <= 4 reached at its distance
    for pt in R33.iter_points():
        d = abs(pt[0]) + abs(pt[1])
        assert res.arrivals[pt] >> d & 1


def test_exact_matches_bruteforce_sampled_words():
    words = [Word.from_string(s) for s in ("1", "10", "101", "1100", "01101")]
    for seed in range(6):
        cfg = sample(R33, 0.5, RngStream(33, seed))
        for w in words:
            src = SourceSet.uniform(R33, list(R33.iter_points()), w)
            got = exact_word_reach(cfg, src, len(w) - 1)
            assert got.pairs() == saw_reach_bruteforce(cfg, src, len(w) - 1)


def test_relaxed_contains_exact_and_monotone_horizon():
    w = Word.from_string("1011")
    for seed in range(4):
        cfg = sample(R33, 0.5, RngStream(44, seed))
        src = SourceSet.single(R33, (0, 0), w)
        exact = exact_word_reach(cfg, src, 3)
        relaxed = relaxed_word_reach(cfg, src, 3)
        assert exact.issubset(relaxed)
        # smaller horizon never reaches more
        inner = region_mask(R33, [Region(((-2, 0), (-2, 0)))])
        exact_small = exact_word_reach(cfg, src, 3, within=inner)
        assert exact_small.issubset(exact)


@pytest.mark.parametrize("parts", [
    [Region(((-3, 0), (-1, 1)))],  # partly outside
    [Region(((-9, 0), (-9, 9)))],  # covers the region's lower rows and more
    [Region(((1, 4), (-2, 1)))],  # disjoint
    [Region(((-2, -1), (-2, 1))), Region(((5, 6), (5, 6))), Region(((-1, 5), (0, 3)))],
])
def test_region_mask_is_the_per_point_definition(parts, monkeypatch):
    import wordperc.geometry as geometry

    want = sum(1 << R33.rank(pt) for pt in R33.iter_points()
               if any(part.contains(pt) for part in parts))

    def forbidden(*args):
        raise AssertionError("points table built")

    monkeypatch.setattr(geometry, "_points_array", forbidden)
    assert region_mask(R33, parts) == want


# six sites in d = 33: every axis but the first and the last has one site
R6_D33 = Region(((0, 3),) + ((0, 1),) * 31 + ((0, 2),))


def test_exact_reach_in_33_dimensions_is_the_bruteforce_reach():
    src = SourceSet.single(R6_D33, R6_D33.min_point(), Word.from_string("1101"))
    for cfg in enumerate_configs(R6_D33):
        assert exact_word_reach(cfg, src, 3).pairs() == saw_reach_bruteforce(cfg, src, 3)


def test_relaxed_equals_exact_for_constant_word():
    for seed in range(5):
        cfg = sample(R33, 0.6, RngStream(55, seed))
        src = SourceSet.uniform(R33, [(0, 0), (-1, -1)], ConstantWord(1))
        exact = exact_word_reach(cfg, src, 8)
        relaxed = relaxed_word_reach(cfg, src, 8)
        assert exact.vertices() == relaxed.vertices()
        assert exact.min_arrival == relaxed.min_arrival
        cluster = one_connected_set(cfg, [(0, 0), (-1, -1)])
        assert exact.vertices() == cluster


def test_color_symmetry_under_flip():
    w = Word.from_string("101")
    for cfg in list(enumerate_configs(Region(((0, 3), (0, 3)))))[::37]:
        src = SourceSet.single(cfg.region, (1, 1), w)
        a = exact_word_reach(cfg, src, 2).pairs()
        b = exact_word_reach(
            flip_colors(cfg), SourceSet.single(cfg.region, (1, 1), w.complement()), 2
        ).pairs()
        assert a == b


def test_witness_validity():
    for seed in range(5):
        cfg = sample(R33, 0.5, RngStream(66, seed))
        w = Word.from_string("1011")
        res = exact_word_reach(cfg, SourceSet.single(R33, (0, 0), w), 3, want_witness=True)
        for v, path in res.witnesses.items():
            assert path[-1] == v
            assert verify_witness(cfg, path, w, 0)


def test_capacity_guards():
    cfg = sample(R33, 0.5, RngStream(0, 0))
    with pytest.raises(CapacityError):
        exact_word_reach(cfg, SourceSet.single(R33, (0, 0), ConstantWord(1)), (1 << 20) + 1)
    with pytest.raises(DomainError):
        exact_word_reach(cfg, SourceSet.single(R33, (9, 9), ConstantWord(1)), 3)
    for search in (exact_word_reach, relaxed_word_reach):
        with pytest.raises(DomainError, match="does not have 2 coordinates"):
            search(cfg, SourceSet.single(R33, (0, 0, 0), ConstantWord(1)), 3)


def test_source_sets_hold_rank_bitsets_per_offset():
    """A SourceSet maps each word's offsets to the bitset of the ranks of
    its sources there; its entries view lists them by word, offset and
    rank.  A point off the region, a negative offset and an unknown word
    id are DomainErrors when it is built."""
    words = (Word.from_string("101"), ConstantWord(1))
    src = SourceSet.from_entries(R33, [((1, 1), 2, 1), ((0, 0), 0, 0), ((-1, -1), 2, 1),
                                       ((1, 1), 2, 1)], words)
    rank = R33.rank
    assert src.seeds == ({0: 1 << rank((0, 0))}, {2: 1 << rank((-1, -1)) | 1 << rank((1, 1))})
    assert src.entries == (((0, 0), 0, 0), ((-1, -1), 2, 1), ((1, 1), 2, 1))
    assert SourceSet.uniform(R33, [(0, 0), (1, 0)], words[0], [3, 3]).seeds == (
        {3: 1 << rank((0, 0)) | 1 << rank((1, 0))},)
    for entries, match in (([((2, 0), 0, 0)], "outside region"),
                           ([((0, 0), -1, 0)], "negative word offset"),
                           ([((0, 0), 0, 2)], "word id out of range"),
                           ([((0, 0), 0, -1)], "word id out of range")):
        with pytest.raises(DomainError, match=match):
            SourceSet.from_entries(R33, entries, words)


def test_searches_refuse_sources_on_another_region():
    """Each reach entry point takes sources built on its configuration's
    region only: a region of the same volume shifted by one site, or a
    negative offset in a map built directly, is a DomainError."""
    cfg = sample(R33, 0.5, RngStream(0, 0))
    colors = cfg.bools()[None]
    shifted = SourceSet.single(Region(((-1, 2), (-2, 1))), (0, 0), ConstantWord(1))
    negative = SourceSet(R33, ({-1: 1},), (ConstantWord(1),))
    searches = {
        "relaxed": lambda src: relaxed_word_reach(cfg, src, 3),
        "exact": lambda src: exact_word_reach(cfg, src, 3),
        "relaxed_block": lambda src: relaxed_reach_block(R33, colors, src, 3),
        "exact_block": lambda src: exact_reach_block(R33, colors, src, 3),
    }
    for name, search in searches.items():
        # exact_reach_block refuses any offset but 0 before it looks further
        for src in (shifted,) if name == "exact_block" else (shifted, negative):
            with pytest.raises(DomainError, match="search's region"):
                search(src)


def test_site_masks_are_bitsets_of_the_region():
    """within, the early-stop masks and the prune targets take rank-order
    bitsets only: a bool array, a negative int or a bit at or past the
    volume is a DomainError, as for Configuration.bits."""
    cfg = sample(R33, 0.5, RngStream(0, 0))
    src = SourceSet.single(R33, (0, 0), ConstantWord(1))
    whole = (1 << R33.volume) - 1
    bad_masks = {"bools": cfg.bools(), "negative": -1, "past": 1 << R33.volume,
                 "wide": whole | 1 << 40}
    searches = {
        "relaxed": lambda m: relaxed_word_reach(cfg, src, 4, within=m),
        "one_connected": lambda m: one_connected_set(cfg, [(0, 0)], within=m),
        "within": lambda m: exact_word_reach(cfg, src, 4, within=m),
        "early_stop": lambda m: exact_word_reach(cfg, src, 4, early_stop=[(whole, 1), (m, 1)]),
        "prune": lambda m: exact_word_reach(cfg, src, 4, prune_targets=(m, "min")),
    }
    for search in searches.values():
        search(whole)
        search(0)
        for bad in bad_masks.values():
            with pytest.raises(DomainError, match="bitset"):
                search(bad)


def test_sees_all_words_trivial_cases():
    ones = sample(R33, 1.0, RngStream(2, 0))
    ok, failing = sees_all_words(ones, ORIGIN_CELL, 2)
    assert not ok and failing is not None and not failing.letters().all()


def test_sees_all_words_L1_semantics():
    # a single-vertex from-set can never see both length-1 words
    r2 = Region(((-1, 1), (-1, 1)))
    cfg = Configuration.from_bits(r2, [1, 0, 0, 1])
    ok, failing = sees_all_words(cfg, ORIGIN_CELL, 1)
    assert not ok and failing.letters().tolist() == [0]
    # a from-set holding both colors sees both words
    ok, _ = sees_all_words(cfg, Region(((-1, 1), (-1, 0))), 1)
    assert ok


def test_sees_all_words_exhaustive_small():
    # from = origin cell inside 3x3, L = 2: oracle by enumeration
    horizon = R33
    for idx, cfg in enumerate(enumerate_configs(R33)):
        if idx % 29:
            continue
        expected = True
        for w in enumerate_words(2):
            src = SourceSet.single(R33, (0, 0), w)
            if not saw_reach_bruteforce(cfg, src, 1):
                expected = False
                break
        got, _ = sees_all_words(cfg, ORIGIN_CELL, 2, horizon)
        assert got == expected
        got_rel, _ = sees_all_words(cfg, ORIGIN_CELL, 2, horizon, mode="relaxed")
        # at L=2 a relaxed path of two distinct vertices is self-avoiding
        assert got_rel == expected


def test_sees_all_words_exact_matches_bruteforce():
    # verdict and first failing word against one brute-force search per word
    for d, R in ((2, 1), (2, 2), (3, 1)):
        region = box(R, d)
        half = Region(((-R - 1, 0),) + ((-R - 1, R),) * (d - 1))
        for seed in range(3):
            cfg = sample(region, 0.5, RngStream(96 + d, seed))
            for frm in (box(0, d), box(1, d)):
                starts = list(frm.iter_points())
                for horizon in (None, half):
                    allowed = None if horizon is None else set(horizon.iter_points())
                    for L in range(1, 6):
                        expect = (True, None)
                        for w in enumerate_words(L):
                            src = SourceSet.uniform(region, starts, w)
                            pairs = saw_reach_bruteforce(cfg, src, L - 1, allowed)
                            if all(t < L - 1 for _, t in pairs):
                                expect = (False, w)
                                break
                        assert sees_all_words(cfg, frm, L, horizon) == expect

def test_relaxed_modes_agree_on_vertices():
    cfg = sample(R33, 0.5, RngStream(4, 1))
    src = SourceSet.single(R33, (0, 0), Word.from_string("10110"))
    res = relaxed_word_reach(cfg, src, 4)
    assert res.min_arrival == {v: (b & -b).bit_length() - 1 for v, b in res.arrivals.items()}
    hits = 0
    for bits in res.arrivals.values():
        hits |= bits
    assert res.index_hits == hits


SQ9 = Region(((-5, 4), (-5, 4)))  # 81 sites, beyond one 64-bit word


def test_exact_matches_bruteforce_beyond_64_sites():
    words = [Word.from_string(s) for s in ("1", "10", "011", "1101", "0100")]
    for seed in range(3):
        cfg = sample(SQ9, 0.55, RngStream(77, seed))
        for w in words:
            src = SourceSet.uniform(SQ9, list(SQ9.iter_points()), w)
            got = exact_word_reach(cfg, src, len(w) - 1)
            assert got.pairs() == saw_reach_bruteforce(cfg, src, len(w) - 1)


def test_constant_word_minima_are_distances():
    S = [(0, 0), (-3, 2), (4, -4)]
    for seed in range(4):
        cfg = sample(SQ9, 0.6, RngStream(78, seed))
        within = None if seed % 2 else sample(SQ9, 0.9, RngStream(79, seed)).bits
        dist = distance_map(cfg, S, within)
        res = relaxed_word_reach(cfg, SourceSet.uniform(SQ9, S, ConstantWord(1)), 200, within)
        assert res.min_arrival == dist
        assert one_connected_set(cfg, S, within=within) == set(dist)


def test_relaxed_minima_over_several_words():
    # each vertex keeps its smallest arrival over all the words' sources
    words = (Word.from_string("10" * 16), Word.from_string("1" * 32))
    for region in (R33, SQ9, box(2, 3)):
        pts = list(region.iter_points())
        for seed in range(4):
            cfg = sample(region, 0.6, RngStream(80, seed))
            entries = ((pts[0], 0, 0), (pts[-1], 0, 1), (pts[len(pts) // 2], 3, 1))
            both = relaxed_word_reach(cfg, SourceSet.from_entries(region, entries, words), 30)
            expect: dict = {}
            for wid in (0, 1):
                own = tuple((v, t, 0) for v, t, w in entries if w == wid)
                alone = relaxed_word_reach(
                    cfg, SourceSet.from_entries(region, own, (words[wid],)), 30)
                for v, t in alone.min_arrival.items():
                    expect[v] = min(t, expect.get(v, t))
            assert both.min_arrival == expect


def test_relaxed_matches_walk_bruteforce():
    # period-2 words stop their sweeps early and carry a tail to max_index;
    # two-word sets unite sweeps that stop apart or run to the end
    period2 = (AlternatingWord(), ConstantWord(1), PeriodicWord("0"))
    other = (PeriodicWord("110"), ProductWord(0.5, seed=3))
    pairs_of_words = [(a, b) for a in period2 for b in period2 + other if a is not b]
    for region in (R33, box(1, 3), Region(((-4, 3),))):
        pts = list(region.iter_points())
        for seed in range(2):
            cfg = sample(region, 0.6, RngStream(81, seed))
            mask = sample(region, 0.8, RngStream(82, seed)).bits if seed else None
            allowed = None if mask is None else {v for v in pts if mask >> region.rank(v) & 1}
            sets = [SourceSet.single(region, pts[len(pts) // 2], w) for w in period2 + other]
            sets += [SourceSet.from_entries(
                region, ((pts[0], 0, 0), (pts[-1], 2, 1), (pts[1], 5, 1)), words)
                     for words in pairs_of_words]
            for src in sets:
                for max_index in (4, 57, 200):
                    want = walk_reach_bruteforce(cfg, src, max_index, allowed)
                    got = relaxed_word_reach(cfg, src, max_index, mask)
                    assert got.pairs() == want
                    first: dict = {}
                    for v, t in sorted(want, key=lambda pair: pair[1]):
                        first.setdefault(v, t)
                    assert got.min_arrival == first
                    assert got.index_hits == sum({1 << t for _, t in want})


# -- result pins -----------------------------------------------------------------
#
# SHA-256 of canonical ReachResult contents, recorded (with record_pins) from
# the earlier implementation that had separate bitmask and numpy searches for
# regions of at most and more than 64 sites; results must stay identical.

PIN_FILE = Path(__file__).with_name("search_result_digests.json")

PIN_REGIONS = {
    "line20": Region(((-10, 10),)),
    "line100": Region(((-50, 50),)),
    "R33": R33,
    "sq8": Region(((-4, 4), (-4, 4))),  # 64 sites
    "sq9": SQ9,
    "box13": box(1, 3),
    "box23": box(2, 3),
    "cube4": Region(((-1, 1),) * 4),  # 16 sites
    "box14": box(1, 4),  # 81 sites
}
THUE_MORSE = Word.from_bits(bin(i).count("1") & 1 for i in range(64))
PIN_WORDS = {
    "product": ProductWord(0.5, seed=5),
    "alt": AlternatingWord(),
    "const": ConstantWord(1),
    "thue": THUE_MORSE,
}
PIN_SEEDS = (0, 1, 2)
PIN_DENSITY = (0.4, 0.5, 0.65)  # by seed


def _canonical(res, arrivals: bool = True) -> str:
    """Sorted JSON of every field of a result; without arrivals, with its
    arrivals emptied (what the search's arrival-less mode returned when the
    pins were recorded)."""
    doc = {
        "arrivals": sorted((list(v), b) for v, b in res.arrivals.items()) if arrivals else [],
        "min_arrival": sorted((list(v), t) for v, t in res.min_arrival.items()),
        "exact": res.exact,
        "index_hits": res.index_hits,
        "witnesses": sorted(
            (list(v), [list(u) for u in path]) for v, path in (res.witnesses or {}).items()
        ),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _pin_calls(region, cfg, word, seed):
    """(name, thunk returning canonical text) for every pinned call."""
    pts = list(region.iter_points())
    mid, third, last = pts[len(pts) // 2], pts[len(pts) // 3], pts[-1]
    single = SourceSet.single(region, mid, word)
    multi = SourceSet.uniform(region, [mid, third, pts[0]], word, [0, 1, 3])
    two_words = SourceSet.from_entries(region, ((mid, 0, 0), (third, 0, 1), (last, 2, 1)),
                                       (word, THUE_MORSE))
    within = sample(region, 0.85, RngStream(7, seed)).bits
    half = sum(1 << r for r, v in enumerate(pts) if v[0] <= 0)
    other_half = (1 << region.volume) - 1 ^ half
    targets = sample(region, 0.3, RngStream(8, seed)).bits
    on_targets = lambda v: targets >> region.rank(v) & 1  # noqa: E731
    yield "relaxed", lambda: _canonical(relaxed_word_reach(cfg, single, 24))
    yield "relaxed_lean", lambda: _canonical(relaxed_word_reach(cfg, multi, 24), arrivals=False)
    yield "relaxed_within", lambda: _canonical(relaxed_word_reach(cfg, multi, 24, within))
    # the earlier search of regions beyond 64 sites kept a vertex's arrival
    # from the first word that reached it, not the smallest one; those cases
    # are covered by test_relaxed_minima_over_several_words instead
    if region.volume <= 64:
        yield "relaxed_words", lambda: _canonical(relaxed_word_reach(cfg, two_words, 24))
    yield "exact", lambda: _canonical(exact_word_reach(cfg, single, 8, want_witness=True))
    yield "exact_multi", lambda: _canonical(
        exact_word_reach(cfg, multi, 8, within, want_witness=True))
    yield "exact_words", lambda: _canonical(
        exact_word_reach(cfg, two_words, 8, want_witness=True))
    yield "exact_early", lambda: _canonical(exact_word_reach(
        cfg, multi, 8, early_stop=[(half, 4), (other_half, 3)], want_witness=True))
    yield "exact_stop", lambda: _canonical(
        exact_word_reach(cfg, multi, 8, stop_at_index=5, want_witness=True))
    yield "exact_len", lambda: _canonical(
        exact_word_reach(cfg, multi, 10, max_path_len=4, want_witness=True))
    # pruned searches guarantee only the reached targets (membership) or
    # the targets' minimal arrivals (min)
    yield "prune_membership", lambda: json.dumps(sorted(
        list(v) for v in exact_word_reach(
            cfg, multi, 9, prune_targets=(targets, "membership")).vertices()
        if on_targets(v)))
    yield "prune_min", lambda: json.dumps(sorted(
        (list(v), t) for v, t in exact_word_reach(
            cfg, multi, 9, within, prune_targets=(targets, "min")).min_arrival.items()
        if on_targets(v)))


def pin_cases():
    """(key, thunk) for every pin."""
    for ri, (rname, region) in enumerate(PIN_REGIONS.items()):
        for wname, word in PIN_WORDS.items():
            for seed in PIN_SEEDS:
                cfg = sample(region, PIN_DENSITY[seed], RngStream(50 + ri, seed))
                for call, thunk in _pin_calls(region, cfg, word, seed):
                    yield f"{rname}/{wname}/{seed}/{call}", thunk


def record_pins() -> dict:
    return {key: hashlib.sha256(thunk().encode()).hexdigest() for key, thunk in pin_cases()}


def test_results_identical_to_pins():
    pins = json.loads(PIN_FILE.read_text())
    got = record_pins()
    assert got.keys() == pins.keys()
    assert [k for k in pins if got[k] != pins[k]] == []


# -- sees_all_words pins ---------------------------------------------------------
#
# SHA-256 of (ok, failing word), recorded from the earlier implementation that
# ran one search per word; the verdict and the first failing word must stay.

ALLWORDS_PIN_FILE = Path(__file__).with_name("sees_all_words_digests.json")


def allwords_pin_cases():
    """(key, thunk returning (ok, failing word as a string)) for every pin."""

    def case(cfg, frm, L, horizon, mode):
        def run():
            ok, failing = sees_all_words(cfg, frm, L, horizon, mode=mode)
            return ok, None if failing is None else str(failing)

        return run

    for d, R in ((2, 3), (3, 2)):
        for seed, p in enumerate((0.5, 0.4, 0.62)):
            cfg = sample(box(R, d), p, RngStream(90 + d, seed))
            for m in (0, 1):
                for L in range(1, 11):
                    for hname, horizon in (("all", None), ("hor", box(R - 1, d))):
                        for mode in ("exact", "relaxed"):
                            yield (f"d{d}/s{seed}/m{m}/L{L}/{hname}/{mode}",
                                   case(cfg, box(m, d), L, horizon, mode))
    # a horizon of 9 sites: exact paths of 10 sites or more cannot exist
    small = box(1, 2)
    for seed in range(3):
        cfg = sample(box(3, 2), 0.5, RngStream(95, seed))
        for L in (8, 9, 10, 11):
            for mode in ("exact", "relaxed"):
                yield f"mask9/s{seed}/L{L}/{mode}", case(cfg, box(1, 2), L, small, mode)


def record_allwords_pins() -> dict:
    return {
        key: hashlib.sha256(json.dumps(thunk()).encode()).hexdigest()
        for key, thunk in allwords_pin_cases()
    }


def test_sees_all_words_identical_to_pins():
    pins = json.loads(ALLWORDS_PIN_FILE.read_text())
    got = record_allwords_pins()
    assert got.keys() == pins.keys()
    assert [k for k in pins if got[k] != pins[k]] == []
