"""Block statistics against their per-trial references.

Site, reach, all-words and decay ranges sample a block of trials at once,
and wierman ranges couple and verify a block of pairs at once.
Relaxed and exact reach sweep the whole block in one stacked bitset;
exact reach to index 3 or on a path is decided by a non-backtracking
sweep, and past that checks a self-avoiding walk only on the trials the
relaxed sweep reaches.  All-words and decay walk the word trie once per
block.  Every per-trial outcome must equal the one-configuration search
run on sample(region, p, RngStream(seed, t)), for ranges that start past
0 and cross block boundaries, serially and fanned out over two workers,
and the block must take the depth-first steps that the per-trial
searches take, none where the non-backtracking fronts decide.
"""

import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordperc import config, harness, search
from wordperc.config import Configuration, sample, sample_block
from wordperc.errors import DomainError
from wordperc.estimate import run_trials
from wordperc.geometry import Region, box
from wordperc.oracles import saw_reach_bruteforce, walk_reach_bruteforce
from wordperc.rng import RngStream
from wordperc.search import (SourceSet, exact_reach_block, exact_word_reach,
                             relaxed_reach_block, relaxed_word_reach, sees_all_words,
                             sees_all_words_block)
from wordperc.wierman import couple_block, verify_coupling, wierman_couple
from wordperc.words import AlternatingWord, ProductWord, Word, enumerate_words

WORDS = st.one_of(
    st.text("01", min_size=1, max_size=14),
    st.sampled_from(["alt", "ones", "zeros", "periodic:110", "minrun:M=2,seed=1",
                     "product:q=0.5,seed=2", "product:q=0.3,seed=5"]),
)


@st.composite
def reach_specs(draw):
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    source = [draw(st.integers(1, s)) for s in sizes]
    word = draw(WORDS)
    literal = set(word) <= {"0", "1"}
    params = {"region": {"kind": "intervals", "intervals": [[0, s] for s in sizes]},
              "p": draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0])),
              "word": word, "source": source}
    if draw(st.booleans()):
        params["mode"] = "relaxed"
        params["max_index"] = draw(st.integers(0, len(word) - 1 if literal else 20))
    else:  # exact: batched up to index 1, screened depth-first searches from 2
        params["max_index"] = draw(st.integers(0, min(8, len(word) - 1) if literal else 8))
    if literal and draw(st.booleans()):
        del params["max_index"]  # the whole literal word
        if params.get("mode") != "relaxed":
            params["word"] = word[:9]
    return params


def reach_reference(params, seed, t0, t1):
    """Per-trial relaxed or exact search on each trial's own sample."""
    region = harness.region_from_spec(params["region"])
    word = harness.word_from_spec(params["word"])
    length = params.get("max_index", getattr(word, "length", 0) - 1)
    src = SourceSet.single(region, tuple(params["source"]), word)
    out = []
    for t in range(t0, t1):
        cfg = sample(region, params["p"], RngStream(seed, t))
        if params.get("mode") == "relaxed":
            res = relaxed_word_reach(cfg, src, length)
        else:
            res = exact_word_reach(cfg, src, length, stop_at_index=length)
        out.append(res.index_hits >> length & 1)
    return out


def site_reference(params, seed, t0, t1):
    region = harness.region_from_spec(params["region"])
    vertex = tuple(params["vertex"])
    return [sample(region, params["p"], RngStream(seed, t)).bit_at(vertex) for t in range(t0, t1)]


SEEDS = st.sampled_from([0, 1, 7, 2**63, 2**64 - 1, -5])

# five zeros from the middle of a 2 x 3 box: a relaxed walk may bounce
# between two 0-sites, a self-avoiding one needs five of the six sites
MIXED = {"region": {"kind": "intervals", "intervals": [[0, 2], [0, 3]]}, "p": 0.3,
         "word": "00000", "source": [1, 2], "mode": "exact"}


@given(reach_specs(), SEEDS, st.integers(1, 50), st.integers(1, 40), st.integers(1, 200))
@settings(max_examples=120, deadline=None)
# the source's colour never matches letter 0: no trial succeeds
@example({"region": {"kind": "intervals", "intervals": [[0, 2], [0, 2]]}, "p": 0.0,
          "word": "10", "source": [1, 1]}, 3, 5, 30, 16)
@example({"region": {"kind": "intervals", "intervals": [[0, 3]]}, "p": 1.0,
          "word": "0", "source": [2], "max_index": 0}, 2**63, 1, 9, 4)
# max_index past the volume: the word is too short for a sweep to index 5,
# but not for the exact search, which reads letters only up to index 1
@example({"region": {"kind": "intervals", "intervals": [[0, 2]]}, "p": 0.5,
          "word": "01", "source": [1], "max_index": 5}, 1, 3, 4, 2)
# max_index past the volume with a long word: the sweep to index 2 keeps
# some trials, whose searches find no walk that long
@example({"region": {"kind": "intervals", "intervals": [[0, 3]]}, "p": 0.5,
          "word": "0101010", "source": [2], "max_index": 5}, 1, 0, 24, 6)
# blocks that mix trials the sweep screens out, trials it reaches that
# the exact search does not, and trials that reach (see the test below)
@example(MIXED, 1, 3, 60, 24)
def test_reach_block_matches_per_trial(params, seed, t0, trials, block):
    with mock.patch.object(config, "BLOCK_SITES", block):
        got = harness._reach_trials(params, seed, t0, t0 + trials)
    assert got == reach_reference(params, seed, t0, t0 + trials)


def test_exact_reach_screen_mixes_rows():
    """The MIXED example's trials fall in all three classes of the screen."""
    region = harness.region_from_spec(MIXED["region"])
    src = SourceSet.single(region, (1, 2), harness.word_from_spec("00000"))
    colors = sample_block(region, MIXED["p"], 1, 3, 63)
    screen = relaxed_reach_block(region, colors, src, 4).tolist()
    exact = reach_reference(MIXED, 1, 3, 63)
    assert {(s, e) for s, e in zip(screen, exact)} == {(False, 0), (True, 0), (True, 1)}


def counted(thunk):
    """(result or DomainError text, depth-first steps taken) of a call."""
    steps = [0]
    paths = search._paths

    def counting(*args):
        for step in paths(*args):
            steps[0] += 1
            yield step

    with mock.patch.object(search, "_paths", counting):
        try:
            return thunk(), steps[0]
        except DomainError as e:
            return str(e), steps[0]


@st.composite
def colour_blocks(draw, max_volume=125):
    """A box of one to three axes (one site, and volumes not a multiple of
    8, included) and a block of up to 30 rows of its colours."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)
                 .filter(lambda sizes: math.prod(sizes) <= max_volume))
    region = Region(tuple((0, s) for s in sizes))
    p = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    return region, sample_block(region, p, draw(SEEDS), 3, 3 + draw(st.integers(1, 30)))


@st.composite
def reach_blocks(draw):
    """A colour block, a source rank and a max_index from 0 to volume + 1.
    The per-row reference searches every self-avoiding walk the colours
    allow when max_index passes volume - 1, so the volume stays at most
    16: a 2 x 2 x 4 box takes at most 14,691 steps a row."""
    region, colors = draw(colour_blocks(max_volume=16))
    return (region, colors, draw(st.integers(0, region.volume - 1)),
            draw(st.integers(0, region.volume + 1)))


@given(reach_blocks(), WORDS)
@settings(max_examples=150, deadline=None)
# words too short for a sweep to max_index, not for one to volume - 1
@example((Region(((0, 1),)), np.array([[False], [True]]), 0, 1), "0")
@example((Region(((0, 2),)), np.array([[False, True]] * 3), 0, 3), "01")
# the block's front at index 7 repeats the one at 5: a period-2 tail
# expanded to max_index
@example((Region(((0, 4), (0, 4))), np.ones((3, 16), dtype=bool), 0, 12), "ones")
def test_exact_reach_block_matches_exact_search(case, word):
    region, colors, rank, max_index = case
    src = SourceSet.single(region, region.unrank(rank), harness.word_from_spec(word))
    assert_exact_reach_rows(region, colors, src, max_index)


def nb_decides(sizes, last_index):
    """Whether walks of last_index steps that never step straight back are
    self-avoiding: at most 3 steps in a box (bipartite, girth 4), or any
    number on a path."""
    return last_index <= 3 or sum(size > 1 for size in sizes) <= 1


def assert_exact_reach_rows(region, colors, src, max_index):
    """Row by row, exact_reach_block is exact_word_reach stopped at
    max_index, a word too short failing both alike.  Where the
    non-backtracking fronts decide (nb_decides), the block takes no
    depth-first step; elsewhere the rows its relaxed sweep reaches at
    max_index < volume take exactly the exact search's depth-first steps,
    and the others take none."""
    cfgs = [Configuration.from_bools(region, row) for row in colors]

    def per_row(rows):
        return [bool(exact_word_reach(c, src, max_index, stop_at_index=max_index).index_hits
                     >> max_index & 1) for c in rows]

    got, steps = counted(lambda: exact_reach_block(region, colors, src, max_index).tolist())
    assert got == counted(lambda: per_row(cfgs))[0]
    if nb_decides(region.sizes, max_index):
        assert steps == 0
        return
    searched = []
    if not isinstance(got, str) and max_index < region.volume:
        searched = [c for c in cfgs
                    if relaxed_word_reach(c, src, max_index).index_hits >> max_index & 1]
    assert steps == counted(lambda: per_row(searched))[1]


def test_exact_reach_block_takes_one_source_at_offset_0():
    region = Region(((0, 3),))
    colors = sample_block(region, 0.5, 1, 0, 4)
    word = Word.from_string("0101")
    for sources in (SourceSet.uniform(region, [(1,), (2,)], word),
                    SourceSet.single(region, (1,), word, 1)):
        with pytest.raises(DomainError, match="one source at offset 0"):
            exact_reach_block(region, colors, sources, 2)


def sub_box(draw, region):
    """A box of region's points, drawn per axis."""
    intervals = []
    for lo, hi in region.intervals:
        a = draw(st.integers(lo, hi - 1))
        intervals.append((a, draw(st.integers(a + 1, hi))))
    return Region(tuple(intervals))


@given(colour_blocks(), st.integers(0, 6), st.sampled_from(["exact", "relaxed"]), st.data())
@settings(max_examples=150, deadline=None)
def test_sees_all_words_block_matches_per_row(block, length, mode, data):
    region, colors = block
    frm = sub_box(data.draw, region)
    horizon = sub_box(data.draw, region) if data.draw(st.booleans()) else None
    assert_sees_all_words_rows(region, colors, frm, length, horizon, mode)


def assert_sees_all_words_rows(region, colors, frm, length, horizon, mode):
    """Row by row, sees_all_words_block is sees_all_words on the row's
    configuration, (ok, failing word) alike, and takes the depth-first
    steps of the per-row walks."""
    got, steps = counted(lambda: sees_all_words_block(region, colors, frm, length, horizon,
                                                      mode))
    want, want_steps = counted(lambda: [
        sees_all_words(Configuration.from_bools(region, row), frm, length, horizon, mode)
        for row in colors])
    assert got == want
    assert steps == want_steps


@given(st.lists(st.integers(1, 4), min_size=1, max_size=2), st.sampled_from([0.3, 0.5, 0.7]),
       WORDS, st.integers(2, 8), st.integers(2, 4), SEEDS, st.integers(1, 30),
       st.integers(1, 80))
@settings(max_examples=40, deadline=None)
# each example mixes rows that reach max_index or see every word with
# rows that do not.  3 x 3: five copies of volume 9 a block, so every copy
# but the first starts off a byte boundary, and the last one ends at bit
# 44, inside the final byte
@example([3, 3], 0.5, "0101010", 4, 3, 1, 12, 45)
# 7 sites in a row, three copies a block: the last one, bits 14..20,
# runs into the final byte
@example([7], 0.3, "zeros", 3, 2, 7, 9, 21)
# 2 x 4: volume 8, every copy on a byte boundary
@example([2, 4], 0.5, "0101010", 4, 3, 0, 10, 40)
def test_exact_blocks_read_copies_at_any_bit_offset(sizes, p, word, max_index, length, seed,
                                                    trials, block):
    """The blocks a patched BLOCK_SITES cuts hold copies at every bit
    offset modulo 8.  Exact reach and the exact all-words walk read each
    copy in place in the stacked fronts, and still match the per-row
    searches, steps included, and a brute-force search per word."""
    region = Region(tuple((0, s) for s in sizes))
    center = tuple(s // 2 + 1 for s in sizes)
    src = SourceSet.single(region, center, harness.word_from_spec(word))
    with mock.patch.object(config, "BLOCK_SITES", block):
        blocks = config.trial_blocks(3, 3 + trials, region.volume)
    for b0, b1 in blocks:
        colors = sample_block(region, p, seed, b0, b1)
        assert_exact_reach_rows(region, colors, src, max_index)
        assert_sees_all_words_rows(region, colors, region, length, None, "exact")
        assert sees_all_words_block(region, colors, region, length) == [
            first_unseen_word(Configuration.from_bools(region, row), length) for row in colors]


BRUTE_REACH = {"exact": saw_reach_bruteforce, "relaxed": walk_reach_bruteforce}


def first_unseen_word(cfg, length, frm=None, mode="exact", horizon=None):
    """(ok, failing) of sees_all_words from frm (the whole region if None)
    inside the horizon (the whole region if None), by one brute-force
    search per word: over self-avoiding paths exact, over walks relaxed."""
    starts = list((frm or cfg.region).iter_points())
    allowed = None if horizon is None else set(horizon.iter_points())
    for w in enumerate_words(length):
        pairs = BRUTE_REACH[mode](cfg, SourceSet.uniform(cfg.region, starts, w), length - 1,
                                  allowed)
        if all(t < length - 1 for _, t in pairs):
            return False, w
    return True, None


@st.composite
def tiny_colour_blocks(draw):
    """A box of one or two axes and at most 9 sites, and up to 30 rows of
    its colours."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    region = Region(tuple((0, s) for s in sizes))
    p = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    return region, sample_block(region, p, draw(SEEDS), 3, 3 + draw(st.integers(1, 30)))


@given(tiny_colour_blocks(), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_relaxed_sees_all_words_rows_match_walk_bruteforce(block, length, data):
    """Each relaxed row of sees_all_words_block is a breadth-first search
    over walks inside the horizon, one word at a time in enumerate_words
    order: (ok, first failing word) alike."""
    region, colors = block
    frm = sub_box(data.draw, region)
    horizon = sub_box(data.draw, region) if data.draw(st.booleans()) else None
    got = sees_all_words_block(region, colors, frm, length, horizon, "relaxed")
    assert got == [first_unseen_word(Configuration.from_bools(region, row), length, frm,
                                     "relaxed", horizon) for row in colors]


@st.composite
def nb_cases(draw):
    """Where the non-backtracking fronts decide: a box of one to three axes
    and at most 27 sites with a word length of 1 to 4, or a path of up to
    9 sites along any one of them (a (1, 1, 7) box, say) with a length of
    1 to 8.  Up to 12 rows of its colours, a sub-box from-region, maybe a
    horizon, and a reach source, max_index and word: at most index 3 in a
    box, up to volume + 1 on a path."""
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    path = draw(st.booleans())
    if path:
        sizes = [1] * d
        sizes[draw(st.integers(0, d - 1))] = draw(st.integers(1, 9))
    region = Region(tuple((0, s) for s in sizes))
    colors = sample_block(region, draw(st.sampled_from([0.3, 0.5, 0.7])), draw(SEEDS), 3,
                          3 + draw(st.integers(1, 12)))
    length = draw(st.integers(1, 8 if path else 4))
    frm = sub_box(draw, region)
    horizon = sub_box(draw, region) if draw(st.booleans()) else None
    max_index = draw(st.integers(0, region.volume + 1 if path else 3))
    return (region, colors, length, frm, horizon, draw(st.integers(0, region.volume - 1)),
            max_index, draw(st.text("01", min_size=max_index + 1, max_size=max_index + 1)))


@given(nb_cases())
@settings(max_examples=200, deadline=None)
# walks that step straight back read 000 from the middle of three 0-sites,
# and 010 from rank 0 of 011 and of a 2 x 2 square with one 0-site; no
# self-avoiding walk does
@example((Region(((0, 3),)), np.array([[False, False, False], [False, True, True]]), 3,
          Region(((1, 2),)), None, 0, 2, "010"))
@example((Region(((0, 2), (0, 2))), np.array([[False, True, True, True]]), 2,
          Region(((0, 2), (0, 2))), None, 0, 2, "010"))
def test_non_backtracking_fronts_match_bruteforce(case):
    """Exact all-words and exact reach rows, where the non-backtracking
    fronts decide, equal a brute-force search over self-avoiding walks,
    and take no depth-first step."""
    region, colors, length, frm, horizon, rank, max_index, word = case
    got, steps = counted(lambda: sees_all_words_block(region, colors, frm, length, horizon))
    assert steps == 0
    cfgs = [Configuration.from_bools(region, row) for row in colors]
    assert got == [first_unseen_word(c, length, frm, "exact", horizon) for c in cfgs]
    src = SourceSet.single(region, region.unrank(rank), Word.from_string(word))
    got, steps = counted(lambda: exact_reach_block(region, colors, src, max_index).tolist())
    assert steps == 0
    assert got == [any(t == max_index for _, t in saw_reach_bruteforce(c, src, max_index))
                   for c in cfgs]


def test_non_backtracking_fronts_stop_deciding_at_length_5():
    """On a 3 x 3 box whose only 0-sites form one unit square, the
    non-backtracking walks read 00000 by going round the square, the
    self-avoiding ones cannot: exact all-words of length 5 reports 00000
    unseen, as brute force does, so the fronts' bound stays at L = 4."""
    region = box(1, 2)
    zeros = {(0, 0), (0, 1), (1, 0), (1, 1)}
    colors = np.array([[p not in zeros for p in region.iter_points()]])
    cfg = Configuration.from_bools(region, colors[0])
    lattice, _ = search._stacked(region.sizes)
    allowed = search._allowed(cfg, None)
    *_, (_, fronts) = search._nb_sweep(lattice, allowed, 0, range(5),
                                       {0: search.region_mask(region, [region])})
    assert any(fronts)  # a non-backtracking walk reads 00000
    unseen = (False, Word(0, 5))
    assert first_unseen_word(cfg, 5) == unseen
    got, steps = counted(lambda: sees_all_words_block(region, colors, region, 5))
    assert got == [unseen] and steps > 0


def sees_words(cfg, ball, L, mode):
    return sees_all_words(cfg, ball, L, mode=mode)[0]


def sees_words_bruteforce(cfg, ball, L, mode):
    return first_unseen_word(cfg, L, ball, mode)[0]


def allwords_reference(params, seed, t0, t1, sees=sees_words):
    d = params["d"]
    horizon, ball = box(params["R"], d), box(params["m"], d)
    return [int(not sees(sample(horizon, params["p"], RngStream(seed, t)), ball, params["L"],
                         params["mode"]))
            for t in range(t0, t1)]


def decay_reference(p, L, ms, R, d, mode, seed, t0, t1, sees=sees_words):
    """Failures before the first radius whose ball sees every word, one
    trial at a time."""
    out = []
    for t in range(t0, t1):
        cfg = sample(box(R, d), p, RngStream(seed, t))
        fails = 0
        while fails < len(ms) and not sees(cfg, box(ms[fails], d), L, mode):
            fails += 1
        out.append(fails)
    return out


@st.composite
def allwords_specs(draw):
    R = draw(st.integers(0, 2))
    return {"p": draw(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0])), "m": draw(st.integers(0, R)),
            "L": draw(st.integers(1, 4)), "R": R, "d": draw(st.integers(1, 3)),
            "mode": draw(st.sampled_from(["exact", "relaxed"]))}


@given(allwords_specs(), SEEDS, st.integers(1, 50), st.integers(1, 30), st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_allwords_block_matches_per_trial(params, seed, t0, trials, block):
    """The block's failures and steps are the per-trial walks', and each
    failure is a brute-force search's, one word at a time."""
    args = (params, seed, t0, t0 + trials)
    with mock.patch.object(config, "BLOCK_SITES", block):
        got = counted(lambda: harness._allwords_failures(*args))
    assert got == counted(lambda: allwords_reference(*args))
    assert got[0] == allwords_reference(*args, sees=sees_words_bruteforce)


@given(allwords_specs(), st.data(), SEEDS, st.integers(1, 50), st.integers(1, 30),
       st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_decay_block_matches_per_trial(params, data, seed, t0, trials, block):
    R = params["R"]
    ms = sorted(data.draw(st.sets(st.integers(0, R), min_size=1)))
    args = (params["p"], params["L"], ms, R, params["d"], params["mode"], seed)
    with mock.patch.object(config, "BLOCK_SITES", block):
        got = counted(lambda: harness._decay_failures(*args, t0, t0 + trials))
    assert got == counted(lambda: decay_reference(*args, t0, t0 + trials))
    assert got[0] == decay_reference(*args, t0, t0 + trials, sees=sees_words_bruteforce)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.data(),
       st.sampled_from([0.0, 0.3, 0.5, 1.0]), SEEDS, st.integers(1, 50),
       st.integers(1, 60), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_site_block_matches_per_trial(sizes, data, p, seed, t0, trials, block):
    vertex = [data.draw(st.integers(1, s)) for s in sizes]
    params = {"region": {"kind": "intervals", "intervals": [[0, s] for s in sizes]},
              "p": p, "vertex": vertex}
    with mock.patch.object(config, "BLOCK_SITES", block):
        got = harness._site_trials(params, seed, t0, t0 + trials)
    assert got == site_reference(params, seed, t0, t0 + trials)


@st.composite
def several_sources(draw):
    """A colour block of at most 64 sites, a max_index from 0 to 12, two
    spec words long enough for it, and one to four sources at offsets 0 to
    14, each reading one of the words."""
    region, colors = draw(colour_blocks(max_volume=64))
    max_index = draw(st.integers(0, 12))
    words = tuple(draw(WORDS.filter(lambda w: not set(w) <= {"0", "1"} or len(w) > max_index))
                  for _ in range(2))
    entries = tuple((region.unrank(draw(st.integers(0, region.volume - 1))),
                     draw(st.integers(0, 14)), draw(st.integers(0, 1)))
                    for _ in range(draw(st.integers(1, 4))))
    return region, colors, words, entries, max_index


# word 0 seeded at offsets 2 and 5: a period-2 word settles at index 6,
# and the examples put max_index at 5, 6 and 7
SETTLE_BOX = Region(((0, 3), (0, 3)))
SETTLE_COLORS = sample_block(SETTLE_BOX, 0.5, 1, 0, 16)
LATE = (((1, 1), 2, 0), ((3, 2), 5, 0))


@given(several_sources())
@settings(max_examples=60, deadline=None)
@example((SETTLE_BOX, SETTLE_COLORS, ("alt", "alt"), LATE, 5))
@example((SETTLE_BOX, SETTLE_COLORS, ("alt", "alt"), LATE, 6))
@example((SETTLE_BOX, SETTLE_COLORS, ("alt", "alt"), LATE, 7))
@example((SETTLE_BOX, SETTLE_COLORS, ("ones", "ones"), LATE, 5))
@example((SETTLE_BOX, SETTLE_COLORS, ("ones", "ones"), LATE, 6))
@example((SETTLE_BOX, SETTLE_COLORS, ("ones", "ones"), LATE, 7))
# sites 1, 2, 3 read from site 2 along alt (1, 0, ...): the second row's
# front is empty at index 1, the first row's is not
@example((Region(((0, 3),)), np.array([[False, True, False], [True, True, True]]),
          ("alt", "alt"), (((2,), 0, 0),), 4))
# the aperiodic 0110 sweeps on to max_index while alt settles at index 1
@example((SETTLE_BOX, SETTLE_COLORS, ("alt", "0110"), (((2, 2), 0, 0), ((1, 1), 0, 1)), 3))
def test_reach_block_several_sources_and_words(case):
    """Sources at several offsets reading several words: the block is the
    union of the per-word sweeps, like relaxed_word_reach's index_hits, and
    a brute-force walk search reaches max_index on the same rows."""
    region, colors, words, entries, max_index = case
    sources = SourceSet.from_entries(region, entries, tuple(map(harness.word_from_spec, words)))
    cfgs = [Configuration.from_bools(region, row) for row in colors]
    want = [relaxed_word_reach(c, sources, max_index).index_hits >> max_index & 1 for c in cfgs]
    assert relaxed_reach_block(region, colors, sources, max_index).tolist() == want
    assert want == [any(t == max_index for _, t in walk_reach_bruteforce(c, sources, max_index))
                    for c in cfgs]


def test_period_two_reach_block_settles_past_last_seed():
    """Asked only which trials reach max_index 60, the block sweep of alt
    from seeds at 0 and 3 takes the steps of indices 0 to 4; asked for the
    reached sites, it and relaxed_word_reach sweep on to the fronts'
    repeat."""
    region = box(6, 3)
    colors = sample_block(region, 0.5, 1, 0, 8)
    sources = SourceSet.from_entries(region, (((0, 0, 0), 0, 0), ((1, 0, 0), 3, 0)),
                                     (AlternatingWord(),))
    cfgs = [Configuration.from_bools(region, row) for row in colors]

    def stepped(thunk):
        steps = [0]
        step = search._step

        def counting(front, lattice):
            steps[0] += 1
            return step(front, lattice)

        with mock.patch.object(search, "_step", counting):
            return thunk(), steps[0]

    got, steps = stepped(lambda: relaxed_reach_block(region, colors, sources, 60).tolist())
    assert steps == 5
    assert got == [relaxed_word_reach(c, sources, 60).index_hits >> 60 & 1 for c in cfgs]
    assert any(got) and not all(got)
    assert stepped(lambda: relaxed_reach_block(region, colors, sources, 60, reached=True))[1] > 5
    assert stepped(lambda: relaxed_word_reach(cfgs[0], sources, 60))[1] > 5


def test_reach_block_front_repeats_under_aperiodic_word():
    # sites 1, 2, 3 coloured 0, 0, 1 from site 1: the fronts {1}, {2}, {1}
    # repeat two steps back, yet letter 3 of 00011 ends every walk
    region = Region(((0, 3),))
    colors = np.array([[False, False, True], [False, False, False]])
    sources = SourceSet.single(region, (1,), harness.word_from_spec("00011"))
    assert relaxed_reach_block(region, colors, sources, 4).tolist() == [False, False]
    assert relaxed_reach_block(region, colors, sources, 2).tolist() == [True, True]


def test_blocks_bounded():
    # consecutive blocks of at most BLOCK_SITES sites, or of one trial
    for sites in (1, 4, 2197, config.BLOCK_SITES, config.BLOCK_SITES + 1):
        end = 5 + 3 * config.BLOCK_SITES // sites + 2
        ranges = config.trial_blocks(5, end, sites)
        assert [t for b0, b1 in ranges for t in range(b0, b1)] == list(range(5, end))
        assert all(b1 - b0 == 1 or (b1 - b0) * sites <= config.BLOCK_SITES
                   for b0, b1 in ranges)


def test_reach_block_exceeding_block_sites():
    # one trial per block when the region alone is larger than a block
    params = {"region": {"kind": "intervals", "intervals": [[0, 131], [0, 127]]},
              "p": 0.5, "word": "alt", "source": [60, 60], "max_index": 9,
              "mode": "relaxed"}
    assert 131 * 127 > config.BLOCK_SITES
    assert harness._reach_trials(params, 11, 4, 7) == reach_reference(params, 11, 4, 7)


def pair_arrays(pair):
    return [pair.omega.bools(), pair.omega_tilde.bools(), pair._explored, pair._parent,
            pair._root_idx, pair._depth]


def coupled_or_error(fn):
    try:
        return fn()
    except DomainError as e:
        return str(e)


# word factories by the number of sources, with the spec word of those a
# spec can name
COUPLING_WORDS = {
    "alt": (lambda n: AlternatingWord(), "alt"),
    "product": (lambda n: ProductWord(0.5, seed=3), "product:q=0.5,seed=3"),
    "finite": (lambda n: Word.from_string("1101"), "1101"),
    "short": (lambda n: Word.from_string("1"), "1"),  # read past its end below a 1-source
    "empty": (lambda n: Word.from_string(""), None),  # fails wherever a letter is read
    "mixed": (lambda n: [(ProductWord(0.5, seed=3), AlternatingWord(),
                          Word.from_string("01" * 9))[i % 3] for i in range(n)], None),
}


@st.composite
def coupling_setups(draw):
    """A box of one to three axes and one to three distinct sources in it."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    region = Region(tuple((0, s) for s in sizes))
    ranks = draw(st.lists(st.integers(0, region.volume - 1), min_size=1, max_size=3,
                          unique=True))
    return region, [region.unrank(r) for r in ranks]


@given(coupling_setups(), st.sampled_from(sorted(COUPLING_WORDS)),
       st.sampled_from([0.0, 0.2, 0.35, 0.5]), st.integers(0, 1), SEEDS, st.integers(0, 50),
       st.integers(1, 25), st.integers(1, 200))
@settings(max_examples=80, deadline=None)
# a one-letter word: the trials whose source is a 1 read past its end
@example((Region(((0, 3), (0, 3))), [(2, 2)]), "short", 0.5, 0, 1, 3, 12, 40)
def test_wierman_block_rows_match_per_trial(setup, word, p, start_index, seed, t0, trials,
                                            block):
    """Every row of every block (blocks of a patched BLOCK_SITES) is the pair
    wierman_couple draws for its trial, and the range's outcomes are those
    pairs' certificates; a word too short for some trial fails both."""
    region, sources = setup
    make, spec_word = COUPLING_WORDS[word]
    words = make(len(sources))
    t1 = t0 + trials

    def per_trial():
        return [wierman_couple(region, sources, words, p, RngStream(seed, t), start_index)
                for t in range(t0, t1)]

    def blocks():
        return [pair for b0, b1 in config.trial_blocks(t0, t1, 2 * region.volume)
                for pair in couple_block(region, sources, words, p, seed, b0, b1, start_index)]

    with mock.patch.object(config, "BLOCK_SITES", block):
        got = coupled_or_error(blocks)
        if spec_word is not None:
            params = {"region": {"kind": "intervals", "intervals": [[0, s] for s in region.sizes]},
                      "p": p, "sources": [list(v) for v in sources], "word": spec_word,
                      "start_index": start_index}
            outcomes = coupled_or_error(lambda: harness._wierman_trials(params, seed, t0, t1))
    want = coupled_or_error(per_trial)
    if isinstance(want, str):
        assert got == want == "coupling word too short; use a generator"
        assert spec_word is None or outcomes == want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.provenance == b.provenance
        for x, y in zip(pair_arrays(a), pair_arrays(b), strict=True):
            np.testing.assert_array_equal(x, y)
    if spec_word is not None:
        assert outcomes == [int(verify_coupling(pair)[0]) for pair in want] == [1] * trials


FANNED = (
    ("reach0", "reach", {"region": {"kind": "intervals", "intervals": [[-1, 1], [-1, 1]]},
                         "p": 0.5, "word": "10", "source": [0, 0]}),
    ("reach1", "reach", {"region": {"kind": "box", "m": 2, "d": 3}, "p": 0.5, "word": "alt",
                         "source": [0, 0, 0], "max_index": 12, "mode": "relaxed"}),
    ("reach2", "reach", {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.4,
                         "word": {"kind": "product", "q": 0.5, "seed": 3}, "source": [1, 0],
                         "max_index": 1}),
    ("site3", "site", {"region": {"kind": "box", "m": 1, "d": 3}, "p": 0.3,
                       "vertex": [1, 0, -1]}),
    # exact reach past index 1: depth-first searches behind the block screen
    ("reach4", "reach", {"region": {"kind": "box", "m": 1, "d": 3}, "p": 0.5, "word": "alt",
                         "source": [0, 0, 0], "max_index": 6}),
    ("allwords5", "allwords", {"p": 0.5, "m": 1, "L": 4, "R": 2, "d": 2, "mode": "exact"}),
    ("decay6", "decay", (0.5, 3, [0, 1], 2, 2, "relaxed")),
    ("decay8", "decay", (0.5, 4, [0, 1, 2], 2, 2, "exact")),
    # pairs coupled and verified a block at a time, with a source whose
    # start_index=1 colours are free draws
    ("wierman7", "wierman", {"region": {"kind": "box", "m": 1, "d": 2}, "p": 0.45,
                             "sources": [[0, 0], [1, 1]], "word": "alt", "start_index": 1}),
)


def wierman_reference(params, seed, t0, t1):
    region = harness.region_from_spec(params["region"])
    sources = [tuple(v) for v in params["sources"]]
    word = harness.word_from_spec(params["word"])
    return [int(verify_coupling(wierman_couple(region, sources, word, params["p"],
                                               RngStream(seed, t), params["start_index"]))[0])
            for t in range(t0, t1)]


REFERENCES = {"reach": reach_reference, "site": site_reference,
              "allwords": allwords_reference, "decay": decay_reference,
              "wierman": wierman_reference}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind,params", [f[1:] for f in FANNED], ids=[f[0] for f in FANNED])
def test_fanned_block_outcomes(kind, params, workers, monkeypatch):
    cpus = os.cpu_count() or 1  # let WORDPERC_THREADS reach 2 on a one-core host
    monkeypatch.setattr(os, "cpu_count", lambda: max(workers, cpus))
    monkeypatch.setenv("WORDPERC_THREADS", str(workers))
    trials, seed = 301, 9
    if kind == "decay":
        fn, args = harness._decay_failures, params
    else:
        fn, args = harness._BERNOULLI[kind], (params,)
    got = run_trials(fn, (*args, seed), trials)
    assert got == REFERENCES[kind](*args, seed, 0, trials)
    # the specs decide some trials each way; every coupling certificate holds
    assert len(set(got)) > 1 or kind == "wierman" and set(got) == {1}
