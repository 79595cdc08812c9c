"""Trials draw and search only the sites they can read.

Site rank i of trial t gets draw i of stream (seed, t) whatever else is
drawn, so sample_block may draw a sub-box of its region, and any subset
of a block's trials: each site keeps its rank's draw in the region, and
each row its trial's stream.  Reach trials draw the part of their region
within search.reach_radius of the source, renorm good trials the box
F^u u B^u of their window, and all-words and decay trials the box a
length-L word read from the largest ball can reach.  Reach, all-words and
decay trials first draw and search a near box, one step around the
source or the ball, and only the trials it leaves open draw their full
sub-box.  Every outcome must equal the per-trial search on the whole
region, window or horizon, and the draws must cover exactly those boxes.
"""

import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordperc import config, harness, rng
from wordperc.cli import main
from wordperc.config import Configuration, sample, sample_block
from wordperc.errors import CapacityError, DomainError
from wordperc.geometry import Region, box, ranks_within
from wordperc.renorm import SeedSet, good_event
from wordperc.rng import RngStream
from wordperc.search import (MAX_INDEX, SourceSet, exact_word_reach, reach_radius,
                             relaxed_word_reach, sees_all_words)

SEEDS = st.sampled_from([0, 1, 7, 2**63, 2**64 - 1])
STREAMS = st.one_of(st.integers(0, 100), st.integers(2**64 - 6, 2**64 - 1),
                    st.sampled_from([2**63 - 1, 2**63]))


@st.composite
def regions(draw, max_size=6):
    """A box of one to three axes, shifted off the origin."""
    return Region(tuple((lo, lo + draw(st.integers(1, max_size)))
                        for lo in draw(st.lists(st.integers(-4, 3), min_size=1, max_size=3))))


def edge_point(draw, region):
    """A point of region, on a face or corner of it more often than not."""
    return tuple(draw(st.sampled_from([lo + 1, hi, draw(st.integers(lo + 1, hi))]))
                 for lo, hi in region.intervals)


@st.composite
def parts(draw):
    """A region and a box inside it: its points within some radius of an
    edge point (clipped at the faces), or any sub-box."""
    region = draw(regions())
    if draw(st.booleans()):
        part = region.around(edge_point(draw, region), draw(st.integers(0, 3)))
    else:
        ivs = []
        for lo, hi in region.intervals:
            a = draw(st.integers(lo, hi - 1))
            ivs.append((a, draw(st.integers(a + 1, hi))))
        part = Region(tuple(ivs))
    return region, part


@given(parts(), st.sampled_from([0.0, 0.3, 0.5, 1.0]), SEEDS, STREAMS, st.integers(1, 5))
@settings(max_examples=80, deadline=None)
@example((Region(((0, 4), (0, 4))), Region(((3, 4), (0, 1)))), 0.5, 1, 2**64 - 2, 4)  # corner
def test_sub_box_rows_are_full_rows_at_its_ranks(case, p, seed, t0, trials):
    region, part = case
    got = sample_block(region, p, seed, t0, t0 + trials, part)
    ranks = ranks_within(part, region)
    assert got.shape == (trials, part.volume)
    assert (got == sample_block(region, p, seed, t0, t0 + trials)[:, ranks]).all()
    stream = RngStream(seed, t0 + trials - 1)  # the scalar draws of the last row
    assert got[-1].tolist() == [stream.bernoulli(p, i) for i in ranks.tolist()]


@given(parts(), st.sampled_from([0.0, 0.3, 0.5, 1.0]), SEEDS, STREAMS, st.integers(1, 6),
       st.data())
@settings(max_examples=60, deadline=None)
def test_chosen_rows_are_the_blocks_rows(case, p, seed, t0, trials, data):
    region, part = case
    rows = np.array(data.draw(st.lists(st.integers(0, trials - 1), max_size=8)), dtype=np.intp)
    got = sample_block(region, p, seed, t0, t0 + trials, part, rows)
    assert got.shape == (len(rows), part.volume)
    assert (got == sample_block(region, p, seed, t0, t0 + trials, part)[rows]).all()


def test_sub_box_outside_the_region_is_refused():
    with pytest.raises(DomainError):
        sample_block(box(2, 2), 0.5, 1, 0, 3, box(3, 2))


@pytest.mark.parametrize("rows", [[3], [-1], [0, 5]])
def test_rows_outside_the_block_are_refused(rows):
    with pytest.raises(DomainError, match="row offsets"):
        sample_block(box(2, 2), 0.5, 1, 2**64 - 1, 2**64 + 2, box(1, 2), np.array(rows))


# -- reach ------------------------------------------------------------------------

REACH_WORDS = ["alt", "ones", "zeros", "periodic:10", "periodic:110", "product:q=0.5,seed=2",
               "1010101010", "0110100110", "0000000000"]


@st.composite
def reach_specs(draw):
    region = draw(regions(max_size=7))
    return {"region": {"kind": "intervals", "intervals": [list(iv) for iv in region.intervals]},
            "p": draw(st.sampled_from([0.3, 0.5, 0.7, 1.0])),
            "word": draw(st.sampled_from(REACH_WORDS)), "source": list(edge_point(draw, region)),
            "max_index": draw(st.integers(0, 5)),
            "mode": draw(st.sampled_from(["exact", "relaxed"]))}


def reach_reference(params, seed, t0, t1):
    """Per-trial relaxed or exact search on each trial's whole region."""
    region = harness.region_from_spec(params["region"])
    word = harness.word_from_spec(params["word"])
    length = params["max_index"]
    src = SourceSet.single(region, tuple(params["source"]), word)
    out = []
    for t in range(t0, t1):
        cfg = sample(region, params["p"], RngStream(seed, t))
        if params["mode"] == "relaxed":
            res = relaxed_word_reach(cfg, src, length)
        else:
            res = exact_word_reach(cfg, src, length, stop_at_index=length)
        out.append(res.index_hits >> length & 1)
    return out


def corner_spec(sizes, source, word, max_index, mode):
    return {"region": {"kind": "intervals", "intervals": [[0, s] for s in sizes]}, "p": 0.5,
            "word": word, "source": source, "max_index": max_index, "mode": mode}


@given(reach_specs(), SEEDS, STREAMS, st.integers(1, 40), st.integers(1, 300))
@settings(max_examples=150, deadline=None)
# max_index at least the sub-box volume: a corner of a path, and of a 2 x 2 box
@example(corner_spec([3], [3], "0110100110", 5, "exact"), 1, 0, 30, 50)
@example(corner_spec([2, 2], [1, 1], "1010101010", 4, "exact"), 1, 0, 30, 50)
@example(corner_spec([7, 7], [1, 7], "alt", 5, "relaxed"), 7, 2**64 - 3, 40, 40)
@example(corner_spec([2], [2], "ones", 5, "relaxed"), 1, 3, 20, 7)
# a settled period-2 word next to an aperiodic one on the same box
@example(corner_spec([7, 7, 7], [4, 4, 1], "alt", 5, "relaxed"), 1, 3, 40, 300)
@example(corner_spec([7, 7, 7], [4, 4, 1], "0110100110", 5, "relaxed"), 1, 3, 40, 300)
def test_reach_sub_box_matches_whole_region(params, seed, t0, trials, block):
    with mock.patch.object(config, "BLOCK_SITES", block):
        got = harness._reach_trials(params, seed, t0, t0 + trials)
    assert got == reach_reference(params, seed, t0, t0 + trials)


@pytest.mark.parametrize("word,mode,max_index,radius", [
    ("alt", "relaxed", 0, 0), ("alt", "relaxed", 60, 1), ("zeros", "relaxed", 9, 1),
    ("0101", "relaxed", 3, 1), ("0110", "relaxed", 3, 3), ("alt", "exact", 60, 60),
    ("product:q=0.5,seed=2", "relaxed", 12, 12),
])
def test_reach_radius(word, mode, max_index, radius):
    assert reach_radius(harness.word_from_spec(word), max_index, mode == "relaxed") == radius


@pytest.mark.parametrize("mode", ["exact", "relaxed"])
@pytest.mark.parametrize("word,max_index,error,message,fits", [
    ("110" * 14, MAX_INDEX + 1, CapacityError, f"max_index capped at {MAX_INDEX}", 30),
    ("110", 5, DomainError, "word too short for requested index range", 2),
])
def test_refused_though_the_near_box_settles_every_trial(mode, word, max_index, error,
                                                         message, fits):
    """At p = 0 no trial reads the leading 1, so the near box fails every
    trial, as the run with max_index = fits shows: it draws the 27 sites
    of the near box alone.  The search's refusal still comes, before any
    row is drawn."""
    params = {"region": {"kind": "box", "m": 3, "d": 3}, "p": 0.0, "word": word,
              "source": [0, 0, 0], "max_index": max_index, "mode": mode}
    drawn = []
    with pytest.raises(error) as refused:
        with mock.patch.object(harness, "sample_block",
                               lambda *a: drawn.append(sample_block(*a)) or drawn[-1]):
            harness._reach_trials(params, 1, 0, 50)
    assert str(refused.value) == message
    assert [len(colors) for colors in drawn] == [0]
    params["max_index"] = fits
    assert harness._reach_trials(params, 1, 0, 50) == [0] * 50
    blocks = drawn_blocks(harness._reach_trials, params, 1, 0, 50)
    assert blocks[0][0] > 27 and blocks == [(blocks[0][0], []), (27, list(range(50)))]


# -- renorm good ------------------------------------------------------------------

GOOD_CASES = [("alt", "relaxed", 2), ("periodic:110", "relaxed", 2), ("alt", "exact", 2),
              ("zeros", "exact", 2), ("product:q=0.5,seed=2", "exact", 2),
              ("alt", "relaxed", 4), ("ones", "relaxed", 4), ("alt", "exact", 4)]


def good_reference(params, seed, t0, t1):
    """Per-trial good_event on each trial's whole window."""
    rp = harness._renorm_params(params)
    u, k = tuple(params["u"]), rp.k
    window = Region(tuple((k * s - 2 * k - 2, k * s + 2 * k + 2) for s in u))
    full, xi = SeedSet.full_face(u, rp), harness.word_from_spec(params["word"])
    return [int(good_event(sample(window, rp.p, RngStream(seed, t)), full, xi, rp,
                           mode=params["mode"])) for t in range(t0, t1)]


@given(st.sampled_from(GOOD_CASES), st.sampled_from([(0, 0, 2), (2, 1, 1), (2, -1, 3)]),
       st.sampled_from([0.3, 0.45, 0.55]), SEEDS, STREAMS, st.integers(1, 6),
       st.integers(1, 3000))
@settings(max_examples=40, deadline=None)
@example(("alt", "exact", 4), (2, 1, 1), 0.55, 7, 2**64 - 2, 6, 1200)
def test_renorm_good_sub_box_matches_whole_window(case, u, p, seed, t0, trials, block):
    word, mode, k = case
    params = {"p": p, "k": k, "word": word, "mode": mode, "u": list(u)}
    with mock.patch.object(config, "BLOCK_SITES", block):
        got = harness._renorm_good_trials(params, seed, t0, t0 + trials)
    assert got == good_reference(params, seed, t0, t0 + trials)


@pytest.mark.parametrize("seed", [1, 2**63])
def test_renorm_good_sub_box_k4_self_avoiding(seed):
    # one self-avoiding search per trial on the 576-site box; at p = 0.25
    # from (2, 1, 1) these stay well inside the node budget
    params = {"p": 0.25, "k": 4, "word": "product:q=0.5,seed=2", "mode": "exact",
              "u": [2, 1, 1]}
    with mock.patch.object(config, "BLOCK_SITES", 2 * 576):
        got = harness._renorm_good_trials(params, seed, 3, 8)
    assert got == good_reference(params, seed, 3, 8)


# -- all-words and decay ----------------------------------------------------------

@st.composite
def horizons(draw):
    """A ball inside its horizon: R from m (the near box is the horizon,
    no screen) to past m + L - 1 (the trials draw less than the horizon),
    with L from 1 (no screen) to 5 (exact leaves run depth-first)."""
    m, L, d = draw(st.integers(0, 2)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    R = draw(st.integers(m, min(m + L + 1, 4 if d == 3 else 6)))
    return {"p": draw(st.sampled_from([0.3, 0.5, 0.8])), "m": m, "L": L, "R": R, "d": d,
            "mode": draw(st.sampled_from(["exact", "relaxed"]))}


def sees_on_horizon(params, m, seed, t):
    d = params["d"]
    cfg = sample(box(params["R"], d), params["p"], RngStream(seed, t))
    return sees_all_words(cfg, box(m, d), params["L"], mode=params["mode"])[0]


def allwords_reference(params, seed, t0, t1):
    return [int(not sees_on_horizon(params, params["m"], seed, t)) for t in range(t0, t1)]


def decay_reference(params, ms, seed, t0, t1):
    want = []
    for t in range(t0, t1):
        fails = 0
        while fails < len(ms) and not sees_on_horizon(params, ms[fails], seed, t):
            fails += 1
        want.append(fails)
    return want


# the spec of test_screen_settles_and_opens: rows settled by either rule,
# and open rows that see every word on the horizon and that do not
SCREENED = {"p": 0.4, "m": 1, "L": 4, "R": 4, "d": 2, "mode": "exact"}


@given(horizons(), SEEDS, STREAMS, st.integers(1, 20), st.integers(1, 400))
@settings(max_examples=60, deadline=None)
@example({"p": 0.5, "m": 1, "L": 4, "R": 6, "d": 3, "mode": "exact"}, 1, 0, 6, 400)
@example(SCREENED, 1, 2**64 - 5, 12, 30)
@example({**SCREENED, "mode": "relaxed", "L": 5, "R": 5}, 7, 3, 12, 60)
def test_allwords_sub_box_matches_horizon(params, seed, t0, trials, block):
    with mock.patch.object(config, "BLOCK_SITES", block):
        got = harness._allwords_failures(params, seed, t0, t0 + trials)
    assert got == allwords_reference(params, seed, t0, t0 + trials)


@st.composite
def decay_specs(draw):
    """A horizon and one to three radii inside it."""
    params = draw(horizons())
    return params, sorted(draw(st.sets(st.integers(0, params["R"]), min_size=1, max_size=3)))


@given(decay_specs(), SEEDS, STREAMS, st.integers(1, 20), st.integers(1, 400))
@settings(max_examples=40, deadline=None)
@example(({**SCREENED, "R": 5}, [1, 2]), 3, 2**64 - 5, 12, 30)
def test_decay_sub_box_matches_horizon(case, seed, t0, trials, block):
    params, ms = case
    args = (params["p"], params["L"], ms, params["R"], params["d"], params["mode"], seed)
    with mock.patch.object(config, "BLOCK_SITES", block):
        got = harness._decay_failures(*args, t0, t0 + trials)
    assert got == decay_reference(params, ms, seed, t0, t0 + trials)


def opened_trials(fn, *args):
    """The trials whose full sub-box a screened range function draws, those
    its near box leaves open: the rows of the blocks as wide as its first,
    the block of no trials that checks the input (drawn_blocks, below)."""
    blocks = drawn_blocks(fn, *args)
    return {t for sites, trials in blocks[1:] if sites == blocks[0][0] for t in trials}


@pytest.mark.parametrize("kind", ["reach", "allwords", "decay"])
def test_screen_settles_and_opens(kind):
    """Known specs whose trials reach every outcome the screen has: settled
    by the failure rule, by the success rule (words only) and open, with
    open trials that succeed and that fail.  Each must match the whole
    horizon or region."""
    t0, t1 = 2**64 - 20, 2**64 + 40
    if kind == "reach":
        params = {"region": {"kind": "box", "m": 3, "d": 2}, "p": 0.5, "source": [0, 0],
                  "word": "product:q=0.5,seed=2", "max_index": 5, "mode": "exact"}
        got = harness._reach_trials(params, 3, t0, t1)
        opened = opened_trials(harness._reach_trials, params, 3, t0, t1)
        want = reach_reference(params, 3, t0, t1)
        failed, passed = 0, 1
    elif kind == "allwords":
        got = harness._allwords_failures(SCREENED, 3, t0, t1)
        opened = opened_trials(harness._allwords_failures, SCREENED, 3, t0, t1)
        want = allwords_reference(SCREENED, 3, t0, t1)
        failed, passed = 1, 0
    else:
        params = {**SCREENED, "R": 5}
        args = (params["p"], params["L"], [1, 2], params["R"], params["d"], params["mode"], 3)
        got = harness._decay_failures(*args, t0, t1)
        opened = opened_trials(harness._decay_failures, *args, t0, t1)
        want = decay_reference(params, [1, 2], 3, t0, t1)
        failed, passed = 2, 0  # every ball fails, or the first sees every word
    assert got == want
    kinds = Counter((t in opened, outcome) for t, outcome in zip(range(t0, t1), got))
    assert kinds[False, failed] and kinds[True, failed] and kinds[True, passed]
    assert bool(kinds[False, passed]) == (kind != "reach")


# -- what the trials draw ---------------------------------------------------------

def drawn_blocks(fn, *args):
    """(columns, trials) of every block the range function samples, in
    order: the sites it draws per row, and the trials of its rows."""
    blocks = []

    def recording(region, p, seed, t0, t1, part=None, rows=None):
        out = sample_block(region, p, seed, t0, t1, part, rows)
        trials = range(t0, t1) if rows is None else [t0 + r for r in rows.tolist()]
        blocks.append((out.shape[1], list(trials)))
        return out

    with mock.patch.object(harness, "sample_block", recording):
        fn(*args)
    return blocks


def blocks_of(sites, trials):
    """The trials in blocks of at most BLOCK_SITES // sites rows (at least
    one), each drawing sites per row."""
    size = max(1, config.BLOCK_SITES // sites)
    return [(sites, trials[i:i + size]) for i in range(0, len(trials), size)]


def screened_blocks(t0, t1, near, sites, opened):
    """A screened range's draws: a block of no trials on the sub-box (the
    search checks its input before any draw), then blocks sized by the
    near box, each followed by its open trials' sub-box in chunks."""
    want = [(sites, [])]
    for _, block in blocks_of(near, list(range(t0, t1))):
        want += [(near, block)] + blocks_of(sites, [t for t in block if t in opened])
    return want


def near_colors(region, near, p, seed, t):
    """Trial t's colouring of the near box, each site with its draw in region."""
    bits = sample(region, p, RngStream(seed, t)).bools()[ranks_within(near, region)]
    return Configuration.from_bools(near, bits)


def reach_open(params, seed, t):
    """Whether a reach trial's relaxed front at index 1 is nonempty."""
    region = harness.region_from_spec(params["region"])
    src = SourceSet.single(region, tuple(params["source"]), harness.word_from_spec(params["word"]))
    cfg = sample(region, params["p"], RngStream(seed, t))
    return relaxed_word_reach(cfg, src, 1).index_hits >> 1 & 1


def words_open(params, m, seed, t):
    """Whether the ball of radius m is left open by its near box, the box
    one step around it: it misses some length-L word there (the first
    ball that does not, or every ball, settles the trial) but no 2-letter
    word (a ball that does settles a failure)."""
    d, R = params["d"], params["R"]
    cfg = near_colors(box(R, d), box(min(R, m + 1), d), params["p"], seed, t)
    return [sees_all_words(cfg, box(m, d), L, mode=params["mode"])[0]
            for L in (params["L"], 2)]


BOX6 = {"kind": "box", "m": 6, "d": 3}
# trials of test_trials_draw_only_the_sub_box and the decay test the near box leaves open
OPENED = {"reach": 338, "allwords": 0, "decay": 1}


@pytest.mark.parametrize("kind,params,sites", [
    # the benchmark's inputs: a settled period-2 reach, and renorm good events
    ("reach", {"region": BOX6, "p": 0.5, "word": "alt", "source": [0, 0, 0], "max_index": 60,
               "mode": "relaxed"}, 27),
    ("renorm", {"p": 0.5, "k": 4, "word": "alt", "mode": "exact"}, 576),
    ("renorm", {"p": 0.5, "k": 2, "word": "product:q=0.5,seed=2", "mode": "exact"}, 80),
    # a corner source, clipped to 2 x 2 x 2 sites; an exact reach to index 4
    ("reach", {"region": BOX6, "p": 0.5, "word": "alt", "source": [6, -6, 6], "max_index": 9,
               "mode": "relaxed"}, 8),
    ("reach", {"region": BOX6, "p": 0.5, "word": "alt", "source": [0, 0, 0], "max_index": 4,
               "mode": "exact"}, 729),
    ("allwords", {"p": 0.5, "m": 1, "L": 3, "R": 6, "d": 3, "mode": "exact"}, 343),
])
def test_trials_draw_only_the_sub_box(kind, params, sites):
    """Every block, in order.  A radius-1 reach and renorm draw their sub-box
    in blocks sized by it.  An exact reach to index 4 and all-words with
    L = 3 screen on their near box (27 and 125 sites), which sizes the
    blocks, and draw the sub-box only for the trials it leaves open."""
    blocks = drawn_blocks(harness._BERNOULLI[kind], params, 5, 0, 700)
    if kind == "reach" and params["mode"] == "exact":
        opened = {t for t in range(700) if reach_open(params, 5, t)}
        assert blocks == screened_blocks(0, 700, 27, sites, opened)
        assert len(opened) == OPENED["reach"]
    elif kind == "allwords":
        opened = {t for t in range(700) if words_open(params, 1, 5, t) == [False, True]}
        assert blocks == screened_blocks(0, 700, 125, sites, opened)
        assert len(opened) == OPENED["allwords"]
    else:
        assert blocks == blocks_of(sites, list(range(700)))


def test_decay_draws_the_largest_balls_box():
    """Decay screens every ball on its near box, gathered from the largest
    ball's (49 sites); a trial that some ball leaves open draws the 81
    sites the largest ball's words reach, once, for every ball."""
    params = {"p": 0.5, "L": 3, "R": 9, "d": 2, "mode": "relaxed"}
    opened = set()
    for t in range(40):
        for m in (0, 1, 2):
            seen = words_open(params, m, 5, t)
            if seen != [False, False]:  # not a settled failure
                if seen == [False, True]:
                    opened.add(t)
                break
    args = (0.5, 3, [0, 1, 2], 9, 2, "relaxed", 5, 0, 40)
    assert drawn_blocks(harness._decay_failures, *args) == screened_blocks(0, 40, 49, 81,
                                                                          opened)
    assert len(opened) == OPENED["decay"]


def drawn_sites(fn, *args):
    """Rows drawn per row width by a range function."""
    drawn = Counter()
    for sites, rows in drawn_blocks(fn, *args):
        drawn[sites] += len(rows)
    return dict(drawn)


def test_benchmark_inputs_draw_counts():
    """Three of the lattice_mc benchmark's inputs at seed 1, as one range:
    the exact reach draws 27 sites for each trial and 343 for the 96 that
    the near box leaves open; all-words and decay draw only their near
    boxes (the sub-box's entries are the blocks of no trials that check
    the input)."""
    reach = {"region": {"kind": "box", "m": 3, "d": 3}, "p": 0.5, "source": [0, 0, 0],
             "word": {"kind": "product", "q": 0.5, "seed": 2}, "max_index": 12, "mode": "exact"}
    assert drawn_sites(harness._reach_trials, reach, 1, 0, 200) == {27: 200, 343: 96}
    allwords = {"p": 0.5, "m": 1, "L": 4, "R": 3, "d": 3, "mode": "exact"}
    assert drawn_sites(harness._allwords_failures, allwords, 1, 0, 100) == {125: 100, 343: 0}
    decay = (0.5, 6, [0, 1, 2], 4, 3, "relaxed", 1, 0, 10)
    assert drawn_sites(harness._decay_failures, *decay) == {343: 10, 729: 0}


# -- guards come before any draw --------------------------------------------------

HUGE = {"kind": "box", "m": 3000, "d": 2}  # 36,012,001 sites, past MAX_SITES


@pytest.mark.parametrize("kind,params", [
    ("reach", {"region": HUGE, "p": 0.5, "word": "alt", "source": [0, 0], "max_index": 1,
               "mode": "relaxed"}),
    ("reach", {"region": HUGE, "p": 0.5, "word": "10", "source": [0, 0], "max_index": 5}),
    ("decay", {"p": 0.5, "L": 2, "R": 3000, "m_list": [0], "d": 2, "mode": "exact"}),
    ("renorm", {"p": 0.5, "k": 400, "word": "alt"}),
], ids=["reach-relaxed", "reach-short-word", "decay-horizon", "renorm-window"])
def test_oversized_region_refused_before_any_draw(kind, params, tmp_path, capsys, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew from a region past MAX_SITES")

    monkeypatch.setattr(rng, "_draws", no_draws)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": kind, "params": params, "trials": 2, "seed": 1}))
    assert main(["--spec", str(path)]) == 3
    assert "sampling capped" in capsys.readouterr().err
