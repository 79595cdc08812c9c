"""Trials draw and search only the sites they can read.

Site rank i of trial t gets draw i of stream (seed, t) whatever else is
drawn, so sample_block may draw a sub-box of its region: each of its
sites keeps its rank's draw in the region.  Reach trials draw the part of
their region within search.reach_radius of the source, renorm good trials
the box F^u u B^u of their window, and all-words and decay trials the box
a length-L word read from the largest ball can reach.  Every outcome must
equal the per-trial search on the whole region, window or horizon, and
the draws must cover exactly the sub-box.
"""

import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordperc import config, harness, rng
from wordperc.cli import main
from wordperc.config import sample, sample_block
from wordperc.errors import DomainError
from wordperc.geometry import Region, box, ranks_within
from wordperc.renorm import SeedSet, good_event
from wordperc.rng import RngStream
from wordperc.search import (SourceSet, exact_word_reach, reach_radius, relaxed_word_reach,
                             sees_all_words)

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


def test_sub_box_outside_the_region_is_refused():
    with pytest.raises(DomainError):
        sample_block(box(2, 2), 0.5, 1, 0, 3, box(3, 2))


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
def far_horizons(draw):
    """R past m + L - 1, so the trials draw less than the horizon."""
    m, L = draw(st.integers(0, 1)), draw(st.integers(1, 4))
    return {"p": draw(st.sampled_from([0.3, 0.5, 0.8])), "m": m, "L": L,
            "R": m + L - 1 + draw(st.integers(1, 2)), "d": draw(st.integers(1, 3)),
            "mode": draw(st.sampled_from(["exact", "relaxed"]))}


def sees_on_horizon(params, m, seed, t):
    d = params["d"]
    cfg = sample(box(params["R"], d), params["p"], RngStream(seed, t))
    return sees_all_words(cfg, box(m, d), params["L"], mode=params["mode"])[0]


@given(far_horizons(), SEEDS, STREAMS, st.integers(1, 20), st.integers(1, 400))
@settings(max_examples=40, deadline=None)
@example({"p": 0.5, "m": 1, "L": 4, "R": 6, "d": 3, "mode": "exact"}, 1, 0, 6, 400)
def test_allwords_sub_box_matches_horizon(params, seed, t0, trials, block):
    with mock.patch.object(config, "BLOCK_SITES", block):
        got = harness._allwords_failures(params, seed, t0, t0 + trials)
    assert got == [int(not sees_on_horizon(params, params["m"], seed, t))
                   for t in range(t0, t0 + trials)]


@given(far_horizons(), SEEDS, STREAMS, st.integers(1, 20), st.integers(1, 400))
@settings(max_examples=30, deadline=None)
def test_decay_sub_box_matches_horizon(params, seed, t0, trials, block):
    ms = sorted({0, params["m"]})
    args = (params["p"], params["L"], ms, params["R"], params["d"], params["mode"], seed)
    with mock.patch.object(config, "BLOCK_SITES", block):
        got = harness._decay_failures(*args, t0, t0 + trials)
    want = []
    for t in range(t0, t0 + trials):
        fails = 0
        while fails < len(ms) and not sees_on_horizon(params, ms[fails], seed, t):
            fails += 1
        want.append(fails)
    assert got == want


# -- what the trials draw ---------------------------------------------------------

def drawn_columns(fn, *args):
    """The column counts of every block the range function samples."""
    columns = []

    def counting(*a, **kw):
        out = sample_block(*a, **kw)
        columns.append(out.shape[1])
        return out

    with mock.patch.object(harness, "sample_block", counting):
        fn(*args)
    return columns


BOX6 = {"kind": "box", "m": 6, "d": 3}


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
    columns = drawn_columns(harness._BERNOULLI[kind], params, 5, 0, 700)
    assert set(columns) == {sites}
    # blocks are sized by the sub-box
    assert len(columns) == math.ceil(700 / max(1, config.BLOCK_SITES // sites))


def test_decay_draws_the_largest_balls_box():
    args = (0.5, 3, [0, 1, 2], 9, 2, "relaxed", 5, 0, 40)
    assert drawn_columns(harness._decay_failures, *args) == [9 * 9]


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
