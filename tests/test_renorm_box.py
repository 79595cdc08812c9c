"""Renormalization boxes searched as regions of their own, and good events
decided a block of trials at a time, against the window-masked kernels.

F^u u B^u is a box, so renorm gathers its colours from the window and
searches that region alone.  Every ReachResult (arrival and minimal-arrival
dicts in their iteration order, witnesses, index hits) and every
depth-first node count must equal those of the same search on the whole
window masked to F^u u B^u.  Walk-decided good events of a block of trials
must equal the per-trial verdicts read from the masked relaxed search.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordperc import config, harness, renorm, search
from wordperc.config import sample
from wordperc.errors import CapacityError
from wordperc.geometry import (Region, box, macro_box, macro_face, macro_out_neighbors,
                               neighbor_ranks, neighbor_steps)
from wordperc.renorm import RenormParams, SeedSet, good_event, seed_sets_from
from wordperc.rng import RngStream
from wordperc.search import SourceSet, exact_word_reach, region_mask, relaxed_word_reach
from wordperc.words import Word, _pack, has_period_two

# macro vertices for h = 4, at several positions and with 2 to 4 out-neighbors
VERTICES = [(0, 0, 2), (2, 1, 1), (2, -1, 3), (4, 0, 2), (6, 1, 1)]
WORDS = ["alt", "ones", "periodic:110", "product:q=0.5,seed=2", "product:q=0.3,seed=7"]


def window_around(u, k, d, pads):
    """A window holding F^u u B^u and its out-neighbors' faces, padded
    unevenly so the box sits at a different place in each window."""
    su = list(u) + [0] * (d - 3)
    return Region(tuple((k * s - k - 2 - lo, k * s + 2 * k + hi)
                        for s, lo, hi in zip(su, pads[::2], pads[1::2])))


def same_result(a, b):
    assert list(a.min_arrival.items()) == list(b.min_arrival.items())
    assert list(a.arrivals.items()) == list(b.arrivals.items())
    assert a.index_hits == b.index_hits
    assert a.exact == b.exact
    assert a.witnesses == b.witnesses
    if a.witnesses is not None:
        assert list(a.witnesses) == list(b.witnesses)


def counted(thunk):
    """(result or "cap", depth-first nodes) of a search call."""
    nodes = [0]
    paths = search._paths

    def counting(*args):
        for step in paths(*args):
            nodes[0] += 1
            yield step

    with mock.patch.object(search, "_paths", counting):
        try:
            return thunk(), nodes[0]
        except CapacityError:
            return "cap", nodes[0]


@st.composite
def box_cases(draw):
    k = draw(st.sampled_from([2, 4]))
    params = RenormParams(d=3, p=0.5, k=k, delta=1e-6, h=4)
    u = draw(st.sampled_from(VERTICES))
    window = window_around(u, k, 3, draw(st.lists(st.integers(0, 2), min_size=6, max_size=6)))
    p = draw(st.sampled_from([0.3, 0.45, 0.5, 0.6]))
    cfg = sample(window, p, RngStream(draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 99))))
    face = list(macro_face(u, k, 3).iter_points())
    picks = draw(st.lists(st.sampled_from(face), min_size=1, max_size=len(face), unique=True))
    top = min(params.C * u[0], 80)  # delta-seed offsets, kept short for speed
    seed = SeedSet.from_dict(u, {v: draw(st.integers(0, top)) for v in picks}, params)
    word = harness.word_from_spec(draw(st.sampled_from(WORDS)))
    return params, u, cfg, seed, word


@given(box_cases(), st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_relaxed_box_search_matches_masked_window(case, max_index):
    params, u, cfg, seed, word = case
    seeded = seed.to_dict(params)
    bound = max(max_index, max(seeded.values()))
    mask = region_mask(cfg.region, [macro_face(u, params.k, 3), macro_box(u, params.k, 3)])
    box = renorm._restrict(cfg, u, params)
    assert box.region.volume == (2 * params.k + 1) * (2 * params.k) ** 2
    on_box, on_window = (SourceSet.uniform(c.region, seeded, word, list(seeded.values()))
                         for c in (box, cfg))
    for t in (bound, params.C * (u[0] + 2)):  # the good event's bound too
        same_result(relaxed_word_reach(box, on_box, t),
                    relaxed_word_reach(cfg, on_window, t, within=mask))


@given(box_cases(), st.sampled_from(["early_stop", "min", "membership", "witness"]),
       st.integers(0, 40), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
@example(  # the good event's own search: early stop and membership pruning
    (RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4), (0, 0, 2),
     sample(window_around((0, 0, 2), 2, 3, [1, 0, 2, 1, 0, 2]), 0.5, RngStream(3, 4)),
     SeedSet.full_face((0, 0, 2), RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)),
     harness.word_from_spec("product:q=0.5,seed=2")), "early_stop", 250, 2)
def test_exact_box_search_matches_masked_window(case, flavor, max_index, need):
    params, u, cfg, seed, word = case
    k = params.k
    seeded = seed.to_dict(params)
    bound = max(max_index, max(seeded.values()))
    outs = macro_out_neighbors(u, params.h)
    mask = region_mask(cfg.region, [macro_face(u, k, 3), macro_box(u, k, 3)])
    box = renorm._restrict(cfg, u, params)
    on_box, on_window = (SourceSet.uniform(c.region, seeded, word, list(seeded.values()))
                         for c in (box, cfg))

    def kwargs(region):
        faces = [region_mask(region, [macro_face(v, k, 3)]) for v in outs]
        union = region_mask(region, [macro_face(v, k, 3) for v in outs])
        if flavor == "early_stop":
            return {"early_stop": [(f, need) for f in faces],
                    "prune_targets": (union, "membership")}
        if flavor == "witness":
            return {"want_witness": True}
        return {"prune_targets": (union, flavor)}

    got, got_nodes = counted(lambda: exact_word_reach(
        box, on_box, bound, node_budget=4000, **kwargs(box.region)))
    want, want_nodes = counted(lambda: exact_word_reach(
        cfg, on_window, bound, within=mask, node_budget=4000, **kwargs(cfg.region)))
    assert got_nodes == want_nodes
    if want == "cap":
        assert got == "cap"
    else:
        same_result(got, want)


def masked_good_event(cfg, seed, word, params, mode, node_budget=None):
    """The good event read from the window search masked to F^u u B^u: the
    relaxed search where it decides, else the early-stopping exact search
    pruned to the out-neighbor faces."""
    k, u = params.k, seed.u
    mask = region_mask(cfg.region, [macro_face(u, k, params.d), macro_box(u, k, params.d)])
    seeded = seed.to_dict(params)
    sources = SourceSet.uniform(cfg.region, seeded, word, list(seeded.values()))
    outs = macro_out_neighbors(u, params.h)
    if not outs:
        return True
    bound, need = params.C * (u[0] + 2), renorm._need(params)
    if mode == "relaxed" or has_period_two(word, bound):
        res = relaxed_word_reach(cfg, sources, bound, within=mask)
    else:
        faces = [region_mask(cfg.region, [macro_face(v, k, params.d)]) for v in outs]
        res = exact_word_reach(cfg, sources, bound, within=mask,
                               early_stop=[(f, need) for f in faces],
                               node_budget=node_budget or renorm.EXACT_NODE_BUDGET,
                               prune_targets=(sum(faces), "membership"))
    return all(sum(y in res.min_arrival for y in macro_face(v, k, params.d).iter_points())
               >= need for v in outs)


GOOD_CASES = [(w, "relaxed") for w in ("alt", "ones", "periodic:110", "product:q=0.5,seed=2")]
GOOD_CASES += [("alt", "exact"), ("zeros", "exact")]  # period 2: the walk search decides
GOOD_CASES += [("product:q=0.5,seed=2", "exact")]  # one self-avoiding search per trial


@given(st.sampled_from(GOOD_CASES), st.sampled_from([(0, 0, 2, 4), (2, 1, 1, 4), (2, -1, 3, 4),
                                                     (2, 1, 1, 2)]),
       st.floats(0.3, 0.6), st.integers(0, 2**64 - 1), st.integers(1, 200), st.integers(1, 9),
       st.integers(1, 4), st.integers(0, 1727))
@settings(max_examples=40, deadline=None)
@example(("alt", "exact"), (0, 0, 2, 4), 0.5, 1, 5, 1, 1, 0)  # one-trial range
@example(("zeros", "exact"), (2, 1, 1, 4), 0.5, 3, 17, 9, 4, 1000)  # mixed verdicts in a block
@example(("product:q=0.5,seed=2", "exact"), (0, 0, 2, 4), 0.3, 5, 2, 8, 3, 5)
def test_walk_good_block_matches_per_trial(case, where, p, seed, t0, trials, per_block, extra):
    word, mode = case
    u, h = where[:3], where[3]
    params = {"p": p, "k": 2, "h": h, "word": word, "mode": mode, "u": list(u)}
    rp = harness._renorm_params(params)
    window = Region(tuple((2 * s - 6, 2 * s + 6) for s in u))
    # blocks of per_block trials of the 1,728-site window
    with mock.patch.object(config, "BLOCK_SITES", per_block * window.volume + extra):
        got = harness._renorm_good_trials(params, seed, t0, t0 + trials)
    full = SeedSet.full_face(u, rp)
    xi = harness.word_from_spec(word)
    cfgs = [sample(window, p, RngStream(seed, t)) for t in range(t0, t0 + trials)]
    assert got == [int(masked_good_event(cfg, full, xi, rp, mode)) for cfg in cfgs]
    assert got == [int(good_event(cfg, full, xi, rp, mode=mode)) for cfg in cfgs]


@pytest.mark.parametrize("word,p", [("alt", 0.3), ("periodic:110", 0.3), ("ones", 0.55)])
def test_walk_good_block_k4(word, p):
    params = {"p": p, "k": 4, "word": word, "mode": "relaxed"}
    rp = harness._renorm_params(params)
    with mock.patch.object(config, "BLOCK_SITES", 3 * 8000):
        got = harness._renorm_good_trials(params, 17, 3, 11)
    window = Region(((-10, 10), (-10, 10), (-2, 18)))
    full, xi = SeedSet.full_face((0, 0, 2), rp), harness.word_from_spec(word)
    assert got == [int(masked_good_event(sample(window, p, RngStream(17, t)), full, xi, rp,
                                         "relaxed")) for t in range(3, 11)]
    assert 0 < sum(got) < len(got)


@given(box_cases())
@settings(max_examples=30, deadline=None)
def test_exact_box_events_match_masked_window(case):
    """good_event and seed_sets_from in exact mode: the same verdicts, seeds
    and depth-first node counts as the masked window searches."""
    params, u, cfg, seed, word = case
    if has_period_two(word, params.C * (u[0] + 2)):
        return
    budget = 3000
    got = counted(lambda: good_event(cfg, seed, word, params, node_budget=budget))
    assert got == counted(lambda: masked_good_event(cfg, seed, word, params, "exact", budget))
    k, outs = params.k, macro_out_neighbors(u, params.h)
    mask = region_mask(cfg.region, [macro_face(u, k, 3), macro_box(u, k, 3)])
    seeded = seed.to_dict(params)
    sources = SourceSet.uniform(cfg.region, seeded, word, list(seeded.values()))

    def masked_seeds():
        res = exact_word_reach(cfg, sources, params.C * (u[0] + 2), within=mask,
                               node_budget=budget, prune_targets=(
                                   region_mask(cfg.region, [macro_face(v, k, 3) for v in outs]),
                                   "min"))
        return {v: {y: res.min_arrival[y] for y in macro_face(v, k, 3).iter_points()
                    if y in res.min_arrival} for v in outs}

    got = counted(lambda: {v: s.to_dict(params) for v, s in seed_sets_from(
        cfg, seed, word, params, node_budget=budget).items()})
    want = counted(masked_seeds)
    assert got == want
    if got[0] != "cap":
        assert [list(got[0][v].items()) for v in outs] == [list(want[0][v].items()) for v in outs]


def test_box_searches_rank_no_point():
    """Once a first call has filled the box caches, seed_sets_from and
    good_event rank no point, relaxed or exact: a box search's sources
    are the seed's offsets scattered into box ranks."""
    cfg, seed, product, params = good_case()
    for word in (product, harness.word_from_spec("alt")):
        for call in (lambda: seed_sets_from(cfg, seed, word, params),
                     lambda: good_event(cfg, seed, word, params)):
            call()
            with mock.patch.object(Region, "rank", autospec=True, side_effect=Region.rank) as rank:
                call()
            assert rank.call_count == 0


def stop_case():
    """An exact reach on box(3, 2) from two sources at offsets 0 and 2."""
    cfg = sample(box(3, 2), 0.6, RngStream(5, 0))
    word = harness.word_from_spec("product:q=0.6,seed=1")
    return cfg, SourceSet.uniform(cfg.region, [(0, 0), (-2, 1)], word, [0, 2])


def good_case():
    params = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)
    cfg = sample(window_around((0, 0, 2), 2, 3, [1, 0, 2, 1, 0, 2]), 0.5, RngStream(3, 2))
    seed = SeedSet.full_face((0, 0, 2), params)
    return cfg, seed, harness.word_from_spec("product:q=0.5,seed=2"), params


@pytest.mark.parametrize("search", ["good_event", "stop_at_index"])
def test_node_budget_counts_every_node(search):
    """A search that takes N depth-first nodes returns the same with
    node_budget=N and raises CapacityError with N - 1."""
    cfg, src = stop_case()
    box_cfg, seed, word, params = good_case()

    def run(budget):
        if search == "good_event":
            return good_event(box_cfg, seed, word, params, node_budget=budget)
        return exact_word_reach(cfg, src, 20, stop_at_index=10, node_budget=budget,
                                want_witness=True)

    want, nodes = counted(lambda: run(None))
    assert want != "cap" and nodes > 10
    got, got_nodes = counted(lambda: run(nodes))
    assert got_nodes == nodes
    if search == "good_event":
        assert got == want
    else:
        same_result(got, want)
        assert want.index_hits.bit_length() == 11  # stopped at its first arrival at 10
    assert counted(lambda: run(nodes - 1)) == ("cap", nodes)


def test_early_stop_rules():
    """early_stop=[] is no early stop; a threshold of 0 stops at the first
    new vertex, the first start in (offset, rank) order; a threshold of n
    on every site stops at the n-th."""
    cfg, src = stop_case()
    whole = (1 << cfg.region.volume) - 1
    want, nodes = counted(lambda: exact_word_reach(cfg, src, 20))
    got, got_nodes = counted(lambda: exact_word_reach(cfg, src, 20, early_stop=[]))
    same_result(got, want)
    assert got_nodes == nodes > 0
    got, got_nodes = counted(lambda: exact_word_reach(cfg, src, 20, early_stop=[(whole, 0)]))
    assert got_nodes == 0
    assert got.min_arrival == {(0, 0): 0}
    got = exact_word_reach(cfg, src, 20, early_stop=[(whole, 3), (whole, 1)])
    assert got.reached.bit_count() == 3
    # a vertex counts once, however often its arrival improves
    everything = want.reached.bit_count()
    got = exact_word_reach(cfg, src, 20, early_stop=[(whole, everything)])
    assert got.reached == want.reached


def test_tables_keyed_on_shape():
    """One shape at two positions: the same lattice masks and neighbor steps
    as the tables computed from each region's own points."""
    for ivs in ((((-3, 1), (4, 8), (0, 2))), ((10, 14), (-2, 2), (-7, -5))):
        region = Region(ivs)
        pts = region.points_array()
        stride, want = 1, []
        for axis, (lo, hi) in enumerate(ivs):
            want.append((stride, _pack(pts[:, axis] < hi), _pack(pts[:, axis] > lo + 1)))
            stride *= hi - lo
        assert search._stacked(region.sizes)[0] == tuple(want)
        kind, steps = neighbor_steps(region.sizes)
        table = neighbor_ranks(ivs)
        for r in range(region.volume):
            assert [r + s for s in steps[kind[r]]] == [int(v) for v in table[r] if v >= 0]


# -- pruned search pins ------------------------------------------------------------
#
# Pruning is sound whatever table it uses, so a wrong pruned table shows only
# in the node counts.  Each pin is (depth-first steps, _pruned builds, SHA-256
# of the fronts and witnesses), recorded (with record_pruned_pins) from the
# implementation that built the table from its minimal-arrival dict with numpy.

PRUNED_PIN_FILE = Path(__file__).with_name("pruned_search_digests.json")
THUE_MORSE = Word.from_bits(bin(i).count("1") & 1 for i in range(64))


def pruned_counted(thunk):
    """(canonical result or "cap", depth-first steps, _pruned builds)."""
    builds = [0]
    pruned = search._pruned

    def counting(*args):
        builds[0] += 1
        return pruned(*args)

    with mock.patch.object(search, "_pruned", counting):
        got, nodes = counted(thunk)
    if isinstance(got, search.ReachResult):
        got = [got.fronts, sorted((list(v), [list(u) for u in path])
                                  for v, path in (got.witnesses or {}).items())]
    elif isinstance(got, dict):  # seed_sets_from
        got = sorted((list(v), sorted((list(y), t) for y, t in seeds.items()))
                     for v, seeds in got.items())
    return got, nodes, builds[0]


def pruned_pin_cases():
    """(key, word groups, thunk) for every pin: window searches on 81 and 125
    sites with one or two word groups, both flavours, a within mask and
    early stops, and the renorm box searches of good_event and
    seed_sets_from."""
    for rname, region in (("sq9", Region(((-5, 4), (-5, 4)))), ("box23", box(2, 3))):
        pts, vol = list(region.iter_points()), region.volume
        for seed in range(3):
            cfg = sample(region, (0.5, 0.55, 0.6)[seed], RngStream(90, seed))
            targets = sample(region, 0.3, RngStream(91, seed)).bits
            within = sample(region, 0.9, RngStream(92, seed)).bits
            low = sum(1 << r for r, v in enumerate(pts) if v[0] <= 0)
            for wname, word in (("product", harness.word_from_spec("product:q=0.5,seed=5")),
                                ("thue", THUE_MORSE)):
                starts = pts[::vol // 6]
                multi = SourceSet.uniform(region, starts, word, list(range(len(starts))))
                two = SourceSet.from_entries(
                    region, ((pts[vol // 2], 0, 0), (pts[vol // 3], 2, 1), (pts[0], 0, 1)),
                    (word, harness.word_from_spec("product:q=0.4,seed=9")))
                calls = {
                    "membership": (1, {"prune_targets": (targets, "membership")}),
                    "min": (1, {"prune_targets": (targets, "min")}),
                    "min_two": (2, {"prune_targets": (targets, "min")}),
                    "min_within": (1, {"within": within, "prune_targets": (targets, "min")}),
                    "early_two": (2, {"prune_targets": (targets, "membership"),
                                      "early_stop": [(targets & low, 6),
                                                     (targets & ~low, 8)],
                                      "want_witness": True}),
                }
                for call, (groups, kwargs) in calls.items():
                    src = two if groups == 2 else multi
                    yield (f"{rname}/{seed}/{wname}/{call}", groups,
                           lambda c=cfg, s=src, kw=kwargs: exact_word_reach(
                               c, s, 30, node_budget=200000, **kw))
    params = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)
    sparse = list(macro_face((2, 1, 1), 2, 3).iter_points())[::3]
    seeds = {"full": SeedSet.full_face((0, 0, 2), params),
             "sparse": SeedSet.from_dict((2, 1, 1), {v: 37 * i % 251
                                                     for i, v in enumerate(sparse)}, params)}
    for seed in range(3):
        for sname, seed_set in seeds.items():
            window = window_around(seed_set.u, 2, 3, [1, 0, 2, 1, 0, 2])
            cfg = sample(window, 0.5, RngStream(3, seed))
            for wname in ("product:q=0.5,seed=2", "product:q=0.3,seed=7"):
                word = harness.word_from_spec(wname)
                key = f"box/{seed}/{sname}/{wname}"
                yield (f"{key}/good", 1, lambda c=cfg, s=seed_set, w=word: good_event(
                    c, s, w, params, node_budget=20000))
                yield (f"{key}/seeds", 1, lambda c=cfg, s=seed_set, w=word: {
                    v: got.to_dict(params) for v, got in seed_sets_from(
                        c, s, w, params, node_budget=20000).items()})


def record_pruned_pins() -> dict:
    pins = {}
    for key, _, thunk in pruned_pin_cases():
        got, nodes, builds = pruned_counted(thunk)
        digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
        pins[key] = [nodes, builds, digest]
    return pins


def test_pruned_searches_identical_to_pins():
    pins = json.loads(PRUNED_PIN_FILE.read_text())
    got = record_pruned_pins()
    assert got.keys() == pins.keys()
    assert [k for k in pins if got[k] != pins[k]] == []
    # the 125-site window searches without early stops all rebuild their
    # table mid-search, past one build per word group
    groups = {key: g for key, g, _ in pruned_pin_cases()}
    rebuilt = {key for key, (_, builds, _) in got.items() if builds > groups[key]}
    assert {key for key in got if key.startswith("box23/") and "early" not in key} <= rebuilt
