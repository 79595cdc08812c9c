import hashlib
import json
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wordperc import config, oriented
from wordperc.errors import CapacityError, DomainError
from wordperc.harness import ExperimentSpec, canonical_json, run
from wordperc.geometry import is_macro_vertex
from wordperc.oriented import (
    OrientedConfig,
    _crossing_trials,
    _domination_trials,
    _layout,
    _slab_layout,
    _xi5n_trials,
    _xi_layout,
    crossing_stat,
    domination_probe,
    explore,
    forward_cone,
    is_planar_vertex,
    oriented_reach,
    planar_out,
    planar_rect,
    planar_window_for_xi,
    rect_points,
    rect_sites,
    sample_oriented,
    sample_seed_set,
    slab_out,
    slab_rect,
    slab_windows,
    snap_left_column,
    snap_right_column,
    xi_column_reach,
)
from wordperc.rng import RngStream, raw_grid, shuffled_prefix

# -- result pins -----------------------------------------------------------------
#
# SHA-256 of the canonical result document of each oriented statistic,
# recorded (with record_pins) from the set/heap implementation that
# preceded the column sweep; the documents must stay byte-identical.

PIN_FILE = Path(__file__).with_name("oriented_result_digests.json")

PIN_SPECS = {
    "crossing_full": [
        ({"n": 4, "h": 4, "gamma": 0.5, "delta": 0.3}, 10),  # cL == cR
        ({"n": 5, "h": 4, "gamma": 0.4, "delta": 0.3}, 40),
        ({"n": 8, "h": 6, "gamma": 0.25, "delta": 0.2}, 30),
        ({"n": 11, "h": 8, "gamma": 0.2, "delta": 0.25}, 20),
        ({"n": 30, "h": 6, "gamma": 0.3, "delta": 0.2}, 10),
        ({"n": 30, "h": 6, "gamma": 0.9, "delta": 0.2}, 5),
    ],
    "crossing_thin": [
        ({"n": 4, "h": 4, "gamma": 0.5, "delta": 0.3}, 10),
        ({"n": 12, "h": 6, "gamma": 0.4, "delta": 0.2}, 20),
        ({"n": 24, "h": 6, "gamma": 0.5, "delta": 0.3}, 10),
        ({"n": 60, "h": 6, "gamma": 0.45, "delta": 0.2}, 10),
        ({"n": 60, "h": 6, "gamma": 0.9, "delta": 0.2}, 5),
    ],
    "domination": [
        ({"n": 8, "gamma": 0.6, "delta": 0.08}, 30),
        ({"n": 8, "gamma": 0.8, "delta": 0.05}, 30),
        ({"n": 20, "gamma": 0.9, "delta": 0.05}, 10),
        ({"n": 40, "gamma": 0.9, "delta": 0.05}, 3),
    ],
    "xi5n": [
        ({"n": 4, "gamma": 0.7}, 50),
        ({"n": 6, "gamma": 0.55}, 40),
        ({"n": 10, "gamma": 0.9}, 30),
        ({"n": 20, "gamma": 0.9}, 10),
    ],
}
PIN_SEEDS = (0, 1, 7)


def pin_cases():
    """(key, spec) for every pin."""
    for name, cases in PIN_SPECS.items():
        stat = name.split("_")[0]
        for i, (params, trials) in enumerate(cases):
            params = dict(params, stat=stat, thin=name == "crossing_thin")
            for seed in PIN_SEEDS:
                yield f"{name}/{i}/{seed}", ExperimentSpec("oriented", params, trials, seed)


def record_pins() -> dict:
    return {
        key: hashlib.sha256(canonical_json(run(spec)).encode()).hexdigest()
        for key, spec in pin_cases()
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_results_byte_identical_to_pins(workers, monkeypatch):
    # with two workers, every pin's trials split into two ranges, each
    # starting a block of its own
    cpus = os.cpu_count() or 1  # let WORDPERC_THREADS reach 2 on a one-core host
    monkeypatch.setattr(os, "cpu_count", lambda: max(workers, cpus))
    monkeypatch.setenv("WORDPERC_THREADS", str(workers))
    pins = json.loads(PIN_FILE.read_text())
    got = record_pins()
    assert got.keys() == pins.keys()
    assert [k for k in pins if got[k] != pins[k]] == []


def brute_oriented_reach(cfg, sources):
    """Oracle: enumerate all open oriented paths (source open required)."""
    reached = set()

    def walk(v):
        if v in reached:
            return
        reached.add(v)
        for w in cfg.out_neighbors(v):
            if w in cfg.index and cfg.is_open(w):
                walk(w)

    for s in sources:
        if cfg.is_open(tuple(s)):
            walk(tuple(s))
    return reached


def brute_seeded_reach(cfg, sources):
    """Oracle for seeded reach: open paths starting at an out-neighbor of
    a source (sources transmit without being open)."""
    firsts = [w for s in sources for w in cfg.out_neighbors(tuple(s)) if w in cfg.index]
    return brute_oriented_reach(cfg, firsts)


def assert_sweep_matches_brute(cfg, rng):
    cols = sorted({v[0] for v in cfg.vertices})
    edge = [v for v in cfg.vertices if v[0] in (cols[0], cols[-1])]
    picks = [v for v in cfg.vertices if rng.random() < 0.2]
    for sources in (edge, picks, picks + edge[:1], []):
        assert oriented_reach(cfg, sources) == brute_oriented_reach(cfg, sources)
        assert oriented_reach(cfg, sources, seeded=True) == brute_seeded_reach(cfg, sources)


def test_sweep_matches_bruteforce_random_slab_windows():
    rng = np.random.default_rng(5)
    for t in range(60):
        h = int(rng.integers(3, 9))
        x_lo = int(rng.integers(-5, 5))
        y_lo = int(rng.integers(-6, 2))
        verts = slab_rect((x_lo, x_lo + int(rng.integers(2, 14))),
                          (y_lo, y_lo + int(rng.integers(1, 10))), h)
        if t % 2:  # drop vertices: a window that is not a box
            verts = tuple(v for v in verts if rng.random() < 0.8)
        if not verts:
            continue
        gamma = (0.3, 0.6, 0.9)[t % 3]
        cfg = sample_oriented("slab", verts, gamma, RngStream(31, t), h=h)
        assert_sweep_matches_brute(cfg, rng)


def test_sweep_matches_bruteforce_accordion_domain():
    from wordperc.accordion import accordion_embed

    a = accordion_embed(12, 6)
    win = a.windows()
    window_vertices = sorted(set(win.B) | set(win.L) | set(win.R))
    rng = np.random.default_rng(8)
    for seed in range(10):
        slab_cfg = sample_oriented("slab", window_vertices, 0.7, RngStream(9, seed), h=a.h)
        planar_cfg = a.pull_config(slab_cfg)
        assert_sweep_matches_brute(planar_cfg, rng)


@pytest.mark.parametrize("source", [
    (100, 0, 2),  # a slab vertex beyond the window
    (10, 0, 3),   # inside the window's box, wrong parity
    (9, 0, 2),    # odd column; (8, 0, 2) is a window vertex
    (10, 1),      # wrong dimension
    (10, 1, 3, 0),
    (10, 0.5, 3),
])
def test_reach_source_outside_window_raises(source):
    win = slab_windows(7, 6)
    cfg = sample_oriented("slab", win.B, 0.5, RngStream(2, 0), h=6)
    assert (10, 1, 3) in cfg.index
    for seeded in (False, True):
        with pytest.raises(DomainError):
            oriented_reach(cfg, [(10, 1, 3), source], seeded=seeded)


def test_planar_source_outside_window_raises():
    verts = planar_window_for_xi(4)
    cfg = sample_oriented("planar", verts, 0.5, RngStream(2, 0))
    for bad in [(0, 1), (0, 0, 0), (-2, 0), (22, 0)]:
        with pytest.raises(DomainError):
            xi_column_reach(cfg, [bad], 4) if bad[0] == 0 else oriented_reach(cfg, [bad])


def test_planar_vertices_and_edges():
    assert is_planar_vertex((0, 0)) and is_planar_vertex((2, 1))
    assert not is_planar_vertex((1, 0)) and not is_planar_vertex((2, 0))
    for u in [(0, 0), (2, 1)]:
        for w in planar_out(u):
            assert is_planar_vertex(w)


def test_slab_rect_valid_and_sorted():
    vs = slab_rect((0, 8), (-4, 4), 6)
    assert list(vs) == sorted(vs)
    assert all(is_macro_vertex(v, 6) for v in vs)
    for v in vs:
        for w in slab_out(v):
            assert w[0] == v[0] + 2


def test_windows_shapes():
    for n in (5, 7, 8, 12):
        win = slab_windows(n, 6)
        Bset = set(win.B)
        assert win.L and win.R
        assert set(win.L) <= Bset and set(win.R) <= Bset
        assert all(v[0] == snap_left_column(n) for v in win.L)
        assert all(v[0] == snap_right_column(n) for v in win.R)
        assert all(-n <= v[1] <= n for v in win.L + win.R)
    thin = slab_windows(12, 6, 2)
    assert all(-2 <= v[1] <= 2 for v in thin.L + thin.R)
    assert all(-3 <= v[1] <= 3 for v in thin.B)


def test_reach_degenerate():
    win = slab_windows(5, 6)
    ones = sample_oriented("slab", win.B, 1.0, RngStream(1, 0), h=6)
    zeros = sample_oriented("slab", win.B, 0.0, RngStream(1, 1), h=6)
    cone = forward_cone(win.L, set(win.B))
    assert oriented_reach(ones, win.L) == cone | set(win.L)
    assert oriented_reach(zeros, win.L) == set()


def test_reach_matches_bruteforce_exhaustive_tiny():
    verts = planar_rect(0, 4, -2, 2)
    assert 6 <= len(verts) <= 10
    sources = [v for v in verts if v[0] == 0]
    for code in range(1 << len(verts)):
        bits = [(code >> i) & 1 for i in range(len(verts))]
        cfg = OrientedConfig("planar", verts, np.array(bits, dtype=bool))
        assert oriented_reach(cfg, sources) == brute_oriented_reach(cfg, sources)


def test_is_open_reads_the_columns():
    """is_open reads a vertex's bit from the packed columns, in both
    graphs; a vertex outside the window raises KeyError."""
    for kind, verts, outside in (("planar", planar_rect(0, 8, -3, 3), (10, 0)),
                                 ("slab", slab_rect((2, 6), (-3, 3), 4), (2, 1, 5))):
        bits = raw_grid(3, 0, 1, 0, len(verts), 1)[0] & 1 == 1
        cfg = OrientedConfig(kind, verts, bits, h=4)
        assert [cfg.is_open(v) for v in verts] == bits.tolist()
        with pytest.raises(KeyError):
            cfg.is_open(outside)


def test_seeded_reach_semantics():
    verts = planar_rect(0, 4, -2, 2)
    bits = np.zeros(len(verts), dtype=bool)
    cfg = OrientedConfig("planar", verts, bits)
    # all closed: seeded reach empty, but sources not required open
    assert oriented_reach(cfg, [(0, 0)], seeded=True) == set()
    bits = np.ones(len(verts), dtype=bool)
    cfg = OrientedConfig("planar", verts, bits)
    got = oriented_reach(cfg, [(0, 0)], seeded=True)
    assert (0, 0) not in got
    assert got == forward_cone([(0, 0)], set(verts), kind="planar")


def test_xi_monotone_in_sources():
    n = 4
    verts = planar_window_for_xi(n)
    col0 = [v for v in verts if v[0] == 0 and -n <= v[1] <= n]
    for seed in range(300):
        cfg = sample_oriented("planar", verts, 0.7, RngStream(77, seed))
        A = col0[::2]
        B = col0
        xa = xi_column_reach(cfg, A, n)
        xb = xi_column_reach(cfg, B, n)
        assert xa <= xb
    assert xi_column_reach(cfg, [], n) == set()


def test_xi_gamma_one_full():
    n = 4
    verts = planar_window_for_xi(n)
    col0 = [v for v in verts if v[0] == 0 and -n <= v[1] <= n]
    cfg = sample_oriented("planar", verts, 1.0, RngStream(3, 0))
    got = xi_column_reach(cfg, col0, n)
    parity = (5 * n // 2) % 2
    assert got == {y for y in range(-n, n + 1) if y % 2 == parity}


def test_xi_requires_even_n():
    verts = planar_window_for_xi(4)
    cfg = sample_oriented("planar", verts, 0.5, RngStream(0, 0))
    with pytest.raises(DomainError):
        xi_column_reach(cfg, [(0, 0)], 3)


def test_explore_closed_and_open_decisions():
    win = slab_windows(5, 6)
    S = win.L[: max(1, len(win.L) // 3)]
    closed = explore(S, win.B_set, lambda z: False)
    assert closed.U == frozenset(S)
    opened = explore(S, win.B_set, lambda z: True)
    assert opened.U - opened.S == forward_cone(S, win.B_set)
    assert opened.no_vertex_queried_twice()


def test_explore_oracle_equivalence():
    # U_inf \ S equals seeded oriented reach on shared bits
    rngmaster = 2024
    mismatches = 0
    for t in range(200):
        stream = RngStream(rngmaster, t)
        n = 5 + 2 * (t % 5)
        h = 4 + 2 * (t % 3)
        win = slab_windows(n, h)
        S = sample_seed_set(win.L, 0.3, stream)
        order = sorted(win.B)
        gamma = (0.3, 0.7, 0.95)[t % 3]
        bits = RngStream(rngmaster, 10_000 + t).uniform_block(0, len(order)) < gamma
        pos = {v: i for i, v in enumerate(order)}
        cfg = OrientedConfig("slab", order, bits, h=h)
        state = explore(S, win.B_set, lambda z: bits[pos[z]])
        reach = oriented_reach(cfg, S, seeded=True)
        if state.U - state.S != reach:
            mismatches += 1
        assert state.no_vertex_queried_twice()
    assert mismatches == 0


def test_crossing_stat_degenerate():
    res = crossing_stat(20, 8, 6, 1.0, 0.3, master_seed=5)
    assert res["frequency"] == 1.0
    res0 = crossing_stat(20, 8, 6, 0.0, 0.3, master_seed=5)
    assert res0["frequency"] == 0.0
    thin = crossing_stat(10, 12, 6, 1.0, 0.3, master_seed=5, thin=True)
    assert thin["frequency"] == 1.0


def test_crossing_monotone_in_gamma_shared_uniforms():
    # same master seed means shared uniforms; higher gamma opens more
    freqs = [
        crossing_stat(30, 8, 6, g, 0.3, master_seed=9)["frequency"]
        for g in (0.3, 0.6, 0.9)
    ]
    assert freqs == sorted(freqs)


def test_domination_probe_degenerate():
    # delta * n >= 3 so the middle band always keeps a source vertex
    res = domination_probe(1.0, 0.09, 40, trials=10, master_seed=1)
    assert all(e["frequency"] == 1.0 for e in res["increasing_events"])
    assert res["path_events"]["all_three"]["frequency"] == 1.0
    res0 = domination_probe(0.0, 0.09, 40, trials=10, master_seed=1)
    assert all(e["frequency"] == 0.0 for e in res0["increasing_events"])
    assert all(v["frequency"] == 0.0 for v in res0["path_events"].values())


def test_domination_probe_monotone_in_gamma():
    rs = [
        domination_probe(g, 0.05, 8, trials=40, master_seed=12)
        for g in (0.5, 0.8, 0.95)
    ]
    for i in range(len(rs[0]["increasing_events"])):
        freqs = [r["increasing_events"][i]["frequency"] for r in rs]
        assert freqs == sorted(freqs)


# -- blocks of trials against per-trial oracles ------------------------------------
#
# Each statistic sweeps a block of trials stacked in one column int.  Every
# trial's verdict must equal the brute-force reach on the configuration its
# own streams draw, for ranges that start past 0 and cross block boundaries
# (BLOCK_SITES patched down to a few trials).  The references draw their seed
# sets with RngStream.choose_subset and their site bits with uniform_block.

SEEDS = st.sampled_from([0, 1, 7, 2**63, 2**64 - 1])
GAMMAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def reference_seed_set(vertices, density, seed, stream):
    k = max(1, math.ceil(density * len(vertices)))
    return sorted(RngStream(seed, stream).choose_subset(sorted(vertices), k))


def crossing_reference(win, gamma, delta, seed, threshold, t):
    S = reference_seed_set(win.L, delta, seed, 2 * t)
    bits = RngStream(seed, 2 * t + 1).uniform_block(0, len(win.B)) < gamma
    cfg = OrientedConfig("slab", win.B, bits, h=win.h)
    hit = len((brute_seeded_reach(cfg, S) | set(S)) & set(win.R))
    return hit > threshold if win.m is not None else hit >= threshold


def domination_reference(gamma, delta, n, seed, t):
    verts = planar_window_for_xi(n)
    col0 = [v for v in verts if v[0] == 0 and -n <= v[1] <= n]
    quarter = max(1, (delta / 4) * n)
    S = reference_seed_set(col0, min(1.0, delta * n / len(col0)), seed, 2 * t)
    bits = RngStream(seed, 2 * t + 1).uniform_block(0, len(verts)) < gamma
    cfg = OrientedConfig("planar", verts, bits)

    def at_5n(sources):
        return {v[1] for v in brute_oriented_reach(cfg, sources) if v[0] == 5 * n}

    return (len({y for y in at_5n(S) if -n <= y <= n}),
            bool(at_5n([v for v in S if -n + quarter <= v[1] <= n - quarter])),
            any(y >= n for y in at_5n([v for v in col0 if v[1] <= -n + quarter])),
            any(y <= -n for y in at_5n([v for v in col0 if v[1] >= n - quarter])))


def xi5n_reference(n, gamma, seed, t):
    verts = planar_window_for_xi(n)
    bits = RngStream(seed, t).uniform_block(0, len(verts)) < gamma
    cfg = OrientedConfig("planar", verts, bits)
    col0 = [v for v in verts if v[0] == 0 and -n <= v[1] <= n]
    return {v[1] for v in brute_oriented_reach(cfg, col0) if v[0] == 5 * n and -n <= v[1] <= n}


@st.composite
def crossing_windows(draw):
    n, h = draw(st.integers(3, 9)), draw(st.integers(2, 7))
    m = draw(st.one_of(st.none(), st.floats(0.2, n)))
    win = slab_windows(n, h, m)
    assume(win.L)
    threshold = draw(st.sampled_from([0, 0.5, 1, 2.5, len(win.R) / 1000, n / 20]))
    return win, threshold


@given(crossing_windows(), GAMMAS, st.floats(0.01, 1.0), SEEDS, st.integers(1, 40),
       st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
@example((slab_windows(3, 4), 0), 0.7, 0.5, 1, 1, 1, 1)  # cL == cR, one trial
@example((slab_windows(8, 6, 2.0), 0.5), 1.0, 0.3, 5, 3, 5, 2)  # thin, all open
@example((slab_windows(9, 2), 0), 0.5, 0.5, 1, 1, 2, 1)  # R's column past the window
def test_crossing_block_matches_per_trial(window, gamma, delta, seed, t0, trials, per_block):
    win, threshold = window
    with mock.patch.object(config, "BLOCK_SITES", per_block * len(win.B)):
        got = _crossing_trials((win.n, win.h, win.m), gamma, delta, seed, threshold, t0,
                               t0 + trials)
    assert got == [crossing_reference(win, gamma, delta, seed, threshold, t)
                   for t in range(t0, t0 + trials)]


@given(st.sampled_from([4, 6, 8]), GAMMAS, st.floats(0.001, 0.099), SEEDS,
       st.integers(1, 40), st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
@example(4, 0.8, 0.09, 3, 1, 1, 1)  # one trial
def test_domination_block_matches_per_trial(n, gamma, delta, seed, t0, trials, per_block):
    sites = len(planar_window_for_xi(n))
    with mock.patch.object(config, "BLOCK_SITES", per_block * sites):
        got = _domination_trials(gamma, delta, n, seed, t0, t0 + trials)
    assert got == [domination_reference(gamma, delta, n, seed, t)
                   for t in range(t0, t0 + trials)]


@given(st.sampled_from([4, 6, 8]), GAMMAS, SEEDS, st.integers(1, 40), st.integers(1, 6),
       st.integers(1, 4))
@settings(max_examples=25, deadline=None)
@example(4, 0.75, 9, 1, 1, 1)  # one trial
def test_xi5n_block_matches_per_trial(n, gamma, seed, t0, trials, per_block):
    sites = len(planar_window_for_xi(n))
    with mock.patch.object(config, "BLOCK_SITES", per_block * sites):
        got = _xi5n_trials(n, gamma, seed, t0, t0 + trials)
    assert got == [xi5n_reference(n, gamma, seed, t) for t in range(t0, t0 + trials)]


SPLIT_CASES = {
    "crossing": (_crossing_trials, ((6, 6, None), 0.8, 0.3, 4, 1.0)),
    "crossing_thin": (_crossing_trials, ((12, 6, 2), 0.7, 0.3, 4, 0.6)),
    "domination": (_domination_trials, (0.75, 0.05, 8, 4)),
    "xi5n": (_xi5n_trials, (6, 0.7, 4)),
}


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
@given(st.integers(0, 30), st.integers(1, 12), st.data())
@settings(max_examples=10, deadline=None)
def test_range_outcomes_do_not_depend_on_split(name, t0, trials, data):
    fn, args = SPLIT_CASES[name]
    whole = fn(*args, t0, t0 + trials)
    mid = data.draw(st.integers(t0, t0 + trials))
    with mock.patch.object(config, "BLOCK_SITES", data.draw(st.integers(1, 5000))):
        assert fn(*args, t0, mid) + fn(*args, mid, t0 + trials) == whole


def test_statistics_build_no_vertex_tuples():
    # each statistic's layout comes from its window's bounds: no vertex
    # tuple is listed and no vertex it generated is checked
    want = {name: fn(*args, 0, 5) for name, (fn, args) in SPLIT_CASES.items()}

    def refuse(*args):
        raise AssertionError("a statistic built its window from vertex tuples")

    _slab_layout.cache_clear()
    _xi_layout.cache_clear()
    with mock.patch.multiple(oriented, slab_rect=refuse, planar_rect=refuse,
                             slab_windows=refuse, is_macro_vertex=refuse):
        assert {name: fn(*args, 0, 5) for name, (fn, args) in SPLIT_CASES.items()} == want


@given(SEEDS, st.integers(0, 2**64 - 1), st.integers(1, 5), st.integers(1, 3),
       st.integers(0, 2), st.integers(0, 100), st.integers(0, 20))
@settings(max_examples=60, deadline=None)
@example(1, 2**64 - 3, 3, 2, 0, 0, 4)  # streams wrap past 2^64 - 1
def test_raw_grid_step_rows_are_streams(seed, t0, streams, step, extra, start, count):
    # rows are the streams t0 + k * step below the stop, which may fall
    # anywhere up to the next stream
    stop = t0 + (streams - 1) * step + 1 + min(extra, step - 1)
    grid = raw_grid(seed, t0, stop, start, count, step)
    assert grid.shape == (streams, count)
    for k, row in enumerate(grid):
        assert (row == RngStream(seed, t0 + k * step).raw_block(start, count)).all()


@given(SEEDS, st.integers(0, 2**64 - 1), st.integers(1, 4), st.integers(1, 2),
       st.integers(1, 300), st.sampled_from([1e-9, 0.05, 0.2, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
@example(1, 2**64 - 2, 3, 2, 1, 1.0)  # one position, streams wrapping past 2^64 - 1
def test_seed_picks_are_the_list_shuffle(seed, s0, streams, step, count, density):
    """The picks, shuffled in an int64 memoryview, are the partial
    Fisher-Yates shuffle of the list of positions, as plain ints."""
    s1 = s0 + (streams - 1) * step + 1
    draws = oriented.uniforms(raw_grid(seed, s0, s1, 0, max(1, math.ceil(density * count)),
                                       step)).tolist()
    got = oriented._seed_picks(count, density, seed, s0, s1, step)
    assert got.tolist() == [shuffled_prefix(list(range(count)), row) for row in draws]


@pytest.mark.parametrize("kind,verts", [
    ("planar", planar_rect(0, 8, 0, 5)),  # six rows: a zero guard would leak
    ("slab", slab_rect((0, 8), (0, 3), 6)),
])
def test_block_copies_do_not_leak_across_guards(kind, verts):
    # all-open copies alternate with isolated ones (all open, no source):
    # reach shifted off the top of a copy must not enter the next one
    lay = _layout(kind, verts, 6 if kind == "slab" else None)
    copies = 6
    cols = lay.pack(np.ones((copies, len(verts)), dtype=bool))
    first = [v for v in verts if v[0] == 0]
    col0 = lay.mask(first)[0]
    seeds = sum(col0 << (i * lay.pitch) for i in range(0, copies, 2))
    last = lay.ncols - 1
    got = lay.sweep_block(cols, 0, seeds, False, last, copies)
    cfg = OrientedConfig(kind, verts, np.ones(len(verts), dtype=bool), h=6)
    want = np.zeros(lay.width, dtype=np.uint8)
    for v in brute_oriented_reach(cfg, first):
        if v[0] == 2 * last:
            want[lay.cell(v)[1]] = 1
    assert want.any()
    for i, row in enumerate(got):
        assert (row == (want if i % 2 == 0 else 0)).all()


def test_sample_seed_set_is_choose_subset_of_sorted_vertices():
    win = slab_windows(9, 6)
    for t in range(20):
        for density in (0.01, 0.3, 1.0):
            assert (sample_seed_set(win.L, density, RngStream(5, t))
                    == reference_seed_set(win.L, density, 5, t))


# -- window sizes ------------------------------------------------------------------


@given(st.integers(-9, 9), st.integers(-1, 12), st.integers(-9, 9), st.integers(-1, 12),
       st.integers(1, 9))
@settings(max_examples=60, deadline=None)
@example(3, -1, 0, 4, 6)  # empty x range
@example(0, 8, 2, -1, 5)  # empty y range
@example(-4, 0, -5, 7, 2)  # one column, negative bounds, h = 2
@example(-5, 0, -3, 2, 4)  # one odd column: no vertex
def test_rect_sites_counts_rect_vertices(x_lo, x_len, y_lo, y_len, h):
    # the enumeration is every point of the bounding box that is a vertex, sorted
    x_rng, y_rng = (x_lo, x_lo + x_len), (y_lo, y_lo + y_len)
    box = [(x, y) for x in range(x_lo, x_rng[1] + 1) for y in range(y_lo, y_rng[1] + 1)]
    planar = sorted(v for v in box if is_planar_vertex(v))
    slab = sorted((x, y, z) for x, y in box for z in range(h + 1) if is_macro_vertex((x, y, z), h))
    for pts, want, dim in ((rect_points(x_rng, y_rng), planar, 2),
                           (rect_points(x_rng, y_rng, h), slab, 3)):
        assert pts.shape == (len(want), dim)
        assert pts.tolist() == [list(v) for v in want]
    assert planar_rect(*x_rng, *y_rng) == tuple(planar)
    assert slab_rect(x_rng, y_rng, h) == tuple(slab)
    assert rect_sites(x_rng, y_rng) == len(planar)
    assert rect_sites(x_rng, y_rng, h) == len(slab)


@pytest.mark.parametrize("build", [
    lambda: slab_windows(100000, 6),
    lambda: slab_windows(100000, 6, 100000 / 6),  # the accordion's window
    lambda: planar_window_for_xi(100000),
    lambda: rect_points((0, 10 ** 9), (-10 ** 9, 10 ** 9), 6),
])
def test_oversized_windows_refused_before_any_vertex(build):
    # the cap is checked from the window's bounds: nothing is allocated
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="sampling capped"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
