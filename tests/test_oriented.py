import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from wordperc.errors import DomainError
from wordperc.harness import ExperimentSpec, canonical_json, run
from wordperc.geometry import is_macro_vertex
from wordperc.oriented import (
    OrientedConfig,
    crossing_stat,
    domination_probe,
    explore,
    forward_cone,
    is_planar_vertex,
    oriented_reach,
    planar_out,
    planar_rect,
    planar_window_for_xi,
    sample_oriented,
    sample_seed_set,
    slab_out,
    slab_rect,
    slab_windows,
    slab_windows_thin,
    snap_left_column,
    snap_right_column,
    xi_column_reach,
)
from wordperc.rng import RngStream

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


def test_results_byte_identical_to_pins():
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
    thin = slab_windows_thin(12, 6, 2)
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
