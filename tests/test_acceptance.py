"""Acceptance gate: eight criteria, each a test printing one verdict line.

All randomness is seeded, so every criterion is deterministic; the
stochastic tolerances (4-sigma bands, chi-square at 1e-3, Wilson
intervals) were fixed up front and the frozen seeds simply have to live
inside them.
"""

import math
import time

import numpy as np
import scipy.stats

from wordperc.accordion import accordion_embed
from wordperc.config import enumerate_configs, sample
from wordperc.geometry import Region, box, macro_face
from wordperc.harness import ExperimentSpec, canonical_json, run
from wordperc.oriented import (
    OrientedConfig,
    explore,
    oriented_reach,
    planar_window_for_xi,
    sample_oriented,
    sample_seed_set,
    slab_windows,
    xi_column_reach,
)
from wordperc.renorm import (
    RenormParams,
    SeedSet,
    good_event,
    macro_exploration,
    micro_left_column,
    micro_window,
)
from wordperc.rng import RngStream
from wordperc.search import (
    SourceSet,
    exact_word_reach,
    relaxed_word_reach,
    sees_all_words,
)
from wordperc.wierman import verify_coupling, wierman_couple
from wordperc.words import AlternatingWord, ProductWord, Word, enumerate_words

R33 = Region(((-2, 1), (-2, 1)))


def _verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _all_saws(region, max_len):
    """Every self-avoiding path of at most max_len vertices, by length."""
    from wordperc.geometry import neighbor_ranks

    nbr = neighbor_ranks(region.intervals)
    by_len = {L: ([], []) for L in range(1, max_len + 1)}  # (path ranks, end)

    def extend(path, seen):
        L = len(path)
        by_len[L][0].append(list(path))
        by_len[L][1].append(path[-1])
        if L == max_len:
            return
        for u in nbr[path[-1]]:
            if u >= 0 and u not in seen:
                seen.add(int(u))
                path.append(int(u))
                extend(path, seen)
                path.pop()
                seen.remove(int(u))

    for start in range(region.volume):
        extend([start], {start})
    return {
        L: (np.array(paths, dtype=np.int64), np.array(ends, dtype=np.int64))
        for L, (paths, ends) in by_len.items()
    }


def test_acceptance_1_exhaustive_oracle_equivalence():
    """512 configs x 126 words on the 3x3 region: exact equals path
    enumeration, relaxed contains exact."""
    t0 = time.time()
    saws = _all_saws(R33, 6)
    words = [w for L in range(1, 7) for w in enumerate_words(L)]
    assert len(words) == 126
    all_points = list(R33.iter_points())
    rank_of = {p: r for r, p in enumerate(all_points)}
    sources = {w: SourceSet.uniform(R33, all_points, w) for w in words}
    configs = list(enumerate_configs(R33))
    code_table = {}
    for i, cfg in enumerate(configs):
        colors = cfg.bools().astype(np.int64)
        code_table[i] = {
            L: (colors[paths] << np.arange(L)).sum(axis=1)
            for L, (paths, _) in saws.items()
        }
    mismatch = containment_fail = 0
    for w in words:
        src = sources[w]
        for i, cfg in enumerate(configs):
            exact = exact_word_reach(cfg, src, len(w) - 1)
            codes = code_table[i]
            expect = set()
            for j in range(len(w)):
                want = w.bits & ((1 << (j + 1)) - 1)
                sel = codes[j + 1] == want
                for end in saws[j + 1][1][sel]:
                    expect.add((int(end), j))
            got = {(rank_of[v], t) for v, t in exact.pairs()}
            if got != expect:
                mismatch += 1
            relaxed = relaxed_word_reach(cfg, src, len(w) - 1)
            if not exact.issubset(relaxed):
                containment_fail += 1
    elapsed = time.time() - t0
    ok = mismatch == 0 and containment_fail == 0 and elapsed < 60
    _verdict(
        1,
        ok,
        f"512 configs x 126 words: {mismatch} exact/oracle mismatches, "
        f"{containment_fail} containment failures, {elapsed:.1f}s (< 60s)",
    )


def test_acceptance_2_closed_form_three_eighths():
    """P(word 10 from the origin within {0,1}^2 at p=1/2) = 3/8 exactly by
    enumeration, and Monte Carlo lands inside its Wilson interval."""
    r22 = Region(((-1, 1), (-1, 1)))
    word = Word.from_string("10")
    hits = 0
    for cfg in enumerate_configs(r22):
        res = exact_word_reach(cfg, SourceSet.single(cfg.region, (0, 0), word), 1)
        hits += bool((res.index_hits >> 1) & 1)
    exact_prob = hits / 16
    spec = ExperimentSpec(
        "reach",
        {
            "region": {"kind": "intervals", "intervals": [[-1, 1], [-1, 1]]},
            "p": 0.5,
            "word": "10",
            "source": [0, 0],
        },
        100_000,
        20240801,
    )
    doc = run(spec)
    lo, hi = doc["result"]["wilson95"]
    ok = exact_prob == 3 / 8 and lo <= 3 / 8 <= hi
    _verdict(
        2,
        ok,
        f"enumeration gives {hits}/16 = {exact_prob}, MC interval "
        f"[{lo:.4f}, {hi:.4f}] covers 0.375",
    )


def test_acceptance_3_wierman_marginals():
    """Coupled-draw marginals, the full 2x2 law, and certificates."""
    t0 = time.time()
    combos = [
        (R33, [(0, 0)], 0.3),
        (R33, [(0, 0)], 0.5),
        (box(1, 3), [(0, 0, 0)], 0.3),
        (box(1, 3), [(0, 0, 0)], 0.5),
    ]
    n_each = 50_000  # 2e5 coupled draws in total
    word = ProductWord(0.5, seed=17)
    band_ok = True
    cert_fail = 0
    for idx, (region, sources, p) in enumerate(combos):
        counts = np.zeros(region.volume)
        for t in range(n_each):
            pair = wierman_couple(
                region, sources, word, p, RngStream(5_000 + idx, t)
            )
            counts += pair.omega_tilde.bools()
            ok, _ = verify_coupling(pair)
            cert_fail += not ok
        sigma = math.sqrt(p * (1 - p) / n_each)
        if not (np.abs(counts / n_each - p) < 4 * sigma).all():
            band_ok = False
    # chi-square over the 16 cells of the 2x2 law, for omega and omega-tilde
    r22 = Region(((-1, 1), (-1, 1)))
    p22 = 0.4
    n22 = 200_000
    om_counts = np.zeros(16)
    ti_counts = np.zeros(16)
    for t in range(n22):
        pair = wierman_couple(r22, [(0, 0)], word, p22, RngStream(9_000, t))
        om_counts[pair.omega.bits] += 1
        ti_counts[pair.omega_tilde.bits] += 1
    expected = np.array(
        [
            (p22 ** bin(c).count("1")) * ((1 - p22) ** (4 - bin(c).count("1")))
            for c in range(16)
        ]
    ) * n22
    p_om = scipy.stats.chisquare(om_counts, expected).pvalue
    p_ti = scipy.stats.chisquare(ti_counts, expected).pvalue
    elapsed = time.time() - t0
    ok = band_ok and cert_fail == 0 and p_om > 1e-3 and p_ti > 1e-3 and elapsed < 300
    _verdict(
        3,
        ok,
        f"4-sigma bands {'ok' if band_ok else 'violated'}, certificates "
        f"{200_000 - cert_fail}/200000, chi-square p-values "
        f"(omega {p_om:.3f}, tilde {p_ti:.3f}) > 1e-3, {elapsed:.0f}s (< 300s)",
    )


def test_acceptance_4_exploration_oracle():
    """Exploration with i.i.d. verdicts equals seeded oriented reach on
    1000 random windows; zero mismatches."""
    mismatches = 0
    total = 0
    master = 777
    gammas = (0.3, 0.7, 0.95)
    t = 0
    while total < 1000:
        n = 5 + 2 * (t % 10)  # odd n in 5..23
        h = (4, 6, 8)[t % 3]
        gamma = gammas[t % 3]
        win = slab_windows(n, h)
        order = sorted(win.B)
        stream = RngStream(master, t)
        S = sample_seed_set(win.L, 0.25, stream)
        bits = RngStream(master, (1 << 20) + t).uniform_block(0, len(order)) < gamma
        pos = {v: i for i, v in enumerate(order)}
        cfg = OrientedConfig("slab", order, bits, h=h)
        state = explore(S, win.B_set, lambda z: bits[pos[z]])
        reach = oriented_reach(cfg, S, seeded=True)
        if state.U - state.S != reach or not state.no_vertex_queried_twice():
            mismatches += 1
        total += 1
        t += 1
    _verdict(4, mismatches == 0, f"{total} instances, {mismatches} mismatches")


def test_acceptance_5_accordion_grid():
    """Injectivity, target coverage, and 100% edge preservation for every
    (h, n) with h in {6, 8, 10} and n a multiple of h up to 120."""
    built = 0
    edges = 0
    for h in (6, 8, 10):
        for n in range(h, 121, h):
            a = accordion_embed(n, h)  # construction re-runs all checks
            domain = a.domain_points()
            image = [a.map_point(p) for p in domain]
            assert len(set(image)) == len(domain)
            Rset = set(a.windows().R)
            assert all(a.map_point(p) in Rset for p in a.target_column())
            for x, y in domain:
                for dy in (-1, 1):
                    q = (x + 2, y + dy)
                    if a.in_domain(q):
                        u, v = a.map_point((x, y)), a.map_point(q)
                        d = (v[0] - u[0], abs(v[1] - u[1]), abs(v[2] - u[2]))
                        assert d == (2, 1, 1)
                        edges += 1
            built += 1
    _verdict(5, built == 47, f"{built} embeddings verified, {edges} edges preserved")


def test_acceptance_6_monotonicity_suite():
    """Reach monotone in the source set under shared randomness; good
    events monotone in the seed; failure rates monotone in the start
    radius under shared configurations."""
    # (a) source-set containment for column reach, shared bits
    xi_violations = 0
    n = 4
    verts = planar_window_for_xi(n)
    col0 = [v for v in verts if v[0] == 0 and -n <= v[1] <= n]
    for t in range(1000):
        cfg = sample_oriented("planar", verts, 0.65, RngStream(1234, t))
        xa = xi_column_reach(cfg, col0[::2], n)
        xb = xi_column_reach(cfg, col0, n)
        xi_violations += not (xa <= xb)
    # (b) good-event monotone in the seed (same offsets)
    par = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)
    u = (0, 0, 2)
    su = [0, 0, 2]
    window = Region(tuple((2 * s - 6, 2 * s + 6) for s in su))
    face_pts = list(macro_face(u, par.k, par.d).iter_points())
    word = AlternatingWord()
    seed_violations = 0
    for t in range(1000):
        cfg = sample(window, 0.5, RngStream(4321, t))
        small = SeedSet.from_dict(u, {p: 0 for p in face_pts[::4]}, par)
        big = SeedSet.from_dict(u, {p: 0 for p in face_pts}, par)
        if good_event(cfg, small, word, par) and not good_event(cfg, big, word, par):
            seed_violations += 1
    # (c) q_m nonincreasing in m on shared configurations, every m-pair
    qm_violations = 0
    ms = [0, 1, 2]
    horizon = box(3, 2)
    for t in range(400):
        cfg = sample(horizon, 0.5, RngStream(555, t))
        fails = [not sees_all_words(cfg, box(m, 2), 2)[0] for m in ms]
        if any(a < b for a, b in zip(fails, fails[1:])):
            qm_violations += 1
    ok = xi_violations == 0 and seed_violations == 0 and qm_violations == 0
    _verdict(
        6,
        ok,
        f"containment {xi_violations}, seed-monotone {seed_violations}, "
        f"radius-monotone {qm_violations} violations over shared randomness",
    )


def test_acceptance_7_renormalization_smoke():
    """P(good event) nondecreasing in k on shared seeds; the exploration
    audit reports no box examined twice."""
    word = AlternatingWord()
    u = (0, 0, 2)
    trials = 40
    freqs = []
    for k in (2, 4, 6):
        par = RenormParams(d=3, p=0.5, k=k, delta=1e-6, h=4)
        su = [0, 0, 2]
        window = Region(tuple((k * s - 2 * k - 2, k * s + 2 * k + 2) for s in su))
        succ = 0
        for t in range(trials):
            cfg = sample(window, par.p, RngStream(31337 + t, 0))
            succ += good_event(cfg, SeedSet.full_face(u, par), word, par, mode="exact")
        freqs.append(succ / trials)
    nondecreasing = all(a <= b for a, b in zip(freqs, freqs[1:]))
    par = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)
    n = 5
    window = micro_window(n, par)
    col = micro_left_column(n, par)
    col_pts = list(col.iter_points())
    dirty = 0
    for t in range(100):
        cfg = sample(window, par.p, RngStream(60_000, t))
        sel = RngStream(60_001, t)
        T = {p: 0 for i, p in enumerate(col_pts) if sel.uniform(i) < 0.5}
        rep = macro_exploration(cfg, T, word, par, n, mode="exact")
        if not rep.audit_no_requeries or rep.audit_box_overlaps:
            dirty += 1
    ok = nondecreasing and dirty == 0
    _verdict(
        7,
        ok,
        f"P(G) by k: {freqs} nondecreasing={nondecreasing}; "
        f"{dirty}/100 runs with audit findings",
    )


def test_acceptance_8_determinism():
    """Re-running a saved spec reproduces the success count bit for bit."""
    specs = [
        ExperimentSpec(
            "site",
            {"region": {"kind": "box", "m": 1, "d": 3}, "p": 0.3, "vertex": [0, 0, 0]},
            2000,
            99,
        ),
        ExperimentSpec(
            "reach",
            {
                "region": {"kind": "intervals", "intervals": [[-1, 1], [-1, 1]]},
                "p": 0.5,
                "word": "10",
                "source": [0, 0],
            },
            5000,
            98,
        ),
        ExperimentSpec(
            "wierman",
            {
                "region": {"kind": "box", "m": 1, "d": 2},
                "p": 0.45,
                "sources": [[0, 0]],
                "word": {"kind": "product", "q": 0.5, "seed": 3},
            },
            1000,
            97,
        ),
    ]
    ok = True
    for spec in specs:
        a, b = run(spec), run(spec)
        if a["result"]["successes"] != b["result"]["successes"]:
            ok = False
        if canonical_json(a) != canonical_json(b):
            ok = False
    _verdict(8, ok, f"{len(specs)} specs re-ran byte-identically")
