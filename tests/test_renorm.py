import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from wordperc.config import Configuration, sample
from wordperc.errors import CapacityError, DomainError
from wordperc.geometry import Region, lambda_box, macro_box, macro_face, macro_out_neighbors
from wordperc.oracles import distance_map, saw_reach_bruteforce
from wordperc.renorm import (
    RenormParams,
    SeedSet,
    event_Emn,
    good_event,
    is_delta_seed,
    lambda_boundary,
    macro_exploration,
    micro_left_column,
    micro_window,
    seed_sets_from,
)
from wordperc.rng import RngStream
from wordperc.search import MAX_INDEX, SourceSet, region_mask
from wordperc import renorm
from wordperc.oriented import slab_windows, snap_left_column
from wordperc.words import (
    AlternatingWord,
    ConstantWord,
    ExplicitWord,
    ProductWord,
    Word,
    has_period_two,
)

PAR = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)
U = (0, 0, 2)


def region_for(u, params, pad=1):
    """Window convering F^u u B^u and the out-neighbor faces."""
    k, d = params.k, params.d
    from wordperc.geometry import Region

    ivs = []
    for axis in range(d):
        su = (list(u) + [0] * (d - 3))[axis]
        ivs.append((k * su - 2 * k - 2, k * su + 2 * k + 2))
    return Region(tuple(ivs))


def all_ones(region):
    return Configuration.from_bools(region, np.ones(region.volume, dtype=bool))


def all_zeros(region):
    return Configuration.from_bools(region, np.zeros(region.volume, dtype=bool))


def test_params_validation():
    with pytest.raises(DomainError):
        RenormParams(3, 0.5, 3, 1e-6, 4)  # odd k
    with pytest.raises(DomainError):
        RenormParams(3, 0.5, 2, 1.0 / 64000, 4)  # delta too large
    assert PAR.C == 125
    assert PAR.face_size() == 16


def test_is_delta_seed_boundaries():
    import math

    face = macro_face(U, PAR.k, PAR.d)
    delta = 0.25
    need = math.ceil(delta * face.volume)
    pts = list(face.iter_points())
    seed = SeedSet.from_dict(U, {p: 0 for p in pts[:need]}, PAR)
    assert is_delta_seed(seed, delta, PAR)
    seed_small = SeedSet.from_dict(U, {p: 0 for p in pts[: need - 1]}, PAR)
    assert not is_delta_seed(seed_small, delta, PAR)
    # one offset beyond C * u1 spoils the seed
    budget = PAR.C * U[0]
    seed_bad = SeedSet.from_dict(U, {**{p: 0 for p in pts[:need]}, pts[need]: budget + 1}, PAR)
    assert not is_delta_seed(seed_bad, delta, PAR)
    with pytest.raises(DomainError):
        is_delta_seed(SeedSet.from_dict(U, {(99, 99, 99): 0}, PAR), delta, PAR)


def test_seed_offsets_within_the_search_cap():
    """A seed offset is readable by some search, in [0, MAX_INDEX]; the
    offsets array a SeedSet holds is read-only."""
    pt = next(macro_face(U, PAR.k, PAR.d).iter_points())
    assert SeedSet.from_dict(U, {pt: MAX_INDEX}, PAR).to_dict(PAR) == {pt: MAX_INDEX}
    for t in (-1, MAX_INDEX + 1):
        with pytest.raises(DomainError):
            SeedSet.from_dict(U, {pt: t}, PAR)
    with pytest.raises(ValueError):
        SeedSet.full_face(U, PAR).offsets[0] = 1


def test_exploration_refuses_t_offsets_off_the_search_cap():
    """A T offset outside [0, MAX_INDEX] is a DomainError before any box
    is searched, also where C*n is past MAX_INDEX."""
    par = RenormParams(d=5, p=0.5, k=6, delta=1e-6, h=4)
    n = 3
    assert par.C * n > MAX_INDEX + 1
    pt = macro_face(slab_windows(n, par.h).L[0], par.k, par.d).min_point()
    for t in (-1, MAX_INDEX + 1):
        with pytest.raises(DomainError, match="outside"):
            macro_exploration(None, {pt: t}, ConstantWord(1), par, n)


def test_seed_sets_from_all_ones():
    region = region_for(U, PAR)
    cfg = all_ones(region)
    seed = SeedSet.full_face(U, PAR)
    got = {v: s.to_dict(PAR) for v, s in seed_sets_from(cfg, seed, ConstantWord(1), PAR).items()}
    outs = macro_out_neighbors(U, PAR.h)
    assert set(got) == set(outs)
    # arrivals equal graph distance from the seed face (offset 0)
    mask = region_mask(region, [macro_face(U, PAR.k, PAR.d), macro_box(U, PAR.k, PAR.d)])
    dist = distance_map(cfg, list(seed.to_dict(PAR)), within=mask)
    for v, entries in got.items():
        face = macro_face(v, PAR.k, PAR.d)
        expect = {y: d for y, d in dist.items() if face.contains(y)}
        assert entries == expect
        assert entries  # reachable through a solid box


def test_seed_sets_from_empty_seed():
    region = region_for(U, PAR)
    cfg = all_ones(region)
    seed = SeedSet.from_dict(U, {}, PAR)
    got = seed_sets_from(cfg, seed, ConstantWord(1), PAR)
    assert all(not v.to_dict(PAR) for v in got.values())


def test_seed_sets_exact_matches_bruteforce():
    # tiny bound so the oracle stays cheap
    region = region_for(U, PAR)
    word = Word.from_string("10110101101101011011")
    seed_pts = list(macro_face(U, PAR.k, PAR.d).iter_points())[::5]
    seed = SeedSet.from_dict(U, {p: 0 for p in seed_pts}, PAR)
    mask = region_mask(region, [macro_face(U, PAR.k, PAR.d), macro_box(U, PAR.k, PAR.d)])
    allowed = {region.unrank(r) for r in range(region.volume) if mask >> r & 1}
    for s in range(3):
        cfg = sample(region, 0.5, RngStream(313, s))
        got = {v: s.to_dict(PAR)
               for v, s in seed_sets_from(cfg, seed, word, PAR, t_membership=7).items()}
        src = SourceSet.uniform(region, seed.to_dict(PAR), word)
        pairs = saw_reach_bruteforce(cfg, src, 7, allowed=allowed)
        best: dict = {}
        for y, t in pairs:
            if y not in best or t < best[y]:
                best[y] = t
        for v, entries in got.items():
            face = macro_face(v, PAR.k, PAR.d)
            expect = {y: t for y, t in best.items() if face.contains(y)}
            assert entries == expect


def test_seed_sets_bound_beyond_search_guard():
    """A membership bound past search.MAX_INDEX is refused before the
    product word's prefix is built up to it."""
    import tracemalloc

    cfg = sample(region_for(U, PAR), 0.5, RngStream(1, 0))
    seed = SeedSet.full_face(U, PAR)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            seed_sets_from(cfg, seed, ProductWord(0.5, 3), PAR, t_membership=2**23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_good_event_degenerate():
    region = region_for(U, PAR)
    seed = SeedSet.full_face(U, PAR)
    assert good_event(all_ones(region), seed, ConstantWord(1), PAR)
    assert not good_event(all_zeros(region), seed, ConstantWord(1), PAR)
    # relaxed agrees on the degenerate cases
    assert good_event(all_ones(region), seed, ConstantWord(1), PAR, mode="relaxed")
    assert not good_event(all_zeros(region), seed, ConstantWord(1), PAR, mode="relaxed")


def test_good_event_needs_delta_seed():
    region = region_for(U, PAR)
    with pytest.raises(DomainError):
        good_event(all_ones(region), SeedSet.from_dict(U, {}, PAR), ConstantWord(1), PAR)


def test_good_event_monotone_in_seed():
    # enlarging the seed (same offsets) never turns true into false
    region = region_for(U, PAR)
    word = AlternatingWord()
    face_pts = list(macro_face(U, PAR.k, PAR.d).iter_points())
    flips = 0
    for s in range(40):
        cfg = sample(region, 0.5, RngStream(414, s))
        small = SeedSet.from_dict(U, {p: 0 for p in face_pts[::3]}, PAR)
        big = SeedSet.from_dict(U, {p: 0 for p in face_pts}, PAR)
        if good_event(cfg, small, word, PAR) and not good_event(cfg, big, word, PAR):
            flips += 1
    assert flips == 0


def test_lambda_boundary_counts():
    par = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=2)
    bd = lambda_boundary(1, par)
    lam = lambda_box(1, par.h, par.k, par.d)
    # side walls only; top and bottom faces are slab boundary, not inner
    inner = {p for p in lam.iter_points() if abs(p[0]) < 2 and abs(p[1]) < 2}
    assert bd == set(lam.iter_points()) - inner


def test_event_Emn_trivial_and_degenerate():
    par = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=2)
    region = micro_window(2, par)
    # n = m: whole probability space
    ok, _ = event_Emn(all_ones(region), 2, 2, ConstantWord(1), par)
    assert ok
    # big window containing the boxes
    from wordperc.geometry import Region, slab_window

    win = slab_window(par.h, par.k, par.d, half_width=2 * par.k * 2 + 2)
    ok, T = event_Emn(all_ones(win), 1, 2, ConstantWord(1), par)
    assert ok and len(T) == len(lambda_boundary(2, par))
    ok0, T0 = event_Emn(all_zeros(win), 1, 2, ConstantWord(1), par)
    assert not ok0 and not T0


def test_event_Emn_bound_monotone():
    par = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=2)
    from wordperc.geometry import slab_window

    win = slab_window(par.h, par.k, par.d, half_width=2 * par.k * 2 + 2)
    word = AlternatingWord()
    for s in range(5):
        cfg = sample(win, 0.5, RngStream(515, s))
        _, T_small = event_Emn(cfg, 1, 2, word, par, t_bound=6)
        _, T_big = event_Emn(cfg, 1, 2, word, par, t_bound=24)
        assert set(T_small) <= set(T_big)


def test_macro_exploration_all_ones():
    par = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)
    n = 5
    win = micro_window(n, par)
    cfg = all_ones(win)
    col = micro_left_column(n, par)
    T = {p: 0 for p in col.iter_points()}
    rep = macro_exploration(cfg, T, ConstantWord(1), par, n)
    assert rep.audit_no_requeries
    assert rep.audit_box_overlaps == ()
    assert rep.T_macro  # dense T seeds the whole left column
    from wordperc.oriented import forward_cone, slab_windows

    wins = slab_windows(n, par.h)
    cone = forward_cone(rep.U0, wins.B_set)
    assert set(rep.U_inf) == set(rep.U0) | cone
    assert rep.right_hits == rep.right_size
    assert rep.T_prime_size > 0


@pytest.mark.parametrize("mode", ["relaxed", "exact"])
def test_macro_exploration_one_search_per_box(monkeypatch, mode):
    # on an all-ones window every queried box holds a seed, and the constant
    # word is decided by the walk search in both modes: one search a box
    import wordperc.renorm as renorm

    calls = []
    for name in ("relaxed_word_reach", "exact_word_reach", "good_event"):
        real = getattr(renorm, name)
        monkeypatch.setattr(renorm, name, lambda *a, _n=name, _f=real, **kw: (
            calls.append(_n), _f(*a, **kw))[1])
    par = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)
    n = 5
    cfg = all_ones(micro_window(n, par))
    T = {p: 0 for p in micro_left_column(n, par).iter_points()}
    rep = macro_exploration(cfg, T, ConstantWord(1), par, n, mode=mode)
    assert rep.queried
    assert calls == ["relaxed_word_reach"] * len(rep.queried)


def test_exact_exploration_one_search_per_seeded_box(monkeypatch):
    # a product word is decided by the self-avoiding search: every queried
    # box that holds a delta-seed, accepted or rejected, runs seed_sets_from's
    # search once, and good_event is never asked
    import wordperc.renorm as renorm

    searched, seeded = [], []
    real_search, real_check = renorm.exact_word_reach, renorm.is_delta_seed

    def searching(cfg, *args, **kwargs):
        # the macro vertex u of the box F^u u B^u, whose axes end at k u + k
        searched.append(tuple(hi // par.k - 1 for _, hi in cfg.region.intervals))
        return real_search(cfg, *args, **kwargs)

    def checking(seed, *args):
        ok = real_check(seed, *args)
        if ok:
            seeded.append(seed.u)
        return ok

    def forbidden(*args, **kwargs):
        raise AssertionError("not a single box search")

    monkeypatch.setattr(renorm, "exact_word_reach", searching)
    monkeypatch.setattr(renorm, "is_delta_seed", checking)
    monkeypatch.setattr(renorm, "relaxed_word_reach", forbidden)
    monkeypatch.setattr(renorm, "good_event", forbidden)
    par = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)
    n = 5
    cfg = sample(micro_window(n, par), 0.6, RngStream(70, 1))
    col = micro_left_column(n, par).points_array()
    keep = RngStream(71, 1).uniform_block(0, len(col)) < 0.7
    T = {tuple(v): 0 for v in col[keep].tolist()}
    rep = macro_exploration(cfg, T, ProductWord(0.5, seed=5), par, n, mode="exact")
    assert searched == seeded
    assert len(set(seeded)) == len(seeded) == len(rep.queried)
    assert set(rep.U_inf) < set(seeded)  # rejected boxes are searched once too


def test_macro_exploration_empty_T():
    par = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)
    n = 5
    win = micro_window(n, par)
    cfg = all_ones(win)
    rep = macro_exploration(cfg, {}, ConstantWord(1), par, n)
    assert rep.T_macro == ()
    assert rep.U_inf == ()
    assert rep.T_prime == {}


# -- the overlap audit ------------------------------------------------------------
#
# Valid macro boxes and faces never meet, so the audit's pair listing is
# reached only with macro_box and macro_face patched to widen every part.

def widened(part, grow):
    """part(u, k, d) grown by grow sites at both ends of every axis."""
    def grown(u, k, d):
        region = part(u, k, d)
        return Region(tuple((lo - grow, hi + grow) for lo, hi in region.intervals))
    return grown


def pairwise_overlaps(vertices, k, d):
    """The audit as one Region.intersect call per pair and kind, in the
    order of the sorted vertices, boxes before faces."""
    found = []
    for i, a in enumerate(vertices):
        for b in vertices[i + 1:]:
            if renorm.macro_box(a, k, d).intersect(renorm.macro_box(b, k, d)) is not None:
                found.append((a, b, "box-box"))
            if renorm.macro_face(a, k, d).intersect(renorm.macro_face(b, k, d)) is not None:
                found.append((a, b, "face-face"))
    return tuple(found)


def test_exploration_audit_lists_overlaps_in_pairwise_order(monkeypatch):
    """The overlap audit on boxes and faces widened by one site: the pairs
    of the pairwise loop over an exploration's sorted queried vertices.
    The audit alone sees the widened parts; every renorm cache is emptied
    first, so no entry a search left behind stands in for them."""
    par = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)
    n = 5
    cfg = all_ones(micro_window(n, par))
    T = {p: 0 for p in micro_left_column(n, par).iter_points()}
    clean = macro_exploration(cfg, T, ConstantWord(1), par, n)
    assert clean.audit_box_overlaps == ()
    queried = sorted(set(clean.queried))
    for cached in vars(renorm).values():
        getattr(cached, "cache_clear", lambda: None)()
    monkeypatch.setattr(renorm, "macro_box", widened(macro_box, 1))
    monkeypatch.setattr(renorm, "macro_face", widened(macro_face, 1))
    got = renorm.overlap_audit(queried, par.k, par.d)
    want = pairwise_overlaps(queried, par.k, par.d)
    assert {kind for _, _, kind in want} == {"box-box", "face-face"}
    assert got == want


def test_exploration_reports_the_overlap_audit(monkeypatch):
    """macro_exploration reports overlap_audit of its sorted queried
    vertices, as it returns them."""
    par = RenormParams(d=3, p=0.5, k=2, delta=1e-6, h=4)
    n = 5
    cfg = all_ones(micro_window(n, par))
    T = {p: 0 for p in micro_left_column(n, par).iter_points()}
    calls = []
    monkeypatch.setattr(renorm, "overlap_audit",
                        lambda *args: calls.append(args) or (("sentinel",),))
    rep = macro_exploration(cfg, T, ConstantWord(1), par, n)
    assert rep.queried
    assert calls == [(sorted(set(rep.queried)), par.k, par.d)]
    assert rep.audit_box_overlaps == (("sentinel",),)


# -- result pins -----------------------------------------------------------------
#
# SHA-256 of canonical good-event verdicts, propagated seed sets and full
# exploration reports, recorded (with record_pins) from the implementation
# that ran a good-event search and then a second seed-set search per accepted
# box and widened ambient seed-set searches to C * (n + v1); results must stay
# identical.

PIN_FILE = Path(__file__).with_name("renorm_result_digests.json")
PIN_DENSITY = (0.45, 0.5, 0.6)  # by seed
PIN_BUDGET = 20000  # exact seed-set searches at k = 4 exceed it (pinned as "cap")


def period_two_until(params, u1):
    """Alternating up to index C * (u1 + 2), then one letter off the period."""
    bound = params.C * (u1 + 2)
    head = "".join("10"[i & 1] for i in range(bound + 1))
    word = ExplicitWord(head, ConstantWord(int(head[-1])))
    assert has_period_two(word, bound) and not has_period_two(word, bound + 1)
    return word


def pin_words(params, u1):
    return {
        "const": ConstantWord(1),
        "alt": AlternatingWord(),
        "product": ProductWord(0.5, seed=5),
        "explicit": period_two_until(params, u1),
    }


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _capped(thunk):
    try:
        return thunk()
    except CapacityError:
        return "cap"


def _seed_cases(params):
    """(name, seed set): the full face at (0, 0, 2) with offsets 0, and every
    third face point at (2, 1, 1) with offsets spread over [0, C * u1]."""
    yield "full", SeedSet.full_face((0, 0, 2), params)
    u = (2, 1, 1)
    pts = list(macro_face(u, params.k, params.d).iter_points())[::3]
    span = params.C * u[0] + 1
    yield "sparse", SeedSet.from_dict(u, {v: (37 * i) % span for i, v in enumerate(pts)},
                                      params)


def _box_pin_calls(params, seed):
    for sname, seed_set in _seed_cases(params):
        u = seed_set.u
        cfg = sample(region_for(u, params), PIN_DENSITY[seed], RngStream(60 + params.k, seed))
        for wname, word in pin_words(params, u[0]).items():
            for mode in ("exact", "relaxed"):
                key = f"{sname}/{wname}/{mode}"
                yield f"good/{key}", lambda c=cfg, s=seed_set, w=word, m=mode: _dump(
                    good_event(c, s, w, params, mode=m))
                yield f"seed_sets/{key}", lambda c=cfg, s=seed_set, w=word, m=mode: _dump(
                    _capped(lambda: sorted(
                        (list(v), sorted((list(y), t) for y, t in got.to_dict(params).items()))
                        for v, got in seed_sets_from(
                            c, s, w, params, mode=m, node_budget=PIN_BUDGET).items())))


def _report(rep) -> str:
    return _dump({
        "n": rep.n,
        "T_macro": rep.T_macro,
        "U0": rep.U0,
        "U_inf": rep.U_inf,
        "V_inf": rep.V_inf,
        "trace": rep.trace,
        "queried": rep.queried,
        "right_hits": rep.right_hits,
        "right_size": rep.right_size,
        "T_prime": sorted((list(y), t) for y, t in rep.T_prime.items()),
        "T_prime_threshold": rep.T_prime_threshold,
        "audit_no_requeries": rep.audit_no_requeries,
        "audit_box_overlaps": rep.audit_box_overlaps,
    })


def _exploration_pin_calls(params, n, seed):
    cfg = sample(micro_window(n, params), PIN_DENSITY[seed], RngStream(70 + params.k, seed))
    col = micro_left_column(n, params).points_array()
    keep = RngStream(71, seed).uniform_block(0, len(col)) < 0.7
    T = {tuple(v): (7 * i) % 5 for i, v in enumerate(col[keep].tolist())}
    for wname, word in pin_words(params, snap_left_column(n)).items():
        yield f"relaxed/{wname}", lambda w=word: _report(
            macro_exploration(cfg, T, w, params, n, mode="relaxed"))
        # exact explorations only at k = 2, where they stay small; the
        # product word at n = 5, p = 0.45 exceeds 10^6 search nodes
        if params.k == 2 and wname in ("product", "explicit") and (n, wname, seed) != (5, "product", 0):
            yield f"exact/{wname}", lambda w=word: _report(
                macro_exploration(cfg, T, w, params, n, mode="exact"))


def pin_cases():
    """(key, thunk) for every pin."""
    for k in (2, 4):
        params = RenormParams(d=3, p=0.5, k=k, delta=1e-6, h=4)
        for seed in range(3):
            for call, thunk in _box_pin_calls(params, seed):
                yield f"k{k}/{seed}/{call}", thunk
            for n in (3, 4, 5):
                for call, thunk in _exploration_pin_calls(params, n, seed):
                    yield f"k{k}/{seed}/explore{n}/{call}", thunk


def record_pins() -> dict:
    return {key: hashlib.sha256(thunk().encode()).hexdigest() for key, thunk in pin_cases()}


def test_results_identical_to_pins():
    pins = json.loads(PIN_FILE.read_text())
    got = record_pins()
    assert got.keys() == pins.keys()
    assert [k for k in pins if got[k] != pins[k]] == []
