import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordperc.errors import DomainError
from wordperc.geometry import (
    Region,
    block_count_constant,
    box,
    inner_boundary,
    is_macro_vertex,
    lambda_box,
    macro_box,
    macro_face,
    macro_out_neighbors,
    neighbor_ranks,
    neighbor_steps,
    neighbors,
    slab_window,
)


def brute_inner_boundary(lamb, ambient):
    out = set()
    for x in lamb.iter_points():
        for axis in range(lamb.dim):
            for step in (-1, 1):
                y = list(x)
                y[axis] += step
                y = tuple(y)
                if ambient.contains(y) and not lamb.contains(y):
                    out.add(x)
    return out


def test_region_basics():
    r = box(2, 3)
    assert r.volume == 125
    assert r.contains((0, 0, 0)) and r.contains((2, -2, 1))
    assert not r.contains((3, 0, 0))
    # rank order: first coordinate fastest
    assert r.unrank(0) == (-2, -2, -2)
    assert r.unrank(1) == (-1, -2, -2)
    assert r.rank(r.unrank(77)) == 77


def test_region_rejects_empty_interval():
    with pytest.raises(DomainError):
        Region(((0, 0),))


def test_points_array_matches_iter():
    r = Region(((-2, 1), (0, 2)))
    pts = [tuple(p) for p in r.points_array()]
    assert pts == list(r.iter_points())


def test_neighbors_interior_and_corner():
    r = box(2, 3)
    assert len(neighbors((0, 0, 0), r)) == 6
    assert len(neighbors((2, 2, 2), r)) == 3


def test_neighbors_lambda_example():
    lam = lambda_box(1, 2, 1, 3)  # [-1,1]^2 x (0,2]
    nb = neighbors((0, 0, 1), lam)
    assert len(nb) == 5  # z-1 = 0 is excluded
    assert (0, 0, 2) in nb and (0, 0, 0) not in nb


def test_neighbors_sorted_and_outside_raises():
    r = box(1, 2)
    assert neighbors((0, 0), r) == sorted(neighbors((0, 0), r))
    with pytest.raises(DomainError):
        neighbors((5, 5), r)


@given(st.integers(-1, 1), st.integers(-1, 1), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_neighbor_symmetry(x, y, z):
    lam = lambda_box(1, 2, 1, 3)
    v = (x, y, z)
    for u in neighbors(v, lam):
        assert v in neighbors(u, lam)


def test_inner_boundary_lambda_in_slab():
    lam = lambda_box(1, 2, 1, 3)  # 18 points
    amb = slab_window(2, 1, 3, half_width=5)
    bd = inner_boundary(lam, amb)
    assert len(bd) == 16
    assert (0, 0, 1) not in bd and (0, 0, 2) not in bd


def test_inner_boundary_no_exterior():
    r = box(2, 2)
    assert inner_boundary(r, r) == set()


def test_inner_boundary_single_cell():
    cell = Region(((0, 1), (0, 1)))  # the one cell (1, 1)
    amb = box(3, 2)
    assert inner_boundary(cell, amb) == {(1, 1)}


def test_inner_boundary_matches_bruteforce():
    cases = [
        (lambda_box(1, 2, 1, 3), slab_window(2, 1, 3, 4)),
        (box(1, 3), box(2, 3)),
        (Region(((0, 2), (0, 3))), Region(((-1, 2), (0, 5)))),
    ]
    for lamb, amb in cases:
        assert inner_boundary(lamb, amb) == brute_inner_boundary(lamb, amb)


def test_inner_boundary_requires_containment():
    with pytest.raises(DomainError):
        inner_boundary(box(3, 2), box(2, 2))


def test_macro_out_neighbors_examples():
    assert set(macro_out_neighbors((0, 0, 2), 4)) == {
        (2, 1, 1),
        (2, 1, 3),
        (2, -1, 1),
        (2, -1, 3),
    }
    assert set(macro_out_neighbors((0, 0, 2), 3)) == {(2, 1, 1), (2, -1, 1)}


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 9), st.integers(2, 10))
@settings(max_examples=200, deadline=None)
def test_macro_out_neighbors_properties(a, b, c, h):
    v1 = 2 * a
    v2 = b * 2 + (v1 // 2) % 2 * (1 if b % 2 == 0 else -1)
    # construct a valid vertex directly instead
    v2 = (v1 // 2) % 2
    v3 = (v1 // 2) % 2
    if v3 == 0:
        v3 = 2
    u = (v1, v2 + 2 * b, v3)
    if not is_macro_vertex(u, h):
        return
    out = macro_out_neighbors(u, h)
    assert len(out) in (0, 2, 4)
    for w in out:
        assert is_macro_vertex(w, h)
        assert w[0] == u[0] + 2
        assert (w[2] - u[2]) % 2 == 1 or abs(w[2] - u[2]) == 1


def test_macro_box_example():
    b = macro_box((0, 0, 2), 2, 3)
    assert b.intervals == ((-2, 2), (-2, 2), (2, 6))
    assert b.volume == 4**3


def test_macro_box_rejects_odd_k():
    with pytest.raises(DomainError):
        macro_box((0, 0, 2), 3, 3)


def test_macro_face_disjoint_from_box():
    u = (0, 0, 2)
    b, f = macro_box(u, 2, 3), macro_face(u, 2, 3)
    assert b.intersect(f) is None
    assert f.volume == (2 * 2) ** 2


def test_macro_boxes_pairwise_disjoint():
    u = (0, 0, 2)
    bu = macro_box(u, 2, 3)
    for v in macro_out_neighbors(u, 8):
        bv = macro_box(v, 2, 3)
        assert bu.intersect(bv) is None
    outs = macro_out_neighbors(u, 8)
    for i, v in enumerate(outs):
        for w in outs[i + 1 :]:
            assert macro_box(v, 2, 3).intersect(macro_box(w, 2, 3)) is None


def test_block_count_constant_vs_box_volume():
    # C is (2k+1)^d as defined, not the box volume (2k)^d
    assert block_count_constant(2, 3) == 125
    assert macro_box((0, 0, 2), 2, 3).volume == 64


def test_neighbor_ranks_consistency():
    r = lambda_box(1, 2, 1, 3)
    table = neighbor_ranks(r.intervals)
    for pt in r.iter_points():
        expect = {r.rank(u) for u in neighbors(pt, r)}
        got = {int(x) for x in table[r.rank(pt)] if x >= 0}
        assert got == expect


@pytest.mark.parametrize("region", [
    lambda_box(1, 2, 1, 3), box(2, 2), Region(((0, 1), (-3, 2), (0, 2))), Region(((3, 4), (4, 5))),
])
def test_neighbor_steps_match_neighbor_ranks(region):
    table = neighbor_ranks(region.intervals)
    kind, steps = neighbor_steps(region.sizes)
    for r in range(region.volume):
        assert [r + s for s in steps[kind[r]]] == [int(u) for u in table[r] if u >= 0]


# shapes with axes of one site, in d = 1, 2, 3, 33 and 64; past d = 32 the
# directions of all 2d axes no longer fit a 64-bit kind
SIZE_ONE_SHAPES = [(1,), (4,), (1, 3), (3, 1), (1, 1, 4), (2, 1, 3), (3,) + (1,) * 31 + (2,),
                   (1, 2) + (1,) * 30 + (3,), (2,) + (1,) * 62 + (2,), (1,) * 64]


@pytest.mark.parametrize("sizes", SIZE_ONE_SHAPES)
def test_neighbor_steps_match_neighbors_per_point(sizes):
    region = Region(tuple((0, s) for s in sizes))
    neighbor_steps.cache_clear()
    kind, steps = neighbor_steps(sizes)
    for r, pt in enumerate(region.iter_points()):
        assert [region.unrank(r + s) for s in steps[kind[r]]] == neighbors(pt, region)


@pytest.mark.parametrize("sizes", [(4, 3, 2), (3,) + (1,) * 31 + (2,), (1, 5)])
def test_neighbor_steps_read_no_per_site_table(sizes, monkeypatch):
    import wordperc.geometry as geometry

    neighbor_steps.cache_clear()
    want = neighbor_steps(sizes)
    neighbor_steps.cache_clear()

    def forbidden(*args):
        raise AssertionError("per-site table built")

    monkeypatch.setattr(geometry, "neighbor_ranks", forbidden)
    monkeypatch.setattr(geometry, "_points_array", forbidden)
    assert neighbor_steps(sizes) == want
    neighbor_steps.cache_clear()


def test_d4_regions():
    lam = lambda_box(1, 2, 2, 4)
    assert lam.dim == 4
    assert lam.intervals[3] == (-2, 2)
    u = (0, 0, 2)
    b = macro_box(u, 2, 4)
    assert b.intervals[3] == (-2, 2)


def test_rank_rejects_wrong_dimension():
    r = Region(((-1, 1), (-1, 1)))
    for pt in [(0, 0, 7), (0,), ()]:
        with pytest.raises(DomainError):
            r.rank(pt)
    assert r.rank((0, 0)) == 0


def test_dimension_bound():
    from wordperc.geometry import MAX_DIM
    from wordperc.renorm import RenormParams

    assert box(0, MAX_DIM).volume == 1
    for make in (lambda d: box(0, d), lambda d: lambda_box(1, 1, 2, d),
                 lambda d: slab_window(1, 2, d, 3), lambda d: Region(((0, 1),) * d),
                 lambda d: RenormParams(d, 0.5, 2, 1e-6, 4)):
        with pytest.raises(DomainError, match="dimension must lie in"):
            make(MAX_DIM + 1)
    with pytest.raises(DomainError):
        Region(())
