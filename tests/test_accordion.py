import pytest

from wordperc.accordion import accordion_embed
from wordperc.errors import DomainError
from wordperc.oriented import oriented_reach, sample_oriented
from wordperc.rng import RngStream


def test_parameter_validation():
    with pytest.raises(DomainError):
        accordion_embed(12, 5)
    with pytest.raises(DomainError):
        accordion_embed(13, 6)
    with pytest.raises(DomainError):
        accordion_embed(4, 6)


@pytest.mark.parametrize("h,n", [(6, 12), (6, 30), (8, 16), (8, 40), (10, 20)])
def test_injectivity_and_edges(h, n):
    a = accordion_embed(n, h)
    domain = a.domain_points()
    image = [a.map_point(p) for p in domain]
    assert len(set(image)) == len(domain)
    checked = 0
    for x, y in domain:
        for dy in (-1, 1):
            q = (x + 2, y + dy)
            if a.in_domain(q):
                u, v = a.map_point((x, y)), a.map_point(q)
                assert v[0] - u[0] == 2
                assert abs(v[1] - u[1]) == 1 and abs(v[2] - u[2]) == 1
                checked += 1
    assert checked == a.report["edges_checked"] > 0


def test_target_containment_and_hooks():
    a = accordion_embed(24, 6)
    win = a.windows()
    Rset = set(win.R)
    for p in a.target_column():
        assert a.map_point(p) in Rset
    Lset = set(win.L)
    hooks = [p for p in a.source_column() if a.map_point(p) in Lset]
    assert len(hooks) == a.report["seed_hooks_available"] >= 1
    # hooks land on distinct seed vertices
    assert len({a.map_point(p) for p in hooks}) == len(hooks)


def test_source_column_spans_path():
    a = accordion_embed(30, 6)
    assert len(a.source_column()) >= len(a.target_column())
    ja, jb = a._windows[0]
    assert (ja, jb) == (0, len(a.gamma) - 1)


@pytest.mark.parametrize("seed", range(10))
def test_pushforward_reachability(seed):
    # planar reach of A in the pulled-back config implies slab reach of
    # the f-images in the original slab config
    a = accordion_embed(24, 6)
    win = a.windows()
    window_vertices = sorted(set(win.B) | set(win.L) | set(win.R))
    slab_cfg = sample_oriented("slab", window_vertices, 0.8, RngStream(808, seed), h=a.h)
    planar_cfg = a.pull_config(slab_cfg)
    A = a.source_column()[::2]
    planar_reach = oriented_reach(planar_cfg, A)
    if not planar_reach:
        return
    slab_reach = oriented_reach(slab_cfg, [a.map_point(p) for p in A])
    for v in planar_reach:
        assert a.map_point(v) in slab_reach
