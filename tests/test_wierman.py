import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from wordperc import config, wierman
from wordperc.config import Configuration
from wordperc.errors import CapacityError, DomainError
from wordperc.geometry import Region, box
from wordperc.oracles import verify_witness
from wordperc.rng import RngStream
from wordperc.search import SourceSet, exact_word_reach
from wordperc.wierman import (CoupledPair, couple_block, verify_block, verify_coupling,
                              wierman_couple)
from wordperc.words import AlternatingWord, ConstantWord, ProductWord, Word

R33 = Region(((-2, 1), (-2, 1)))

# -- bit-identity pins ---------------------------------------------------------
#
# SHA-256 of each pair's six arrays, recorded (with record_pins) from the
# earlier implementation that drew every uniform as a scalar; pairs must
# stay bit-identical to it.

PIN_FILE = Path(__file__).with_name("wierman_pair_digests.json")

PIN_REGIONS = {
    "R33": (R33, [(0, 0), (-1, 1)], 0.45),
    "box13": (box(1, 3), [(0, 0, 0)], 0.4),
    "box43": (box(4, 3), [(x, y, z) for x in (-2, 2) for y in (-2, 2) for z in (-2, 2)], 0.35),
    "box202": (box(20, 2), [(0, 0), (5, 5), (-5, -5)], 0.5),
}
PIN_WORDS = {
    "product": lambda n: ProductWord(0.5, seed=3),
    "alt": lambda n: AlternatingWord(),
    "const": lambda n: ConstantWord(1),
    "explicit": lambda n: ProductWord(0.3, seed=11).prefix(2000),
    "mixed": lambda n: [(ProductWord(0.5, seed=3), AlternatingWord(),
                         Word.from_string("0110" * 500))[i % 3] for i in range(n)],
}
PIN_SEEDS = (0, 1, 2)


def pair_digest(pair) -> str:
    h = hashlib.sha256()
    for arr in (pair.omega.bools(), pair.omega_tilde.bools(), pair._explored):
        h.update(np.asarray(arr, dtype=np.uint8).tobytes())
    for arr in (pair._parent, pair._root_idx, pair._depth):
        h.update(np.asarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def pin_cases():
    """(key, region, sources, words, p, rng, start_index) for every pin."""
    for ri, (rname, (region, sources, p)) in enumerate(PIN_REGIONS.items()):
        for wname, make in PIN_WORDS.items():
            for start_index in (0, 1):
                for seed in PIN_SEEDS:
                    key = f"{rname}/{wname}/{start_index}/{seed}"
                    yield (key, region, sources, make(len(sources)), p,
                           RngStream(100 + ri, seed), start_index)


def record_pins() -> dict:
    return {
        key: pair_digest(wierman_couple(region, sources, words, p, rng, start_index))
        for key, region, sources, words, p, rng, start_index in pin_cases()
    }


def test_pairs_bit_identical_to_pins():
    pins = json.loads(PIN_FILE.read_text())
    got = record_pins()
    assert got.keys() == pins.keys()
    assert [k for k in pins if got[k] != pins[k]] == []


def test_block_rows_bit_identical_to_pins():
    # the pins' seeds are consecutive streams, so one block holds them all
    pins = json.loads(PIN_FILE.read_text())
    got = {}
    for ri, (rname, (region, sources, p)) in enumerate(PIN_REGIONS.items()):
        for wname, make in PIN_WORDS.items():
            for start_index in (0, 1):
                pairs = couple_block(region, sources, make(len(sources)), p, 100 + ri,
                                     PIN_SEEDS[0], PIN_SEEDS[-1] + 1, start_index)
                for seed, pair in zip(PIN_SEEDS, pairs, strict=True):
                    got[f"{rname}/{wname}/{start_index}/{seed}"] = pair_digest(pair)
    assert got == pins


def test_block_refused_above_the_cap_before_any_draw(monkeypatch):
    monkeypatch.setattr(config, "MAX_SITES", 100)

    def no_draws(*args):
        raise AssertionError("drew past the cap")

    monkeypatch.setattr(wierman, "raw_grid", no_draws)
    with pytest.raises(CapacityError, match="the region has 441"):
        couple_block(box(10, 2), [(0, 0)], AlternatingWord(), 0.4, 1, 0, 5)


def test_coupling_certificates_verify_in_33_dimensions():
    """A region of six sites whose 31 middle axes have one site each."""
    from wordperc.harness import ExperimentSpec, run

    region = {"kind": "intervals", "intervals": [[0, 3]] + [[0, 1]] * 31 + [[0, 2]]}
    spec = ExperimentSpec("wierman", {"region": region, "p": 0.5, "word": "alt",
                                      "sources": [[1] * 33]}, 200, 1)
    assert run(spec)["result"]["successes"] == 200


def test_p_above_half_rejected():
    with pytest.raises(DomainError):
        wierman_couple(R33, [(0, 0)], ConstantWord(1), 0.6, RngStream(1, 0))


def test_all_ones_word_makes_configs_agree_on_explored():
    for seed in range(20):
        pair = wierman_couple(R33, [(0, 0)], ConstantWord(1), 0.4, RngStream(10, seed))
        om, ti = pair.omega.bools(), pair.omega_tilde.bools()
        for r in np.nonzero(pair._explored)[0]:
            assert om[r] == ti[r]


def test_coupling_verifies_fresh():
    words = [AlternatingWord(), ProductWord(0.5, seed=3)]
    for seed in range(50):
        pair = wierman_couple(
            R33, [(-1, -1), (1, 1)], words, 0.45, RngStream(20, seed)
        )
        ok, info = verify_coupling(pair)
        assert ok, info


def test_coupling_verifies_fresh_3d():
    for seed in range(25):
        pair = wierman_couple(
            box(1, 3), [(0, 0, 0)], ProductWord(0.4, seed=1), 0.3, RngStream(21, seed)
        )
        ok, info = verify_coupling(pair)
        assert ok, info


def test_implication_gives_exact_word_connection():
    # independent cross-check: reached cluster members are word-reachable
    # per the search module as well
    word = AlternatingWord()
    for seed in range(10):
        pair = wierman_couple(R33, [(0, 0)], word, 0.5, RngStream(22, seed))
        from wordperc.search import one_connected_set

        cluster = one_connected_set(pair.omega, [(0, 0)])
        if not cluster:
            continue
        res = exact_word_reach(
            pair.omega_tilde, SourceSet.single(R33, (0, 0), word), R33.volume - 1
        )
        assert cluster <= res.vertices()


def test_branch_is_valid_witness():
    word = ProductWord(0.5, seed=9)
    for seed in range(10):
        pair = wierman_couple(R33, [(0, 0)], word, 0.45, RngStream(23, seed))
        from wordperc.search import one_connected_set

        for y in one_connected_set(pair.omega, [(0, 0)]):
            assert verify_witness(pair.omega_tilde, pair.branch(y), word, 0)


def mutated(pair, omega=None, omega_tilde=None, **arrays):
    """A copy of pair with the given configurations or forest arrays
    (parent, root_idx, depth, explored; rank-indexed) replaced."""
    fields = {name: getattr(pair, f"_{name}").copy()
              for name in ("parent", "root_idx", "depth", "explored")}
    fields.update(arrays)
    return CoupledPair(
        pair.region,
        omega or pair.omega,
        omega_tilde or pair.omega_tilde,
        fields["parent"],
        fields["root_idx"],
        fields["depth"],
        fields["explored"],
        pair.sources,
        pair.words,
        pair.start_index,
        pair.provenance,
    )


def flip_tilde(pair, r):
    bits = pair.omega_tilde.bools().copy()
    bits[r] = ~bits[r]
    return mutated(pair, omega_tilde=Configuration.from_bools(pair.region, bits))


def deep_pair(min_depth, region=R33, sources=((0, 0),), p=0.5, word=None):
    """The first coupled pair whose 1-cluster reaches min_depth."""
    for seed in range(200):
        pair = wierman_couple(region, list(sources), word or AlternatingWord(), p,
                              RngStream(30, seed))
        ones = pair._explored & pair.omega.bools()
        if ones.any() and pair._depth[ones].max() >= min_depth:
            ok, info = verify_coupling(pair)
            assert ok, info
            return pair
    raise AssertionError(f"no pair reaches depth {min_depth}")


def explored_kids(pair):
    """Explored non-roots, deepest first."""
    kids = np.flatnonzero(pair._explored & (pair._parent >= 0))
    return kids[np.argsort(-pair._depth[kids], kind="stable")]


def test_mutation_detected_tilde():
    pair = deep_pair(1)
    ones = pair._explored & pair.omega.bools()
    leaf = int(np.flatnonzero(ones)[np.argmax(pair._depth[ones])])
    ok, _ = verify_coupling(flip_tilde(pair, leaf))
    assert not ok


def test_mutation_detected_tilde_interior_ancestor():
    pair = deep_pair(3)
    ones = pair._explored & pair.omega.bools()
    leaf = int(np.flatnonzero(ones)[np.argmax(pair._depth[ones])])
    ancestor = int(pair._parent[pair._parent[leaf]])
    assert pair._depth[ancestor] >= 1 and pair.omega.bools()[ancestor]
    ok, info = verify_coupling(flip_tilde(pair, ancestor))
    assert not ok
    assert "misreads" in info


def test_mutation_detected_parent_unexplored():
    pair = deep_pair(2, region=box(3, 2), p=0.45)
    leaf = int(explored_kids(pair)[0])
    u = int(np.flatnonzero(~pair._explored)[0])
    parent, depth, root_idx = pair._parent.copy(), pair._depth.copy(), pair._root_idx.copy()
    # keep depth and tree consistent with the new parent, so only the
    # parent's own status can give the mutation away
    parent[leaf], depth[leaf], root_idx[leaf] = u, depth[u] + 1, root_idx[u]
    ok, info = verify_coupling(mutated(pair, parent=parent, depth=depth, root_idx=root_idx))
    assert not ok
    assert "parent is not an explored 1-vertex" in info


def test_mutation_detected_missing_parent():
    pair = deep_pair(1)
    parent = pair._parent.copy()
    parent[int(explored_kids(pair)[0])] = -2
    ok, info = verify_coupling(mutated(pair, parent=parent))
    assert not ok
    assert "has no parent" in info


def test_mutation_detected_root_idx_mismatch():
    # both trees read the same word, so only the tree check can see it
    pair = deep_pair(1, sources=((-1, -1), (1, 1)))
    r = int(explored_kids(pair)[0])
    root_idx = pair._root_idx.copy()
    root_idx[r] = 1 - root_idx[r]
    ok, info = verify_coupling(mutated(pair, root_idx=root_idx))
    assert not ok
    assert "tree differs from its parent's" in info


def test_mutation_detected_tree_renamed():
    # a whole tree moved to the other source's name stays consistent
    # inside; only its root gives it away
    pair = deep_pair(1, sources=((-1, -1), (1, 1)))
    root_idx = pair._root_idx.copy()
    tree = root_idx == 0
    root_idx[tree] = 1
    ok, info = verify_coupling(mutated(pair, root_idx=root_idx))
    assert not ok
    assert "is not its tree's source" in info


@pytest.mark.parametrize("delta", [-1, 1])
def test_mutation_detected_depth_off_by_one(delta):
    pair = deep_pair(1)
    r = int(explored_kids(pair)[0])
    depth = pair._depth.copy()
    depth[r] += delta
    ok, info = verify_coupling(mutated(pair, depth=depth))
    assert not ok
    assert "depth is not its parent's plus one" in info


def test_mutation_detected_root_depth():
    pair = deep_pair(0)
    depth = pair._depth.copy()
    depth[pair._parent == -1] += 1
    depth[explored_kids(pair)] += 1  # every edge still steps by one
    ok, info = verify_coupling(mutated(pair, depth=depth))
    assert not ok
    assert "depth 0" in info


def test_mutation_detected_omega_cluster_growth():
    pair = None
    for seed in range(200):
        pair = wierman_couple(R33, [(0, 0)], AlternatingWord(), 0.4, RngStream(31, seed))
        boundary_zero = np.flatnonzero(pair._explored & ~pair.omega.bools())
        if boundary_zero.size:
            break
    assert boundary_zero.size
    bits = pair.omega.bools().copy()
    bits[boundary_zero[0]] = True  # extend the 1-cluster beyond the forest
    ok, _ = verify_coupling(mutated(pair, omega=Configuration.from_bools(pair.region, bits)))
    # growing the cluster may happen to keep forest coverage only if the
    # flipped site fails word-reading; either way the certificate must fail
    assert not ok


def test_mutation_detected_cluster_vertex_missing_from_forest():
    # a childless explored 1-vertex dropped from the forest leaves every
    # forest check intact; only the independent 1-cluster sees it
    for seed in range(200):
        pair = wierman_couple(R33, [(0, 0)], AlternatingWord(), 0.5, RngStream(33, seed))
        ones = pair._explored & pair.omega.bools()
        childless = np.setdiff1d(np.flatnonzero(ones & (pair._parent >= 0)), pair._parent)
        if childless.size:
            break
    r = int(childless[0])
    explored, parent = pair._explored.copy(), pair._parent.copy()
    depth, root_idx = pair._depth.copy(), pair._root_idx.copy()
    explored[r], parent[r], depth[r], root_idx[r] = False, -2, -1, -1
    ok, info = verify_coupling(
        mutated(pair, explored=explored, parent=parent, depth=depth, root_idx=root_idx))
    assert not ok
    assert "1-cluster" in info


def test_short_word_fails_only_when_reached():
    # a source whose omega is 1 explores its neighbors at depth 1, which
    # needs letter 1 of a one-letter word
    word = Word.from_string("1")
    outcomes = set()
    for seed in range(20):
        rng = RngStream(32, seed)
        reaches_depth_one = rng.uniform(0) < 0.5
        if reaches_depth_one:
            with pytest.raises(DomainError, match="too short"):
                wierman_couple(R33, [(0, 0)], word, 0.5, rng)
        else:
            ok, info = verify_coupling(wierman_couple(R33, [(0, 0)], word, 0.5, rng))
            assert ok, info
        outcomes.add(reaches_depth_one)
    assert outcomes == {True, False}
    # an empty word is never read when the source colors are free draws
    pair = wierman_couple(R33, [(0, 0)], Word.from_string(""), 0.0, RngStream(32, 0),
                          start_index=1)
    assert verify_coupling(pair) == (True, None)


def test_marginal_bands_small():
    n = 4000
    p = 0.4
    counts_om = np.zeros(R33.volume)
    counts_ti = np.zeros(R33.volume)
    for seed in range(n):
        pair = wierman_couple(
            R33, [(0, 0)], AlternatingWord(), p, RngStream(555, seed)
        )
        counts_om += pair.omega.bools()
        counts_ti += pair.omega_tilde.bools()
    sigma = (p * (1 - p) / n) ** 0.5
    assert (np.abs(counts_om / n - p) < 4.5 * sigma).all()
    assert (np.abs(counts_ti / n - p) < 4.5 * sigma).all()


def test_determinism():
    a = wierman_couple(R33, [(0, 0)], AlternatingWord(), 0.5, RngStream(7, 3))
    b = wierman_couple(R33, [(0, 0)], AlternatingWord(), 0.5, RngStream(7, 3))
    assert a.omega.bits == b.omega.bits
    assert a.omega_tilde.bits == b.omega_tilde.bits
    assert (a._parent == b._parent).all()


def test_start_index_one_convention():
    # root's tilde color is a free draw; branches read from index 1
    for seed in range(30):
        pair = wierman_couple(
            R33, [(0, 0)], ConstantWord(0), 0.5, RngStream(40, seed), start_index=1
        )
        ok, info = verify_coupling(pair)
        assert ok, info


def test_trees_vertex_disjoint():
    # every branch starts at a source and extends its parent's branch, so
    # each explored vertex hangs in the tree of its branch's root only
    for seed in range(30):
        pair = wierman_couple(
            R33, [(-1, -1), (1, 1)], AlternatingWord(), 0.5, RngStream(41, seed)
        )
        for r in np.flatnonzero(pair._explored):
            v = R33.unrank(int(r))
            path = pair.branch(v)
            assert path[0] in pair.sources and path[-1] == v
            if len(path) > 1:
                assert path[:-1] == pair.branch(path[-2])


def test_verify_block_flags_only_the_tampered_row():
    pairs = couple_block(R33, [(-1, -1), (1, 1)], AlternatingWord(), 0.5, 30, 0, 40)
    assert verify_block(pairs) == [(True, None)] * len(pairs)
    deep = [i for i, q in enumerate(pairs)
            if (q._explored & q.omega.bools() & (q._depth >= 1)).any()]
    assert deep
    for i, tamper in ((deep[0], "tilde"), (deep[-1], "depth")):
        q = pairs[i]
        if tamper == "tilde":
            ones = q._explored & q.omega.bools()
            bad = flip_tilde(q, int(np.flatnonzero(ones)[np.argmax(q._depth[ones])]))
        else:
            depth = q._depth.copy()
            depth[int(explored_kids(q)[0])] += 1
            bad = mutated(q, depth=depth)
        block = pairs[:i] + [bad] + pairs[i + 1:]
        got = verify_block(block)
        assert got[i] == verify_coupling(bad)
        assert not got[i][0]
        assert got[:i] + got[i + 1:] == [(True, None)] * (len(pairs) - 1)


def test_verify_block_reads_letters_apart_from_the_finish(monkeypatch):
    # a finish that sets omega_tilde from the wrong letters must not pass:
    # the verifier reads the words itself
    finish = wierman._letter_plane
    monkeypatch.setattr(wierman, "_letter_plane", lambda *args: ~finish(*args))
    pairs = couple_block(R33, [(-1, -1), (1, 1)], ProductWord(0.5, seed=3), 0.45, 31, 0, 30)
    reads = [bool((q._explored & q.omega.bools()).any()) for q in pairs]
    assert any(reads)
    for read, (ok, info) in zip(reads, verify_block(pairs), strict=True):
        assert ok is not read
        assert read is False or "misreads its tree's word" in info


def test_verify_block_checks_the_pairs_own_arrays():
    pairs = couple_block(R33, [(0, 0)], AlternatingWord(), 0.5, 32, 0, 20)
    i = next(i for i, q in enumerate(pairs) if len(explored_kids(q)))
    bad = copy.copy(pairs[i])
    bad._depth = bad._depth.copy()
    bad._depth[int(explored_kids(bad)[0])] += 1
    got = verify_block(pairs[:i] + [bad] + pairs[i + 1:])
    assert got[i] == verify_coupling(bad) == (False, got[i][1])
    assert "depth is not its parent's plus one" in got[i][1]
    assert got[:i] + got[i + 1:] == [(True, None)] * (len(pairs) - 1)


def test_verify_block_needs_one_coupling_setup():
    a = wierman_couple(R33, [(0, 0)], AlternatingWord(), 0.4, RngStream(1, 0))
    b = wierman_couple(R33, [(0, 0)], AlternatingWord(), 0.4, RngStream(1, 1), start_index=1)
    with pytest.raises(DomainError, match="one region"):
        verify_block([a, b])
