import dataclasses
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordperc import config
from wordperc.config import (
    Configuration,
    enumerate_configs,
    flip_colors,
    read_wpc,
    sample,
    sample_block,
    sample_trials,
    write_wpc,
)
from wordperc.errors import CapacityError, DomainError
from wordperc.geometry import Region, box
from wordperc.rng import RngStream, below, uniforms


def test_stream_scalar_vs_block():
    s = RngStream(123456789, 42)
    block = s.raw_block(0, 100)
    for i in range(100):
        assert int(block[i]) == s.raw(i)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=3),
       st.sampled_from([0.0, 0.3, 0.5, 1.0]),
       st.sampled_from([0, 1, 2**63, 2**63 + 12345, 2**64 - 1, -1, -2**40]),
       st.integers(1, 2**40), st.integers(1, 12), st.integers(1, 100))
@settings(max_examples=80, deadline=None)
# a region larger than a block: one trial per block
@example([129, 128], 0.3, 2**63, 3, 2, config.BLOCK_SITES)
# streams past 2^64 - 1 wrap to 0, 1, ... as mix64's reduction does
@example([3, 5], 0.5, -1, 2**64 - 2, 4, 30)
def test_sample_block_bit_exact(sizes, p, seed, t0, trials, block):
    """Blocks of a range, stacked, are the per-trial samples and the scalar
    Bernoulli draws, across block boundaries (t0 > 0)."""
    region = Region(tuple((-1, s - 1) for s in sizes))
    with mock.patch.object(config, "BLOCK_SITES", block):
        ranges = config.trial_blocks(t0, t0 + trials, region.volume)
        cfgs = list(sample_trials(region, p, seed, t0, t0 + trials))
    rows = np.concatenate([sample_block(region, p, seed, b0, b1) for b0, b1 in ranges])
    assert rows.shape == (trials, region.volume)
    for k, (row, cfg) in enumerate(zip(rows, cfgs, strict=True)):
        stream = RngStream(seed, t0 + k)
        assert cfg == sample(region, p, stream)  # bits and provenance
        assert (row == cfg.bools()).all()
        if region.volume <= 216:  # the scalar draws, for small regions
            assert row.tolist() == [stream.bernoulli(p, i) for i in range(region.volume)]
        else:
            assert (row == (stream.uniform_block(0, region.volume) < p)).all()


@pytest.mark.parametrize("p", [0.0, 2.0 ** -53, 0.3, 0.5, 1 - 2.0 ** -53, 1.0])
def test_below_is_the_float_comparison(p):
    """below(raw, p) == uniforms(raw) < p on random words and on the words
    around the threshold ceil(p * 2^53) << 11, where the two flip."""
    thr = math.ceil(p * 2.0 ** 53) << 11
    edges = [w for w in (thr - 1, thr) if 0 <= w < 1 << 64]
    near = [w for k in range(-4096, 4097, 7) if 0 <= (w := thr + k) < 1 << 64]
    raw = np.concatenate([RngStream(17, 4).raw_block(0, 4096),
                          np.array(edges + near + [0, (1 << 64) - 1], dtype=np.uint64)])
    assert (below(raw, p) == (uniforms(raw) < p)).all()
    if 0 < p < 1:  # the boundary words straddle p
        assert below(np.array(edges, dtype=np.uint64), p).tolist() == [True, False]


def choose_subset_scalar(stream, items, size, i0):
    """Partial Fisher-Yates with one scalar randint_below per swap."""
    pool = list(items)
    for j in range(size):
        k = j + stream.randint_below(len(pool) - j, i0 + j)
        pool[j], pool[k] = pool[k], pool[j]
    return pool[:size]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
def test_choose_subset_block_matches_scalar_draws(seed):
    items = list(range(97))
    for sid, size, i0 in [(0, 0, 0), (1, 1, 0), (2, 10, 0), (3, 10, 5), (4, 97, 0),
                          (5, 40, 123), (6, 33, 2**32)]:
        stream = RngStream(seed, sid)
        assert stream.choose_subset(items, size, i0) == choose_subset_scalar(
            stream, items, size, i0)


def test_base_cached_and_picklable():
    import pickle

    s = RngStream(11, 3)
    assert s.base == s.base
    t = pickle.loads(pickle.dumps(s))
    assert t == s and t.raw(5) == s.raw(5) and hash(t) == hash(s)


def test_stream_determinism_and_separation():
    a, b = RngStream(7, 0), RngStream(7, 1)
    assert a.raw(0) == RngStream(7, 0).raw(0)
    assert a.raw(0) != b.raw(0)


def test_uniform_range():
    s = RngStream(1, 0)
    u = s.uniform_block(0, 1000)
    assert (u >= 0).all() and (u < 1).all()


def test_sample_degenerate():
    r = box(2, 2)
    assert sample(r, 1.0, RngStream(5, 0)).ones_count() == r.volume
    assert sample(r, 0.0, RngStream(5, 0)).ones_count() == 0


def test_sample_mean_band():
    # 10^4 sites, p = 0.4, 10 fixed seeds: binomial 4-sigma band
    r = Region(((0, 100), (0, 100)))
    sigma = (0.4 * 0.6 / r.volume) ** 0.5
    for seed in range(10):
        cfg = sample(r, 0.4, RngStream(seed, 0))
        assert abs(cfg.ones_count() / r.volume - 0.4) < 4 * sigma


def test_sample_bit_exact_reproducibility():
    r = box(3, 3)
    a = sample(r, 0.37, RngStream(99, 3))
    b = sample(r, 0.37, RngStream(99, 3))
    assert a.bits == b.bits
    c = sample(r, 0.37, RngStream(99, 4))
    assert a.bits != c.bits


def test_per_site_marginals():
    # per-site frequency over 1e5 samples within 4 sigma of p, all 27 sites
    r = box(1, 3)
    n = 100_000
    p = 0.3
    counts = np.zeros(r.volume)
    for seed in range(n):
        counts += sample(r, p, RngStream(2024, seed)).bools()
    sigma = (p * (1 - p) / n) ** 0.5
    assert (np.abs(counts / n - p) < 4 * sigma).all()


def test_enumerate_configs_counts():
    r2 = Region(((0, 2),))
    assert len(list(enumerate_configs(r2))) == 4
    r4 = Region(((0, 2), (0, 2)))
    assert len(list(enumerate_configs(r4))) == 16
    r9 = Region(((0, 3), (0, 3)))
    cfgs = list(enumerate_configs(r9))
    assert len(cfgs) == 512
    assert len({c.bits for c in cfgs}) == 512


def test_enumerate_configs_cap():
    with pytest.raises(CapacityError):
        next(enumerate_configs(box(2, 3)))  # 125 sites > 25


def test_flip_colors_involution():
    r = box(1, 2)
    cfg = sample(r, 0.5, RngStream(8, 0))
    flipped = flip_colors(cfg)
    assert flipped.provenance is None
    assert flip_colors(flipped).bits == cfg.bits
    assert all(flipped.bit(i) == 1 - cfg.bit(i) for i in range(r.volume))
    ones = sample(r, 1.0, RngStream(8, 0))
    assert flip_colors(ones).ones_count() == 0


def test_bit_rank_layout():
    # explicit example: 2x2 region, rank order (0,0),(1,0),(0,1),(1,1)
    r = Region(((-1, 1), (-1, 1)))
    cfg = Configuration.from_bits(r, [1, 0, 0, 1])
    assert cfg.bit_at((0, 0)) == 1
    assert cfg.bit_at((1, 0)) == 0
    assert cfg.bit_at((0, 1)) == 0
    assert cfg.bit_at((1, 1)) == 1


def test_from_bools_keeps_a_read_only_copy():
    # the row becomes the bools() cache, so a later write to the caller's
    # array must not reach the configuration
    r = Region(((0, 3), (0, 2)))
    row = np.array([1, 0, 0, 1, 1, 0], dtype=bool)
    cfg = Configuration.from_bools(r, row)
    row[:] = False
    assert cfg.bools().tolist() == [True, False, False, True, True, False]
    assert not cfg.bools().flags.writeable
    assert cfg == Configuration.from_bits(r, [1, 0, 0, 1, 1, 0])


def test_wpc_roundtrip(tmp_path):
    r = box(2, 3)
    cfg = sample(r, 0.45, RngStream(77, 5))
    path = str(tmp_path / "c.wpc")
    write_wpc(cfg, path)
    back = read_wpc(path)
    assert back.bits == cfg.bits
    assert back.region.intervals == cfg.region.intervals
    assert back.provenance == cfg.provenance


def test_wpc_roundtrip_no_provenance(tmp_path):
    r = Region(((0, 3), (0, 3)))
    cfg = Configuration.from_bits(r, [1] * 9)
    path = str(tmp_path / "c2.wpc")
    write_wpc(cfg, path)
    assert read_wpc(path).provenance is None


# SHA-256 of write_wpc's bytes for sample(region, 0.5, RngStream(2026,
# volume)), with its provenance and without ("-bare"); the volumes sit at
# and around the 64-bit word boundaries of the bit block.  Recorded from
# the tuple-of-words writer, so they pin the file layout itself, which a
# round trip through read_wpc cannot.
WPC_REGIONS = {1: ((0, 1),), 8: ((0, 2), (0, 2), (0, 2)), 63: ((0, 7), (0, 9)),
               64: ((0, 8), (0, 8)), 65: ((-3, 2), (0, 13)),
               125: ((-3, 2), (-3, 2), (-3, 2))}
WPC_DIGESTS = {
    "1": "a62e4ed4615a422adf78495cd5e31fd0f6a4147dfdc1409499a34d839b29a658",
    "1-bare": "4e0c695345ce015691d7da8c333e89f337ca56fa0f8c7376fd1cc4e744c30790",
    "8": "5bf935d99fbff789e87a2e7dd0797eda2bc3bffd49124c8a2fc07da93757ac57",
    "8-bare": "3111e2e985a2396d99df56ba6fb561dd0c513614ea4c642fde4909258a34167e",
    "63": "526977a33b4e854627fdfaf95fd297adfc83c850ee3bdc1f67ad30e9b5b91986",
    "63-bare": "a15285410e72986cd9e86d95d8bd83241f6c309829153b33c597161be3b56e73",
    "64": "8f47626428e76d2b484ff2c78e3a2d2970a9276d7efae84c2b6dd80f5f7b7a3a",
    "64-bare": "bdf49ecb58b7897db53fe2c6a390ed6380594cf360e57589c4c17b5d42d3d511",
    "65": "630cbca33d4f0cac54e3d18151afa3c006509f177af5f44ece3ab71d3205494a",
    "65-bare": "df7ae00a6d26212a145aa82c860b342059d9740c30e1af63908bac510fb512dc",
    "125": "61eaa6c451fd4e1fa012b7aaeb5f2b7b4e0214625f6fd76b3ba0e341056949d4",
    "125-bare": "dee11c9f1ad10bbc7ad97f048ac31e7848764f1ac091b454fc5ef9274e6a0ab1",
}


@pytest.mark.parametrize("volume", sorted(WPC_REGIONS))
def test_wpc_bytes_match_golden_digests(tmp_path, volume):
    cfg = sample(Region(WPC_REGIONS[volume]), 0.5, RngStream(2026, volume))
    for key, c in ((f"{volume}", cfg),
                   (f"{volume}-bare", dataclasses.replace(cfg, provenance=None))):
        path = tmp_path / f"{key}.wpc"
        write_wpc(c, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == WPC_DIGESTS[key]
        assert read_wpc(str(path)) == c


@pytest.mark.parametrize("letters", [[1, 0, 0, 1, 1, 1], [1, 0, 2, 1], [1, 0, 0], [1, 0, -1, 1]])
def test_from_bits_checks_its_letters(letters):
    """Too many letters, a letter other than 0 or 1, or too few raise
    DomainError, as Word.from_bits does, instead of a silent truncation,
    a 2 read as 1, or a numpy error."""
    with pytest.raises(DomainError):
        Configuration.from_bits(Region(((0, 2), (0, 2))), letters)


def test_from_bits_takes_numpy_letters_past_64_sites():
    row = sample(Region(((0, 10), (0, 10))), 0.5, RngStream(5, 0)).bools()
    cfg = Configuration.from_bits(Region(((0, 10), (0, 10))), row)
    assert cfg.bools().tolist() == row.tolist() and cfg.bits >> 64


@pytest.mark.parametrize("bits", [-1, 1 << 9, (1 << 9) | 1, -(1 << 70)])
def test_bits_outside_the_volume_are_refused(bits):
    with pytest.raises(DomainError):
        Configuration(Region(((0, 3), (0, 3))), bits)


def test_read_wpc_drops_padding_bits(tmp_path):
    """Bits above the volume in the last 64-bit word are written as 0 and
    ignored on read, as bools() and every search ignored them before."""
    cfg = sample(Region(((0, 5), (0, 13))), 0.5, RngStream(3, 1))  # 65 sites
    path = tmp_path / "c.wpc"
    write_wpc(cfg, str(path))
    data = bytearray(path.read_bytes())
    assert data[-8:] == bytes([cfg.bits >> 64]) + bytes(7)
    data[-8:] = bytes([data[-8] | 0xFE]) + b"\xff" * 7
    path.write_bytes(bytes(data))
    back = read_wpc(str(path))
    assert back == cfg and back.bits >> 65 == 0
    assert back.ones_count() == cfg.ones_count() == int(cfg.bools().sum())


def test_configuration_views_of_its_bits():
    r = Region(((0, 3), (0, 3)))
    cfg = Configuration(r, 0b101100110)
    assert cfg.bools().tolist() == [bool(0b101100110 >> i & 1) for i in range(9)]
    assert not cfg.bools().flags.writeable
    assert cfg.ones_count() == 5
    assert [cfg.bit(i) for i in range(9)] == [0, 1, 1, 0, 0, 1, 1, 0, 1]
    assert flip_colors(cfg).bits == 0b010011001
    assert list(enumerate_configs(Region(((0, 2),)))) == [Configuration(Region(((0, 2),)), c)
                                                         for c in range(4)]
