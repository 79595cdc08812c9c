"""Site percolation configurations on finite regions.

A Configuration stores one bit per region point, packed LSB-first into
64-bit words by point rank (first coordinate fastest). Sampling consumes
one uniform per site in rank order, so identical (region, p, master_seed,
stream_id) give identical bytes on every platform. sample_block draws the
colours of a range of trials (streams) at once, comparing raw words with
an integer threshold (rng.below); every Monte Carlo range function takes
its configurations as rows of such blocks, over trial_blocks, and
Configuration.from_rows packs a block's rows at once, each keeping its row
as the bools() cache (from_bools is the one-row case). sample is the
one-trial case, for the CLI and the tests.

Binary file format (.wpc): magic "WPC1", u32 version=1, u32 dim,
dim x (i64 lo, i64 hi), f64 p, u64 master_seed, u64 stream_id, then
ceil(volume/64) little-endian u64 words of bits. For configurations
without sampling provenance p is written as NaN and the seeds as 0.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .geometry import Region
from .rng import RngStream, below, raw_grid

MAX_ENUM_SITES = 25
# Sites one trial may sample; a larger region or window ends in a
# CapacityError before any draw instead of exhausting memory.
MAX_SITES = 1 << 24
# Sites one block of trials may draw: block samplers take their trials in
# blocks of at most BLOCK_SITES sites (or of one trial), which bounds their
# memory whatever the trial count.
BLOCK_SITES = 1 << 14


def check_sites(sites: int, what: str = "region"):
    """CapacityError when one trial would sample more than MAX_SITES sites."""
    if sites > MAX_SITES:
        raise CapacityError(f"sampling capped at {MAX_SITES} sites per trial, "
                            f"the {what} has {sites}")


def trial_blocks(t0: int, t1: int, sites: int) -> list[tuple[int, int]]:
    """[t0, t1) as consecutive blocks of at most BLOCK_SITES // sites
    trials (at least one)."""
    size = max(1, BLOCK_SITES // sites)
    return [(b, min(b + size, t1)) for b in range(t0, t1, size)]


@dataclass(frozen=True)
class Provenance:
    p: float
    master_seed: int
    stream_id: int


@dataclass(frozen=True)
class Configuration:
    """Immutable 0/1 coloring of a region."""

    region: Region
    words: tuple[int, ...]  # packed bits, 64 per word, LSB first
    provenance: Provenance | None = None

    def __post_init__(self):
        need = (self.region.volume + 63) // 64
        if len(self.words) != need:
            raise DomainError("bit count does not match region volume")

    def bit(self, rank: int) -> int:
        return (self.words[rank >> 6] >> (rank & 63)) & 1

    def bit_at(self, pt) -> int:
        return self.bit(self.region.rank(pt))

    def bools(self) -> np.ndarray:
        """Rank-ordered boolean array of the coloring (cached, read-only)."""
        cached = getattr(self, "_bools", None)
        if cached is None:
            raw = np.array(self.words, dtype=np.uint64)
            cached = np.unpackbits(raw.view(np.uint8), bitorder="little")[
                : self.region.volume
            ].astype(bool)
            cached.setflags(write=False)
            object.__setattr__(self, "_bools", cached)
        return cached

    def ones_count(self) -> int:
        return int(self.bools().sum())

    @classmethod
    def from_rows(cls, region: Region, rows, provenances) -> list["Configuration"]:
        """The colorings of the rows of a (k, volume) rank-order bool array,
        with one provenance each, packed at once; a read-only copy of the
        block holds every row's bools() cache, so no search unpacks it."""
        rows = np.asarray(rows)
        vol = region.volume
        if rows.ndim != 2 or rows.shape[1] != vol:
            raise DomainError("bit array shape mismatch")
        # the copy, zero-padded to whole 64-bit words
        bits = np.zeros((len(rows), (vol + 63) // 64 * 64), dtype=bool)
        bits[:, :vol] = rows
        bits.setflags(write=False)
        packed = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
        out = []
        for row, words, prov in zip(bits[:, :vol], packed.tolist(), provenances):
            cfg = cls(region, tuple(words), prov)
            object.__setattr__(cfg, "_bools", row)
            out.append(cfg)
        return out

    @classmethod
    def from_bools(cls, region: Region, bits: np.ndarray, provenance=None):
        """The coloring of a rank-order bool array (from_rows' one-row case)."""
        return cls.from_rows(region, np.asarray(bits)[None], (provenance,))[0]

    @classmethod
    def from_bits(cls, region: Region, bits, provenance=None):
        return cls.from_bools(region, np.fromiter(bits, dtype=bool, count=region.volume), provenance)


def sample_block(region: Region, p: float, master_seed: int, t0: int, t1: int) -> np.ndarray:
    """Bernoulli(p) colours of trials t0..t1-1 as a (t1 - t0, volume) bool
    array in rank order: trial t uses stream (master_seed, t), site i its
    draw i."""
    check_sites(region.volume)
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    return below(raw_grid(master_seed, t0, t1, 0, region.volume), p)


def sample_trials(region: Region, p: float, master_seed: int, t0: int, t1: int):
    """The configurations of trials t0..t1-1, each equal to sample(region,
    p, RngStream(master_seed, t)), drawn a block of trials at a time."""
    for b0, b1 in trial_blocks(t0, t1, region.volume):
        for t, row in enumerate(sample_block(region, p, master_seed, b0, b1), b0):
            yield Configuration.from_bools(region, row, Provenance(p, master_seed, t))


def sample(region: Region, p: float, rng: RngStream) -> Configuration:
    """Bernoulli(p) product sample; site i uses the stream's draw i."""
    bits = sample_block(region, p, rng.master_seed, rng.stream_id, rng.stream_id + 1)[0]
    return Configuration.from_bools(region, bits, Provenance(p, rng.master_seed, rng.stream_id))


def enumerate_configs(region: Region):
    """All 2^|region| configurations, in bit-rank order of their codes."""
    vol = region.volume
    if vol > MAX_ENUM_SITES:
        raise CapacityError(f"enumerate_configs capped at {MAX_ENUM_SITES} sites")
    n_words = (vol + 63) // 64
    for code in range(1 << vol):
        words = tuple((code >> (64 * w)) & ((1 << 64) - 1) for w in range(n_words))
        yield Configuration(region, words)


def flip_colors(cfg: Configuration) -> Configuration:
    """Complement every site; derived configs carry no provenance."""
    vol = cfg.region.volume
    out = []
    remaining = vol
    for w in cfg.words:
        take = min(64, remaining)
        out.append(w ^ ((1 << take) - 1))
        remaining -= take
    return Configuration(cfg.region, tuple(out), None)


_MAGIC = b"WPC1"


def write_wpc(cfg: Configuration, path: str):
    """Write cfg as a .wpc file.  Everything is packed before the file is
    opened, so a value that does not fit its field leaves no file."""
    prov = cfg.provenance
    data = [_MAGIC, struct.pack("<II", 1, cfg.region.dim)]
    data += [struct.pack("<qq", lo, hi) for lo, hi in cfg.region.intervals]
    if prov is None:
        data.append(struct.pack("<dQQ", math.nan, 0, 0))
    else:
        data.append(struct.pack("<dQQ", prov.p, prov.master_seed, prov.stream_id))
    data.append(struct.pack(f"<{len(cfg.words)}Q", *cfg.words))
    with open(path, "wb") as f:
        f.write(b"".join(data))


def read_wpc(path: str) -> Configuration:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def take(fmt):
            n = struct.calcsize(fmt)
            data = f.read(n)
            if len(data) != n:
                raise DomainError(f"{path}: truncated WPC1 file")
            return struct.unpack(fmt, data)

        if f.read(4) != _MAGIC:
            raise DomainError(f"{path}: not a WPC1 file")
        (version,) = take("<I")
        if version != 1:
            raise DomainError(f"{path}: unsupported version {version}")
        (dim,) = take("<I")
        intervals = tuple(take("<qq") for _ in range(dim))
        region = Region(intervals)
        p, seed, stream = take("<dQQ")
        n_words = (region.volume + 63) // 64
        if size != f.tell() + 8 * n_words:
            raise DomainError(
                f"{path}: header volume {region.volume} needs {8 * n_words} bytes "
                f"of bits, file holds {size - f.tell()}"
            )
        words = take(f"<{n_words}Q")
        prov = None if math.isnan(p) else Provenance(p, seed, stream)
        return Configuration(region, words, prov)
