"""Site percolation configurations on finite regions.

A Configuration holds its colouring as one int, as a Word holds its
letters: bit r is the colour of the point of rank r (first coordinate
fastest), the order of every search front; bools() is a cached view.
Sampling consumes one uniform per site in rank order, so identical
(region, p, master_seed, stream_id) give identical bits on every
platform. sample_block draws the colours of a range of trials (streams)
at once, comparing raw words with an integer threshold (rng.below); every
Monte Carlo range function takes its configurations as rows of such
blocks, over trial_blocks, and Configuration.from_rows packs a block's
rows at once, each keeping its row as the bools() cache (from_bools is
the one-row case). sample is the one-trial case, for the CLI and the tests.
A block may cover a sub-box of its region only: each site of it keeps the
draw of its rank in the region, so a trial that reads only that sub-box
draws only its sites and gets the same bits.

Binary file format (.wpc): magic "WPC1", u32 version=1, u32 dim,
dim x (i64 lo, i64 hi), f64 p, u64 master_seed, u64 stream_id, then the
bits as 8 * ceil(volume/64) little-endian bytes, padding bits written as
0 and dropped on read. For configurations without sampling provenance p
is written as NaN and the seeds as 0.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .geometry import Region, check_dim, ranks_within
from .rng import RngStream, below, raw_at
from .words import Word, _unpack

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
    """Immutable 0/1 coloring of a region, held as a Word holds its
    letters: bit r of bits is the colour of the point of rank r."""

    region: Region
    bits: int
    provenance: Provenance | None = None

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.region.volume:
            raise DomainError("bits outside the region's volume")

    def bit(self, rank: int) -> int:
        return self.bits >> rank & 1

    def bit_at(self, pt) -> int:
        return self.bit(self.region.rank(pt))

    def bools(self) -> np.ndarray:
        """Rank-ordered boolean array of the coloring (cached, read-only)."""
        cached = getattr(self, "_bools", None)
        if cached is None:
            cached = _unpack(self.bits, self.region.volume)
            cached.setflags(write=False)
            object.__setattr__(self, "_bools", cached)
        return cached

    def ones_count(self) -> int:
        return self.bits.bit_count()

    @classmethod
    def from_rows(cls, region: Region, rows, provenances) -> list["Configuration"]:
        """The colorings of the rows of a (k, volume) rank-order bool array,
        with one provenance each, packed at once, one int per row; a read-only
        copy of the block holds every row's bools() cache, so no search unpacks it."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != region.volume:
            raise DomainError("bit array shape mismatch")
        rows = rows.astype(bool)
        rows.setflags(write=False)
        lines = np.packbits(rows, axis=1, bitorder="little")  # each row in whole bytes
        out = []
        for row, line, prov in zip(rows, lines, provenances):
            cfg = cls(region, int.from_bytes(line.tobytes(), "little"), prov)
            object.__setattr__(cfg, "_bools", row)
            out.append(cfg)
        return out

    @classmethod
    def from_bools(cls, region: Region, bits: np.ndarray, provenance=None):
        """The coloring of a rank-order bool array (from_rows' one-row case)."""
        return cls.from_rows(region, np.asarray(bits)[None], (provenance,))[0]

    @classmethod
    def from_bits(cls, region: Region, bits, provenance=None):
        """The coloring whose letters, in rank order, are bits: one 0 or 1
        per site, checked as Word.from_bits checks them."""
        word = Word.from_bits(bits)
        if word.length != region.volume:
            raise DomainError(f"{word.length} bits for a region of {region.volume} sites")
        return cls(region, word.bits, provenance)


def sample_block(region: Region, p: float, master_seed: int, t0: int, t1: int,
                 part: Region | None = None) -> np.ndarray:
    """Bernoulli(p) colours of trials t0..t1-1 at the sites of part, a box
    inside region (region itself when None), as a (t1 - t0, part.volume)
    bool array in part's rank order: trial t uses stream (master_seed, t),
    and a site its draw in region, draw i for the point of rank i there.
    A row is thus the full row at ranks_within(part, region), drawn
    without the sites off part; region is checked against MAX_SITES
    whatever part is drawn."""
    check_sites(region.volume)
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    part = region if part is None else part
    if not part.issubset(region):
        raise DomainError("the sampled part must be a box inside the region")
    # the ranks are nonnegative, so their uint64 view is the same numbers
    return below(raw_at(master_seed, t0, t1, ranks_within(part, region).view(np.uint64)), p)


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
    """All 2^|region| configurations, in the order of their bits."""
    if region.volume > MAX_ENUM_SITES:
        raise CapacityError(f"enumerate_configs capped at {MAX_ENUM_SITES} sites")
    for code in range(1 << region.volume):
        yield Configuration(region, code)


def flip_colors(cfg: Configuration) -> Configuration:
    """Complement every site; derived configs carry no provenance."""
    return Configuration(cfg.region, cfg.bits ^ (1 << cfg.region.volume) - 1, None)


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
    data.append(cfg.bits.to_bytes((cfg.region.volume + 63) // 64 * 8, "little"))
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
        check_dim(dim)
        intervals = tuple(take("<qq") for _ in range(dim))
        region = Region(intervals)
        p, seed, stream = take("<dQQ")
        n_bytes = (region.volume + 63) // 64 * 8
        if size != f.tell() + n_bytes:
            raise DomainError(
                f"{path}: header volume {region.volume} needs {n_bytes} bytes "
                f"of bits, file holds {size - f.tell()}"
            )
        bits = int.from_bytes(f.read(n_bytes), "little") & (1 << region.volume) - 1
        return Configuration(region, bits, None if math.isnan(p) else Provenance(p, seed, stream))
