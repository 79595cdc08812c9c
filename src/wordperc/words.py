"""Finite binary words and infinite-word generators.

Words are bit-packed value types: index 0 is the least significant bit.
Generators are pure functions of (parameters, seed) and satisfy prefix
consistency: prefix(n) is always a prefix of prefix(n+1), so a generator
keeps the longest prefix read so far and serves shorter ones from it.
letters() gives a word's letters, and a generator's first n, as a
read-only bool array for vectorized reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError
from .rng import RngStream, below

MAX_ENUM_LENGTH = 24


@dataclass(frozen=True)
class Word:
    """Finite word over {0,1}; bits packed LSB-first by index."""

    bits: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise DomainError("negative word length")
        if self.bits < 0 or self.bits >> self.length:
            raise DomainError("bits outside declared length")

    @classmethod
    def from_bits(cls, seq) -> "Word":
        bits = 0
        n = 0
        for b in seq:
            if b not in (0, 1):
                raise DomainError("word letters must be 0 or 1")
            bits |= int(b) << n
            n += 1
        return cls(bits, n)

    @classmethod
    def from_string(cls, s: str) -> "Word":
        if s and set(s) - {"0", "1"}:
            raise DomainError(f"invalid word literal {s!r}")
        return cls.from_bits(int(c) for c in s)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise DomainError(f"index {i} out of word range")
        return (self.bits >> i) & 1

    def __iter__(self):
        return (self[i] for i in range(self.length))

    def __str__(self) -> str:
        return "".join(str(b) for b in self)

    def letters(self) -> np.ndarray:
        """The letters as a read-only bool array, letter i at index i
        (cached)."""
        cached = self.__dict__.get("_letters")
        if cached is None:
            cached = _unpack(self.bits, self.length)
            cached.setflags(write=False)
            object.__setattr__(self, "_letters", cached)
        return cached

    def complement(self) -> "Word":
        mask = (1 << self.length) - 1
        return Word(self.bits ^ mask, self.length)


def subword(xi, i: int, j: int) -> Word:
    """The subword (xi_i, ..., xi_j), inclusive on both ends."""
    if i < 0 or i > j:
        raise DomainError(f"bad subword range [{i}, {j}]")
    if isinstance(xi, Word):
        if j >= xi.length:
            raise DomainError("subword range beyond word length")
        w = xi
    else:
        w = xi.prefix(j + 1)
    return Word((w.bits >> i) & ((1 << (j - i + 1)) - 1), j - i + 1)


def enumerate_words(length: int):
    """All 2^L words of a given length, lexicographically (xi_0 major)."""
    if length < 0:
        raise DomainError("negative length")
    if length > MAX_ENUM_LENGTH:
        raise CapacityError(f"enumerate_words capped at L <= {MAX_ENUM_LENGTH}")
    for code in range(1 << length):
        bits = 0
        for pos in range(length):
            bits |= ((code >> (length - 1 - pos)) & 1) << pos
        yield Word(bits, length)


class WordGenerator:
    """Deterministic infinite word; subclasses fill in _bit or _extend."""

    kind = "abstract"
    _known: Word | None = None  # the longest prefix read so far

    def prefix(self, n: int) -> Word:
        """Letters 0..n-1.  By prefix consistency a shorter prefix is a mask
        of a longer one, so the longest prefix read so far is kept and
        serves every shorter one."""
        if n < 0:
            raise DomainError("negative prefix length")
        known = self._known
        if known is None or known.length < n:
            known = self._known = Word(self._prefix_bits(n), n)
        if known.length == n:
            return known
        return Word(known.bits & ((1 << n) - 1), n)

    def letters(self, n: int) -> np.ndarray:
        """Letters 0..n-1 as a read-only bool array, a view of the longest
        prefix read so far."""
        known = self._known
        if n < 0 or known is None or known.length < n:
            known = self.prefix(n)
        return known.letters()[:n]

    def _prefix_bits(self, n: int) -> int:
        """Letters 0..n-1 packed LSB-first; kinds override it with block forms."""
        bits = 0
        for i in range(n):
            bits |= self.bit(i) << i
        return bits

    def bit(self, i: int) -> int:
        raise NotImplementedError

    def spec(self) -> dict:
        """JSON-able description {kind, params...}."""
        raise NotImplementedError


class ConstantWord(WordGenerator):
    kind = "constant"

    def __init__(self, value: int):
        if value not in (0, 1):
            raise DomainError("constant word value must be 0 or 1")
        self.value = value

    def bit(self, i: int) -> int:
        return self.value

    def _prefix_bits(self, n: int) -> int:
        return _tile(self.value, 1, n)

    def spec(self):
        return {"kind": "constant", "value": self.value}


class AlternatingWord(WordGenerator):
    """The AB-percolation word (1, 0, 1, 0, ...)."""

    kind = "alternating"

    def bit(self, i: int) -> int:
        return 1 - (i & 1)

    def _prefix_bits(self, n: int) -> int:
        return _tile(1, 2, n)

    def spec(self):
        return {"kind": "alternating"}


class PeriodicWord(WordGenerator):
    kind = "periodic"

    def __init__(self, pattern):
        self.pattern = pattern if isinstance(pattern, Word) else Word.from_string(pattern)
        if self.pattern.length == 0:
            raise DomainError("periodic pattern must be nonempty")

    def bit(self, i: int) -> int:
        return self.pattern[i % self.pattern.length]

    def _prefix_bits(self, n: int) -> int:
        return _tile(self.pattern.bits, self.pattern.length, n)

    def spec(self):
        return {"kind": "periodic", "pattern": str(self.pattern)}


class ProductWord(WordGenerator):
    """Product measure mu_q: letters i.i.d. Bernoulli(q)."""

    kind = "product"

    def __init__(self, q: float, seed: int = 0):
        if not 0.0 <= q <= 1.0:
            raise DomainError("q must lie in [0, 1]")
        self.q = q
        self.seed = seed
        self._stream = RngStream(seed, stream_id=0x77)

    def bit(self, i: int) -> int:
        return int(self._stream.bernoulli(self.q, i))

    def _prefix_bits(self, n: int) -> int:
        # below(raw_block(0, n), q)[i] is bit-identical to bernoulli(q, i),
        # with no float conversion
        return _pack(below(self._stream.raw_block(0, n), self.q))

    def spec(self):
        return {"kind": "product", "q": self.q, "seed": self.seed}


class MinRunWord(WordGenerator):
    """Random word whose maximal runs all have length >= M.

    Runs are i.i.d. with length M + Geometric(1/2); the starting color
    comes from the seed. Any law supported on such words would do.
    """

    kind = "min_run"

    def __init__(self, M: int, seed: int = 0):
        if M < 1:
            raise DomainError("min_run needs M >= 1")
        self.M = M
        self.seed = seed
        self._stream = RngStream(seed, stream_id=0x52)
        self._colors = [self._stream.raw(0) & 1]
        self._breaks = [0]  # cumulative run starts

    def _run_length(self, j: int) -> int:
        # geometric tail: count of leading ones in a raw word
        x = self._stream.raw(j + 1)
        g = 0
        while x & 1:
            g += 1
            x >>= 1
        return self.M + g

    def _extend_to(self, n: int):
        while self._breaks[-1] < n:
            j = len(self._breaks) - 1
            self._breaks.append(self._breaks[-1] + self._run_length(j))
            self._colors.append(self._colors[-1] ^ 1)

    def bit(self, i: int) -> int:
        self._extend_to(i + 1)
        import bisect

        j = bisect.bisect_right(self._breaks, i) - 1
        return self._colors[j]

    def spec(self):
        return {"kind": "min_run", "M": self.M, "seed": self.seed}


class ExplicitWord(WordGenerator):
    """A fixed prefix followed by another generator's letters."""

    kind = "explicit"

    def __init__(self, prefix, tail: WordGenerator):
        self.head = prefix if isinstance(prefix, Word) else Word.from_string(prefix)
        self.tail = tail

    def bit(self, i: int) -> int:
        if i < self.head.length:
            return self.head[i]
        return self.tail.bit(i - self.head.length)

    def _prefix_bits(self, n: int) -> int:
        m = min(n, self.head.length)
        head = self.head.bits & ((1 << m) - 1)
        return head | self.tail._prefix_bits(n - m) << m

    def spec(self):
        return {"kind": "explicit", "prefix": str(self.head), "tail": self.tail.spec()}


def _tile(pattern: int, period: int, n: int) -> int:
    """The first n letters of a period-letter pattern repeated: multiplying
    by the repunit 1 + 2^period + 2^(2 period) + ... lays the copies side
    by side."""
    copies = -(-n // period)
    repunit = ((1 << period * copies) - 1) // ((1 << period) - 1)
    return pattern * repunit & ((1 << n) - 1)


@lru_cache(maxsize=32)
def _alternate(volume: int, copies: int):
    """For copies of a region of this volume: the sites of the even copies,
    those of the odd copies, and the first sites after each even and after
    each odd copy."""
    even = _tile((1 << volume) - 1, 2 * volume, copies * volume)
    after = _tile(1, 2 * volume, copies * volume) << volume
    return even, (1 << copies * volume) - 1 ^ even, after, after << volume


def _occupied(front: int, copies: int, volume: int) -> int:
    """Bit k * volume is set iff copy k of a bitset of copies of volume
    bits side by side (a stacked search front) is nonempty.  Adding all
    ones to a copy carries out of it iff it is nonempty; the even and the
    odd copies are added apart, so that no carry runs on into the next
    copy's sum."""
    even, odd, after_even, after_odd = _alternate(volume, copies)
    return (((front & even) + even) & after_even | ((front & odd) + odd) & after_odd) >> volume


def _pack(flags: np.ndarray) -> int:
    """A bool array as an int bitset, element i (in C order) at bit i: the
    LSB-first rank order of configurations, words and search fronts."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _unpack(bits: int, n: int) -> np.ndarray:
    """Bits 0..n-1 of a nonnegative int as a new bool array (_pack's inverse)."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def has_period_two(word, upto: int) -> bool:
    """Whether indices 0..upto repeat with period <= 2 (constant or
    alternating on the window).  On a bipartite lattice, walks reading
    such a word loop-erase to self-avoiding paths reading it (revisit
    gaps are even), so walk-based and self-avoiding reachability agree
    on membership and minimal arrivals."""
    if isinstance(word, ConstantWord):
        return True
    if isinstance(word, AlternatingWord):
        return True
    if isinstance(word, PeriodicWord) and str(word.pattern) in ("0", "1", "00", "01", "10", "11"):
        return True
    if isinstance(word, Word):
        w = word
        if w.length <= upto:
            return False
    elif isinstance(word, WordGenerator):
        w = word.prefix(upto + 1)
    else:
        return False
    # bit i of bits ^ (bits >> 2) compares letters i and i + 2
    pairs = max(min(upto, w.length - 1) - 1, 0)
    return (w.bits ^ w.bits >> 2) & ((1 << pairs) - 1) == 0


def generator_from_spec(spec: dict) -> WordGenerator:
    """Inverse of WordGenerator.spec, used by the CLI and saved specs."""
    if not isinstance(spec, dict):
        raise DomainError(f"a word generator is an object with a kind, not {spec!r}")
    kind = spec.get("kind")
    if kind == "constant":
        return ConstantWord(int(spec["value"]))
    if kind == "alternating":
        return AlternatingWord()
    if kind == "periodic":
        return PeriodicWord(spec["pattern"])
    if kind == "product":
        return ProductWord(float(spec["q"]), int(spec.get("seed", 0)))
    if kind == "min_run":
        return MinRunWord(int(spec["M"]), int(spec.get("seed", 0)))
    if kind == "explicit":
        return ExplicitWord(spec["prefix"], generator_from_spec(spec["tail"]))
    raise DomainError(f"unknown word generator kind {kind!r}")


def parse_word_argument(text: str):
    """CLI word syntax: a 0/1 literal or a generator shorthand.

    Shorthands: ones, zeros, alt, periodic:PATTERN, minrun:M=3,seed=0,
    product:q=0.5,seed=0.
    """
    if set(text) <= {"0", "1"} and text:
        return Word.from_string(text)
    name, _, args = text.partition(":")
    kv = {}
    if args:
        for part in args.split(","):
            if "=" in part:
                key, val = part.split("=", 1)
                kv[key] = val
            else:
                kv[""] = part
    if name in ("ones", "one"):
        return ConstantWord(1)
    if name in ("zeros", "zero"):
        return ConstantWord(0)
    if name in ("alt", "alternating"):
        return AlternatingWord()
    if name == "periodic":
        return PeriodicWord(kv.get("pattern", kv.get("", "")))
    if name == "minrun":
        return MinRunWord(int(kv.get("M", kv.get("m", 1))), int(kv.get("seed", 0)))
    if name == "product":
        return ProductWord(float(kv.get("q", 0.5)), int(kv.get("seed", 0)))
    raise DomainError(f"cannot parse word argument {text!r}")
