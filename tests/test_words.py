import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordperc.errors import CapacityError, DomainError
from wordperc.words import (
    AlternatingWord,
    ConstantWord,
    ExplicitWord,
    MinRunWord,
    PeriodicWord,
    ProductWord,
    Word,
    enumerate_words,
    generator_from_spec,
    parse_word_argument,
    subword,
)


def test_word_roundtrip():
    w = Word.from_string("01101110")
    assert str(w) == "01101110"
    assert w.letters().tolist() == [0, 1, 1, 0, 1, 1, 1, 0]
    assert w[0] == 0 and w[1] == 1
    assert len(w) == 8


def test_subword_figure_word():
    # the embedding example word 0110 1110 ...
    xi = Word.from_string("01101110")
    assert subword(xi, 0, 7) == xi
    assert subword(xi, 1, 3).letters().tolist() == [1, 1, 0]
    assert subword(xi, 0, 0).letters().tolist() == [0]


def test_subword_errors():
    xi = Word.from_string("0110")
    with pytest.raises(DomainError):
        subword(xi, 2, 1)
    with pytest.raises(DomainError):
        subword(xi, 0, 4)


def test_subword_on_generator():
    gen = AlternatingWord()
    assert subword(gen, 2, 5).letters().tolist() == [1, 0, 1, 0]


def test_enumerate_words_small():
    assert [w.letters().tolist() for w in enumerate_words(0)] == [[]]
    assert [w.letters().tolist() for w in enumerate_words(2)] == [
        [0, 0],
        [0, 1],
        [1, 0],
        [1, 1],
    ]


def test_enumerate_words_count_unique():
    words = list(enumerate_words(10))
    assert len(words) == 1024
    assert len({w.bits for w in words}) == 1024


def test_enumerate_words_cap():
    with pytest.raises(CapacityError):
        list(enumerate_words(25))


def test_constant_and_product_degenerate():
    assert ConstantWord(1).prefix(5).letters().tolist() == [1, 1, 1, 1, 1]
    assert ProductWord(1.0, seed=3).prefix(4).letters().tolist() == [1, 1, 1, 1]
    assert ProductWord(0.0, seed=3).prefix(4).letters().tolist() == [0, 0, 0, 0]


def test_min_run_run_lengths():
    w = MinRunWord(3, seed=9).prefix(9)
    runs = []
    current = 1
    letters = w.letters().tolist()
    for a, b in zip(letters, letters[1:]):
        if a == b:
            current += 1
        else:
            runs.append(current)
            current = 1
    # all interior maximal runs have length >= 3
    assert all(r >= 3 for r in runs)


@pytest.mark.parametrize(
    "gen",
    [
        ConstantWord(0),
        AlternatingWord(),
        PeriodicWord("0110"),
        MinRunWord(2, seed=5),
        ProductWord(0.3, seed=11),
        ExplicitWord("101", ConstantWord(0)),
    ],
)
def test_prefix_consistency(gen):
    for n in range(0, 40):
        a, b = gen.prefix(n), gen.prefix(n + 1)
        assert a.bits == b.bits & ((1 << n) - 1)


PREFIX_GENERATORS = [
    ConstantWord(0),
    ConstantWord(1),
    AlternatingWord(),
    PeriodicWord("0"),
    PeriodicWord("10"),
    PeriodicWord("0110"),
    PeriodicWord("1101001"),
    MinRunWord(1, seed=2),
    MinRunWord(3, seed=9),
    ExplicitWord("", AlternatingWord()),
    ExplicitWord("101", ConstantWord(0)),
    ExplicitWord("0" * 70, ProductWord(0.3, seed=1)),
    ExplicitWord("1", ExplicitWord("00", PeriodicWord("011"))),
] + [ProductWord(q, seed) for q in (0.0, 0.3, 0.5, 1.0) for seed in (0, 1, 2)]


@pytest.mark.parametrize("gen", PREFIX_GENERATORS, ids=lambda g: str(g.spec()))
def test_prefix_matches_letters(gen):
    # block prefixes equal the letter-by-letter definition at every length
    letters = [gen.bit(i) for i in range(200)]
    for n in range(0, 201):
        word = gen.prefix(n)
        assert word.length == n
        assert word.bits == sum(b << i for i, b in enumerate(letters[:n]))


def test_product_moments():
    gen = ProductWord(0.35, seed=4)
    n = 100_000
    w = gen.prefix(n)
    mean = sum(w) / n
    sigma = (0.35 * 0.65 / n) ** 0.5
    assert abs(mean - 0.35) < 4 * sigma


def test_spec_roundtrip():
    for gen in [
        ConstantWord(1),
        AlternatingWord(),
        PeriodicWord("01"),
        MinRunWord(4, seed=2),
        ProductWord(0.5, seed=7),
        ExplicitWord("11", AlternatingWord()),
    ]:
        clone = generator_from_spec(gen.spec())
        assert clone.prefix(25).bits == gen.prefix(25).bits


def test_parse_word_argument():
    assert isinstance(parse_word_argument("10110"), Word)
    assert isinstance(parse_word_argument("alt"), AlternatingWord)
    gen = parse_word_argument("minrun:M=3,seed=5")
    assert isinstance(gen, MinRunWord) and gen.M == 3 and gen.seed == 5
    gen = parse_word_argument("product:q=0.25,seed=1")
    assert isinstance(gen, ProductWord) and gen.q == 0.25
    with pytest.raises(DomainError):
        parse_word_argument("01a1")


def test_invalid_generator_params():
    with pytest.raises(DomainError):
        ProductWord(1.5)
    with pytest.raises(DomainError):
        MinRunWord(0)


@given(st.integers(0, 200), st.integers(0, 200))
@settings(max_examples=50, deadline=None)
def test_alternating_subword_values(i, extra):
    j = i + extra
    w = subword(AlternatingWord(), i, j)
    assert all(b == 1 - ((i + pos) % 2) for pos, b in enumerate(w))
