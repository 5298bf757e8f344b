"""Letters are ints, words are tuples and a necklace is the word of its
least rotation: the behaviour the package keeps on top of them, and the int
and tuple behaviour it must not leak."""

import operator

from fractions import Fraction

import pytest

from necklaces.brackets import TraceElement
from necklaces.counting import enumerate_necklaces
from necklaces.elements import (
    FreeElement,
    Necklace,
    NecklaceElement,
    TensorElement,
    format_element,
    parse_element,
)
from necklaces.linear_rules import matrix_unit_names
from necklaces.sampling import random_word, rng
from necklaces.words import Letter, Word, canonical_rotation, letters, word


def word_key(w):
    # the (length, codes) order the package prints in, spelled out
    return (len(w), tuple(a.code for a in w))


def random_element(r, alphabet, terms=5, max_len=5) -> FreeElement:
    out = {}
    for _ in range(r.randrange(0, terms + 1)):
        w = random_word(r, alphabet, 0, max_len)
        out[w] = out.get(w, 0) + Fraction(r.choice((-1, 1)) * r.randint(1, 9), r.randint(1, 9))
    return FreeElement(out)


def test_letters_are_ints_and_words_are_tuples():
    x1, x1s = Letter(1), Letter(1, True)
    assert isinstance(x1, int) and x1 == 0 and x1s == 1
    w = word("x1*x1")
    assert isinstance(w, tuple) and w == (1, 0)
    assert hash(w) == hash((1, 0))


def test_letter_prints_its_name():
    a = Letter(1, True)
    assert str(a) == repr(a) == f"{a}" == "x1*"
    assert f"{Letter(12)}" == "x12"


@pytest.mark.parametrize("left, right", [(2, word("xx*")), (word("xx*"), 2)])
def test_word_times_int_is_not_repetition(left, right):
    with pytest.raises(TypeError):
        left * right


def test_word_times_letter_is_an_error():
    with pytest.raises(TypeError):
        word("x") * Letter(1)
    with pytest.raises(TypeError):
        Letter(1, True) * word("x")


def test_word_order_is_length_then_codes():
    r = rng(7)
    words = [random_word(r, letters(2), 0, 4) for _ in range(200)]
    assert sorted(words) == sorted(words, key=word_key)
    # a shorter word comes first even when it is lexicographically larger
    short, long = word("x2*"), word("x1x1")
    assert short < long and short <= long and long > short and long >= short
    assert not (short > long or short >= long or long < short or long <= short)
    assert max(words) == sorted(words)[-1] and min(words) == sorted(words)[0]


def test_necklace_is_the_word_of_its_least_rotation():
    r = rng(13)
    for _ in range(200):
        w = random_word(r, letters(2), 0, 6)
        n = Necklace.of(w)
        least = canonical_rotation(w)
        assert isinstance(n, Word) and isinstance(n, tuple)
        assert n == least and hash(n) == hash(least) and tuple(n) == tuple(least)
        for k in range(1, len(w)):
            rotation = w.rotated(k)
            if rotation != least:
                assert n != rotation
                with pytest.raises(ValueError):
                    Necklace(rotation)
        assert Necklace.of(n) is n and n.representative is n
        assert Necklace(least) == n and n.degree == len(w)


def test_necklace_prints_in_parentheses():
    n = Necklace.of("x1*x1")
    assert repr(n) == str(n) == f"{n}" == "(x1x1*)"
    assert repr(Necklace()) == "(1)"


@pytest.mark.parametrize(
    "op", [operator.lt, operator.le, operator.gt, operator.ge], ids=["lt", "le", "gt", "ge"]
)
def test_necklace_order_is_length_then_codes(op):
    necks = [n for k in range(5) for n in enumerate_necklaces(2, k)]
    for a in necks:
        for b in necks:
            assert op(a, b) == op(word_key(a), word_key(b))


@pytest.mark.parametrize(
    "alphabet, names",
    [
        (letters(1), None),
        (letters(2), None),
        (tuple(matrix_unit_names(2)), matrix_unit_names(2)),
        (tuple(matrix_unit_names(3)), matrix_unit_names(3)),
    ],
    ids=["d1", "d2", "ngl2", "ngl3"],
)
def test_parse_inverts_format(alphabet, names):
    parse_names = {v: k for k, v in names.items()} if names else None
    r = rng(11)
    for _ in range(300):
        e = random_element(r, alphabet)
        assert parse_element(format_element(e, names), parse_names) == e


def test_free_and_necklace_elements_iterate_in_word_order():
    r = rng(3)
    for _ in range(50):
        e = random_element(r, letters(2), terms=8)
        assert [w for w, _ in e] == sorted(e.terms, key=word_key)
        n = NecklaceElement({Necklace.of(w): c for w, c in e.terms.items()})
        got = [k for k, _ in n]
        assert got == sorted(n.terms, key=lambda k: word_key(k.representative))


def test_tensor_and_trace_elements_iterate_in_word_order():
    r = rng(5)
    alphabet = letters(2)
    for _ in range(50):
        pairs = {
            (random_word(r, alphabet, 0, 3), random_word(r, alphabet, 0, 3)): 1
            for _ in range(8)
        }
        t = TensorElement(pairs)
        got = [k for k, _ in t]
        assert got == sorted(t.terms, key=lambda k: (word_key(k[0]), word_key(k[1])))

        trace = TraceElement({})
        for _ in range(8):
            necks = [Necklace.of(random_word(r, alphabet, 0, 3)) for _ in range(r.randrange(0, 3))]
            trace = trace + TraceElement.of(necks, random_word(r, alphabet, 0, 3))
        got = [k for k, _ in trace]
        want = sorted(
            trace.terms,
            key=lambda k: (tuple(word_key(n.representative) for n in k[0]), word_key(k[1])),
        )
        assert got == want
