import itertools
import random

import pytest

from necklaces.elements import Necklace
from necklaces.words import (
    EMPTY_WORD,
    Letter,
    Word,
    canonical_rotation,
    format_word,
    letters,
    parse_word,
    word,
)


def brute_minimal_rotation(w: Word) -> Word:
    # independent oracle: enumerate all rotations, take the minimum
    if len(w) == 0:
        return w
    return min(w.rotations(), key=lambda r: tuple(a.code for a in r))


def test_letter_order():
    x1, x1s, x2, x2s = Letter(1), Letter(1, True), Letter(2), Letter(2, True)
    assert x1 < x1s < x2 < x2s
    assert x1 is Letter(1)
    assert x1.name == "x1" and x1s.name == "x1*"


def test_letter_codes_roundtrip():
    for code in range(10):
        a = Letter.from_code(code)
        assert a.code == code
        assert Letter(a.index, a.starred) is a


def test_letters_are_read_only():
    # a letter is one shared object, so no caller may rename or renumber it
    a = Letter(1)
    for attr, value in [("name", "y"), ("index", 7), ("starred", True), ("code", 5)]:
        with pytest.raises(AttributeError):
            setattr(a, attr, value)
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert (a.name, a.index, a.starred, a.code) == ("x1", 1, False, 0)
    assert format_word(word("x1x1*")) == "x1x1*" and word("x1").max_index() == 1


def test_word_basics():
    w = word("x1x1*")
    assert len(w) == 2
    assert w.deg_unstarred() == 1 and w.deg_starred() == 1
    assert w * word("x1") == word("x1x1*x1")
    assert EMPTY_WORD * w == w


def test_parse_word_aliases_and_separators():
    assert parse_word("xx*") == word("x1x1*")
    assert parse_word("x1·x1*") == word("x1x1*")
    assert parse_word("x2*x10") == Word([Letter(2, True), Letter(10)])
    assert parse_word("1") == EMPTY_WORD
    assert format_word(parse_word("xx*")) == "x1x1*"
    assert format_word(EMPTY_WORD) == "1"


def test_parse_word_custom_alphabet():
    alpha = {"e11": Letter(1), "e12": Letter(2), "e21": Letter(3), "e22": Letter(4)}
    assert parse_word("e12e21", alpha) == Word([Letter(2), Letter(3)])
    with pytest.raises(ValueError):
        parse_word("e13", alpha)


# e1 is a prefix of e11 and e12: the longest name wins
PREFIX_ALPHABET = {"e1": Letter(1), "e11": Letter(2), "e12": Letter(3), "e21": Letter(4)}
E1, E11, E12, E21 = (Letter(i) for i in range(1, 5))


@pytest.mark.parametrize(
    "text, alphabet, expected",
    [
        ("e1", PREFIX_ALPHABET, [E1]),
        ("e11", PREFIX_ALPHABET, [E11]),
        ("e12e1", PREFIX_ALPHABET, [E12, E1]),
        ("e1e11", PREFIX_ALPHABET, [E1, E11]),
        ("e111", PREFIX_ALPHABET, [E11]),
        ("e21e12", PREFIX_ALPHABET, [E21, E12]),
        ("e13", PREFIX_ALPHABET, ValueError),
        ("e2", PREFIX_ALPHABET, ValueError),
        ("x1", PREFIX_ALPHABET, ValueError),
        ("e12·e21", PREFIX_ALPHABET, [E12, E21]),
        ("e12 e21", PREFIX_ALPHABET, [E12, E21]),
        ("e12\te21", PREFIX_ALPHABET, [E12, E21]),
        ("1e121e21", PREFIX_ALPHABET, [E12, E21]),
        (" 1 ", PREFIX_ALPHABET, []),
        ("x1·x1*", None, [Letter(1), Letter(1, True)]),
        ("x1 x1*", None, [Letter(1), Letter(1, True)]),
        ("x1\tx1*", None, [Letter(1), Letter(1, True)]),
        ("1x1x1*", None, [Letter(1), Letter(1, True)]),
        ("x·1·x*", None, [Letter(1), Letter(1, True)]),
        ("x11", None, [Letter(11)]),
        ("1", None, []),
        ("", None, []),
        ("e12", None, ValueError),
        ("x0", None, ValueError),
        ("x**", None, ValueError),
    ],
)
def test_word_grammar_table(text, alphabet, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            parse_word(text, alphabet)
    else:
        assert parse_word(text, alphabet) == Word(expected)


def test_both_alphabets_name_where_parsing_stops():
    for text, alphabet in (("x1$x1", None), ("e12$e21", PREFIX_ALPHABET)):
        with pytest.raises(ValueError) as e:
            parse_word(text, alphabet)
        assert str(e.value) == f"cannot parse word at {text[text.index('$'):]!r}"


@pytest.mark.parametrize("alphabet", [{}, {"": Letter(1)}, {"": Letter(1), "e1": Letter(2)}])
def test_parse_word_rejects_an_alphabet_without_usable_names(alphabet):
    # an empty name would match everywhere and never advance
    with pytest.raises(ValueError):
        parse_word("x", alphabet)


def test_canonical_rotation_examples():
    # x*x -> xx* under x < x*
    assert canonical_rotation(word("x*x")) == word("xx*")
    assert canonical_rotation(EMPTY_WORD) == EMPTY_WORD
    # all 4 rotations of x*xx*x, minimum is xx*xx*
    assert canonical_rotation(word("x*xx*x")) == word("xx*xx*")


def test_canonical_rotation_idempotent_and_invariant():
    rng = random.Random(0)
    alphabet = letters(2)
    for _ in range(300):
        n = rng.randrange(0, 9)
        w = Word(rng.choice(alphabet) for _ in range(n))
        c = canonical_rotation(w)
        assert c == brute_minimal_rotation(w)
        assert canonical_rotation(c) == c
        for r in w.rotations():
            assert canonical_rotation(r) == c


def test_rotation_is_a_rotation_of_input():
    rng = random.Random(1)
    alphabet = letters(1)
    for _ in range(100):
        w = Word(rng.choice(alphabet) for _ in range(rng.randrange(1, 10)))
        assert canonical_rotation(w) in w.rotations()


def test_canonical_rotation_exhaustive_short_words():
    # every word over x1, x1*, x2, x2* of length <= 7; a Word comes back
    alphabet = letters(2)
    count = 0
    for n in range(8):
        for t in itertools.product(alphabet, repeat=n):
            w = Word(t)
            c = canonical_rotation(w)
            assert type(c) is Word and c == brute_minimal_rotation(w)
            count += 1
    assert count == 21845


def long_periodic_words():
    # many occurrences of the least letter, the routine's worst case
    x, xs = Letter(1), Letter(1, True)
    for k in range(1, 61):
        yield Word([x] * k + [xs])
        yield Word([x] * k)
        yield Word([x, xs] * k)
        yield Word([x, x, xs] * k + [xs])


def test_canonical_rotation_long_periodic_words():
    for w in long_periodic_words():
        assert canonical_rotation(w) == brute_minimal_rotation(w)


def code(w) -> str:
    return "".join(chr(a.code) for a in w)


def test_canonical_rotation_of_a_code_string_is_the_code_of_the_word_rotation():
    # the necklace bracket canonicalizes words as strings, one chr(code) per
    # letter; a str comes back, and it must code the Word's rotation
    short = (Word(t) for n in range(8) for t in itertools.product(letters(2), repeat=n))
    for w in itertools.chain(short, long_periodic_words()):
        c = canonical_rotation(code(w))
        assert type(c) is str and c == code(canonical_rotation(w))


def test_necklace_of_a_plain_tuple_matches_the_word():
    for n in range(6):
        for t in itertools.product(letters(2), repeat=n):
            neck = Necklace.of(t)
            assert type(neck) is Necklace
            assert neck == Necklace.of(Word(t))
