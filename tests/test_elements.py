import random
from fractions import Fraction

import pytest

from necklaces.elements import (
    FreeElement,
    Necklace,
    NecklaceElement,
    TensorElement,
    TripleTensor,
    format_element,
    parse_element,
    project_to_necklace,
)
from necklaces.words import Word, letters, word


def random_word(rng, d=1, max_len=6):
    alpha = letters(d)
    return Word(rng.choice(alpha) for _ in range(rng.randrange(0, max_len + 1)))


def test_free_element_algebra():
    x = FreeElement.of(word("x"))
    xs = FreeElement.of(word("x*"))
    assert x + x == 2 * x
    assert x - x == FreeElement()
    assert (x * xs).terms == {word("xx*"): Fraction(1)}
    assert (x + xs) * (x + xs) == FreeElement(
        {word("xx"): 1, word("xx*"): 1, word("x*x"): 1, word("x*x*"): 1}
    )
    assert x / 2 == FreeElement.of(word("x"), Fraction(1, 2))
    assert (x**3).terms == {word("xxx"): Fraction(1)}
    assert x**0 == FreeElement.unit()


def test_free_element_powers_match_repeated_products():
    e = FreeElement.of(word("x")) + 2 * FreeElement.of(word("xx*")) - FreeElement.unit()
    want = FreeElement.unit()
    for n in range(7):
        assert e**n == want
        want = want * e
    with pytest.raises(ValueError):
        e ** -1


def test_zero_combination_hashes_like_zero():
    assert {NecklaceElement(): 1}[0] == 1


def test_zero_pruning_and_canonical_zero():
    e = FreeElement({word("x"): 0, word("x*"): Fraction(0)})
    assert e.is_zero and e == FreeElement()
    assert not e


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        FreeElement({word("x"): 0.5})


def test_commutator_projects_to_zero():
    # sampled word pairs with product degree up to 10
    rng = random.Random(2)
    for _ in range(60):
        a = FreeElement.of(random_word(rng, d=2, max_len=5))
        b = FreeElement.of(random_word(rng, d=2, max_len=5))
        assert project_to_necklace(a.commutator(b)).is_zero


def test_project_examples():
    # xx* - x*x -> 0
    e = FreeElement({word("xx*"): 1, word("x*x"): -1})
    assert project_to_necklace(e).is_zero
    # 3x -> 3x
    assert project_to_necklace(FreeElement.of(word("x"), 3)) == NecklaceElement.of("x", 3)
    # [x,x*]^2 -> 2(xx*xx*) - 2(xxx*x*), expanded and canonicalized
    x = FreeElement.of(word("x"))
    xs = FreeElement.of(word("x*"))
    c2 = project_to_necklace(x.commutator(xs) ** 2)
    assert c2 == NecklaceElement({Necklace.of("xx*xx*"): 2, Necklace.of("xxx*x*"): -2})


def test_necklace_canonical_constructor():
    with pytest.raises(ValueError):
        Necklace(word("x*x"))
    assert Necklace.of("x*x") == word("xx*")


def test_tensor_flip_involution():
    rng = random.Random(3)
    for _ in range(40):
        t = TensorElement(
            {
                (random_word(rng), random_word(rng)): rng.randrange(-3, 4)
                for _ in range(4)
            }
        )
        assert t.flip().flip() == t


def test_tensor_actions_and_collapse():
    t = TensorElement.of(word("x"), word("x*"), 2)
    assert t.outer(word("x*"), word("x")) == TensorElement.of(word("x*x"), word("x*x"), 2)
    assert t.collapse() == FreeElement.of(word("xx*"), 2)


def test_triple_tensor_cycles():
    rng = random.Random(4)
    for _ in range(30):
        t = TripleTensor(
            {
                (random_word(rng, max_len=3), random_word(rng, max_len=3), random_word(rng, max_len=3)): 1
                for _ in range(3)
            }
        )
        assert t.shift().shift().shift() == t
        assert t.shift().shift_inv() == t
        assert t.shift_inv().shift() == t


def test_parse_and_format_roundtrip():
    e = parse_element("2*xx*xx* - 2*xxx*x*")
    assert e == FreeElement({word("xx*xx*"): 2, word("xxx*x*"): -2})
    assert parse_element("1/2*x*x*") == FreeElement.of(word("x*x*"), Fraction(1, 2))
    assert parse_element("3") == FreeElement.unit(3)
    assert parse_element("1") == FreeElement.unit(1) and parse_element("-3") == FreeElement.unit(-3)
    assert parse_element("3*1") == FreeElement.unit(3)
    assert parse_element("-x1*") == FreeElement.of(word("x1*"), -1)
    assert parse_element("0") == FreeElement()
    rng = random.Random(5)
    for _ in range(40):
        e = FreeElement(
            {random_word(rng, d=2): Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(4)}
        )
        assert parse_element(format_element(e)) == e


@pytest.mark.parametrize("text", ["x +", "-", "2*", "x - 3*", "x + -"])
def test_empty_term_is_an_error(text):
    # an empty term is not the unit, which is "1" or a lone coefficient
    with pytest.raises(ValueError) as e:
        parse_element(text)
    assert str(e.value) == f"empty term in {text!r}"


def test_format_examples():
    e = FreeElement({word("x"): 1, word("x*"): Fraction(-1, 2)})
    assert format_element(e) == "x1 - 1/2*x1*"
    assert format_element(FreeElement()) == "0"
