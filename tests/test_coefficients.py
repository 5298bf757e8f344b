"""Stored coefficients are ints, or Fractions that are not integral, and only
numbers are scalars: a Letter is an int underneath and a bool is one too,
but neither may scale an element."""

from fractions import Fraction

import pytest

from necklaces.brackets import BracketRule, center_element, necklace_bracket
from necklaces.elements import FreeElement, NecklaceElement, TensorElement, parse_element
from necklaces.multipoly import Polynomial
from necklaces.words import Letter, word

W = word("x1x1*")


def stored_form(e) -> bool:
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in e.terms.values()
    )


def test_integral_fractions_are_stored_as_ints():
    got = FreeElement({W: Fraction(4, 2)}).terms[W]
    assert got == 2 and type(got) is int
    assert type(FreeElement({W: "6/3"}).terms[W]) is int
    assert type(FreeElement({W: "1/3"}).terms[W]) is Fraction
    assert type(Polynomial.constant(Fraction(-8, 4)).constant_term()) is int


def test_division_gives_fractions_and_scaling_back_gives_ints():
    e = FreeElement({W: 1, word("x1"): 3, word("x1*"): -4})
    half = e / 2
    assert half.terms == {W: Fraction(1, 2), word("x1"): Fraction(3, 2), word("x1*"): -2}
    assert all(type(c) is Fraction for w, c in half.terms.items() if w != word("x1*"))
    back = half.scaled(2)
    assert back == e and all(type(c) is int for c in back.terms.values())
    assert stored_form(half) and stored_form(half * half) and stored_form(half + half)


def test_bracket_and_parse_results_keep_the_stored_form():
    rule = BracketRule.canonical(2)
    c3 = center_element(2, 3)
    assert all(type(c) is int for c in c3.terms.values())
    e = NecklaceElement.of(word("x1x1*x2"), Fraction(1, 3)) + NecklaceElement.of(word("x2*x1x2"), 3)
    assert stored_form(necklace_bracket(rule, e, c3 + NecklaceElement.of(word("x2x2*x1"))))
    assert stored_form(parse_element("2/4*x1x1* - 3/3*x1 + 1/2"))


def test_scalar_equal_values_keep_equal_hashes():
    assert Polynomial.constant(Fraction(6, 3)) == 2 == Polynomial.constant(2)
    assert hash(Polynomial.constant(Fraction(6, 3))) == hash(2) == hash(Fraction(2))
    assert hash(Polynomial.constant(Fraction(1, 2)) * 2) == hash(1)
    a = FreeElement({W: Fraction(4, 2)})
    b = FreeElement({W: 2})
    c = FreeElement({W: Fraction(1, 2)}).scaled(4)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert {a: "a"}[c] == "a"


def test_the_zero_combination_equals_int_and_fraction_zero():
    for zero in (FreeElement(), NecklaceElement(), TensorElement(), Polynomial()):
        assert zero == 0 and zero == Fraction(0)
        assert {zero: 1}[Fraction(0)] == 1
    assert FreeElement.of(W) != 0 and FreeElement.of(W) != Fraction(0)


def test_missing_coefficient_is_zero():
    e = FreeElement({W: Fraction(1, 2)})
    assert e.coefficient(word("x1")) == 0 and type(e.coefficient(word("x1"))) is int
    assert e.coefficient(W) == Fraction(1, 2)
    p = Polynomial.variable("x")
    assert p.coefficient((("y", 1),)) == 0 and p.constant_term() == 0


@pytest.mark.parametrize("letter", [Letter(1), Letter(2), Letter(2, True)])
def test_a_letter_is_not_a_scalar(letter):
    e = FreeElement.of(W)
    with pytest.raises(TypeError):
        letter * e
    with pytest.raises(TypeError):
        e * letter
    with pytest.raises(TypeError):
        e.scaled(letter)
    with pytest.raises(TypeError):
        e / letter
    with pytest.raises(TypeError):
        FreeElement({W: letter})
    with pytest.raises(TypeError):
        letter * TensorElement.unit()
    with pytest.raises(TypeError):
        letter * NecklaceElement.of(W)


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_not_a_scalar(flag):
    with pytest.raises(TypeError):
        FreeElement({W: flag})
    with pytest.raises(TypeError):
        FreeElement.of(W) * flag
    with pytest.raises(TypeError):
        flag * FreeElement.of(W)
    with pytest.raises(TypeError):
        Polynomial.constant(flag)


def test_a_letter_or_a_bool_compares_unequal_without_raising():
    x1 = Letter(1)  # the int 0
    assert x1 == 0 and FreeElement() == 0 and Polynomial() == 0
    assert FreeElement() != x1 and NecklaceElement() != False
    assert Polynomial() != x1 and Polynomial() != False
    assert Polynomial.constant(1) != True and Polynomial.constant(1) == 1
