import random
from fractions import Fraction

import pytest

from necklaces.brackets import BracketRule, loday_bracket, necklace_bracket
from necklaces.elements import (
    FreeElement,
    Necklace,
    NecklaceElement,
    TensorElement,
    format_element,
    parse_element,
    parse_rational,
    project_to_necklace,
)
from necklaces.traces import generic_matrices, trace_of
from necklaces.words import Letter, Word, letters, word


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
    # a free element and a necklace element do not combine
    n = NecklaceElement.of("x")
    for combine in (lambda: x + n, lambda: x - n, lambda: x * n):
        with pytest.raises(TypeError):
            combine()


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
    with pytest.raises(TypeError):
        1.5 * NecklaceElement.of("x")


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


CUSTOM = {"e1": Letter(1), "e11": Letter(2), "e12": Letter(3), "e21": Letter(4)}
X, XS, ONE = word("x"), word("x*"), Word()
E1, E11, E12, E21 = (Word([a]) for a in CUSTOM.values())


@pytest.mark.parametrize(
    "text, alphabet, expected",
    [
        ("x - -x*", None, {X: 1, XS: 1}),
        ("x - - -x*", None, {X: 1, XS: -1}),
        ("-x+-x", None, {X: -2}),
        ("2 * x", None, {X: 2}),
        ("2x", None, {X: 2}),
        ("1x", None, {X: 1}),
        ("3*1", None, {ONE: 3}),
        ("1/2 * 1", None, {ONE: Fraction(1, 2)}),
        ("x·x* - 1x·1·x*", None, {}),
        ("x\t+\tx*", None, {X: 1, XS: 1}),
        ("0", None, {}),
        ("", None, {}),
        ("   ", None, {}),
        ("0*x + 0", None, {}),
        ("e1 - -e11", CUSTOM, {E1: 1, E11: 1}),
        ("2 * e12", CUSTOM, {E12: 2}),
        ("1e11", CUSTOM, {E11: 1}),
        ("3*1", CUSTOM, {ONE: 3}),
        ("e12·e21 - e12 e21", CUSTOM, {}),
        ("e12\te21 + e121e21", CUSTOM, {E12 * E21: 2}),
        ("0", CUSTOM, {}),
        ("", CUSTOM, {}),
        ("x", CUSTOM, ValueError),
        ("y", None, ValueError),
        ("2**x", None, ValueError),
        ("1/x", None, ValueError),
    ],
)
def test_element_grammar_table(text, alphabet, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            parse_element(text, alphabet)
    else:
        assert parse_element(text, alphabet) == FreeElement(expected)


def test_string_arguments_read_the_element_grammar():
    rule = BracketRule.canonical(1)
    assert necklace_bracket(rule, "2*x + x*", "x") == project_to_necklace(
        loday_bracket(rule, "2*x + x*", "x")
    )
    assert necklace_bracket(rule, "2*x + x*", "x") == NecklaceElement.unit(-1)
    mats = generic_matrices(1, 2)
    assert trace_of("2*x - x*x", mats) == 2 * trace_of("x", mats) - trace_of("x*x", mats)


def test_tensor_reprs():
    x, xs = word("x"), word("x*")
    t = TensorElement({(x, xs): -1, (word("1"), x): Fraction(1, 2)})
    assert repr(t) == "1/2*1(x)x1 + -1*x1(x)x1*"
    assert repr(TensorElement()) == "0"
    tt = TensorElement({(x, word("1"), xs): -2, (word("1"), word("1"), word("1")): Fraction(3, 4)})
    assert repr(tt) == "3/4*1(x)1(x)1 + -2*x1(x)1(x)x1*"


def test_format_examples():
    e = FreeElement({word("x"): 1, word("x*"): Fraction(-1, 2)})
    assert format_element(e) == "x1 - 1/2*x1*"
    assert format_element(FreeElement()) == "0"


def test_rational_exponent_is_bounded_before_the_number_is_built():
    assert parse_rational("1e1000") == 10**1000
    assert parse_rational("-2.5E-0_1") == Fraction(-1, 4)
    assert parse_rational("3e0000000000002") == 300
    # 1e999999999 would build a billion-digit integer; the check reads only
    # the exponent's digits
    for text in ("1e1001", "1e5000", "1E-5000", "2.5e+9_999", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent of .* is above 1000"):
            parse_rational(text)
