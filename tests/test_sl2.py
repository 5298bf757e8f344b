from fractions import Fraction

import pytest

from necklaces import sl2
from necklaces.brackets import BracketRule, necklace_bracket
from necklaces.counting import necklace_dimension
from necklaces.elements import NecklaceElement
from necklaces.multipoly import Polynomial
from necklaces.sl2 import (
    Sl2Generators,
    WeightDecomposition,
    check_low_degree_structure,
    cn_multiplicity,
    decompose_bruteforce,
    decompose_by_formula,
    multiplicity_formula,
    sl2_generators,
    table1,
    tensor_multiplicity,
    weight_basis,
    word_weight,
)
from necklaces.words import word

# expected multiplicity table, rows 1..8, keyed degree -> {weight: mult}
EXPECTED_TABLE = {
    1: {1: 1},
    2: {2: 1},
    3: {3: 1},
    4: {4: 1, 0: 1},
    5: {5: 1, 1: 1},
    6: {6: 1, 2: 2, 0: 1},
    7: {7: 1, 3: 2, 1: 2},
    8: {8: 1, 4: 3, 2: 3, 0: 3},
}


def test_word_weight():
    assert word_weight(word("xxx*")) == -1
    assert word_weight(word("x*x*")) == 2
    assert word_weight(word("xx*xx*")) == 0
    assert word_weight(word("1")) == 0


def test_h_diagonal_on_basis():
    from necklaces.counting import enumerate_necklaces

    rule = BracketRule.canonical(1)
    H = sl2_generators().H
    for n in range(0, 11):
        for neck in enumerate_necklaces(1, n):
            got = necklace_bracket(rule, H, NecklaceElement.of(neck))
            assert got == word_weight(neck) * NecklaceElement.of(neck)


def test_tensor_multiplicity():
    assert tensor_multiplicity(2, 1) == 1
    assert tensor_multiplicity(4, 0) == 1
    assert tensor_multiplicity(4, 2) == 2
    # dimensions add up to 2^n
    for n in range(1, 11):
        total = sum(
            tensor_multiplicity(n, m) * (n - 2 * m + 1) for m in range(0, n // 2 + 1)
        )
        assert total == 2**n


def test_cn_multiplicity():
    assert cn_multiplicity(4, 2) == 1
    assert cn_multiplicity(2, 0) == 0
    assert cn_multiplicity(0, 0) == 0  # one word, one necklace in degree 0
    for n in range(1, 9):
        assert cn_multiplicity(n, 0) == 0


def test_cn_dimension_consistency():
    # commutator subspace has dimension 2^n - (number of necklaces)
    for n in range(1, 12):
        total = sum(
            cn_multiplicity(n, m) * (n - 2 * m + 1) for m in range(0, n // 2 + 1)
        )
        assert total == 2**n - necklace_dimension(1, n)


def test_multiplicity_formula_expected_cells():
    assert multiplicity_formula(6, 2) == 2
    assert multiplicity_formula(8, 2) == 3
    assert multiplicity_formula(5, 2) == 1


def test_formula_matches_table():
    for n, row in EXPECTED_TABLE.items():
        assert decompose_by_formula(n) == WeightDecomposition(n, row)


def test_bruteforce_matches_table_and_formula():
    for n in range(1, 11):
        brute = decompose_bruteforce(n)
        assert brute == decompose_by_formula(n)
        if n in EXPECTED_TABLE:
            assert brute == WeightDecomposition(n, EXPECTED_TABLE[n])


def test_dimension_consistency():
    for n in range(1, 13):
        assert decompose_by_formula(n).dimension() == necklace_dimension(1, n)


def test_not_simple_beyond_degree_three():
    for n in range(4, 11):
        assert decompose_bruteforce(n).summand_count() > 1


def test_abelianization_kernel_grows():
    # degree-n polynomial slice has dimension n+1; the necklace component
    # is strictly bigger from degree 4 on
    for n in range(4, 11):
        assert necklace_dimension(1, n) > n + 1


def test_weight_basis_covers_component():
    for n in range(1, 9):
        spaces = weight_basis(n)
        assert sum(len(v) for v in spaces.values()) == necklace_dimension(1, n)
        for w, necks in spaces.items():
            assert all(word_weight(neck) == w for neck in necks)


def test_table1_rows():
    rows = table1(8)
    assert len(rows) == 8
    for row in rows:
        assert row == WeightDecomposition(row.degree, EXPECTED_TABLE[row.degree])
        assert row == decompose_bruteforce(row.degree)


def test_decompose_bounds():
    with pytest.raises(ValueError):
        decompose_bruteforce(0)
    for n in (0, -1, -3):
        with pytest.raises(ValueError, match="n must be >= 1"):
            decompose_by_formula(n)
    with pytest.raises(ValueError):
        decompose_bruteforce(15)


def test_low_degree_structure_d1():
    report = check_low_degree_structure(1)
    assert report.ok, "\n".join(str(e) for e in report.failures())


def test_low_degree_structure_d2():
    report = check_low_degree_structure(2)
    assert report.ok, "\n".join(str(e) for e in report.failures())


def test_low_degree_structure_d3_has_one_entry_per_pair():
    # injectivity, one entry per ordered pair of the 28 necklaces of degree
    # <= 2, and the central unit; d = 1 adds the sl2 triple (6 necklaces)
    report = check_low_degree_structure(3)
    assert report.ok, "\n".join(str(e) for e in report.failures())
    assert len(report.entries) == 1 + 28 * 28 + 1
    assert len(check_low_degree_structure(1).entries) == 1 + 6 * 6 + 1 + 3
    assert len(check_low_degree_structure(2).entries) == 1 + 15 * 15 + 1


def test_low_degree_structure_names_a_pair_when_the_bracket_is_doubled(monkeypatch):
    real = sl2.necklace_bracket
    monkeypatch.setattr(sl2, "necklace_bracket", lambda rule, a, b: 2 * real(rule, a, b))
    report = check_low_degree_structure(1)
    failed = [e.label for e in report.failures()]
    assert not report.ok and "{(x1),(x1*)}" in failed and "{(x1x1),(x1*)}" in failed
    # a zero bracket doubled is still right
    assert "{(x1),(x1)}" not in failed and "unit necklace is central" not in failed


def test_low_degree_structure_needs_an_injective_trace(monkeypatch):
    monkeypatch.setattr(sl2, "trace_of", lambda e, mats: Polynomial())
    report = check_low_degree_structure(2)
    assert [e.label for e in report.failures()] == [
        "n = 1 trace sends the 15 necklaces of degree <= 2 to distinct monomials"
    ]


def test_sl2_generators_are_an_immutable_hashable_value():
    g, again = sl2_generators(), sl2_generators()
    assert g == again and hash(g) == hash(again) and len({g, again}) == 1
    swapped = Sl2Generators(E=g.F, F=g.E, H=g.H)
    assert swapped != g and Sl2Generators(g.E, g.F, g.H) == g
    with pytest.raises(AttributeError):
        g.E = g.F
    with pytest.raises(AttributeError):
        del g.H
    assert g.E == NecklaceElement.of("x*x*", Fraction(1, 2))
    assert repr(g) == "Sl2Generators(E=1/2*x1*x1*, F=-1/2*x1x1, H=x1x1*)"


def test_weight_decomposition_ignores_zero_multiplicities():
    assert WeightDecomposition(4, {4: 1, 0: 1, 2: 0}) == WeightDecomposition(4, {0: 1, 4: 1})
    assert WeightDecomposition(4, {4: 1}) != WeightDecomposition(5, {4: 1})
    assert repr(WeightDecomposition(2, {2: 1})) == "WeightDecomposition(2, {2: 1})"
    assert repr(WeightDecomposition(4, {4: 1, 2: 0})) == "WeightDecomposition(4, {4: 1})"


def test_decompose_bruteforce_names_a_rank_disagreement(monkeypatch):
    """The E-action check fires when a rank disagrees with the counting,
    and names the degree and the weight."""
    real = sl2._e_action_rank

    def one_short_at_weight_4(rule, E, source, target):
        r = real(rule, E, source, target)
        return r - 1 if source and word_weight(source[0]) == 4 else r

    monkeypatch.setattr(sl2, "_e_action_rank", one_short_at_weight_4)
    with pytest.raises(ArithmeticError, match=r"at degree 8, weight 4$"):
        decompose_bruteforce(8)
