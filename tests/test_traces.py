from fractions import Fraction

import pytest

from necklaces import brackets, traces
from necklaces.brackets import BracketRule, center_element, necklace_bracket
from necklaces.counting import enumerate_necklaces
from necklaces.elements import FreeElement, Necklace, NecklaceElement
from necklaces.multipoly import Polynomial, PolyMatrix, symplectic_poisson
from necklaces.poisson import TRACE_GENERATORS, PoissonPolyAlgebra, classify_point
from necklaces.sampling import random_word, rng
from necklaces.traces import (
    casimir_image,
    casimir_image_as_displayed,
    casimir_polynomial,
    center_witness,
    express_in_trace_generators,
    generator_polynomials,
    generic_matrices,
    stated_casimir_expression,
    table2,
    trace_of,
    verify_cayley_hamilton,
    witness_matrices,
    word_matrix,
)
from necklaces.words import letters

T1, T2, T3, T4, T5 = (Polynomial.variable(g) for g in TRACE_GENERATORS)
Z = Polynomial.zero()

# bracket table of the five generators; rows bracket columns
EXPECTED_TABLE2 = [
    [Z, 2 + Z, Z, 2 * T2, T1],
    [-2 + Z, Z, -2 * T1, Z, -T2],
    [Z, 2 * T1, Z, 4 * T5, 2 * T3],
    [-2 * T2, Z, -4 * T5, Z, -2 * T4],
    [-T1, T2, -2 * T3, 2 * T4, Z],
]


def test_generic_matrices_shape():
    mats = generic_matrices(1, 2)
    assert len(mats) == 2 and all(m.size == 2 for m in mats)
    variables = set()
    for m in mats:
        for row in m.entries:
            for e in row:
                variables |= e.variables()
    assert len(variables) == 8
    mats = generic_matrices(2, 2)
    assert len(mats) == 4
    variables = set()
    for m in mats:
        for row in m.entries:
            for e in row:
                variables |= e.variables()
    assert len(variables) == 16


def test_trace_of_basics():
    mats = generic_matrices(1, 2)
    x = mats[0]
    assert trace_of("x", mats) == x.entries[0][0] + x.entries[1][1]
    assert trace_of("1", mats) == 2
    assert trace_of(NecklaceElement.of("x", 3), mats) == 3 * x.trace()


def test_trace_of_1x1_is_commutative_evaluation():
    # size-1 matrices: the trace of a word is the product of its entries
    mats = generic_matrices(1, 1)
    a = Polynomial.variable("x1_11")
    b = Polynomial.variable("x1s_11")
    assert trace_of("1", mats) == 1
    assert trace_of("xx*", mats) == a * b
    assert trace_of("xx*xx*", mats) == a**2 * b**2
    # cyclically distinct words with equal content collapse at size 1
    assert trace_of("xxx*x*", mats) == trace_of("xx*xx*", mats)


def test_trace_rotation_invariance_and_commutators():
    mats = generic_matrices(1, 2)
    r = rng(30)
    for _ in range(25):
        w = random_word(r, letters(1), 1, 5)
        base = trace_of(Necklace.of(w), mats)
        for k in range(len(w)):
            # evaluating the plain word product, not the canonical form
            assert word_matrix(w.rotated(k), mats).trace() == base
    for _ in range(15):
        a = FreeElement.of(random_word(r, letters(1), 1, 3))
        b = FreeElement.of(random_word(r, letters(1), 1, 3))
        assert trace_of(a.commutator(b), mats).is_zero


def _trace_by_word_matrix(e, mats) -> Polynomial:
    """The oracle: each necklace's product built from the identity."""
    total = Polynomial.zero()
    for neck, c in e.terms.items():
        total = total + word_matrix(neck, mats).trace().scaled(c)
    return total


def test_trace_of_shares_prefixes_and_matches_word_products():
    witness = list(witness_matrices(Fraction(3, 2)))
    c8 = center_element(1, 8)
    assert trace_of(c8, witness) == _trace_by_word_matrix(c8, witness)
    mats = generic_matrices(2, 2)
    r = rng(47)
    for _ in range(12):
        e = NecklaceElement(
            {Necklace.of(random_word(r, letters(2), 0, 4)): r.randint(-3, 3) for _ in range(4)}
        )
        assert trace_of(e, mats) == _trace_by_word_matrix(e, mats)


def test_trace_of_counts_one_product_per_distinct_prefix(monkeypatch):
    products = []
    original = PolyMatrix.__mul__

    def counted(a, b):
        products.append(None)
        return original(a, b)

    monkeypatch.setattr(PolyMatrix, "__mul__", counted)
    assert center_witness(6, Fraction(2)) == 2 * 2**6 + (-2) ** 6 * 2**6
    # the words of c_6 have 76 distinct nonempty prefixes; built one by one
    # from the identity they would cost 156 products
    assert len(products) == 76


def test_trace_of_needs_a_matrix():
    with pytest.raises(ValueError, match="at least one matrix"):
        trace_of("xx*", [])
    with pytest.raises(ValueError, match="letter x1\\* has no matrix"):
        trace_of("xx*", generic_matrices(1, 2)[:1])


def bracket_in_generators(a, b):
    return express_in_trace_generators(necklace_bracket(BracketRule.canonical(1), a, b))


def test_table2_cells_are_brackets_in_the_generators():
    assert bracket_in_generators("x", "x*") == 2 + Z
    assert bracket_in_generators("xx", "x*x*") == 4 * T5
    assert bracket_in_generators("xx*", "xx") == -2 * T3


def test_bracket_beyond_degree_two_follows_the_table():
    # a degree-4 bracket has no linear expression in the five generators;
    # the same route rewrites it, and it is the table's Poisson bracket of
    # the two traces
    assert not necklace_bracket(BracketRule.canonical(1), "xxx*", "xx*x*").is_zero
    got = bracket_in_generators("xxx*", "xx*x*")
    assert got.total_degree() > 1
    rhs = table2().bracket(express_in_trace_generators("xxx*"), express_in_trace_generators("xx*x*"))
    assert got == rhs


def test_table2_matches_expected_and_antisymmetric():
    t = table2()
    assert isinstance(t, PoissonPolyAlgebra)  # antisymmetry and Jacobi checked
    assert t.generators == TRACE_GENERATORS
    for i in range(5):
        for j in range(5):
            assert t.table[i][j] == EXPECTED_TABLE2[i][j], (i, j)
            assert t.table[i][j] == -t.table[j][i], (i, j)


def skew_cell(monkeypatch, a, b, extra, both_ways):
    """Make table2 see {a, b} + extra, and {b, a} - extra if both_ways."""
    real = brackets.necklace_bracket

    def skewed(rule, u, v):
        out = real(rule, u, v)
        if (u, v) == (a, b):
            return out + NecklaceElement.of(extra)
        if both_ways and (v, u) == (a, b):
            return out - NecklaceElement.of(extra)
        return out

    monkeypatch.setattr(brackets, "necklace_bracket", skewed)


def test_table2_refuses_a_table_that_is_not_antisymmetric(monkeypatch):
    skew_cell(monkeypatch, "x1", "x1*", "x1", both_ways=False)
    with pytest.raises(ValueError, match=r"not antisymmetric at \(tr\(x\), tr\(x\*\)\)"):
        table2()


def test_table2_refuses_a_table_that_fails_jacobi(monkeypatch):
    # {tr(x), tr((x*)^2)} = 2 tr(x*) + tr(x) stays antisymmetric, but
    # {tr(x*), {tr(x), tr((x*)^2)}} picks up {tr(x*), tr(x)} = -2
    skew_cell(monkeypatch, "x1", "x1*x1*", "x1", both_ways=True)
    with pytest.raises(ValueError, match=r"Jacobi identity fails on generators \(tr\(x\), tr\(x\*\), tr\(\(x\*\)\^2\)\)"):
        table2()


def test_table2_audited_cell():
    # the ((x*)^2, x) cell is pinned by antisymmetry to -2 tr(x*); the
    # variant reading -2 tr((x*)^2) cannot occur in an antisymmetric table
    t = table2()
    assert t.table[3][0] == -t.table[0][3]
    assert t.table[3][0] == -2 * T2
    assert t.table[3][0] != -2 * T4


def test_abelianization_is_symplectic_poisson_at_n1():
    rule = BracketRule.canonical(1)
    mats = generic_matrices(1, 1)
    pairs = [("x1_11", "x1s_11")]
    necks = [n for k in range(7) for n in enumerate_necklaces(1, k)]
    r = rng(31)
    for _ in range(60):
        n1, n2 = r.choice(necks), r.choice(necks)
        lhs = trace_of(necklace_bracket(rule, NecklaceElement.of(n1), NecklaceElement.of(n2)), mats)
        rhs = symplectic_poisson(trace_of(n1, mats), trace_of(n2, mats), pairs)
        assert lhs == rhs


def _first_disagreement(max_degree):
    """The first necklace of degree <= max_degree, in enumeration order,
    whose rewritten trace, substituted back, is not its trace on the
    generic matrices; None if there is none."""
    mats = generic_matrices(1, 2)
    gens = generator_polynomials()
    for k in range(max_degree + 1):
        for neck in enumerate_necklaces(1, k):
            if express_in_trace_generators(neck).substitute(gens) != trace_of(neck, mats):
                return neck
    return None


def test_express_in_trace_generators_roundtrip():
    # all 94 necklaces of degree <= 8 rewrite exactly; checked by substitution
    assert _first_disagreement(8) is None


def test_a_wrong_sign_in_the_left_multiplication_table_is_caught(monkeypatch):
    # YX = +XY + ... instead of -XY + ...: the same comparison fails, first
    # on tr((x*)^2), the first trace that reads that entry of x*'s table
    lx, ly = traces._regular_mats()
    rows = [list(r) for r in ly.entries]
    rows[3][1] = -rows[3][1]
    monkeypatch.setattr(traces, "_regular_mats", lambda: (lx, PolyMatrix(rows)))
    assert repr(_first_disagreement(8)) == "(x1*x1*)"


def test_the_left_multiplication_tables_are_certified_on_first_use(monkeypatch):
    # with tr(x^2) and tr((x*)^2) swapped, X^2 = tr(X) X - det X no longer
    # holds on the generic matrices, and the certificate names the basis
    # element whose column fails
    real = generator_polynomials()
    t3, t4 = TRACE_GENERATORS[2:4]
    swapped = {**real, t3: real[t4], t4: real[t3]}
    traces._regular_mats.cache_clear()
    monkeypatch.setattr(traces, "generator_polynomials", lambda: swapped)
    try:
        message = r"^regular representation fails at basis element x$"
        with pytest.raises(ArithmeticError, match=message):
            express_in_trace_generators("xx")
    finally:
        traces._regular_mats.cache_clear()


def test_express_has_no_degree_bound_but_needs_a_matrix_per_letter():
    neck = Necklace.of("xxx*xx*")
    got = express_in_trace_generators(neck)
    assert got.total_degree() > 1
    assert got.substitute(generator_polynomials()) == trace_of(neck, generic_matrices(1, 2))
    with pytest.raises(ValueError, match="letter x2 has no matrix"):
        express_in_trace_generators("x1x2")


def test_central_elements_map_to_powers_of_the_casimir():
    # tr(c_2m) = 2 Cas^m and tr(c_2m+1) = 0, against the Casimir of
    # poisson, which shares no code with trace_of
    casimir = casimir_polynomial()
    for n in range(2, 7):
        expected = 2 * casimir ** (n // 2) if n % 2 == 0 else Z
        assert express_in_trace_generators(center_element(1, n)) == expected, n


def test_express_mixed_degrees_in_one_call():
    # unit + x + xx* + c_2 spans degrees 0 to 4 and is rewritten in one walk
    e = NecklaceElement({Necklace.of(""): 1, Necklace.of("x"): 1, Necklace.of("xx*"): 1})
    e = e + center_element(1, 2)
    got = express_in_trace_generators(e)
    assert got == 2 + T1 + T5 + (-2 * stated_casimir_expression())
    mats = generic_matrices(1, 2)
    assert got.substitute(generator_polynomials()) == trace_of(e, mats)
    # a degree-5 term among the low ones is rewritten with them
    e = e + NecklaceElement.of(Necklace.of("xxx*xx*"))
    assert express_in_trace_generators(e).substitute(generator_polynomials()) == trace_of(e, mats)


def test_express_zero_is_the_zero_polynomial():
    assert express_in_trace_generators(NecklaceElement()) == Polynomial.zero()


def test_trace_map_is_poisson_morphism():
    # tr{w1, w2} = {tr w1, tr w2} with the right side extended from the
    # generator table by Leibniz
    from necklaces.poisson import trace_generator_algebra

    alg = trace_generator_algebra()
    rule = BracketRule.canonical(1)
    mats = generic_matrices(1, 2)
    gens = generator_polynomials()
    necks = [n for k in range(1, 5) for n in enumerate_necklaces(1, k)]
    rewritten = {n: express_in_trace_generators(n) for n in necks}
    r = rng(32)
    sampled = {(r.choice(necks), r.choice(necks)) for _ in range(40)}
    # include every generator pair
    gens5 = ["x", "x*", "xx", "x*x*", "xx*"]
    sampled |= {(Necklace.of(a), Necklace.of(b)) for a in gens5 for b in gens5}
    for n1, n2 in sampled:
        lhs = trace_of(
            necklace_bracket(rule, NecklaceElement.of(n1), NecklaceElement.of(n2)), mats
        )
        rhs = alg.bracket(rewritten[n1], rewritten[n2]).substitute(gens)
        assert lhs == rhs, (n1, n2)


def test_cayley_hamilton_report():
    report = verify_cayley_hamilton()
    assert report.ok
    labels = [e.label for e in report.entries]
    assert "tr([x,x*]^4) = 2^(1-2) tr([x,x*]^2)^2" in labels
    assert "tr([x,x*]^3) = 0" in labels and "tr([x,x*]^5) = 0" in labels


def test_casimir_image_exact_relations():
    report = casimir_image()
    assert report.ok, "\n".join(str(e) for e in report.failures())


def test_editing_the_generator_polynomials_leaves_later_checks_alone():
    """Each call builds its own dict, so a caller that edits one changes
    no later check's generators."""
    gens = generator_polynomials()
    gens["tr(x)"] = Polynomial.zero()
    assert casimir_image().ok


def test_casimir_image_displayed_variants_fail_by_factor():
    # the variants without the -2 factor are exactly the audited defect
    report = casimir_image_as_displayed()
    assert not report.ok
    assert all(not e.ok for e in report.entries)
    # certify the factor: stated expression == -1/2 tr([x,x*]^2)
    gens = generator_polynomials()
    mats = generic_matrices(1, 2)
    c2 = trace_of(center_element(1, 2), mats)
    assert stated_casimir_expression().substitute(gens) * (-2) == c2
    assert stated_casimir_expression() == -casimir_polynomial()


def test_center_witness_values():
    for lam in (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)):
        for n in range(0, 5):
            expected = 2 * lam**n + (-2) ** n * lam**n
            assert center_witness(n, lam) == expected
    assert center_witness(0, Fraction(3, 4)) == 3
    assert center_witness(2, 1) == 6
    assert center_witness(3, 1) == -6
    assert center_witness(1, 1) == 0


def test_center_witness_refuses_a_non_constant_trace(monkeypatch):
    """A trace that kept a variable has no value; it raises, under python -O
    too, instead of returning its constant term."""
    monkeypatch.setattr(traces, "trace_of", lambda e, mats: T1 + 3)
    with pytest.raises(ArithmeticError, match="c_2 on the witness pair is not a constant"):
        center_witness(2, 1)


@pytest.mark.parametrize("lam", [0.1, True])
def test_witness_lambda_must_be_exact(lam):
    with pytest.raises(TypeError, match="coefficient must be exact"):
        center_witness(2, lam)
    with pytest.raises(TypeError, match="coefficient must be exact"):
        witness_matrices(lam)


def test_witness_commutator_is_diagonal():
    x, xs = witness_matrices(Fraction(5))
    m = x * xs - xs * x
    expected = PolyMatrix(
        [[Fraction(5), 0, 0], [0, Fraction(-10), 0], [0, 0, Fraction(5)]]
    )
    assert m == expected


def test_classify_point_examples():
    got = classify_point((0, 0, 0, 0, 0))
    assert got.leaf == "S_0''" and got.luna_type == "[(1,2)]"
    got = classify_point((0, 0, 1, 1, 0))
    assert got.leaf == "S_lambda" and got.casimir == 4 and got.luna_type == "[(2,1)]"
    got = classify_point((0, 0, 1, 0, 0))
    assert got.leaf == "S_0'" and got.luna_type == "[(1,1);(1,1)]"


def test_classify_point_exact_vs_float():
    # the point is classified exactly; the same point in floats, or a
    # missing coordinate, is refused rather than compared to a tolerance
    # or read as 0
    got = classify_point((2, -1, 1, Fraction(1, 4), 1))
    assert got.leaf == "S_0'" and got.luna_type == "[(1,1);(1,1)]"
    assert got.casimir == 0 and got.primed == (0, Fraction(1, 2), 0)
    inexact = [
        (2.0, -1.0, 1.0, 0.25, 1.0),
        (None, 0, 1, 1, 0),
    ]
    for coords in inexact:
        with pytest.raises(TypeError, match=r"coefficient must be exact \(int/Fraction\)"):
            classify_point(coords)


def test_classify_complex_coordinates():
    # complex coordinates are refused, not classified to a tolerance; the
    # real point behind the first one classifies exactly
    got = classify_point((0, 0, 1, 1, 0))
    assert got.leaf == "S_lambda" and got.casimir == 4
    for coords in [
        (0j, 0j, 1 + 0j, 1 + 0j, 0j),
        (0j, 0j, 1j, 1j, 0j),
        (0j, 0, 1, 1, 0),
    ]:
        with pytest.raises(TypeError, match=r"coefficient must be exact \(int/Fraction\)"):
            classify_point(coords)


def test_classify_consistency_rules():
    # S_0'' always lies inside the Casimir zero set
    got = classify_point((3, 5, Fraction(9, 4), Fraction(-25, 4), Fraction(-15, 2)))
    assert got.leaf == "S_0''"
    assert got.casimir == 0
