import itertools
import time
from fractions import Fraction

import pytest

from necklaces import linear_rules
from necklaces.brackets import (
    check_grading,
    necklace_bracket,
    verify_double_jacobi,
)
from necklaces.elements import (
    EMPTY_WORD,
    Necklace,
    NecklaceElement,
    TensorElement,
)
from necklaces.linear_rules import (
    AssociativityError,
    StructureConstants,
    check_degree1_commutator,
    gl_constants,
    linear_rule,
    matrix_unit_index,
    ngl,
)
from necklaces.sampling import random_word, rng
from necklaces.words import Letter, Word, unstarred


def one_dim_idempotent():
    # x * x = x
    return StructureConstants(1, {(1, 1, 1): 1})


def test_validation_accepts_associative():
    StructureConstants(2, {})  # zero algebra
    one_dim_idempotent()
    gl_constants(2)
    gl_constants(3)


def test_validation_rejects_non_associative():
    with pytest.raises(AssociativityError) as e:
        StructureConstants(2, {(1, 1, 1): 1, (1, 1, 2): 1, (2, 1, 1): 1})
    assert len(e.value.indices) == 4


def _full_scan_first_witness(dim, table):
    """First (i, j, k, s), over all dim^3 triples in order, where
    (x_i x_j) x_k and x_i (x_j x_k) differ in the x_s coordinate; None if
    associative.  The exhaustive walk, kept as an oracle for the walk over
    the triples with a stored product."""
    rows = {}
    for (i, j, k), v in table.items():
        if v:
            rows.setdefault((i, j), {})[k] = v
    for i, j, k in itertools.product(range(1, dim + 1), repeat=3):
        diff = {}
        for t, c in rows.get((i, j), {}).items():
            for s, c2 in rows.get((t, k), {}).items():
                diff[s] = diff.get(s, 0) + c * c2
        for t, c in rows.get((j, k), {}).items():
            for s, c2 in rows.get((i, t), {}).items():
                diff[s] = diff.get(s, 0) - c * c2
        bad = [s for s, v in diff.items() if v]
        if bad:
            return (i, j, k, min(bad))
    return None


def test_validation_names_the_first_triple_of_a_full_scan():
    """Validation walks only the triples (i, j, k) where (i, j) or (j, k)
    has a stored product, so its cost follows the table and not dim^3; on
    perturbed gl3 tables it names the triple the full scan names first."""
    r = rng(7)
    witnesses = []
    for trial in range(40):
        table = dict(gl_constants(3).a)
        for _ in range(1 + trial % 3):
            key = tuple(r.randrange(1, 10) for _ in range(3))
            delta = Fraction(r.choice([-2, -1, 1, 2]), r.choice([1, 2]))
            table[key] = table.get(key, Fraction(0)) + delta
        try:
            StructureConstants(9, table)
            got = None
        except AssociativityError as exc:
            got = exc.indices
        assert got == _full_scan_first_witness(9, table), table
        witnesses.append(got)
    assert len(set(witnesses)) > 20
    # an empty or one-entry table of dimension 10^4: a full scan would take
    # 10^12 steps
    start = time.perf_counter()
    StructureConstants(10**4, {})
    StructureConstants(10**4, {(1, 1, 1): 1})
    assert time.perf_counter() - start < 1


def test_perturbed_gl2_tables_rejected():
    base = gl_constants(2).a
    r = rng(42)
    rejected = 0
    trials = 0
    while rejected < 50:
        trials += 1
        assert trials < 500
        table = dict(base)
        key = (r.randrange(1, 5), r.randrange(1, 5), r.randrange(1, 5))
        delta = Fraction(r.choice([-2, -1, 1, 2]), r.choice([1, 2]))
        table[key] = table.get(key, Fraction(0)) + delta
        try:
            StructureConstants(4, table)
        except AssociativityError:
            rejected += 1
    assert rejected == 50


def test_one_dim_rule():
    rule = linear_rule(one_dim_idempotent())
    x = Word([Letter(1)])
    got = rule.pair(Letter(1), Letter(1))
    assert got == TensorElement({(x, EMPTY_WORD): 1, (EMPTY_WORD, x): -1})
    # antisymmetry makes the necklace bracket vanish on (x, x)
    assert necklace_bracket(rule, "x1", "x1").is_zero


def test_gl2_bracket_values():
    rule = ngl(2)
    e = lambda i, j: Letter(matrix_unit_index(2, i, j))
    # {{e12, e21}} = e11 (x) 1 - 1 (x) e22
    got = rule.pair(e(1, 2), e(2, 1))
    assert got == TensorElement(
        {(Word([e(1, 1)]), EMPTY_WORD): 1, (EMPTY_WORD, Word([e(2, 2)])): -1}
    )
    # degree-1 necklace bracket gives the matrix commutator
    h = NecklaceElement(
        {Necklace.of(Word([e(1, 1)])): 1, Necklace.of(Word([e(2, 2)])): -1}
    )
    got = necklace_bracket(rule, Word([e(1, 2)]), Word([e(2, 1)]))
    assert got == h
    got = necklace_bracket(rule, Word([e(1, 1)]), Word([e(1, 2)]))
    assert got == NecklaceElement.of(Necklace.of(Word([e(1, 2)])))


def test_degree1_commutator_gl2_and_gl3():
    assert check_degree1_commutator(gl_constants(2)).ok
    assert check_degree1_commutator(gl_constants(3)).ok


def test_degree1_commutator_names_the_bracket_and_the_commutator(monkeypatch):
    doubled = lambda rule, a, b: 2 * necklace_bracket(rule, a, b)
    monkeypatch.setattr(linear_rules, "necklace_bracket", doubled)
    report = check_degree1_commutator(gl_constants(2), ngl(2))
    failed = {e.label: e.detail for e in report.failures()}
    # the ten ordered pairs of matrix units whose commutator is not zero
    assert len(failed) == 10
    e12, e21 = matrix_unit_index(2, 1, 2), matrix_unit_index(2, 2, 1)
    assert failed[f"{{x{e12}, x{e21}}}"] == "got 2*e11 - 2*e22, expected e11 - e22"


def test_ngl1_is_commutative():
    rule = ngl(1)
    assert necklace_bracket(rule, Word([Letter(1)]), Word([Letter(1)])).is_zero


def test_gl2_explicit_jacobi_triple():
    rule = ngl(2)
    e12 = Word([Letter(matrix_unit_index(2, 1, 2))])
    e21 = Word([Letter(matrix_unit_index(2, 2, 1))])
    e11 = Word([Letter(matrix_unit_index(2, 1, 1))])
    assert verify_double_jacobi(rule, e12, e21, e11).is_zero


def test_degree1_commutator_commutative_algebra():
    # commutative 2-dim algebra: x1 = unit, x2^2 = 0
    sc = StructureConstants(
        2, {(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1}
    )
    report = check_degree1_commutator(sc)
    assert report.ok
    rule = linear_rule(sc)
    for i in (1, 2):
        for j in (1, 2):
            assert necklace_bracket(rule, Word([Letter(i)]), Word([Letter(j)])).is_zero


def test_linear_rule_satisfies_double_jacobi():
    rule = ngl(2)
    r = rng(19)
    alpha = unstarred(4)
    for _ in range(40):
        a = random_word(r, alpha, 0, 2)
        b = random_word(r, alpha, 0, 2)
        c = random_word(r, alpha, 0, 2)
        assert verify_double_jacobi(rule, a, b, c).is_zero


def test_linear_rule_grading_minus_one():
    rule = ngl(2)
    r = rng(20)
    alpha = unstarred(4)
    pairs = [
        (Necklace.of(random_word(r, alpha, 1, 3)), Necklace.of(random_word(r, alpha, 1, 3)))
        for _ in range(40)
    ]
    report = check_grading(rule, pairs)
    assert report.ok and len(report.entries) == 40 and rule.degree_shift == -1


def _dense_linear_table(sc):
    """{{x_i, x_j}} = sum_k a_ij^k x_k (x) 1 - a_ji^k 1 (x) x_k, over every
    i, j and k up to dim."""
    table = {}
    for i, j in itertools.product(range(1, sc.dim + 1), repeat=2):
        terms = {}
        for k in range(1, sc.dim + 1):
            xk = Word([Letter(k)])
            if sc.coefficient(i, j, k):
                terms[(xk, EMPTY_WORD)] = sc.coefficient(i, j, k)
            if sc.coefficient(j, i, k):
                terms[(EMPTY_WORD, xk)] = -sc.coefficient(j, i, k)
        if terms:
            table[(Letter(i), Letter(j))] = TensorElement(terms)
    return table


def test_linear_rule_matches_the_dense_definition():
    dual_numbers = StructureConstants(2, {(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1})
    for sc in (gl_constants(2), gl_constants(3), dual_numbers):
        rule = linear_rule(sc)
        assert rule.table == _dense_linear_table(sc) and rule.degree_shift == -1
    for n in (2, 3):
        # e_ij e_kl = delta_jk e_il, over all four indices
        units = list(itertools.product(range(1, n + 1), repeat=2))
        want = {
            (matrix_unit_index(n, i, j), matrix_unit_index(n, k, l), matrix_unit_index(n, i, l)): 1
            for (i, j), (k, l) in itertools.product(units, repeat=2)
            if j == k
        }
        assert gl_constants(n).a == want


def test_homogeneous_parts_are_degree1_modules():
    rule = ngl(2)
    r = rng(21)
    alpha = unstarred(4)
    for _ in range(30):
        g = Necklace.of(random_word(r, alpha, 1, 1))
        w = Necklace.of(random_word(r, alpha, 1, 4))
        got = necklace_bracket(rule, NecklaceElement.of(g), NecklaceElement.of(w))
        assert all(neck.degree == w.degree for neck in got.terms)


def test_json_roundtrip():
    # gl(2) on e11, e12, e21, e22: e_ij e_jl = e_il
    text = (
        '{"dim": 4, "a": [[1, 1, 1, "1"], [1, 2, 2, "1"], [2, 3, 1, "1"], [2, 4, 2, "1"],'
        ' [3, 1, 3, "1"], [3, 2, 4, "1"], [4, 3, 3, "1"], [4, 4, 4, "1"]]}'
    )
    sc = gl_constants(2)
    again = StructureConstants.from_json(text)
    assert again.dim == sc.dim and again.a == sc.a
    loaded = StructureConstants.from_json(
        '{"dim": 1, "a": [[1, 1, 1, "1/1"]]}'
    )
    assert loaded.coefficient(1, 1, 1) == 1


def test_json_float_values_are_their_decimals():
    # 0.1 is 1/10, not the binary double nearest to it
    loaded = StructureConstants.from_json('{"dim": 1, "a": [[1, 1, 1, 0.1]]}')
    assert loaded.coefficient(1, 1, 1) == Fraction(1, 10)
    assert StructureConstants.from_json('{"dim": 1, "a": [[1, 1, 1, 2.5e-1]]}').a == {
        (1, 1, 1): Fraction(1, 4)
    }
    for text in ('{"dim": 1.0, "a": []}', '{"dim": 1, "a": [[1.0, 1, 1, 1]]}'):
        with pytest.raises(ValueError, match="integer"):
            StructureConstants.from_json(text)


def test_json_exponent_above_the_bound_is_refused():
    # a JSON number is read by the same parse_rational as the CLI's numbers
    for value in ("1e5000", '"1e5000"', "-1E-5000"):
        text = '{"dim": 1, "a": [[1, 1, 1, %s]]}' % value
        with pytest.raises(ValueError, match="exponent of '-?1[eE]-?5000' is above 1000"):
            StructureConstants.from_json(text)


def test_json_number_of_more_than_1000_digits_is_refused():
    # Python's int() and str() stop at 4,300 digits; the reader stops first
    long = "1" + "0" * 5000
    for value in (long, f'"{long}"', f"{long}.5"):
        text = '{"dim": 1, "a": [[1, 1, 1, %s]]}' % value
        with pytest.raises(ValueError, match="number '1000.*' has more than 1000 digits"):
            StructureConstants.from_json(text)
    with pytest.raises(ValueError, match="has more than 1000 digits"):
        StructureConstants.from_json('{"dim": %s, "a": []}' % long)


def test_json_boolean_value_is_not_a_number():
    # Fraction(True) is 1, so a boolean must be refused before it is read
    for value in ("true", "false"):
        text = '{"dim": 1, "a": [[1, 1, 1, %s]]}' % value
        with pytest.raises(ValueError, match='the value of entry .* of "a" is not a number'):
            StructureConstants.from_json(text)


def test_table_values_must_be_exact_scalars():
    # the same coercion as every combination: a float, bool or Letter raises
    for value in (0.5, True, Letter(1)):
        with pytest.raises(TypeError, match="coefficient must be exact"):
            StructureConstants(1, {(1, 1, 1): value})
    # values are still stored as Fractions
    for value in (1, Fraction(2, 2)):
        stored = StructureConstants(1, {(1, 1, 1): value}).a[(1, 1, 1)]
        assert type(stored) is Fraction and stored == 1


def _dense_first_witness(dim, table):
    """First (i, j, k, s), in loop order, where (x_i x_j) x_k and
    x_i (x_j x_k) differ in the x_s coordinate; None if associative.
    A plain dense loop kept as an oracle for StructureConstants."""
    idx = range(1, dim + 1)
    a = [[[Fraction(table.get((i, j, k), 0)) for k in idx] for j in idx] for i in idx]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for s in range(dim):
                    left = sum(a[i][j][t] * a[t][k][s] for t in range(dim))
                    right = sum(a[j][k][t] * a[i][t][s] for t in range(dim))
                    if left != right:
                        return (i + 1, j + 1, k + 1, s + 1)
    return None


@pytest.mark.parametrize("n, tables", [(2, 60), (3, 12)])
def test_validation_matches_dense_associator(n, tables):
    dim = n * n
    r = rng(100 + n)
    verdicts = []
    for trial in range(tables):
        table = dict(gl_constants(n).a)
        for _ in range(min(trial, 3)):  # trial 0 keeps the associative table
            key = tuple(r.randrange(1, dim + 1) for _ in range(3))
            delta = Fraction(r.choice([-2, -1, 1, 2]), r.choice([1, 2]))
            table[key] = table.get(key, Fraction(0)) + delta
        expected = _dense_first_witness(dim, table)
        try:
            StructureConstants(dim, table)
            got = None
        except AssociativityError as exc:
            got = exc.indices
        assert got == expected, (table, got, expected)
        verdicts.append(got is None)
    assert any(verdicts) and not all(verdicts)
