"""Acceptance suite.

Each criterion prints one PASS/FAIL line (written straight to the real
stdout so the lines survive pytest capture).  Criterion 9 includes two
clauses that assert the displayed form of the Casimir-image identity; the
engine proves them false by the exact factor -2 (see the companion test
that certifies the corrected identities), so that test is expected to fail
and is kept faithful rather than weakened.
"""

import itertools
from fractions import Fraction


from necklaces.brackets import (
    BracketRule,
    center_check,
    center_element,
    kontsevich_bracket,
    necklace_bracket,
    verify_double_jacobi,
)
from necklaces.cli import main as cli_main
from necklaces.counting import (
    enumerate_necklaces,
    necklace_count_by_enumeration,
    necklace_dimension,
)
from necklaces.elements import Necklace, NecklaceElement
from necklaces.linear_rules import (
    AssociativityError,
    StructureConstants,
    check_degree1_commutator,
    gl_constants,
    ngl,
)
from necklaces.multipoly import Polynomial
from necklaces.poisson import (
    PoissonPolyAlgebra,
    casimir_check,
    change_coordinates,
)
from necklaces.sampling import random_word, rng
from necklaces.sl2 import (
    DEFAULT_DEGREE_BOUND,
    check_low_degree_structure,
    decompose_bruteforce,
    decompose_by_formula,
)
from necklaces.traces import (
    casimir_image,
    casimir_image_as_displayed,
    casimir_polynomial,
    center_witness,
    generator_polynomials,
    generic_matrices,
    stated_casimir_expression,
    table2,
    trace_of,
    verify_cayley_hamilton,
)
from necklaces.words import Word, letters, unstarred


def announce(num, ok, detail=""):
    from conftest import record_acceptance

    record_acceptance(num, ok, detail)
    status = "PASS" if ok else "FAIL"
    # visible live under `pytest -s`; the conftest hook reprints a summary
    print(f"ACCEPTANCE {num:>2}: {status}  {detail}")


# reference multiplicity table, rows 1..8 over weights 8..0
TABLE1_CSV = [
    ",8,7,6,5,4,3,2,1,0",
    "1,0,0,0,0,0,0,0,1,0",
    "2,0,0,0,0,0,0,1,0,0",
    "3,0,0,0,0,0,1,0,0,0",
    "4,0,0,0,0,1,0,0,0,1",
    "5,0,0,0,1,0,0,0,1,0",
    "6,0,0,1,0,0,0,2,0,1",
    "7,0,1,0,0,0,2,0,2,0",
    "8,1,0,0,0,3,0,3,0,3",
]


def test_criterion_01_table1(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    code = cli_main(["table1", "8", "--format", "csv", "--output", str(out)])
    capsys.readouterr()
    cells_ok = code == 0 and out.read_text().strip().splitlines() == TABLE1_CSV
    top = DEFAULT_DEGREE_BOUND
    oracle_ok = all(
        decompose_by_formula(n) == decompose_bruteforce(n) for n in range(1, top + 1)
    )
    ok = cells_ok and oracle_ok
    announce(1, ok, f"table of multiplicities, 72 cells + formula vs oracle to degree {top}")
    assert cells_ok and oracle_ok


def test_criterion_02_hilbert_series():
    ok = True
    for d in (1, 2):
        for k in range(0, 13):
            if necklace_dimension(d, k) != necklace_count_by_enumeration(d, k):
                ok = False
    ok = ok and necklace_dimension(1, 6) == 14 and necklace_dimension(2, 2) == 10
    announce(2, ok, "dimension formula vs enumeration, d in {1,2}, k <= 12")
    assert ok


T1, T2, T3, T4, T5 = (Polynomial.variable(g) for g in
                      ("tr(x)", "tr(x*)", "tr(x^2)", "tr((x*)^2)", "tr(xx*)"))
Z = Polynomial.zero()

# reference bracket table after antisymmetrization; the (3,0) cell is the
# audited one, pinned to -2 tr(x*) by antisymmetry with the (0,3) cell
REFERENCE_TABLE2 = [
    [Z, 2 + Z, Z, 2 * T2, T1],
    [-2 + Z, Z, -2 * T1, Z, -T2],
    [Z, 2 * T1, Z, 4 * T5, 2 * T3],
    [-2 * T2, Z, -4 * T5, Z, -2 * T4],
    [-T1, T2, -2 * T3, 2 * T4, Z],
]


def test_criterion_03_table2():
    try:  # construction refuses a table that is not antisymmetric or fails Jacobi
        t = table2()
    except ValueError as exc:
        announce(3, False, f"trace-generator table refused: {exc}")
        raise
    valid_ok = isinstance(t, PoissonPolyAlgebra)
    cells_ok = all(
        t.table[i][j] == REFERENCE_TABLE2[i][j] for i in range(5) for j in range(5)
    )
    audited_ok = (
        t.table[3][0] == -2 * T2
        and t.table[3][0] == -t.table[0][3]
        and t.table[3][0] != -2 * T4  # the one audited discrepancy
    )
    ok = valid_ok and cells_ok and audited_ok
    announce(3, ok, "trace-generator table, 25 cells, antisymmetric + Jacobi")
    assert ok


def test_criterion_04_bracket_oracle_equivalence():
    rule1 = BracketRule.canonical(1)
    necks = [n for k in range(0, 11) for n in enumerate_necklaces(1, k)]
    checked = 0
    ok = True
    for n1, n2 in itertools.product(necks, repeat=2):
        if n1.degree + n2.degree > 10:
            continue
        checked += 1
        if kontsevich_bracket(n1, n2) != necklace_bracket(
            rule1, NecklaceElement.of(n1), NecklaceElement.of(n2)
        ):
            ok = False
    rule2 = BracketRule.canonical(2)
    r = rng(0)
    alpha = letters(2)
    for _ in range(500):
        n1 = Necklace.of(random_word(r, alpha, 0, 4))
        n2 = Necklace.of(random_word(r, alpha, 0, 4))
        checked += 1
        if kontsevich_bracket(n1, n2) != necklace_bracket(
            rule2, NecklaceElement.of(n1), NecklaceElement.of(n2)
        ):
            ok = False
    announce(4, ok, f"splice oracle == necklace bracket on {checked} pairs")
    assert ok


def test_criterion_05_double_jacobi():
    rule = BracketRule.canonical(1)
    alpha = letters(1)
    checked = 0
    ok = True
    words_by_len = {
        n: [Word(t) for t in itertools.product(alpha, repeat=n)] for n in range(6)
    }
    for la in range(0, 6):
        for lb in range(0, 6 - la):
            for lc in range(0, 6 - la - lb):
                for a in words_by_len[la]:
                    for b in words_by_len[lb]:
                        for c in words_by_len[lc]:
                            checked += 1
                            if not verify_double_jacobi(rule, a, b, c).is_zero:
                                ok = False
    gl2 = ngl(2)
    r = rng(0)
    beads = unstarred(4)
    sampled = 0
    while sampled < 200:
        a = random_word(r, beads, 0, 2)
        b = random_word(r, beads, 0, 2)
        c = random_word(r, beads, 0, 2)
        if len(a) + len(b) + len(c) > 5:
            continue
        sampled += 1
        checked += 1
        if not verify_double_jacobi(gl2, a, b, c).is_zero:
            ok = False
    announce(5, ok, f"double Jacobi vanishes on {checked} triples")
    assert ok


def test_criterion_06_low_degree_isomorphisms():
    r1 = check_low_degree_structure(1)
    r2 = check_low_degree_structure(2)
    ok = r1.ok and r2.ok
    announce(6, ok, "Heisenberg + sl2 (d=1) and sp(4) table (d=2)")
    assert r1.ok, "\n".join(str(e) for e in r1.failures())
    assert r2.ok, "\n".join(str(e) for e in r2.failures())


def test_criterion_07_center():
    ok = center_element(1, 1).is_zero
    for n in (2, 3):
        report = center_check(1, n, 6)
        ok = ok and report.ok
    for lam in (Fraction(1), Fraction(2), Fraction(-3)):
        for n in range(1, 5):
            expected = 2 * lam**n + (-2) ** n * lam**n
            if center_witness(n, lam) != expected:
                ok = False
    announce(7, ok, "centrality to degree 6 and witness values for n <= 4")
    assert ok


def test_criterion_08_cayley_hamilton():
    report = verify_cayley_hamilton()
    labels = {e.label: e.ok for e in report.entries}
    ok = (
        labels.get("tr([x,x*]^4) = 2^(1-2) tr([x,x*]^2)^2", False)
        and labels.get("tr([x,x*]^3) = 0", False)
        and labels.get("tr([x,x*]^5) = 0", False)
    )
    announce(8, ok, "trace power identities in 8 indeterminates")
    assert ok


def test_criterion_09_casimir_as_stated():
    """Faithful form of the criterion.

    Two clauses assert the displayed identity tr([x,x*]^2) == stated
    generator expression (equivalently c_2 -> -(H'^2+4E'F')).  Expanding
    [x,x*]^2 = xx*xx* - xx*x*x - x*xxx* + x*xx*x and tracing gives
    2tr((xx*)^2) - 2tr(x^2(x*)^2) = -2 (stated expression), e.g. at
    X = [[1,2],[3,4]], X* = [[0,1],[1,0]] the two sides are -16 and 8.
    The clauses therefore fail by the exact factor -2; the corrected
    identities are certified in the next test.
    """
    displayed = casimir_image_as_displayed()
    centrality = casimir_check()
    decoupling = change_coordinates()
    gens = generator_polynomials()
    mats = generic_matrices(1, 2)
    c2_trace = trace_of(center_element(1, 2), mats)
    clause_identity = stated_casimir_expression().substitute(gens) == c2_trace
    clause_image = (-casimir_polynomial()).substitute(gens) == c2_trace
    ok = clause_identity and clause_image and centrality.ok and decoupling.ok
    announce(
        9,
        ok,
        "as stated; audited: displayed identity is off by the exact factor -2"
        if not ok
        else "stated generator expression, Casimir centrality, decoupling",
    )
    assert centrality.ok and decoupling.ok
    assert not displayed.ok  # records the measured outcome of the variants
    assert clause_identity, (
        "tr([x,x*]^2) does not equal the displayed generator expression: "
        "the exact relation is tr([x,x*]^2) = -2 (displayed expression)"
    )
    assert clause_image


def test_criterion_09_casimir_corrected_and_remaining_clauses():
    exact = casimir_image()
    centrality = casimir_check()
    decoupling = change_coordinates()
    ok = exact.ok and centrality.ok and decoupling.ok and len(decoupling.entries) == 10
    announce(
        9,
        ok,
        "corrected identities: tr([x,x*]^2) = -2 (stated) = 2(H'^2+4E'F'), "
        "centrality and nine decoupling relations exact",
    )
    assert exact.ok, "\n".join(str(e) for e in exact.failures())
    assert centrality.ok and decoupling.ok


def test_criterion_10_linear_brackets():
    report = check_degree1_commutator(gl_constants(2), ngl(2))
    pairs_ok = report.ok and len(report.entries) == 16
    base = gl_constants(2).a
    r = rng(0)
    rejected = 0
    attempts = 0
    while rejected < 50 and attempts < 1000:
        attempts += 1
        table = dict(base)
        key = (r.randrange(1, 5), r.randrange(1, 5), r.randrange(1, 5))
        delta = Fraction(r.choice([-2, -1, 1, 2]), r.choice([1, 2, 3]))
        table[key] = table.get(key, Fraction(0)) + delta
        try:
            StructureConstants(4, table)
        except AssociativityError:
            rejected += 1
    validator_ok = rejected == 50
    ok = pairs_ok and validator_ok
    announce(10, ok, "matrix-unit brackets (16 pairs) + 50 rejected perturbed tables")
    assert ok
