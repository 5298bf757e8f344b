import random
from fractions import Fraction

import pytest

from necklaces.multipoly import Polynomial
from necklaces.poisson import (
    SEMIDIRECT_GENERATORS,
    PoissonPolyAlgebra,
    casimir,
    casimir_check,
    change_coordinates,
    primed_generators,
    sl2_heisenberg_algebra,
    trace_generator_algebra,
)
from necklaces.traces import table2


def test_construction_validates_antisymmetry():
    x = Polynomial.variable("a")
    with pytest.raises(ValueError, match="antisymmetric"):
        PoissonPolyAlgebra(("a", "b"), [[0, x], [x, 0]])


def test_construction_validates_jacobi():
    a, b, c = (Polynomial.variable(g) for g in "abc")
    # {a,b} = a, {b,c} = b, {c,a} = c has Jacobi defect a + b + c
    with pytest.raises(ValueError, match="Jacobi"):
        PoissonPolyAlgebra(
            ("a", "b", "c"),
            [[0, a, -c], [-a, 0, b], [c, -b, 0]],
        )
    # the so(3)-style table passes
    PoissonPolyAlgebra(("a", "b", "c"), [[0, c, -b], [-c, 0, a], [b, -a, 0]])


def test_construction_refuses_a_table_of_the_wrong_shape():
    with pytest.raises(ValueError, match="matrix must be square"):
        PoissonPolyAlgebra(("a", "b"), [[0, 1], [-1]])
    with pytest.raises(ValueError, match="table must be square over the generators"):
        PoissonPolyAlgebra(SEMIDIRECT_GENERATORS, [[0] * 4 for _ in range(4)])


def test_trace_preset_matches_engine_table():
    alg = trace_generator_algebra()
    t = table2()
    assert alg.generators == t.generators
    for i in range(5):
        for j in range(5):
            assert alg.table[i][j] == t.table[i][j], (i, j)


def test_bracket_biderivation():
    alg = trace_generator_algebra()
    t1 = alg.variable("tr(x)")
    t4 = alg.variable("tr((x*)^2)")
    t5 = alg.variable("tr(xx*)")
    # {X, Y} with X = tr(x*), Y = -tr(x) comes out to 2
    x = alg.variable("tr(x*)")
    y = -t1
    assert alg.bracket(x, y) == 2
    # Leibniz in each slot
    f, g, h = t1, t4, t5
    assert alg.bracket(f * g, h) == f * alg.bracket(g, h) + alg.bracket(f, h) * g
    assert alg.bracket(f, g * h) == g * alg.bracket(f, h) + alg.bracket(f, g) * h
    assert alg.bracket(f, f).is_zero


def test_bracket_matches_the_double_sum_when_partials_vanish():
    # f and g each miss some generators, so some df/dg_i and dg/dg_j are 0
    alg = sl2_heisenberg_algebra()
    X, Y, E, F, H = (alg.variable(g) for g in SEMIDIRECT_GENERATORS)
    polys = [X, 3 * X * Y + Fraction(1, 2), H * H - E, F * X * X + Y, E * F + H]
    polys.append(Polynomial.constant(7))
    for f in polys:
        for g in polys:
            naive = Polynomial.zero()
            for i, gi in enumerate(SEMIDIRECT_GENERATORS):
                for j, gj in enumerate(SEMIDIRECT_GENERATORS):
                    naive = naive + f.diff(gi) * g.diff(gj) * alg.table[i][j]
            assert alg.bracket(f, g) == naive, (f, g)


def test_semidirect_preset_consistent_with_trace_algebra():
    # substituting the defining identification must transport one table
    # to the other
    trace = trace_generator_algebra()
    semi = sl2_heisenberg_algebra()
    t1, t2, t3, t4, t5 = (Polynomial.variable(g) for g in trace.generators)
    ident = {
        "X": t2,
        "Y": -t1,
        "E": t4 / 2,
        "F": -t3 / 2,
        "H": t5,
    }
    for a in SEMIDIRECT_GENERATORS:
        for b in SEMIDIRECT_GENERATORS:
            lhs = semi.bracket(semi.variable(a), semi.variable(b)).substitute(ident)
            rhs = trace.bracket(ident[a], ident[b])
            assert lhs == rhs, (a, b)


def test_expected_semidirect_relations():
    alg = sl2_heisenberg_algebra()
    v = alg.variable
    assert alg.bracket(v("H"), v("E")) == 2 * v("E")
    assert alg.bracket(v("H"), v("F")) == -2 * v("F")
    assert alg.bracket(v("E"), v("F")) == v("H")
    assert alg.bracket(v("H"), v("X")) == v("X")
    assert alg.bracket(v("H"), v("Y")) == -v("Y")
    assert alg.bracket(v("E"), v("Y")) == v("X")
    assert alg.bracket(v("F"), v("X")) == v("Y")
    assert alg.bracket(v("E"), v("X")).is_zero
    assert alg.bracket(v("F"), v("Y")).is_zero
    assert alg.bracket(v("X"), v("Y")) == 2


def test_change_of_coordinates_decouples():
    report = change_coordinates()
    assert report.ok
    assert len(report.entries) == 10


def test_casimir_central():
    report = casimir_check()
    assert report.ok
    alg = sl2_heisenberg_algebra()
    c = casimir()
    # products of the Casimir stay central (Leibniz)
    assert alg.bracket(c * c, alg.variable("E")).is_zero
    # an arbitrary polynomial in c is central too
    assert alg.bracket(c * c + 3 * c, alg.variable("X")).is_zero


def test_jacobi_on_sampled_polynomials():
    alg = sl2_heisenberg_algebra()
    r = random.Random(33)
    gens = [alg.variable(g) for g in SEMIDIRECT_GENERATORS]

    def rand_poly():
        out = Polynomial.zero()
        for _ in range(3):
            term = Polynomial.constant(Fraction(r.randrange(-4, 5), r.randrange(1, 3)))
            for _ in range(r.randrange(0, 4)):
                term = term * r.choice(gens)
            out = out + term
        return out

    for _ in range(100):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        jac = (
            alg.bracket(f, alg.bracket(g, h))
            + alg.bracket(g, alg.bracket(h, f))
            + alg.bracket(h, alg.bracket(f, g))
        )
        assert jac.is_zero


def test_primed_generators_shape():
    p = primed_generators()
    x = Polynomial.variable("X")
    y = Polynomial.variable("Y")
    assert p["X'"] == x and p["Y'"] == y
    assert p["E'"] == Polynomial.variable("E") - x * x / 4
    assert p["F'"] == Polynomial.variable("F") + y * y / 4
    assert p["H'"] == Polynomial.variable("H") + x * y / 2


def test_the_semidirect_preset_is_built_once_and_shared(monkeypatch):
    alg = sl2_heisenberg_algebra()
    assert sl2_heisenberg_algebra() is alg
    with pytest.raises(TypeError):
        alg.table[0][0] = Polynomial.variable("X")
    # verify decoupling and verify casimir validate the table once between them
    validated = []
    real = PoissonPolyAlgebra._validate
    monkeypatch.setattr(PoissonPolyAlgebra, "_validate", lambda a: validated.append(a) or real(a))
    sl2_heisenberg_algebra.cache_clear()
    assert change_coordinates().ok and casimir_check().ok
    assert len(validated) == 1 and validated[0].generators == SEMIDIRECT_GENERATORS
