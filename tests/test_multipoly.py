from fractions import Fraction

import pytest

from necklaces.multipoly import Polynomial, PolyMatrix, symplectic_poisson

X = Polynomial.variable("x")
Y = Polynomial.variable("y")


def test_arithmetic():
    p = (X + Y) * (X - Y)
    assert p == X**2 - Y**2
    assert (X + 1) ** 2 == X**2 + 2 * X + 1
    assert p - p == Polynomial.zero()
    assert (2 * X) / 2 == X
    assert X * 0 == Polynomial.zero()
    assert 3 - X == -X + 3 and repr(3 - X) == "-x + 3"
    assert Polynomial.constant(Fraction(1, 2)) + Polynomial.constant(Fraction(1, 2)) == 1


def test_total_degree_and_variables():
    p = X**3 * Y + 2 * X
    assert p.total_degree() == 4
    assert p.variables() == {"x", "y"}
    assert Polynomial.zero().total_degree() == 0


def test_diff():
    p = X**3 * Y + 2 * X + 5
    assert p.diff("x") == 3 * X**2 * Y + 2
    assert p.diff("y") == X**3
    assert p.diff("z").is_zero


def test_substitute():
    p = X**2 + Y
    assert p.substitute({"x": Y}) == Y**2 + Y
    assert p.substitute({"x": 2, "y": Fraction(1, 2)}) == Fraction(9, 2)
    assert p.substitute({"y": X}) == X**2 + X


def test_repr_deterministic_grlex():
    p = Y + X + X * Y + 1
    assert repr(p) == "x*y + x + y + 1"
    assert repr(X - Y) == "x - y"
    assert repr(Polynomial.zero()) == "0"
    assert repr(-2 * X**2) == "-2*x^2"


def test_float_rejected():
    with pytest.raises(TypeError):
        Polynomial.constant(0.5)
    with pytest.raises(TypeError):
        X * 1.5


def test_symplectic_poisson():
    pairs = [("q", "p")]
    q, p = Polynomial.variable("q"), Polynomial.variable("p")
    assert symplectic_poisson(q, p, pairs) == 1
    assert symplectic_poisson(p, q, pairs) == -1
    assert symplectic_poisson(q * p, q * q, pairs) == -2 * q * q
    # Jacobi on a sample
    f, g, h = q * q, p * p, q * p
    jac = (
        symplectic_poisson(f, symplectic_poisson(g, h, pairs), pairs)
        + symplectic_poisson(g, symplectic_poisson(h, f, pairs), pairs)
        + symplectic_poisson(h, symplectic_poisson(f, g, pairs), pairs)
    )
    assert jac.is_zero


def test_matrix_ops():
    m = PolyMatrix([[X, 1], [0, Y]])
    assert m.trace() == X + Y
    sq = m * m
    assert sq.entries[0][0] == X**2
    assert sq.entries[0][1] == X + Y
    assert (m**0) == PolyMatrix.identity(2)
    assert (m**2) == sq
    assert (m - m).trace().is_zero
    assert repr(PolyMatrix([[1, Y], [0, 2]])) == "[[1, y]; [0, 2]]"


def test_generic_matrix():
    g = PolyMatrix.generic(2, "a")
    assert g.entries[0][1] == Polynomial.variable("a_12")
    assert g.trace() == Polynomial.variable("a_11") + Polynomial.variable("a_22")


def test_cayley_hamilton_2x2():
    # A^2 - tr(A) A + det(A) = 0 for a generic 2x2 matrix
    a = PolyMatrix.generic(2, "a")
    tr = a.trace()
    det = (
        a.entries[0][0] * a.entries[1][1] - a.entries[0][1] * a.entries[1][0]
    )
    lhs = a * a - a * tr + PolyMatrix.identity(2) * det
    assert all(e.is_zero for row in lhs.entries for e in row)


def test_polynomial_is_a_dict_key():
    p = (X + 1) * Y
    table = {p: "p", Polynomial.zero(): "zero"}
    assert table[X * Y + Y] == "p"
    assert table[X - X] == "zero"


def test_scalar_equal_polynomials_hash_like_the_scalar():
    assert {Polynomial.constant(3): 1}[3] == 1
    assert {Polynomial(): 1}[0] == 1
    assert hash(Polynomial.constant(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_powers_match_repeated_products():
    p = X + 2 * Y - 1
    m = PolyMatrix([[X, 1], [Y, 0]])
    for n in range(7):
        want_p, want_m = Polynomial.constant(1), PolyMatrix.identity(2)
        for _ in range(n):
            want_p, want_m = want_p * p, want_m * m
        assert p**n == want_p and m**n == want_m
    with pytest.raises(ValueError):
        p ** -1


def test_equality_with_scalars():
    assert Polynomial.constant(3) == 3
    assert X - X + 3 == 3
    assert Polynomial.constant(Fraction(1, 2)) == Fraction(1, 2)
    assert Polynomial.zero() == 0
    assert X != 3 and X + 3 != 3
