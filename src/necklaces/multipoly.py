"""Sparse multivariate polynomials over exact rationals.

A monomial is the sorted tuple of its variable names, one per factor:
x^2*y is ("x", "x", "y"), and p.coefficient(("x", "x", "y")) reads its
coefficient.  A product of monomials is their sorted concatenation, the
degree is the length, and a Polynomial iterates and prints in graded lex
order, the key (-len(m), m).  A monomial grows with
its degree, not its number of variables; degrees here stay at 10 or below,
and no command takes an exponent from the user.  A coefficient is an int,
or a Fraction whose denominator is not 1 (elements._coeff).  Polynomial is
an elements._Combination: it shares that class's zero pruning, addition,
negation and scaling and adds only what is particular to monomials.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .elements import _Combination, _power, _signed_sum

Monomial = tuple[str, ...]

_ONE: Monomial = ()


def _dot(row, col) -> "Polynomial":
    """sum_k row[k] * col[k] over polynomials, summed into one dict."""
    out: dict[Monomial, Fraction] = {}
    for a, b in zip(row, col):
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                m = tuple(sorted(ma + mb))
                out[m] = out.get(m, 0) + ca * cb
    return Polynomial(out)


def _powers(m: Monomial):
    """The (name, exponent) pairs of a monomial, in name order."""
    return [(name, len(list(run))) for name, run in groupby(m)]


class Polynomial(_Combination):
    """A finite map Monomial -> coefficient; int and Fraction operands act as
    constant polynomials."""

    __slots__ = ()

    _order = staticmethod(lambda kv: (-len(kv[0]), kv[0]))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({_ONE: c})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls({(name,): 1})

    def __eq__(self, other):
        # a bool or a Letter is not a scalar: compare unequal, do not raise
        if type(other) is int or isinstance(other, Fraction):
            other = Polynomial.constant(other)
        return super().__eq__(other)

    def __hash__(self):
        # a constant polynomial equals its scalar, so it hashes like it
        if len(self.terms) == 1 and _ONE in self.terms:
            return hash(self.terms[_ONE])
        return super().__hash__()

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return super().__add__(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return super().__sub__(other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _dot((self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, Polynomial.constant(1))

    def total_degree(self) -> int:
        return max(map(len, self.terms), default=0)

    def variables(self) -> set[str]:
        return set().union(*self.terms)

    def constant_term(self) -> int | Fraction:
        return self.terms.get(_ONE, 0)

    def diff(self, name: str) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m.count(name)
            if e:
                i = m.index(name)
                mono = m[:i] + m[i + 1 :]
                out[mono] = out.get(mono, 0) + c * e
        return Polynomial(out)

    def substitute(self, mapping: dict[str, "Polynomial | Fraction | int"]) -> "Polynomial":
        """Simultaneous substitution of variables by polynomials or scalars."""
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            term = Polynomial.constant(c)
            for name, e in _powers(m):
                val = mapping[name] if name in mapping else Polynomial.variable(name)
                if not isinstance(val, Polynomial):
                    val = Polynomial.constant(val)
                term = term * val**e
            for mono, v in term.terms.items():
                out[mono] = out.get(mono, 0) + v
        return Polynomial(out)

    def __repr__(self):
        return _signed_sum(
            (c, "*".join(name if e == 1 else f"{name}^{e}" for name, e in _powers(m)))
            for m, c in self
        )


def symplectic_poisson(f: Polynomial, g: Polynomial, pairs) -> Polynomial:
    """{f, g} = sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i) for a sequence of
    (q_i, p_i) pairs."""
    fd = [d for q, p in pairs for d in (f.diff(q), -f.diff(p))]
    return _dot(fd, [d for q, p in pairs for d in (g.diff(p), g.diff(q))])


class PolyMatrix:
    """A square matrix of polynomials; also used with constant entries."""

    __slots__ = ("size", "entries")

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        norm = [
            [e if isinstance(e, Polynomial) else Polynomial.constant(e) for e in r] for r in rows
        ]
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "entries", norm)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def generic(cls, n: int, prefix: str) -> "PolyMatrix":
        """n x n matrix of fresh indeterminates named prefix_rc."""
        return cls(
            [
                [Polynomial.variable(f"{prefix}_{r + 1}{c + 1}") for c in range(n)]
                for r in range(n)
            ]
        )

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.size == other.size
            and self.entries == other.entries
        )

    def __add__(self, other):
        self._check(other)
        return PolyMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        self._check(other)
        return self + other * -1

    def _check(self, other):
        if not isinstance(other, PolyMatrix) or other.size != self.size:
            raise ValueError("matrix size mismatch")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return PolyMatrix([[e * other for e in row] for row in self.entries])
        self._check(other)
        cols = list(zip(*other.entries))
        return PolyMatrix([[_dot(row, col) for col in cols] for row in self.entries])

    def __pow__(self, k: int):
        return _power(self, k, PolyMatrix.identity(self.size))

    def trace(self) -> Polynomial:
        return sum((self.entries[i][i] for i in range(self.size)), Polynomial.zero())

    def __repr__(self):
        rows = ["[" + ", ".join(map(repr, r)) + "]" for r in self.entries]
        return "[" + "; ".join(rows) + "]"
