"""Exact trace calculus on generic matrices.

Evaluating cyclic words on generic n x n matrices realizes the necklace
bracket as a Poisson bracket on the trace ring.  For one symbol pair at
n = 2 the trace ring is the polynomial algebra on

    tr(x), tr(x*), tr(x^2), tr((x*)^2), tr(xx*)

and every identity in this module is checked as an exact polynomial
identity in the 8 matrix-entry indeterminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .brackets import BracketRule, center_element, necklace_bracket
from .elements import UNIT_NECKLACE, Necklace, NecklaceElement, _as_necklace_element
from .multipoly import Polynomial, PolyMatrix
from .poisson import TRACE_GENERATORS as GENERATORS
from .report import CheckReport
from .words import Word


def generic_matrices(d: int, n: int) -> list[PolyMatrix]:
    """2d generic n x n matrices in letter order x1, x1*, x2, x2*, ...

    The matrix for x_i uses indeterminates xi_rc, the one for x_i* uses
    xis_rc; all 2d n^2 names are distinct.
    """
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    mats = []
    for i in range(1, d + 1):
        mats.append(PolyMatrix.generic(n, f"x{i}"))
        mats.append(PolyMatrix.generic(n, f"x{i}s"))
    return mats


def word_matrix(w: Word, mats) -> PolyMatrix:
    n = mats[0].size
    out = PolyMatrix.identity(n)
    for a in w:
        if a.code >= len(mats):
            raise ValueError(f"letter {a.name} has no matrix")
        out = out * mats[a.code]
    return out


def trace_of(e, mats) -> Polynomial:
    """Trace of a necklace element on the given matrices; rotation-invariant
    and linear, with the unit necklace mapping to the matrix size."""
    out: dict = {}
    for neck, c in _as_necklace_element(e).terms.items():
        for m, v in word_matrix(neck, mats).trace().terms.items():
            out[m] = out.get(m, 0) + c * v
    return Polynomial(out)


def abelianize(e) -> Polynomial:
    """The n = 1 trace map: each necklace becomes a commutative monomial in
    variables named after the letters."""
    out: dict = {}
    for neck, c in _as_necklace_element(e).terms.items():
        mono = Polynomial.constant(c)
        for a in neck:
            mono = mono * Polynomial.variable(a.name)
        for m, v in mono.terms.items():
            out[m] = out.get(m, 0) + v
    return Polynomial(out)


@lru_cache(maxsize=None)
def _mats2() -> tuple[PolyMatrix, PolyMatrix]:
    x, xs = generic_matrices(1, 2)
    return x, xs


# the necklaces whose traces are the five generators, in GENERATORS' order
_TABLE2_NECKLACES = ("x1", "x1*", "x1x1", "x1*x1*", "x1x1*")


@lru_cache(maxsize=None)
def generator_polynomials() -> dict[str, Polynomial]:
    """The five trace generators as polynomials in the 8 indeterminates."""
    mats = _mats2()
    return {g: trace_of(w, mats) for g, w in zip(GENERATORS, _TABLE2_NECKLACES)}


_NECKLACE_TO_GENERATOR = {
    UNIT_NECKLACE: None,  # unit: tr(identity) = 2
    **{Necklace.of(w): g for g, w in zip(GENERATORS, _TABLE2_NECKLACES)},
}


@dataclass
class InducedBracket:
    """Poisson bracket of two traced necklaces on n x n matrices.

    `expression` is a polynomial in the trace generators when the result
    could be rewritten (always at n = 1, and at n = 2 whenever the bracket
    lands in degree <= 2); otherwise `reduced` is False and only the raw
    necklace element is provided.
    """

    raw: NecklaceElement
    expression: Polynomial | None
    reduced: bool
    n: int


def induced_bracket(w1, w2, n: int) -> InducedBracket:
    """Necklace bracket followed by the trace map tr with tr(1) = n."""
    raw = necklace_bracket(BracketRule.canonical(1), w1, w2)
    if n == 1:
        return InducedBracket(raw, abelianize(raw), True, 1)
    if n != 2:
        raise ValueError("only n = 1 and n = 2 are supported")
    expr: dict = {}
    for neck, c in raw.terms.items():
        if neck not in _NECKLACE_TO_GENERATOR:
            return InducedBracket(raw, None, False, 2)
        gen = _NECKLACE_TO_GENERATOR[neck]
        term = Polynomial.constant(2 * c) if gen is None else Polynomial.variable(gen) * c
        for m, v in term.terms.items():
            expr[m] = expr.get(m, 0) + v
    return InducedBracket(raw, Polynomial(expr), True, 2)


@dataclass
class Table2:
    generators: tuple[str, ...]
    entries: list[list[Polynomial]]

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]

    def is_antisymmetric(self) -> bool:
        k = len(self.generators)
        return all(
            self.entries[i][j] == -self.entries[j][i]
            for i in range(k)
            for j in range(k)
        )

    def strings(self) -> list[list[str]]:
        return [[repr(e) for e in row] for row in self.entries]


def table2() -> Table2:
    """The 5 x 5 bracket table of the trace generators at n = 2."""
    entries = []
    for a in _TABLE2_NECKLACES:
        row = []
        for b in _TABLE2_NECKLACES:
            got = induced_bracket(a, b, 2)
            if not got.reduced:
                raise ArithmeticError(f"bracket of {a}, {b} left the generator range")
            row.append(got.expression)
        entries.append(row)
    return Table2(GENERATORS, entries)


def _homogeneous_parts(e: NecklaceElement) -> dict[int, NecklaceElement]:
    parts: dict[int, dict] = {}
    for neck, c in e.terms.items():
        parts.setdefault(neck.degree, {})[neck] = c
    return {k: NecklaceElement(v) for k, v in parts.items()}


def _candidate_exponents(degree: int):
    """Exponent tuples over the five generators with weighted degree equal
    to `degree`."""
    out = []
    for c in range(degree // 2 + 1):
        for dd in range(degree // 2 - c + 1):
            for e5 in range(degree // 2 - c - dd + 1):
                rest = degree - 2 * (c + dd + e5)
                for a in range(rest + 1):
                    out.append((a, rest - a, c, dd, e5))
    return out


def express_in_trace_generators(e, max_degree: int = 4) -> Polynomial:
    """Rewrite the trace of a necklace element (degree <= max_degree) as a
    polynomial in the five generators, by exact linear solve against the
    generic-matrix evaluation.  The result is verified by substitution."""
    e = _as_necklace_element(e)
    gens = generator_polynomials()
    gen_list = [gens[name] for name in GENERATORS]
    terms: dict = {}
    for degree, part in _homogeneous_parts(e).items():
        if degree > max_degree:
            raise ValueError(f"degree {degree} exceeds the rewriting bound {max_degree}")
        target = trace_of(part, list(_mats2()))
        if target.is_zero:
            continue
        exponents = _candidate_exponents(degree)
        evaluated = []
        for exps in exponents:
            p = Polynomial.constant(1)
            for g, ex in zip(gen_list, exps):
                if ex:
                    p = p * g**ex
            evaluated.append(p)
        monomials = sorted(
            {m for p in evaluated for m in p.terms} | set(target.terms)
        )
        index = {m: i for i, m in enumerate(monomials)}
        a = [[Fraction(0)] * len(evaluated) for _ in monomials]
        for j, p in enumerate(evaluated):
            for m, c in p.terms.items():
                a[index[m]][j] = c
        b = [Fraction(0)] * len(monomials)
        for m, c in target.terms.items():
            b[index[m]] = c
        solution = linalg.solve_unique(a, b)
        if solution is None:
            raise ArithmeticError("trace is not a polynomial in the five generators")
        for exps, coeff in zip(exponents, solution):
            if not coeff:
                continue
            mono = Polynomial.constant(coeff)
            for name, ex in zip(GENERATORS, exps):
                if ex:
                    mono = mono * Polynomial.variable(name, ex)
            for m, v in mono.terms.items():
                terms[m] = terms.get(m, 0) + v
    result = Polynomial(terms)
    # certify: substituting the generator polynomials reproduces the trace
    check = result.substitute(generator_polynomials())
    if check != trace_of(e, list(_mats2())):
        raise ArithmeticError("generator rewriting failed verification")
    return result


def verify_cayley_hamilton(nmax: int = 2) -> CheckReport:
    """tr([x,x*]^{2n}) = 2^{1-n} tr([x,x*]^2)^n and odd traces vanish, as
    exact identities in the 8 indeterminates of two generic 2x2 matrices."""
    if not 1 <= nmax <= 3:
        raise ValueError("nmax must be between 1 and 3")
    x, xs = _mats2()
    m = x * xs - xs * x
    report = CheckReport("Cayley-Hamilton consequences at n=2")
    m2 = m * m
    tr2 = m2.trace()
    report.add("tr([x,x*]) = 0", m.trace().is_zero)
    power = PolyMatrix.identity(2)
    for k in range(1, nmax + 1):
        power = power * m2  # power = m^{2k}
        lhs = power.trace()
        rhs = tr2**k * Fraction(2) ** (1 - k)
        report.add(f"tr([x,x*]^{2 * k}) = 2^(1-{k}) tr([x,x*]^2)^{k}", lhs == rhs)
        odd = (power * m).trace()
        report.add(f"tr([x,x*]^{2 * k + 1}) = 0", odd.is_zero)
    return report


def casimir_polynomial() -> Polynomial:
    """The Casimir H'^2 + 4E'F' written in the five trace generators."""
    t1 = Polynomial.variable("tr(x)")
    t2 = Polynomial.variable("tr(x*)")
    t3 = Polynomial.variable("tr(x^2)")
    t4 = Polynomial.variable("tr((x*)^2)")
    t5 = Polynomial.variable("tr(xx*)")
    h = t5
    e = t4 / 2
    f = -t3 / 2
    xx = t2
    yy = -t1
    hp = h + xx * yy / 2
    ep = e - xx * xx / 4
    fp = f + yy * yy / 4
    return hp * hp + 4 * ep * fp


def stated_casimir_expression() -> Polynomial:
    """tr(x)tr(x*)tr(xx*) - tr(xx*)^2 + tr(x^2)tr((x*)^2)
    - (tr(x^2)tr(x*)^2 + tr(x)^2 tr((x*)^2))/2, i.e. the generator
    expression for tr(x^2(x*)^2) - tr((xx*)^2)."""
    t1 = Polynomial.variable("tr(x)")
    t2 = Polynomial.variable("tr(x*)")
    t3 = Polynomial.variable("tr(x^2)")
    t4 = Polynomial.variable("tr((x*)^2)")
    t5 = Polynomial.variable("tr(xx*)")
    return t1 * t2 * t5 - t5 * t5 + t3 * t4 - (t3 * t2 * t2 + t1 * t1 * t4) / 2


def casimir_image() -> CheckReport:
    """Where the central elements land in the trace ring at n = 2.

    The expansion [x,x*]^2 = xx*xx* - xx*x*x - x*xxx* + x*xx*x gives
    tr([x,x*]^2) = 2tr((xx*)^2) - 2tr(x^2(x*)^2), which is -2 times the
    expression returned by stated_casimir_expression(); that expression in
    turn equals -(H'^2 + 4E'F').  Hence c_2 maps to +2(H'^2 + 4E'F'); the
    report records both the exact identities and the two audited variants
    claiming tr([x,x*]^2) itself equals the stated expression (equivalently
    that c_2 maps to -(H'^2 + 4E'F')), which fail by the factor -2.
    """
    stated = stated_casimir_expression()
    casimir = casimir_polynomial()
    gens = generator_polynomials()
    mats = list(_mats2())
    report = CheckReport("Casimir image of the central elements at n=2")
    c2_trace = trace_of(center_element(1, 2), mats)
    report.add(
        "stated expression equals -(H'^2 + 4E'F')",
        stated == -casimir,
    )
    report.add(
        "stated expression equals tr(x^2(x*)^2) - tr((xx*)^2)",
        stated.substitute(gens)
        == trace_of("xxx*x*", mats) - trace_of("xx*xx*", mats),
    )
    report.add(
        "tr([x,x*]^2) equals -2 times the stated expression",
        (-2 * stated).substitute(gens) == c2_trace,
    )
    report.add(
        "image of c_2 equals 2(H'^2 + 4E'F')",
        (2 * casimir).substitute(gens) == c2_trace,
    )
    report.add(
        "image of c_4 equals 2(H'^2 + 4E'F')^2",
        (2 * casimir**2).substitute(gens) == trace_of(center_element(1, 4), mats),
    )
    report.add(
        "image of c_3 is 0",
        trace_of(center_element(1, 3), mats).is_zero,
    )
    return report


def casimir_image_as_displayed() -> CheckReport:
    """The two variant identities without the -2 factor: tr([x,x*]^2) equal
    to the stated expression, equivalently c_2 mapping to -(H'^2 + 4E'F').

    Kept separate from casimir_image() because they are off by the factor
    -2 on generic matrices (the expansion of [x,x*]^2 has four terms, two
    of each cyclic class); running this report documents exactly that.
    """
    stated = stated_casimir_expression()
    casimir = casimir_polynomial()
    gens = generator_polynomials()
    c2_trace = trace_of(center_element(1, 2), list(_mats2()))
    report = CheckReport("displayed Casimir image variants")
    report.add(
        "tr([x,x*]^2) equals the stated expression",
        stated.substitute(gens) == c2_trace,
        "true relation: tr([x,x*]^2) = -2 (stated expression)",
    )
    report.add(
        "image of c_2 equals -(H'^2 + 4E'F')",
        (-casimir).substitute(gens) == c2_trace,
    )
    return report


def witness_matrices(lam) -> tuple[PolyMatrix, PolyMatrix]:
    """The 3 x 3 pair whose commutator is diag(lam, -2 lam, lam)."""
    lam = Fraction(lam)
    x = PolyMatrix([[0, lam, 0], [0, 0, -lam], [0, 0, 0]])
    xs = PolyMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    return x, xs


def center_witness(n: int, lam) -> int | Fraction:
    """Evaluate the n-th central element on the 3 x 3 witness pair; c_0 is
    the unit necklace, whose trace is 3."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x, xs = witness_matrices(lam)
    value = trace_of(center_element(1, n), [x, xs])
    assert value.total_degree() == 0
    return value.constant_term()


TAU1 = "[(2,1)]"
TAU2 = "[(1,1);(1,1)]"
TAU3 = "[(1,2)]"


@dataclass
class LeafClass:
    """Symplectic-leaf and representation-type classification of a point."""

    leaf: str  # "S_lambda", "S_0'" or "S_0''"
    luna_type: str
    casimir: object  # exact Fraction or float/complex
    primed: tuple  # (E', F', H')

    def __str__(self):
        if self.leaf == "S_lambda":
            return f"S_lambda with lambda = {self.casimir}, Luna type {self.luna_type}"
        return f"{self.leaf}, Luna type {self.luna_type}"


def classify_point(coords, tol=None) -> LeafClass:
    """Classify (X, Y, E, F, H).

    Exact rational coordinates are classified exactly; float or complex
    coordinates use `tol` (default 1e-9) for the vanishing tests.
    """
    if len(coords) != 5:
        raise ValueError("expected coordinates (X, Y, E, F, H)")
    exact = all(isinstance(v, (int, Fraction)) for v in coords)
    xx, yy, e, f, h = (Fraction(v) if exact else v for v in coords)
    ep = e - xx * xx / 4
    fp = f + yy * yy / 4
    hp = h + xx * yy / 2
    casimir = hp * hp + 4 * ep * fp
    threshold = 0 if exact else (1e-9 if tol is None else tol)
    is_zero = lambda v: abs(v) <= threshold

    if is_zero(ep) and is_zero(fp) and is_zero(hp):
        return LeafClass("S_0''", TAU3, casimir, (ep, fp, hp))
    if is_zero(casimir):
        return LeafClass("S_0'", TAU2, casimir, (ep, fp, hp))
    return LeafClass("S_lambda", TAU1, casimir, (ep, fp, hp))
