"""Exact trace calculus on generic matrices.

Evaluating cyclic words on generic n x n matrices realizes the necklace
bracket as a Poisson bracket on the trace ring.  For one symbol pair at
n = 2 the trace ring is the polynomial algebra on

    tr(x), tr(x*), tr(x^2), tr((x*)^2), tr(xx*)

and every identity in this module is checked as an exact polynomial
identity in the 8 matrix-entry indeterminates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import linalg, poisson
from .brackets import BracketRule, center_element, necklace_bracket
from .elements import _as_necklace_element, _coeff
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
    and linear, with the unit necklace mapping to the matrix size.

    Words with a common prefix share its product: each prefix's matrix is
    kept, and a prefix one letter longer costs one product with that
    letter's matrix."""
    if not mats:
        raise ValueError("need at least one matrix")
    prefix = {(): PolyMatrix.identity(mats[0].size)}
    out: dict = {}
    for neck, c in _as_necklace_element(e).terms.items():
        m = prefix[()]
        for i, a in enumerate(neck, 1):
            key = neck[:i]
            got = prefix.get(key)
            if got is None:
                if a.code >= len(mats):
                    raise ValueError(f"letter {a.name} has no matrix")
                got = prefix[key] = m * mats[a.code]
            m = got
        for mono, v in m.trace().terms.items():
            out[mono] = out.get(mono, 0) + c * v
    return Polynomial(out)


@lru_cache(maxsize=None)
def _mats2() -> tuple[PolyMatrix, PolyMatrix]:
    return tuple(generic_matrices(1, 2))


# the necklaces whose traces are the five generators, in GENERATORS' order
_TABLE2_NECKLACES = ("x1", "x1*", "x1x1", "x1*x1*", "x1x1*")


@lru_cache(maxsize=None)
def generator_polynomials() -> dict[str, Polynomial]:
    """The five trace generators as polynomials in the 8 indeterminates."""
    return {g: trace_of(w, _mats2()) for g, w in zip(GENERATORS, _TABLE2_NECKLACES)}


def table2() -> poisson.PoissonPolyAlgebra:
    """The 5 x 5 bracket table of the trace generators at n = 2: each cell
    is the necklace bracket of two generator necklaces, rewritten in the
    generators.  Construction refuses a table that is not antisymmetric or
    fails Jacobi on a generator triple, naming the cell or triple."""
    rule = BracketRule.canonical(1)
    cells = [
        [express_in_trace_generators(necklace_bracket(rule, a, b)) for b in _TABLE2_NECKLACES]
        for a in _TABLE2_NECKLACES
    ]
    return poisson.PoissonPolyAlgebra(GENERATORS, cells)


def express_in_trace_generators(e) -> Polynomial:
    """Rewrite the trace of a necklace element of degree <= 4 as a
    polynomial in the five generators, by one exact linear solve over the
    generator monomials of weighted degree <= its top degree; the result is
    verified by substitution."""
    e = _as_necklace_element(e)
    top = max((neck.degree for neck in e.terms), default=0)
    if top > 4:
        raise ValueError(f"degree {top} exceeds the rewriting bound 4")
    # tr(x) and tr(x*) weigh 1, the other three generators 2
    monomials = [
        tuple(sorted((g, k) for g, k in zip(GENERATORS, exps) if k))
        for exps in product(range(top + 1), repeat=len(GENERATORS))
        if exps[0] + exps[1] + 2 * sum(exps[2:]) <= top
    ]
    gens = generator_polynomials()
    evaluated = [Polynomial({m: 1}).substitute(gens) for m in monomials]
    target = trace_of(e, _mats2())
    rows = sorted({m for p in (target, *evaluated) for m in p.terms})
    solution = linalg.solve_unique(
        [[p.terms.get(m, 0) for p in evaluated] for m in rows],
        [target.terms.get(m, 0) for m in rows],
    )
    if solution is None:
        raise ArithmeticError("trace is not a polynomial in the five generators")
    result = Polynomial(dict(zip(monomials, solution)))
    # certify: substituting the generator polynomials reproduces the trace
    if result.substitute(gens) != target:
        raise ArithmeticError("generator rewriting failed verification")
    return result


def verify_cayley_hamilton() -> CheckReport:
    """tr([x,x*]^{2n}) = 2^{1-n} tr([x,x*]^2)^n for n = 1, 2 and the odd
    traces up to tr([x,x*]^5) vanish, as exact identities in the 8
    indeterminates of two generic 2x2 matrices."""
    x, xs = _mats2()
    m = x * xs - xs * x
    report = CheckReport("Cayley-Hamilton consequences at n=2")
    m2 = m * m
    tr2 = m2.trace()
    report.add("tr([x,x*]) = 0", m.trace().is_zero)
    power = PolyMatrix.identity(2)
    for k in (1, 2):
        power = power * m2  # power = m^{2k}
        lhs = power.trace()
        rhs = tr2**k * Fraction(2) ** (1 - k)
        report.add(f"tr([x,x*]^{2 * k}) = 2^(1-{k}) tr([x,x*]^2)^{k}", lhs == rhs)
        odd = (power * m).trace()
        report.add(f"tr([x,x*]^{2 * k + 1}) = 0", odd.is_zero)
    return report


def casimir_polynomial() -> Polynomial:
    """The Casimir H'^2 + 4E'F' written in the five trace generators."""
    return poisson.casimir().substitute(poisson.semidirect_coordinates())


def stated_casimir_expression() -> Polynomial:
    """The stated generator expression for tr(x^2(x*)^2) - tr((xx*)^2):
    tr(x)tr(x*)tr(xx*) - tr(xx*)^2 + tr(x^2)tr((x*)^2)
    - (tr(x^2)tr(x*)^2 + tr(x)^2 tr((x*)^2))/2."""
    t1, t2, t3, t4, t5 = (Polynomial.variable(g) for g in GENERATORS)
    return t1 * t2 * t5 - t5 * t5 + t3 * t4 - (t3 * t2 * t2 + t1 * t1 * t4) / 2


def casimir_image() -> CheckReport:
    """Where the central elements land in the trace ring at n = 2.

    The expansion [x,x*]^2 = xx*xx* - xx*x*x - x*xxx* + x*xx*x gives
    tr([x,x*]^2) = 2tr((xx*)^2) - 2tr(x^2(x*)^2), which is -2 times the
    expression returned by stated_casimir_expression(); that expression in
    turn equals -(H'^2 + 4E'F').  Hence c_2 maps to +2(H'^2 + 4E'F'); the
    report records these exact identities.  The two audited variants, which
    claim that tr([x,x*]^2) itself equals the stated expression (equivalently
    that c_2 maps to -(H'^2 + 4E'F')) and fail by the factor -2, are
    recorded by casimir_image_as_displayed().
    """
    stated = stated_casimir_expression()
    casimir = casimir_polynomial()
    gens = generator_polynomials()
    mats = _mats2()
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
    c2_trace = trace_of(center_element(1, 2), _mats2())
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
    lam = _coeff(lam)  # a float or bool raises TypeError
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


class LeafClass:
    """Symplectic-leaf and representation-type classification of a point.

    `leaf` is "S_lambda", "S_0'" or "S_0''"; `casimir` is the exact value
    of H'^2 + 4E'F' at the point; `primed` is (E', F', H').
    """

    __slots__ = ("leaf", "luna_type", "casimir", "primed")

    def __init__(self, leaf: str, luna_type: str, casimir, primed: tuple):
        self.leaf, self.luna_type, self.casimir, self.primed = leaf, luna_type, casimir, primed

    def __str__(self):
        if self.leaf == "S_lambda":
            return f"S_lambda with lambda = {self.casimir}, Luna type {self.luna_type}"
        return f"{self.leaf}, Luna type {self.luna_type}"


def classify_point(coords) -> LeafClass:
    """Classify (X, Y, E, F, H) with exact rational coordinates, by
    evaluating the primed generators and the Casimir at the point; a float
    or complex coordinate raises TypeError."""
    if len(coords) != 5:
        raise ValueError("expected coordinates (X, Y, E, F, H)")
    point = dict(zip(poisson.SEMIDIRECT_GENERATORS, coords))
    primed = poisson.primed_generators()
    value = lambda p: p.substitute(point).constant_term()
    ep, fp, hp = (value(primed[g]) for g in ("E'", "F'", "H'"))
    c = value(poisson.casimir())
    if not (ep or fp or hp):
        return LeafClass("S_0''", TAU3, c, (ep, fp, hp))
    if not c:
        return LeafClass("S_0'", TAU2, c, (ep, fp, hp))
    return LeafClass("S_lambda", TAU1, c, (ep, fp, hp))
