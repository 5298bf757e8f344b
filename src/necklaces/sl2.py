"""Weight-space decomposition of the necklace space for one symbol pair.

For d = 1 the degree-2 component acts as sl2 via E = (x*)^2/2, F = -x^2/2,
H = xx*, and every homogeneous component splits into highest weight modules
V_k.  Three independent routes to the multiplicities are implemented:

  * the closed formula (binomials, divisor sums, Moebius function),
  * weight-space dimension counting over the necklace basis,
  * exact ranks of the E-action between adjacent weight spaces.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import linalg
from .brackets import BracketRule, necklace_bracket
from .counting import binary_necklace_count, binomial, enumerate_necklaces
from .elements import Necklace, NecklaceElement
from .multipoly import symplectic_poisson
from .report import CheckReport
from .traces import generic_matrices, trace_of


# the sl2 triple (E, F, H) of necklace elements; immutable and hashable
Sl2Generators = namedtuple("Sl2Generators", "E F H")


def sl2_generators() -> Sl2Generators:
    """E = (x*)^2/2, F = -x^2/2, H = xx* as necklace elements (d = 1)."""
    return Sl2Generators(
        E=NecklaceElement.of("x*x*", Fraction(1, 2)),
        F=NecklaceElement.of("xx", Fraction(-1, 2)),
        H=NecklaceElement.of("xx*"),
    )


def word_weight(w) -> int:
    """H-eigenvalue of a word: deg_{x*} - deg_x."""
    return w.deg_starred() - w.deg_unstarred()


def tensor_multiplicity(n: int, m: int) -> int:
    """Multiplicity of V_{n-2m} in the n-th tensor power of the 2-dim
    standard module: C(n,m) - C(n,m-1)."""
    if not 0 <= 2 * m <= n:
        raise ValueError("need 0 <= m <= n/2")
    return binomial(n, m) - binomial(n, m - 1)


def _commutator_weight_count(n: int, m: int) -> int:
    """Dimension of the weight-(n-2m) slice of the commutator subspace:
    words minus necklaces, both counted by closed formulas."""
    return binomial(n, m) - binary_necklace_count(n, m)


def cn_multiplicity(n: int, m: int) -> int:
    """Multiplicity of V_{n-2m} in the commutator subspace of the n-th
    tensor power (difference of adjacent weight-slice counts)."""
    if not 0 <= 2 * m <= n:
        raise ValueError("need 0 <= m <= n/2")
    return _commutator_weight_count(n, m) - _commutator_weight_count(n, m - 1)


def multiplicity_formula(n: int, m: int) -> int:
    """Closed multiplicity of V_{n-2m} in the degree-n necklace component."""
    if n < 1:
        raise ValueError("n must be >= 1")
    value = tensor_multiplicity(n, m) - cn_multiplicity(n, m)
    if value < 0:
        raise ArithmeticError(f"negative multiplicity at (n={n}, m={m})")
    return value


class WeightDecomposition:
    """Multiplicities of the highest weight modules inside one degree; zero
    multiplicities are dropped here, so equal maps mean equal decompositions."""

    __slots__ = ("degree", "multiplicities")

    def __init__(self, degree: int, multiplicities: dict[int, int]):
        self.degree = degree
        self.multiplicities = {w: m for w, m in multiplicities.items() if m}

    def __repr__(self):
        return f"WeightDecomposition({self.degree!r}, {self.multiplicities!r})"

    def multiplicity(self, weight: int) -> int:
        return self.multiplicities.get(weight, 0)

    def dimension(self) -> int:
        return sum(m * (w + 1) for w, m in self.multiplicities.items())

    def summand_count(self) -> int:
        return sum(self.multiplicities.values())

    def __eq__(self, other):
        return isinstance(other, WeightDecomposition) and (
            (self.degree, self.multiplicities) == (other.degree, other.multiplicities)
        )


def weight_basis(n: int) -> dict[int, list[Necklace]]:
    """Degree-n necklaces (d = 1) grouped by H-eigenvalue."""
    spaces: dict[int, list[Necklace]] = {}
    for neck in enumerate_necklaces(1, n):
        spaces.setdefault(word_weight(neck), []).append(neck)
    return spaces


DEFAULT_DEGREE_BOUND = 14


def _e_action_rank(rule, E, source: list[Necklace], target: list[Necklace]) -> int:
    if not source or not target:
        return 0
    index = {neck: i for i, neck in enumerate(target)}
    rows = []
    for neck in source:
        image = necklace_bracket(rule, E, NecklaceElement.of(neck))
        row = [Fraction(0)] * len(target)
        for out, c in image.terms.items():
            row[index[out]] = c
        rows.append(row)
    return linalg.rank(rows)


def decompose_bruteforce(n: int) -> WeightDecomposition:
    """Decompose the degree-n component by weight-space counting, validated
    against exact ranks of the E-action between adjacent weight spaces."""
    if not 1 <= n <= DEFAULT_DEGREE_BOUND:
        raise ValueError(f"degree {n} outside the supported range 1..{DEFAULT_DEGREE_BOUND}")
    spaces = weight_basis(n)
    rule, E = BracketRule.canonical(1), sl2_generators().E
    mults = {}
    for weight in range(n, -1, -2):
        source, target = spaces.get(weight, []), spaces.get(weight + 2, [])
        # E maps each weight space >= 0 onto the next one up, so its kernel,
        # the summands topping here, has dimension len(source) - len(target)
        if _e_action_rank(rule, E, source, target) != len(target):
            raise ArithmeticError(
                f"E-action rank disagrees with counting at degree {n}, weight {weight}"
            )
        mults[weight] = len(source) - len(target)
    return WeightDecomposition(n, mults)


def decompose_by_formula(n: int) -> WeightDecomposition:
    if n < 1:
        raise ValueError("n must be >= 1")
    mults = {n - 2 * m: multiplicity_formula(n, m) for m in range(0, n // 2 + 1)}
    return WeightDecomposition(n, mults)


def table1(max_degree: int) -> list[WeightDecomposition]:
    """Rows of the multiplicity table for degrees 1..max_degree, by the
    formula; decompose_bruteforce is the oracle to compare them with."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return [decompose_by_formula(n) for n in range(1, max_degree + 1)]


def check_low_degree_structure(d: int) -> CheckReport:
    """Certify that degree <= 1 is a Heisenberg algebra and degree 2 is
    sp(2d) acting on it: the n = 1 trace map (x_i -> x{i}_11, x_i* ->
    x{i}s_11) sends the 1 + 2d + d(2d+1) necklaces of degree <= 2 to distinct
    monomials, and on every ordered pair the bracket has degree
    deg n1 + deg n2 - 2 and traces to the symplectic Poisson bracket of the
    traces.  Also the unit is central to degree 3, and for d = 1 the sl2 triple.
    """
    rule = BracketRule.canonical(d)
    mats = generic_matrices(d, 1)
    pairs = [(f"x{i}_11", f"x{i}s_11") for i in range(1, d + 1)]
    report = CheckReport(f"low-degree structure, d={d}")

    low = [n for k in (0, 1, 2) for n in enumerate_necklaces(d, k)]
    traces = {n: trace_of(n, mats) for n in low}
    count = 1 + 2 * d + d * (2 * d + 1)
    monomials = {tuple(t.terms.items()) for t in traces.values()}  # ((monomial, 1),) each
    one_each = all(len(m) == 1 and m[0][1] == 1 for m in monomials)
    label = f"n = 1 trace sends the {count} necklaces of degree <= 2 to distinct monomials"
    report.add(label, one_each and len(low) == count == len(monomials))
    for n1 in low:
        for n2 in low:
            got = necklace_bracket(rule, n1, n2)
            graded = all(k.degree == n1.degree + n2.degree - 2 for k in got.terms)
            pois = symplectic_poisson(traces[n1], traces[n2], pairs)
            report.add(f"{{{n1!r},{n2!r}}}", graded and trace_of(got, mats) == pois)

    unit = NecklaceElement.unit()
    necks = (n for k in range(4) for n in enumerate_necklaces(d, k))
    central = all(necklace_bracket(rule, unit, n).is_zero for n in necks)
    report.add("unit necklace is central", central)

    if d == 1:
        g = sl2_generators()
        report.add("{H,E} = 2E", necklace_bracket(rule, g.H, g.E) == 2 * g.E)
        report.add("{H,F} = -2F", necklace_bracket(rule, g.H, g.F) == -2 * g.F)
        report.add("{E,F} = H", necklace_bracket(rule, g.E, g.F) == g.H)
    return report
