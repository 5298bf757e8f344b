"""Weight-space decomposition of the necklace space for one symbol pair.

For d = 1 the degree-2 component acts as sl2 via E = (x*)^2/2, F = -x^2/2,
H = xx*, and every homogeneous component splits into highest weight modules
V_k.  Three independent routes to the multiplicities are implemented:

  * the closed formula (binomials, divisor sums, Moebius function),
  * weight-space dimension counting over the necklace basis,
  * exact ranks of the E-action between adjacent weight spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .brackets import BracketRule, necklace_bracket
from .counting import binary_necklace_count, binomial, enumerate_necklaces
from .elements import Necklace, NecklaceElement
from .multipoly import symplectic_poisson
from .report import CheckReport
from .traces import abelianize
from .words import Letter, Word, letters


@dataclass(frozen=True)
class Sl2Generators:
    E: NecklaceElement
    F: NecklaceElement
    H: NecklaceElement


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


@dataclass
class WeightDecomposition:
    """Multiplicities of the highest weight modules inside one degree."""

    degree: int
    multiplicities: dict[int, int]

    def multiplicity(self, weight: int) -> int:
        return self.multiplicities.get(weight, 0)

    def dimension(self) -> int:
        return sum(m * (w + 1) for w, m in self.multiplicities.items())

    def summand_count(self) -> int:
        return sum(self.multiplicities.values())

    def __eq__(self, other):
        return (
            isinstance(other, WeightDecomposition)
            and self.degree == other.degree
            and {w: m for w, m in self.multiplicities.items() if m}
            == {w: m for w, m in other.multiplicities.items() if m}
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
    dim = {w: len(v) for w, v in spaces.items()}
    mults = {}
    for m in range(0, n // 2 + 1):
        weight = n - 2 * m
        mults[weight] = dim.get(weight, 0) - dim.get(weight + 2, 0)

    rule = BracketRule.canonical(1)
    E = sl2_generators().E
    for m in range(0, n // 2 + 1):
        weight = n - 2 * m
        source = spaces.get(weight, [])
        target = spaces.get(weight + 2, [])
        r = _e_action_rank(rule, E, source, target)
        # kernel of E on a weight space counts the summands topping there
        if len(source) - r != mults[weight]:
            raise ArithmeticError(
                f"E-action rank disagrees with counting at degree {n}, weight {weight}"
            )
        if weight >= 0 and r != len(target):
            raise ArithmeticError(
                f"E-action is not onto weight {weight + 2} at degree {n}"
            )
    return WeightDecomposition(n, {w: m for w, m in mults.items() if m})


def decompose_by_formula(n: int) -> WeightDecomposition:
    mults = {}
    for m in range(0, n // 2 + 1):
        value = multiplicity_formula(n, m)
        if value:
            mults[n - 2 * m] = value
    return WeightDecomposition(n, mults)


def table1(max_degree: int, validate: bool = False) -> list[WeightDecomposition]:
    """Rows of the multiplicity table for degrees 1..max_degree."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    rows = [decompose_by_formula(n) for n in range(1, max_degree + 1)]
    if validate:
        for row in rows:
            oracle = decompose_bruteforce(row.degree)
            if row != oracle:
                raise ArithmeticError(
                    f"formula and brute-force decomposition disagree at degree {row.degree}"
                )
    return rows


def _symplectic_pairs(d: int) -> list[tuple[str, str]]:
    return [(Letter(i).name, Letter(i, True).name) for i in range(1, d + 1)]


def check_low_degree_structure(d: int) -> CheckReport:
    """Certify the low-degree Lie structure for d symbol pairs.

    (a) degree <= 1 is a Heisenberg algebra: {x_i, x_j*} = delta_ij, the
        unit is central;
    (b) the degree-2 bracket table matches the symplectic Poisson bracket
        of quadratic polynomials under abelianization;
    (c) degree 2 acts on degree <= 1 exactly as quadratic polynomials act
        on linear ones (the semidirect structure).
    """
    if d not in (1, 2):
        raise ValueError("structure checks are sized for d in {1, 2}")
    rule = BracketRule.canonical(d)
    pairs = _symplectic_pairs(d)
    report = CheckReport(f"low-degree structure, d={d}")

    gens = letters(d)
    for a in gens:
        for b in gens:
            got = necklace_bracket(rule, Necklace.of(Word([a])), Necklace.of(Word([b])))
            if a.index == b.index and a.starred != b.starred:
                expected = NecklaceElement.unit(1 if b.starred else -1)
            else:
                expected = NecklaceElement()
            report.add(f"heisenberg {{{a.name},{b.name}}}", got == expected)
    unit = NecklaceElement.unit()
    central = all(
        necklace_bracket(rule, unit, NecklaceElement.of(n)).is_zero
        for k in range(0, 4)
        for n in enumerate_necklaces(d, k)
    )
    report.add("unit necklace is central", central)

    deg2 = enumerate_necklaces(d, 2)
    report.add(
        f"dim of degree-2 component is {d * (2 * d + 1)}",
        len(deg2) == d * (2 * d + 1),
    )
    for n1 in deg2:
        for n2 in deg2:
            lie = abelianize(necklace_bracket(rule, NecklaceElement.of(n1), NecklaceElement.of(n2)))
            pois = symplectic_poisson(abelianize(NecklaceElement.of(n1)),
                                      abelianize(NecklaceElement.of(n2)), pairs)
            report.add(f"sp-bracket {{{n1!r},{n2!r}}}", lie == pois)

    low = [n for k in (0, 1) for n in enumerate_necklaces(d, k)]
    for n2 in deg2:
        for n1 in low:
            got = necklace_bracket(rule, NecklaceElement.of(n2), NecklaceElement.of(n1))
            ok = all(neck.degree <= 1 for neck in got.terms)
            pois = symplectic_poisson(abelianize(NecklaceElement.of(n2)),
                                      abelianize(NecklaceElement.of(n1)), pairs)
            report.add(
                f"semidirect action {{{n2!r},{n1!r}}}",
                ok and abelianize(got) == pois,
            )

    if d == 1:
        g = sl2_generators()
        report.add("{H,E} = 2E", necklace_bracket(rule, g.H, g.E) == 2 * g.E)
        report.add("{H,F} = -2F", necklace_bracket(rule, g.H, g.F) == -2 * g.F)
        report.add("{E,F} = H", necklace_bracket(rule, g.E, g.F) == g.H)
    return report
