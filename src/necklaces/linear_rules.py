"""Linear double brackets built from associative structure constants.

For an associative multiplication x_i x_j = sum_k a_ij^k x_k the rule

    {{x_i, x_j}} = sum_k a_ij^k x_k (x) 1  -  a_ji^k 1 (x) x_k

is a double bracket of degree -1, and the degree-1 part of the induced
necklace Lie algebra is the commutator Lie algebra of the multiplication.
Non-associative tables are rejected at construction, since they do not give
a Jacobi-consistent bracket.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from .brackets import BracketRule, necklace_bracket
from .elements import Necklace, NecklaceElement, TensorElement, _coeff, _excerpt, parse_rational
from .elements import format_element
from .report import CheckReport
from .words import EMPTY_WORD, Letter, Word, unstarred


class AssociativityError(ValueError):
    def __init__(self, i, j, k, s):
        self.indices = (i, j, k, s)
        super().__init__(
            f"structure constants are not associative: "
            f"(x{i} x{j}) x{k} != x{i} (x{j} x{k}) in the x{s} coordinate"
        )


class StructureConstants:
    """Multiplication table a(i,j,k) of an associative algebra, 1-based."""

    __slots__ = ("dim", "a")

    def __init__(self, dim: int, a: dict):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        clean = {}
        for (i, j, k), v in a.items():
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ValueError(f"index out of range in entry {(i, j, k)}")
            v = Fraction(_coeff(v))  # a float, bool or Letter raises TypeError
            if v:
                clean[(i, j, k)] = v
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "a", clean)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("StructureConstants is immutable")

    def coefficient(self, i, j, k) -> Fraction:
        return self.a.get((i, j, k), Fraction(0))

    def _validate(self):
        rows: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j, k), v in self.a.items():
            rows.setdefault((i, j), {})[k] = v
        for i, j, k in itertools.product(range(1, self.dim + 1), repeat=3):
            diff: dict[int, Fraction] = {}  # (x_i x_j) x_k - x_i (x_j x_k)
            for t, c in rows.get((i, j), {}).items():
                for s, c2 in rows.get((t, k), {}).items():
                    diff[s] = diff.get(s, 0) + c * c2
            for t, c in rows.get((j, k), {}).items():
                for s, c2 in rows.get((i, t), {}).items():
                    diff[s] = diff.get(s, 0) - c * c2
            bad = [s for s, v in diff.items() if v]
            if bad:
                raise AssociativityError(i, j, k, min(bad))

    def commutator(self, i: int, j: int) -> dict[int, Fraction]:
        """[x_i, x_j] as coefficients on the basis."""
        out = {}
        for k in range(1, self.dim + 1):
            c = self.coefficient(i, j, k) - self.coefficient(j, i, k)
            if c:
                out[k] = c
        return out

    @classmethod
    def from_json(cls, text: str) -> "StructureConstants":
        """{"dim": n, "a": [[i, j, k, "p/q"], ...]}; omitted entries are 0."""
        integer = lambda s: int(parse_rational(s))  # bounded in digits like every number
        data = json.loads(text, parse_float=parse_rational, parse_int=integer)
        if not isinstance(data, dict):
            raise ValueError("a rule file must hold a JSON object")
        dim = data.get("dim")
        if type(dim) is not int:
            raise ValueError(f'"dim" must be an integer, got {_excerpt(repr(dim))}')
        entries = data.get("a", [])
        if not isinstance(entries, list):
            raise ValueError('"a" must be a list of [i, j, k, value] entries')
        table = {}
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 4:
                raise ValueError(
                    f'each entry of "a" must be [i, j, k, value], got {_excerpt(str(entry))}'
                )
            i, j, k, v = entry
            if any(type(x) is not int for x in (i, j, k)):
                raise ValueError(
                    f'the indices of entry {_excerpt(str(entry))} of "a" must be integers'
                )
            try:
                if isinstance(v, bool):  # Fraction(True) would read as 1
                    raise TypeError
                table[(i, j, k)] = parse_rational(v)
            except (TypeError, OverflowError):
                raise ValueError(
                    f'the value of entry {_excerpt(str(entry))} of "a" is not a number'
                ) from None
        return cls(dim, table)


def linear_rule(sc: StructureConstants, names=None) -> BracketRule:
    """The degree -1 double bracket attached to an associative table, from
    one pass over the nonzero constants: a_ij^k puts x_k (x) 1 into
    {{x_i, x_j}} and -1 (x) x_k into {{x_j, x_i}}."""
    table: dict = {}
    for (i, j, k), c in sc.a.items():
        xk = Word([Letter(k)])
        table.setdefault((Letter(i), Letter(j)), {})[(xk, EMPTY_WORD)] = c
        table.setdefault((Letter(j), Letter(i)), {})[(EMPTY_WORD, xk)] = -c
    return BracketRule(
        unstarred(sc.dim), {pair: TensorElement(t) for pair, t in table.items()}, names=names
    )


def matrix_unit_index(n: int, i: int, j: int) -> int:
    """Generator index of the matrix unit e_ij inside the n x n table."""
    return (i - 1) * n + j


def gl_constants(n: int) -> StructureConstants:
    """Structure constants of the full n x n matrix algebra: e_ij e_jl = e_il,
    and every other product of matrix units is zero."""
    r = range(1, n + 1)
    unit = {(i, j): matrix_unit_index(n, i, j) for i in r for j in r}
    table = {(unit[i, j], unit[j, l], unit[i, l]): 1 for i in r for j in r for l in r}
    return StructureConstants(n * n, table)


def matrix_unit_names(n: int) -> dict[Letter, str]:
    return {
        Letter(matrix_unit_index(n, i, j)): f"e{i}{j}"
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }


def ngl(n: int) -> BracketRule:
    """The linear rule of the matrix algebra on n^2 beads e_ij:
    {{e_ij, e_kl}} = delta_jk e_il (x) 1 - delta_il 1 (x) e_kj."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return linear_rule(gl_constants(n), names=matrix_unit_names(n))


def check_degree1_commutator(sc: StructureConstants, rule: BracketRule | None = None) -> CheckReport:
    """Degree-1 necklace brackets must equal commutators of the multiplication;
    a failing entry gives both, in the rule's bead names."""
    if rule is None:
        rule = linear_rule(sc)
    report = CheckReport(f"degree-1 commutator correspondence, dim={sc.dim}")
    bead = lambda k: Necklace.of(Word([Letter(k)]))
    shown = lambda e: format_element(e, rule.names)
    for i in range(1, sc.dim + 1):
        for j in range(1, sc.dim + 1):
            got = necklace_bracket(rule, bead(i), bead(j))
            expected = NecklaceElement({bead(k): c for k, c in sc.commutator(i, j).items()})
            detail = "" if got == expected else f"got {shown(got)}, expected {shown(expected)}"
            report.add(f"{{x{i}, x{j}}}", not detail, detail)
    return report
