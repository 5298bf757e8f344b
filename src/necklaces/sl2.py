"""Weight-space decomposition of the necklace space for one symbol pair.

For d = 1 the degree-2 component acts as sl2 via E = (x*)^2/2, F = -x^2/2,
H = xx*, and every homogeneous component splits into highest weight modules
V_k.  Three independent routes to the multiplicities are implemented:

  * the closed formula (binomials, divisor sums, Moebius function),
  * weight-space dimension counting over the necklace basis,
  * exact ranks of the E-action between adjacent weight spaces.

The last is the oracle for the first, run to DEFAULT_DEGREE_BOUND.  It
applies E without the bracket kernel: E(x) = -x* and E(x*) = 0, and ad(E) is
a derivation, so E stars one x at a time (Stanley's up operator on binary
necklaces), on necklaces held as code strings, one chr(code) per letter.
The test suite pins this image to necklace_bracket with E at every necklace
the oracle reads.  E commutes with word reversal, so each E block splits
into the +1 and -1 eigenspaces of reversal and is ranked as two blocks of
about half the size; every image is still read whole into the target basis.
"""

from __future__ import annotations

from collections import namedtuple

# brackets, traces and elements are read at call time, so that the deferred
# loader compiles them only where they run, not for the formula or the
# oracle; elements._coeff reads "1/2" as a Fraction, so sl2 does not import
# fractions
from . import brackets, elements, linalg, multipoly, report, traces
from .counting import _prenecklace_walk, binary_necklace_count, binomial, enumerate_necklaces
from .words import canonical_rotation, letters


# the sl2 triple (E, F, H) of necklace elements; immutable and hashable
Sl2Generators = namedtuple("Sl2Generators", "E F H")


def sl2_generators() -> Sl2Generators:
    """E = (x*)^2/2, F = -x^2/2, H = xx* as necklace elements (d = 1)."""
    return Sl2Generators(
        E=elements.NecklaceElement.of("x*x*", "1/2"),
        F=elements.NecklaceElement.of("xx", "-1/2"),
        H=elements.NecklaceElement.of("xx*"),
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


DEFAULT_DEGREE_BOUND = 16

# x and x* as code characters: a d = 1 necklace is held as its code string,
# one chr(code) per letter, as brackets.necklace_bracket keys its words
_X, _XS = chr(0), chr(1)
_LETTERS = letters(1)


def _necklace(code: str) -> elements.Necklace:
    """The necklace of a canonical code string, which prints in letters."""
    return elements.Necklace._unchecked([_LETTERS[ord(c)] for c in code])


def _weight_spaces(n: int) -> dict[int, dict[str, str]]:
    """Degree-n necklaces (d = 1) as code strings, grouped by H-eigenvalue
    in enumeration order, each mapped to the code string of its reversal."""
    spaces: dict[int, dict[str, str]] = {}
    for symbols in _prenecklace_walk(1, n):
        code = "".join(map(chr, symbols))
        spaces.setdefault(2 * code.count(_XS) - n, {})[code] = canonical_rotation(code[::-1])
    return spaces


def _e_image(code: str) -> dict[str, int]:
    """E(n) for the code string of a necklace n, as {code: coefficient}.

    The symplectic form gives E(x) = -x* and E(x*) = 0, and ad(E) is a
    derivation, so E(n) is minus the sum, over the positions of x in n, of
    n with that x starred: Stanley's up operator on binary necklaces.
    """
    image: dict[str, int] = {}
    i = code.find(_X)
    while i >= 0:
        m = canonical_rotation(code[:i] + _XS + code[i + 1:])
        image[m] = image.get(m, 0) - 1
        i = code.find(_X, i + 1)
    return image


def _half_row(pair, sign: int, image, columns, partner) -> linalg.SparseRow:
    """The coordinates of E(n) + sign*E(n^rev), summed in `image`, for
    pair = (n, n^rev) or (n,) as code strings, on the target's
    sign-eigenspace of reversal, whose basis vectors m + sign*m^rev are
    indexed by `columns` at the lesser of m, m^rev."""
    row = {}
    for m, c in image.items():
        if not c:
            continue
        if m not in partner or image.get(partner[m], 0) != sign * c:
            label = f" {'+' if sign > 0 else '-'} ".join(repr(_necklace(n)) for n in pair)
            raise ArithmeticError(
                f"E({label}) leaves the {sign:+d} eigenspace of reversal at {_necklace(m)!r}"
            )
        if m in columns:
            row[columns[m]] = c
    return linalg.SparseRow(len(columns), row)


def _e_action_rank(source: dict[str, str], target: dict[str, str]) -> int:
    """Rank of E from the source weight space to the target one, each as
    _weight_spaces gives it.

    Word reversal maps a weight space to itself and commutes with E, so E
    preserves its +1 eigenspace, spanned by the n + n^rev, and its -1
    eigenspace, spanned by the n - n^rev for n not a palindrome.  The rank is
    the sum of the ranks of the two halves, each a block about half as large.
    E(n) and E(n^rev) are computed apart, and every term of each is read: a
    term outside the target, or a pair (m, m^rev) whose coefficients are not
    equal (+1) or opposite (-1), raises and names n.
    """
    if not source or not target:
        return 0
    lesser = [m for m, r in target.items() if m <= r]
    plus = {m: i for i, m in enumerate(lesser)}
    minus = {m: i for i, m in enumerate(m for m in lesser if m != target[m])}
    plus_rows, minus_rows = [], []
    for n, r in source.items():
        if r < n:
            continue  # read with r
        image = _e_image(n)
        if r == n:
            plus_rows.append(_half_row((n,), 1, image, plus, target))
            continue
        total, difference = dict(image), image
        for m, c in _e_image(r).items():
            total[m] = total.get(m, 0) + c
            difference[m] = difference.get(m, 0) - c
        plus_rows.append(_half_row((n, r), 1, total, plus, target))
        minus_rows.append(_half_row((n, r), -1, difference, minus, target))
    return linalg.rank(plus_rows) + linalg.rank(minus_rows)


def decompose_bruteforce(n: int) -> WeightDecomposition:
    """Decompose the degree-n component by weight-space counting, validated
    against exact ranks of the E-action between adjacent weight spaces."""
    if not 1 <= n <= DEFAULT_DEGREE_BOUND:
        raise ValueError(f"degree {n} outside the supported range 1..{DEFAULT_DEGREE_BOUND}")
    spaces = _weight_spaces(n)
    mults = {}
    for weight in range(n, -1, -2):
        source, target = spaces.get(weight, {}), spaces.get(weight + 2, {})
        # E maps each weight space >= 0 onto the next one up, so its kernel,
        # the summands topping here, has dimension len(source) - len(target)
        if _e_action_rank(source, target) != len(target):
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


def check_low_degree_structure(d: int) -> report.CheckReport:
    """Certify that degree <= 1 is a Heisenberg algebra and degree 2 is
    sp(2d) acting on it: the n = 1 trace map (x_i -> x{i}_11, x_i* ->
    x{i}s_11) sends the 1 + 2d + d(2d+1) necklaces of degree <= 2 to distinct
    monomials, and on every ordered pair the bracket has degree
    deg n1 + deg n2 - 2 and traces to the symplectic Poisson bracket of the
    traces.  Also the unit is central to degree 3, and for d = 1 the sl2 triple.
    """
    rule, bracket = brackets.BracketRule.canonical(d), brackets.necklace_bracket
    mats = traces.generic_matrices(d, 1)
    pairs = [(f"x{i}_11", f"x{i}s_11") for i in range(1, d + 1)]
    checks = report.CheckReport(f"low-degree structure, d={d}")

    low = [n for k in (0, 1, 2) for n in enumerate_necklaces(d, k)]
    images = {n: traces.trace_of(n, mats) for n in low}
    count = 1 + 2 * d + d * (2 * d + 1)
    monomials = {tuple(t.terms.items()) for t in images.values()}  # ((monomial, 1),) each
    one_each = all(len(m) == 1 and m[0][1] == 1 for m in monomials)
    label = f"n = 1 trace sends the {count} necklaces of degree <= 2 to distinct monomials"
    checks.add(label, one_each and len(low) == count == len(monomials))
    for n1 in low:
        for n2 in low:
            got = bracket(rule, n1, n2)
            graded = all(k.degree == n1.degree + n2.degree - 2 for k in got.terms)
            pois = multipoly.symplectic_poisson(images[n1], images[n2], pairs)
            checks.add(f"{{{n1!r},{n2!r}}}", graded and traces.trace_of(got, mats) == pois)

    unit = elements.NecklaceElement.unit()
    necks = (n for k in range(4) for n in enumerate_necklaces(d, k))
    central = all(bracket(rule, unit, n).is_zero for n in necks)
    checks.add("unit necklace is central", central)

    if d == 1:
        g = sl2_generators()
        checks.add("{H,E} = 2E", bracket(rule, g.H, g.E) == 2 * g.E)
        checks.add("{H,F} = -2F", bracket(rule, g.H, g.F) == -2 * g.F)
        checks.add("{E,F} = H", bracket(rule, g.E, g.F) == g.H)
    return checks
