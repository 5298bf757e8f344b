"""Double Poisson brackets on the free algebra and the induced Lie brackets.

A bracket is determined by its values on generator pairs (a BracketRule).
On words it is evaluated by the closed form

    {{a, b}} = sum_{p,q} (b_<q . {{a_p, b_q}}' . a_>p) (x) (a_<p . {{a_p, b_q}}'' . b_>q)

which is the unique bilinear extension that is twisted antisymmetric and an
outer derivation in its second argument; the test suite checks it against
both axioms directly.  Collapsing with the multiplication map gives the
Loday bracket; projecting to cyclic words gives the necklace Lie bracket.

Only the pairs the rule stores contribute, so each rule keeps a partner index,
letter -> its partners with their tensor terms, and the kernels walk the
letters of the first word and visit only the positions of their partners in
the second; under the canonical rule that is x_i against x_i* alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .elements import (
    FreeElement,
    Necklace,
    NecklaceElement,
    TensorElement,
    TripleTensor,
    _as_necklace_element,
    _Combination,
    project_to_necklace,
)
from .words import Letter, Word, letters


class BracketRule:
    """Generator-level double bracket: a map (Letter, Letter) -> TensorElement.

    Construction validates twisted antisymmetry, rule(b, a) ==
    -flip(rule(a, b)), over all stored pairs.
    """

    __slots__ = ("generators", "genset", "table", "partners", "names", "degree_shift")

    def __init__(self, generators, table, names=None, degree_shift=None):
        self.generators = tuple(generators)
        self.genset = genset = frozenset(self.generators)
        clean = {}
        for (a, b), t in table.items():
            if a not in genset or b not in genset:
                raise ValueError(f"rule mentions letter outside generator set: {a}, {b}")
            if t:
                clean[(a, b)] = t
        for (a, b), t in clean.items():
            mirrored = clean.get((b, a), TensorElement())
            if mirrored != -t.flip():
                raise ValueError(f"twisted antisymmetry fails on generators ({a}, {b})")
        self.table = clean
        # letter -> ((partner, ((u, v), c) items), ...) over the stored pairs
        partners: dict = {}
        for (a, b), t in clean.items():
            partners.setdefault(a, []).append((b, tuple(t.terms.items())))
        self.partners = {a: tuple(row) for a, row in partners.items()}
        self.names = dict(names) if names else None
        self.degree_shift = degree_shift

    @classmethod
    def canonical(cls, d: int) -> "BracketRule":
        """{{x_i, x_i*}} = 1 (x) 1, all other generator pairs zero."""
        gens = letters(d)
        table = {}
        for i in range(1, d + 1):
            xi, xis = Letter(i), Letter(i, True)
            table[(xi, xis)] = TensorElement.unit(1)
            table[(xis, xi)] = TensorElement.unit(-1)
        return cls(gens, table, degree_shift=-2)

    @classmethod
    def custom(cls, generators, table) -> "BracketRule":
        return cls(generators, table)

    def pair(self, a: Letter, b: Letter) -> TensorElement | None:
        return self.table.get((a, b))

    def check_letters(self, w: Word):
        if not self.genset.issuperset(w):
            a = next(a for a in w if a not in self.genset)
            raise ValueError(f"letter {a.name} is not a generator of this rule")


def _as_free(e) -> FreeElement:
    if isinstance(e, FreeElement):
        return e
    if isinstance(e, Word):
        return FreeElement.of(e)
    if isinstance(e, str):
        from .elements import parse_element

        return parse_element(e)
    raise TypeError(f"expected a free-algebra element, got {type(e).__name__}")


def _cuts(w: Word) -> dict:
    """letter -> (w_<q, w_>q) for each position q where it occurs in w."""
    at: dict = {}
    for q, x in enumerate(w):
        at.setdefault(x, []).append((w[:q], w[q + 1:]))
    return at


def _double_bracket_words(rule: BracketRule, a: Word, b: Word) -> dict:
    out: dict = {}
    at = _cuts(b)
    for p, ap in enumerate(a):
        for partner, terms in rule.partners.get(ap, ()):
            for head, tail in at.get(partner, ()):
                for (u, v), c in terms:
                    key = (Word(head + u + a[p + 1:]), Word(a[:p] + v + tail))
                    out[key] = out.get(key, 0) + c
    return out


def double_bracket(rule: BracketRule, a, b) -> TensorElement:
    """The double bracket {{a, b}} in A (x) A, extended bilinearly."""
    a, b = _as_free(a), _as_free(b)
    out: dict = {}
    for wa, ca in a.terms.items():
        rule.check_letters(wa)
        for wb, cb in b.terms.items():
            rule.check_letters(wb)
            c = ca * cb
            for key, v in _double_bracket_words(rule, wa, wb).items():
                out[key] = out.get(key, 0) + c * v
    return TensorElement(out)


def loday_bracket(rule: BracketRule, a, b) -> FreeElement:
    """{a, b}_L = multiplication applied to {{a, b}}.

    A derivation in its second argument; {[a,b], c}_L == 0, so the value is
    unchanged when the first argument is rotated cyclically.
    """
    return double_bracket(rule, a, b).collapse()


def necklace_bracket(rule: BracketRule, e1, e2) -> NecklaceElement:
    """The induced Lie bracket on cyclic words.

    Each term u (x) v of {{a_p, b_q}} for representatives a, b collapses to
    the word b_<q . u . a_>p . a_<p . v . b_>q.  These are summed over all
    representative pairs in the free algebra and projected once: projection
    is linear, and many collapsed words cancel before it.
    """
    e1, e2 = _as_necklace_element(e1), _as_necklace_element(e2)
    if not (e1.terms and e2.terms):  # zero, and no letter is checked
        return NecklaceElement()
    for n in (*e1.terms, *e2.terms):
        rule.check_letters(n)
    # e1 opened at each letter a_p, once per term u (x) v of each partner b_q:
    # (b_q, u . a_>p . a_<p . v, c1 * c)
    opened = []
    for a, c1 in e1.terms.items():
        for p, ap in enumerate(a):
            rest = a[p + 1:] + a[:p]
            for partner, terms in rule.partners.get(ap, ()):
                for (u, v), c in terms:
                    opened.append((partner, u + rest + v, c1 * c))
    out: dict = {}
    for n, c2 in e2.terms.items():
        at = _cuts(n)
        for partner, middle, c in opened:
            for head, tail in at.get(partner, ()):
                k = Word(head + middle + tail)
                out[k] = out.get(k, 0) + c * c2
    return project_to_necklace(FreeElement(out))


def _splice_sum(a: Word, b: Word) -> dict:
    """Cut-and-join: match each plain letter of a with its starred partner
    in b, remove both, concatenate the opened necklaces."""
    out: dict = {}
    for p, ap in enumerate(a):
        if ap.starred:
            continue
        for q, bq in enumerate(b):
            if bq.starred and bq.index == ap.index:
                joined = Word(a[p + 1:] + a[:p] + b[q + 1:] + b[:q])
                key = Necklace.of(joined)
                out[key] = out.get(key, 0) + 1
    return out


def kontsevich_bracket(w1, w2, d: int) -> NecklaceElement:
    """Combinatorial necklace bracket by splicing; no tensor algebra involved.

    Serves as an independent oracle for necklace_bracket with the canonical
    rule on 2d letters.
    """
    n1, n2 = Necklace.of(w1), Necklace.of(w2)
    for n in (n1, n2):
        if n.max_index() > d:
            raise ValueError(f"necklace {n!r} uses letters beyond x{d}")
    plus = _splice_sum(n1, n2)
    minus = _splice_sum(n2, n1)
    out = dict(plus)
    for k, v in minus.items():
        out[k] = out.get(k, 0) - v
    return NecklaceElement(out)


def _left_extend(rule: BracketRule, a, tensor: TensorElement) -> TripleTensor:
    # {{a, u (x) v}} := {{a, u}} (x) v
    out: dict = {}
    for (u, v), c in tensor.terms.items():
        inner = double_bracket(rule, a, FreeElement.of(u))
        for (s, t), c2 in inner.terms.items():
            key = (s, t, v)
            out[key] = out.get(key, 0) + c * c2
    return TripleTensor(out)


def verify_double_jacobi(rule: BracketRule, a, b, c) -> TripleTensor:
    """Left-hand side of the double Jacobi identity; zero for a valid rule.

    {{a,{{b,c}}'}} (x) {{b,c}}'' + sigma.( same for (b,c,a) ) + sigma^{-1}.( same for (c,a,b) ).
    """
    a, b, c = _as_free(a), _as_free(b), _as_free(c)
    first = _left_extend(rule, a, double_bracket(rule, b, c))
    second = _left_extend(rule, b, double_bracket(rule, c, a)).shift()
    third = _left_extend(rule, c, double_bracket(rule, a, b)).shift_inv()
    return first + second + third


def verify_loday_properties(rule: BracketRule, a, b, c) -> tuple[bool, bool]:
    """(Loday identity holds, {[a,b], c}_L == 0) for the given triple."""
    a, b, c = _as_free(a), _as_free(b), _as_free(c)
    lhs = loday_bracket(rule, a, loday_bracket(rule, b, c))
    rhs = loday_bracket(rule, loday_bracket(rule, a, b), c) + loday_bracket(
        rule, b, loday_bracket(rule, a, c)
    )
    loday_ok = lhs == rhs
    comm_ok = loday_bracket(rule, a.commutator(b), c).is_zero
    return loday_ok, comm_ok


def center_element(d: int, n: int) -> NecklaceElement:
    """The cyclic class of (sum_i [x_i, x_i*])^n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = {}
    for i in range(1, d + 1):
        xi, xis = Word([Letter(i)]), Word([Letter(i, True)])
        terms[xi * xis] = 1
        terms[xis * xi] = -1
    return project_to_necklace(FreeElement(terms) ** n)


@dataclass
class GradedBracketReport:
    """Outcome of a family of bracket checks; empty violations means pass."""

    degree_shift: int
    samples_checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def center_check(d: int, n: int, degree_bound: int) -> GradedBracketReport:
    """Bracket the n-th central element against every necklace of degree
    <= degree_bound; all brackets must vanish."""
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    from .counting import enumerate_necklaces

    rule = BracketRule.canonical(d)
    cn = center_element(d, n)
    report = GradedBracketReport(degree_shift=-2, samples_checked=0)
    for k in range(0, degree_bound + 1):
        for neck in enumerate_necklaces(d, k):
            got = necklace_bracket(rule, cn, NecklaceElement.of(neck))
            report.samples_checked += 1
            if not got.is_zero:
                report.violations.append((neck, got))
    return report


def check_grading(rule: BracketRule, pairs) -> GradedBracketReport:
    """Check deg {w1, w2} == deg w1 + deg w2 + shift on all given necklace
    pairs (only nonzero homogeneous outputs constrain anything)."""
    shift = rule.degree_shift
    if shift is None:
        raise ValueError("rule declares no degree shift")
    report = GradedBracketReport(degree_shift=shift, samples_checked=0)
    for n1, n2 in pairs:
        n1, n2 = Necklace.of(n1), Necklace.of(n2)
        got = necklace_bracket(rule, n1, n2)
        report.samples_checked += 1
        expected = n1.degree + n2.degree + shift
        for neck in got.terms:
            if neck.degree != expected:
                report.violations.append((n1, n2, neck.degree, expected))
    return report


class TraceElement(_Combination):
    """An element of S(necklaces) (x) A: finite map (necklace monomial, Word)
    -> coefficient, the necklace monomial being a sorted tuple of Necklaces."""

    @classmethod
    def of(cls, necklaces, w, c=1) -> "TraceElement":
        mono = tuple(sorted((Necklace.of(n) for n in necklaces)))
        if isinstance(w, str):
            from .words import parse_word

            w = parse_word(w)
        return cls({(mono, w): c})

    def __repr__(self):
        chunks = []
        for (mono, w), c in self:
            factors = "".join(f"{n!r}" for n in mono) or "1"
            chunks.append(f"{c}*{factors}(x){w!r}")
        return " + ".join(chunks) if chunks else "0"


def trace_algebra_derivation(rule: BracketRule, w, t: TraceElement) -> TraceElement:
    """Apply {w, -} to a trace-algebra element by the Leibniz rule.

    Necklace factors receive the necklace bracket, the word factor receives
    the Loday bracket.  Restricted to pure necklace monomials this is the
    Lie-Poisson bracket of the symmetric algebra on necklaces.
    """
    w = _as_necklace_element(w)
    out: dict = {}
    for (mono, u), c in t.terms.items():
        for j, nj in enumerate(mono):
            bracket = necklace_bracket(rule, w, NecklaceElement.of(nj))
            rest = mono[:j] + mono[j + 1:]
            for neck, c2 in bracket.terms.items():
                key = (tuple(sorted(rest + (neck,))), u)
                out[key] = out.get(key, 0) + c * c2
        for nw, cw in w.terms.items():
            word_part = loday_bracket(rule, FreeElement.of(nw), FreeElement.of(u))
            for uw, c2 in word_part.terms.items():
                out[(mono, uw)] = out.get((mono, uw), 0) + c * cw * c2
    return TraceElement(out)
