"""Double Poisson brackets on the free algebra and the induced Lie brackets.

A bracket is determined by its values on generator pairs (a BracketRule).
On words it is evaluated by the closed form

    {{a, b}} = sum_{p,q} (b_<q . {{a_p, b_q}}' . a_>p) (x) (a_<p . {{a_p, b_q}}'' . b_>q)

which is the unique bilinear extension that is twisted antisymmetric and an
outer derivation in its second argument; the test suite checks it against
both axioms directly.  Collapsing with the multiplication map gives the
Loday bracket; projecting to cyclic words gives the necklace Lie bracket.

Only the pairs the rule stores contribute, so each rule keeps a partner index,
letter -> its partners with their tensor terms.  One opening, _open, serves
both walks: each term of the first argument is opened at each letter into
rows keyed by partner letter, and double_bracket and necklace_bracket walk
each position of each term of the second and take only the row of its
letter (x_i against x_i* alone under the canonical rule).  The last opening
is kept, so a run of brackets with one left argument opens it once: c_n in a
center check, a against every term of {{b, c}} in a double Jacobi check.
_open checks the letters of each term it opens, so a kept opening is not
checked again, and each walk checks each word of the second argument.

necklace_bracket never builds a free-algebra element: it sums its collapsed
words as code strings, one character chr(code) per letter, canonicalizes
each nonzero sum with words.canonical_rotation, and decodes into Letters
only the necklaces whose sums stay nonzero.  A code must be a code point,
so a rule's letters stop at x557056.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from .counting import enumerate_necklaces
from .elements import (
    FreeElement,
    Necklace,
    NecklaceElement,
    TensorElement,
    TripleTensor,
    _as_free,
    _as_necklace_element,
    format_element,
    project_to_necklace,
)
from .report import CheckReport
from .words import Letter, Word, canonical_rotation, letters


class BracketRule:
    """Generator-level double bracket: a map (Letter, Letter) -> TensorElement.

    Construction validates that every code is a code point (see
    necklace_bracket), and, over all stored pairs, that every letter of a
    pair and of its value is a generator, and twisted antisymmetry,
    rule(b, a) == -flip(rule(a, b)).  degree_shift is the common
    len(u) + len(v) - 2 of the stored terms u (x) v; None if they differ or
    there are none.
    """

    __slots__ = ("generators", "genset", "table", "partners", "names", "degree_shift")

    def __init__(self, generators, table, names=None):
        self.generators = tuple(generators)
        self.genset = genset = frozenset(self.generators)
        if max(genset, default=0) > sys.maxunicode:
            last = (sys.maxunicode + 1) // 2
            raise ValueError(f"letter {max(genset).name} is past x{last}, the last with a code point")
        clean = {}
        for (a, b), t in table.items():
            if a not in genset or b not in genset:
                raise ValueError(f"rule mentions letter outside generator set: {a}, {b}")
            if t:
                clean[(a, b)] = t
        # necklace_bracket decodes the letters of the values through genset
        used = {x for t in clean.values() for uv in t.terms for w in uv for x in w}
        if not genset.issuperset(used):
            raise ValueError(f"rule mentions letter outside generator set: {min(used - genset)}")
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
        shifts = {len(u) + len(v) - 2 for t in clean.values() for u, v in t.terms}
        self.degree_shift = shifts.pop() if len(shifts) == 1 else None

    @classmethod
    def canonical(cls, d: int) -> "BracketRule":
        """{{x_i, x_i*}} = 1 (x) 1, all other generator pairs zero."""
        gens = letters(d)
        table = {}
        for i in range(1, d + 1):
            xi, xis = Letter(i), Letter(i, True)
            table[(xi, xis)] = TensorElement.unit(1)
            table[(xis, xi)] = TensorElement.unit(-1)
        return cls(gens, table)

    def pair(self, a: Letter, b: Letter) -> TensorElement | None:
        return self.table.get((a, b))

    def check_letters(self, w: Word):
        if not self.genset.issuperset(w):
            a = next(a for a in w if a not in self.genset)
            raise ValueError(f"letter {a.name} is not a generator of this rule")


@lru_cache(maxsize=1)
def _open(rule: BracketRule, e) -> dict:
    """e opened at each letter a_p, once per term u (x) v of each partner b_q:
    b_q -> ((w, c_a * c, cut, code), ...) with w = u . a_>p . a_<p . v,
    cut = len(u . a_>p) and code the code string of w (see necklace_bracket).

    Each term's letters are checked as it is opened.  Kept for the last
    (rule, e), the rule by identity and e by content; elements are immutable
    and the walks only read the rows.
    """
    opened: dict = {}
    for a, ca in e.terms.items():
        rule.check_letters(a)
        for p, ap in enumerate(a):
            rest, after = a[p + 1:] + a[:p], len(a) - p - 1
            for partner, terms in rule.partners.get(ap, ()):
                row = opened.setdefault(partner, [])
                for (u, v), c in terms:
                    w = u + rest + v
                    row.append((w, ca * c, len(u) + after, "".join(map(chr, w))))
    return {partner: tuple(row) for partner, row in opened.items()}


def double_bracket(rule: BracketRule, a, b) -> TensorElement:
    """The double bracket {{a, b}} in A (x) A, extended bilinearly: each
    opened word of a splits at its cut into (b_<q . u . a_>p) (x) (a_<p . v . b_>q)."""
    a, b = _as_free(a), _as_free(b)
    opened = _open(rule, a)
    out: dict = {}
    for wb, cb in b.terms.items():
        rule.check_letters(wb)
        for q, bq in enumerate(wb):
            row = opened.get(bq)
            if row:
                head, tail = wb[:q], wb[q + 1:]
                for w, c, cut, _ in row:
                    key = (Word(head + w[:cut]), Word(w[cut:] + tail))
                    out[key] = out.get(key, 0) + c * cb
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
    representative pairs first, and only the nonzero sums are canonicalized
    and summed by necklace: many collapsed words cancel before that.
    """
    e1, e2 = _as_necklace_element(e1), _as_necklace_element(e2)
    if not (e1.terms and e2.terms):  # zero, and no letter is checked
        return NecklaceElement()
    opened = _open(rule, e1)
    # words as code strings, one character chr(code) per letter: code-point
    # order is the letter order, a str caches its hash and slices and joins
    # in C; only the necklaces of nonzero sums are decoded into Letters
    out: dict = {}
    for n, c2 in e2.terms.items():
        rule.check_letters(n)
        code = "".join(map(chr, n))
        for q, bq in enumerate(n):
            row = opened.get(bq)
            if row:
                head, tail = code[:q], code[q + 1:]
                for _, c, _, middle in row:
                    k = head + middle + tail
                    out[k] = out.get(k, 0) + c * c2
    sums: dict = {}
    for k, c in out.items():
        if c:
            k = canonical_rotation(k)
            # most classes meet one word; 0 + c would cost a Fraction add
            sums[k] = sums[k] + c if k in sums else c
    # decode from a list: a tuple built from an iterator of unknown length
    # regrows a temporary, and the tuple free lists keep the regrown ones,
    # which raised the peak RSS of decompose
    letter = {chr(a): a for a in rule.generators}
    return NecklaceElement(
        {Necklace._unchecked([letter[ch] for ch in k]): c for k, c in sums.items() if c}
    )


def _splice(out: dict, a: Word, b: Word, c) -> None:
    """Cut-and-join: match each plain letter of a with its starred partner
    in b, remove both, and add c times the joined necklace to out."""
    for p, ap in enumerate(a):
        if ap.starred:
            continue
        for q, bq in enumerate(b):
            if bq.starred and bq.index == ap.index:
                key = Necklace.of(Word(a[p + 1:] + a[:p] + b[q + 1:] + b[:q]))
                out[key] = out.get(key, 0) + c


def kontsevich_bracket(e1, e2, d: int) -> NecklaceElement:
    """Combinatorial necklace bracket by splicing, term pair by term pair;
    no tensor algebra involved.

    Serves as an independent oracle for necklace_bracket with the canonical
    rule on 2d letters.
    """
    e1, e2 = _as_necklace_element(e1), _as_necklace_element(e2)
    for n in (*e1.terms, *e2.terms):
        if n.max_index() > d:
            raise ValueError(f"necklace {n!r} uses letters beyond x{d}")
    out: dict = {}
    for n1, c1 in e1.terms.items():
        for n2, c2 in e2.terms.items():
            c = c1 * c2
            _splice(out, n1, n2, c)
            _splice(out, n2, n1, -c)
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


def center_check(d: int, n: int, degree_bound: int) -> CheckReport:
    """Bracket the n-th central element against every necklace of degree
    <= degree_bound, one entry each; a nonzero bracket is the witness."""
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    rule = BracketRule.canonical(d)
    cn = center_element(d, n)
    report = CheckReport(f"c_{n} is central, d={d}, degree <= {degree_bound}")
    for k in range(0, degree_bound + 1):
        for neck in enumerate_necklaces(d, k):
            got = necklace_bracket(rule, cn, NecklaceElement.of(neck))
            ok = got.is_zero
            report.add(f"{{c_{n}, {neck!r}}} = 0", ok, "" if ok else format_element(got))
    return report


def check_grading(rule: BracketRule, pairs) -> CheckReport:
    """Check deg {w1, w2} == deg w1 + deg w2 + shift on all given necklace
    pairs, one entry each (only nonzero homogeneous outputs constrain
    anything); a failure names a necklace of the wrong degree."""
    shift = rule.degree_shift
    if shift is None:
        raise ValueError("rule has no degree shift: term lengths differ or there are no terms")
    report = CheckReport(f"necklace bracket has degree {shift}")
    for n1, n2 in pairs:
        n1, n2 = Necklace.of(n1), Necklace.of(n2)
        expected = n1.degree + n2.degree + shift
        got = necklace_bracket(rule, n1, n2)
        wrong = min((k for k in got.terms if k.degree != expected), default=None)
        detail = "" if wrong is None else f"{wrong!r} has degree {wrong.degree}, expected {expected}"
        report.add(f"{{{n1!r}, {n2!r}}}", wrong is None, detail)
    return report

