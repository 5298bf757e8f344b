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
rows keyed by partner letter, and double_bracket walks each position of
each term of the second and takes only the row of its letter (x_i against
x_i* alone under the canonical rule); necklace_bracket reads the same rows
through a view, by gap and by position.  _open checks the letters of each
term it opens, and each walk checks each word of the second argument.

necklace_bracket reads the opening through its necklace view
(_necklace_view), kept for the last left argument, so a run of brackets
with one left argument, c_n in a center check, views it once: merged
integer rows of code strings, one character chr(code) per letter.
It never builds a free-algebra element: it sums its collapsed words as code
strings in int and decodes into Letters, through the rule's table of
generator characters, only the necklaces whose sums stay nonzero.  A code
must be a code point, so a rule's letters stop at x557056.  When it is
built, the view merges the rows that fill one gap of the right word, the
middles that begin with the letter before it and those that end with the
letter after it, once per letter pair (see necklace_bracket).  {c_n, -}
acts as a commutator with a fixed element, so most of those pair rows
cancel before any word is built; a pair keyed as two rotations of one word,
one turn of the right word apart, merges after each right word.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import lcm

from . import counting, report
from .elements import (
    FreeElement,
    Necklace,
    NecklaceElement,
    TensorElement,
    _as_free,
    _as_necklace_element,
    format_element,
    project_to_necklace,
)
from .words import Letter, Word, _excerpt, canonical_rotation


class BracketRule:
    """Generator-level double bracket: a map (Letter, Letter) -> TensorElement.

    Construction validates that every code is a code point (see
    necklace_bracket), and, over all stored pairs, that every letter of a
    pair and of its value is a generator, and twisted antisymmetry,
    rule(b, a) == -flip(rule(a, b)).  degree_shift is the common
    len(u) + len(v) - 2 of the stored terms u (x) v; None if they differ or
    there are none.
    """

    __slots__ = ("generators", "genset", "decode", "table", "partners", "names", "degree_shift")

    def __init__(self, generators, table, names=None):
        self.generators = tuple(generators)
        self.genset = genset = frozenset(self.generators)
        if max(genset, default=0) > sys.maxunicode:
            last = (sys.maxunicode + 1) // 2
            raise ValueError(f"letter {_excerpt(max(genset).name)} is past x{last}, the last with a code point")
        # each generator's character chr(code) -> the generator
        self.decode = {chr(a): a for a in self.generators}
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
        """{{x_i, x_i*}} = 1 (x) 1, all other generator pairs zero, on x1..xd."""
        return cls.canonical_on(range(1, d + 1))

    @classmethod
    def canonical_on(cls, indices) -> "BracketRule":
        """The canonical rule on the letters x_i, x_i* of the given indices
        alone; it brackets elements in those letters as canonical(d) does
        for every d at or above their largest index."""
        indices = sorted(set(indices))
        gens = tuple(Letter(i, starred) for i in indices for starred in (False, True))
        table = {}
        for i in indices:
            xi, xis = Letter(i), Letter(i, True)
            table[(xi, xis)] = TensorElement.unit(1)
            table[(xis, xi)] = TensorElement.unit(-1)
        return cls(gens, table)

    def pair(self, a: Letter, b: Letter) -> TensorElement | None:
        return self.table.get((a, b))

    def check_letters(self, w: Word):
        if not self.genset.issuperset(w):
            a = next(a for a in w if a not in self.genset)
            raise ValueError(f"letter {_excerpt(a.name)} is not a generator of this rule")


def _open(rule: BracketRule, e) -> dict:
    """e opened at each letter a_p, once per term u (x) v of each partner b_q:
    b_q -> ((w, c_a * c, cut), ...) with w = u . a_>p . a_<p . v and
    cut = len(u . a_>p).  Each term's letters are checked as it is opened.
    """
    opened: dict = {}
    for a, ca in e.terms.items():
        rule.check_letters(a)
        for p, ap in enumerate(a):
            rest, after = a[p + 1:] + a[:p], len(a) - p - 1
            for partner, terms in rule.partners.get(ap, ()):
                row = opened.setdefault(partner, [])
                for (u, v), c in terms:
                    row.append((u + rest + v, ca * c, len(u) + after))
    return {partner: tuple(row) for partner, row in opened.items()}


@lru_cache(maxsize=1)
def _necklace_view(rule: BracketRule, e) -> tuple:
    """_open(rule, e) as necklace_bracket reads it:
    (rows, pairs, after, before, den).

    Each partner letter's words, as code strings (see necklace_bracket), are
    merged by string with their coefficients summed, the zero sums dropped
    and the rest cleared to integers over one common denominator den; then
    split by the letter x they replace.  A word that ends with x goes to
    before[x] less that letter, else one that begins with x to after[x]
    less it, and the rest to rows[x].  For each letter y with an after row
    and x with a before row, pairs[y + x] is after[y] + before[x], merged
    by string with the zero sums dropped: () when they all cancel.  Every
    row is a tuple of (word, coefficient).  Kept for the last (rule, e),
    the rule by identity and e by content; elements are immutable and
    necklace_bracket only reads the rows."""
    merged = {}
    for partner, row in _open(rule, e).items():
        sums: dict = {}
        for w, c, _ in row:
            k = "".join(map(chr, w))
            sums[k] = sums.get(k, 0) + c
        merged[chr(partner)] = [(k, c) for k, c in sums.items() if c]
    # an int is its own numerator over the denominator 1
    den = lcm(*(c.denominator for row in merged.values() for _, c in row))
    kinds = rows, after, before = {}, {}, {}
    for x, row in merged.items():
        for k, c in row:
            c = c.numerator * (den // c.denominator)
            if k[-1:] == x:
                before.setdefault(x, []).append((k[:-1], c))
            elif k[:1] == x:
                after.setdefault(x, []).append((k[1:], c))
            else:
                rows.setdefault(x, []).append((k, c))
    pairs = {}
    for y, ends in after.items():
        for x, starts in before.items():
            sums = dict(ends)
            for w, c in starts:
                sums[w] = sums.get(w, 0) + c
            pairs[y + x] = tuple([(w, c) for w, c in sums.items() if c])
    rows, after, before = [{x: tuple(row) for x, row in kind.items()} for kind in kinds]
    return rows, pairs, after, before, den


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
                for w, c, cut in row:
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
    representative pairs first, as integers over one common denominator,
    and only the nonzero sums are canonicalized, summed by necklace and
    divided by the denominator: many collapsed words cancel before that.

    A middle u . a_>p . a_<p . v that ends with b_q is inserted, less that
    letter, into the gap before b_q; else one that begins with b_q, less it,
    into the gap after.  So each cyclic gap g of b, between b_(g-1) and
    b_g, reads the view's pair row of those letters once, or the one row of
    the two that exists, and keys b_<g . w . b_>=g (gap 0 keys w . b);
    every other middle is spliced per position, keyed from the first
    letter of b.  Then each word b added, read back from the
    dict's end, that begins with b merges into its rotation by len(b) if
    that sum is nonzero.
    """
    e1, e2 = _as_necklace_element(e1), _as_necklace_element(e2)
    if not (e1.terms and e2.terms):  # zero, and no letter is checked
        return NecklaceElement()
    rows, pairs, after, before, den = _necklace_view(rule, e1)
    # e2's coefficients over one common denominator too, so the sums stay in
    # int; its words become code strings, as the view's rows are
    den2 = lcm(*(c.denominator for c in e2.terms.values()))
    out: dict = {}
    for n, c2 in e2.terms.items():
        rule.check_letters(n)
        c2 = c2.numerator * (den2 // c2.denominator)
        code = "".join(map(chr, n))
        size, mark, y = len(code), len(out), code[-1:]
        for g, x in enumerate(code):
            # gap g, between y = b_(g-1) and x = b_g, cyclically
            row = pairs.get(y + x)
            if row is None:  # a pair row that cancelled to () stays empty
                row = after.get(y) or before.get(x)
            if row:
                head, tail = code[:g], code[g:]
                for w, c in row:
                    k = head + w + tail
                    out[k] = out.get(k, 0) + c * c2
            row = rows.get(x)
            if row:
                head, tail = code[:g], code[g + 1:]
                for middle, c in row:
                    k = head + middle + tail
                    out[k] = out.get(k, 0) + c * c2
            y = x
        for k, c in islice(reversed(out.items()), len(out) - mark):
            if c and k.startswith(code):
                k2 = k[size:] + code
                if k2 != k and out.get(k2):
                    out[k2] += c
                    out[k] = 0
    sums: dict = {}
    for k, c in out.items():
        if c:
            k = canonical_rotation(k)
            sums[k] = sums.get(k, 0) + c
    den *= den2
    decode = rule.decode
    # decode from a list: a tuple built from an iterator of unknown length
    # regrows a temporary that the tuple free lists keep (decompose's peak RSS)
    return NecklaceElement({
        Necklace._unchecked([decode[ch] for ch in k]): c if den == 1 else Fraction(c, den)
        for k, c in sums.items() if c
    })


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


def kontsevich_bracket(e1, e2) -> NecklaceElement:
    """Combinatorial necklace bracket by splicing, term pair by term pair;
    no tensor algebra involved.

    Serves as an independent oracle for necklace_bracket with the canonical
    rule on any letters that cover the two elements: the splice pairs x_i
    with x_i* at whatever index it meets.
    """
    e1, e2 = _as_necklace_element(e1), _as_necklace_element(e2)
    out: dict = {}
    for n1, c1 in e1.terms.items():
        for n2, c2 in e2.terms.items():
            c = c1 * c2
            _splice(out, n1, n2, c)
            _splice(out, n2, n1, -c)
    return NecklaceElement(out)


def verify_double_jacobi(rule: BracketRule, a, b, c) -> TensorElement:
    """Left-hand side of the double Jacobi identity; zero for a valid rule.

    {{a,{{b,c}}'}} (x) {{b,c}}'' + sigma.( same for (b,c,a) ) + sigma^{-1}.( same for (c,a,b) )
    with {{a, u (x) v}} := {{a, u}} (x) v, keyed by triples of words.  sigma
    moves the last factor first, so the k-th cyclic triple's terms get sigma^k.
    """
    a, b, c = _as_free(a), _as_free(b), _as_free(c)
    out: dict = {}
    for k, (x, y, z) in enumerate(((a, b, c), (b, c, a), (c, a, b))):
        for (u, v), c1 in double_bracket(rule, y, z).terms.items():
            for (s, t), c2 in double_bracket(rule, x, FreeElement.of(u)).terms.items():
                key = (s, t, v)[-k:] + (s, t, v)[:-k]  # sigma^k
                out[key] = out.get(key, 0) + c1 * c2
    return TensorElement(out)


def verify_loday_properties(rule: BracketRule, a, b, c) -> tuple[bool, bool]:
    """(Loday identity holds, {[a,b], c}_L == 0) for the given triple."""
    a, b, c = _as_free(a), _as_free(b), _as_free(c)
    lhs = loday_bracket(rule, a, loday_bracket(rule, b, c))
    ab, ac = loday_bracket(rule, a, b), loday_bracket(rule, a, c)
    rhs = loday_bracket(rule, ab, c) + loday_bracket(rule, b, ac)
    return lhs == rhs, loday_bracket(rule, a.commutator(b), c).is_zero


def center_element(d: int, n: int) -> NecklaceElement:
    """The cyclic class of (sum_i [x_i, x_i*])^n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = {}
    for i in range(1, d + 1):
        xi, xis = Letter(i), Letter(i, True)
        terms.update({Word([xi, xis]): 1, Word([xis, xi]): -1})
    return project_to_necklace(FreeElement(terms) ** n)


def center_check(d: int, n: int, degree_bound: int) -> report.CheckReport:
    """Bracket the n-th central element against every necklace of degree
    <= degree_bound, one entry each; a nonzero bracket is the witness."""
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    rule = BracketRule.canonical(d)
    cn = center_element(d, n)
    checks = report.CheckReport(f"c_{n} is central, d={d}, degree <= {degree_bound}")
    for k in range(0, degree_bound + 1):
        for neck in counting.enumerate_necklaces(d, k):
            got = necklace_bracket(rule, cn, NecklaceElement.of(neck))
            ok = got.is_zero
            checks.add(f"{{c_{n}, {neck!r}}} = 0", ok, "" if ok else format_element(got))
    return checks


def check_grading(rule: BracketRule, pairs) -> report.CheckReport:
    """Check deg {w1, w2} == deg w1 + deg w2 + shift on all given necklace
    pairs, one entry each (only nonzero homogeneous outputs constrain
    anything); a failure names a necklace of the wrong degree."""
    shift = rule.degree_shift
    if shift is None:
        raise ValueError("rule has no degree shift: term lengths differ or there are no terms")
    checks = report.CheckReport(f"necklace bracket has degree {shift}")
    for n1, n2 in pairs:
        n1, n2 = Necklace.of(n1), Necklace.of(n2)
        expected = n1.degree + n2.degree + shift
        got = necklace_bracket(rule, n1, n2)
        wrong = min((k for k in got.terms if k.degree != expected), default=None)
        detail = "" if wrong is None else f"{wrong!r} has degree {wrong.degree}, expected {expected}"
        checks.add(f"{{{n1!r}, {n2!r}}}", wrong is None, detail)
    return checks

