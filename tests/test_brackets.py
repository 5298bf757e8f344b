import itertools
from fractions import Fraction

import pytest

from necklaces.brackets import (
    BracketRule,
    _left_extend,
    _necklace_view,
    _open,
    center_check,
    center_element,
    check_grading,
    double_bracket,
    kontsevich_bracket,
    loday_bracket,
    necklace_bracket,
    verify_double_jacobi,
    verify_loday_properties,
)
from necklaces.counting import enumerate_necklaces
from necklaces.elements import (
    FreeElement,
    Necklace,
    NecklaceElement,
    TensorElement,
    TripleTensor,
    parse_element,
    project_to_necklace,
)
from necklaces.linear_rules import StructureConstants, linear_rule, ngl
from necklaces.sampling import random_word, rng
from necklaces.words import EMPTY_WORD, Letter, Word, letters, word

CANON1 = BracketRule.canonical(1)
CANON2 = BracketRule.canonical(2)

X = FreeElement.of(word("x"))
XS = FreeElement.of(word("x*"))


def all_words(d, max_deg):
    alpha = letters(d)
    for n in range(max_deg + 1):
        for t in itertools.product(alpha, repeat=n):
            yield Word(t)


def test_rule_generator_values():
    assert CANON1.pair(word("x")[0], word("x*")[0]) == TensorElement.unit(1)
    assert CANON1.pair(word("x*")[0], word("x")[0]) == TensorElement.unit(-1)
    assert CANON1.pair(word("x")[0], word("x")[0]) is None
    assert double_bracket(CANON1, X, XS) == TensorElement.unit(1)
    assert double_bracket(CANON1, X, X).is_zero
    assert double_bracket(CANON2, "x1", "x2*").is_zero


def test_rule_rejects_a_value_outside_its_generators():
    a, b = letters(1)
    t = TensorElement.of(word("x2"), EMPTY_WORD)
    with pytest.raises(ValueError, match="outside generator set"):
        BracketRule(letters(1), {(a, b): t, (b, a): -t.flip()})


def test_rule_letters_stop_at_the_last_code_point():
    """necklace_bracket codes a letter as chr(code); x557056* is 0x10FFFF."""
    with pytest.raises(ValueError, match="past x557056"):
        BracketRule([Letter(557057)], {})
    a, b = Letter(557056), Letter(557056, True)
    rule = BracketRule([a, b], {(a, b): TensorElement.unit(1), (b, a): TensorElement.unit(-1)})
    n1, n2 = Necklace.of(Word([a, a])), Necklace.of(Word([b]))
    got = necklace_bracket(rule, n1, n2)
    assert got == kontsevich_bracket(n1, n2) == NecklaceElement.of(Word([a]), 2)


def test_rule_rejects_broken_antisymmetry():
    a, b = word("x")[0], word("x*")[0]
    with pytest.raises(ValueError):
        BracketRule(letters(1), {(a, b): TensorElement.unit(1)})
    with pytest.raises(ValueError):
        BracketRule(
            letters(1),
            {(a, b): TensorElement.unit(1), (b, a): TensorElement.unit(1)},
        )


def test_unknown_letter_rejected():
    with pytest.raises(ValueError, match="x2"):
        double_bracket(CANON1, "x2", "x1*")


def test_commutator_bracket_value():
    # {{[x,x*], x}} = x (x) 1 - 1 (x) x
    got = double_bracket(CANON1, X.commutator(XS), X)
    expected = TensorElement({(word("x"), EMPTY_WORD): 1, (EMPTY_WORD, word("x")): -1})
    assert got == expected


def test_twisted_antisymmetry_sampled():
    # words up to degree 6 on both slots
    r = rng(10)
    for _ in range(80):
        a = FreeElement.of(random_word(r, letters(2), 0, 6))
        b = FreeElement.of(random_word(r, letters(2), 0, 6))
        assert double_bracket(CANON2, a, b) == -double_bracket(CANON2, b, a).flip()


def test_outer_derivation_exact():
    r = rng(11)
    for _ in range(60):
        a = FreeElement.of(random_word(r, letters(1), 1, 4))
        b = FreeElement.of(random_word(r, letters(1), 0, 3))
        c = FreeElement.of(random_word(r, letters(1), 0, 3))
        whole = double_bracket(CANON1, a, b * c)
        bw = next(iter(b.terms))
        cw = next(iter(c.terms))
        split = double_bracket(CANON1, a, c).outer(bw, EMPTY_WORD) + double_bracket(
            CANON1, a, b
        ).outer(EMPTY_WORD, cw)
        assert whole == split


def test_bracket_with_unit_is_zero():
    assert double_bracket(CANON1, FreeElement.unit(), X).is_zero
    assert double_bracket(CANON1, X, FreeElement.unit()).is_zero


def test_loday_commutator_power_values():
    # {[x,x*]^n, x}_L = n (x [x,x*]^{n-1} - [x,x*]^{n-1} x)
    comm = X.commutator(XS)
    for n in (1, 2, 3):
        got = loday_bracket(CANON1, comm**n, X)
        expected = n * (X * comm ** (n - 1) - comm ** (n - 1) * X)
        assert got == expected
    assert loday_bracket(CANON1, X, X).is_zero
    assert loday_bracket(CANON1, "xx*", "x") == FreeElement.of(word("x"), -1)


def test_loday_identity_and_commutator_triviality():
    triples = [("x", "x*", "xx*"), ("xx", "x*x*", "xx*"), ("x*", "xx", "x*x")]
    for a, b, c in triples:
        assert verify_loday_properties(CANON1, a, b, c) == (True, True)
    r = rng(12)
    for _ in range(25):
        a = random_word(r, letters(1), 0, 3)
        b = random_word(r, letters(1), 0, 3)
        c = random_word(r, letters(1), 0, 3)
        assert verify_loday_properties(CANON1, a, b, c) == (True, True)


def test_necklace_bracket_sl2_values():
    H = NecklaceElement.of("xx*")
    E = NecklaceElement.of("x*x*", Fraction(1, 2))
    F = NecklaceElement.of("xx", Fraction(-1, 2))
    assert necklace_bracket(CANON1, H, "x") == NecklaceElement.of("x", -1)
    assert necklace_bracket(CANON1, H, "x*x*") == NecklaceElement.of("x*x*", 2)
    assert necklace_bracket(CANON1, "x", "x*") == NecklaceElement.unit(1)
    assert necklace_bracket(CANON1, H, E) == 2 * E
    assert necklace_bracket(CANON1, H, F) == -2 * F
    assert necklace_bracket(CANON1, E, F) == H


def test_necklace_bracket_antisymmetry_and_jacobi():
    r = rng(13)
    necks = [n for k in range(5) for n in enumerate_necklaces(1, k)]
    for _ in range(40):
        a, b, c = (NecklaceElement.of(r.choice(necks)) for _ in range(3))
        assert necklace_bracket(CANON1, a, b) == -necklace_bracket(CANON1, b, a)
        jac = (
            necklace_bracket(CANON1, a, necklace_bracket(CANON1, b, c))
            + necklace_bracket(CANON1, b, necklace_bracket(CANON1, c, a))
            + necklace_bracket(CANON1, c, necklace_bracket(CANON1, a, b))
        )
        assert jac.is_zero


def test_representative_independence():
    r = rng(14)
    for _ in range(40):
        w1 = random_word(r, letters(1), 1, 5)
        w2 = random_word(r, letters(1), 1, 5)
        base = None
        for k1 in range(len(w1)):
            for k2 in range(len(w2)):
                rotated = project_to_necklace(
                    loday_bracket(
                        CANON1,
                        FreeElement.of(w1.rotated(k1)),
                        FreeElement.of(w2.rotated(k2)),
                    )
                )
                if base is None:
                    base = rotated
                assert rotated == base


def test_grading_canonical():
    pairs = []
    r = rng(15)
    necks = [n for k in range(6) for n in enumerate_necklaces(1, k)]
    for _ in range(60):
        pairs.append((r.choice(necks), r.choice(necks)))
    report = check_grading(CANON1, pairs)
    assert report.ok and len(report.entries) == 60 and CANON1.degree_shift == -2


def test_kontsevich_examples():
    assert kontsevich_bracket("xx*", "x") == NecklaceElement.of("x", -1)
    assert kontsevich_bracket("xx", "x*x*") == NecklaceElement.of("xx*", 4)
    assert kontsevich_bracket("x", "x").is_zero
    assert kontsevich_bracket("x", "x*") == NecklaceElement.unit(1)


def test_kontsevich_reads_elements_term_pair_by_term_pair():
    # text with several terms and rational coefficients, read like every
    # other bracket's arguments; a word is read as its necklace
    for a, b in [("2*x + x*x", "x* - 1/2*xx*x*"), ("x*x - 3*xx*xx* + 1", "2*x - x*x*")]:
        assert kontsevich_bracket(a, b) == necklace_bracket(CANON1, a, b)
    assert kontsevich_bracket("2*x", "x*") == NecklaceElement.unit(2)
    assert kontsevich_bracket(word("x*x"), "xx") == kontsevich_bracket("xx*", "xx")
    assert kontsevich_bracket("x + x2x2*", "x*x1") == necklace_bracket(CANON2, "x + x2x2*", "x*x1")


def test_kontsevich_matches_necklace_bracket():
    necks = [n for k in range(7) for n in enumerate_necklaces(1, k)]
    for n1 in necks:
        for n2 in necks:
            if n1.degree + n2.degree > 8:
                continue
            assert kontsevich_bracket(n1, n2) == necklace_bracket(
                CANON1, NecklaceElement.of(n1), NecklaceElement.of(n2)
            )


def test_kontsevich_matches_necklace_bracket_d2():
    r = rng(16)
    alpha = letters(2)
    for _ in range(120):
        n1 = Necklace.of(random_word(r, alpha, 0, 4))
        n2 = Necklace.of(random_word(r, alpha, 0, 4))
        assert kontsevich_bracket(n1, n2) == necklace_bracket(
            CANON2, NecklaceElement.of(n1), NecklaceElement.of(n2)
        )


@pytest.mark.parametrize("d, total", [(2, 6), (3, 4)])
def test_kontsevich_matches_necklace_bracket_exhaustive(d, total):
    rule = BracketRule.canonical(d)
    necks = [n for k in range(total + 1) for n in enumerate_necklaces(d, k)]
    for n1 in necks:
        for n2 in necks:
            if n1.degree + n2.degree > total:
                continue
            assert kontsevich_bracket(n1, n2) == necklace_bracket(
                rule, NecklaceElement.of(n1), NecklaceElement.of(n2)
            ), (n1, n2)


def test_kontsevich_matches_necklace_bracket_past_code_point_255():
    """Letters x129 and up have codes >= 256, outside bytes and latin-1, so
    a code string that assumed one byte per letter would fail here."""
    d = 131
    rule = BracketRule.canonical(d)
    alpha = [Letter(i, s) for i in (1, 129, 130, 131) for s in (False, True)]
    assert min(alpha[2:]).code >= 256
    r = rng(17)
    nonzero = 0
    for _ in range(120):
        n1 = Necklace.of(random_word(r, alpha, 1, 5))
        n2 = Necklace.of(random_word(r, alpha, 1, 5))
        got = necklace_bracket(rule, n1, n2)
        nonzero += bool(got)
        assert got == kontsevich_bracket(n1, n2), (n1, n2)
    assert nonzero


@pytest.mark.parametrize("n", [2, 3])
def test_kontsevich_matches_necklace_bracket_on_the_center_path(n):
    """center_check's path: one left element bracketed against every
    necklace in turn, so every call after the first reuses its opening.
    c_n gives zero throughout, also on the necklaces of length 1, whose
    first position is its last; c_n + (x1 xd*) is not central, and its
    nonzero brackets must come out whole whichever way a word is keyed."""
    for d, top in ((1, 6), (2, 4), (3, 3)):
        rule = BracketRule.canonical(d)
        necks = [m for k in range(top + 1) for m in enumerate_necklaces(d, k)]
        cn = center_element(d, n)
        noncentral = cn + NecklaceElement.of(Word([Letter(1), Letter(d, True)]))
        for left, central in ((cn, True), (noncentral, False)):
            got = [necklace_bracket(rule, left, m) for m in necks]
            assert got == [kontsevich_bracket(left, m) for m in necks], (d, left)
            assert not any(got) if central else sum(map(bool, got)) > len(necks) // 2, (d, left)
            # the one-letter necklaces: all zero against c_n only
            assert any(got[1:1 + 2 * d]) != central, (d, left)



def test_kontsevich_matches_necklace_bracket_over_coprime_denominators():
    """The kernel sums integers over one common denominator per side: the
    left one cleared once in its opening's view, the right one per call.
    Coprime denominators on both sides make every product denominator
    distinct, so a wrong scale or a missed division shows."""
    r = rng(23)
    alpha = letters(2)
    nonzero = 0
    for _ in range(60):
        e1, e2 = (
            NecklaceElement({Necklace.of(random_word(r, alpha, 1, 4)): Fraction(r.randint(1, 9), den) for den in dens})
            for dens in ((2, 3, 4), (5, 7, 9))
        )
        got = necklace_bracket(CANON2, e1, e2)
        nonzero += bool(got)
        assert got == kontsevich_bracket(e1, e2), (e1, e2)
    assert nonzero > 30


def test_kontsevich_matches_necklace_bracket_on_multi_term_elements():
    """After each right-hand necklace n, the kernel merges a collapsed word
    that starts or ends with n into its rotation by len(n) when that one
    holds a nonzero sum too.  Multi-term elements of degree <= 6 on both
    sides give such pairs, also words that are their own rotation (x1*
    against the right-hand x1* of the first pair below), so a merge that
    drops or doubles a sum shows against the splice oracle."""
    r = rng(41)
    pairs = [(parse_element("x1x1* + 2*x1x1x1x1x1*"), parse_element("3*x1* + 3*x1x1*"), 1)]
    for i in range(400):
        d = 1 + i % 2
        pairs.append((*(_sampled_necklace_element(r, letters(d), 4, 6) for _ in "ab"), d))
    nonzero = 0
    for e1, e2, d in pairs:
        got = necklace_bracket(BracketRule.canonical(d), e1, e2)
        nonzero += bool(got)
        assert got == kontsevich_bracket(e1, e2), (e1, e2)
    assert nonzero > 300


def test_integral_coefficients_are_stored_as_int():
    """A sum over a common denominator that divides out is an int, not a
    Fraction with denominator 1."""
    e, f = NecklaceElement.of("x*x*", Fraction(1, 2)), NecklaceElement.of("xx", Fraction(-1, 2))
    h = necklace_bracket(CANON1, e, f)
    assert h.terms == {Necklace.of("xx*"): 1} and type(h.terms[Necklace.of("xx*")]) is int
    r = rng(29)
    fractional = integral = 0
    for _ in range(60):
        e1 = _sampled_necklace_element(r, letters(1))
        e2 = _sampled_necklace_element(r, letters(1))
        for c in necklace_bracket(CANON1, e1, e2).terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
            integral += type(c) is int
            fractional += type(c) is Fraction
    assert integral and fractional


def test_an_ngl_opening_that_merges_rows():
    """Under ngl(2), e11e11 opens at both positions into the same words, and
    {{e11, e11}} = e11 (x) 1 - 1 (x) e11 makes some of them cancel: the
    necklace view keeps fewer words than the opening, in its general, after
    and before rows together, as integers over one denominator, and the
    bracket still equals the projected Loday bracket of representatives."""
    rule = ngl(2)
    e11, e12, e21 = (Letter(k) for k in (1, 2, 3))
    left = NecklaceElement({
        Necklace.of(Word([e11, e11])): Fraction(1, 2),
        Necklace.of(Word([e12, e21])): Fraction(-2, 3),
        Necklace.of(Word([e11, e12, e21])): 5,
    })
    _necklace_view.cache_clear()
    rows, _, after, before, den = _necklace_view(rule, left)
    kept = [dict(row) for kind in (rows, after, before) for row in kind.values()]
    assert sum(map(len, kept)) < sum(map(len, _open(rule, left).values()))
    # e11e11's two openings sum its 1/2 to whole numbers, so only the 3 is left
    assert den == 3 and all(type(c) is int for row in kept for c in row.values())
    assert _necklace_view(rule, NecklaceElement(dict(left.terms))) is _necklace_view(rule, left)
    assert set(rule.decode.values()) == set(rule.generators)
    r = rng(31)
    rights = [_sampled_necklace_element(r, rule.generators) for _ in range(40)]
    wants = [project_to_necklace(loday_bracket(rule, FreeElement(left.terms), FreeElement(e.terms))) for e in rights]
    assert sum(map(bool, wants)) > 20
    _necklace_view.cache_clear()
    assert [necklace_bracket(rule, left, e) for e in rights] == wants
    assert _necklace_view.cache_info().misses == 1


# upper triangular 2x2 matrices on x1 = e11, x2 = e12, x3 = e22
UPPER_TRIANGULAR = '{"dim": 3, "a": [[1, 1, 1, "1"], [1, 2, 2, "1"], [2, 3, 2, "1"], [3, 3, 3, "1"]]}'


@pytest.mark.parametrize(
    "rule",
    [ngl(2), linear_rule(StructureConstants.from_json(UPPER_TRIANGULAR))],
    ids=["ngl2", "json_upper_triangular"],
)
def test_a_word_keyed_from_its_last_position_matches_the_projected_loday_bracket(rule):
    """Under both rules {{e11, e12}} has the term e12 (x) 1, as e11 e12 = e12,
    so (e11 e12) opens at e11 into the word e12 e12, which begins with the
    letter e12 it replaces.  The view holds every such word in a gap row:
    an after row, less that letter, or a before row, less its last letter,
    when it also ends with it, as e12 e12 does.  The bracket still equals
    the projected Loday bracket of representatives, against one-letter
    necklaces too, whose one gap lies between their letter and itself."""
    r = rng(37)
    gens = rule.generators  # e11, e12, ... as x1, x2, ...
    singles = [NecklaceElement.of(Word([g])) for g in gens]
    left = _sampled_necklace_element(r, gens) + NecklaceElement.of(Word(gens[:2]))
    rows, _, _, before, _ = _necklace_view(rule, left)
    assert not any(k[:1] == x for x, row in rows.items() for k, _ in row)
    e12 = chr(gens[1])
    assert dict(before[e12]).get(e12)
    rights = singles + [_sampled_necklace_element(r, gens) for _ in range(30)]
    wants = [project_to_necklace(loday_bracket(rule, FreeElement(left.terms), FreeElement(e.terms))) for e in rights]
    assert sum(map(bool, wants)) > 15 and any(wants[:len(singles)])
    assert [necklace_bracket(rule, left, e) for e in rights] == wants


def test_a_gap_whose_left_letter_has_no_rows_reads_the_right_letter_alone():
    """x1x1* opens only at partners x1* and x1, into before rows, so x2 has
    no row of any kind and no letter pair has a pair row; the gap of x1*x2
    between x2 and x1* still reads x1*'s before row."""
    left = NecklaceElement.of("x1x1*")
    _necklace_view.cache_clear()
    rows, pairs, after, before, _ = _necklace_view(CANON2, left)
    x2 = chr(Letter(2))
    assert x2 not in rows and x2 not in after and x2 not in before
    want = NecklaceElement.of("x1*x2")
    assert kontsevich_bracket(left, "x1*x2") == want
    assert necklace_bracket(CANON2, left, "x1*x2") == want
    assert not pairs and before[chr(Letter(1, True))]


def test_a_pair_row_that_cancels_reads_as_empty():
    """x1x1*x1* opens at x1 into the before row x1* of x1* and at its last
    x1* into the after row x1* of x1, with opposite signs: the pair row
    (x1, x1*) cancels to ().  The gap of x1x1* between x1 and x1* reads it
    as empty and not the after row alone, which would add -x1x1*x1*."""
    left = NecklaceElement.of("x1") + NecklaceElement.of("x1x1*x1*")
    _necklace_view.cache_clear()
    _, pairs, after, before, _ = _necklace_view(CANON1, left)
    x, xs = chr(Letter(1)), chr(Letter(1, True))
    assert pairs[x + xs] == () and after[x] and before[xs]
    want = kontsevich_bracket(left, "x1x1*")
    assert want == NecklaceElement.of("x1") - NecklaceElement.of("x1x1*x1*")
    assert necklace_bracket(CANON1, left, "x1x1*") == want


@pytest.mark.parametrize("rule", [CANON1, CANON2, ngl(2)], ids=["canonical1", "canonical2", "ngl2"])
def test_a_one_letter_right_necklace_reads_the_pair_of_its_letter_alone(rule):
    """The one gap of a one-letter necklace x lies between x and itself, so
    the bracket reads the pair row (x, x) and the general row of x; the
    view holds a pair row for every letter pair with an after and a before
    row."""
    r = rng(43)
    nonzero = 0
    for _ in range(12):
        left = _sampled_necklace_element(r, rule.generators)
        for g in rule.generators:
            single = Word([g])
            _necklace_view.cache_clear()
            got = necklace_bracket(rule, left, single)
            assert got == project_to_necklace(loday_bracket(rule, FreeElement(left.terms), single))
            if rule in (CANON1, CANON2):
                assert got == kontsevich_bracket(left, single)
            if left.terms:
                _, pairs, after, before, _ = _necklace_view(rule, left)
                assert set(pairs) == {y + x for y in after for x in before}
            nonzero += bool(got)
    assert nonzero > 10


@pytest.mark.parametrize("rule", [CANON1, CANON2], ids=["canonical1", "canonical2"])
def test_a_degree_one_left_element_has_general_rows_alone(rule):
    """Opened at its one letter, a degree-1 necklace leaves an empty middle,
    which neither begins nor ends with a letter: no gap rows at all."""
    left = NecklaceElement({Necklace.of(Word([g])): Fraction(1 - 2 * k, 3) for k, g in enumerate(rule.generators)})
    _necklace_view.cache_clear()
    rows, _, after, before, den = _necklace_view(rule, left)
    assert not after and not before and den == 3
    assert all(k == "" for row in rows.values() for k, _ in row)
    r = rng(47)
    rights = [_sampled_necklace_element(r, rule.generators) for _ in range(40)]
    wants = [kontsevich_bracket(left, e) for e in rights]
    assert sum(map(bool, wants)) > 20
    assert [necklace_bracket(rule, left, e) for e in rights] == wants


@pytest.mark.parametrize(
    "rule",
    [ngl(2), linear_rule(StructureConstants.from_json(UPPER_TRIANGULAR))],
    ids=["ngl2", "json_upper_triangular"],
)
def test_middles_that_neither_begin_nor_end_with_their_letter_splice_per_position(rule):
    """Under a matrix-algebra rule e11 e12 e21 (e11 e12 e22 upper triangular)
    opens into words of all three kinds: general rows, spliced at each
    position, next to after and before rows, read per gap."""
    gens = rule.generators
    left = NecklaceElement.of(Word(gens[:3]), Fraction(3, 2))
    _necklace_view.cache_clear()
    rows, _, after, before, _ = _necklace_view(rule, left)
    assert rows and after and before
    assert all(k[:1] != x and k[-1:] != x for x, row in rows.items() for k, _ in row)
    r = rng(53)
    rights = [_sampled_necklace_element(r, gens) for _ in range(40)]
    wants = [project_to_necklace(loday_bracket(rule, FreeElement(left.terms), FreeElement(e.terms))) for e in rights]
    assert sum(map(bool, wants)) > 20
    assert [necklace_bracket(rule, left, e) for e in rights] == wants


def test_double_jacobi_examples():
    assert verify_double_jacobi(CANON1, "x", "x*", "x").is_zero
    assert verify_double_jacobi(CANON1, "xx*", "x*x", "xx").is_zero


def test_double_jacobi_sampled():
    r = rng(17)
    for _ in range(60):
        a = random_word(r, letters(2), 0, 3)
        b = random_word(r, letters(2), 0, 3)
        c = random_word(r, letters(2), 0, 3)
        assert verify_double_jacobi(CANON2, a, b, c).is_zero


def test_center_element_values():
    assert center_element(1, 1).is_zero
    c2 = center_element(1, 2)
    assert c2 == NecklaceElement(
        {Necklace.of("xx*xx*"): 2, Necklace.of("xxx*x*"): -2}
    )
    c3 = center_element(1, 3)
    assert not c3.is_zero
    assert {n.degree for n in c3.terms} == {6}


def test_center_check_small():
    assert center_check(1, 2, 4).ok
    assert center_check(2, 1, 3).ok


def test_center_check_full_grid():
    # the whole desk-scale grid; the d=2, n=3 cell is the expensive one
    for d in (1, 2):
        for n in (1, 2, 3):
            _necklace_view.cache_clear()
            report = center_check(d, n, 6)
            assert report.ok, (d, n, report.failures()[:3])
            # c_n is viewed once and reused for every necklace; c_1 is zero,
            # and a zero bracket views nothing
            viewed = int(n > 1)
            assert _necklace_view.cache_info().misses == viewed
            assert _necklace_view.cache_info().hits == viewed * (len(report.entries) - 1)


def test_center_check_reports_violations_for_noncentral(monkeypatch):
    # the checker must flag a non-central element and name the witness
    monkeypatch.setattr(
        "necklaces.brackets.center_element", lambda d, n: NecklaceElement.of("xx*")
    )
    report = center_check(1, 1, 2)
    assert not report.ok and len(report.entries) == 6
    first = report.failures()[0]
    assert first.label == "{c_1, (x1)} = 0"
    # the witness is the nonzero bracket {xx*, x} = -(x), in the element grammar
    assert first.detail == "-x1"
    assert parse_element(first.detail) == FreeElement.of(word("x"), -1)


def _sampled_necklace_element(r, alphabet, terms=4, max_len=4) -> NecklaceElement:
    out = {}
    for _ in range(r.randrange(1, terms + 1)):
        neck = Necklace.of(random_word(r, alphabet, 0, max_len))
        c = r.choice((r.randint(-5, 5), Fraction(r.randint(-9, 9), r.randint(2, 9))))
        out[neck] = out.get(neck, 0) + c
    return NecklaceElement(out)


@pytest.mark.parametrize(
    "rule",
    [CANON2, ngl(2), ngl(3)],
    ids=["canonical2", "ngl2", "ngl3"],
)
def test_necklace_bracket_matches_per_pair_projection(rule):
    """One projection of the summed Loday brackets equals the sum of the
    projections taken pair by pair."""
    r = rng(7)
    for _ in range(25):
        e1 = _sampled_necklace_element(r, rule.generators)
        e2 = _sampled_necklace_element(r, rule.generators)
        want = NecklaceElement()
        for n1, c1 in e1.terms.items():
            for n2, c2 in e2.terms.items():
                pair = project_to_necklace(
                    loday_bracket(rule, n1, n2)
                )
                want = want + pair.scaled(c1 * c2)
        assert necklace_bracket(rule, e1, e2) == want


@pytest.mark.parametrize("rule", [CANON2, ngl(2), ngl(3)], ids=["canonical2", "ngl2", "ngl3"])
def test_necklace_bracket_rejects_foreign_letters(rule):
    foreign = Word([Letter(10, True)])
    inside = NecklaceElement.of(Word(rule.generators[:2]))
    mixed = inside + NecklaceElement.of(foreign * Word(rule.generators[:1]))
    with pytest.raises(ValueError, match="x10"):
        necklace_bracket(rule, inside, mixed)
    with pytest.raises(ValueError, match="x10"):
        necklace_bracket(rule, mixed, inside)


@pytest.mark.parametrize(
    "rule", [CANON1, CANON2, ngl(2)], ids=["canonical1", "canonical2", "ngl2"]
)
def test_necklace_bracket_keys_are_necklaces(rule):
    """The kernel sums code strings; no string, tuple or bare int code may
    leak into the result."""
    r = rng(11)
    nonzero = 0
    for _ in range(40):
        e1 = _sampled_necklace_element(r, rule.generators)
        e2 = _sampled_necklace_element(r, rule.generators)
        got = necklace_bracket(rule, e1, e2)
        nonzero += bool(got)
        assert all(type(k) is Necklace for k in got.terms)
        assert all(type(a) is Letter for k in got.terms for a in k)
    assert nonzero


def _reference_double_bracket(rule, a, b) -> TensorElement:
    """The closed form as a scan of every letter pair (p, q), each looked up
    with rule.pair; shares nothing with the partner index."""
    out = {}
    for p, ap in enumerate(a):
        for q, bq in enumerate(b):
            t = rule.pair(ap, bq)
            if t is None:
                continue
            for (u, v), c in t.terms.items():
                key = (Word(b[:q] + u + a[p + 1:]), Word(a[:p] + v + b[q + 1:]))
                out[key] = out.get(key, 0) + c
    return TensorElement(out)


def _two_partner_rule() -> BracketRule:
    """x1 pairs with x1* and with x2, x2* pairs with itself; the terms have
    u != v and coefficients other than 1."""
    x1, x1s, x2, x2s = (word(s) for s in ("x1", "x1*", "x2", "x2*"))
    t11 = TensorElement({(EMPTY_WORD, EMPTY_WORD): 2})
    t12 = TensorElement({(x1, x2s): 3, (x2, EMPTY_WORD): Fraction(1, 2)})
    t22 = TensorElement(
        {(x2s, EMPTY_WORD): 1, (EMPTY_WORD, x2s): -1, (x1, x2): 5, (x2, x1): -5}
    )
    return BracketRule(
        letters(2),
        {
            (x1[0], x1s[0]): t11,
            (x1s[0], x1[0]): -t11.flip(),
            (x1[0], x2[0]): t12,
            (x2[0], x1[0]): -t12.flip(),
            (x2s[0], x2s[0]): t22,
        },
    )


INDEX_RULES = [
    BracketRule.canonical(1),
    BracketRule.canonical(3),
    ngl(2),
    ngl(3),
    _two_partner_rule(),
]


@pytest.mark.parametrize(
    "rule", INDEX_RULES, ids=["canonical1", "canonical3", "ngl2", "ngl3", "two_partner"]
)
def test_partner_index_matches_full_scan(rule):
    """double_bracket and necklace_bracket, which visit only indexed partner
    positions, against the scan of every letter pair."""
    r = rng(19)
    for _ in range(150):
        a = random_word(r, rule.generators, 0, 6)
        b = random_word(r, rule.generators, 0, 6)
        assert double_bracket(rule, a, b) == _reference_double_bracket(rule, a, b)
        n1, n2 = Necklace.of(a), Necklace.of(b)
        want = project_to_necklace(
            _reference_double_bracket(rule, n1, n2).collapse()
        )
        assert necklace_bracket(rule, n1, n2) == want


def _random_sum(r, alphabet) -> FreeElement:
    """2 to 4 distinct words with nonzero rational coefficients."""
    terms = {}
    size = r.randint(2, 4)
    while len(terms) < size:
        terms[random_word(r, alphabet, 0, 5)] = Fraction(r.choice([-3, -2, -1, 1, 2, 3]), r.randint(1, 4))
    return FreeElement(terms)


@pytest.mark.parametrize("rule", [CANON2, ngl(2)], ids=["canonical2", "ngl2"])
def test_double_bracket_of_sums_is_the_sum_over_term_pairs(rule):
    """double_bracket opens every term of its first argument at once; it
    agrees with the per-pair scan summed over the term pairs."""
    r = rng(29)
    nonzero = 0
    for _ in range(40):
        a, b = _random_sum(r, rule.generators), _random_sum(r, rule.generators)
        want = TensorElement()
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                want = want + _reference_double_bracket(rule, wa, wb).scaled(ca * cb)
        assert double_bracket(rule, a, b) == want
        nonzero += not want.is_zero
    assert nonzero > 20


def test_double_bracket_checks_letters_when_the_other_side_is_zero():
    for a, b in ((FreeElement(), "x2"), ("x2", FreeElement())):
        with pytest.raises(ValueError, match="x2"):
            double_bracket(CANON1, a, b)


_LEFT_TERMS = [(Necklace.of("x1"), 2), (Necklace.of("x1x1"), -1), (Necklace.of("x1x1x1"), Fraction(1, 3))]


def _left_copy(k: int) -> NecklaceElement:
    """A new element equal to every other copy, its terms inserted in a
    rotated order."""
    k %= len(_LEFT_TERMS)
    return NecklaceElement(dict(_LEFT_TERMS[k:] + _LEFT_TERMS[:k]))


def test_reused_opening_matches_a_fresh_one():
    """necklace_bracket keeps its last view of the left argument.  One left
    element, as equal but distinct copies, interleaved across three rules,
    agrees call by call with a view made afresh."""
    ngl2 = ngl(2)
    rules = [CANON1, CANON1, CANON2, ngl2, ngl2, CANON1, CANON2, CANON2, ngl2, CANON1] * 3
    r = rng(41)
    calls = [(rule, _sampled_necklace_element(r, rule.generators)) for rule in rules]
    want = []
    for k, (rule, right) in enumerate(calls):
        _necklace_view.cache_clear()
        want.append(necklace_bracket(rule, _left_copy(k), right))
    assert sum(map(bool, want)) > 20
    _necklace_view.cache_clear()
    got = [necklace_bracket(rule, _left_copy(k), right) for k, (rule, right) in enumerate(calls)]
    assert got == want
    # a new view exactly where the rule changes; equal copies hit
    changes = 1 + sum(a is not b for a, b in zip(rules, rules[1:]))
    assert _necklace_view.cache_info().misses == changes
    assert _necklace_view.cache_info().hits == len(rules) - changes
    # the same run through double_bracket, which reads the same opening,
    # against the per-pair scan summed over the term pairs
    nonzero = 0
    for k, (rule, right) in enumerate(calls):
        left = FreeElement(_left_copy(k).terms)
        want = TensorElement()
        for wa, ca in left.terms.items():
            for wb, cb in right.terms.items():
                want = want + _reference_double_bracket(rule, wa, wb).scaled(ca * cb)
        assert double_bracket(rule, left, FreeElement(right.terms)) == want
        nonzero += not want.is_zero
    assert nonzero > 20


def test_left_extend_opens_its_element_once():
    """{{a, u (x) v}} for every term of a k-term tensor is {{a, u}} (x) v,
    summed over the terms."""
    rule = _two_partner_rule()
    a = FreeElement({word("x1x2*x1"): 2, word("x2x1*"): Fraction(-1, 3)})
    t = TensorElement({
        (word("x1*x2"), word("x1")): 1,
        (word("x2*x2*"), EMPTY_WORD): -2,
        (word("x1*"), word("x2*x1")): 5,
    })
    got = _left_extend(rule, a, t)
    want = {}
    for (u, v), c in t.terms.items():
        for wa, ca in a.terms.items():
            for (s, r), c2 in _reference_double_bracket(rule, wa, u).terms.items():
                want[(s, r, v)] = want.get((s, r, v), 0) + c * ca * c2
    assert got == TripleTensor(want) and got


def test_letters_are_checked_on_a_cache_hit():
    """A hit on the last necklace view skips only the check of the first
    argument, which the same rule passed when it was opened; the second
    argument is checked on every call."""
    _necklace_view.cache_clear()
    necklace_bracket(CANON2, "x1x2*", "x1*x2")
    with pytest.raises(ValueError, match="x10"):
        necklace_bracket(CANON2, "x1x2*", "x10")
    assert _necklace_view.cache_info().hits == 1
    # a first argument that fails its check is never kept
    for _ in range(2):
        with pytest.raises(ValueError, match="x2"):
            necklace_bracket(CANON1, "x1x2*", "x1*")
    assert _necklace_view.cache_info().hits == 1


def test_a_kept_opening_is_not_checked_again(monkeypatch):
    calls = []
    real = BracketRule.check_letters
    monkeypatch.setattr(BracketRule, "check_letters", lambda rule, w: calls.append(w) or real(rule, w))
    report = center_check(1, 2, 4)
    # each term of c_2 once, when it is opened, and each necklace it meets once
    assert report.ok and len(calls) == len(center_element(1, 2).terms) + len(report.entries)


def test_degree_shift_is_derived_from_the_table():
    x, xs = letters(1)
    t = TensorElement({(word("x"), word("x*")): 3})
    graded = BracketRule(letters(1), {(x, xs): t, (xs, x): -t.flip()})
    assert graded.degree_shift == 0
    assert check_grading(graded, [("xx*", "x*x"), ("x", "x*")]).ok
    mixed = _two_partner_rule()
    assert mixed.degree_shift is None and BracketRule(letters(1), {}).degree_shift is None
    with pytest.raises(ValueError, match="no degree shift"):
        check_grading(mixed, [("x1", "x1*")])
