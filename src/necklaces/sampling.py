"""Seeded sampling of words, and the verify suites that check brackets on samples."""

from __future__ import annotations

import random

from . import brackets, counting, elements, linear_rules, report, words


def rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


def random_word(r: random.Random, alphabet, min_len=0, max_len=5) -> words.Word:
    n = r.randrange(min_len, max_len + 1)
    return words.Word(r.choice(alphabet) for _ in range(n))


def _summary(suite, label, witnesses, count, noun):
    """Add one entry for `count` sampled `noun`, of which `witnesses` (text)
    fail; a failure names how many fail and the first of them."""
    detail = f"{len(witnesses)} of {count} {noun} fail, first {witnesses[0]}" if witnesses else ""
    suite.add(label, not witnesses, detail)


def _sampled(suite, label, r, alphabet, top, holds, count):
    """Check `holds` on `count` random word triples of length 0..top and add
    one entry through _summary; a failing triple reads (a, b, c)."""
    triples = ([random_word(r, alphabet, 0, top) for _ in range(3)] for _ in range(count))
    failed = [f"({', '.join(map(words.format_word, t))})" for t in triples if not holds(*t)]
    _summary(suite, label, failed, count, "triples")


def jacobi_suite(seed: int, max_degree: int) -> report.CheckReport:
    suite = report.CheckReport("double Jacobi identity")
    r = rng(seed)
    length = max(1, max_degree // 3)
    canonical = brackets.BracketRule.canonical
    for label, rule, alphabet, top in (
        ("canonical rule, d=1, 120 sampled triples", canonical(1), words.letters(1), length),
        ("canonical rule, d=2, 120 sampled triples", canonical(2), words.letters(2), length),
        ("matrix-algebra linear rule, 120 sampled triples", linear_rules.ngl(2), words.unstarred(4), 2),
    ):
        holds = lambda a, b, c: brackets.verify_double_jacobi(rule, a, b, c).is_zero
        _sampled(suite, label, r, alphabet, top, holds, 120)
    return suite


def loday_suite(seed: int, max_degree: int) -> report.CheckReport:
    suite = report.CheckReport("Loday identity and commutator triviality")
    rule = brackets.BracketRule.canonical(1)
    holds = lambda a, b, c: brackets.verify_loday_properties(rule, a, b, c) == (True, True)
    label = "canonical rule d=1, 100 sampled triples"
    top = max(1, max_degree // 3)
    _sampled(suite, label, rng(seed), words.letters(1), top, holds, 100)
    return suite


def grading_suite(seed: int, max_degree: int) -> report.CheckReport:
    suite = report.CheckReport("bracket grading")
    r = rng(seed)
    necks = [n for k in range(max_degree + 1) for n in counting.enumerate_necklaces(1, k)]
    canonical_pairs = [(r.choice(necks), r.choice(necks)) for _ in range(150)]
    bead = lambda: elements.Necklace.of(random_word(r, words.unstarred(4), 1, 3))
    linear_pairs = [(bead(), bead()) for _ in range(150)]
    for name, rule, pairs in (
        ("canonical", brackets.BracketRule.canonical(1), canonical_pairs),
        ("linear", linear_rules.ngl(2), linear_pairs),
    ):
        label = f"{name} rule has degree {rule.degree_shift}"
        failed = [f"{e.label}: {e.detail}" for e in brackets.check_grading(rule, pairs).failures()]
        _summary(suite, label, failed, len(pairs), "pairs")
    return suite
