import itertools

import pytest

from necklaces import counting
from necklaces.counting import (
    binary_necklace_count,
    binomial,
    divisors,
    enumerate_necklaces,
    lyndon_count,
    mobius,
    necklace_count_by_enumeration,
    necklace_dimension,
)
from necklaces.elements import Necklace
from necklaces.words import Word, canonical_rotation, letters


def brute_necklace_set(d, n):
    # oracle: canonicalize all (2d)^n words
    alpha = letters(d)
    return {
        canonical_rotation(Word(t)) for t in itertools.product(alpha, repeat=n)
    }


def brute_aperiodic_binary(length, marked):
    # oracle: enumerate binary words, keep one per orbit, drop periodic ones
    seen, count = set(), 0
    for bits in itertools.product((0, 1), repeat=length):
        if sum(bits) != marked:
            continue
        rots = {bits[i:] + bits[:i] for i in range(length)}
        if min(rots) in seen:
            continue
        seen.add(min(rots))
        if len(rots) == length:
            count += 1
    return count


def test_divisors_and_mobius():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_binomial_conventions():
    assert binomial(4, 2) == 6
    assert binomial(4, -1) == 0
    assert binomial(4, 5) == 0


def test_necklace_dimension_examples():
    assert necklace_dimension(1, 2) == 3  # matches dim sl2
    assert necklace_dimension(1, 6) == 14
    assert necklace_dimension(2, 2) == 10  # matches dim sp(4)
    assert necklace_dimension(1, 0) == 1


def test_dimension_matches_enumeration_small():
    for d, top in [(1, 7), (2, 5), (3, 5)]:
        for k in range(0, top + 1):
            got = enumerate_necklaces(d, k)
            assert len(got) == necklace_dimension(d, k)
            assert len(set(got)) == len(got)
            assert got == sorted(got)


def test_enumeration_agrees_with_brute_canonicalization():
    for d, k in [(1, 5), (1, 6), (1, 9), (2, 4), (3, 4)]:
        got = set(enumerate_necklaces(d, k))
        expect = {Necklace(w) for w in brute_necklace_set(d, k)}
        assert got == expect


def test_enumerate_examples():
    assert enumerate_necklaces(1, 0) == [Word()]
    two = enumerate_necklaces(1, 2)
    assert len(two) == 3
    assert {repr(n) for n in two} == {"(x1x1)", "(x1x1*)", "(x1*x1*)"}
    assert len(enumerate_necklaces(1, 4)) == 6


def test_count_by_enumeration_matches_formula():
    for d, top in [(1, 12), (2, 8), (3, 6)]:
        for k in range(0, top + 1):
            assert necklace_count_by_enumeration(d, k) == necklace_dimension(d, k)


def test_walk_runs_on_int_codes_past_the_last_code_point():
    # codes run to 1114113; x557057 (1114112) and x557057* lie past the last code point
    assert necklace_count_by_enumeration(557057, 1) == 1114114


def test_lyndon_count_examples_and_oracle():
    assert lyndon_count(1, 0) == 1
    assert lyndon_count(4, 2) == 1
    assert lyndon_count(6, 3) == 3
    for length in range(1, 9):
        for marked in range(0, length + 1):
            assert lyndon_count(length, marked) == brute_aperiodic_binary(length, marked)


def test_a_counting_sum_with_a_remainder_is_refused(monkeypatch):
    """The formulas divide sums that k divides; with a broken term the
    remainder raises, under python -O too, instead of being floored."""
    monkeypatch.setattr(counting, "mobius", lambda k: 1)  # C(3, 0) + C(1, 0) = 2
    with pytest.raises(ArithmeticError, match="sum 2 is not divisible by 3"):
        lyndon_count(3, 0)
    monkeypatch.setattr(counting, "gcd", lambda k, i: i)  # 2 + 4 + 8 = 14
    with pytest.raises(ArithmeticError, match="sum 14 is not divisible by 3"):
        necklace_dimension(1, 3)


def test_periodic_completion_identity():
    # summing aperiodic counts over divisors reproduces full binary counts
    for n in range(1, 13):
        total = sum(
            lyndon_count(ell, j) for ell in divisors(n) for j in range(0, ell + 1)
        )
        assert total == necklace_dimension(1, n)


def test_fixed_content_count_matches_enumeration():
    for n in range(1, 11):
        necks = enumerate_necklaces(1, n)
        for m in range(0, n + 1):
            enumerated = sum(1 for neck in necks if neck.deg_starred() == m)
            assert binary_necklace_count(n, m) == enumerated
