"""Necklace counting: dimension formulas and direct enumeration.

The two routes are independent: the formulas go through gcd sums and Moebius
inversion, the enumeration walks the prenecklace tree (FKM order) and never
canonicalizes a word.  One walk serves both the enumeration and the count; it
hands each necklace to a visitor as its reused symbol array, so counting
allocates nothing per necklace.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .elements import Necklace
from .words import Letter


def divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    """Moebius function by trial-division factorization."""
    if n < 1:
        raise ValueError("mobius is defined for n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def binomial(n: int, k) -> int:
    """C(n, k), defined as 0 for k < 0, k > n, or non-integral k."""
    if isinstance(k, Fraction):
        if k.denominator != 1:
            return 0
        k = int(k)
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(min(k, n - k)):
        out = out * (n - i) // (i + 1)
    return out


def necklace_dimension(d: int, k: int) -> int:
    """Number of necklaces of length k on 2d letters: (1/k) sum (2d)^gcd(k,i)."""
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")
    if k == 0:
        return 1  # the unit necklace; convention documented here
    total = sum((2 * d) ** gcd(k, i) for i in range(1, k + 1))
    assert total % k == 0
    return total // k


def lyndon_count(length: int, marked) -> int:
    """Aperiodic binary necklaces of given length with `marked` marked beads.

    (1/l) sum_{k | gcd(l, j)} mu(k) C(l/k, j/k); gcd(l, 0) = l.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    j = Fraction(marked)
    if j.denominator != 1:
        return 0
    j = int(j)
    if j < 0 or j > length:
        return 0
    total = 0
    for k in divisors(gcd(length, j) if j else length):
        total += mobius(k) * binomial(length // k, Fraction(j, k))
    assert total % length == 0
    return total // length


def binary_necklace_count(n: int, m) -> int:
    """Binary necklaces of length n with m marked beads, via aperiodic ones;
    the empty necklace counts once, as in necklace_dimension."""
    if n == 0:
        return int(m == 0)
    m = Fraction(m)
    if m.denominator != 1:
        return 0
    m = int(m)
    total = 0
    for ell in divisors(n):
        if (ell * m) % n == 0:
            total += lyndon_count(ell, ell * m // n)
    return total


def _prenecklace_walk(k: int, n: int, visit):
    """FKM traversal; calls visit(a) for each necklace, in lex order, with the
    necklace's symbols in a[1:].  The list a is reused from call to call."""
    a = [0] * (n + 1)

    def gen(t, p):
        if t > n:
            if n % p == 0:
                visit(a)
            return
        a[t] = a[t - p]
        gen(t + 1, p)
        for j in range(a[t - p] + 1, k):
            a[t] = j
            gen(t + 1, t)

    gen(1, 1)


def enumerate_necklaces(d: int, n: int) -> list[Necklace]:
    """All canonical necklaces of degree n on 2d letters, sorted."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    out: list[Necklace] = []
    letters = [Letter.from_code(c) for c in range(2 * d)]

    def visit(a):
        # the walk visits canonical words only
        out.append(Necklace._unchecked([letters[s] for s in a[1:]]))

    _prenecklace_walk(2 * d, n, visit)
    return out


def necklace_count_by_enumeration(d: int, n: int) -> int:
    """Count necklaces by walking the FKM tree, without materializing words."""
    count = 0

    def visit(a):
        nonlocal count
        count += 1

    _prenecklace_walk(2 * d, n, visit)
    return count
