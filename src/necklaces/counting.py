"""Necklace counting: dimension formulas and direct enumeration.

The two routes are independent: the formulas go through gcd sums and Moebius
inversion, the enumeration walks the prenecklace tree (FKM order) and never
canonicalizes a word.  One walk serves both the enumeration and the count; it
hands each necklace to a visitor as its reused symbol array, so counting
allocates nothing per necklace.
"""

from __future__ import annotations

from math import comb, gcd

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


def binomial(n: int, k: int) -> int:
    """C(n, k), defined as 0 for k < 0 or k > n."""
    return comb(n, k) if 0 <= k <= n else 0


def necklace_dimension(d: int, k: int) -> int:
    """Number of necklaces of length k on 2d letters: (1/k) sum (2d)^gcd(k,i)."""
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")
    if k == 0:
        return 1  # the unit necklace; convention documented here
    return _exact_quotient(sum((2 * d) ** gcd(k, i) for i in range(1, k + 1)), k)


def lyndon_count(length: int, marked: int) -> int:
    """Aperiodic binary necklaces of given length with `marked` marked beads.

    (1/l) sum_{k | gcd(l, j)} mu(k) C(l/k, j/k) with j = marked; gcd(l, 0) = l.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if marked < 0 or marked > length:
        return 0
    total = 0
    for k in divisors(gcd(length, marked)):
        total += mobius(k) * binomial(length // k, marked // k)
    return _exact_quotient(total, length)


def _exact_quotient(total: int, k: int) -> int:
    """total / k for the counting sums, which k divides; a remainder is a
    broken formula, refused rather than floored."""
    quotient, remainder = divmod(total, k)
    if remainder:
        raise ArithmeticError(f"sum {total} is not divisible by {k}")
    return quotient


def binary_necklace_count(n: int, m: int) -> int:
    """Binary necklaces of length n with m marked beads, via aperiodic ones;
    the empty necklace counts once, as in necklace_dimension."""
    if n == 0:
        return int(m == 0)
    total = 0
    for ell in divisors(n):
        if (ell * m) % n == 0:
            total += lyndon_count(ell, ell * m // n)
    return total


def _prenecklace_walk(d: int, n: int, visit):
    """FKM traversal of the necklaces of length n on 2d symbols; calls
    visit(a) for each, in lex order, with its symbols in a[1:].  The list a
    is reused from call to call."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    k, a = 2 * d, [0] * (n + 1)

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
    out: list[Necklace] = []
    letters = [Letter.from_code(c) for c in range(2 * d)]

    def visit(a):
        # the walk visits canonical words only
        out.append(Necklace._unchecked([letters[s] for s in a[1:]]))

    _prenecklace_walk(d, n, visit)
    return out


def necklace_count_by_enumeration(d: int, n: int) -> int:
    """Count necklaces by walking the FKM tree, without materializing words."""
    count = 0

    def visit(a):
        nonlocal count
        count += 1

    _prenecklace_walk(d, n, visit)
    return count
