"""Necklace counting: dimension formulas and direct enumeration.

The two routes are independent: the formulas go through gcd sums and Moebius
inversion, the enumeration walks the prenecklace tree (FKM order) and never
canonicalizes a word.  One walk serves both the enumeration and the count; it
yields each necklace as one list of symbol codes, updated in place, so
counting allocates nothing per necklace.
"""

from __future__ import annotations

from math import comb, gcd
from operator import index

# elements is read when enumerate_necklaces runs, so that counting alone
# (dims, and the sl2 oracle's walk) does not compile it
from . import elements
from .words import letters


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


def _prenecklace_walk(d: int, n: int):
    """FKM walk over the necklaces of length n on 2d symbols (Ruskey, Savage
    and Wang 1992).  Yields each, in lex order, as the list of its symbol
    codes; the list is updated in place from one necklace to the next."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    top, a = 2 * index(d) - 1, [0] * n
    yield a
    while True:
        # raise the last symbol below top, then repeat the first i symbols
        i = n
        while i and a[i - 1] == top:
            i -= 1
        if not i:
            return
        a[i - 1] += 1
        if i < n:
            tail = n - i
            a[i:] = a[:tail] if tail <= i else (a[:i] * (n // i))[:tail]
        if n % i == 0:
            yield a


def enumerate_necklaces(d: int, n: int) -> list[elements.Necklace]:
    """All canonical necklaces of degree n on 2d letters, sorted."""
    alphabet, unchecked = letters(d), elements.Necklace._unchecked
    # the walk yields canonical words only
    return [unchecked([alphabet[s] for s in a]) for a in _prenecklace_walk(d, n)]


def necklace_count_by_enumeration(d: int, n: int) -> int:
    """Count necklaces by walking the FKM tree, without materializing words."""
    return sum(1 for _ in _prenecklace_walk(d, n))
