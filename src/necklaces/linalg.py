"""Exact dense linear algebra over the rationals (small matrices only)."""

from __future__ import annotations

from fractions import Fraction


def _eliminate(m: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan on the first ncols columns of m, in place; returns the
    pivot columns.  Columns past ncols (an augmented b) are carried along."""
    nrows = len(m)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def rank(rows: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination with exact arithmetic."""
    m = [list(map(Fraction, r)) for r in rows]
    return len(_eliminate(m, len(m[0]) if m else 0))


def solve_unique(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Solve A x = b where a solution, if any, is unique (full column rank).

    Returns None if the system is inconsistent; raises if the solution is
    not unique.
    """
    ncols = len(a[0]) if a else 0
    m = [list(map(Fraction, a[i])) + [Fraction(b[i])] for i in range(len(a))]
    pivots = _eliminate(m, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None  # inconsistent
    if len(pivots) < ncols:
        raise ValueError("solution is not unique (column rank deficient)")
    x = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        x[c] = row[ncols]
    return x
