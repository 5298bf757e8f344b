"""Exact sparse linear algebra over the rationals.

A row is a SparseRow, its width and its nonzero entries {column: value};
any other row is refused.  An int entry is read as it is; any other entry,
and a right-hand side, is read by the package's one coercion,
elements._coeff, so a float or a bool raises.  That module is read only
then, so ranks of int rows, as the sl2 oracle's are, do not compile it.

One kernel serves rank and solve: each row is cleared of denominators to a
primitive integer row, stored sparse as {column: int}, and reduced
fraction-free against the pivot rows found so far.  A row leads at its
highest nonzero column; on the sl2 E-action blocks this keeps the pivot rows
far sparser, with smaller entries, than leading at the lowest.  Once there
are as many pivots as columns, the rank can grow no more, so later rows are
only read, not reduced: each still goes through the same refusals.  Every
step stays in the integers and every answer is exact; only the
back-substitution of solve_unique returns to Fractions.  The sl2 E-action
ranks call rank; solve_unique has no caller in the library.
"""

from __future__ import annotations

from math import gcd, lcm

from . import elements


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


class SparseRow:
    """A row of `width` columns, stored as its nonzero entries {column: value}.

    The elimination reads the entries alone.  len() is the width and iteration
    yields the dense values; perfbench/tracer.py, their only reader, counts a
    matrix's cells and nonzeros from them.
    """

    __slots__ = ("width", "entries")

    def __init__(self, width: int, entries: dict):
        self.width, self.entries = width, entries

    def __len__(self):
        return self.width

    def __iter__(self):
        get = self.entries.get
        return (get(c, 0) for c in range(self.width))


def _entries(row):
    """The (column, value) pairs of a SparseRow; any other row is refused."""
    if not isinstance(row, SparseRow):
        raise TypeError(f"a row is a SparseRow, not a {type(row).__name__}")
    return row.entries.items()


def _integer_row(entries) -> dict[int, int]:
    """The nonzero entries, (column, value) pairs, scaled to coprime integers."""
    row = {c: v if type(v) is int else elements._coeff(v) for c, v in entries}
    scale = lcm(*(v.denominator for v in row.values()))
    return _primitive({c: v.numerator * (scale // v.denominator) for c, v in row.items() if v})


def _eliminate(rows, width: int) -> dict[int, dict[int, int]]:
    """Echelon form of the rows, each given as its (column, value) pairs in
    columns 0..width-1, as pivot rows keyed by leading column, the highest
    column with a nonzero entry.

    Each row is reduced by row = a*row - b*pivot at its leading column until
    that column has no pivot yet (it becomes one) or the row vanishes.  With
    a pivot in every column, the rows left are read but not reduced.
    """
    pivots: dict[int, dict[int, int]] = {}
    for entries in rows:
        row = _integer_row(entries)
        if len(pivots) == width:
            continue
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                v = row.get(c, 0) - b * v
                if v:
                    row[c] = v
                else:
                    del row[c]
            row = _primitive(row)
    return pivots


def rank(rows: list) -> int:
    """Rank of SparseRows by exact fraction-free sparse elimination."""
    entries = [_entries(row) for row in rows]
    return len(_eliminate(entries, max((row.width for row in rows), default=0)))


def solve_unique(a: list, b: list) -> list | None:
    """Solve A x = b, A a list of SparseRows, where a solution, if any, is
    unique (full column rank), as a list of Fractions.

    Returns None if the system is inconsistent; raises if the solution is
    not unique.
    """
    # imported here alone: rank, which the sl2 oracle calls, needs no Fraction
    from fractions import Fraction

    # b is column 0, below the unknowns 1..ncols, so it leads only in a row
    # that reads 0 = nonzero
    rows = [
        [(0, bi), *((c + 1, v) for c, v in _entries(row))] for row, bi in zip(a, b, strict=True)
    ]
    ncols = a[0].width if a else 0
    pivots = _eliminate(rows, ncols + 1)
    if 0 in pivots:
        return None
    if len(pivots) < ncols:
        raise ValueError("solution is not unique (column rank deficient)")
    x = [Fraction(0)] * (ncols + 1)
    for c in range(1, ncols + 1):
        row = pivots[c]
        rest = row.get(0, 0) - sum(v * x[j] for j, v in row.items() if 0 < j < c)
        x[c] = Fraction(rest, row[c])
    return x[1:]
