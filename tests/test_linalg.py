import random
import re
from fractions import Fraction

import pytest

from necklaces.linalg import SparseRow, rank, solve_unique


def sparse(row) -> SparseRow:
    return SparseRow(len(row), {c: v for c, v in enumerate(row) if v})


def sparse_rows(rows) -> list[SparseRow]:
    return [sparse(row) for row in rows]


def test_rank_empty_matrices():
    assert rank([]) == 0
    assert rank(sparse_rows([[]])) == 0
    assert rank(sparse_rows([[0, 0], [0, 0]])) == 0


def test_dict_rows_are_refused():
    # a row is a SparseRow and nothing else: enumerating a dict reads its
    # keys as values, so [{0: 1}, {1: 1}] would read as [[0], [1]] and have
    # rank 1, not 2.  Entries and right-hand sides are read by
    # elements._coeff, zeros included, so a float or a bool is refused.
    not_a = "a row is a SparseRow, not a "
    inexact = "coefficient must be exact (int/Fraction), got "
    refusals = [
        (lambda: rank([{0: 1}, {1: 1}]), not_a + "dict"),
        (lambda: rank([sparse([1, 0]), {1: 1}]), not_a + "dict"),
        (lambda: solve_unique([{0: 1}, {1: 1}], [1, 1]), not_a + "dict"),
        (lambda: solve_unique([sparse([1, 0]), {1: 1}], [1, 1]), not_a + "dict"),
        (lambda: rank([[1, 2]]), not_a + "list"),
        (lambda: rank([sparse([1, 0]), [0, 1]]), not_a + "list"),
        (lambda: rank([(1, 2)]), not_a + "tuple"),
        (lambda: solve_unique([[1, 0], [0, 1]], [1, 1]), not_a + "list"),
        (lambda: rank([SparseRow(1, {0: 0.5})]), inexact + "float"),
        (lambda: rank([SparseRow(2, {0: 1, 1: 0.0})]), inexact + "float"),
        (lambda: rank([SparseRow(1, {0: True})]), inexact + "bool"),
        (lambda: rank([SparseRow(2, {0: 1, 1: False})]), inexact + "bool"),
        (lambda: solve_unique([SparseRow(1, {0: 0.1})], [Fraction(3, 10)]), inexact + "float"),
        (lambda: solve_unique([SparseRow(1, {0: True})], [1]), inexact + "bool"),
        (lambda: solve_unique([SparseRow(1, {0: 1})], [0.3]), inexact + "float"),
        (lambda: solve_unique([SparseRow(1, {0: 1})], [0.0]), inexact + "float"),
        (lambda: solve_unique([SparseRow(1, {0: 1})], [True]), inexact + "bool"),
    ]
    for call, message in refusals:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()


def test_rows_after_a_full_rank_prefix_are_still_refused():
    # the first row fills the one column, so the rank is settled, but every
    # later row is still read and refused
    not_a = "a row is a SparseRow, not a "
    inexact = "coefficient must be exact (int/Fraction), got "
    full = SparseRow(1, {0: 1})
    refusals = [
        (lambda: rank([full, {0: 1}]), not_a + "dict"),
        (lambda: rank([full, SparseRow(1, {0: 0.5})]), inexact + "float"),
        (lambda: rank([full, full, SparseRow(1, {0: True})]), inexact + "bool"),
        (lambda: solve_unique([full, SparseRow(1, {0: 2}), {0: 1}], [1, 3, 1]), not_a + "dict"),
        (lambda: solve_unique([full, full, SparseRow(1, {0: 0.5})], [1, 2, 1]), inexact + "float"),
    ]
    for call, message in refusals:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()


def test_rank_deficient_and_wide():
    # third row = first + second, with rational entries
    half = Fraction(1, 2)
    assert rank(sparse_rows([[1, 2, 3], [half, 0, 1], [Fraction(3, 2), 2, 4]])) == 2
    # more columns than rows: rank is bounded by the row count
    assert rank(sparse_rows([[1, 0, 2, 5, 7], [0, 1, 3, 1, 1]])) == 2
    assert rank(sparse_rows([[1, 2, 3, 4], [2, 4, 6, 8]])) == 1


def test_solve_unique_returns_the_solution():
    a = [[2, 1], [1, 3], [1, 1]]  # overdetermined but consistent
    x = [Fraction(1, 3), Fraction(-2, 5)]
    b = [sum(ai * xi for ai, xi in zip(row, x)) for row in a]
    assert solve_unique(sparse_rows(a), b) == x


def test_solve_unique_inconsistent_is_none():
    assert solve_unique(sparse_rows([[1, 1], [2, 2], [0, 1]]), [1, 3, 0]) is None


def test_solve_unique_rank_deficient_raises():
    with pytest.raises(ValueError):
        solve_unique(sparse_rows([[1, 2], [2, 4]]), [1, 2])


# --- the sparse kernel against an independent dense oracle -------------------


def dense_rank(rows):
    """Textbook Gauss-Jordan over Fractions, kept here as the oracle."""
    m = [[Fraction(v) for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def random_entry(rng, scale=1):
    if rng.random() < 0.5:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9) * scale, rng.choice([1, 1, 2, 3, 4, 6, 7]))


def random_matrix(rng, nrows, ncols, independent, scale=1):
    """nrows rows: `independent` random rows, then rational combinations of
    them and zero rows, shuffled."""
    base = [[random_entry(rng, scale) for _ in range(ncols)] for _ in range(independent)]
    rows = [list(r) for r in base]
    while len(rows) < nrows:
        if rng.random() < 0.2:
            rows.append([Fraction(0)] * ncols)
            continue
        coeffs = [random_entry(rng) for _ in base]
        rows.append([sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(ncols)])
    rng.shuffle(rows)
    return rows


def matvec(a, x):
    return [sum(Fraction(v) * xi for v, xi in zip(row, x)) for row in a]


@pytest.mark.parametrize("seed", range(40))
def test_rank_matches_dense_oracle(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)  # wide, tall and square
    independent = rng.randint(0, min(nrows, ncols))
    rows = random_matrix(rng, nrows, ncols, independent)
    expected = dense_rank(rows)
    assert expected <= independent
    assert rank(sparse_rows(rows)) == expected


@pytest.mark.parametrize("seed", range(20))
def test_tall_full_rank_matrices_match_dense_oracle(seed):
    # many more rows than columns and full column rank, so the elimination
    # stops reducing once every column has a pivot
    rng = random.Random(800 + seed)
    ncols = rng.randint(1, 8)
    rows = random_matrix(rng, ncols + rng.randint(4, 16), ncols, ncols)
    while dense_rank(rows) < ncols:
        rows = random_matrix(rng, len(rows), ncols, ncols)
    assert rank(sparse_rows(rows)) == dense_rank(rows) == ncols
    # a zero column more: the stop never fires, and the rank is the same
    assert rank([SparseRow(ncols + 1, row.entries) for row in sparse_rows(rows)]) == ncols


@pytest.mark.parametrize("seed", range(10))
def test_rank_with_large_entries_matches_dense_oracle(seed):
    # entries with large common factors and large coprime parts, so that the
    # integer rows grow unless they are divided by their content
    rng = random.Random(100 + seed)
    rows = random_matrix(rng, 12, 10, rng.randint(4, 10), scale=rng.randint(2**40, 2**64))
    rows = [[v * rng.randint(1, 2**30) for v in row] for row in rows]
    assert rank(sparse_rows(rows)) == dense_rank(rows)


@pytest.mark.parametrize("seed", range(20))
def test_solve_unique_by_substitution(seed):
    rng = random.Random(200 + seed)
    ncols = rng.randint(1, 8)
    a = random_matrix(rng, ncols + rng.randint(0, 4), ncols, ncols)
    while dense_rank(a) < ncols:
        a = random_matrix(rng, len(a), ncols, ncols)
    x = [random_entry(rng) for _ in range(ncols)]
    b = matvec(a, x)
    found = solve_unique(sparse_rows(a), b)
    assert matvec(a, found) == b
    assert found == x  # the column rank is full, so x is the only solution


@pytest.mark.parametrize("seed", range(10))
def test_solve_unique_inconsistent_systems_are_none(seed):
    rng = random.Random(300 + seed)
    ncols = rng.randint(1, 6)
    a = random_matrix(rng, ncols + rng.randint(1, 4), ncols, ncols)
    b = matvec(a, [random_entry(rng) for _ in range(ncols)])
    # more rows than columns, so some unit vector leaves the column space
    for i in range(len(b)):
        bad = b[:i] + [b[i] + Fraction(1, rng.randint(1, 5))] + b[i + 1:]
        if dense_rank([row + [v] for row, v in zip(a, bad)]) > dense_rank(a):
            break
    assert solve_unique(sparse_rows(a), bad) is None


@pytest.mark.parametrize("seed", range(10))
def test_solve_unique_rank_deficient_systems_raise(seed):
    rng = random.Random(400 + seed)
    ncols = rng.randint(2, 7)
    a = random_matrix(rng, ncols + rng.randint(0, 4), ncols - 1, ncols - 1)
    # one more column that is a combination of the others
    coeffs = [random_entry(rng) for _ in range(ncols - 1)]
    a = [row + [sum(c * v for c, v in zip(coeffs, row))] for row in a]
    b = matvec(a, [random_entry(rng) for _ in range(ncols)])
    with pytest.raises(ValueError):
        solve_unique(sparse_rows(a), b)


# --- SparseRow: the same rows, stored as their nonzero entries ---------------


def test_sparse_row_reads_as_its_dense_form():
    # len is the width and iteration the dense values, as a reader of dense
    # rows (the benchmark tracer counts cells and nonzeros so) expects
    rng = random.Random(500)
    for width in range(8):
        dense = [random_entry(rng) for _ in range(width)]
        row = sparse(dense)
        assert len(row) == width and list(row) == dense
        assert list(row) == list(row)  # iterating twice reads the same values
    assert len(SparseRow(5, {})) == 5 and list(SparseRow(5, {})) == [0] * 5


class EntriesOnly(SparseRow):
    __slots__ = ()

    def __iter__(self):
        raise AssertionError("the dense values of a SparseRow were read")


def test_elimination_reads_only_the_entries():
    # a wide row costs its nonzero entries, not its width
    rows = [EntriesOnly(10**9, {5: 1, 10**9 - 1: Fraction(1, 3)}), EntriesOnly(10**9, {5: 2})]
    assert rank(rows) == 2
    assert solve_unique([EntriesOnly(2, {0: 1}), EntriesOnly(2, {1: 2})], [3, 4]) == [3, 2]


@pytest.mark.parametrize("seed", range(20))
def test_sparse_rows_match_dense_oracle(seed):
    rng = random.Random(600 + seed)
    nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
    rows = random_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
    assert rank([sparse(row) for row in rows]) == dense_rank(rows)


@pytest.mark.parametrize("seed", range(20))
def test_solve_unique_on_sparse_rows(seed):
    rng = random.Random(700 + seed)
    ncols = rng.randint(1, 8)
    a = random_matrix(rng, ncols + rng.randint(0, 4), ncols, ncols)
    while dense_rank(a) < ncols:
        a = random_matrix(rng, len(a), ncols, ncols)
    x = [random_entry(rng) for _ in range(ncols)]
    b = matvec(a, x)
    assert solve_unique([sparse(row) for row in a], b) == x
    # inconsistent: b plus a vector outside the column space, if one exists
    for i in range(len(b)):
        bad = b[:i] + [b[i] + 1] + b[i + 1:]
        if dense_rank([row + [v] for row, v in zip(a, bad)]) > dense_rank(a):
            assert solve_unique([sparse(row) for row in a], bad) is None
            break
