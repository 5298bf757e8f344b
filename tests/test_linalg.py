from fractions import Fraction

import pytest

from necklaces.linalg import rank, solve_unique


def test_rank_empty_matrices():
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert rank([[0, 0], [0, 0]]) == 0


def test_rank_deficient_and_wide():
    # third row = first + second, with rational entries
    half = Fraction(1, 2)
    assert rank([[1, 2, 3], [half, 0, 1], [Fraction(3, 2), 2, 4]]) == 2
    # more columns than rows: rank is bounded by the row count
    assert rank([[1, 0, 2, 5, 7], [0, 1, 3, 1, 1]]) == 2
    assert rank([[1, 2, 3, 4], [2, 4, 6, 8]]) == 1


def test_solve_unique_returns_the_solution():
    a = [[2, 1], [1, 3], [1, 1]]  # overdetermined but consistent
    x = [Fraction(1, 3), Fraction(-2, 5)]
    b = [sum(ai * xi for ai, xi in zip(row, x)) for row in a]
    assert solve_unique(a, b) == x


def test_solve_unique_inconsistent_is_none():
    assert solve_unique([[1, 1], [2, 2], [0, 1]], [1, 3, 0]) is None


def test_solve_unique_rank_deficient_raises():
    with pytest.raises(ValueError):
        solve_unique([[1, 2], [2, 4]], [1, 2])
