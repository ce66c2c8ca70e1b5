"""Exterior-algebra bases, signs and multiplication matrices."""

import random
from itertools import product
from math import comb

import pytest

from bggbundles import GF, QQ, DenseMatrix, basis_subsets, generator_action, left_mult_sign

F = GF(32003)


def vector_action(v, i, n, field):
    """Left multiplication by v = sum v_j e_j on wedge^i V: the generator
    matrices the package builds, weighted by the coordinates of v."""
    return DenseMatrix.from_numpy(field, sum(x * generator_action(j, i, n, field).to_numpy()
                                             for j, x in enumerate(v)))


def test_basis_enumeration():
    assert basis_subsets(2, 1) == ((0,), (1,), (2,))
    assert basis_subsets(2, 2) == ((0, 1), (0, 2), (1, 2))
    assert basis_subsets(3, 0) == ((),)
    for n in range(5):
        for i in range(n + 2):
            assert len(basis_subsets(n, i)) == comb(n + 1, i)


def test_left_mult_sign_examples():
    assert left_mult_sign(1, (0,)) == (-1, (0, 1))
    assert left_mult_sign(0, (1,)) == (1, (0, 1))
    assert left_mult_sign(0, (0,)) is None
    assert left_mult_sign(2, (0, 1)) == (1, (0, 1, 2))
    assert left_mult_sign(1, (0, 2)) == (-1, (0, 1, 2))


def test_left_mult_sign_rejects_bad_input():
    with pytest.raises(ValueError):
        left_mult_sign(-1, (0,))
    with pytest.raises(ValueError):
        left_mult_sign(3, (0,), n=2)
    with pytest.raises(ValueError):
        left_mult_sign(1, (2, 0))


def test_generator_action_small_cases():
    m = generator_action(0, 0, 1, QQ)
    assert m.to_lists() == [[1], [0]]
    # e_2 on degree 1 of a 3-dimensional V: each column has one entry with the
    # sign counting basis elements below index 2.
    m = generator_action(2, 1, 2, QQ)
    # basis degree 1: {0},{1},{2}; degree 2: {01},{02},{12}
    assert m.to_lists() == [[0, 0, 0], [-1, 0, 0], [0, -1, 0]]


def test_generator_action_column_structure():
    for n, j, i in product(range(4), range(4), range(4)):
        if j > n or i > n:
            continue
        m = generator_action(j, i, n, QQ)
        for col, S in enumerate(basis_subsets(n, i)):
            entries = [m[r, col] for r in range(m.nrows)]
            nonzero = [x for x in entries if x != 0]
            if j in S:
                assert not nonzero
            else:
                assert len(nonzero) == 1 and nonzero[0] in (1, -1)


def test_generator_action_beyond_top_degree():
    m = generator_action(1, 3, 2, QQ)
    assert m.shape == (0, 1)


def test_squares_and_anticommutation():
    for n in range(1, 4):
        for i in range(n):
            for j in range(n + 1):
                for k in range(n + 1):
                    a = generator_action(j, i + 1, n, QQ) @ generator_action(k, i, n, QQ)
                    b = generator_action(k, i + 1, n, QQ) @ generator_action(j, i, n, QQ)
                    assert (a + b).is_zero()


def test_vector_squares_vanish():
    rng = random.Random(8)
    for n in (2, 3, 4):
        for _ in range(20):
            v = [F.random_element(rng) for _ in range(n + 1)]
            for i in range(n):
                prod = vector_action(v, i + 1, n, F) @ vector_action(v, i, n, F)
                assert prod.is_zero()


def koszul_exact(v, n, field):
    prev = 0
    for i in range(n + 1):
        r = vector_action(v, i, n, field).rank()
        if prev + r != comb(n + 1, i):
            return False
        prev = r
    return True


def test_koszul_exactness_exhaustive_small():
    f3 = GF(3)
    for n in (1, 2):
        for v in product(range(3), repeat=n + 1):
            if any(v):
                assert koszul_exact(v, n, f3)


def test_koszul_exactness_random():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(25):
            v = [F.random_element(rng) for _ in range(n + 1)]
            if all(x == 0 for x in v):
                continue
            assert koszul_exact(v, n, F)
