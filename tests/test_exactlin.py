"""Exact linear algebra over Q and prime fields."""

import json
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bggbundles import (GF, QQ, DenseMatrix, FieldError, MalformedSubspaceError,
                        ParameterError, PrimeField, ShapeError, Subspace, modp)
from bggbundles.fields import _is_prime
from bggbundles.pipeline import parse_field
from strand_oracle import sparse_rank

F = GF(32003)
# The largest prime the numpy kernels accept.
LARGEST_PRIME = max(q for q in range(modp.PRIME_BOUND - 100, modp.PRIME_BOUND)
                    if _is_prime(q))


def random_matrix(field, rng, nrows, ncols):
    return DenseMatrix(field, [[field.random_element(rng) for _ in range(ncols)]
                               for _ in range(nrows)], ncols)


def test_field_construction():
    assert GF(2).p == 2
    assert GF(32003)(32003 + 5) == 5
    assert QQ("3/4") == Fraction(3, 4)
    with pytest.raises(FieldError):
        GF(32004)
    with pytest.raises(FieldError):
        GF(1)


def test_prime_field_fraction_coercion():
    # 1/2 mod 7 is 4 since 2*4 = 8 = 1.
    assert GF(7)(Fraction(1, 2)) == 4
    with pytest.raises(FieldError):
        GF(7)(Fraction(1, 7))


def test_rank_trivial_examples():
    m = DenseMatrix(QQ, [[1, 2], [2, 4]])
    assert m.rank() == 1
    assert DenseMatrix.identity(QQ, 3).rank() == 3
    assert DenseMatrix.zeros(F, 4, 5).rank() == 0
    assert DenseMatrix(F, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]).rank() == 2


def test_rank_fraction_entries():
    m = DenseMatrix(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                         [Fraction(3, 2), 2]])
    assert m.rank() == 2
    assert (m - m).rank() == 0
    singular = DenseMatrix(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                                [Fraction(3, 2), 1]])
    assert singular.rank() == 1


@pytest.mark.parametrize("field", [QQ, F], ids=["QQ", "F32003"])
def test_rank_nullity_suite(field):
    rng = random.Random(12345)
    for case in range(1000):
        nr = rng.randint(0, 6)
        nc = rng.randint(1, 6)
        m = random_matrix(field, rng, nr, nc)
        r = m.rank()
        ker = m.kernel_basis()
        assert r + ker.nrows == nc
        if ker.nrows:
            assert (m @ ker.transpose()).is_zero()


@pytest.mark.parametrize("field", [QQ, F], ids=["QQ", "F32003"])
def test_rref_idempotent_suite(field):
    rng = random.Random(54321)
    for case in range(1000):
        m = random_matrix(field, rng, rng.randint(1, 6), rng.randint(1, 6))
        R, piv = m.rref()
        assert R.nrows == m.rank() == len(piv)
        R2, piv2 = R.rref()
        assert R2 == R and piv2 == piv
        # Pivot columns carry unit vectors.
        for t, c in enumerate(piv):
            col = [R[i, c] for i in range(R.nrows)]
            assert col[t] == field.one
            assert not any(x for i, x in enumerate(col) if i != t)


def test_rank_equals_transpose_rank():
    rng = random.Random(99)
    for case in range(1000):
        field = F if case % 2 else QQ
        m = random_matrix(field, rng, rng.randint(0, 6), rng.randint(1, 6))
        assert m.rank() == m.transpose().rank()


def test_solve_right_roundtrip():
    a = DenseMatrix(QQ, [[1, 2], [2, 4]])
    b = DenseMatrix(QQ, [[1], [2]])
    x = a.solve_right(b)
    assert x is not None
    assert a @ x == b
    # Every kernel shift is also a solution.
    ker = a.kernel_basis()
    assert ker.nrows == 1
    for i in range(ker.nrows):
        shift = DenseMatrix(QQ, [[v] for v in ker.row(i)])
        assert a @ (x + shift) == b


def test_solve_right_inconsistent():
    a = DenseMatrix(QQ, [[1, 2], [2, 4]])
    b = DenseMatrix(QQ, [[1], [3]])
    assert a.solve_right(b) is None


def test_solve_right_random_roundtrip():
    rng = random.Random(7)
    for case in range(200):
        field = F if case % 2 else QQ
        a = random_matrix(field, rng, rng.randint(1, 5), rng.randint(1, 5))
        x = random_matrix(field, rng, a.ncols, 2)
        b = a @ x
        sol = a.solve_right(b)
        assert sol is not None and a @ sol == b


def test_matmul_numpy_path_matches_generic():
    # The numpy product against sums of Python ints.
    rng = random.Random(3)
    a = random_matrix(F, rng, 20, 18)
    b = random_matrix(F, rng, 18, 20)
    big = a @ b
    slow = DenseMatrix(F, [[sum(a[i, k] * b[k, j] for k in range(18)) % F.p
                            for j in range(20)] for i in range(20)])
    assert big == slow


def test_kron_row_major_layout():
    a = DenseMatrix(QQ, [[1, 2], [3, 4]])
    b = DenseMatrix(QQ, [[0, 1], [1, 0]])
    k = a.kron(b)
    assert k.shape == (4, 4)
    assert k.to_lists() == [[0, 1, 0, 2], [1, 0, 2, 0], [0, 3, 0, 4], [3, 0, 4, 0]]


def test_empty_matrix_handling():
    e = DenseMatrix.zeros(QQ, 0, 3)
    assert e.rank() == 0
    for field in (QQ, F):
        for shape in ((0, 3), (3, 0), (0, 0)):
            assert DenseMatrix.zeros(field, *shape).rank() == 0
    assert e.kernel_basis().nrows == 3
    with pytest.raises(ShapeError):
        DenseMatrix(QQ, [])


def test_subspace_rejects_dependent_basis():
    with pytest.raises(MalformedSubspaceError):
        Subspace(DenseMatrix(QQ, [[1, 2], [2, 4]]))


def test_prime_field_rank_bounded_by_rational_rank():
    """Reduction mod p cannot raise the rank; with one fixed seed it is equal."""
    rng = random.Random(2024)
    equal = 0
    for case in range(100):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        rq = DenseMatrix(QQ, rows).rank()
        rp = DenseMatrix(F, rows).rank()
        assert rp <= rq
        equal += rp == rq
    assert equal == 100  # 32003 never divides these tiny minors


def test_rank_agrees_with_sympy_oracle():
    import sympy
    rng = random.Random(15)
    for case in range(25):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
        assert DenseMatrix(QQ, rows).rank() == sympy.Matrix(rows).rank()
    # Tall, wide and rank-deficient matrices of fractions: the rank over Q
    # eliminates the transpose, so both orientations are covered.
    for nrows, ncols, inner in ((9, 4, 3), (4, 9, 2), (7, 7, 5), (12, 5, 5)):
        for case in range(5):
            a = sympy.Matrix(nrows, inner, lambda i, j: sympy.Rational(rng.randint(-9, 9),
                                                                         rng.randint(1, 5)))
            b = sympy.Matrix(inner, ncols, lambda i, j: rng.randint(-3, 3))
            prod = a * b
            rows = [[Fraction(int(x.p), int(x.q)) for x in prod.row(i)] for i in range(nrows)]
            assert DenseMatrix(QQ, rows).rank() == prod.rank()


def test_parse_field_refuses_primes_beyond_the_exact_bound():
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="too large"):
            parse_field("fp:2147483647")
        with pytest.raises(ValueError):
            modp.inverse_table(2147483647)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # the 16 GiB inverse table was never built
    assert parse_field(f"fp:{LARGEST_PRIME}").p == LARGEST_PRIME == 1048573
    with pytest.raises(ParameterError):
        parse_field("fp:1048583")  # the next prime



def test_prime_field_refuses_primes_beyond_the_exact_bound():
    # The bound is tested before trial division: 2**61 - 1 is prime, and
    # trial division up to its square root would run for minutes.
    t0 = time.perf_counter()
    for p in (10**12 + 39, 2**61 - 1, modp.PRIME_BOUND + 7):
        with pytest.raises(FieldError, match="too large"):
            GF(p)
    assert time.perf_counter() - t0 < 1
    assert _is_prime(10**12 + 39)


def test_inverse_table_matches_python_pow():
    for p in (2, 3, 101, 32003, LARGEST_PRIME):
        t = modp.inverse_table(p)
        assert t.dtype == np.int64 and t.shape == (p,)
        assert t[0] == 0
        assert t[1:].tolist() == [pow(i, p - 2, p) for i in range(1, p)], p
        assert not np.any(np.arange(1, p) * t[1:] % p != 1)
    with pytest.raises(ValueError):
        modp.inverse_table(modp.PRIME_BOUND)


def test_inverse_table_is_cached_and_read_only():
    t = modp.inverse_table(LARGEST_PRIME)
    assert modp.inverse_table(LARGEST_PRIME) is t
    with pytest.raises(ValueError):
        t[1] = 0


def _rank_mod_p_fractions(rows, p):
    """Rank over F_p by elimination on Fractions, reduced mod p at each step."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0])):
        pivot = next((i for i in range(rank, len(a)) if a[i][c] % p), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(int(a[rank][c]), p - 2, p)
        for i in range(rank + 1, len(a)):
            f = a[i][c] * inv
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def test_numpy_ranks_match_fraction_ranks_at_the_largest_prime():
    p = LARGEST_PRIME
    field = GF(p)
    rng = random.Random(p)
    mats, want = [], []
    for case in range(60):
        k = case % 6  # the rank of a product through k dimensions is at most k
        x = [[rng.randrange(p) for _ in range(k)] for _ in range(6)]
        y = [[rng.randrange(p) for _ in range(5)] for _ in range(k)]
        rows = [[sum(a * b for a, b in zip(xr, col)) % p for col in zip(*y)]
                if k else [0] * 5 for xr in x]
        # Entries next to p make the products in the kernels as large as they get.
        rows[0][0] = p - 1
        ref = _rank_mod_p_fractions(rows, p)
        assert DenseMatrix(field, rows).rank() == ref
        assert len(modp.rref(np.array(rows), p)[1]) == ref
        mats.append(rows)
        want.append(ref)
    assert list(modp.batch_rank(np.array(mats), p)) == want
    assert len(set(want)) > 3


def _lifted(rows, p, rng, top):
    """``rows`` of residues mod p, each lifted by a random multiple of p to
    an integer in [0, top], some of them to the largest such."""
    return [[x + p * (rng.randrange((top - x) // p + 1) if rng.random() < 0.8
                      else (top - x) // p) for x in row] for row in rows]


def test_batch_rank_at_its_delayed_reduction_bound(monkeypatch):
    # batch_rank reduces only the pivot column and row at each step.  Its
    # inputs sit at the bound: entries all p - 1, the largest residue, and
    # unreduced entries up to 2^53 - 1, as the float64 fibers of the random
    # scan arrive, with up to 12 columns.
    p = LARGEST_PRIME
    top = (1 << 53) - 1
    rng = random.Random(53)
    for cols in (1, 2, 5, 9, 12):
        nrows = 14 - cols // 2
        mats = [[[p - 1] * cols for _ in range(nrows)], [[top] * cols for _ in range(nrows)]]
        for case in range(16):
            k = case % (min(nrows, cols) + 1)
            x = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
            y = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(xr, col)) % p for col in zip(*y)]
                    if k else [0] * cols for xr in x]
            if case % 4 == 1:  # p - 1 in every entry of a row keeps the rank at most k + 1
                rows[rng.randrange(nrows)] = [p - 1] * cols
            mats.append(_lifted(rows, p, rng, top) if case % 2 else rows)
        want = [_rank_mod_p_fractions(m, p) for m in mats]
        assert len(set(want)) > min(nrows, cols, 3) - 1, want
        stack = np.array(mats, dtype=np.int64)
        assert stack.max() == top and stack.min() == 0
        assert list(modp.batch_rank(stack, p)) == want, cols
        # Entries past the bound, of either sign, are reduced first: in
        # slices of 5, some slices are and some are not.
        shifted = stack + (p << 42) * np.array([rng.choice((-1, 0, 1)) for _ in mats])[:, None, None]
        assert np.abs(shifted).max() > 1 << 53
        monkeypatch.setattr(modp, "BATCH_SLICE", 5)
        assert list(modp.batch_rank(shifted, p)) == want, cols
        monkeypatch.setattr(modp, "BATCH_SLICE", 3)
        assert list(modp.batch_rank(stack, p)) == want, cols
        monkeypatch.undo()
        assert np.array_equal(stack, np.array(mats))  # the input is not modified
    # Past 2^23 columns even reduced entries could wrap; a zero-stride view
    # of that width costs no memory.
    with pytest.raises(ValueError, match="overflow"):
        modp.batch_rank(np.broadcast_to(np.zeros((1, 1, 1), dtype=np.int64),
                                        (1, 1, 1 << 23)), p)


def _sparse_low_rank_triples(rng, p):
    """A sparse product of rank at most k, as shuffled ``(row, col, value)``
    triples, and its dense rows, over F_p or over Q (``p=None``).

    Over F_p a value is any representative, negative or past p, and some are
    0 mod p.  A value is sometimes split over two triples at one position.
    Some rows are zeroed, and still listed with two triples that cancel or
    are 0 mod p."""
    nr, nc = rng.randint(1, 24), rng.randint(1, 24)
    k = rng.randint(0, min(nr, nc))

    def entry():
        if rng.random() > 0.3:
            return 0
        x = rng.randint(-4, 4)
        return x if p else Fraction(x, rng.randint(1, 3))

    X = [[entry() for _ in range(k)] for _ in range(nr)]
    Y = [[entry() for _ in range(nc)] for _ in range(k)]
    dense = [[sum(X[i][t] * Y[t][j] for t in range(k)) for j in range(nc)]
             for i in range(nr)]
    triples = []
    for i in rng.sample(range(nr), rng.randint(0, nr // 3)):
        dense[i] = [0] * nc
        a, j = rng.randint(1, 9), rng.randrange(nc)
        triples += [(i, j, a), (i, j, -a)]
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            if v == 0 and rng.random() > 0.05:
                continue
            v = v + p * rng.randint(-2, 2) if p else v
            if rng.random() < 0.2 or (v == 0 and rng.random() < 0.5):
                a = rng.randint(-9, 9)
                triples += [(i, j, a), (i, j, v - a)]
            else:
                triples.append((i, j, v))
    rng.shuffle(triples)
    rows, cols, vals = zip(*triples) if triples else ((), (), ())
    return (list(rows), list(cols), list(vals)), dense


@pytest.mark.parametrize("p", [3, 5, 32003, LARGEST_PRIME, None],
                         ids=["F3", "F5", "F32003", "F1048573", "QQ"])
def test_sparse_rank_matches_the_dense_ranks(p):
    from sympy import QQ as SQQ
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(p or 0)
    ranks = []
    for _ in range(150):
        triples, dense = _sparse_low_rank_triples(rng, p)
        want = (modp.rank(np.array(dense, dtype=np.int64), p) if p
                else DomainMatrix.from_list(dense, SQQ).rank())
        assert sparse_rank(*triples, p) == want, (triples, dense)
        # numpy arrays give the same rank as lists.
        assert sparse_rank(*(np.array(x) for x in triples), p) == want
        ranks.append(want)
    assert len(set(ranks)) > 5
    for empty in (([], [], []), (np.zeros(0, np.int64),) * 3):
        assert sparse_rank(*empty, p) == 0



@pytest.mark.parametrize("p", [3, 32003, LARGEST_PRIME], ids=["F3", "F32003", "F1048573"])
def test_sparse_rank_sums_repeats_past_int64(p):
    # Every entry is split into two values near +-2**70, whose sum is the
    # entry mod p: an int64 cast overflows, and keeping one of the two
    # values instead of their sum gives another matrix.
    big = 1 << 70
    rng = random.Random(p)
    for _ in range(10):
        dense = [[rng.randrange(p) for _ in range(6)] for _ in range(5)]
        dense.append([(a + 2 * b) % p for a, b in zip(dense[0], dense[1])])
        triples = []
        for i, row in enumerate(dense):
            for j, v in enumerate(row):
                k = rng.choice((1, -1)) * big + rng.randint(-5, 5)
                triples += [(i, j, k), (i, j, v - k + p * big)]
        rng.shuffle(triples)
        want = modp.rank(np.array(dense, dtype=np.int64), p)
        assert sparse_rank(*zip(*triples), p) == want <= 5
    # A row listed only as repeats that cancel mod p is zero.
    assert sparse_rank([0, 0, 1], [0, 0, 1], [big + 1, p - big - 1, 1], p) == 1
    # One list holding -1 and 2**63 + 1, which numpy alone would make float64:
    # the determinant is -1, but rounded to floats the two rows are equal.
    huge = (1 << 63) + 1
    assert sparse_rank([0, 0, 1, 1], [0, 1, 0, 1], [huge, -1, huge - 1, -1], p) == 2


def test_sparse_rank_over_qq_is_exact():
    big = 1 << 70
    third = Fraction(1, 3)
    # The determinant is -1; as float64 both rows would be [2**70, 2**70].
    assert sparse_rank([0, 0, 1, 1], [0, 1, 0, 1],
                            [big, big + 1, big + 1, big + 2], None) == 2
    # Proportional Fraction rows, one entry split over two repeats.
    assert sparse_rank([0, 0, 1, 1, 1], [0, 1, 0, 0, 1],
                            [third, Fraction(1, 2), third, third, 1], None) == 1
    # Repeats that cancel leave a zero row.
    assert sparse_rank([0, 0, 1], [0, 0, 1], [third, -third, 2], None) == 1
    assert sparse_rank(np.array([0, 0]), np.array([0, 0]),
                            np.array([third, 2 * third]), None) == 1

# -- DenseMatrix against plain-Python references -----------------------------


def _ref_rref(field, rows, ncols):
    """Gauss-Jordan on Python scalars, each result coerced into ``field``;
    the first nonzero pivot in column order."""
    a = [list(r) for r in rows]
    piv = []
    for c in range(ncols):
        sel = next((i for i in range(len(piv), len(a)) if a[i][c]), None)
        if sel is None:
            continue
        r = len(piv)
        a[r], a[sel] = a[sel], a[r]
        inv = field(Fraction(1, a[r][c]))
        a[r] = [field(x * inv) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [field(x - f * y) for x, y in zip(a[i], a[r])]
        piv.append(c)
    return a[: len(piv)], piv


def _entries(m):
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def _low_rank_matrix(field, rng):
    """Up to 12 x 12, a product through at most min(rows, cols) dimensions,
    with some rows and columns zeroed."""
    nr, nc = rng.randint(1, 12), rng.randint(1, 12)
    k = rng.randint(0, min(nr, nc))
    A = _entries(random_matrix(field, rng, nr, k) @ random_matrix(field, rng, k, nc))
    for i in rng.sample(range(nr), rng.randint(0, nr // 3)):
        A[i] = [field.zero] * nc
    for j in rng.sample(range(nc), rng.randint(0, nc // 3)):
        for row in A:
            row[j] = field.zero
    return DenseMatrix(field, A, nc)


def _assert_elimination_matches_reference(field, rng, a):
    A, k = _entries(a), a.ncols
    R, piv = _ref_rref(field, A, k)
    assert a.rank() == len(piv)
    got_R, got_piv = a.rref()
    assert (_entries(got_R), list(got_piv)) == (R, piv)
    if isinstance(field, PrimeField):
        assert modp.rank(a.to_numpy(), field.p) == len(modp.rref(a.to_numpy(), field.p)[1])
    ker = a.free_column_kernel()
    free = [j for j in range(k) if j not in piv]
    want = []
    for j in free:
        v = [field.zero] * k
        v[j] = field.one
        for t, p in enumerate(piv):
            v[p] = field(-R[t][j])
        want.append(v)
    assert _entries(ker) == want and ker.shape == (len(free), k)
    c = rng.randint(1, 3)
    rhs = random_matrix(field, rng, a.nrows, c)
    aug = [x + y for x, y in zip(A, _entries(rhs))]
    sol = a.solve_right(rhs)
    assert (sol is not None) == (len(_ref_rref(field, aug, k + c)[1]) == len(piv))
    if sol is not None:
        assert a @ sol == rhs
    reachable = a @ random_matrix(field, rng, k, c)
    assert a @ a.solve_right(reachable) == reachable
    return piv


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), F, GF(LARGEST_PRIME)],
                         ids=["QQ", "F2", "F7", "F32003", "F1048573"])
def test_dense_matrix_matches_plain_python_references(field):
    rng = random.Random(2718)
    for case in range(150):
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        a = random_matrix(field, rng, r, k)
        b = random_matrix(field, rng, k, c)
        a2 = random_matrix(field, rng, r, k)
        A, B, A2 = _entries(a), _entries(b), _entries(a2)
        assert _entries(a @ b) == [[field(sum((A[i][t] * B[t][j] for t in range(k)), 0))
                                    for j in range(c)] for i in range(r)]
        assert _entries(a.kron(b)) == [[field(A[i][j] * B[s][t]) for j in range(k)
                                        for t in range(c)] for i in range(r) for s in range(k)]
        assert _entries(DenseMatrix.hstack([a, a2])) == [x + y for x, y in zip(A, A2)]
        assert _entries(DenseMatrix.vstack([a, a2])) == A + A2
        assert _entries(a.transpose()) == [[A[i][j] for i in range(r)] for j in range(k)]
        assert a.transpose().shape == (k, r)
        assert _entries(a + a2) == [[field(x + y) for x, y in zip(u, v)] for u, v in zip(A, A2)]
        assert _entries(a - a2) == [[field(x - y) for x, y in zip(u, v)] for u, v in zip(A, A2)]
        assert (a - a).is_zero() and a.is_zero() == (not any(x for u in A for x in u))
        assert DenseMatrix.from_numpy(field, a.to_numpy()) == a
        if r and k:
            _assert_elimination_matches_reference(field, rng, a)
    # Low rank up to 12 x 12, zero rows and columns, and wide matrices whose
    # pivots run out of rows before the last column.
    stopped_early = 0
    for case in range(60):
        a = (random_matrix(field, rng, rng.randint(1, 6), 12) if case % 3 == 0
             else _low_rank_matrix(field, rng))
        piv = _assert_elimination_matches_reference(field, rng, a)
        stopped_early += len(piv) == a.nrows and piv[-1] < a.ncols - 1
    assert stopped_early >= 3


@pytest.mark.parametrize("field", [QQ, F], ids=["QQ", "F32003"])
def test_dense_matrix_equality_hash_and_python_scalars(field):
    rng = random.Random(31)
    m = random_matrix(field, rng, 4, 3)
    same = [m.transpose().transpose(), DenseMatrix(field, m.to_lists(), 3),
            DenseMatrix.vstack([DenseMatrix(field, [r], 3) for r in m.rows()]),
            m + DenseMatrix.zeros(field, 4, 3),
            DenseMatrix.from_numpy(field, np.array(m.to_lists(), dtype=object))]
    for other in same:
        assert other == m and hash(other) == hash(m)
    other = m + DenseMatrix(field, [[1, 0, 0]] + [[0] * 3] * 3, 3)
    assert other != m
    assert m != m.transpose() and m != DenseMatrix.zeros(field, 4, 3)
    scalar = Fraction if field is QQ else int
    values = [m[1, 2], *m.row(0), *(x for r in m.rows() for x in r),
              *(x for r in m.to_lists() for x in r)]
    assert all(type(x) is scalar for x in values)
    assert all(type(x) is scalar for x in (m @ m.transpose()).to_lists()[0])
    assert all(type(x) is scalar for x in DenseMatrix.identity(field, 2).row(1))
    if field is F:
        assert json.loads(json.dumps(m.to_lists())) == m.to_lists()
        assert m.to_numpy().dtype == np.int64
    else:
        assert m.to_numpy().dtype == object


@pytest.mark.parametrize("field", [QQ, F], ids=["QQ", "F32003"])
def test_dense_matrix_storage_is_read_only(field):
    rng = random.Random(5)
    m = random_matrix(field, rng, 3, 3)
    before = m.to_lists()
    for view in (m, m.transpose(), m.rref()[0], m @ m, m.kron(m),
                 DenseMatrix.hstack([m, m]), m.free_column_kernel(),
                 DenseMatrix.identity(field, 3), DenseMatrix.zeros(field, 2, 2)):
        arr = view.to_numpy()
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1
    assert m.to_lists() == before


def test_matmul_at_the_largest_prime_is_exact_or_refused():
    p = LARGEST_PRIME
    field = GF(p)
    rng = random.Random(p)
    for ncols in (1, 7, 3000):
        # All entries p - 1: each product is (p-1)**2 ~ 2**40, summed ncols times.
        a = DenseMatrix(field, [[p - 1] * ncols, [rng.randrange(p) for _ in range(ncols)]])
        b = DenseMatrix(field, [[p - 1, rng.randrange(p)] for _ in range(ncols)])
        A, B = a.to_lists(), b.to_lists()
        assert (a @ b).to_lists() == [[sum(x * y for x, y in zip(row, col)) % p
                                       for col in zip(*B)] for row in A]
    # One more column than int64 sums of (p-1)**2 can hold: refused before any
    # work (np.zeros is lazily allocated, so these pages are never touched).
    limit = -(-2**63 // (p - 1) ** 2)
    assert (limit - 1) * (p - 1) ** 2 < 2**63 <= limit * (p - 1) ** 2
    wide, tall = DenseMatrix.zeros(field, 1, limit), DenseMatrix.zeros(field, limit, 1)
    with pytest.raises(OverflowError):
        wide @ tall
