"""Cohomology tables, strand maps and homological-dimension certification."""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from bggbundles import modp, sheafcoh
from bggbundles import (GF, QQ, CertificationError, CohomologyCalculator,
                        DenseMatrix, MatrixOfLinearForms, Subspace, bgg_complex,
                        certify_hd, cohomology_table, construct,
                        ConstructionParams, euler_line,
                        free_truncated, monomials, quotient_top,
                        strand_map)
from bggbundles.anchor import AnchorProblem, sample_anchoring
from bggbundles.bgg import LinearComplex, _anchor_restriction, faithfulness_scan
from bggbundles.pipeline import anchored_module, choose_parameters
from bggbundles.sheafcoh import costrand_map
from strand_oracle import (bottom_homology, bottom_strand_rank, line_coh, top_rank,
                           top_strand_rank)

F = GF(32003)


def _complex(rep):
    """The complex of the module P/L that a report's anchor defines, over L's field."""
    return bgg_complex(anchored_module(rep.anchor, rep.params.n, rep.params.l))


def test_line_coh_values():
    assert line_coh(3, 2, 0) == 10
    assert line_coh(3, -4, 3) == 1
    assert all(line_coh(3, -2, q) == 0 for q in range(4))
    assert line_coh(2, 0, 0) == 1
    with pytest.raises(ValueError):
        line_coh(3, 0, 4)


def test_euler_line_polynomial_extension():
    for n in (1, 2, 3, 4):
        for d in range(-8, 5):
            expected = sum((-1) ** q * line_coh(n, d, q) for q in range(n + 1))
            assert euler_line(n, d) == expected


def test_monomial_enumeration():
    assert monomials(1, 1) == ((1, 0), (0, 1))
    assert monomials(2, 2)[0] == (2, 0, 0)
    assert len(monomials(3, 2)) == comb(5, 3)
    assert monomials(2, -1) == ()


def test_strand_map_one_variable_form():
    D = MatrixOfLinearForms((DenseMatrix(QQ, [[1]]), DenseMatrix(QQ, [[0]])))
    m = strand_map(D, 0)
    assert m.to_lists() == [[1], [0]]


def test_strand_map_koszul_rank_oracle():
    # D_0 of the rank-1 Koszul complex on P^2; the strand at d = 1 is the
    # multiplication map S_1 -> S_2 (x) V, which is injective of rank 3.
    import sympy
    P = free_truncated(1, 2, 2, QQ)
    C = bgg_complex(P)
    m = strand_map(C.diffs[0], 1)
    assert m.shape == (18, 3)
    assert m.rank() == 3
    assert sympy.Matrix(m.to_lists()).rank() == 3


def test_strand_composite_zero():
    P = free_truncated(1, 2, 3, F)
    C = bgg_complex(P)
    for d in (0, 1, 2):
        a = strand_map(C.diffs[0], d)
        b = strand_map(C.diffs[1], d + 1)
        assert (b @ a).is_zero()


def _strand_map_reference(D, d):
    """Nonzero entries {(row, col): value} of the degree-d strand, summed
    entry by entry over the slices (the loop the numpy map replaced)."""
    n = D.nvars - 1
    f = D.field
    tpos = {m: k for k, m in enumerate(monomials(n, d + 1))}
    out = {}
    for mi, m in enumerate(monomials(n, d)):
        for j in range(n + 1):
            ti = tpos[tuple(e + 1 if k == j else e for k, e in enumerate(m))]
            s = D.slices[j]
            for r in range(D.nrows):
                srow = s.row(r)
                for c in range(D.ncols):
                    if srow[c]:
                        key = (ti * D.nrows + r, mi * D.ncols + c)
                        out[key] = f(out.get(key, f.zero) + srow[c])
    return {k: x for k, x in out.items() if x}


def _assert_strand_matches_reference(D, d):
    got = strand_map(D, d)
    assert got.shape == (len(monomials(D.nvars - 1, d + 1)) * D.nrows,
                         len(monomials(D.nvars - 1, d)) * D.ncols)
    rows, cols = np.nonzero(got.to_numpy())
    assert {(i, j): got[i, j] for i, j in zip(rows.tolist(), cols.tolist())} \
        == _strand_map_reference(D, d), d
    return got


@pytest.mark.parametrize("n,l,r,t_lo,t_hi", [(3, 2, 5, -14, 6), (4, 3, 7, -12, 2)])
def test_strand_map_matches_entrywise_reference(n, l, r, t_lo, t_hi):
    # The benchmark's table cases, entry by entry: every strand of the
    # slice-wise transposed forms whose rank the calculator reads off on the
    # window (top row), each of the rank read off, and every strand of the
    # forms that the ranked H^0 row of the oracle asks for (bottom row).
    p, dim_l = choose_parameters(n, l, r)
    L = sample_anchoring(F, p, comb(n + 1, l), dim_l, seed=42)
    C = bgg_complex(quotient_top(free_truncated(p, l, n, F), L.subspace))
    calc = CohomologyCalculator(C)
    for i, D in enumerate(C.diffs):
        Dt = sheafcoh._transpose_forms(D)
        for m in range(1, -t_lo - i - n):  # the dual degrees of position i's twists
            assert calc._costrand_rank(i, m) \
                == _assert_strand_matches_reference(Dt, m - 1).rank(), (i, m)
        for d in range(t_hi + i + 1):  # the degrees of position i's twists
            assert bottom_strand_rank(D, d) == _assert_strand_matches_reference(D, d).rank()


def _read_off_strand_ranks(monkeypatch, run):
    """Call ``run()`` and return, once each, the H^n-row ranks the tables
    read off through ``CohomologyCalculator._costrand_rank`` as
    ``(D, d, rank)``: the rank of the degree-d strand of D, the slice-wise
    transpose of the differential."""
    read_off = {}

    def recording(calc, i, m, rank_of=CohomologyCalculator._costrand_rank):
        rank = rank_of(calc, i, m)
        if m >= 1:
            # C is kept in the value, so no later complex takes its id.
            read_off.setdefault((id(calc.C), i, m), (calc.C, i, m - 1, rank))
        return rank

    monkeypatch.setattr(CohomologyCalculator, "_costrand_rank", recording)
    run()
    monkeypatch.undo()
    return [(sheafcoh._transpose_forms(C.diffs[i]), d, rank)
            for C, i, d, rank in read_off.values()]


def test_sparse_rank_on_every_strand_of_the_construction_grid(monkeypatch):
    # Every strand whose rank the cohomology check of construct reads off,
    # for the 20 grid cases at seed 0: the rank read off against both
    # orientations of sparse_rank and the dense rank of the scattered strand.
    def grid():
        for n in (3, 4):
            for l in range(1, n):
                for r in range(n, n + 4):
                    construct(ConstructionParams(n=n, l=l, r=r, seed=0))

    read_off = _read_off_strand_ranks(monkeypatch, grid)
    assert len(read_off) > 50
    for D, d, rank in read_off:
        want = modp.rank(strand_map(D, d).to_numpy(), D.field.p)
        assert rank == bottom_strand_rank(D, d) == top_strand_rank(D, d) == want, d


@pytest.mark.parametrize("r", [5, 6])
def test_both_orientations_on_the_n5_tables(monkeypatch, r):
    # The (5,4,r) table at seed 0 over t in [-10, 0], the window of the
    # cohomology check.  Its H^n-row strands are at most 423360 cells, so
    # the dense oracle ranks every one of them.
    read_off = _read_off_strand_ranks(
        monkeypatch, lambda: construct(ConstructionParams(n=5, l=4, r=r, seed=0)))
    assert len(read_off) > 8
    for D, d, rank in read_off:
        assert rank == bottom_strand_rank(D, d) == top_strand_rank(D, d), d
        assert rank == modp.rank(strand_map(D, d).to_numpy(), D.field.p), d


def _top_rank_cases():
    """(complex, highest dual degree) pairs for the closed-form H^n row: the
    grid at seeds 0-1 past each certificate degree, so that h reaches 0;
    (5,4,5), (5,4,6) and (6,5,7) at seed 0 at low degrees; QQ (3,2,5) at
    seed 3 and QQ (4,3,7) over Q; and free truncations (dim L = 0)."""
    for seed in (0, 1):
        for n in (3, 4):
            for l in range(1, n):
                for r in range(n, n + 4):
                    rep = construct(ConstructionParams(n=n, l=l, r=r, seed=seed))
                    yield _complex(rep), rep.exhaustive_scan.certificate[0] + 2
    for (n, l, r), top in (((5, 4, 5), 3), ((5, 4, 6), 3), ((6, 5, 7), 2)):
        yield _complex(construct(ConstructionParams(n=n, l=l, r=r, seed=0))), top
    for params in (ConstructionParams(3, 2, 5, field_spec="qq", seed=3),
                   ConstructionParams(4, 3, 7, field_spec="qq")):
        rep = construct(params)
        C = _complex(rep)
        assert C.diffs[0].field == QQ
        yield C, rep.exhaustive_scan.certificate[0] + 2
    for n in (3, 4):
        for l in range(1, n + 1):
            yield bgg_complex(free_truncated(2, l, n, F)), 4


def test_closed_form_top_ranks_are_the_ranked_ranks():
    # Every map of the H^n row, read off Koszul binomials and h, against the
    # same map ranked strand by strand, at every position up to the case's
    # highest dual degree.
    cases = 0
    for C, top in _top_rank_cases():
        calc = CohomologyCalculator(C)
        for i in range(C.length):
            for m in range(top + 1):
                assert calc._costrand_rank(i, m) == top_rank(calc, i, m), (C.terms, i, m)
        cases += 1
    assert cases == 40 + 3 + 2 + 7


def _with_slice(C, i, j, slice_):
    D = C.diffs[i]
    slices = D.slices[:j] + (slice_,) + D.slices[j + 1:]
    diffs = C.diffs[:i] + (MatrixOfLinearForms(slices),) + C.diffs[i + 1:]
    return LinearComplex(C.n, C.terms, diffs)


def test_calculator_refuses_a_complex_that_is_not_anchored():
    C = _complex(construct(ConstructionParams(n=4, l=3, r=7, seed=0)))
    n, c = C.n, C.length

    def bump(s):
        return s + DenseMatrix.from_numpy(F, np.eye(*s.shape, dtype=np.int64))

    refused = {
        # one Koszul slice below c-1 perturbed
        "is not I_": _with_slice(C, 1, 2, bump(C.diffs[1].slices[2])),
        # slice n of D_(c-1) is never read for pi (min S < n for |S| = c >= 2)
        "does not factor": _with_slice(C, c - 1, n, bump(C.diffs[c - 1].slices[n])),
        # D_(c-1) = 0 factors through pi = 0, which is not onto
        "not generated": LinearComplex(n, C.terms, C.diffs[:-1] + (MatrixOfLinearForms(
            tuple(DenseMatrix.zeros(F, *s.shape) for s in C.diffs[-1].slices)),)),
    }
    for match, bad in refused.items():
        calc = CohomologyCalculator(bad)  # the check waits for the first rank
        assert cohomology_table(bad, -n, 2, calc).entries  # t >= -n needs no rank
        with pytest.raises(ValueError, match=match):
            cohomology_table(bad, -n - c - 1, 0, calc)
    # Free truncations (dim L = 0) and single-term complexes are tables too.
    for l in (1, 2, 3):
        P = free_truncated(1, l, n, F)
        assert cohomology_table(bgg_complex(P), -n - l - 4, 0).entry(n - l, -n - 1) == 1
    assert cohomology_table(LinearComplex(n, ((0, 2),), ()), -n - 3, 0).entry(n, -n - 1) == 2


def test_intermediate_cohomology_is_the_certificate_hilbert_function():
    # H^(n-1)(F(-n-1-c-d)) is h(d), the cokernel dimension of the degree-d
    # strand of the certificate, so it is dim L at d = 0, nonzero below the
    # certificate degree a and 0 from a on.
    for n in (3, 4):
        for l in range(1, n):
            for r in range(n, n + 4):
                rep = construct(ConstructionParams(n=n, l=l, r=r, seed=0))
                C = _complex(rep)
                c, a = C.length, rep.exhaustive_scan.certificate[0]
                Dt = sheafcoh._transpose_forms(_anchor_restriction(rep.anchor, n, l))
                h = [sheafcoh.strand_cokernel_dim(Dt, d) for d in range(a + 2)]
                assert h[0] == rep.anchor.d and all(h[:a]) and h[a] == h[a + 1] == 0
                calc = CohomologyCalculator(C)
                assert [calc.dim_h(n - 1, -n - 1 - c - d) for d in range(a + 2)] == h
    # Regression numbers: the h-vectors of the two largest certified cases.
    for (n, l, r), h in (((5, 4, 5), [5, 18, 35, 40, 0, 0]),
                         ((6, 5, 7), [5, 21, 44, 42, 0, 0])):
        rep = construct(ConstructionParams(n=n, l=l, r=r, seed=0))
        assert rep.exhaustive_scan.certificate[0] == 4
        calc = CohomologyCalculator(_complex(rep))
        assert [calc.dim_h(n - 1, -n - 1 - l - d) for d in range(6)] == h, (n, l, r)


def _assert_bottom_row_is_the_ranked_row(C, t_lo, t_hi):
    calc = CohomologyCalculator(C)
    for t in range(t_lo, t_hi + 1):
        positions = range(-1, C.length + 2)
        assert [calc.bottom_homology(pos, t) for pos in positions] \
            == [bottom_homology(calc, pos, t) for pos in positions], t


def test_closed_form_bottom_row_is_the_ranked_row():
    # The H^0 row of a certified complex, read off its term dimensions,
    # against the same row ranked strand by strand: at every position, on
    # [-n-l-8, 6] for the 20 grid cases and on the report window [-10, 0]
    # for (5,4,5) and (5,4,6), all at seed 0.
    for n in (3, 4):
        for l in range(1, n):
            for r in range(n, n + 4):
                C = _complex(construct(ConstructionParams(n=n, l=l, r=r, seed=0)))
                _assert_bottom_row_is_the_ranked_row(C, -n - l - 8, 6)
    for r in (5, 6):
        C = _complex(construct(ConstructionParams(n=5, l=4, r=r, seed=0)))
        _assert_bottom_row_is_the_ranked_row(C, -10, 0)


def test_strand_map_matches_entrywise_reference_over_qq():
    P = free_truncated(2, 2, 3, QQ)
    rng = random.Random(4)
    row = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(12)]
    C = bgg_complex(quotient_top(P, Subspace(DenseMatrix(QQ, [row], 12))))
    for D in C.diffs + tuple(sheafcoh._transpose_forms(D) for D in C.diffs):
        for d in range(4):
            m = _assert_strand_matches_reference(D, d)
            assert all(type(x) is Fraction for x in m.to_numpy().ravel())
            assert bottom_strand_rank(D, d) == top_strand_rank(D, d) == m.rank()


def test_costrand_composite_zero():
    P = free_truncated(1, 2, 3, F)
    C = bgg_complex(P)
    for m in (2, 3):
        a = costrand_map(C.diffs[0], m)
        assert (a.nrows, a.ncols) == (comb(3 + m - 1, 3) * 4, comb(3 + m, 3) * 1)
        # The dual-degree composite vanishes just like the strand composite.
        assert (costrand_map(C.diffs[1], m - 1) @ a).is_zero()


def test_single_term_oracle():
    for n in (2, 3):
        for k in (1, 3):
            for twist_rank in [((0, k),)]:
                C = LinearComplex(n, twist_rank, ())
                table = cohomology_table(C, -2 * n - 2, n)
                for t in range(-2 * n - 2, n + 1):
                    for q in range(n + 1):
                        assert table.entry(q, t) == k * line_coh(n, t, q)


def rank5_example_complex():
    """The anchor's basis, the quotient it defines and that quotient's complex."""
    rng = random.Random(0)
    P = free_truncated(2, 2, 3, F)
    while True:
        rows = [[F.random_element(rng) for _ in range(12)]]
        basis = DenseMatrix(F, rows, 12)
        if basis.rank() == 1:
            Q = quotient_top(P, Subspace(basis))
            from bggbundles import hom_space_dim
            if hom_space_dim(Q) == 1:
                return basis, Q, bgg_complex(Q)


def test_rank5_example_table_values():
    basis, Q, C = rank5_example_complex()
    # The H^0 entries are read off the term dimensions, which needs the
    # complex to be a resolution: the anchor is certified.
    scan = faithfulness_scan(AnchorProblem(2, 6, Subspace(basis)), n=3, l=2)
    assert scan.certificate is not None
    _assert_bottom_row_is_the_ranked_row(C, -8, 4)
    table = cohomology_table(C, -8, 4)
    assert table.entry(0, -2) == 11
    assert table.entry(1, -4) == 2
    for t in range(-3, 5):
        assert table.entry(1, t) == 0


def test_table_text_layout():
    C = LinearComplex(2, ((0, 1),), ())
    table = cohomology_table(C, -4, 0)
    text = table.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("q=2") and lines[-1].lstrip().startswith("t:")


def test_table_rejects_empty_window():
    C = LinearComplex(2, ((0, 1),), ())
    with pytest.raises(ValueError):
        cohomology_table(C, 1, 0)


def test_calculator_rejects_long_complex():
    terms = tuple((i, 1) for i in range(4))
    diffs = tuple(
        MatrixOfLinearForms(tuple(DenseMatrix(GF(5), [[0]]) for _ in range(3)))
        for _ in range(3))
    C = LinearComplex(2, terms, diffs)
    with pytest.raises(ValueError):
        CohomologyCalculator(C)


def test_certify_rank5_example():
    _, Q, C = rank5_example_complex()
    cert = certify_hd(Q, C)
    assert cert.value == 2
    assert cert.nonvanishing == (1, -4, 2)


def test_certify_n3_l1_example():
    rep = construct(ConstructionParams(n=3, l=1, r=3, seed=0))
    M = anchored_module(rep.anchor, 3, 1)
    C = bgg_complex(M)
    calc = CohomologyCalculator(C)
    assert calc.dim_h(2, -4) == 2
    cert = certify_hd(M, C, calc=calc)
    assert cert.value == 1


def test_certify_free_truncations():
    for n in (3, 4):
        for l in range(1, n):
            P = free_truncated(1, l, n, F)
            C = bgg_complex(P)
            cert = certify_hd(P, C)
            assert cert.value == l
            assert cert.nonvanishing == (n - l, -n - 1, 1)


def test_certify_detects_wrong_nonvanishing():
    # Lying about dim P_0 must fail: build a module whose P_0 has dimension 2
    # but feed certify a complex of a rank-1 truncation.
    P1 = free_truncated(1, 2, 3, F)
    P2 = free_truncated(2, 2, 3, F)
    with pytest.raises(CertificationError):
        certify_hd(P2, bgg_complex(P1))
