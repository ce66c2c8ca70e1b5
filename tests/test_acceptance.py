"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria that exercise the full pipeline use the default scans, so this
file is the slow part of the test suite; everything else lives in the
per-module test files.
"""

import json
import random
import time
from math import ceil, comb

import pytest

from bggbundles import (GF, QQ, ConstructionParams, DenseMatrix, LinearComplex,
                        annihilator, anchoring_tensor, bgg_complex,
                        cohomology_table, construct, faithfulness_scan, free_truncated,
                        is_anchoring, line_coh, pair_solution_dim,
                        projective_point_count, report_to_json, Subspace, verify)
from bggbundles.anchor import AnchorProblem
import bggbundles.pipeline as pl
from forgery import module_record, with_replaced_anchor
from scan_oracle import enumerated_scan, full_complex_scan

F = GF(32003)


def _report(k):
    print(f"\nACCEPTANCE {k}: PASS")


@pytest.fixture(scope="module")
def construction_grid():
    """All default constructions for n in {3,4}, l in [1,n-1], r in [n,n+3]."""
    t0 = time.perf_counter()
    reports = {}
    for n in (3, 4):
        for l in range(1, n):
            for r in range(n, n + 4):
                reports[(n, l, r)] = construct(ConstructionParams(n=n, l=l, r=r, seed=0))
    return reports, time.perf_counter() - t0


def test_acceptance_1_rank5_example_reproduction():
    t0 = time.perf_counter()
    rep = construct(ConstructionParams(n=3, l=2, r=5, field_spec="fp:32003", seed=42))
    elapsed = time.perf_counter() - t0
    assert tuple(r for _, r in rep.complex.terms) == (2, 8, 11)
    assert rep.module.piece_dims == (2, 8, 11)
    assert rep.rank == 5
    assert rep.hom_dim == 1
    assert rep.hd.value == 2
    # The reported anchor is certified over its own field, F_32003.
    assert rep.exhaustive_field_spec == "fp:32003"
    assert rep.exhaustive_scan.points_checked == projective_point_count(32003, 3)
    assert rep.exhaustive_scan.failures == ()
    assert rep.exhaustive_scan.certificate == (1, 4, 8)
    assert elapsed < 60, f"rank-5 example took {elapsed:.1f}s"
    # The certificate holds over every field; the same seed's anchor over
    # F_101 has one of the same shape, and ranking all of P^3(F_101) for it
    # finds no failing point.
    params = ConstructionParams(n=3, l=2, r=5, seed=42)
    sibling = pl._build(GF(101), params, 42)
    assert faithfulness_scan(sibling, "exhaustive", n=3, l=2).certificate == (1, 4, 8)
    enumerated = enumerated_scan(sibling, n=3, l=2)
    assert enumerated.ok and enumerated.points_checked == 1040604
    _report(1)


def test_acceptance_2_construction_grid(construction_grid):
    reports, elapsed = construction_grid
    for (n, l, r), rep in reports.items():
        assert rep.attempts <= 32
        assert rep.rank == r, (n, l, r)
        assert rep.hd.value == l, (n, l, r)
        assert rep.hom_dim == 1, (n, l, r)
        # A strand of low degree decides every exhaustive block of the grid.
        assert rep.exhaustive_scan.certificate[0] <= 3, (n, l, r)
    assert elapsed < 900, f"grid took {elapsed:.0f}s"
    _report(2)


def test_acceptance_3_hd_nonvanishing_identity(construction_grid):
    reports, _ = construction_grid
    for (n, l, r), rep in reports.items():
        q, t, dim = rep.hd.nonvanishing
        assert (q, t) == (n - l, -n - 1), (n, l, r)
        assert dim == rep.module.piece_dims[0], (n, l, r)
        # Intermediate cohomology vanishes on the whole recorded table.
        T = rep.table
        assert all(T.entry(q, t) == 0 for q in range(1, n - l)
                   for t in range(T.t_lo, T.t_hi + 1)), (n, l, r)
    _report(3)


def test_acceptance_4_cohomology_oracle():
    for n in (2, 3, 4):
        for k in (1, 2):
            C = LinearComplex(n, ((0, k),), ())
            # Euler column identity is asserted inside cohomology_table.
            table = cohomology_table(C, -2 * n - 2, n)
            for t in range(-2 * n - 2, n + 1):
                for q in range(n + 1):
                    assert table.entry(q, t) == k * line_coh(n, t, q)
    _report(4)


def test_acceptance_5_explicit_anchoring_tensor():
    t0 = time.perf_counter()
    for u in range(1, 7):
        for d in range(1, 7):
            m = max(ceil(u / d), ceil(d / u)) + 2
            assert pair_solution_dim(anchoring_tensor(QQ, u, d, m)) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"tensor grid took {elapsed:.1f}s"
    _report(5)


def test_acceptance_6_anchoring_duality():
    rng = random.Random(2026)
    trials = 0
    for u in (2, 3):
        for w in (4, 5):
            for d in range(u * w + 1):
                for _ in range(200 // (2 * 2 * 9) + 1):
                    while True:
                        rows = [[F.random_element(rng) for _ in range(u * w)]
                                for _ in range(d)]
                        basis = DenseMatrix(F, rows, u * w)
                        if d == 0 or basis.rank() == d:
                            break
                    prob = AnchorProblem(u, w, Subspace(basis))
                    assert bool(is_anchoring(prob)) == bool(is_anchoring(annihilator(prob)))
                    trials += 1
    assert trials >= 200
    _report(6)


def test_acceptance_7_genericity_rate():
    for d in range(2, 7):
        rng = random.Random(d)
        hits = 0
        for _ in range(100):
            while True:
                rows = [[F.random_element(rng) for _ in range(8)] for _ in range(d)]
                basis = DenseMatrix(F, rows, 8)
                if basis.rank() == d:
                    break
            hits += bool(is_anchoring(AnchorProblem(2, 4, Subspace(basis))))
        assert hits >= 99, f"d={d}: only {hits}/100 anchored"
        # Deterministic explicit path: first attempt, no randomness surviving.
        m = max(ceil(2 / d), ceil(d / 2)) + 2
        assert pair_solution_dim(anchoring_tensor(F, 2, d, m)) == 1
    _report(7)


def test_acceptance_8_koszul_faithfulness_base_case():
    for q in (3, 5):
        for n in (2, 3):
            for l in range(1, n):
                for p in (1, 2):
                    P = free_truncated(p, l, n, GF(q))
                    rep = full_complex_scan(bgg_complex(P), "enumerated")
                    assert rep.ok, (q, n, l, p)
                    assert rep.points_checked == projective_point_count(q, n)
    _report(8)


@pytest.fixture(scope="module")
def small_report():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl, "RANDOM_SAMPLES", 500)
        return report_to_json(construct(ConstructionParams(n=3, l=2, r=5, seed=42)))


def test_acceptance_9_mutation_tests(small_report, monkeypatch):
    # Verify at the report's sample count, so that only the mutation departs.
    monkeypatch.setattr(pl, "RANDOM_SAMPLES", 500)
    names = ["parameters", "hom_dimension", "random_faithfulness",
             "exhaustive_faithfulness", "cohomology"]
    assert [name for name, _, _ in verify(small_report).checks] == names
    # The module is rebuilt from the anchor: a recorded one, here with a
    # corrupted action entry, is a key no check owns.
    corrupted = json.loads(json.dumps(small_report))
    corrupted["module"] = module_record(pl._instance_from_report(corrupted).M)
    corrupted["module"]["actions"][1][0]["entries"][0][0] = "12345"
    verdict = verify(corrupted)
    assert not verdict.ok
    assert [name for name, _ in verdict.failed()] == ["report"]

    row = ["0"] * 12
    row[0] = "1"  # decomposable vector: preserved by all diagonal phi
    mutated = with_replaced_anchor(small_report, [row])
    verdict = verify(mutated)
    assert not verdict.ok
    failed = dict(verdict.failed())
    assert "hom_dimension" in failed
    assert [name for name, _, _ in verdict.checks] == names
    _report(9)


def test_acceptance_10_linear_algebra_substrate():
    for field in (QQ, F):
        rng = random.Random(77)
        for _ in range(1000):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = DenseMatrix(field, [[field.random_element(rng) for _ in range(nc)]
                                    for _ in range(nr)])
            r = m.rank()
            assert r + m.kernel_basis().nrows == m.ncols
            R, piv = m.rref()
            assert R.rref() == (R, piv)
    rng = random.Random(78)
    for case in range(1000):
        field = F if case % 2 else QQ
        m = DenseMatrix(field, [[field.random_element(rng) for _ in range(5)]
                                for _ in range(4)])
        assert m.rank() == m.transpose().rank()
    _report(10)
