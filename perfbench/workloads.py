"""The benchmark's workloads, each one user-facing operation of bggbundles.

A workload makes its inputs from the seed in ``setup``, runs one op in
``run`` and checks the op's outputs in ``check``, which also returns a digest
of the deterministic outputs so that two commits can be compared.  Calls go
through module attributes (``pipeline.construct``, ...) so that the tracer's
wrappers, once installed, see them.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from math import comb
from time import perf_counter

from bggbundles import anchor, bgg, emod, extalg, pipeline, sheafcoh

FIELD = "fp:32003"  # construct's default working field


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def no_span(name):
    return nullcontext()


class ConstructVerify:
    """``construct`` of one bundle, its report through the JSON round trip,
    then ``verify`` of the parsed report."""

    checks_per_op = 2

    def __init__(self, name, n, l, r, field_spec):
        self.name = name
        self.n, self.l, self.r, self.field_spec = n, l, r, field_spec

    def setup(self, seed):
        warm_monomials(self.n, 4 * self.n + 4)
        warm_subsets(self.n)
        return pipeline.ConstructionParams(self.n, self.l, self.r,
                                           field_spec=self.field_spec, seed=seed)

    def run(self, params, span=no_span):
        t0 = perf_counter()
        rep = pipeline.construct(params)
        t1 = perf_counter()
        text = pipeline.report_to_json_str(rep)
        with span("bench.json_loads"):
            report = json.loads(text)
        t2 = perf_counter()
        verdict = pipeline.verify(report)
        t3 = perf_counter()
        return {"rep": rep, "report": report, "verdict": verdict,
                "parts": {"construct_s": t1 - t0, "round_trip_s": t2 - t1,
                          "verify_s": t3 - t2}}

    def check(self, params, out):
        rep, verdict = out["rep"], out["verdict"]
        q = int(rep.exhaustive_field_spec.split(":")[1])
        ex = rep.exhaustive_scan
        built = (rep.rank == self.r and rep.hom_dim == 1 and rep.hd.value == self.l
                 and ex.points_checked == bgg.projective_point_count(q, self.n)
                 and ex.ok and rep.random_scan.ok)
        checked = verdict.ok and all(ok for _, ok, _ in verdict.checks)
        body = {k: v for k, v in out["report"].items() if k != "timings"}
        return [built, checked], _digest([body, verdict.to_text()])


class Tables:
    """The ``cohomology`` command's work: ``bgg_complex`` and a table over a
    twist window with a fresh calculator, for two modules built in setup."""

    checks_per_op = 2
    # (n, l, r, t_lo, t_hi): both windows reach into both cohomology rows.
    CASES = ((3, 2, 5, -14, 6), (4, 3, 7, -12, 2))

    name = "tables"

    def setup(self, seed):
        field = pipeline.parse_field(FIELD)
        modules = []
        for n, l, r, t_lo, t_hi in self.CASES:
            p, dim_l = pipeline.choose_parameters(n, l, r)
            P = emod.free_truncated(p, l, n, field)
            L = anchor.sample_anchoring(field, p, comb(n + 1, l), dim_l, seed=seed)
            modules.append((emod.quotient_top(P, L.subspace), n, l, t_lo, t_hi))
            warm_monomials(n, t_hi - t_lo + 2 * n + 2)
        return modules

    def run(self, modules, span=no_span):
        tables = []
        for M, n, l, t_lo, t_hi in modules:
            C = bgg.bgg_complex(M)
            tables.append(sheafcoh.cohomology_table(C, t_lo, t_hi,
                                                    sheafcoh.CohomologyCalculator(C)))
        return {"tables": tables}

    def check(self, modules, out):
        oks = [T.entry(n - l, -n - 1) == M.piece_dims[0]
               for T, (M, n, l, _, _) in zip(out["tables"], modules)]
        return oks, _digest([T.entries for T in out["tables"]])


class Simplicity:
    """For every grid case, construct's build and simplicity stages without
    the scans: anchoring search, quotient, validation, anchoring verdict and
    the endomorphism-space dimension."""

    CASES = tuple((n, l, r) for n in (3, 4) for l in range(1, n) for r in range(n, n + 4))
    checks_per_op = len(CASES)

    name = "simplicity"

    def setup(self, seed):
        for n in (3, 4):
            warm_subsets(n)
        field = pipeline.parse_field(FIELD)
        return [(field, n, l, r, *pipeline.choose_parameters(n, l, r), seed)
                for n, l, r in self.CASES]

    def run(self, cases, span=no_span):
        out = []
        for field, n, l, r, p, dim_l, seed in cases:
            P = emod.free_truncated(p, l, n, field)
            L = anchor.sample_anchoring(field, p, comb(n + 1, l), dim_l, seed=seed)
            M = emod.quotient_top(P, L.subspace)
            M.validate()
            bgg.bgg_complex(M).validate()
            verdict = anchor.is_anchoring(L)
            out.append((L, M.piece_dims, verdict, emod.hom_space_dim(M)))
        return {"cases": out}

    def check(self, cases, out):
        oks = [verdict.anchors and hom == 1 for _, _, verdict, hom in out["cases"]]
        return oks, _digest([[L.subspace.basis.rows(), dims, v.solution_dim, hom]
                             for L, dims, v, hom in out["cases"]])


def warm_monomials(n, top_degree):
    """Fill ``sheafcoh``'s process-lived monomial caches, as a first op would."""
    for d in range(top_degree + 1):
        sheafcoh.monomial_position(n, d)


def warm_subsets(n):
    """Fill ``extalg``'s process-lived basis caches, as a first op would."""
    for i in range(n + 2):
        extalg.subset_position(n, i)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    ConstructVerify("rank5", 3, 2, 5, FIELD),  # the paper's example
    Tables(),
    Simplicity(),
)}
