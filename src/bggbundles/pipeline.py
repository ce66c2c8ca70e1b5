"""End-to-end construction of simple bundles of prescribed rank and
homological dimension, plus report serialization and re-verification.

Given n >= 3, a target homological dimension l in [1, n-1] and a rank
r >= n, the pipeline picks the smallest admissible multiplicity p, quotients
the truncated free module by an anchoring subspace of the top piece, and
verifies everything it claims: faithfulness (random sampling over the
working field plus an exhaustive scan of a same-seed rebuild over a small
field), simplicity (endomorphism dimension 1), rank and certified
homological dimension.  The whole record is serialized into a self-contained
JSON report that ``verify`` can replay deterministically.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb

from . import __version__, modp
from .anchor import (AnchoringSearchError, AnchorProblem, anchoring_tensor,
                     general_position_range, is_anchoring, sample_anchoring,
                     tensor_to_subspace)
from .bgg import (FaithfulnessReport, LinearComplex, MatrixOfLinearForms,
                  bgg_complex, bundle_rank, faithfulness_scan,
                  projective_point_count)
from .emod import GradedEModule, chi, free_truncated, hom_space_dim, quotient_map, quotient_top
from .fields import GF, QQ, PrimeField, RationalField
from .matrix import DenseMatrix, Subspace
from .sheafcoh import CertificationError, CohomologyCalculator, certify_hd, cohomology_table

SCHEMA_VERSION = 1

CONVENTIONS = {
    "exterior_basis": "index subsets of {0..n}, lexicographic on sorted tuples",
    "tensor_flattening": "(i, a) -> i*w + a with i the P_0 index, a the wedge index",
    "monomial_order": "graded lexicographic, descending exponent tuples",
    "matrix_layout": "row-major",
    "vec_layout": "row-major",
    "quotient_complement": "coordinate complement at the echelon pivots of L",
}


class ParameterError(ValueError):
    """Invalid construction parameters (CLI exit code 2)."""


class RetryBudgetError(RuntimeError):
    """Generic retries exhausted (CLI exit code 3); carries diagnostics."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class VerificationError(RuntimeError):
    """A constructed instance failed one of its checks (genericity retry)."""


@dataclass(frozen=True)
class VerificationPolicy:
    exhaustive_prime: int | None = None  # None = pick by n
    random_samples: int = 10000
    window_margin: int | None = None  # None = resolution length + n
    retry_budget: int = 32
    point_budget: int = 2_000_000
    table_window: tuple | None = None  # None = [-n-c-1, 0]


@dataclass(frozen=True)
class ConstructionParams:
    n: int
    l: int
    r: int
    field_spec: str = "fp:32003"
    seed: int = 0
    multiplicity: int | None = None
    explicit_anchor: bool = False
    policy: VerificationPolicy = dc_field(default_factory=VerificationPolicy)

    def field(self):
        return parse_field(self.field_spec)


def parse_field(spec: str):
    if spec == "qq":
        return QQ
    if spec.startswith("fp:"):
        p = int(spec[3:])
        if p >= modp.PRIME_BOUND:
            raise ParameterError(f"prime {p} is too large: the exact kernels need "
                                 f"p < {modp.PRIME_BOUND}")
        return GF(p)
    raise ParameterError(f"unknown field spec {spec!r} (use 'fp:P' or 'qq')")


def field_spec(field) -> str:
    return "qq" if isinstance(field, RationalField) else f"fp:{field.p}"


def default_exhaustive_prime(n: int, point_budget: int = 2_000_000) -> int:
    """Largest default prime whose projective point count fits the budget."""
    for q in (101, 31, 11, 7, 5, 3, 2):
        if (q ** (n + 1) - 1) // (q - 1) <= point_budget:
            return q
    raise ParameterError(f"no exhaustive field fits the budget for n = {n}")


def choose_parameters(n: int, l: int, r: int, multiplicity: int | None = None):
    """Multiplicity p and anchor dimension for the target (n, l, r).

    Returns the smallest p with r strictly below p*(C(n,l) - 2/C(n+1,l)).
    An explicit multiplicity may relax this to the free-module case p = 1,
    r = C(n,l) (no quotient); a trivial quotient at any larger multiplicity
    is rejected because the module would not be simple.  All derived bounds
    are asserted exactly.
    """
    if n < 3:
        raise ParameterError("projective dimension must be at least 3")
    if not (1 <= l <= n - 1):
        raise ParameterError(f"homological dimension {l} must lie in [1, {n - 1}]")
    if r < n:
        raise ParameterError(f"rank {r} must be at least n = {n}")
    cnl = comb(n, l)
    cn1l = comb(n + 1, l)
    bound = lambda p: p * (Fraction(cnl) - Fraction(2, cn1l))  # noqa: E731
    if multiplicity is not None:
        p = multiplicity
        if p < 1:
            raise ParameterError("multiplicity must be at least 1")
        if not (r < bound(p) or (p == 1 and r == cnl)):
            raise ParameterError(f"multiplicity {p} violates the rank bound for "
                                 f"(n={n}, l={l}, r={r})")
    else:
        p = 1
        while not r < bound(p):
            p += 1
    dim_l = p * cnl - r
    if dim_l < 0:
        raise ParameterError(f"rank {r} exceeds p*C(n,l) = {p * cnl}")
    chi_l = p * cnl
    assert dim_l <= chi_l - n, "anchor dimension exceeds the faithfulness bound"
    if p > 1 and dim_l >= 1:
        lo, hi = general_position_range(p, cn1l)
        assert lo < dim_l < hi, "anchor dimension outside the general-position range"
    if dim_l == 0 and p != 1:
        raise ParameterError("a trivial quotient needs multiplicity 1 "
                             "(otherwise the module is not simple)")
    return p, dim_l


def _anchor_subspace(field, p: int, w: int, dim_l: int, seed: int,
                     explicit: bool, max_attempts: int) -> AnchorProblem:
    if dim_l == 0:
        return AnchorProblem(p, w, Subspace(DenseMatrix.zeros(field, 0, p * w)))
    if p == 1:
        if explicit:
            basis = DenseMatrix.identity(field, w)
            rows = tuple(basis.row(i) for i in range(dim_l))
            return AnchorProblem(1, w, Subspace(DenseMatrix(field, rows, w)))
        rng = random.Random(seed)
        while True:
            rows = [[field.random_element(rng) for _ in range(w)] for _ in range(dim_l)]
            basis = DenseMatrix(field, rows, w)
            if basis.rank() == dim_l:
                return AnchorProblem(1, w, Subspace(basis))
    if explicit:
        T = anchoring_tensor(field, p, dim_l, w)
        return tensor_to_subspace(T)
    return sample_anchoring(field, p, w, dim_l, seed=seed, max_attempts=max_attempts)


def _build_instance(field, n, l, p, dim_l, seed, explicit):
    w = comb(n + 1, l)
    P = free_truncated(p, l, n, field)
    L = _anchor_subspace(field, p, w, dim_l, seed, explicit, 8)
    M = quotient_top(P, L.subspace)
    return P, L, M, bgg_complex(M)


@dataclass(frozen=True)
class BundleReport:
    params: ConstructionParams
    multiplicity: int
    anchor_dim: int
    module: GradedEModule
    anchor: AnchorProblem
    complex: LinearComplex
    exhaustive_field_spec: str
    exhaustive_module: GradedEModule
    exhaustive_anchor: AnchorProblem
    exhaustive_scan: FaithfulnessReport
    random_scan: FaithfulnessReport
    hom_dim: int
    anchor_solution_dim: int
    rank: int
    chi: tuple
    table: object  # CohomologyTable
    hd: object  # HdCertificate
    attempts: int
    timings: dict
    version: str = __version__


def construct(params: ConstructionParams) -> BundleReport:
    """Run the whole construction with verification and seeded retries.

    Structural parameter problems raise :class:`ParameterError` immediately;
    genericity failures (a random choice that is not anchoring, faithful or
    simple over some field) reseed and retry up to the budget.
    """
    field = params.field()
    pol = params.policy
    p, dim_l = choose_parameters(params.n, params.l, params.r, params.multiplicity)
    if isinstance(field, PrimeField):
        points = projective_point_count(field.p, params.n)
        if pol.random_samples > points:
            raise ParameterError(f"{pol.random_samples} random samples exceed the "
                                 f"{points} points of P^{params.n}(F_{field.p})")
    ex_p = pol.exhaustive_prime or default_exhaustive_prime(params.n, pol.point_budget)
    ex_field = GF(ex_p)
    diagnostics = []
    # The explicit-anchor path has no randomness affecting the bundle, so a
    # failed check cannot be cured by reseeding.
    budget = 1 if params.explicit_anchor else pol.retry_budget
    for attempt in range(budget):
        seed = params.seed + attempt
        try:
            return _construct_once(params, field, ex_field, p, dim_l, seed, attempt + 1)
        except (VerificationError, CertificationError, AnchoringSearchError) as exc:
            diagnostics.append((attempt, str(exc)))
    raise RetryBudgetError(
        f"construction failed {budget} time(s) for "
        f"(n={params.n}, l={params.l}, r={params.r})", diagnostics)


def _construct_once(params, field, ex_field, p, dim_l, seed, attempts) -> BundleReport:
    pol = params.policy
    n, l, r = params.n, params.l, params.r
    timings = {}
    t0 = time.perf_counter()
    P, L, M, C = _build_instance(field, n, l, p, dim_l, seed, params.explicit_anchor)
    M.validate()
    C.validate()
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    verdict = is_anchoring(L)
    if p > 1 and dim_l >= 1 and not verdict.anchors:
        raise VerificationError(f"chosen subspace does not anchor "
                                f"(solution dimension {verdict.solution_dim})")
    hom = hom_space_dim(M)
    if hom != 1:
        if p > 1 and dim_l >= 1 and verdict.anchors:
            raise RuntimeError(
                "anchoring verdict and endomorphism computation disagree: "
                f"L anchors but Hom has dimension {hom}")
        raise VerificationError(f"module is not simple (Hom dimension {hom})")
    timings["simplicity"] = time.perf_counter() - t0

    rk = bundle_rank(M)
    if rk != r:
        raise VerificationError(f"rank came out as {rk}, wanted {r}")

    t0 = time.perf_counter()
    rnd = faithfulness_scan(C, "random", samples=pol.random_samples, seed=seed,
                            anchor=L)
    if not rnd.ok:
        raise VerificationError(f"random faithfulness scan found "
                                f"{len(rnd.failures)} failures")
    timings["random_scan"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    exP, exL, exM, exC = _build_instance(ex_field, n, l, p, dim_l, seed,
                                         params.explicit_anchor)
    exM.validate()
    ex_scan = faithfulness_scan(exC, "exhaustive", point_budget=pol.point_budget,
                                anchor=exL)
    if not ex_scan.ok:
        raise VerificationError(
            f"exhaustive scan over {ex_field!r} found {len(ex_scan.failures)} "
            "failures")
    timings["exhaustive_scan"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    calc = CohomologyCalculator(C)
    cert = certify_hd(M, C, pol.window_margin, calc)
    if cert.value != l:
        raise VerificationError(f"certified hd {cert.value}, wanted {l}")
    t_lo, t_hi = pol.table_window or (-n - C.length - 1, 0)
    table = cohomology_table(C, t_lo, t_hi, calc)
    timings["cohomology"] = time.perf_counter() - t0

    return BundleReport(
        params=params, multiplicity=p, anchor_dim=dim_l, module=M, anchor=L,
        complex=C, exhaustive_field_spec=field_spec(ex_field),
        exhaustive_module=exM, exhaustive_anchor=exL, exhaustive_scan=ex_scan,
        random_scan=rnd, hom_dim=hom, anchor_solution_dim=verdict.solution_dim,
        rank=rk, chi=chi(M), table=table, hd=cert, attempts=attempts,
        timings=timings)


# ---------------------------------------------------------------------------
# serialization


def _matrix_to_json(m: DenseMatrix):
    f = m.field
    return {"rows": m.nrows, "cols": m.ncols,
            "entries": [[f.to_str(x) for x in row] for row in m.rows()]}


def _matrix_from_json(field, obj) -> DenseMatrix:
    return DenseMatrix(field, obj["entries"], obj["cols"])


def _module_to_json(M: GradedEModule):
    return {"n": M.n, "piece_dims": list(M.piece_dims),
            "actions": [[_matrix_to_json(a) for a in level] for level in M.actions]}


def _module_from_json(field, obj) -> GradedEModule:
    actions = tuple(tuple(_matrix_from_json(field, a) for a in level)
                    for level in obj["actions"])
    return GradedEModule(obj["n"], field, tuple(obj["piece_dims"]), actions)


def _anchor_to_json(L: AnchorProblem):
    return {"u": L.u, "w": L.w, "dim": L.d,
            "basis": _matrix_to_json(L.subspace.basis)}


def _anchor_from_json(field, obj) -> AnchorProblem:
    basis = _matrix_from_json(field, obj["basis"])
    return AnchorProblem(obj["u"], obj["w"], Subspace(basis))


def _scan_to_json(rep: FaithfulnessReport):
    return {"mode": rep.mode, "field": rep.field_desc,
            "points_checked": rep.points_checked, "seed": rep.seed,
            "failures": [list(fx) for fx in rep.failures]}


def report_to_json(rep: BundleReport) -> dict:
    pol = rep.params.policy
    return {
        "schema": SCHEMA_VERSION,
        "version": rep.version,
        "conventions": dict(CONVENTIONS),
        "params": {
            "n": rep.params.n, "l": rep.params.l, "r": rep.params.r,
            "field": rep.params.field_spec, "seed": rep.params.seed,
            "multiplicity": rep.params.multiplicity,
            "explicit_anchor": rep.params.explicit_anchor,
            "policy": {
                "exhaustive_prime": pol.exhaustive_prime,
                "random_samples": pol.random_samples,
                "window_margin": pol.window_margin,
                "retry_budget": pol.retry_budget,
                "point_budget": pol.point_budget,
                "table_window": list(pol.table_window) if pol.table_window else None,
            },
        },
        "multiplicity": rep.multiplicity,
        "anchor_dim": rep.anchor_dim,
        "module": _module_to_json(rep.module),
        "anchor": _anchor_to_json(rep.anchor),
        "quotient_basis": _matrix_to_json(quotient_map(rep.anchor.subspace))
        if rep.anchor.d else None,
        "exhaustive": {
            "field": rep.exhaustive_field_spec,
            "module": _module_to_json(rep.exhaustive_module),
            "anchor": _anchor_to_json(rep.exhaustive_anchor),
            "scan": _scan_to_json(rep.exhaustive_scan),
        },
        "random_scan": _scan_to_json(rep.random_scan),
        "hom_dim": rep.hom_dim,
        "anchor_solution_dim": rep.anchor_solution_dim,
        "rank": rep.rank,
        "chi": list(rep.chi),
        "cohomology": {
            "t_lo": rep.table.t_lo, "t_hi": rep.table.t_hi,
            "entries": [list(row) for row in rep.table.entries],
        },
        "hd": {
            "value": rep.hd.value, "window": list(rep.hd.window),
            "nonvanishing": list(rep.hd.nonvanishing),
        },
        "attempts": rep.attempts,
        "timings": {k: round(v, 6) for k, v in rep.timings.items()},
    }


def report_to_json_str(rep: BundleReport) -> str:
    return json.dumps(report_to_json(rep), indent=1)


# ---------------------------------------------------------------------------
# verification of serialized reports


@dataclass(frozen=True)
class Verdict:
    checks: tuple  # (name, ok, detail)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failed(self):
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def to_text(self) -> str:
        lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
                 for name, ok, detail in self.checks]
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _complex_from_module(obj, field) -> LinearComplex:
    return bgg_complex(_module_from_json(field, obj))


def verify(report: dict) -> Verdict:
    """Re-run every check of a serialized report deterministically."""
    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a failed recomputation is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, bool(ok), detail))
        return ok

    if report.get("schema") != SCHEMA_VERSION:
        return Verdict((("schema", False,
                         f"unsupported schema {report.get('schema')}"),))

    params = report["params"]
    field = parse_field(params["field"])
    n, l, r = params["n"], params["l"], params["r"]

    def c_params():
        p, dim_l = choose_parameters(n, l, r, params.get("multiplicity"))
        ok = (p == report["multiplicity"] and dim_l == report["anchor_dim"])
        return ok, f"p={p}, anchor dim={dim_l}"
    check("parameters", c_params)

    module = _module_from_json(field, report["module"])

    def c_relations():
        module.validate()
        return True, "exterior relations hold"
    rel_ok = check("exterior_relations", c_relations)

    L = None

    def c_anchor():
        nonlocal L
        L = _anchor_from_json(field, report["anchor"])
        verdict = is_anchoring(L)
        want = report["anchor_solution_dim"]
        ok = verdict.solution_dim == want
        if report["multiplicity"] > 1 and report["anchor_dim"] >= 1:
            ok = ok and verdict.anchors
        return ok, f"solution dimension {verdict.solution_dim}"
    check("anchoring", c_anchor)

    def is_quotient(M, ring_field, anchor):
        Pfree = free_truncated(report["multiplicity"], l, n, ring_field)
        return M == quotient_top(Pfree, anchor.subspace)

    def c_rebuild():
        return is_quotient(module, field, L), "module matches free-module quotient by L"
    rebuild_ok = check("module_rebuild", c_rebuild)

    def c_hom():
        hom = hom_space_dim(module)
        return hom == 1 and hom == report["hom_dim"], f"Hom dimension {hom}"
    check("hom_dimension", c_hom)

    def c_rank():
        ch = chi(module)
        ok = list(ch) == report["chi"] and ch[-1] == r == report["rank"]
        return ok, f"chi={ch}, rank={ch[-1]}"
    check("rank", c_rank)

    C = bgg_complex(module) if rel_ok else None

    def c_composite():
        C.validate()
        return True, "composite of differentials vanishes"
    if C is not None:
        check("composite_zero", c_composite)

    def c_random_scan():
        if not rebuild_ok:
            return False, "module is not the free-module quotient by L"
        rec = report["random_scan"]
        rep2 = faithfulness_scan(C, "random", samples=rec["points_checked"],
                                 seed=rec["seed"], anchor=L)
        ok = rep2.ok and [list(fx) for fx in rep2.failures] == rec["failures"]
        return ok, f"{rep2.points_checked} points, {len(rep2.failures)} failures"
    if C is not None:
        check("random_faithfulness", c_random_scan)

    def c_exhaustive():
        ex = report["exhaustive"]
        ex_field = parse_field(ex["field"])
        exM = _module_from_json(ex_field, ex["module"])
        exL = _anchor_from_json(ex_field, ex["anchor"])
        if exL.d != report["anchor_dim"] or not is_quotient(exM, ex_field, exL):
            return False, "exhaustive module is not the free-module quotient by its anchor"
        rep2 = faithfulness_scan(bgg_complex(exM), "exhaustive",
                                 point_budget=params["policy"]["point_budget"],
                                 anchor=exL)
        rec = ex["scan"]
        ok = (rep2.ok and [list(fx) for fx in rep2.failures] == rec["failures"]
              and rep2.points_checked == rec["points_checked"]
              == projective_point_count(ex_field.p, n))
        return ok, f"{rep2.points_checked} points, {len(rep2.failures)} failures"
    check("exhaustive_faithfulness", c_exhaustive)

    def c_cohomology():
        calc = CohomologyCalculator(C)
        coh = report["cohomology"]
        tbl = cohomology_table(C, coh["t_lo"], coh["t_hi"], calc)
        ok = [list(row) for row in tbl.entries] == coh["entries"]
        cert = certify_hd(module, C, params["policy"]["window_margin"], calc)
        ok = ok and cert.value == report["hd"]["value"] == l
        return ok, f"table matches, certified hd {cert.value}"
    if C is not None:
        check("cohomology", c_cohomology)

    return Verdict(tuple(checks))


def with_replaced_anchor(report: dict, new_basis_rows) -> dict:
    """A consistent-but-unverified copy of a report with a different L.

    Rebuilds the module, complex and chi from the new subspace while leaving
    the recorded verdicts untouched; feeding the result to ``verify`` shows
    which checks the new subspace breaks.  Intended for mutation testing.
    """
    out = json.loads(json.dumps(report))
    params = out["params"]
    field = parse_field(params["field"])
    w = comb(params["n"] + 1, params["l"])
    basis = DenseMatrix(field, new_basis_rows, out["multiplicity"] * w)
    L = AnchorProblem(out["multiplicity"], w, Subspace(basis))
    Pfree = free_truncated(out["multiplicity"], params["l"], params["n"], field)
    M = quotient_top(Pfree, L.subspace)
    out["anchor"] = _anchor_to_json(L)
    out["anchor_dim"] = L.d
    out["module"] = _module_to_json(M)
    out["chi"] = list(chi(M))
    out["rank"] = chi(M)[-1]
    return out


# ---------------------------------------------------------------------------
# CAS cross-check export (Macaulay2 dialect)


def cas_script(report: dict) -> str:
    """A Macaulay2 script rebuilding the resolution for cross-validation.

    The script recomputes the cokernel sheaf, its rank and the cohomology
    groups certified in the report.  It is emitted for third-party checking
    only; nothing in this package depends on its output.
    """
    params = report["params"]
    n, l = params["n"], params["l"]
    field = parse_field(params["field"])
    kk = "QQ" if isinstance(field, RationalField) else f"ZZ/{field.p}"
    module = report["module"]
    dims = module["piece_dims"]
    lines = [
        "-- independent cross-check of a constructed bundle",
        f"kk = {kk}",
        f"S = kk[x_0..x_{n}]",
    ]
    for i in range(len(dims) - 1):
        acts = module["actions"][i]
        rows = dims[i + 1]
        cols = dims[i]
        entry_rows = []
        for rr in range(rows):
            ents = []
            for cc in range(cols):
                terms = []
                for j in range(n + 1):
                    coeff = acts[j]["entries"][rr][cc]
                    if coeff not in ("0", "0/1"):
                        terms.append(f"({coeff})*x_{j}")
                ents.append("+".join(terms) if terms else "0")
            entry_rows.append("{" + ", ".join(ents) + "}")
        lines.append(
            f"d{i} = map(S^{{{rows}:{-(i + 1)}}}, S^{{{cols}:{-i}}}, "
            f"matrix{{{', '.join(entry_rows)}}})")
    last = len(dims) - 2
    lines += [
        f"M = coker d{last}",
        "F = sheaf M",
        f"assert(rank F == {report['rank']})",
        f"assert(rank HH^{n - l}(F(-{n + 1})) == {dims[0]})",
        "assert(rank HH^0(sheafHom(F, F)) == 1)  -- simplicity",
        "print \"cross-check passed\"",
    ]
    return "\n".join(lines) + "\n"
