"""End-to-end construction of simple bundles of prescribed rank and
homological dimension, plus report serialization and re-verification.

Given n >= 3, a target homological dimension l in [1, n-1] and a rank
r >= n, the pipeline picks the smallest admissible multiplicity p, quotients
the truncated free module by an anchoring subspace of the top piece, and
verifies everything it claims: faithfulness (random sampling over the
working field plus an exhaustive scan of a same-seed anchor drawn over a
small field), simplicity (endomorphism dimension 1), rank and certified
homological dimension.  The whole record is serialized into a self-contained
JSON report.

``construct`` and ``verify`` run one list of nine checks, ``CHECKS``.  A
check takes an :class:`Instance` and returns ``(ok, detail, sections)``,
where ``sections`` maps each report key the check vouches for to its
recomputed value.  The instance's inputs are the parameters, the anchor L,
the exhaustive anchor exL and the attempt count.  The module M is the free
module's quotient by L, recorded as a section; each faithfulness scan reads
its anchor directly, so the exhaustive block is exL, its field and its
scan, and exL must be the anchor that some attempt within the retry budget
draws over that field.  ``construct`` draws the anchors, stops at the first failing check and
writes the report from the sections; ``verify`` reads the inputs from a
report and passes a check only if it is ok and every recomputed section
equals the recorded one.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, reduce
from math import comb
from operator import getitem

from . import __version__
from .anchor import (AnchoringSearchError, AnchorProblem, anchoring_tensor,
                     general_position_range, is_anchoring, sample_anchoring,
                     tensor_to_subspace)
from .bgg import (FaithfulnessReport, LinearComplex, bgg_complex, faithfulness_scan,
                  projective_point_count)
from .emod import GradedEModule, chi, free_truncated, hom_space_dim, quotient_map, quotient_top
from .fields import GF, QQ, FieldError, PrimeField, RationalField
from .matrix import DenseMatrix, Subspace
from .sheafcoh import (CertificationError, CohomologyCalculator, CohomologyTable,
                       HdCertificate, certify_hd, cohomology_table)

SCHEMA_VERSION = 3

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
        try:
            return GF(int(spec[3:]))
        except FieldError as exc:
            raise ParameterError(str(exc)) from exc
    raise ParameterError(f"unknown field spec {spec!r} (use 'fp:P' or 'qq')")


def field_spec(field) -> str:
    return "qq" if isinstance(field, RationalField) else f"fp:{field.p}"


def default_exhaustive_prime(n: int, point_budget: int = 2_000_000) -> int:
    """Largest default prime whose projective point count fits the budget."""
    for q in (101, 31, 11, 7, 5, 3, 2):
        if (q ** (n + 1) - 1) // (q - 1) <= point_budget:
            return q
    raise ParameterError(f"no exhaustive field fits the budget for n = {n}")


def _exhaustive_field(params: ConstructionParams) -> PrimeField:
    pol = params.policy
    return GF(pol.exhaustive_prime or default_exhaustive_prime(params.n, pol.point_budget))


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


def _build(field, params: ConstructionParams, p: int, dim_l: int, seed: int) -> AnchorProblem:
    """The anchor L over ``field``: explicit when asked for, else seeded random."""
    w = comb(params.n + 1, params.l)
    if not (params.explicit_anchor and dim_l):
        return sample_anchoring(field, p, w, dim_l, seed=seed, max_attempts=8)
    if p == 1:
        rows = [[int(i == j) for j in range(w)] for i in range(dim_l)]
        return AnchorProblem(1, w, Subspace(DenseMatrix(field, rows, w)))
    return tensor_to_subspace(anchoring_tensor(field, p, dim_l, w))


def _rebuild(params: ConstructionParams, L: AnchorProblem) -> GradedEModule:
    """The free module's quotient by L: what a module anchored at L must be."""
    return quotient_top(free_truncated(L.u, params.l, params.n, L.field), L.subspace)


# ---------------------------------------------------------------------------
# the checks shared by construct and verify


@dataclass
class Instance:
    """What the checks examine: the inputs, and the module and complex the
    anchor L defines.  ``attempts`` fixes the random-scan seed."""

    params: ConstructionParams
    L: AnchorProblem
    exL: AnchorProblem
    attempts: int

    @cached_property
    def M(self) -> GradedEModule:
        return _rebuild(self.params, self.L)

    @cached_property
    def C(self):
        return bgg_complex(self.M)


def _needs_anchoring(L: AnchorProblem) -> bool:
    """Only a nontrivial quotient at multiplicity > 1 must anchor to be simple."""
    return L.u > 1 and L.d >= 1


def _check_parameters(inst):
    n, l = inst.params.n, inst.params.l
    p, dim_l = choose_parameters(n, l, inst.params.r, inst.params.multiplicity)
    L = inst.L
    return ((L.u, L.w, L.d) == (p, comb(n + 1, l), dim_l),
            f"p={p}, anchor dim={dim_l}",
            {"conventions": dict(CONVENTIONS), "multiplicity": p, "anchor_dim": dim_l})


def _check_exterior_relations(inst):
    inst.M.validate()
    return True, "exterior relations hold", {}


def _check_anchoring(inst):
    verdict = is_anchoring(inst.L)
    return (verdict.anchors or not _needs_anchoring(inst.L),
            f"solution dimension {verdict.solution_dim}",
            {"anchor_solution_dim": verdict.solution_dim})


def _check_module_rebuild(inst):
    L = inst.L
    return (True, "module is the free-module quotient by L",
            {"module": inst.M, "quotient_basis": quotient_map(L.subspace) if L.d else None})


def _check_hom_dimension(inst):
    hom = hom_space_dim(inst.M)
    if hom != 1 and _needs_anchoring(inst.L) and is_anchoring(inst.L).anchors:
        raise RuntimeError("anchoring verdict and endomorphism computation disagree: "
                           f"L anchors but Hom has dimension {hom}")
    return hom == 1, f"Hom dimension {hom}", {"hom_dim": hom}


def _check_rank(inst):
    ch = chi(inst.M)
    return ch[-1] == inst.params.r, f"chi={ch}, rank={ch[-1]}", {"chi": ch, "rank": ch[-1]}


def _check_random_faithfulness(inst):
    params = inst.params
    rnd = faithfulness_scan(inst.L, "random", n=params.n, l=params.l,
                            samples=params.policy.random_samples,
                            seed=params.seed + inst.attempts - 1)
    return (rnd.ok, f"{rnd.points_checked} points, {len(rnd.failures)} failures",
            {"random_scan": rnd})


def _drawn_within_budget(params, exL) -> bool:
    """Whether exL is the anchor ``construct`` draws over its field at the seed
    of some attempt the retry budget allows.  The recorded attempt count is
    not consulted: it belongs to the random scan's check."""
    p, dim_l = choose_parameters(params.n, params.l, params.r, params.multiplicity)
    for k in range(params.policy.retry_budget):
        try:
            drawn = _build(exL.field, params, p, dim_l, params.seed + k)
        except AnchoringSearchError:
            continue  # that attempt drew no anchor
        if (exL.u, exL.w, exL.subspace.basis) == (drawn.u, drawn.w, drawn.subspace.basis):
            return True
    return False


def _check_exhaustive_faithfulness(inst):
    params, exL = inst.params, inst.exL
    if not _drawn_within_budget(params, exL):
        return False, "the exhaustive anchor is no attempt's draw over its field", {}
    scan = faithfulness_scan(exL, "exhaustive", n=params.n, l=params.l,
                             point_budget=params.policy.point_budget)
    return (scan.ok, f"{scan.points_checked} points, {len(scan.failures)} failures",
            {"exhaustive.field": field_spec(exL.field), "exhaustive.scan": scan})


def _check_cohomology(inst):
    n, l, C = inst.params.n, inst.params.l, inst.C
    calc = CohomologyCalculator(C)
    cert = certify_hd(inst.M, C, calc)
    t_lo, t_hi = inst.params.policy.table_window or (-n - C.length - 1, 0)
    table = cohomology_table(C, t_lo, t_hi, calc)
    return cert.value == l, f"certified hd {cert.value}", {"cohomology": table, "hd": cert}


# (name, construct timing stage, check), in the order both callers run them.
CHECKS = (
    ("parameters", "build", _check_parameters),
    ("exterior_relations", "build", _check_exterior_relations),
    ("anchoring", "simplicity", _check_anchoring),
    ("module_rebuild", "build", _check_module_rebuild),
    ("hom_dimension", "simplicity", _check_hom_dimension),
    ("rank", "simplicity", _check_rank),
    ("random_faithfulness", "random_scan", _check_random_faithfulness),
    ("exhaustive_faithfulness", "exhaustive_scan", _check_exhaustive_faithfulness),
    ("cohomology", "cohomology", _check_cohomology),
)


# ---------------------------------------------------------------------------
# construction


def _section(key):
    return property(lambda self: self.sections[key])


@dataclass(frozen=True)
class BundleReport:
    params: ConstructionParams
    anchor: AnchorProblem
    complex: LinearComplex
    exhaustive_anchor: AnchorProblem
    sections: dict  # report key -> value, as the checks returned them
    attempts: int
    timings: dict
    version: str = __version__

    module = _section("module")
    multiplicity = _section("multiplicity")
    anchor_dim = _section("anchor_dim")
    anchor_solution_dim = _section("anchor_solution_dim")
    hom_dim = _section("hom_dim")
    rank = _section("rank")
    chi = _section("chi")
    random_scan = _section("random_scan")
    exhaustive_field_spec = _section("exhaustive.field")
    exhaustive_scan = _section("exhaustive.scan")
    table = _section("cohomology")
    hd = _section("hd")


def construct(params: ConstructionParams) -> BundleReport:
    """Run the whole construction with verification and seeded retries.

    Structural parameter problems raise :class:`ParameterError` immediately;
    genericity failures (a random choice that is not anchoring, faithful or
    simple over some field) reseed and retry up to the budget.
    """
    field = params.field()
    pol = params.policy
    n = params.n
    p, dim_l = choose_parameters(n, params.l, params.r, params.multiplicity)
    if pol.random_samples < 1:
        raise ParameterError(f"{pol.random_samples} random samples: the random scan "
                             "needs at least one")
    if isinstance(field, PrimeField):
        points = projective_point_count(field.p, n)
        if pol.random_samples > points:
            raise ParameterError(f"{pol.random_samples} random samples exceed the "
                                 f"{points} points of P^{n}(F_{field.p})")
    ex_field = _exhaustive_field(params)
    ex_points = projective_point_count(ex_field.p, n)
    if ex_points > pol.point_budget:
        raise ParameterError(f"the {ex_points} points of P^{n}(F_{ex_field.p}) exceed "
                             f"the point budget {pol.point_budget}")
    diagnostics = []
    # The explicit-anchor path has no randomness affecting the bundle, so a
    # failed check cannot be cured by reseeding.
    budget = 1 if params.explicit_anchor else pol.retry_budget
    for attempt in range(budget):
        try:
            return _construct_once(params, field, ex_field, p, dim_l, attempt + 1)
        except (VerificationError, CertificationError, AnchoringSearchError) as exc:
            diagnostics.append((attempt, str(exc)))
    raise RetryBudgetError(
        f"construction failed {budget} time(s) for "
        f"(n={params.n}, l={params.l}, r={params.r})", diagnostics)


def _construct_once(params, field, ex_field, p, dim_l, attempts) -> BundleReport:
    seed = params.seed + attempts - 1
    timings = dict.fromkeys((stage for _, stage, _ in CHECKS), 0.0)
    t0 = time.perf_counter()
    L = _build(field, params, p, dim_l, seed)
    t1 = time.perf_counter()
    exL = _build(ex_field, params, p, dim_l, seed)
    timings["build"] += t1 - t0
    timings["exhaustive_scan"] += time.perf_counter() - t1
    inst = Instance(params, L, exL, attempts)
    sections = {}
    for name, stage, check in CHECKS:
        t0 = time.perf_counter()
        ok, detail, found = check(inst)
        timings[stage] += time.perf_counter() - t0
        if not ok:
            raise VerificationError(f"{name}: {detail}")
        sections.update(found)
    return BundleReport(params=params, anchor=L, complex=inst.C, exhaustive_anchor=exL,
                        sections=sections, attempts=attempts, timings=timings)


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


def _anchor_to_json(L: AnchorProblem):
    return {"u": L.u, "w": L.w, "dim": L.d,
            "basis": _matrix_to_json(L.subspace.basis)}


def _anchor_from_json(field, obj) -> AnchorProblem:
    basis = _matrix_from_json(field, obj["basis"])
    return AnchorProblem(obj["u"], obj["w"], Subspace(basis))


def _scan_to_json(rep: FaithfulnessReport):
    return {"mode": rep.mode, "field": rep.field_desc,
            "points_checked": rep.points_checked, "seed": rep.seed,
            "failures": [[i, list(pt), degree] for i, pt, degree in rep.failures]}


def _section_json(value):
    """The report form of a section value returned by a check."""
    if isinstance(value, DenseMatrix):
        return _matrix_to_json(value)
    if isinstance(value, GradedEModule):
        return _module_to_json(value)
    if isinstance(value, FaithfulnessReport):
        return _scan_to_json(value)
    if isinstance(value, CohomologyTable):
        return {"t_lo": value.t_lo, "t_hi": value.t_hi,
                "entries": [list(row) for row in value.entries]}
    if isinstance(value, HdCertificate):
        return {"value": value.value, "nonvanishing": list(value.nonvanishing)}
    if isinstance(value, tuple):
        return list(value)
    return value


def _params_to_json(params: ConstructionParams):
    pol = params.policy
    return {"n": params.n, "l": params.l, "r": params.r, "field": params.field_spec,
            "seed": params.seed, "multiplicity": params.multiplicity,
            "explicit_anchor": params.explicit_anchor,
            "policy": {**asdict(pol), "table_window":
                       list(pol.table_window) if pol.table_window else None}}


def _params_from_json(obj) -> ConstructionParams:
    pol = dict(obj["policy"])
    if pol["table_window"]:
        pol["table_window"] = tuple(pol["table_window"])
    return ConstructionParams(obj["n"], obj["l"], obj["r"], obj["field"], obj["seed"],
                              obj["multiplicity"], obj["explicit_anchor"],
                              VerificationPolicy(**pol))


def report_to_json(rep: BundleReport) -> dict:
    out = {
        "schema": SCHEMA_VERSION,
        "version": rep.version,
        "params": _params_to_json(rep.params),
        "anchor": _anchor_to_json(rep.anchor),
        "exhaustive": {"anchor": _anchor_to_json(rep.exhaustive_anchor)},
    }
    for key, value in rep.sections.items():
        *path, last = key.split(".")
        node = out
        for part in path:
            node = node[part]
        node[last] = _section_json(value)
    out["attempts"] = rep.attempts
    out["timings"] = {k: round(v, 6) for k, v in rep.timings.items()}
    return out


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


def _instance_from_report(report: dict) -> Instance:
    """The report's inputs: params, the anchor, the exhaustive anchor (read
    over the field the policy derives) and attempts."""
    params = _params_from_json(report["params"])
    return Instance(params, _anchor_from_json(params.field(), report["anchor"]),
                    _anchor_from_json(_exhaustive_field(params),
                                      report["exhaustive"]["anchor"]),
                    report["attempts"])


def verify(report: dict) -> Verdict:
    """Re-run every check of a serialized report deterministically.

    Every report key other than the inputs, ``schema``, ``version`` and
    ``timings`` is a section of exactly one check, recomputed and compared.
    """
    if not isinstance(report, dict):
        return Verdict((("report", False,
                         f"a report is a JSON object, not {type(report).__name__}"),))
    if report.get("schema") != SCHEMA_VERSION:
        return Verdict((("schema", False,
                         f"unsupported schema {report.get('schema')}"),))
    try:
        inst = _instance_from_report(report)
    except Exception as exc:  # an unreadable input fails the whole report
        return Verdict((("report", False, f"{type(exc).__name__}: {exc}"),))
    checks = []
    for name, _, check in CHECKS:
        try:
            ok, detail, sections = check(inst)
            differ = [key for key, value in sections.items()
                      if _section_json(value) != reduce(getitem, key.split("."), report)]
            if differ:
                ok, detail = False, f"{detail}; differs from the record: {', '.join(differ)}"
        except Exception as exc:  # a failed recomputation is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, bool(ok), detail))
    return Verdict(tuple(checks))


def with_replaced_anchor(report: dict, new_basis_rows) -> dict:
    """A consistent-but-unverified copy of a report with a different L.

    Rebuilds the module, complex and chi from the new subspace while leaving
    the recorded verdicts untouched; feeding the result to ``verify`` shows
    which checks the new subspace breaks.  Intended for mutation testing.
    """
    out = json.loads(json.dumps(report))
    params = _params_from_json(out["params"])
    w = comb(params.n + 1, params.l)
    basis = DenseMatrix(params.field(), new_basis_rows, out["multiplicity"] * w)
    L = AnchorProblem(out["multiplicity"], w, Subspace(basis))
    M = _rebuild(params, L)
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
