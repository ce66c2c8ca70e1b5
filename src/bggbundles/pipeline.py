"""End-to-end construction of simple bundles of prescribed rank and
homological dimension, plus report serialization and re-verification.

Given n >= 3, a target homological dimension l in [1, n-1] and a rank
r >= n, the pipeline picks the smallest admissible multiplicity p, quotients
the truncated free module by an anchoring subspace of the top piece, and
verifies everything it claims: faithfulness (a scan of ``RANDOM_SAMPLES``
random points of P^n(F_q), or all of them if there are fewer, plus a strand
certificate of the reported anchor L, which proves the condition at every
point over the algebraic closure; q is the working prime, or over Q
``bgg.CERTIFICATE_PRIME``, and no other anchor is drawn), simplicity (L's
anchoring system has solution dimension 1, over Q at that prime, which
proves it over Q), rank and certified homological dimension.  The whole
record is serialized into a self-contained JSON report.

The one random choice is the anchor, drawn by ``draw_subspace`` at the seed
``params.seed + attempts - 1``; the retry budget, the point budget, the
cohomology window, the random scan's size and the certificate's cell cap are
constants, not settings.  ``construct`` and ``verify`` refuse a case none of
whose strands fits that cap before building, and run one list of five
checks, ``CHECKS``.  A check takes an :class:`Instance` and returns
``(ok, detail, values)``, the values of the report sections its ``CHECKS``
row names.  The instance's inputs are the parameters, the anchor L and the
attempt count.  The module M is the free module's quotient by L, rebuilt
from L and the ``CONVENTIONS`` rather than recorded, and each faithfulness
scan reads L directly.
``construct`` draws L, stops at the first failing check and writes the
report from the sections; ``verify`` reads the inputs from a report and
passes a check only if it is ok and every recomputed section equals the
recorded one.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb
from operator import getitem

from . import __version__, bgg
from .anchor import AnchorProblem, draw_subspace, general_position_range, is_anchoring
from .bgg import (FaithfulnessReport, LinearComplex, bgg_complex, faithfulness_scan,
                  projective_point_count, scan_prime)
from .emod import GradedEModule, chi, free_truncated, quotient_top
from .fields import GF, QQ, FieldError, RationalField
from .matrix import DenseMatrix, ShapeError, Subspace
from .sheafcoh import (CertificationError, CohomologyCalculator, CohomologyTable,
                       HdCertificate, certify_hd, cohomology_table)

SCHEMA_VERSION = 9
RETRY_BUDGET = 32  # attempts, each at the next seed, before construct gives up
RANDOM_SAMPLES = 10_000  # points of a random scan, unless P^n has fewer

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
class ConstructionParams:
    n: int
    l: int
    r: int
    field_spec: str = "fp:32003"
    seed: int = 0
    multiplicity: int | None = None

    def __post_init__(self):
        if self.seed < 0:  # the scans' generators take no negative seed
            raise ParameterError(f"seed {self.seed} must be at least 0")

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


def choose_parameters(n: int, l: int, r: int, multiplicity: int | None = None):
    """Multiplicity p and anchor dimension for the target (n, l, r).

    Returns the smallest p with r strictly below p*(C(n,l) - 2/C(n+1,l)).
    An explicit multiplicity may relax this to the free-module case p = 1,
    r = C(n,l) (no quotient).  All derived bounds are asserted exactly.
    """
    if n < 3:
        raise ParameterError("projective dimension must be at least 3")
    if not (1 <= l <= n - 1):
        raise ParameterError(f"homological dimension {l} must lie in [1, {n - 1}]")
    if r < n:
        raise ParameterError(f"rank {r} must be at least n = {n}")
    cnl = comb(n, l)
    cn1l = comb(n + 1, l)
    c = cnl * cn1l - 2  # r < p*(C(n,l) - 2/C(n+1,l)) iff r*C(n+1,l) < p*c
    if multiplicity is not None:
        p = multiplicity
        if p < 1:
            raise ParameterError("multiplicity must be at least 1")
        if not (r * cn1l < p * c or (p == 1 and r == cnl)):
            raise ParameterError(f"multiplicity {p} violates the rank bound for "
                                 f"(n={n}, l={l}, r={r})")
    else:
        p = r * cn1l // c + 1  # the least such p; c > 0 as C(n,l) >= 3
    dim_l = p * cnl - r
    # The rank bound leaves L nonzero but in the free case p = 1, r = C(n,l).
    assert 0 < dim_l <= p * cnl - n or (p, dim_l) == (1, 0), "anchor dimension"
    if p > 1:
        lo, hi = general_position_range(p, cn1l)
        assert lo < dim_l < hi, "anchor dimension outside the general-position range"
    return p, dim_l


def check_buildable(params: ConstructionParams):
    """Raise :class:`ParameterError` for parameters ``choose_parameters``
    refuses, or a case no strand within the certificate's cell cap could
    certify: what ``construct`` and ``verify`` refuse before building."""
    n, l, r = params.n, params.l, params.r
    # Decided before any binomial when it can be: unless multiplicity 1 allows
    # the free case, dim L = k >= 1, so every strand has degree a >= 1 and at
    # least (n+1) * N >= (n+1)^2 cells.
    if params.multiplicity == 1 or (n + 1) ** 2 <= bgg.CERTIFICATE_CELLS:
        p, dim_l = choose_parameters(n, l, r, params.multiplicity)
        if next(bgg.strand_shapes(n, p * comb(n + 1, l + 1), dim_l), None) is not None:
            return
    raise ParameterError(f"no strand of (n={n}, l={l}, r={r}) within "
                         f"{bgg.CERTIFICATE_CELLS} cells can certify its anchor")


def _build(field, params: ConstructionParams, seed: int) -> AnchorProblem:
    """The anchor L over ``field`` drawn at ``seed``.  Whether it anchors is left
    to ``hom_dimension``; rows drawn dependent fail the attempt here."""
    n, l = params.n, params.l
    p, dim_l = choose_parameters(n, l, params.r, params.multiplicity)
    L = draw_subspace(field, p, comb(n + 1, l), dim_l, random.Random(seed))
    if L is None:
        raise VerificationError(f"build: the {dim_l} rows drawn at seed {seed} are dependent")
    return L


# ---------------------------------------------------------------------------
# the checks shared by construct and verify


@dataclass
class Instance:
    """What the checks examine: the inputs, and what they define.  ``attempts``
    fixes the seed of the attempt, which drew L and seeds the random scan.
    ``M`` is the one place the module is built: the free module's quotient by
    L, what a module anchored at L must be.  No report records it."""

    params: ConstructionParams
    L: AnchorProblem
    attempts: int

    @property
    def seed(self) -> int:
        return self.params.seed + self.attempts - 1

    @cached_property
    def M(self) -> GradedEModule:
        L, n, l = self.L, self.params.n, self.params.l
        if L.w != comb(n + 1, l):  # before P, whose size follows n, is built
            raise ShapeError(f"the anchor's width {L.w} is not C(n+1, l) = {comb(n + 1, l)}")
        return quotient_top(free_truncated(L.u, l, n, L.field), L.subspace)

    @cached_property
    def C(self):
        return bgg_complex(self.M)


def _check_parameters(inst):
    n, l, r = inst.params.n, inst.params.l, inst.params.r
    p, dim_l = choose_parameters(n, l, r, inst.params.multiplicity)
    L, ch = inst.L, chi(inst.M)
    return ((L.u, L.w, L.d) == (p, comb(n + 1, l), dim_l) and ch[-1] == r,
            f"p={p}, anchor dim={dim_l}, rank={ch[-1]}",
            (dict(CONVENTIONS), p, dim_l, ch, ch[-1]))


def _check_hom_dimension(inst):
    # M is generated in degree 0: Hom(M, M) is {phi_0 (x) 1 : (phi_0 (x) 1)(L) in L}.
    # Over Q, 1 read mod q proves it (see bgg.certificate_anchor).
    L, q = bgg.certificate_anchor(inst.L), scan_prime(inst.L.field)
    if L is None:
        return False, f"the basis of L loses rank mod {q}: no system is solved", (None,)
    hom = is_anchoring(L).solution_dim
    read = "" if L is inst.L else f", read mod {q}"
    return hom == 1, f"Hom dimension {hom}{read}", (hom,)


def _check_random_faithfulness(inst):
    n, q = inst.params.n, scan_prime(inst.L.field)
    rnd = faithfulness_scan(inst.L, "random", n=n, l=inst.params.l, seed=inst.seed,
                            samples=min(RANDOM_SAMPLES, projective_point_count(q, n)))
    if not rnd.points_checked:
        return False, f"the basis of L loses rank mod {q}: no point is drawn", (rnd,)
    return rnd.ok, f"{rnd.points_checked} points, {len(rnd.failures)} failures", (rnd,)


def _check_exhaustive_faithfulness(inst):
    L = inst.L
    scan = faithfulness_scan(L, "exhaustive", n=inst.params.n, l=inst.params.l)
    if scan.certificate is not None:
        a, rows, cols = scan.certificate
        detail = f"certified by the degree-{a} strand ({rows}x{cols}) over {scan.field_desc}"
    elif bgg.certificate_anchor(L) is None:
        detail = f"the basis of L loses rank mod {bgg.CERTIFICATE_PRIME}: no strand is ranked"
    else:
        detail = (f"no strand of at most {bgg.CERTIFICATE_CELLS} cells is onto "
                  f"over {scan.field_desc}")
    return scan.ok, detail, (field_spec(L.field), scan)


def _check_cohomology(inst):
    # The table reads its H^0 row off the term dimensions, which presupposes
    # the resolution that the exhaustive_faithfulness certificate proves exact.
    n, l, C = inst.params.n, inst.params.l, inst.C
    calc = CohomologyCalculator(C)
    cert = certify_hd(inst.M, C, calc)
    table = cohomology_table(C, -n - C.length - 1, 0, calc)
    return cert.value == l, f"certified hd {cert.value}", (table, cert)


# (name, construct timing stage, the report keys of the values the check
# returns, check), in the order both callers run them.
CHECKS = (
    ("parameters", "build", ("conventions", "multiplicity", "anchor_dim", "chi", "rank"),
     _check_parameters),
    ("hom_dimension", "simplicity", ("hom_dim",), _check_hom_dimension),
    ("random_faithfulness", "random_scan", ("random_scan",), _check_random_faithfulness),
    ("exhaustive_faithfulness", "exhaustive_scan",
     ("exhaustive.field", "exhaustive.scan"),
     _check_exhaustive_faithfulness),
    ("cohomology", "cohomology", ("cohomology", "hd"), _check_cohomology),
)


# ---------------------------------------------------------------------------
# construction


def _section(key):
    return property(lambda self: self.sections[key])


@dataclass(frozen=True)
class BundleReport:
    params: ConstructionParams
    anchor: AnchorProblem
    module: GradedEModule
    complex: LinearComplex
    sections: dict  # report key -> value, as the checks returned them
    attempts: int
    timings: dict
    version: str = __version__

    multiplicity = _section("multiplicity")
    anchor_dim = _section("anchor_dim")
    hom_dim = _section("hom_dim")
    rank = _section("rank")
    random_scan = _section("random_scan")
    exhaustive_field_spec = _section("exhaustive.field")
    exhaustive_scan = _section("exhaustive.scan")
    table = _section("cohomology")
    hd = _section("hd")


def construct(params: ConstructionParams) -> BundleReport:
    """Run the whole construction with verification and seeded retries.

    Structural parameter problems raise :class:`ParameterError` immediately,
    among them a case whose anchors no strand within the certificate's cell
    cap could certify; genericity failures (drawn rows that are dependent, or
    an anchor that is not simple, faithful or certified) reseed and retry up
    to the budget.
    """
    field = params.field()
    check_buildable(params)
    diagnostics = []
    for attempt in range(RETRY_BUDGET):
        try:
            return _construct_once(params, field, attempt + 1)
        except (VerificationError, CertificationError) as exc:
            diagnostics.append((attempt, str(exc)))
    raise RetryBudgetError(
        f"construction failed {RETRY_BUDGET} time(s) for "
        f"(n={params.n}, l={params.l}, r={params.r})", diagnostics)


def _construct_once(params, field, attempts) -> BundleReport:
    timings = dict.fromkeys((stage for _, stage, _, _ in CHECKS), 0.0)
    t0 = time.perf_counter()
    L = _build(field, params, params.seed + attempts - 1)
    timings["build"] += time.perf_counter() - t0
    inst = Instance(params, L, attempts)
    sections = {}
    for name, stage, keys, check in CHECKS:
        t0 = time.perf_counter()
        ok, detail, values = check(inst)
        timings[stage] += time.perf_counter() - t0
        if not ok:
            raise VerificationError(f"{name}: {detail}")
        sections.update(zip(keys, values, strict=True))
    return BundleReport(params=params, anchor=L, module=inst.M, complex=inst.C,
                        sections=sections, attempts=attempts, timings=timings)


# ---------------------------------------------------------------------------
# serialization


def _matrix_to_json(m: DenseMatrix):
    f = m.field
    return {"rows": m.nrows, "cols": m.ncols,
            "entries": [[f.to_str(x) for x in row] for row in m.rows()]}


def _matrix_from_json(field, obj) -> DenseMatrix:
    return DenseMatrix(field, obj["entries"], int(obj["cols"]))


def _anchor_to_json(L: AnchorProblem):
    return {"u": L.u, "w": L.w, "dim": L.d,
            "basis": _matrix_to_json(L.subspace.basis)}


def _anchor_from_json(field, obj) -> AnchorProblem:
    basis = _matrix_from_json(field, obj["basis"])
    return AnchorProblem(int(obj["u"]), int(obj["w"]), Subspace(basis))


def _scan_to_json(rep: FaithfulnessReport):
    out = {"mode": rep.mode, "field": rep.field_desc,
           "points_checked": rep.points_checked, "seed": rep.seed,
           "failures": [[i, list(pt), degree] for i, pt, degree in rep.failures]}
    if rep.mode == "exhaustive":
        out["certificate"] = None if rep.certificate is None else list(rep.certificate)
    return out


def _section_json(value):
    """The report form of a section value returned by a check."""
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
    return {"n": params.n, "l": params.l, "r": params.r, "field": params.field_spec,
            "seed": params.seed, "multiplicity": params.multiplicity}


def _params_from_json(obj) -> ConstructionParams:
    """Numbers are read as ints, so a record that wrote one otherwise (``true``,
    ``200.0``) departs from its re-serialization."""
    mult = obj["multiplicity"]
    return ConstructionParams(int(obj["n"]), int(obj["l"]), int(obj["r"]), obj["field"],
                              int(obj["seed"]), None if mult is None else int(mult))


def _put(tree: dict, key: str, value):
    """Set the dotted ``key`` of nested dicts, making the dicts on its path."""
    *path, last = key.split(".")
    reduce(lambda node, part: node.setdefault(part, {}), path, tree)[last] = value


def _inputs_to_json(params, anchor, attempts) -> dict:
    return {"params": _params_to_json(params), "anchor": _anchor_to_json(anchor),
            "attempts": attempts}


def report_to_json(rep: BundleReport) -> dict:
    out = {"schema": SCHEMA_VERSION, "version": rep.version,
           **_inputs_to_json(rep.params, rep.anchor, rep.attempts)}
    for key, value in rep.sections.items():
        _put(out, key, _section_json(value))
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


_ABSENT = object()


def _departures(record, expected, path=""):
    """The key paths where ``record`` departs from ``expected``: a key one of them
    lacks, or a value of another type or value.  ``...`` in ``expected`` matches
    anything."""
    if isinstance(record, dict) and isinstance(expected, dict):
        return [found for key in {**expected, **record}
                for found in _departures(record.get(key, _ABSENT),
                                         expected.get(key, _ABSENT), f"{path}{key}.")]
    same = type(record) is type(expected) and record == expected
    return [] if expected is ... or same else [path[:-1]]


def _instance_from_report(report: dict) -> Instance:
    """The report's inputs, written as ``construct`` writes them, with attempts
    in [1, RETRY_BUDGET], of a case ``construct`` would build; any other key
    must be metadata or a section."""
    params = _params_from_json(report["params"])
    check_buildable(params)
    attempts = report["attempts"]
    if type(attempts) is not int or not 1 <= attempts <= RETRY_BUDGET:
        raise ValueError(f"attempts {attempts!r} lies outside [1, {RETRY_BUDGET}]")
    inst = Instance(params, _anchor_from_json(params.field(), report["anchor"]), attempts)
    expected = {"schema": ..., "version": ..., "timings": ...,
                **_inputs_to_json(params, inst.L, attempts)}
    for _, _, keys, _ in CHECKS:
        for key in keys:
            _put(expected, key, ...)
    stray = _departures(report, expected)
    if stray:
        raise ValueError("neither an input as construct writes it nor a section of "
                         f"a check: {', '.join(stray)}")
    return inst


def verify(report: dict) -> Verdict:
    """Re-run every check of a serialized report deterministically.

    The inputs are ``params``, ``anchor`` and ``attempts``; the module is
    not recorded, but rebuilt from the anchor.  Every other key but
    ``schema``, ``version`` and ``timings`` is a section of exactly one
    check, recomputed and compared, the strand certificate included.
    ``version`` is metadata, like ``timings``: it is not checked, so a report
    stamped by another version verifies if its checks pass.  An unreadable
    input, a case that ``construct`` refuses before building, or a key no
    check owns fails one ``report`` check.
    What the scans spend is no input: the random sample count follows from
    the working field and the certificate's cell cap is a constant, as in
    ``construct``.
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
    for name, _, keys, check in CHECKS:
        try:
            ok, detail, values = check(inst)
            differ = [key for key, value in zip(keys, values, strict=True)
                      if _section_json(value) != reduce(getitem, key.split("."), report)]
            if differ:
                ok, detail = False, f"{detail}; differs from the record: {', '.join(differ)}"
        except Exception as exc:  # a failed recomputation is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, bool(ok), detail))
    return Verdict(tuple(checks))


# ---------------------------------------------------------------------------
# CAS cross-check export (Macaulay2 dialect)


def cas_script(report: dict) -> str:
    """A Macaulay2 script rebuilding the resolution for cross-validation.

    The script recomputes the cokernel sheaf, its rank and the cohomology
    groups certified in the report, from the module the report's anchor
    defines.  It is emitted for third-party checking only; nothing in this
    package depends on its output.
    """
    inst = _instance_from_report(report)
    n, l, M = inst.params.n, inst.params.l, inst.M
    field = M.field
    kk = "QQ" if isinstance(field, RationalField) else f"ZZ/{field.p}"
    dims = M.piece_dims
    lines = [
        "-- independent cross-check of a constructed bundle",
        f"kk = {kk}",
        f"S = kk[x_0..x_{n}]",
    ]
    for i, level in enumerate(M.actions):
        acts = [a.rows() for a in level]
        rows = dims[i + 1]
        cols = dims[i]
        entry_rows = []
        for rr in range(rows):
            ents = []
            for cc in range(cols):
                terms = [f"({field.to_str(a[rr][cc])})*x_{j}"
                         for j, a in enumerate(acts) if a[rr][cc]]
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
