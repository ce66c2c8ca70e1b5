"""End-to-end construction, report serialization, verification, mutation."""

import hashlib
import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from bggbundles import (GF, QQ, AnchorProblem, AnchorVerdict, ConstructionParams,
                        DenseMatrix, GradedEModule, ParameterError, ShapeError, Subspace,
                        cas_script, chi, choose_parameters, construct, faithfulness_scan,
                        free_truncated, is_anchoring, projective_point_count,
                        report_to_json, report_to_json_str, verify)
import bggbundles.bgg as bgg
import bggbundles.emod as emod
import bggbundles.pipeline as pl
from bggbundles.cli import main as cli_main
from bggbundles.pipeline import _scan_to_json
from forgery import module_record, with_replaced_anchor


@contextmanager
def small_scans(samples=500):
    """Random scans of at most ``samples`` points, in place of the constant,
    so that a test runs in seconds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl, "RANDOM_SAMPLES", samples)
        yield


@pytest.fixture(autouse=True)
def fast():
    with small_scans():
        yield


def test_choose_parameters_examples():
    assert choose_parameters(3, 2, 5) == (2, 1)
    assert choose_parameters(3, 1, 3) == (2, 3)
    assert choose_parameters(4, 2, 4) == (1, 2)
    assert choose_parameters(4, 3, 4, multiplicity=1) == (1, 0)


def test_closed_form_multiplicity_is_the_least_admissible():
    # The search the closed form replaced is the oracle.
    for n in range(3, 9):
        for l in range(1, n):
            cnl, cn1l = comb(n, l), comb(n + 1, l)
            for r in range(n, 5 * cnl + 10):
                p = 1
                while not r < p * (Fraction(cnl) - Fraction(2, cn1l)):
                    p += 1
                assert choose_parameters(n, l, r) == (p, p * cnl - r), (n, l, r)


def test_choose_parameters_rejections():
    with pytest.raises(ParameterError):
        choose_parameters(2, 1, 3)
    with pytest.raises(ParameterError):
        choose_parameters(3, 3, 5)
    with pytest.raises(ParameterError):
        choose_parameters(3, 1, 2)
    with pytest.raises(ParameterError):
        choose_parameters(3, 2, 5, multiplicity=1)
    with pytest.raises(ParameterError):
        choose_parameters(4, 3, 8, multiplicity=2)  # trivial quotient at p = 2


@pytest.mark.parametrize("edit", [{"r": 10**15}, {"n": 10**5, "l": 1},
                                  {"n": 10**5, "l": 1, "r": 10**5},
                                  {"n": 10**6, "l": 5 * 10**5, "r": 10**6}],
                         ids=["r1e15", "n1e5", "n1e5r1e5", "n1e6l5e5r1e6"])
def test_a_report_edited_to_a_huge_case_fails_within_a_second(fast_report, edit):
    # verify makes construct's refusal before any check, so the numbers in
    # params set no cost.
    obj = json.loads(json.dumps(fast_report))
    obj["params"].update(edit)
    t0 = time.perf_counter()
    failed = verify(obj).failed()
    assert time.perf_counter() - t0 < 1
    assert [name for name, _ in failed] == ["report"]
    assert failed[0][1].startswith("ParameterError: ")


@pytest.mark.parametrize("n", [1413, 1414])
def test_the_binomial_free_refusal_refuses_nothing_a_strand_could_certify(monkeypatch, n):
    # check_buildable refuses (n+1)^2 > CERTIFICATE_CELLS before computing a
    # binomial, so from n = 1414 on; there strand_shapes must have nothing
    # to offer.  The ranks include those that leave dim L = 1, the smallest
    # strands.
    def reached(*args):
        raise LookupError("reached choose_parameters")

    monkeypatch.setattr(pl, "choose_parameters", reached)
    for l in (1, 2, n - 1):
        for r in sorted({n, 2 * n - 1, comb(n, l) - 1}):
            if r < n:
                continue
            p, dim_l = choose_parameters(n, l, r)
            shape = next(bgg.strand_shapes(n, p * comb(n + 1, l + 1), dim_l), None)
            with pytest.raises((ParameterError, LookupError)) as refusal:
                pl.check_buildable(ConstructionParams(n, l, r))
            if n == 1413:
                assert refusal.type is LookupError, (l, r)
            else:
                assert refusal.type is ParameterError and shape is None, (l, r, p, dim_l)
                assert "within 2000000 cells" in str(refusal.value)


def test_a_huge_rank_is_refused_within_a_second(capsys):
    t0 = time.perf_counter()
    assert cli_main(["construct", "--n", "3", "--l", "1", "--r", str(10**15)]) == 2
    assert time.perf_counter() - t0 < 1
    assert "within 2000000 cells" in capsys.readouterr().err


def test_anchor_width_is_checked_before_the_free_module_is_built(fast_report, monkeypatch):
    obj = json.loads(json.dumps(fast_report))
    obj["anchor"].update(u=3, w=4)  # still 12 columns, as k^3 (x) k^4

    def no_free_module(*args):
        raise AssertionError("built the free module")

    monkeypatch.setattr(pl, "free_truncated", no_free_module)
    with pytest.raises(ShapeError, match="width 4 is not C\\(n\\+1, l\\) = 6"):
        pl._instance_from_report(obj).M
    failed = dict(verify(obj).failed())
    assert failed["parameters"].startswith("ShapeError: the anchor's width 4")


def test_case_without_a_certificate_is_refused_before_building(monkeypatch, capsys):
    # (6,3,7)'s first strand that can be onto, at degree 4, is 2730x2940.
    def no_build(*args):
        raise AssertionError("built before refusing the case")

    monkeypatch.setattr(pl, "_build", no_build)
    t0 = time.perf_counter()
    with pytest.raises(ParameterError, match="no strand of \\(n=6, l=3, r=7\\)"):
        construct(ConstructionParams(6, 3, 7))
    assert time.perf_counter() - t0 < 1
    assert cli_main(["construct", "--n", "6", "--l", "3", "--r", "7"]) == 2
    assert "within 2000000 cells" in capsys.readouterr().err


def test_construct_rank5_example_shape():
    rep = construct(ConstructionParams(3, 2, 5, seed=42))
    assert rep.module.piece_dims == (2, 8, 11)
    assert rep.rank == 5 and rep.hom_dim == 1 and rep.hd.value == 2
    assert rep.multiplicity == 2 and rep.anchor_dim == 1
    assert [r for _, r in rep.complex.terms] == [2, 8, 11]


def test_construct_small_l1():
    rep = construct(ConstructionParams(3, 1, 3, seed=0))
    assert rep.module.piece_dims == (2, 5)
    assert rep.rank == 3 and rep.hd.value == 1


def test_construct_free_special_case():
    rep = construct(ConstructionParams(4, 3, 4, seed=0, multiplicity=1))
    assert rep.anchor_dim == 0
    assert rep.module.piece_dims == (1, 5, 10, 10)
    assert rep.rank == 4 and rep.hom_dim == 1 and rep.hd.value == 3


@pytest.fixture(scope="module")
def qq_report():
    with small_scans():
        return report_to_json(construct(ConstructionParams(3, 2, 5, field_spec="qq", seed=3)))


def test_construct_over_rationals(qq_report):
    assert qq_report["rank"] == 5 and qq_report["hd"]["value"] == 2
    assert verify(qq_report).ok


def test_rational_report_certifies_its_own_anchor(qq_report):
    block = qq_report["exhaustive"]
    assert block["field"] == "qq" and block["scan"]["field"] == "QQ"
    # The random scan names the prime it sampled the anchor's reduction at.
    assert qq_report["random_scan"]["field"] == "GF(1048573)"
    assert block["scan"]["certificate"] == [1, 4, 8]
    assert block["scan"]["points_checked"] is None
    detail = {name: text for name, _, text in verify(qq_report).checks}
    assert detail["exhaustive_faithfulness"] == "certified by the degree-1 strand (4x8) over QQ"


def _rank_loss_rows(qq_report):
    """The QQ report's integral anchor rows times CERTIFICATE_PRIME: the same
    L over Q, with a basis that vanishes mod the prime."""
    return [[bgg.CERTIFICATE_PRIME * int(x) for x in row]
            for row in qq_report["anchor"]["basis"]["entries"]]


def test_rank_loss_anchor_fails_the_three_prime_checks(qq_report, monkeypatch):
    # Simplicity and both faithfulness checks read L mod the prime.
    forged = with_replaced_anchor(qq_report, _rank_loss_rows(qq_report))
    failed = verify(forged).failed()
    assert [name for name, _ in failed] == ["hom_dimension", "random_faithfulness",
                                            "exhaustive_faithfulness"]
    assert failed[0][1].startswith("the basis of L loses rank mod 1048573: "
                                   "no system is solved")
    assert failed[1][1].startswith("the basis of L loses rank mod 1048573: "
                                   "no point is drawn")
    # construct takes such a draw for a genericity failure, and retries.
    lossy, real, drawn = pl._anchor_from_json(QQ, forged["anchor"]), pl._build, []

    def build(field, params, seed):
        drawn.append(seed)
        return lossy if len(drawn) == 1 else real(field, params, seed)

    monkeypatch.setattr(pl, "_build", build)
    params = ConstructionParams(3, 2, 5, field_spec="qq", seed=3)
    rep = construct(params)
    assert rep.attempts == 2 and drawn == [3, 4] and rep.random_scan.ok
    monkeypatch.setattr(pl, "RETRY_BUDGET", 1)
    drawn.clear()
    with pytest.raises(pl.RetryBudgetError) as exc:
        construct(params)
    assert exc.value.diagnostics == [
        (0, "hom_dimension: the basis of L loses rank mod 1048573: no system is solved")]


def test_hom_over_the_rationals_is_decided_mod_the_prime(qq_report):
    # A decomposable basis mod q plus q times random integers: L anchors over
    # Q, but its reduction does not, so hom_dimension fails.  The check is
    # one-sided: a solution dimension of 1 mod q proves 1 over Q, a larger
    # one proves nothing, and the detail names the prime it was read at.
    q, rng = bgg.CERTIFICATE_PRIME, random.Random(0)
    rows = [[int(j == 0) + q * rng.randint(-9, 9) for j in range(12)]]
    forged = with_replaced_anchor(qq_report, rows)
    L = pl._anchor_from_json(QQ, forged["anchor"])
    assert is_anchoring(L) == AnchorVerdict(True, 1)
    assert is_anchoring(bgg.certificate_anchor(L)) == AnchorVerdict(False, 3)
    detail = {name: text for name, _, text in verify(forged).checks}
    assert detail["hom_dimension"] == ("Hom dimension 3, read mod 1048573; "
                                       "differs from the record: hom_dim")
    assert {name: text for name, _, text in verify(qq_report).checks}[
        "hom_dimension"] == "Hom dimension 1, read mod 1048573"


@pytest.mark.parametrize("params, digest", [
    ((3, 2, 5, 3), "5702522c0f445c9d38de17a6ff3e0b1574d7c60dd3146b30843385850ddcbd25"),
    ((4, 3, 7, 0), "334c5d2a6c5e67d96ad5ac1aebc81b814101700808cc507cbe040ec10d6cb0b2"),
    ((4, 2, 6, 0), "e64ee240652767385c15fe76000a72e07bd3f6d974cc6add881497f4cba20407"),
    ((5, 4, 5, 0), "9247fcedbd56184967e0180004c28f320b26b5dc516db928e7f653da4b3654da"),
], ids=["qq325s3", "qq437", "qq426", "qq545"])
def test_rational_reports_are_pinned(params, digest):
    # Digests of the reports, minus timings, from when Hom over Q was an exact
    # rational rank: reading it mod the prime changes no byte.
    n, l, r, seed = params
    obj = report_to_json(construct(ConstructionParams(n, l, r, field_spec="qq", seed=seed)))
    del obj["timings"]
    assert obj["attempts"] == 1
    assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest() == digest


def test_report_roundtrip_verify():
    rep = construct(ConstructionParams(3, 2, 5, seed=42))
    obj = json.loads(report_to_json_str(rep))
    verdict = verify(obj)
    assert verdict.ok, verdict.to_text()
    names = [name for name, _, _ in verdict.checks]
    assert "hom_dimension" in names and "exhaustive_faithfulness" in names


def test_exhaustive_detail_says_how_the_verdict_was_reached(fast_report, qq_report):
    verdict = verify(fast_report)
    assert verdict.ok
    detail = {name: text for name, _, text in verdict.checks}["exhaustive_faithfulness"]
    assert detail == "certified by the degree-1 strand (4x8) over GF(32003)"
    assert fast_report["exhaustive"] == {
        "field": "fp:32003",
        "scan": {"mode": "exhaustive", "field": "GF(32003)",
                 "points_checked": projective_point_count(32003, 3), "seed": None,
                 "failures": [], "certificate": [1, 4, 8]}}
    # A Q basis that loses rank mod the prime has no strand ranked, and says so.
    forged = with_replaced_anchor(qq_report, _rank_loss_rows(qq_report))
    detail = {name: text for name, _, text in verify(forged).checks}
    assert detail["random_faithfulness"].startswith("the basis of L loses rank mod "
                                                    "1048573: no point is drawn;")
    assert detail["exhaustive_faithfulness"].startswith("the basis of L loses rank mod "
                                                        "1048573: no strand is ranked;")


def test_uncertified_anchor_fails_its_check_and_is_retried(fast_report, monkeypatch):
    # With no strand allowed, construct refuses the case before building
    # anything, and verify refuses its report as a whole.
    with monkeypatch.context() as mp:
        mp.setattr(bgg, "CERTIFICATE_CELLS", 0)
        assert verify(fast_report).failed() == [
            ("report", "ParameterError: no strand of (n=3, l=2, r=5) within 0 cells "
                       "can certify its anchor")]
        with pytest.raises(ParameterError, match="within 0 cells"):
            construct(ConstructionParams(3, 2, 5, seed=42))
    # An anchor left uncertified within the cap fails exactly the check that
    # owns the certificate, and is a genericity failure.
    monkeypatch.setattr(bgg, "_strand_certificate", lambda D: None)
    assert verify(fast_report).failed() == [
        ("exhaustive_faithfulness", "no strand of at most 2000000 cells is onto over "
                                    "GF(32003); differs from the record: exhaustive.scan")]
    monkeypatch.setattr(pl, "RETRY_BUDGET", 3)
    with pytest.raises(pl.RetryBudgetError) as exc:
        construct(ConstructionParams(3, 2, 5, seed=42))
    assert [detail for _, detail in exc.value.diagnostics] == [
        "exhaustive_faithfulness: no strand of at most 2000000 cells is onto over "
        "GF(32003)"] * 3


def test_report_determinism():
    a = report_to_json(construct(ConstructionParams(3, 2, 5, seed=42)))
    b = report_to_json(construct(ConstructionParams(3, 2, 5, seed=42)))
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_conventions_block():
    obj = report_to_json(construct(ConstructionParams(3, 1, 3, seed=0)))
    conv = obj["conventions"]
    assert "monomial_order" in conv and "tensor_flattening" in conv
    assert obj["schema"] == 9
    # Matrix entries serialize as strings.
    entry = obj["anchor"]["basis"]["entries"][0][0]
    assert isinstance(entry, str)
    # The module is rebuilt from the anchor and the conventions, not recorded.
    assert "module" not in obj and "quotient_basis" not in obj


def test_verify_rejects_unknown_schema(fast_report):
    verdict = verify({"schema": 99})
    assert not verdict.ok
    # A schema-7 report, which recorded anchor_solution_dim, is refused.
    obj = json.loads(json.dumps(fast_report))
    obj["schema"] = 7
    assert verify(obj).failed() == [("schema", "unsupported schema 7")]


@pytest.mark.parametrize("report", [[], "x", None])
def test_verify_fails_a_report_that_is_not_an_object(report):
    verdict = verify(report)
    assert [name for name, _ in verdict.failed()] == ["report"]
    assert "JSON object" in verdict.to_text()


def test_cli_verify_fails_a_report_that_is_not_an_object(tmp_path, capsys):
    out = tmp_path / "rep.json"
    out.write_text("[]")
    assert cli_main(["verify", "--in", str(out)]) == 1
    assert "FAIL report" in capsys.readouterr().out


def test_mutation_corrupted_action_matrix(fast_report):
    # A module recorded beside the anchor, as schema 8 did, is a key no check
    # owns: the checks read the module the anchor defines.
    obj = json.loads(json.dumps(fast_report))
    obj["module"] = module_record(pl._instance_from_report(obj).M)
    obj["module"]["actions"][1][0]["entries"][0][0] = "12345"
    verdict = verify(obj)
    assert not verdict.ok
    assert [name for name, _ in verdict.failed()] == ["report"]


def test_mutation_non_anchoring_subspace():
    obj = report_to_json(construct(ConstructionParams(3, 2, 5, seed=42)))
    # Decomposable basis u1 (x) w1: preserved by all diagonal phi.
    row = ["0"] * 12
    row[0] = "1"
    mutated = with_replaced_anchor(obj, [row])
    verdict = verify(mutated)
    assert not verdict.ok
    failed = dict(verdict.failed())
    # Hom dimension is the one verdict on simplicity.
    assert "hom_dimension" in failed
    assert [name for name, _, _ in verdict.checks] == [
        "parameters", "hom_dimension", "random_faithfulness", "exhaustive_faithfulness",
        "cohomology"]


@pytest.fixture(scope="module")
def fast_report():
    with small_scans():
        return report_to_json(construct(ConstructionParams(3, 2, 5, seed=42)))


def _swap_in_free_module(obj):
    # The free module's anchor is the zero subspace, certified by a 0x0 strand.
    obj["exhaustive"]["scan"]["certificate"] = [0, 0, 0]


def _add_recorded_failure(obj):
    obj["exhaustive"]["scan"]["failures"].append([0, [1, 0, 0, 0], 1])


@pytest.mark.parametrize("mutate", [_swap_in_free_module, _add_recorded_failure])
def test_mutation_exhaustive_block(fast_report, mutate):
    assert verify(fast_report).ok
    obj = json.loads(json.dumps(fast_report))
    mutate(obj)
    verdict = verify(obj)
    assert [name for name, _ in verdict.failed()] == ["exhaustive_faithfulness"]


def test_mutation_main_module_swapped_for_free_module(fast_report):
    obj = json.loads(json.dumps(fast_report))
    obj["module"] = module_record(free_truncated(obj["multiplicity"], 2, 3, GF(32003)))
    # Every check runs on the quotient by L; a recorded module is refused.
    assert [name for name, _ in verify(obj).failed()] == ["report"]


def _policy(obj):
    """The ``params.policy`` of a report, which no report since schema 5 has."""
    return obj["params"].setdefault("policy", {})


def _stale_retry_budget(obj):
    _policy(obj)["retry_budget"] = 320


def _stale_table_window(obj):
    _policy(obj)["table_window"] = [-20, 0]


def _exhaustive_prime_1009(obj):
    _policy(obj)["exhaustive_prime"] = 1009


def _stale_point_budget_over_f1009(obj):
    _exhaustive_prime_1009(obj)
    _policy(obj)["point_budget"] = 10**12


def _samples_over_budget(obj):
    _policy(obj)["random_samples"] = bgg.POINT_BUDGET + 1


def _qq_samples_1200001(obj):
    # About 7.6 minutes of exact ranks, when verify ranked a Q scan's points
    # over Q.
    _policy(obj)["random_samples"] = 1_200_001


# Report policies that once set what verify would spend: each a key that
# is no longer a setting.
@pytest.mark.parametrize("forge, owner", [
    (_stale_retry_budget, "report"),
    (_stale_table_window, "report"),
    (_stale_point_budget_over_f1009, "report"),
    (_exhaustive_prime_1009, "report"),
    (_samples_over_budget, "report"),
    (_qq_samples_1200001, "report"),
], ids=lambda x: x.__name__.strip("_") if callable(x) else x)
def test_forged_policy_is_refused_within_a_second(fast_report, qq_report, monkeypatch,
                                                  forge, owner):
    obj = json.loads(json.dumps(qq_report if forge is _qq_samples_1200001 else fast_report))
    forge(obj)
    assert [name for name, _ in verify(obj).failed()] == [owner]
    # The step of verify that refuses the forgery enters no scan and no table,
    # the paths whose cost a report could once set.
    def slow_path(*args, **kwargs):
        raise AssertionError("a refused report reached a scan or a table")

    for module, name in [(bgg, "_normalized_point_chunks"), (bgg, "_random_point_chunks"),
                         (pl, "cohomology_table")]:
        monkeypatch.setattr(module, name, slow_path)
    check = {name: check for name, _, _, check in pl.CHECKS}.get(owner)  # None: report
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        inst = pl._instance_from_report(obj)
        check(inst)
    assert time.perf_counter() - t0 < 1


# Each returns the path of the key it adds or forges.
def _bogus_key(obj):
    obj["bogus"] = 1
    return ("bogus",)


def _stale_exhaustive_module(obj):
    obj["exhaustive"]["module"] = module_record(pl._instance_from_report(obj).M)
    return ("exhaustive", "module")


def _stale_point_budget(obj):
    _policy(obj)["point_budget"] = projective_point_count(5, 3) - 1
    return ("params", "policy")


def _forged_anchor_dim(obj):
    obj["anchor"]["dim"] = 5
    return ("anchor", "dim")


# Schema 7 recorded the anchoring solution dimension beside hom_dim.
def _anchor_solution_dim(obj):
    obj["anchor_solution_dim"] = 1
    return ("anchor_solution_dim",)


# construct writes these as ints; true == 1 and 500.0 == 500 in Python.
def _seed_true(obj):
    obj["params"]["seed"] = True
    return ("params", "seed")


def _samples_float(obj):
    _policy(obj)["random_samples"] = 500.0
    return ("params", "policy")


# Schema 5 recorded a sibling anchor, drawn over a small field, beside the
# exhaustive scan; schema 6 certifies the reported anchor and has no such key.
def _sibling(obj):
    sibling = json.loads(json.dumps(obj["anchor"]))
    obj["exhaustive"]["anchor"] = sibling
    return sibling


def _sibling_anchor(obj):
    _entries(_sibling(obj)["basis"], lambda x: str((int(x) + 1) % 5))
    return ("exhaustive", "anchor")


def _sibling_anchor_header(obj):
    # Still 12 columns, so the anchor reads, but as k^3 (x) k^4.
    _sibling(obj).update(u=3, w=4)
    return ("exhaustive", "anchor")


def _sibling_anchor_w4(obj):
    # k^2 (x) k^4 has the right u and dim, but w = 4 is not C(4, 2).
    sibling = _sibling(obj)
    sibling["w"] = 4
    sibling["basis"]["cols"] = 8
    sibling["basis"]["entries"] = [row[:8] for row in sibling["basis"]["entries"]]
    return ("exhaustive", "anchor")


@pytest.mark.parametrize("forge", [_bogus_key, _stale_exhaustive_module,
                                   _stale_point_budget, _forged_anchor_dim,
                                   _seed_true, _samples_float, _sibling_anchor,
                                   _sibling_anchor_header, _sibling_anchor_w4,
                                   _anchor_solution_dim])
def test_stray_key_fails_the_report(fast_report, tmp_path, capsys, forge):
    obj = json.loads(json.dumps(fast_report))
    key = ".".join(forge(obj))
    verdict = verify(obj)
    assert [name for name, _ in verdict.failed()] == ["report"]
    assert verdict.failed()[0][1].endswith(key)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["verify", "--in", str(path)]) == 1
    assert "FAIL report: " in capsys.readouterr().out


@pytest.mark.parametrize("attempts", [0, pl.RETRY_BUDGET + 1, "1", True])
def test_attempts_outside_the_retry_budget_fail_the_report(fast_report, attempts):
    obj = dict(fast_report, attempts=attempts)
    verdict = verify(obj)
    assert [name for name, _ in verdict.failed()] == ["report"]
    assert "attempts" in verdict.failed()[0][1]


def test_negative_seed_refused_before_building(fast_report, monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("built before refusing the seed")

    monkeypatch.setattr(pl, "_build", no_build)
    for field in ("fp:32003", "qq"):
        assert cli_main(["construct", "--n", "3", "--l", "2", "--r", "5",
                         "--field", field, "--seed", "-1"]) == 2
        assert "seed -1" in capsys.readouterr().err
    obj = dict(fast_report, params=dict(fast_report["params"], seed=-1))
    verdict = verify(obj)
    assert [name for name, _ in verdict.failed()] == ["report"]
    assert "seed -1" in verdict.failed()[0][1]


def test_small_working_field_scans_all_its_points(tmp_path, capsys):
    # P^3(F_5) has 156 points, fewer than a random scan's sample count.
    out = tmp_path / "rep.json"
    assert cli_main(["construct", "--n", "3", "--l", "2", "--r", "5",
                     "--field", "fp:5", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["random_scan"]["points_checked"] == projective_point_count(5, 3) == 156
    assert cli_main(["verify", "--in", str(out)]) == 0
    assert capsys.readouterr().out.endswith("overall: PASS\n")


# Forging any section of the fast report must fail exactly the check that
# recomputes it.
def _entries(obj, f):
    obj["entries"] = [[f(x) for x in row] for row in obj["entries"]]


# Schema 8 recorded the module and the quotient basis beside the anchor
# that defines both.
def _forge_module(obj):
    obj["module"] = module_record(pl._instance_from_report(obj).M)


def _forge_quotient_basis(obj):
    basis = pl._instance_from_report(obj).L.subspace.basis
    obj["quotient_basis"] = pl._matrix_to_json(basis.free_column_kernel())


def _forge_anchor(obj):
    # u_0 (x) (e_01 + e_23): faithful, since the 2-form has rank 4, but kept by
    # every phi_0 that keeps the line of u_0.
    row = ["0"] * 12
    row[0] = row[5] = "1"
    obj["anchor"]["basis"]["entries"] = [row]


def _forge_exhaustive_field(obj):
    obj["exhaustive"]["field"] = "fp:3"


def _forge_exhaustive_block_over_f3(obj):
    # The certified block of the same seed's anchor over F_3, as schema 5 drew it.
    sibling = pl._build(GF(3), ConstructionParams(3, 2, 5, seed=42), 42)
    obj["exhaustive"] = {"field": "fp:3", "scan": _scan_to_json(
        faithfulness_scan(sibling, "exhaustive", n=3, l=2))}


def _forge_certificate(obj):
    # The degree-1 strand (4x8) is onto; a certificate of another strand is forged.
    obj["exhaustive"]["scan"]["certificate"] = [2, 40, 48]


def _forge_exhaustive_scan(obj):
    obj["exhaustive"]["scan"]["failures"].append([0, [1, 0, 0, 0], 1])


def _forge_random_scan(obj):
    obj["random_scan"]["points_checked"] = 100


def _forge_random_samples(obj):
    _policy(obj)["random_samples"] = 10**6


def _forge_negative_random_samples(obj):
    _policy(obj)["random_samples"] = -5


def _forge_attempts(obj):
    obj["attempts"] = 2


def _forge_cohomology_entry(obj):
    obj["cohomology"]["entries"][0][0] += 1


def _forge_table_window(obj):
    coh = obj["cohomology"]
    cut = -5 - coh["t_lo"]
    coh["t_lo"] = -5
    coh["entries"] = [row[cut:] for row in coh["entries"]]


def _forge_hd(obj):
    obj["hd"]["window"] = [0, 0]
    obj["hd"]["nonvanishing"] = [9, 9, 9]


def _forge_hom_dim(obj):
    obj["hom_dim"] = 2


def _forge_rank(obj):
    obj["rank"] = 6


def _forge_chi(obj):
    obj["chi"][0] += 1


def _forge_multiplicity(obj):
    obj["multiplicity"] = 3


def _forge_conventions(obj):
    obj["conventions"]["monomial_order"] = "lexicographic"


@pytest.mark.parametrize("forge, owner", [
    (_forge_module, "report"),
    (_forge_quotient_basis, "report"),
    (_forge_anchor, "hom_dimension"),
    (_forge_exhaustive_field, "exhaustive_faithfulness"),
    (_forge_exhaustive_block_over_f3, "exhaustive_faithfulness"),
    (_forge_certificate, "exhaustive_faithfulness"),
    (_forge_exhaustive_scan, "exhaustive_faithfulness"),
    (_forge_random_scan, "random_faithfulness"),
    (_forge_random_samples, "report"),
    (_forge_negative_random_samples, "report"),
    (_forge_cohomology_entry, "cohomology"),
    (_forge_table_window, "cohomology"),
    (_forge_hd, "cohomology"),
    (_forge_hom_dim, "hom_dimension"),
    (_forge_rank, "parameters"),
    (_forge_chi, "parameters"),
    (_forge_multiplicity, "parameters"),
    (_forge_conventions, "parameters"),
], ids=lambda x: x.__name__[len("_forge_"):] if callable(x) else x)
def test_forged_section_fails_exactly_its_check(fast_report, forge, owner):
    obj = json.loads(json.dumps(fast_report))
    forge(obj)
    assert [name for name, _ in verify(obj).failed()] == [owner]


def test_a_report_edited_only_in_its_anchor_verifies(fast_report):
    # The anchor is an input: verify proves every claim again for whatever
    # anchor a report holds, here u_0 (x) e_01 + u_1 (x) e_23, once each
    # section is recomputed for it.
    row = ["0"] * 12
    row[0] = row[11] = "1"
    obj = with_replaced_anchor(fast_report, [row])
    inst = pl._instance_from_report(obj)
    for _, _, keys, check in pl.CHECKS:
        for key, value in zip(keys, check(inst)[2], strict=True):
            pl._put(obj, key, pl._section_json(value))
    assert [key for key in obj if obj[key] != fast_report[key]] == ["anchor"]
    assert verify(obj).ok


def test_forged_attempts_fail_only_the_random_scan(fast_report):
    # attempts fixes the seed of the random scan; the certificate is of L.
    obj = json.loads(json.dumps(fast_report))
    _forge_attempts(obj)
    assert [name for name, _ in verify(obj).failed()] == ["random_faithfulness"]


def test_construct_and_verify_walk_one_check_list(monkeypatch):
    walked = []
    owned = {name: set(keys) for name, _, keys, _ in pl.CHECKS}

    def recording(name, check):
        def run(inst):
            walked.append(name)
            return check(inst)
        return run

    monkeypatch.setattr(pl, "CHECKS", tuple((name, stage, keys, recording(name, check))
                                            for name, stage, keys, check in pl.CHECKS))
    names = ["parameters", "hom_dimension", "random_faithfulness",
             "exhaustive_faithfulness", "cohomology"]
    rep = construct(ConstructionParams(3, 2, 5, seed=42))
    assert rep.attempts == 1 and walked == names
    obj = report_to_json(rep)
    walked.clear()
    verdict = verify(obj)
    assert walked == names == [name for name, _, _ in verdict.checks] and verdict.ok
    # Each report key is an input, metadata, or a section of exactly one check.
    keys = {k for k in obj if k != "exhaustive"} | {"exhaustive." + k for k in obj["exhaustive"]}
    inputs = {"params", "anchor", "attempts"}
    sections = [key for name in names for key in owned[name]]
    assert len(sections) == len(set(sections))
    assert keys == inputs | {"schema", "version", "timings"} | set(sections)
    assert not inputs & set(sections)

def test_cas_script_contents():
    obj = report_to_json(construct(ConstructionParams(3, 2, 5, seed=42)))
    script = cas_script(obj)
    assert "kk = ZZ/32003" in script
    assert "coker" in script and "sheaf M" in script
    assert "assert(rank F == 5)" in script


def test_cas_script_is_pinned(fast_report, qq_report):
    # The digests of the scripts built from the module that schema-8 reports
    # recorded: the module rebuilt from the anchor gives the same bytes.
    digests = [hashlib.sha256(cas_script(obj).encode()).hexdigest()
               for obj in (fast_report, qq_report)]
    assert digests == ["5a30e1e0458a81d96e5dc38d3b73dcfd43ff8d374fd7ad697ec02b9b831a7619",
                       "48a55806a47ee93d5a58aaf44fcc4e95771b72eeca536d4538abb8a6874e7319"]


def test_version_is_metadata(fast_report, tmp_path, capsys):
    # A report stamped by another version verifies, and cohomology reads it.
    path = tmp_path / "rep.json"
    tables = []
    for version in (fast_report["version"], "0.0.1-other"):
        obj = dict(fast_report, version=version)
        assert verify(obj).ok
        path.write_text(json.dumps(obj))
        assert cli_main(["cohomology", "--in", str(path), "--t-lo", "-6", "--t-hi", "0"]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1] != ""


def test_retry_on_bad_genericity(monkeypatch):
    # Force the first Hom dimension to come back 2 and confirm the reseeded
    # second attempt succeeds.
    real = pl.is_anchoring
    calls = []

    def flaky(L):
        calls.append(L)
        return AnchorVerdict(False, 2) if len(calls) == 1 else real(L)

    monkeypatch.setattr(pl, "is_anchoring", flaky)
    rep = construct(ConstructionParams(3, 2, 5, seed=42))
    assert rep.attempts == 2 and rep.hom_dim == 1 and len(calls) == 2


def test_retry_budget_exhausted(monkeypatch):
    monkeypatch.setattr(pl, "is_anchoring", lambda L: AnchorVerdict(False, 2))
    monkeypatch.setattr(pl, "RETRY_BUDGET", 3)
    with pytest.raises(pl.RetryBudgetError) as exc:
        construct(ConstructionParams(n=3, l=2, r=5, seed=0))
    assert exc.value.diagnostics == [(i, "hom_dimension: Hom dimension 2") for i in range(3)]


def test_a_decomposable_first_draw_fails_hom_dimension_and_is_retried(monkeypatch):
    # u_0 (x) w_0 is kept by every phi_0 that keeps the line of u_0: a 3-dimensional
    # space of endomorphisms of U, so of M.
    real = pl._build

    def decomposable_first(field, params, seed):
        if seed > params.seed:
            return real(field, params, seed)
        return AnchorProblem(2, 6, Subspace(DenseMatrix(field, [[1] + [0] * 11], 12)))

    monkeypatch.setattr(pl, "_build", decomposable_first)
    rep = construct(ConstructionParams(3, 2, 5, seed=42))
    assert rep.attempts == 2 and rep.hom_dim == 1
    monkeypatch.setattr(pl, "RETRY_BUDGET", 1)
    with pytest.raises(pl.RetryBudgetError) as exc:
        construct(ConstructionParams(3, 2, 5, seed=42))
    assert exc.value.diagnostics == [(0, "hom_dimension: Hom dimension 3")]


def test_dependent_draw_fails_the_attempt_at_build(monkeypatch):
    # Over F_2 the three rows drawn for (3,1,3) at seed 5 are dependent.
    monkeypatch.setattr(pl, "RETRY_BUDGET", 3)
    with pytest.raises(pl.RetryBudgetError) as exc:
        construct(ConstructionParams(3, 1, 3, field_spec="fp:2", seed=3))
    assert exc.value.diagnostics[2] == (2, "build: the 3 rows drawn at seed 5 are dependent")


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind ``original`` to ``replacement`` wherever a package module holds it."""
    for name, mod in list(sys.modules.items()):
        if name == "bggbundles" or name.startswith("bggbundles."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, replacement)


@pytest.mark.parametrize("params, build_failures", [
    (ConstructionParams(3, 2, 5, field_spec="qq", seed=3), 0),
    (ConstructionParams(3, 1, 3, field_spec="fp:2", seed=3), 1),
], ids=["qq_325_s3", "f2_313_s3"])
def test_simplicity_is_one_anchoring_solve_per_attempt(monkeypatch, params, build_failures):
    # Neither the Hom system of M nor the exterior relations are recomputed:
    # both hold by construction, and the oracles below keep them true.
    def refuse(*args):
        raise AssertionError("not a check of the pipeline")

    _patch_everywhere(monkeypatch, emod.hom_space_dim, refuse)
    monkeypatch.setattr(GradedEModule, "validate", refuse)
    calls = []
    real = pl.is_anchoring

    def counted(L):
        calls.append(L)
        return real(L)

    _patch_everywhere(monkeypatch, real, counted)
    rep = construct(params)
    assert len(calls) == rep.attempts - build_failures
    calls.clear()
    assert verify(report_to_json(rep)).ok and len(calls) == 1


def test_rebuilt_modules_satisfy_the_relations_and_have_rank_r():
    # The oracles for what no check recomputes: M = P/L satisfies the exterior
    # relations, and chi_l = p C(n, l) - dim L = r, on the grid and over Q.
    cases = [ConstructionParams(n, l, r) for n in (3, 4) for l in range(1, n)
             for r in range(n, n + 4)]
    for params in cases + [ConstructionParams(3, 2, 5, field_spec="qq", seed=3)]:
        M = pl.Instance(params, pl._build(params.field(), params, params.seed), 1).M
        M.validate()
        assert chi(M)[-1] == params.r, params


def test_cli_construct_verify_cohomology(tmp_path, capsys):
    out = tmp_path / "rep.json"
    cas = tmp_path / "cas.txt"
    tbl = tmp_path / "tbl.txt"
    code = cli_main(["construct", "--n", "3", "--l", "2", "--r", "5",
                     "--seed", "42", "--out", str(out),
                     "--emit-cas", str(cas), "--emit-table", str(tbl)])
    assert code == 0
    assert out.exists() and cas.exists() and tbl.exists()
    assert cli_main(["verify", "--in", str(out)]) == 0
    assert cli_main(["cohomology", "--in", str(out),
                     "--t-lo", "-6", "--t-hi", "0"]) == 0
    capsys.readouterr()


def test_cli_cohomology_refuses_another_schema(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert cli_main(["construct", "--n", "3", "--l", "2", "--r", "5",
                     "--seed", "42", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    for schema in (99, 4, None):
        obj["schema"] = schema
        out.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli_main(["cohomology", "--in", str(out),
                         "--t-lo", "-6", "--t-hi", "0"]) == 2
        captured = capsys.readouterr()
        assert f"unsupported schema {schema}" in captured.err
        assert captured.out == ""
    out.write_text("[]")
    assert cli_main(["cohomology", "--in", str(out), "--t-lo", "-6", "--t-hi", "0"]) == 2
    capsys.readouterr()


def test_cli_cohomology_refuses_an_uncertified_anchor(fast_report, tmp_path, capsys):
    # The anchor u_0 (x) e_01 is not faithful, so its quotient is no bundle
    # and the table, whose H^0 row presupposes one, is not printed.
    obj = json.loads(json.dumps(fast_report))
    obj["anchor"] = {"u": 2, "w": 6, "dim": 1,
                     "basis": {"rows": 1, "cols": 12, "entries": [["1"] + ["0"] * 11]}}
    out = tmp_path / "rep.json"
    out.write_text(json.dumps(obj))
    assert cli_main(["cohomology", "--in", str(out), "--t-lo", "-5", "--t-hi", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid parameters: exhaustive_faithfulness fails: no strand "
                            "of at most 2000000 cells is onto over GF(32003)\n")


@pytest.mark.parametrize("forge, error", [
    (lambda obj: obj.pop("params"), "KeyError: 'params'"),
    (lambda obj: obj.update(anchor="x"), "TypeError: "),
], ids=["no_params", "anchor_string"])
def test_cli_cohomology_refuses_a_malformed_report(fast_report, tmp_path, capsys,
                                                   forge, error):
    obj = json.loads(json.dumps(fast_report))
    forge(obj)
    out = tmp_path / "rep.json"
    out.write_text(json.dumps(obj))
    assert cli_main(["cohomology", "--in", str(out), "--t-lo", "-6", "--t-hi", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid parameters: unreadable report: {error}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("entry", ["1/0", "one", ""])
@pytest.mark.parametrize("field", ["fp", "qq"])
def test_malformed_anchor_entry_is_refused_cleanly(fast_report, qq_report, tmp_path,
                                                   capsys, field, entry):
    obj = json.loads(json.dumps(fast_report if field == "fp" else qq_report))
    obj["anchor"]["basis"]["entries"][0][0] = entry
    out = tmp_path / "rep.json"
    out.write_text(json.dumps(obj))
    assert cli_main(["cohomology", "--in", str(out), "--t-lo", "-6", "--t-hi", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"invalid parameters: {entry!r} is not a number of "
                            f"{'GF(32003)' if field == 'fp' else 'QQ'}\n")
    verdict = verify(obj)
    assert [(name, ok) for name, ok, _ in verdict.checks] == [("report", False)]
    assert verdict.checks[0][2].startswith("FieldError: ")
    assert cli_main(["verify", "--in", str(out)]) == 1
    capsys.readouterr()


def test_cli_verify_fails_on_mutation(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert cli_main(["construct", "--n", "3", "--l", "1", "--r", "3",
                     "--seed", "0", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    obj["rank"] = 4
    out.write_text(json.dumps(obj))
    assert cli_main(["verify", "--in", str(out)]) == 1
    assert "FAIL parameters: " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--in", "{missing}"],
    ["verify", "--in", "{directory}"],
    ["cohomology", "--in", "{missing}", "--t-lo", "-6", "--t-hi", "0"],
    ["construct", "--n", "3", "--l", "1", "--r", "3", "--out", "{missing}/r.json"],
], ids=["verify_missing", "verify_directory", "cohomology_missing", "construct_out"])
def test_a_file_that_cannot_be_opened_or_written_exits_2(tmp_path, capsys, argv):
    # Exit 1 means that verification failed; a file error is a bad parameter.
    paths = {"missing": tmp_path / "missing", "directory": tmp_path}
    assert cli_main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid parameters: [Errno ")
    assert captured.err.count("\n") == 1


def test_cli_bad_params_exit_code(capsys):
    assert cli_main(["construct", "--n", "2", "--l", "1", "--r", "3"]) == 2
    # The scans' sizes are constants, not flags.
    with pytest.raises(SystemExit) as exc:
        cli_main(["construct", "--n", "3", "--l", "2", "--r", "5", "--samples", "500"])
    assert exc.value.code == 2
    assert cli_main(["construct", "--n", "3", "--l", "2", "--r", "5",
                     "--field", "fp:2147483647"]) == 2
    assert cli_main(["anchor", "--u", "2", "--w", "4", "--d", "1"]) == 2
    capsys.readouterr()


def test_cli_anchor(capsys):
    assert cli_main(["anchor", "--u", "2", "--w", "4", "--d", "3"]) == 0
    assert "solution_dim=1" in capsys.readouterr().out
