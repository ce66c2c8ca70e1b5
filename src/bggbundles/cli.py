"""Command-line entry points for construction, verification and inspection.

Subcommands: ``construct`` runs the full pipeline and writes a report;
``verify`` replays every check of a saved report; ``anchor`` runs standalone
anchoring-subspace checks; ``cohomology`` prints a table for a saved report
whose anchor the exhaustive faithfulness check certifies.

Exit codes: 0 success, 1 verification failure, 2 invalid parameters (a file
that cannot be opened or written among them), 3 retry budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .anchor import AnchoringSearchError, annihilator, is_anchoring, sample_anchoring
from .fields import FieldError
from .pipeline import (SCHEMA_VERSION, ConstructionParams, ParameterError,
                       RetryBudgetError, _check_exhaustive_faithfulness,
                       _instance_from_report, cas_script, construct, parse_field,
                       report_to_json_str, verify)
from .sheafcoh import CohomologyCalculator, cohomology_table

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_RETRIES_EXHAUSTED = 3


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bggbundles")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build and verify one bundle")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--l", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--field", default="fp:32003", help="fp:P or qq")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--multiplicity", type=int, default=None)
    c.add_argument("--out", default=None, metavar="report.json")
    c.add_argument("--emit-cas", default=None, metavar="script.txt")
    c.add_argument("--emit-table", default=None, metavar="table.txt")

    v = sub.add_parser("verify", help="replay all checks of a saved report")
    v.add_argument("--in", dest="infile", required=True, metavar="report.json")

    a = sub.add_parser("anchor", help="standalone anchoring-subspace check")
    a.add_argument("--u", type=int, required=True)
    a.add_argument("--w", type=int, required=True)
    a.add_argument("--d", type=int, required=True)
    a.add_argument("--field", default="fp:32003")
    a.add_argument("--seed", type=int, default=0)

    h = sub.add_parser("cohomology", help="cohomology table of a saved report")
    h.add_argument("--in", dest="infile", required=True, metavar="report.json")
    h.add_argument("--t-lo", type=int, required=True)
    h.add_argument("--t-hi", type=int, required=True)
    return top


def _cmd_construct(args) -> int:
    rep = construct(ConstructionParams(n=args.n, l=args.l, r=args.r, field_spec=args.field,
                                       seed=args.seed, multiplicity=args.multiplicity))
    text = report_to_json_str(rep)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.emit_cas:
        with open(args.emit_cas, "w") as fh:
            fh.write(cas_script(json.loads(text)))
    if args.emit_table:
        with open(args.emit_table, "w") as fh:
            fh.write(rep.table.to_text() + "\n")
    print(f"constructed: n={args.n} l={args.l} r={args.r} "
          f"multiplicity={rep.multiplicity} anchor_dim={rep.anchor_dim} "
          f"rank={rep.rank} hom_dim={rep.hom_dim} hd={rep.hd.value} "
          f"attempts={rep.attempts}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.infile) as fh:
        report = json.load(fh)
    verdict = verify(report)
    print(verdict.to_text())
    return EXIT_OK if verdict.ok else EXIT_VERIFY_FAILED


def _cmd_anchor(args) -> int:
    field = parse_field(args.field)
    if args.u < 1 or args.w < 1 or args.d < 0 or args.d > args.u * args.w:
        raise ParameterError("need u, w >= 1 and 0 <= d <= u*w")
    prob = sample_anchoring(field, args.u, args.w, args.d, seed=args.seed)
    verdict = is_anchoring(prob)
    dual = is_anchoring(annihilator(prob))
    print(f"anchoring subspace found: u={args.u} w={args.w} d={args.d} "
          f"solution_dim={verdict.solution_dim} "
          f"annihilator_anchors={dual.anchors}")
    return EXIT_OK


def _cmd_cohomology(args) -> int:
    with open(args.infile) as fh:
        report = json.load(fh)
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {schema} (this version reads schema "
                         f"{SCHEMA_VERSION})")
    try:
        inst = _instance_from_report(report)
    except (KeyError, TypeError) as exc:  # a missing input, or one of another type
        raise ValueError(f"unreadable report: {type(exc).__name__}: {exc}") from exc
    ok, detail, _ = _check_exhaustive_faithfulness(inst)  # the table needs a bundle
    if not ok:
        raise ValueError(f"exhaustive_faithfulness fails: {detail}")
    C = inst.C
    table = cohomology_table(C, args.t_lo, args.t_hi, CohomologyCalculator(C))
    print(table.to_text())
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"construct": _cmd_construct, "verify": _cmd_verify,
               "anchor": _cmd_anchor, "cohomology": _cmd_cohomology}[args.command]
    try:
        return handler(args)
    except (ParameterError, FieldError, ValueError, OSError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except RetryBudgetError as exc:
        print(f"retry budget exhausted: {exc}", file=sys.stderr)
        for attempt, detail in exc.diagnostics:
            print(f"  attempt {attempt}: {detail}", file=sys.stderr)
        return EXIT_RETRIES_EXHAUSTED
    except AnchoringSearchError as exc:
        print(f"anchoring search failed: {exc}", file=sys.stderr)
        return EXIT_RETRIES_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
