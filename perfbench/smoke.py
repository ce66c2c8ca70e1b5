"""Smoke test: each workload emits every metric named in BENCHMARK.json.

    python3 perfbench/smoke.py                     # every workload, about 3 minutes
    python3 perfbench/smoke.py tables simplicity   # a subset

Runs each workload at the shortest length (one op, ``--seconds 1``) untraced
and traced, and asserts that the result line reports correct outputs with no
failed op and carries exactly the end-to-end metrics (untraced) or the
per-layer metrics (traced) that BENCHMARK.json names.
It also asserts that the traced op's time lies within the layer spans up to
a few percent (``trace.coverage``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COVERAGE_FLOOR = 0.95


def result_line(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "42", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def check(workload, spec):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        res = result_line(workload, trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
        want = {m["name"] for m in spec[group]}
        got = set(res["metrics"])
        assert got == want, (workload, group, got ^ want)
        for name, m in res["metrics"].items():
            assert isinstance(m["value"], (int, float)), (name, m)
        note = ""
        if trace:
            coverage = res["metrics"]["trace.coverage"]["value"]
            assert coverage >= COVERAGE_FLOOR, (workload, coverage)
            note = f", trace.coverage {coverage:.4f}"
        print(f"ok {workload} {group}: {len(got)} metrics{note}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = argv or [w["name"] for w in spec["workloads"]]
    for workload in names:
        check(workload, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
