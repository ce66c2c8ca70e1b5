"""One workload in one process: set up, then run ops in a closed loop.

Run by ``run.py``; prints one JSON object on its last stdout line.  With
``--probe`` it only sets up and reports the set-up time.  With ``--trace``
the first op runs untraced, then the tracer is installed and the remaining
ops are traced; the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

T0 = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))


def timed_loop(wl, state, seconds, started, tracer=None, first_op=0):
    """Run ops until the next one would end past ``seconds`` after
    ``started`` (always at least one).  Returns per-op records."""
    records = []
    span = tracer.span if tracer else None
    while True:
        t = perf_counter()
        try:
            if tracer:
                tracer.op = first_op + len(records)
                with tracer.span("op"):
                    out = wl.run(state, span)
            else:
                out = wl.run(state)
            dt = perf_counter() - t
            oks, digest = wl.check(state, out)
            parts = out.get("parts", {})
        except Exception:  # an op that raises counts as failing every check
            dt = perf_counter() - t
            traceback.print_exc()
            oks, digest, parts = [False] * wl.checks_per_op, None, {}
        records.append({"op_s": dt, "oks": oks, "digest": digest, "parts": parts})
        typical = statistics.median(r["op_s"] for r in records)
        if perf_counter() - started + typical > seconds:
            return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    setup_s = perf_counter() - T0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    started = perf_counter()
    result = {"setup_s": setup_s, "python": platform.python_version(),
              "numpy": numpy.__version__}
    if args.trace:
        import spans
        records = timed_loop(wl, state, 0, started)  # exactly one untraced op
        untraced = records[0]["op_s"]
        tracer = spans.Tracer()
        spans.install(tracer)
        traced = timed_loop(wl, state, args.seconds, started, tracer, first_op=1)
        records += traced
        layers = spans.layer_metrics(tracer)
        layers["trace.overhead_s"] = statistics.median(r["op_s"] for r in traced) - untraced
        dump = tracer.to_json()
        result["per_layer"] = layers
        result["histograms"] = dump["histograms"]
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(dump, fh)
        result["trace_file"] = os.path.relpath(path)
    else:
        records = timed_loop(wl, state, args.seconds, started)
    result["run_s"] = perf_counter() - started
    result["records"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
