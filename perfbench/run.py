"""Benchmark of bggbundles: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload rank5 --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout.  Each workload runs in its own
single-threaded worker process (``worker.py``), so peak RSS is per workload.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
Lines before it stamp the machine and code and give the sample counts, the
construct/verify split, the output digest and, when traced, kernel shapes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Extra processes that only set up, half before and half after the measuring
# worker so that host drift over the run is spread over them; setup_s is the
# median of these and the measuring worker's own set-up time.
SETUP_PROBES = 10


def worker(args, extra=()):
    """Run one worker process and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probes(args, count):
    return [worker(args, ["--probe"])["setup_s"] for _ in range(count)]


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "none"


def src_sha():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bggbundles")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bggbundles", "__init__.py")):
        print(f"no bggbundles sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    count = 0 if args.trace else SETUP_PROBES
    setups = probes(args, count // 2)
    res = worker(args)
    setups += [res["setup_s"], *probes(args, count - count // 2)]
    records = res["records"]
    attempted = sum(len(r["oks"]) for r in records)
    failed = sum(not ok for r in records for ok in r["oks"])
    digests = {r["digest"] for r in records}
    op_s = statistics.median(r["op_s"] for r in records)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"env: nproc={os.cpu_count()} cpu={cpu_model()!r} python={res['python']} "
          f"numpy={res['numpy']} git={git_sha()} src_sha256={src_sha()} "
          f"seed={args.seed}")
    samples = ", ".join(f"{r['op_s']:.4f}" for r in records)
    print(f"ops: {len(records)}, op_s median {op_s:.4f} (samples {samples})")
    for part in records[0]["parts"]:
        times = [r["parts"][part] for r in records if part in r["parts"]]
        print(f"  {part} median {statistics.median(times):.4f}")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"run_s: {res['run_s']:.4f}")
    print(f"digest: {' '.join(sorted(map(str, digests)))}")
    if len(digests) != 1:
        print("outputs differ between ops of one run", file=sys.stderr)

    if args.trace:
        print(f"trace: {res['trace_file']}")
        for kernel, shapes in res["histograms"].items():
            top = sorted(shapes, key=lambda s: -s[1])[:8]
            print(f"shapes {kernel}: " + ", ".join(f"{tuple(s)}x{n}" for s, n in top))
        values, group = res["per_layer"], "per_layer"
    else:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        values = {"op_s": op_s, "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        group = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}
    print(json.dumps({"correct": failed == 0 and len(digests) == 1,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
