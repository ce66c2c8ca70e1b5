"""Span tracing of bggbundles from outside the package.

``install`` replaces the package's public functions and ``DenseMatrix``
methods with timing wrappers.  A wrapper is bound everywhere a caller
resolves the name: every ``bggbundles.*`` module namespace that holds the
original function object (``pipeline`` imports ``faithfulness_scan``,
``hom_space_dim``, ``is_anchoring``, ``certify_hd`` and ``cohomology_table``
with ``from ... import``), the ``modp`` module attributes that ``bgg`` and
``matrix`` look up at call time, and the class attributes for methods.
Wrappers pass arguments and results through unchanged.

Spans (name, start, end, parent, op id) are kept in memory; ``layer_metrics``
turns them into per-op self times, call counts and work counts, and
``Tracer.to_json`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from bggbundles import anchor, bgg, emod, extalg, modp, pipeline, sheafcoh
from bggbundles.matrix import DenseMatrix

# Orchestration spans: the self time of these and of the op itself is where
# the time of callees without a span of their own lands, so ``trace.coverage``
# counts it as not covered.
ORCHESTRATORS = ("op", "pipeline.construct", "pipeline.verify")

# Spans whose inclusive time is reported beside their self time.
TOTALS = ("pipeline.construct", "pipeline.verify", "bgg.scan.exhaustive",
          "matrix.rank.fp", "emod.hom_space_dim", "sheafcoh.cohomology_table")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.info = {}  # span index -> {counter: value}
        self.hist = defaultdict(Counter)  # kernel -> shape -> calls
        self.stack = []
        self.op = -1

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(None)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, idx, key, value):
        d = self.info.setdefault(idx, {})
        d[key] = d.get(key, 0) + value

    def wrap(self, name, fn, after=None):
        """A wrapper timing ``fn`` as span ``name`` (a string, or a function
        of the call's arguments returning one); ``after(tracer, idx, args,
        kwargs, result)`` records counts once the span is closed."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, idx, args, kwargs, result)
            return result

        return wrapper

    def to_json(self):
        return {
            "spans": [[n, s, e, p, o] for n, s, e, p, o in
                      zip(self.names, self.starts, self.ends, self.parents, self.ops)],
            "info": {str(k): v for k, v in self.info.items()},
            "histograms": {k: sorted([list(shape), n] for shape, n in h.items())
                           for k, h in self.hist.items()},
        }


# -- counters recorded after a call ------------------------------------------


def _construct_info(tr, idx, args, kwargs, rep):
    tr.count(idx, "attempts", rep.attempts)
    for stage, secs in rep.timings.items():
        tr.count(idx, "stage." + stage, secs)


def _report_info(tr, idx, args, kwargs, text):
    tr.count(idx, "bytes", len(text.encode()))


def _scan_info(tr, idx, args, kwargs, rep):
    tr.count(idx, "points", rep.points_checked)
    tr.count(idx, "failures", len(rep.failures))


def _batch_rank_info(tr, idx, args, kwargs, out):
    k, rows, cols = args[0].shape
    tr.count(idx, "matrices", k)
    tr.count(idx, "ops", k * rows * cols * cols)  # computed, not counted
    tr.hist["modp.batch_rank"][(k, rows, cols)] += 1


def _to_numpy_info(tr, idx, args, kwargs, arr):
    tr.count(idx, "cells", arr.size)


def _strand_info(kernel):
    def info(tr, idx, args, kwargs, m):
        tr.count(idx, "cells", m.nrows * m.ncols)
        tr.hist[kernel][m.shape] += 1
    return info


def _hom_info(tr, idx, args, kwargs, dim):
    # Shape of the stacked intertwining system solved by hom_space_dim.
    M = args[0]
    dims = M.piece_dims
    rows = sum((M.n + 1) * dims[i] * dims[i + 1] for i in range(M.top_degree))
    cols = sum(d * d for d in dims)
    tr.count(idx, "system_cells", rows * cols)
    tr.hist["emod.hom_space_dim"][(rows, cols)] += 1


def _scan_name(args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "exhaustive")
    return "bgg.scan." + mode


# (owner, attribute, span name, counter hook).  ``fields`` is left out: its
# scalar operations are too fine to wrap without distorting them, and their
# cost shows as the self time of the matrix and bgg spans that call them.
FUNCTIONS = (
    (pipeline, "construct", "pipeline.construct", _construct_info),
    (pipeline, "verify", "pipeline.verify", None),
    (pipeline, "report_to_json_str", "pipeline.report_to_json", _report_info),
    (bgg, "faithfulness_scan", _scan_name, _scan_info),
    (modp, "batch_rank", "modp.batch_rank", _batch_rank_info),
    (modp, "rank", "modp.rank", None),
    (modp, "rref", "modp.rref", None),
    (emod, "hom_space_dim", "emod.hom_space_dim", _hom_info),
    (emod, "quotient_top", "emod.quotient_top", None),
    (anchor, "sample_anchoring", "anchor.sample_anchoring", None),
    (anchor, "is_anchoring", "anchor.is_anchoring", None),
    (sheafcoh, "cohomology_table", "sheafcoh.cohomology_table", None),
    (sheafcoh, "certify_hd", "sheafcoh.certify_hd", None),
    (sheafcoh, "strand_map", "sheafcoh.strand_map", _strand_info("sheafcoh.strand_map")),
    (sheafcoh, "costrand_map", "sheafcoh.costrand_map",
     _strand_info("sheafcoh.costrand_map")),
    (extalg, "generator_action", "extalg.generator_action", None),
)

METHODS = (
    # Every workload works over prime fields.
    (DenseMatrix, "rank", "matrix.rank.fp", None),
    (DenseMatrix, "to_numpy", "matrix.to_numpy", _to_numpy_info),
    (DenseMatrix, "kron", "matrix.kron", None),
    (DenseMatrix, "vstack", "matrix.stack", None),
    (DenseMatrix, "hstack", "matrix.stack", None),
    (DenseMatrix, "__matmul__", "matrix.matmul", None),
    (bgg.LinearComplex, "validate", "bgg.complex.validate", None),
    (emod.GradedEModule, "validate", "emod.validate", None),
)


def install(tracer: Tracer):
    """Bind timing wrappers wherever the package resolves the traced names."""
    modules = [m for name, m in sys.modules.items()
               if name == "bggbundles" or name.startswith("bggbundles.")]
    for owner, attr, name, after in FUNCTIONS:
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for cls, attr, name, after in METHODS:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, after)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, after))


# -- per-layer metrics ---------------------------------------------------------


def _per_op(tracer: Tracer):
    """For each op id: self time, inclusive time and calls per span name,
    summed counters, the op's own duration and the time not spent in the
    self time of an orchestration span."""
    n = len(tracer.names)
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            child[p] += dur[i]
    ops = defaultdict(lambda: {"self": Counter(), "total": Counter(), "calls": Counter(),
                               "info": Counter(), "op_s": 0.0, "covered_s": 0.0,
                               "spans": 0, "certify_ranks": 0, "candidates": 0})
    for i in range(n):
        rec = ops[tracer.ops[i]]
        name = tracer.names[i]
        rec["spans"] += 1
        if name in ORCHESTRATORS:
            rec["covered_s"] -= dur[i] - child[i]
        if tracer.parents[i] < 0:
            rec["op_s"] += dur[i]
            rec["covered_s"] += dur[i]
            continue
        rec["self"][name] += dur[i] - child[i]
        rec["total"][name] += dur[i]
        rec["calls"][name] += 1
        for key, value in tracer.info.get(i, {}).items():
            rec["info"][name + "." + key] += value
        # A candidate subspace of the anchoring search is one that reached
        # the exact anchoring check inside ``sample_anchoring``.
        rec["candidates"] += (name == "anchor.is_anchoring"
                              and tracer.names[tracer.parents[i]] == "anchor.sample_anchoring")
        if name.startswith("matrix.rank."):
            p = tracer.parents[i]
            while p >= 0 and tracer.names[p] != "sheafcoh.certify_hd":
                p = tracer.parents[p]
            rec["certify_ranks"] += p >= 0
    return [ops[k] for k in sorted(ops) if k >= 0]


def _op_metrics(rec):
    s, t, c, info = rec["self"], rec["total"], rec["calls"], rec["info"]
    exhaustive_total = t["bgg.scan.exhaustive"]
    candidates = rec["candidates"]
    m = {
        "pipeline.construct.attempts": info["pipeline.construct.attempts"],
        "pipeline.construct.self_s": s["pipeline.construct"],
        "pipeline.verify.self_s": s["pipeline.verify"],
        "pipeline.report_to_json_s": s["pipeline.report_to_json"],
        "pipeline.report_bytes": info["pipeline.report_to_json.bytes"],
    }
    for stage in ("build", "simplicity", "random_scan", "exhaustive_scan", "cohomology"):
        m[f"pipeline.stage.{stage}_s"] = info["pipeline.construct.stage." + stage]
    m.update({
        "bgg.scan.exhaustive_s": s["bgg.scan.exhaustive"],
        "bgg.scan.exhaustive.points": info["bgg.scan.exhaustive.points"],
        "bgg.scan.exhaustive.points_per_s":
            info["bgg.scan.exhaustive.points"] / exhaustive_total if exhaustive_total else 0.0,
        "bgg.scan.random_s": s["bgg.scan.random"],
        "bgg.scan.random.points": info["bgg.scan.random.points"],
        "bgg.scan.failures": (info["bgg.scan.exhaustive.failures"]
                              + info["bgg.scan.random.failures"]),
        "bgg.complex.validate_s": s["bgg.complex.validate"],
        "modp.batch_rank.calls": c["modp.batch_rank"],
        "modp.batch_rank_s": s["modp.batch_rank"],
        "modp.batch_rank.matrices": info["modp.batch_rank.matrices"],
        "modp.batch_rank.ops": info["modp.batch_rank.ops"],
        "modp.rank.calls": c["modp.rank"],
        "modp.rank_s": s["modp.rank"],
        "modp.rref.calls": c["modp.rref"],
        "modp.rref_s": s["modp.rref"],
        "matrix.rank.fp.calls": c["matrix.rank.fp"],
        "matrix.rank.fp_s": s["matrix.rank.fp"],
        "matrix.to_numpy.calls": c["matrix.to_numpy"],
        "matrix.to_numpy_s": s["matrix.to_numpy"],
        "matrix.to_numpy.cells": info["matrix.to_numpy.cells"],
        "matrix.kron_s": s["matrix.kron"],
        "matrix.stack_s": s["matrix.stack"],
        "matrix.matmul_s": s["matrix.matmul"],
        "emod.hom_space_dim.calls": c["emod.hom_space_dim"],
        "emod.hom_space_dim_s": s["emod.hom_space_dim"],
        "emod.hom_system.cells": info["emod.hom_space_dim.system_cells"],
        "emod.validate_s": s["emod.validate"],
        "emod.quotient_top_s": s["emod.quotient_top"],
        "anchor.sample_anchoring_s": s["anchor.sample_anchoring"],
        "anchor.sample_anchoring.candidates": candidates,
        "anchor.sample_anchoring.found":
            c["anchor.sample_anchoring"] / candidates if candidates else 0.0,
        "anchor.is_anchoring.calls": c["anchor.is_anchoring"],
        "anchor.is_anchoring_s": s["anchor.is_anchoring"],
        "sheafcoh.cohomology_table_s": s["sheafcoh.cohomology_table"],
        "sheafcoh.certify_hd_s": s["sheafcoh.certify_hd"],
        "sheafcoh.certify_hd.rank_calls": rec["certify_ranks"],
        "sheafcoh.strand_map.calls": c["sheafcoh.strand_map"],
        "sheafcoh.strand_map.cells": info["sheafcoh.strand_map.cells"],
        "sheafcoh.strand_map_s": s["sheafcoh.strand_map"],
        "sheafcoh.costrand_map.calls": c["sheafcoh.costrand_map"],
        "sheafcoh.costrand_map.cells": info["sheafcoh.costrand_map.cells"],
        "sheafcoh.costrand_map_s": s["sheafcoh.costrand_map"],
        "extalg.generator_action.calls": c["extalg.generator_action"],
        "extalg.generator_action_s": s["extalg.generator_action"],
        "trace.spans": rec["spans"],
        "trace.coverage": rec["covered_s"] / rec["op_s"] if rec["op_s"] else 0.0,
    })
    for name in TOTALS:
        m[name + ".total_s"] = t[name]
    return m


def layer_metrics(tracer: Tracer):
    """Median over traced ops of each per-layer metric."""
    per_op = [_op_metrics(rec) for rec in _per_op(tracer)]
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
