"""One workload process: set up, say "ready", run on "go", check, report.

Started by run.py.  Everything before the "ready" line is set-up (interpreter
start, ``import qgadget`` with numpy, building graphs, writing input files).
On "go" the process runs its op list, one op at a time, and prints one JSON
line with timings, peak memory and check results.  Any other line on stdin
ends it without running.

Modes:
  time   passes over the op list until the next pass would end after
         --seconds (at least one pass); outputs of later passes must equal
         the first pass's byte for byte, apart from elapsed_seconds.
  trace  one untraced pass, then one pass with spans around every public
         function; both passes' outputs must agree.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import qgadget  # noqa: E402
import qgadget.cli  # noqa: E402
import oracles  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TRACKED = [
    "endo.enumerate_homomorphisms", "endo.find_schmidt_pair", "endo.enumerate_endomorphisms",
    "walks.walk_table", "walks.girths",
    "qcore.quantum_core_certificate", "qcore.verify_quantum_core_certificate",
    "gadget.check_property_i_classical", "gadget.walk_obstruction",
    "gadget.enumerate_candidate_classes", "gadget.analyze_candidate_pair",
    "qrep.verify_rep", "qrep.commutator_norm", "qrep.compose_reps", "qrep.lift_box_rep",
    "qrep.rep_from_json",
    "defect.assignment_defect", "defect.cv_defect", "defect.cc_defect",
    "defect.commutator_defect", "defect.validate_strategy",
    "cli.main", "cli.emit_report", "graphs.build_family",
]
COUNTERS = ["endo.enumerate_homomorphisms.maps", "walks.walk_table.bytes",
            "walks.walk_table.steps", "qrep.verify_rep.entries"]
TRACER_METRICS = ["cli.report_bytes", "trace.overhead_ratio", "trace.covered_frac",
                  "trace.uncovered_max_s", "trace.spans"]
MIN_OPS = stats.min_samples(90)

_ELAPSED = re.compile(r'"elapsed_seconds": [-+0-9.eE]+')


def _encode(x):
    if isinstance(x, float) and math.isinf(x):
        return "infinity"
    if isinstance(x, (list, tuple)):
        return [_encode(v) for v in x]
    if isinstance(x, dict):
        return {k: _encode(v) for k, v in x.items()}
    return x


def per_layer_names() -> list[str]:
    """Every metric a traced run reports."""
    fns = [f"{key}.{kind}" for key in [*tracing.LAYERS, *TRACKED] for kind in ("calls", "self_s")]
    return sorted(fns + COUNTERS + TRACER_METRICS)


def run_op(op):
    """Run one op through the public entry points; returns (exit code, payload).

    Names are looked up on the modules at call time so the tracer's
    wrappers are the ones called in the traced pass.
    """
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = qgadget.cli.main(op.argv)
            except SystemExit as exc:  # argparse exits on a usage error
                rc = exc.code
        return rc, out.getvalue() if rc == 0 else err.getvalue()
    walks = qgadget.walks
    g = op.data["graph"]
    if op.lib == "girths":
        r = walks.girths(g)
        return 0, {"girth": r.girth, "odd_girth": r.odd_girth,
                   "odd_walk_girth": r.odd_walk_girth, "diameter": r.diameter}
    t = walks.walk_table(g, op.data["lmax"])
    return 0, {"has_walk": [t.has_walk(*q) for q in op.data["queries"]],
               "distance": [walks.distance(t, u, v) for u, v in op.data["pairs"]]}


def run_pass(ops, tracer=None):
    """Run every op once; returns (pass wall seconds, [(latency, rc, text)])."""
    timed = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        t0 = time.perf_counter()
        try:
            rc, payload = run_op(op)
        except Exception:  # an op that raises is a failed op, and the run goes on
            rc, payload = None, traceback.format_exc()
        timed.append((time.perf_counter() - t0, rc, payload))
    wall = time.perf_counter() - start
    results = [(lat, rc, p if isinstance(p, str) else json.dumps(_encode(p)))
               for lat, rc, p in timed]
    return wall, results


def normalized(text: str) -> str:
    return _ELAPSED.sub('"elapsed_seconds": 0', text)


def first_pass_verdicts(ops, results, checker):
    """Failure reason per op id (None = passed) from exit codes and checks."""
    out = {}
    for op, (_, rc, text) in zip(ops, results):
        if rc is None:
            out[op.id] = "raised: " + text.strip().splitlines()[-1]
        elif rc != 0:
            out[op.id] = f"exit {rc}: {text.strip()}"
        else:
            out[op.id] = checker.check(op, text)
    return out


def differing(ops, first, results) -> set:
    """Ids of ops whose exit code or output differs from the first pass."""
    return {op.id for op, (_, rc0, text0), (_, rc, text) in zip(ops, first, results)
            if rc != rc0 or normalized(text) != normalized(text0)}


def count_failures(verdicts, repeats):
    """(failed executions, reason per op id).  A repeated op fails when the
    first run of it failed or when its output differs from that run."""
    reasons = {k: v for k, v in verdicts.items() if v is not None}
    failed = len(reasons)
    for diff in repeats:
        failed += len(set(reasons) | diff)
    for diff in repeats:
        for k in diff - set(reasons):
            reasons[k] = "output differs from the first pass"
    return failed, reasons


def timed_run(ops, seconds):
    passes, latencies, repeats = [], [], []
    first = None
    start = time.perf_counter()
    while True:
        wall, results = run_pass(ops)
        passes.append(wall)
        latencies += [lat for lat, _, _ in results]
        if first is None:
            first = results
            # read after the first pass, so that the figure does not depend on
            # how many passes fit in the run (later passes hold two passes' outputs)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            repeats.append(differing(ops, first, results))
        if time.perf_counter() - start + statistics.median(passes) > seconds:
            break
    verdicts = first_pass_verdicts(ops, first, oracles.Checker(qgadget))
    failed, reasons = count_failures(verdicts, repeats)
    slowest = sorted(zip((lat for lat, _, _ in first), (op.id for op in ops)), reverse=True)
    return {"passes_s": passes, "latencies_s": latencies, "peak_rss_mb": peak_rss_mb,
            "slowest_ops": slowest[:15],
            "attempted": len(ops) * len(passes), "failed": failed, "failures": reasons}


def traced_run(ops, spans_path):
    wall_plain, plain = run_pass(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall_traced, traced = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    verdicts = first_pass_verdicts(ops, plain, oracles.Checker(qgadget))
    failed, reasons = count_failures(verdicts, [differing(ops, plain, traced)])

    spans = tracer.spans
    metrics = tracing.layer_metrics(spans, TRACKED)
    metrics.update({name: tracer.counts.get(name, 0.0) for name in COUNTERS})
    metrics["cli.report_bytes"] = sum(len(text) for op, (_, rc, text) in zip(ops, traced)
                                      if op.argv is not None and rc == 0)
    # Per op, the self times of its spans add up to its root spans; the rest
    # of the op's wall time is the bench's own call overhead.
    root = defaultdict(float)
    for s in spans:
        if s.parent < 0:
            root[s.op] += s.end - s.start
    uncovered = [lat - root[op.id] for op, (lat, _, _) in zip(ops, traced)]
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain
    metrics["trace.covered_frac"] = sum(root.values()) / sum(lat for lat, _, _ in traced)
    metrics["trace.uncovered_max_s"] = max(uncovered)
    metrics["trace.spans"] = len(spans)
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")
    return {"passes_s": [wall_plain], "traced_pass_s": wall_traced,
            "latencies_s": [lat for lat, _, _ in plain], "attempted": 2 * len(ops),
            "failed": failed, "failures": reasons, "layers": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True, help="directory for this process's input files")
    p.add_argument("--mode", choices=["time", "trace"], required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spans", default="", help="file for the traced run's spans (JSON lines)")
    args = p.parse_args(argv)
    if not Path(qgadget.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qgadget imported from {qgadget.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    ops = workloads.OP_LISTS[args.workload](args.seed, args.work, qgadget)
    if len(ops) < MIN_OPS:
        print(f"{len(ops)} ops; the p90 needs {MIN_OPS}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if args.mode == "time":
        result = timed_run(ops, args.seconds)
    else:
        result = traced_run(ops, args.spans)
    result.update({"ops": len(ops), "numpy": np.__version__, "python": sys.version.split()[0]})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
