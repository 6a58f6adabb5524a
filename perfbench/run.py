"""Benchmark of time-to-verified-verdict for qgadget.

    python3 perfbench/run.py --workload nogo-search --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each run spawns the workload process SETUPS times and
times each spawn until the process is ready for its first op (setup_s is the
median).  The last process then runs the workload closed-loop, one op at a
time, and checks every op's output after its timing ends.  With --trace 1
the run instead reports per-layer metrics from a traced pass (see
tracer.py), next to an untraced pass of the same ops.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  Lines before it give the same metrics with units and sample
counts, the machine facts and any failed op.  Files are written only under
.perfbench_tmp/ (inputs, removed at the end) and .perfbench_out/ (one
record per run, plus spans for traced runs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5
TIMEOUT_S = 170  # a run must end within 180 s
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
              ("peak_rss_mb", "MB")]


def read_line(proc, deadline) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(max(0.0, deadline - time.monotonic())):
            raise TimeoutError("workload process did not answer in time")
    return proc.stdout.readline()


def spawn(args, env, deadline):
    """Start a workload process; return it and the seconds until it is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = read_line(proc, deadline)
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process failed during set-up (exit {proc.poll()})")
    return proc, elapsed


def machine_facts(env_had_threads: bool) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "QGADGET_THREADS": "was set, unset for the run" if env_had_threads else "unset"}


def run_workload(name, seed, seconds, trace, deadline) -> dict:
    env = dict(os.environ)
    had_threads = env.pop("QGADGET_THREADS", None) is not None
    work = ROOT / ".perfbench_tmp" / f"{name}-{seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl" if trace else ""
    facts = machine_facts(had_threads)
    facts["load_before"] = os.getloadavg()
    spawns = 1 if trace else SETUPS  # a traced run reports no setup_s
    procs = []
    try:
        setups = []
        for i in range(spawns):
            (work / str(i)).mkdir(parents=True)
            args = ["--workload", name, "--seed", str(seed), "--work", str(work / str(i)),
                    "--mode", "trace" if trace else "time", "--seconds", str(seconds),
                    "--spans", str(spans_path)]
            proc, elapsed = spawn(args, env, deadline)
            procs.append(proc)
            setups.append(elapsed)
            if i < spawns - 1:
                proc.communicate("exit\n", timeout=max(1.0, deadline - time.monotonic()))
        out, _ = proc.communicate("go\n", timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"workload process exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
        shutil.rmtree(work, ignore_errors=True)
    facts["load_after"] = os.getloadavg()
    facts.update(python=result["python"], numpy=result["numpy"])
    result["setups_s"] = setups
    result["machine"] = facts
    with open(out_dir / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def end_to_end(result) -> dict:
    lat = result["latencies_s"]
    return {"setup_s": statistics.median(result["setups_s"]),
            "run_s": statistics.median(result["passes_s"]),
            "op_p50_s": stats.percentile(lat, 50), "op_p90_s": stats.percentile(lat, 90),
            "peak_rss_mb": result["peak_rss_mb"]}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def report(name, seed, trace, result) -> dict:
    """Print the human-readable lines and return the result object."""
    failures = result["failures"]
    unexpected = sorted(set(failures) - workloads.KNOWN_FAILURES)
    print(f"== {name} seed={seed} trace={int(trace)} ops/pass={result['ops']}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    if trace:
        metrics = {k: (v, layer_unit(k)) for k, v in sorted(result["layers"].items())}
        print(f"untraced pass {result['passes_s'][0]:.4f} s, traced pass "
              f"{result['traced_pass_s']:.4f} s")
    else:
        values = end_to_end(result)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END}
        n = len(result["latencies_s"])
        notes = {"setup_s": f"median of {len(result['setups_s'])} spawns",
                 "run_s": f"median of {len(result['passes_s'])} passes",
                 "op_p50_s": f"n={n}", "op_p90_s": f"n={n}, {stats.beyond(n, 90)} beyond",
                 "peak_rss_mb": "workload process, set-up and first pass"}
    for key, (value, unit) in metrics.items():
        print(f"{key:<44} {value:>14.6g} {unit:<6} {'' if trace else notes[key]}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':<44} {frac:>14.6g} 1      "
          f"({result['failed']} of {result['attempted']} op runs)")
    for op_id, reason in sorted(failures.items()):
        known = " [known defect]" if op_id in workloads.KNOWN_FAILURES else ""
        print(f"failed op: {op_id}{known}: {reason}")
    return {"correct": not unexpected, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qgadget" / "__init__.py").is_file():
        print(f"no qgadget sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        deadline = time.monotonic() + TIMEOUT_S
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        print(json.dumps(report(name, args.seed, bool(args.trace), result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
