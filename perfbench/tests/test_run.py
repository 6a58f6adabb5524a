import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import worker

BENCH = Path(__file__).resolve().parents[1]


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert sorted(m["name"] for m in spec["per_layer"]) == worker.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


def test_correct_allows_only_the_known_defect(capsys):
    result = {"ops": 2, "machine": {}, "setups_s": [1.0], "passes_s": [1.0],
              "latencies_s": [0.5] * 100, "peak_rss_mb": 40.0, "attempted": 100, "failed": 1,
              "failures": {"walk-query K:258": "has_walk(2,0,1) = False"}}
    assert run.report("gadget-qcore", 1, False, result)["correct"]
    result["failures"]["qcore C:9"] = "column condition fails"
    assert not run.report("gadget-qcore", 1, False, result)["correct"]
    assert "failed_frac" in capsys.readouterr().out


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "nogo-search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
