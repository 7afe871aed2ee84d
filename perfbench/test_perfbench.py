"""Seconds-long checks that the benchmark harness still runs and reports.

They use the harness's smoke mode (tiny inputs), so they run with the
package's own tests:  python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


def harness(*args, script="run.py", cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_every_workload_is_correct_and_reports_every_metric():
    result = last_json(harness("--workload", "all", "--smoke"))
    assert set(result) == {w["name"] for w in BENCH["workloads"]}
    for name, res in result.items():
        assert res["correct"], name
        assert res["attempted"] >= 1 and res["failed"] == 0, name
        assert set(res["metrics"]) == END_TO_END, name
        assert all(m["value"] > 0 for m in res["metrics"].values()), name


@pytest.mark.parametrize("workload", ["lp-bound", "cli-report"])
def test_smoke_traced_run_reports_every_layer(workload):
    res = last_json(harness("--workload", workload, "--seed", "1", "--smoke", "--trace", "1"))
    assert res["correct"]
    assert set(res["metrics"]) == PER_LAYER
    layer = {k: v["value"] for k, v in res["metrics"].items()}
    if workload == "lp-bound":
        # upper_bound and SPI each solve the DUMMY LP, mean-field adds one:
        # three solves on each of the two smoke instances
        assert layer["lp.solve_calls"] == 6
        assert layer["simplex.solve_s"] > 0
    else:
        # time_policies (3 seeds) and the trajectory dump re-simulate everything
        assert layer["experiments.episode_yield"] == pytest.approx(0.2)
        assert layer["experiments.bytes_written"] > 0


def test_breached_limits_are_recorded_as_exceeded(tmp_path):
    sys.path.insert(0, str(HERE))
    try:
        import run
    finally:
        sys.path.remove(str(HERE))
    status, _ = run.run_limited([sys.executable, "-c", "bytearray(1 << 30)"],
                                30, 512, tmp_path / "mem.log")
    assert status == "exceeded"
    status, seconds = run.run_limited([sys.executable, "-c", "import time; time.sleep(30)"],
                                      0.5, 512, tmp_path / "time.log")
    assert status == "exceeded" and seconds < 10


def test_scaling_smoke_runs_every_case():
    proc = harness("--smoke", script="scaling.py")
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads((ROOT / ".perfbench_work" / "scaling" / "scaling.json").read_text())
    assert report["smoke"] and report["cases"]
    assert all(case["status"] == "ok" for case in report["cases"])


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lp-bound",
                           "--seed", "0", "--seconds", "4", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
