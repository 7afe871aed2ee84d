"""Benchmark harness for the singlepull pipeline.

    python3 perfbench/run.py --workload lp-bound --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload, one table
    python3 perfbench/run.py --workload all --smoke           # seconds-long self-check

Run from any directory; the package is taken from src/ next to this
directory. Each workload runs in a child process (child.py) under its own
address-space limit (RLIMIT_AS) and time limit; set-up is also timed in
separate short children, and setup_s is the median. Nothing machine-wide is
changed: the limits apply to the child alone, SINGLEPULL_THREADS is removed
from its environment and thread counts stay at their defaults.

The last line of standard output is one JSON object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced pass (--trace 1). Lines before it describe the run. Exit status is
0 when the run completed, 1 when a workload process failed or breached a
limit, and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("lp-bound", "sim-rho", "index-build", "cli-report")
# singlepull.POLICY_NAMES, spelled out because this process never imports the
# package; the per-layer names built from it must match BENCHMARK.json.
POLICY_NAMES = ("spi", "meanfield", "whittle-original", "whittle-infinite",
                "whittle-finite", "qdiff", "random")

SETUP_CHILDREN = 3        # plus the workload process itself: four set-up samples
MEM_LIMIT_MB = 3072       # RLIMIT_AS of each workload process
RUN_LIMIT_S = 170.0       # one benchmark run must end within 180 s
SETUP_LIMIT_S = 30.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER_UNITS = {
    "simplex.solve_s": "s", "simplex.iterations": "count",
    "lp.solve_calls": "count", "lp.solve_self_s": "s",
    "lp.build_calls": "count", "lp.build_s": "s",
    "lp.rows": "count", "lp.cols": "count", "lp.nnz": "count",
    "simulator.step_s": "s", "simulator.step_calls": "count",
    "simulator.episode_s": "s", "simulator.episode_calls": "count",
    "policies.select_s": "s", "policies.select_calls": "count",
    "model.replicate_s": "s", "model.validate_calls": "count",
    "whittle.index_s": "s", "whittle.index_calls": "count",
    "whittle.dp_s": "s", "whittle.dp_calls": "count",
    **{f"policies.prepare_s.{p}": "s" for p in POLICY_NAMES},
    "experiments.run_experiment_s": "s", "experiments.time_policies_s": "s",
    "experiments.bytes_written": "B", "experiments.episode_yield": "ratio",
    "policies.compute_chi_s": "s", "domains.make_instance_s": "s",
    "oracle.exact_optimum_s": "s",
    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
    "trace.overhead_frac": "ratio", "trace.ok_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SINGLEPULL_THREADS", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_limited(argv, timeout_s: float, mem_mb: int, log_path: Path):
    """Run argv with RLIMIT_AS and a wall-clock limit; returns (status, seconds).

    status is "ok", "exceeded" (time limit, or out of memory) or "failed".
    The child is always waited for, and killed first when it runs over.
    """
    limit = mem_mb * 1024 * 1024

    def set_limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=child_env(), preexec_fn=set_limit)
        try:
            code = proc.wait(timeout=max(1.0, timeout_s))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return "exceeded", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if code == 0:
        return "ok", seconds
    tail = log_path.read_bytes()[-4000:]
    if code == -9 or b"MemoryError" in tail:
        return "exceeded", seconds
    return "failed", seconds


def run_child(spec: dict, wdir: Path, timeout_s: float):
    """Start child.py on spec; returns (status, result dict or None)."""
    tag = "setup" if spec["setup_only"] else "main"
    spec = dict(spec, work=str(wdir), result=str(wdir / f"{tag}.json"))
    spec_path = wdir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    Path(spec["result"]).unlink(missing_ok=True)
    status, _ = run_limited([sys.executable, str(HERE / "child.py"), str(spec_path)],
                            timeout_s, MEM_LIMIT_MB, wdir / "child.log")
    if status != "ok":
        return status, None
    return status, json.loads(Path(spec["result"]).read_text())


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(name, seed, seconds, trace, smoke, deadline):
    """Set-up samples, then the workload process; returns the run record."""
    wdir = WORK / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    spec = {"workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
            "smoke": smoke, "setup_only": True}
    setups = []
    for _ in range(1 if smoke else SETUP_CHILDREN):
        status, res = run_child(spec, wdir, SETUP_LIMIT_S)
        if res is not None:
            setups.append(res["setup_s"])
    status, res = run_child(dict(spec, setup_only=False), wdir, deadline - time.monotonic())
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
              "smoke": smoke, "status": status, "git_sha": git_sha(),
              "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
              "singlepull_threads": os.environ.get("SINGLEPULL_THREADS", "unset (removed)"),
              "mem_limit_mb": MEM_LIMIT_MB}
    if res is None:
        record.update(correct=False, attempted=1, failed=1, setup_samples=setups)
        return record
    setups.append(res["setup_s"])
    outcomes = res["outcomes"]
    failed = sum(o["status"] != "ok" for o in outcomes)
    record.update(res, setup_samples=setups, attempted=len(outcomes), failed=failed,
                  correct=all(c["ok"] for c in res["checks"]))
    record["metrics"] = {
        "wall_s": statistics.median(res["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - failed / len(outcomes),
    }
    return record


def describe(record) -> list[str]:
    """Human-readable lines for one run record."""
    lines = [f"== {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
             f"trace {int(record['trace'])}  status {record['status']}"]
    v = record.get("versions", {})
    lines.append(f"meta: git {record['git_sha']}  python {v.get('python', '?')}  "
                 f"numpy {v.get('numpy', '?')}  scipy {v.get('scipy', '?')}  "
                 f"nproc {record['nproc']} (affinity {record['affinity']})  "
                 f"blas threads {record.get('blas_threads', {})}  "
                 f"SINGLEPULL_THREADS {record['singlepull_threads']}  "
                 f"RLIMIT_AS {record['mem_limit_mb']} MB")
    lines.append(f"samples: {len(record.get('walls', []))} timed passes, "
                 f"{len(record['setup_samples'])} set-ups, {record['attempted']} operations")
    for o in record.get("outcomes", []):
        lines.append(f"  op pass {o['pass']} {o['label']}: {o['status']} {o['seconds']:.3f} s"
                     + (f"  [{o['error']}]" if o["error"] else ""))
    for c in record.get("checks", []):
        lines.append(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    for key, value in record.get("metrics", {}).items():
        lines.append(f"  metric {key} = {value:.6g} {END_TO_END_UNITS[key]}")
    if record["attempted"]:
        lines.append(f"  metric fail_frac = {record['failed'] / record['attempted']:.6g} ratio "
                     f"({record['failed']}/{record['attempted']})")
    for key, (value, unit) in (record.get("extras") or {}).items():
        lines.append(f"  metric {key} = {value:.6g} {unit}")
    for key, value in (record.get("layers") or {}).items():
        lines.append(f"  layer {key} = {value:.6g} {PER_LAYER_UNITS.get(key, '')}")
    return lines


def result_line(record) -> dict:
    """The JSON result; a layer the traced pass did not reach reads 0."""
    if record["trace"]:
        layers = record.get("layers") or {}
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER_UNITS.items()} if layers else {}
    else:
        source = record.get("metrics") or {}
        metrics = {k: {"value": float(source[k]), "unit": u}
                   for k, u in END_TO_END_UNITS.items() if k in source}
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="minimum measured time per run (default 10, smoke 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up sample: a seconds-long self-check")
    args = parser.parse_args(argv)

    if not (SRC / "singlepull" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (0.0 if args.smoke else 10.0)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        record = run_workload(name, args.seed, seconds, args.trace, args.smoke, deadline)
        (WORK / name / "record.json").write_text(json.dumps(record, indent=1))
        print("\n".join(describe(record)), flush=True)
        if record["status"] != "ok":
            log = (WORK / name / "child.log").read_text(errors="replace")[-2000:]
            print(f"perfbench: {name} {record['status']}; log tail:\n{log}", file=sys.stderr)
        records.append(record)

    if len(records) > 1:
        print(json.dumps({r["workload"]: result_line(r) for r in records}))
    else:
        print(json.dumps(result_line(records[0])))
    return 0 if all(r["status"] == "ok" for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
