"""One workload in its own process: set-up, timed passes, checks, result file.

    python3 perfbench/child.py SPEC.json

SPEC names the workload, seed, seconds, trace flag, smoke flag, work
directory and result path; run.py writes it and starts this process under
its memory and time limits. With "setup_only" the process stops after
set-up and reports only setup_s.

Set-up is timed from before the package import to the end of instance
generation and validation. Passes repeat until `seconds` have elapsed (and
at least the workload's minimum); each operation's exception is recorded,
not raised: MemoryError (the address-space limit) and a breach of the
workload's per-operation time limit as "exceeded", any other as "failed".
A traced run adds one pass with the tracer installed after the untraced
ones, so the overhead is measured against them.
"""

import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path


class OpTimeLimit(BaseException):
    """Raised into an operation that outlives the workload's time limit.

    A BaseException, so no `except Exception` in the package can swallow it.
    """


def _time_limit(signum, frame):
    raise OpTimeLimit()


def run_pass(ops, limit_s=None):
    """Run (label, fn) operations in order; returns (outputs, outcomes, wall_s)."""
    outputs, outcomes = [], []
    signal.signal(signal.SIGALRM, _time_limit)
    start = time.perf_counter()
    for label, fn in ops:
        t0 = time.perf_counter()
        result, status, error = None, "ok", ""
        try:
            if limit_s:
                signal.setitimer(signal.ITIMER_REAL, limit_s)
            result = fn()
        except OpTimeLimit:
            status, error = "exceeded", f"operation time limit of {limit_s:g} s"
        except MemoryError as exc:
            status, error = "exceeded", f"MemoryError: {exc}"
        except Exception as exc:  # recorded per operation; the loop goes on
            status, error = "failed", f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcomes.append({"label": label, "status": status,
                         "seconds": time.perf_counter() - t0, "error": error[:300]})
        outputs.append((label, result))
    return outputs, outcomes, time.perf_counter() - start


def blas_threads():
    """Thread count of each loaded OpenBLAS, read through its own API."""
    import ctypes
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def main(spec_path):
    t_setup = time.perf_counter()
    with open(spec_path) as fh:
        spec = json.load(fh)
    import singlepull
    import workloads
    workload = workloads.make(spec["workload"], spec["smoke"])
    for _, inst in workload.instances():
        singlepull.model.require_valid(inst)
    setup_s = time.perf_counter() - t_setup
    result = {"setup_s": setup_s, "package": singlepull.__file__}
    if spec["setup_only"]:
        Path(spec["result"]).write_text(json.dumps(result))
        return

    seed, work = spec["seed"], Path(spec["work"])
    passes, outcomes, walls = [], [], []

    def one_pass(k):
        out_dir = work / f"pass{k}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        outputs, outs, wall = run_pass(workload.operations(seed, out_dir), workload.op_limit_s)
        passes.append(outputs)
        outcomes.extend(dict(o, **{"pass": k}) for o in outs)
        return outs, wall

    loop_start = time.perf_counter()
    while len(walls) < workload.min_passes or time.perf_counter() - loop_start < spec["seconds"]:
        walls.append(one_pass(len(walls))[1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if spec["trace"]:
        import tracer as tracing
        tr = tracing.Tracer()
        tr.install()
        traced_outs, traced_wall = one_pass(len(walls))
        pass_stats = dict(tr.stats)
        tr.write_spans(work / "spans.jsonl")
        tr.reset()

    checks = [workloads.oracle_check(seed)] + workload.checks(seed, passes)

    if spec["trace"]:
        check_stats = dict(tr.stats)
        tr.uninstall()
        untraced = statistics.median(walls)
        layers = tracing.layer_metrics(pass_stats, check_stats, singlepull.POLICY_NAMES)
        simulated = layers["simulator.episode_calls"]
        reported = workload.reported_episodes(passes[-1]) if simulated else 0
        files = [p for p in (work / f"pass{len(walls)}").rglob("*") if p.is_file()]
        layers.update({
            "experiments.bytes_written": sum(p.stat().st_size for p in files),
            "experiments.episode_yield": reported / simulated if simulated else 0.0,
            "trace.untraced_wall_s": untraced,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / untraced - 1.0,
            "trace.ok_frac": sum(o["status"] == "ok" for o in traced_outs) / len(traced_outs),
        })

    import numpy
    import scipy

    op_seconds = sum(o["seconds"] for o in outcomes if o["pass"] < len(walls))
    result.update({
        "walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": outcomes,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "extras": workload.extras(passes[: len(walls)], op_seconds),
        "layers": layers,
        "blas_threads": blas_threads(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
