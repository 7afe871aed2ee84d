"""Scaling curves (not gated): LP size ladder and simulation rho ladder.

    python3 perfbench/scaling.py                  # full ladders, minutes
    python3 perfbench/scaling.py --smoke          # tiny ladders, seconds

LP ladder: RANDOM S=5 instances over the number of types N at T=20 and
over the horizon T at N=10, for each of the three LP variants; each case
times the build and the solve and records the program size and pivots.
Simulation ladder: SPI on CPAP N=10 S=3 T=10 K=3 over rho = 10 .. 1e4.

Every case runs in its own process under the same RLIMIT_AS (2 GiB) and
time limit (60 s), so a size that runs out of memory or time (RANDOM N=100 needs a
dense basis inverse of several GB) is recorded as "exceeded" and the
ladder goes on. The table is printed and written to
.perfbench_work/scaling.json with the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from run import WORK, git_sha, run_limited

LP_VARIANTS = ("mean_field", "sprmab_lp", "dummy")
LP_SIZES = [(n, 20) for n in (10, 20, 50, 100)] + [(10, 10), (10, 50)]
SIM_RHOS = (10, 100, 1000, 10000)
SIM_EPISODES = 10
CASE_LIMIT_S = 60.0
CASE_MEM_MB = 2048
SMOKE_LP_SIZES = [(2, 4), (4, 4)]
SMOKE_SIM_RHOS = (10, 100)


def run_case(case: dict) -> dict:
    """Measure one case in this process (the child side)."""
    import singlepull as sp
    from singlepull import domains, lp, policies, simulator

    out = {}
    if case["kind"] == "lp":
        spec = domains.DomainSpec(domains.RANDOM, case["n_types"], 5, seed=0)
        inst = domains.make_instance(spec, budget=1, rho=1, horizon=case["horizon"])
        t0 = time.perf_counter()
        problem = lp.build_occupancy_lp(inst, case["variant"])
        t1 = time.perf_counter()
        sol = lp.solve_lp(problem)
        t2 = time.perf_counter()
        out.update(build_s=t1 - t0, solve_s=t2 - t1, iterations=getattr(sol, "iterations", 0),
                   cols=problem.n_vars, rows=len(getattr(problem, "constraints", ())),
                   objective=sol.objective, lp_status=sol.status)
    else:
        spec = domains.DomainSpec(domains.CPAP, 10, 3, seed=0)
        inst = domains.make_instance(spec, budget=3, rho=case["rho"], horizon=10)
        policy = policies.make_policy("spi")
        t0 = time.perf_counter()
        policy.prepare(inst)
        t1 = time.perf_counter()
        summary = simulator.evaluate(inst, policy, case["episodes"], 0, prepared=True)
        t2 = time.perf_counter()
        steps = inst.n_arms * inst.horizon * case["episodes"]
        out.update(prepare_s=t1 - t0, episode_s=(t2 - t1) / case["episodes"],
                   arm_steps_per_s=steps / (t2 - t1), mean=summary.mean,
                   bound=lp.upper_bound(inst))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["package"] = sp.__file__
    return out


def ladder(smoke: bool) -> list[dict]:
    cases = [{"kind": "lp", "variant": v, "n_types": n, "horizon": t}
             for n, t in (SMOKE_LP_SIZES if smoke else LP_SIZES) for v in LP_VARIANTS]
    cases += [{"kind": "sim", "rho": r, "episodes": 2 if smoke else SIM_EPISODES}
              for r in (SMOKE_SIM_RHOS if smoke else SIM_RHOS)]
    return cases


def label(case: dict) -> str:
    if case["kind"] == "lp":
        return f"lp {case['variant']:10s} RANDOM N={case['n_types']:<4d} S=5 T={case['horizon']}"
    return f"sim spi CPAP N=10 S=3 T=10 K=3 rho={case['rho']} episodes={case['episodes']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--case", help=argparse.SUPPRESS)  # child side: JSON case
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        with open(args.result, "w") as fh:
            json.dump(run_case(json.loads(args.case)), fh)
        return 0

    wdir = WORK / "scaling"
    wdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, case in enumerate(ladder(args.smoke)):
        result_path = wdir / f"case{i}.json"
        result_path.unlink(missing_ok=True)
        status, seconds = run_limited(
            [sys.executable, str(Path(__file__).resolve()), "--case", json.dumps(case),
             "--result", str(result_path)],
            CASE_LIMIT_S, CASE_MEM_MB, wdir / f"case{i}.log")
        row = dict(case, status=status, seconds=seconds)
        if status == "ok":
            row.update(json.loads(result_path.read_text()))
        rows.append(row)
        shown = {k: v for k, v in row.items()
                 if k in ("build_s", "solve_s", "iterations", "rows", "cols", "prepare_s",
                          "episode_s", "arm_steps_per_s", "peak_rss_mb")}
        print(f"{label(case)}: {status} {seconds:.2f} s "
              + " ".join(f"{k}={v:.4g}" for k, v in shown.items()), flush=True)
    report = {"git_sha": git_sha(), "case_seconds": CASE_LIMIT_S,
              "mem_limit_mb": CASE_MEM_MB, "smoke": args.smoke, "cases": rows}
    (wdir / "scaling.json").write_text(json.dumps(report, indent=1))
    print(f"wrote {wdir / 'scaling.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
