"""The four benchmark workloads and their correctness checks.

Each workload is a closed loop: one caller runs its operations one after
another and waits for each to return. Instance draws are fixed (instance
seed 0, as the workload table in README.md gives them); the run's --seed
sets the Monte Carlo episode seeds, the oracle-check instance and, for
index-build, which has no randomness, the order of its operations.

A workload exposes
    instances()            the instances its set-up generates and validates
    operations(seed, out)  (label, callable) pairs for one pass
    checks(seed, passes)   (name, ok, detail) triples over all passes' outputs
    extras(passes, secs)   figures only some workloads have (not in the gated JSON)
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

import singlepull as sp
from singlepull import cli, domains, experiments, lp, oracle, policies

# A policy mean may exceed the bound by at most this many standard errors.
# When the bound is tight, which is what the paper claims for SPI, the mean
# is an unbiased estimate of it, so a 95% interval is crossed in one run of
# forty; five standard errors keep the false alarm rate near 1e-5 per
# comparison with 20-episode t tails, and still catch a broken bound.
BOUND_SLACK_SE = 5.0
HIGHS_REL_TOL = 1e-9
CI_Z = 1.96


@dataclass(frozen=True)
class Case:
    family: str
    n_types: int
    n_states: int
    horizon: int
    budget: int = 1
    rho: int = 1
    seed: int = 0

    @property
    def label(self) -> str:
        return (f"{self.family}-N{self.n_types}-S{self.n_states}-T{self.horizon}"
                f"-K{self.budget}-rho{self.rho}")

    def instance(self):
        spec = domains.DomainSpec(self.family, self.n_types, self.n_states, self.seed)
        return domains.make_instance(spec, budget=self.budget, rho=self.rho,
                                     horizon=self.horizon)

    def config(self, policy_names, episodes, base_seed, out_dir) -> dict:
        return {
            "domain": {"family": self.family},
            "setting": {"n_types": self.n_types, "n_states": self.n_states,
                        "budget": self.budget, "rho": self.rho, "horizon": self.horizon},
            "policies": list(policy_names),
            "episodes": episodes,
            "base_seed": base_seed,
            "instance_seeds": [self.seed],
            "out_dir": str(out_dir),
        }


ORACLE_CASE = dict(family=domains.RANDOM, n_types=2, n_states=3, horizon=4, budget=1, rho=2)


class Workload:
    name = ""
    min_passes = 1
    op_limit_s = None  # per-operation wall-clock limit; a breach counts as failed
    cases: tuple[Case, ...] = ()

    def instances(self):
        return [(c.label, c.instance()) for c in self.cases]

    def operations(self, seed, out_dir):
        raise NotImplementedError

    def checks(self, seed, passes):
        return []

    def extras(self, passes, op_seconds):
        return {}

    def reported_episodes(self, outputs) -> int:
        """Episodes behind the figures one pass reports (0 when none run)."""
        return 0


def _rows_summary(rows):
    """The bound and {policy: (mean, ci95)} from run_experiment rows."""
    return rows[0].upper_bound, {r.policy: (r.mean_reward, r.ci95) for r in rows}


def bound_checks(label, bound, means):
    """Every policy mean stays below the bound within BOUND_SLACK_SE errors."""
    out = []
    for name, (mean, ci95) in means.items():
        se = ci95 / CI_Z
        z = (mean - bound) / se if se > 0 else (math.inf if mean > bound else -math.inf)
        ok = mean <= bound + BOUND_SLACK_SE * se + 1e-9 * abs(bound)
        out.append((f"mean<=bound {label} {name}", ok,
                    f"mean {mean:.6g} bound {bound:.6g} z {z:+.2f}"
                    f"{' (above the 95% interval)' if z > CI_Z else ''}"))
    return out


def reference_bound(instance) -> float:
    """Dummy-expanded occupancy LP built here from the instance, solved by HiGHS.

    Variables are x[n][t, s, a] over the expanded states. Rows: one budget
    row per step (active mass <= K), and per type the initial distribution
    at t = 0 and flow balance for t >= 1. The objective weighs rewards by
    rho. This is the program lp.upper_bound solves, written independently.
    """
    from scipy.optimize import linprog  # not imported by the package; kept out of set-up

    T, K = instance.horizon, instance.budget
    c_parts, eq_blocks, b_eq, ub_blocks = [], [], [], []
    for model, init in zip(instance.types, instance.initial):
        m = sp.expand_with_dummies(model)
        S2 = m.n_states
        c_parts.append(np.tile(instance.rho * m.rewards.reshape(-1), T))
        sum_a = sps.kron(sps.eye(S2), np.ones((1, 2)))          # row s: x[s,0]+x[s,1]
        inflow = m.transitions.transpose(2, 0, 1).reshape(S2, 2 * S2)
        shift = sps.diags(np.ones(T - 1), -1, shape=(T, T))
        eq_blocks.append(sps.kron(sps.eye(T), sum_a) - sps.kron(shift, inflow))
        start = np.zeros(S2)
        start[: model.n_states] = init
        b_eq.append(np.concatenate([start, np.zeros((T - 1) * S2)]))
        active = sps.kron(np.ones((1, S2)), np.array([[0.0, 1.0]]))
        ub_blocks.append(sps.kron(sps.eye(T), active))
    res = linprog(
        -np.concatenate(c_parts),
        A_ub=sps.hstack(ub_blocks, format="csr"), b_ub=np.full(T, float(K)),
        A_eq=sps.block_diag(eq_blocks, format="csr"), b_eq=np.concatenate(b_eq),
        bounds=(0, None), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference solve ended: {res.message}")
    return float(-res.fun)


def highs_check(label, instance, bound):
    ref = reference_bound(instance)
    rel = abs(bound - ref) / max(1.0, abs(ref))
    return (f"bound==highs {label}", rel <= HIGHS_REL_TOL,
            f"bound {bound:.12g} highs {ref:.12g} rel {rel:.2e}")


def oracle_check(seed):
    """On an oracle-sized instance the LP bound dominates the exact optimum."""
    case = Case(seed=seed, **ORACLE_CASE)
    inst = case.instance()
    bound = lp.upper_bound(inst)
    opt = oracle.exact_optimum(inst)
    ok = bound >= opt - 1e-9 * max(1.0, abs(opt))
    return (f"bound>=oracle {case.label}-seed{seed}", ok,
            f"bound {bound:.10g} exact optimum {opt:.10g}")


def spi_gap(summaries):
    """1 - sum(SPI mean) / sum(bound) over (bound, means) pairs, with its 95% CI."""
    total_bound = sum(b for b, _ in summaries)
    total_mean = sum(m["spi"][0] for _, m in summaries)
    ci = math.sqrt(sum(m["spi"][1] ** 2 for _, m in summaries))
    return 1.0 - total_mean / total_bound, ci / total_bound


class ExperimentWorkload(Workload):
    """run_experiment on each case; one call is one operation."""

    policy_names: tuple[str, ...] = ()

    def operations(self, seed, out_dir):
        ops = []
        for case in self.cases:
            doc = case.config(self.policy_names, self.episodes, seed, out_dir / case.label)
            ops.append((case.label,
                        lambda doc=doc: experiments.run_experiment(experiments.parse_config(doc))))
        return ops

    def checks(self, seed, passes):
        out = []
        first = dict(passes[0])
        for case in self.cases:
            rows = first.get(case.label)
            if rows is None:
                continue
            bound, means = _rows_summary(rows)
            out.append(highs_check(case.label, case.instance(), bound))
            out.extend(bound_checks(case.label, bound, means))
        return out

    def reported_episodes(self, outputs) -> int:
        return sum(r.n_episodes for _, rows in outputs if rows for r in rows)

    def arm_steps(self, case) -> int:
        return case.n_types * case.rho * case.horizon * self.episodes * len(self.policy_names)

    def extras(self, passes, op_seconds):
        steps = sum(self.arm_steps(c) for c in self.cases) * len(passes)
        summaries = [_rows_summary(rows) for p in passes[:1] for _, rows in p if rows]
        if not summaries:
            return {}
        gap, gap_ci = spi_gap(summaries)
        return {"arm_steps_per_s": (steps / op_seconds, "1/s"),
                "spi_gap": (gap, "ratio"), "spi_gap_ci95": (gap_ci, "ratio")}


class LpBound(ExperimentWorkload):
    name = "lp-bound"
    policy_names = ("spi", "meanfield", "random")

    def __init__(self, smoke=False):
        self.episodes = 3 if smoke else 20
        rho = 2 if smoke else 10
        sizes = ([(domains.CPAP, 2, 3, 4, 1), (domains.CPAP, 2, 3, 4, 3)] if smoke else
                 [(domains.CPAP, 10, 5, 20, 1), (domains.MHMH, 20, 3, 20, 2),
                  (domains.RANDOM, 10, 5, 20, 1), (domains.CPAP, 10, 5, 20, 10)])
        self.cases = tuple(Case(f, n, s, t, k, rho) for f, n, s, t, k in sizes)


class SimRho(ExperimentWorkload):
    name = "sim-rho"
    policy_names = ("spi", "meanfield", "random")
    min_passes = 2  # a pass takes about as long as a run measures; fix the count

    def __init__(self, smoke=False):
        self.episodes = 3 if smoke else 100
        self.cases = (Case(domains.CPAP, 10, 3, 10, 3, 20 if smoke else 1000),)


class IndexBuild(Workload):
    """make_policy(p).prepare(instance) for every index policy and instance."""

    name = "index-build"
    policy_names = ("whittle-finite", "whittle-infinite", "whittle-original", "qdiff")
    # A healthy prepare here takes under 3 s. whittle-original on the CPAP
    # instance runs 17-30 s (load-dependent) before raising NonConvergent;
    # cutting it at 10 s still counts it as failed and keeps the pass time
    # from following that one slow, noisy operation.
    op_limit_s = 10.0

    def __init__(self, smoke=False):
        self.cases = ((Case(domains.CPAP, 2, 3, 4), Case(domains.RANDOM, 2, 3, 4)) if smoke else
                      (Case(domains.CPAP, 10, 5, 10), Case(domains.EHRENFEST, 2, 4, 20),
                       Case(domains.RANDOM, 4, 10, 20)))

    def operations(self, seed, out_dir):
        ops = []
        for case in self.cases:
            inst = case.instance()
            for name in self.policy_names:
                def prepare(inst=inst, name=name):
                    policy = policies.make_policy(name)
                    policy.prepare(inst)
                    return policy.table.values, policy.table.time_dependent
                ops.append((f"{case.label}/{name}", prepare))
        random.Random(seed).shuffle(ops)
        return ops

    def checks(self, seed, passes):
        out = []
        for label, result in passes[0]:
            if result is None:
                continue
            values, time_dependent = result
            case = next(c for c in self.cases if label.startswith(c.label + "/"))
            cols = case.horizon if time_dependent else 1
            ok = all(np.all(np.isfinite(v)) and v.shape[1] == cols for v in values)
            out.append((f"index-table {label}", ok,
                        f"{len(values)} types, columns {cols}, all finite {ok}"))
        return out


class CliReport(Workload):
    """The singlepull CLI with every policy, --timing and --dump-trajectories."""

    name = "cli-report"
    min_passes = 2  # two same-seed runs are compared byte for byte

    def __init__(self, smoke=False):
        self.episodes = 6 if smoke else 10
        self.cases = (Case(domains.MHMH, 2 if smoke else 10, 3, 4 if smoke else 10, 3,
                           2 if smoke else 10),)

    def operations(self, seed, out_dir):
        case = self.cases[0]
        config_path = out_dir / "config.json"
        with open(config_path, "w") as fh:
            json.dump(case.config(policies.POLICY_NAMES, self.episodes, seed, out_dir), fh)

        def run():
            code = cli.main(["--config", str(config_path), "--out", str(out_dir),
                             "--timing", "--dump-trajectories"])
            if code != 0:
                raise RuntimeError(f"singlepull exited {code}")
            return str(out_dir)

        return [(case.label, run)]

    @staticmethod
    def _read(out_dir):
        with open(os.path.join(out_dir, "results.csv"), "rb") as fh:
            raw = fh.read()
        lines = raw.decode().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        # runtime_ms holds wall clocks under --timing; blank it for the comparison
        masked = "\n".join(
            ",".join("" if h == "runtime_ms" else v for h, v in zip(header, line.split(",")))
            for line in lines)
        digest = hashlib.sha256()
        with open(os.path.join(out_dir, "trajectories.jsonl"), "rb") as fh:
            n_records = 0
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
                n_records += chunk.count(b"\n")
        return raw, masked, rows, digest.hexdigest(), n_records

    def checks(self, seed, passes):
        case = self.cases[0]
        outs = [self._read(p[0][1]) for p in passes if p and p[0][1] is not None]
        if len(outs) < 2:
            return [("two cli runs", False, f"only {len(outs)} completed")]
        raw0, masked0, rows, traj0, n_records = outs[0]
        same_masked = all(o[1] == masked0 for o in outs[1:])
        same_traj = all(o[3] == traj0 for o in outs[1:])
        same_raw = all(o[0] == raw0 for o in outs[1:])
        bound = float(rows[0]["upper_bound"])
        means = {r["policy"]: (float(r["mean_reward"]), float(r["ci95"])) for r in rows}
        expected_records = (len(policies.POLICY_NAMES) * self.episodes * case.horizon
                            * case.n_types * case.rho)
        out = [
            ("results.csv identical across runs (runtime_ms masked)", same_masked,
             f"{len(outs)} runs; raw bytes identical: {same_raw}"),
            ("trajectories.jsonl identical across runs", same_traj, f"sha256 {traj0[:16]}"),
            ("results.csv has every policy", sorted(means) == sorted(policies.POLICY_NAMES),
             ",".join(means)),
            ("trajectories.jsonl record count", n_records == expected_records,
             f"{n_records} records, expected {expected_records}"),
            highs_check(case.label, case.instance(), bound),
        ]
        out.extend(bound_checks(case.label, bound, means))
        return out

    def reported_episodes(self, outputs) -> int:
        if not outputs or outputs[0][1] is None:
            return 0
        return sum(int(r["n_episodes"]) for r in self._read(outputs[0][1])[2])

    def extras(self, passes, op_seconds):
        case = self.cases[0]
        done = [p[0][1] for p in passes if p and p[0][1] is not None]
        if not done:
            return {}
        rows = self._read(done[0])[2]
        means = {r["policy"]: (float(r["mean_reward"]), float(r["ci95"])) for r in rows}
        gap, gap_ci = spi_gap([(float(rows[0]["upper_bound"]), means)])
        reported = len(policies.POLICY_NAMES) * self.episodes * len(done)
        steps = reported * case.n_types * case.rho * case.horizon
        return {"arm_steps_per_s": (steps / op_seconds, "1/s"),
                "spi_gap": (gap, "ratio"), "spi_gap_ci95": (gap_ci, "ratio")}


WORKLOADS = {cls.name: cls for cls in (LpBound, SimRho, IndexBuild, CliReport)}


def make(name: str, smoke: bool = False) -> Workload:
    return WORKLOADS[name](smoke)
