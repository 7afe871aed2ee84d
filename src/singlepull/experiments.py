"""Experiment runner: config parsing, policy suites, and report files.

One config describes one experiment: a domain family, a setting tuple
(n_types, n_states, budget, rho, horizon), a policy list, and evaluation
parameters. The runner draws one instance per instance seed, computes the
dummy-LP upper bound, evaluates every requested policy, and writes

    results.csv     one row per (instance draw, policy)
    results.txt     human-readable table, near-optimal rows starred
    gap_curve.csv   (sweep_rho) per-rho optimality gaps plus comment lines
                    with a fitted log-log slope and the rhos it used
    timing.csv      (measure_runtime) per-policy wall-clock statistics,
                    which run_experiment writes last through time_policies
                    from the Summary.wall_clock of simulator.evaluate
    trajectories.jsonl  optional per-(episode, t, arm) audit records; state
                    is the dummy-expanded id, s + S_n once the arm is pulled

The simulator runs episodes on arm counts per expanded state; the
trajectory dump reruns the evaluated episodes with record=True
(simulator.run_episode) on the same prepared policies, which lifts them to
arms, so its records describe the very episodes results.csv averages. A
recorded episode is a (T, n_arms) array of pair ids p = 2g + a, and the
dump writes each line from string tables made once per instance: the
state, action and reward fields of every pair id are one precomputed tail.

results.csv, results.txt, gap_curve.csv and trajectories.jsonl are a pure
function of the config: reruns produce byte-identical files, with or
without timing. results.csv therefore holds no clock; its runtime_ms column
is always 0. Wall clocks go to timing.csv only, which measure_runtime
selects. A row's normalized score is (mean - random mean) / (UB - random
mean) on its instance draw: nan when the run has no random policy or the
bound does not exceed the random mean.

A config is a JSON document checked once against CONFIG_SCHEMA; command-line
overrides are applied to the document before that check. The runner
evaluates the (instance draw, policy) pairs one after another in this
process. Every bound and every evaluation goes through _run_or_stall: a
failed LP solve or index build aborts the run, a rho sweep and the timing
pass included, as SolverStall after the instance is saved for replay. An
output directory that cannot be made is a ConfigError, raised before the
first bound is solved.
"""

from __future__ import annotations

import functools
import json
import logging
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import lp
from .domains import FAMILIES, DomainSpec, make_instance
from .model import Instance, save_instance
from .policies import POLICY_NAMES, RANDOM_MAX_ARMS, make_policy
from .simulator import InfeasibleAction, evaluate, run_episode
from .simplex import SolverStall

log = logging.getLogger(__name__)

NEAR_OPTIMAL_FRACTION = 0.03
MAX_EPISODE_SEED = 2**64 - 1  # an episode seed keys a uint64 Philox stream

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["domain", "setting", "policies", "episodes"],
    "additionalProperties": False,
    "properties": {
        "domain": {
            "type": "object",
            "required": ["family"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": list(FAMILIES)},
                "params": {"type": "object"},
            },
        },
        "setting": {
            "type": "object",
            "required": ["n_types", "n_states", "budget", "rho", "horizon"],
            "additionalProperties": False,
            "properties": {
                "n_types": {"type": "integer", "minimum": 1},
                "n_states": {"type": "integer", "minimum": 2},
                "budget": {"type": "integer", "minimum": 0},
                "rho": {"type": "integer", "minimum": 1},
                "horizon": {"type": "integer", "minimum": 1},
            },
        },
        "policies": {
            "type": "array",
            "items": {"enum": list(POLICY_NAMES)},
            "minItems": 1,
            "uniqueItems": True,
        },
        "episodes": {"type": "integer", "minimum": 2},
        "base_seed": {"type": "integer", "minimum": 0},
        "instance_seeds": {"type": "array", "items": {"type": "integer", "minimum": 0},
                           "minItems": 1, "uniqueItems": True},
        "out_dir": {"type": "string"},
        "dump_trajectories": {"type": "boolean"},
        "measure_runtime": {"type": "boolean"},
    },
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    domain_family: str
    n_types: int
    n_states: int
    budget: int
    rho: int
    horizon: int
    policies: list[str]
    episodes: int
    base_seed: int = 0
    instance_seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str = "results"
    domain_params: dict = field(default_factory=dict)
    dump_trajectories: bool = False
    measure_runtime: bool = False

    @property
    def setting(self) -> tuple:
        return (self.n_types, self.n_states, self.budget, self.rho, self.horizon)

    def domain_spec(self, seed: int) -> DomainSpec:
        return DomainSpec(
            family=self.domain_family,
            n_types=self.n_types,
            n_states=self.n_states,
            seed=seed,
            params=dict(self.domain_params),
        )

    def instance(self, seed: int) -> Instance:
        """The checked instance of seed; a domain the generator rejects is a ConfigError."""
        try:
            return make_instance(self.domain_spec(seed), budget=self.budget,
                                 rho=self.rho, horizon=self.horizon)
        except ValueError as exc:
            raise ConfigError(f"instance seed {seed}: {exc}") from exc


_INT_FIELDS = frozenset(f.name for f in fields(ExperimentConfig) if f.type == "int")


@functools.cache
def _config_validator():
    """The validator of CONFIG_SCHEMA, made on first use.

    jsonschema is imported here, so importing the package or the CLI does
    not load it. The schema is a constant, so it is not checked against its
    metaschema here; the test suite checks it once.
    """
    import jsonschema
    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def parse_config(doc: dict) -> ExperimentConfig:
    """The checked ExperimentConfig of a config document; a rejected one is a ConfigError.

    A key left out takes the ExperimentConfig default, and integer fields go
    through int(), since JSON's integer type admits integral floats (2.0).
    """
    import jsonschema
    # the error jsonschema.validate would raise, without its per-call schema check
    error = jsonschema.exceptions.best_match(_config_validator().iter_errors(doc))
    if error is not None:
        raise ConfigError(f"config rejected by schema: {error.message}") from error
    given = {key: value for key, value in doc.items() if key not in ("domain", "setting")}
    given.update(doc["setting"], domain_family=doc["domain"]["family"])
    if "params" in doc["domain"]:
        given["domain_params"] = dict(doc["domain"]["params"])
    for key in given.keys() & _INT_FIELDS:
        given[key] = int(given[key])
    given["policies"] = list(given["policies"])
    if "instance_seeds" in given:
        given["instance_seeds"] = [int(s) for s in given["instance_seeds"]]
    cfg = ExperimentConfig(**given)
    last_seed = cfg.base_seed + cfg.episodes - 1
    if last_seed > MAX_EPISODE_SEED:
        raise ConfigError(f"episode seeds run to base_seed + episodes - 1 = {last_seed}, "
                          f"above the largest uint64 seed {MAX_EPISODE_SEED}")
    _check_random_size(cfg.policies, cfg.n_types, cfg.rho)
    if cfg.budget >= cfg.n_types:
        # budget * rho arms a step out of n_types * rho: legal, so warn only
        log.warning("budget %d is at least n_types = %d; the budget never binds",
                    cfg.budget, cfg.n_types)
    return cfg


def _check_random_size(policies, n_types: int, rho: int) -> None:
    if "random" in policies and n_types * rho > RANDOM_MAX_ARMS:
        raise ConfigError(f"the random policy draws among at most {RANDOM_MAX_ARMS} arms, "
                          f"got n_types*rho = {n_types * rho}")


def read_config(path: str) -> dict:
    """The JSON config object, not yet checked against the schema."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return doc


@dataclass
class ResultRow:
    domain: str
    setting: tuple
    instance_seed: int
    policy: str
    mean_reward: float
    ci95: float
    upper_bound: float
    normalized: float  # nan without a random baseline or when UB <= its mean
    runtime_ms: float  # always 0: results.csv holds no clock
    n_episodes: int


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _fmt(x) -> str:
    if isinstance(x, float):
        return "" if np.isnan(x) else f"{x:.10g}"
    if isinstance(x, tuple):
        return "(" + ";".join(str(v) for v in x) + ")"
    return str(x)


def _make_out_dir(config):
    """Make config.out_dir; a path that cannot be made is a ConfigError."""
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {config.out_dir}: {exc}") from exc


def _run_or_stall(config, seed, instance, policy=None):
    """lp.upper_bound(instance), or with a policy its evaluate over the configured episodes.

    Any RuntimeError but InfeasibleAction (SolverStall, NonConvergent,
    NotIndexable) saves the instance to failed_instance_<seed>.json and is
    raised as the SolverStall that names the file; InfeasibleAction from the
    simulator's constraint audit propagates unchanged.
    """
    try:
        if policy is None:
            return lp.upper_bound(instance)
        return evaluate(instance, policy, config.episodes, config.base_seed)
    except InfeasibleAction:
        raise  # a constraint-audit failure, not a solver failure
    except RuntimeError as exc:
        what = "upper-bound solve" if policy is None else f"policy {policy.name}"
        _make_out_dir(config)
        path = os.path.join(config.out_dir, f"failed_instance_{seed}.json")
        save_instance(instance, path)
        raise SolverStall(f"{what} failed on seed {seed} (instance saved to {path}): "
                          f"{exc}") from exc


def run_experiment(config: ExperimentConfig):
    """Evaluate every (instance draw, policy) pair and write the reports the config asks for.

    timing.csv (time_policies, run last) needs spi and a whittle variant.
    Every seed is drawn once, the timing pass's padding included, before
    the output directory is made, so a ConfigError from the timing rule or
    a draw writes nothing. Solver failures abort the run as SolverStall
    after serializing the offending instance for replay; InfeasibleAction
    from the simulator's constraint audit propagates unchanged. Returns the
    list of ResultRow in output order.
    """
    seeds = list(config.instance_seeds)
    if config.measure_runtime:
        whittle = any(name.startswith("whittle") for name in config.policies)
        if "spi" not in config.policies or not whittle:
            raise ConfigError("timing comparison needs spi and a whittle variant")
        # timing takes three draws or more: pad with fresh seeds above the given ones
        fresh = max(seeds, default=0) + 1
        seeds += range(fresh, fresh + 3 - len(seeds))
    drawn = {seed: config.instance(seed) for seed in seeds}
    instances = {seed: drawn[seed] for seed in config.instance_seeds}
    _make_out_dir(config)
    bounds = {seed: _run_or_stall(config, seed, instance)
              for seed, instance in instances.items()}
    summaries = {}
    prepared = {}  # (seed, name) -> evaluated policy, kept only for the dump
    for seed, instance in instances.items():
        for name in config.policies:
            policy = make_policy(name)
            summaries[seed, name] = _run_or_stall(config, seed, instance, policy)
            if config.dump_trajectories:
                prepared[seed, name] = policy

    rows = []
    for seed in config.instance_seeds:
        random_mean = summaries[seed, "random"].mean if (seed, "random") in summaries else None
        for name in config.policies:
            summary = summaries[seed, name]
            ub = bounds[seed]
            if random_mean is not None and ub > random_mean:
                norm = (summary.mean - random_mean) / (ub - random_mean)
            else:
                norm = float("nan")
            rows.append(ResultRow(
                domain=config.domain_family,
                setting=config.setting,
                instance_seed=seed,
                policy=name,
                mean_reward=summary.mean,
                ci95=summary.half_width,
                upper_bound=ub,
                normalized=norm,
                runtime_ms=0.0,
                n_episodes=summary.n_episodes,
            ))

    _write_results_csv(config, rows)
    _write_results_table(config, rows)
    if config.dump_trajectories:
        _dump_trajectories(config, instances, prepared)
    if config.measure_runtime:
        time_policies(config, drawn)
    return rows


def _write_results_csv(config, rows):
    path = os.path.join(config.out_dir, "results.csv")
    with open(path, "w") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(getattr(row, col)) for col in RESULT_COLUMNS) + "\n")
    return path


def _write_results_table(config, rows):
    path = os.path.join(config.out_dir, "results.txt")
    lines = [
        f"domain {config.domain_family}  setting (N,S,K,rho,T)={config.setting}  "
        f"episodes {config.episodes}  instance seeds {config.instance_seeds}",
        f"* = near-optimal: gap to the LP upper bound below "
        f"{NEAR_OPTIMAL_FRACTION:.0%} of the bound",
        "",
    ]
    for seed in config.instance_seeds:
        sub = [r for r in rows if r.instance_seed == seed]
        if not sub:
            continue
        ub = sub[0].upper_bound
        lines.append(f"instance seed {seed}: upper bound {ub:.2f}")
        for r in sub:
            star = "*" if ub - r.mean_reward <= NEAR_OPTIMAL_FRACTION * ub else " "
            norm = f"{r.normalized:8.3f}" if not np.isnan(r.normalized) else "     n/a"
            lines.append(f"  {star} {r.policy:18s} {r.mean_reward:10.2f} "
                         f"+- {r.ci95:7.2f}   normalized {norm}")
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    return path


def _dump_trajectories(config, instances, prepared):
    """Write trajectories.jsonl: the evaluated episodes rerun with record=True.

    prepared maps (seed, name) to the policy the evaluation prepared on
    instances[seed]; a policy keeps no state after prepare, so the reruns
    repeat the evaluated episodes. A recorded episode is a (T, n_arms)
    array of pair ids, and each line is the json.dumps text of its record
    dict, assembled from string tables built once per instance: a head per
    (policy, episode, t), an id per arm and a tail per pair id, which holds
    the state, action and reward the id stands for. Every field is a Python
    int or a finite Python float, and json.dumps writes a float as its repr.
    """
    path = os.path.join(config.out_dir, "trajectories.jsonl")
    with open(path, "w") as fh:
        for seed, instance in instances.items():
            tails = _pair_tails(instance.tables)
            arms = [str(arm) for arm in range(instance.n_arms)]
            for name in config.policies:
                policy = prepared[seed, name]
                head = f'{{"instance_seed": {seed}, "policy": {json.dumps(name)}, "episode": '
                for episode in range(config.episodes):
                    result = run_episode(instance, policy,
                                         config.base_seed + episode, record=True)
                    for t, pairs in enumerate(result.trajectory.tolist()):
                        head_t = f'{head}{episode}, "t": {t}, "arm": '
                        fh.write("".join([head_t + arm + tails[p]
                                          for arm, p in zip(arms, pairs)]))
    return path


def _pair_tails(tables):
    """The record text after "arm" for every pair id p = 2g + a, closing the line.

    g is the global state offset[n] + s of a type-n arm in expanded state s.
    """
    n_groups = len(tables.dummy)
    first = np.repeat(tables.offset, np.diff(tables.offset, append=n_groups))
    states = np.repeat(np.arange(n_groups) - first, 2).tolist()
    return [f', "state": {state}, "action": {p & 1}, "reward": {reward!r}}}\n'
            for p, (state, reward) in enumerate(zip(states, tables.rewards.tolist()))]


def sweep_rho(config: ExperimentConfig, rho_list):
    """Optimality-gap decay against the replication factor.

    Evaluates the configured policy at each rho (ascending), reports
    the per-arm gap (upper_bound - mean) / (rho * N) and the normalized gap
    1 - mean / upper_bound (nan, an empty field, when the bound is 0), and
    fits a log-log slope of the normalized gap against rho over the points
    whose normalized gap is positive; the fitted_rho comment line under the
    slope names them. The bound is solved at the first rho and scaled by
    rho / rho_0 for the others. A solver or index failure saves the
    instance at the failing rho and raises SolverStall, as in
    run_experiment. Raises ConfigError, before anything is written, when
      - rho_list is not a non-empty strictly ascending list of rho >= 1;
      - the config asks for timing or a trajectory dump, which a sweep does
        not write;
      - the config names more than one policy or instance seed, which
        gap_curve.csv does not record;
      - a random sweep would exceed RANDOM_MAX_ARMS arms.
    An output directory that cannot be made is a ConfigError too, raised
    after the first draw and before its bound is solved.
    """
    rho_list = list(rho_list)
    if not rho_list or min(rho_list) < 1 or any(b <= a for a, b in zip(rho_list, rho_list[1:])):
        raise ConfigError(f"rho_list must be non-empty, strictly ascending and >= 1, "
                          f"got {rho_list}")
    if config.measure_runtime or config.dump_trajectories:
        raise ConfigError("a rho sweep writes gap_curve.csv only; "
                          "it takes neither timing nor a trajectory dump")
    if len(config.policies) != 1 or len(config.instance_seeds) != 1:
        raise ConfigError(f"a rho sweep takes one policy and one instance seed, got "
                          f"policies {config.policies} and seeds {config.instance_seeds}")
    [policy_name] = config.policies
    [seed] = config.instance_seeds
    _check_random_size([policy_name], config.n_types, rho_list[-1])
    rows = []
    for rho in rho_list:
        inst = replace(config, rho=int(rho)).instance(seed)
        if not rows:
            _make_out_dir(config)
            # rho only weights the objective, so the optimal occupancy is the
            # same at every rho and the bound scales linearly: solve once
            ub0, rho0 = _run_or_stall(config, seed, inst), rho
        ub = ub0 * rho / rho0
        summary = _run_or_stall(config, seed, inst, make_policy(policy_name))
        n_arms = inst.n_arms
        rows.append({
            "rho": int(rho),
            "gap": (ub - summary.mean) / n_arms,
            "ci": summary.half_width / n_arms,
            "normalized_gap": 1.0 - summary.mean / ub if ub else float("nan"),
        })
    fitted = [r for r in rows if r["normalized_gap"] > 0]  # the points a log-log fit can use
    slope = fit_loglog_slope([r["rho"] for r in fitted], [r["normalized_gap"] for r in fitted])
    path = os.path.join(config.out_dir, "gap_curve.csv")
    with open(path, "w") as fh:
        fh.write("rho,gap,ci,normalized_gap\n")
        for r in rows:
            fh.write(f"{r['rho']},{_fmt(r['gap'])},{_fmt(r['ci'])},"
                     f"{_fmt(r['normalized_gap'])}\n")
        fh.write(f"# loglog_slope={_fmt(slope)}\n")
        fh.write(f"# fitted_rho={';'.join(str(r['rho']) for r in fitted)}\n")
    return rows, slope


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) vs log(x), ignoring non-positive gaps."""
    pts = [(x, y) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:
        return float("nan")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def time_policies(config: ExperimentConfig, instances: dict[int, Instance]):
    """Per-policy wall-clock statistics over instances, a map of timing seed to draw.

    Every policy is evaluated afresh on each instance, and its clock is the
    Summary.wall_clock of that evaluate call: prepare plus all per-step
    selection calls, environment sampling excluded. The instance check and
    the ArmTables build happen when the instance is made, outside the
    clock. prepare builds the policy's tables and plans its visiting order
    for every epoch, so the ranking is on the prepare clock and a selection
    is a budget fill along a planned order, whose cost grows with the
    number of groups and not with rho. Every timed episode passes the
    simulator's constraint audit, like every evaluated one, and a solver or
    index failure is saved for replay and raised as SolverStall, as in
    run_experiment.
    """
    stats = []
    for name in config.policies:
        clocks = np.array([
            _run_or_stall(config, seed, instance, make_policy(name)).wall_clock * 1e3
            for seed, instance in instances.items()])
        stats.append({"policy": name, "mean_ms": float(clocks.mean()),
                      "std_ms": float(clocks.std(ddof=1)) if len(clocks) > 1 else 0.0})
    _make_out_dir(config)
    path = os.path.join(config.out_dir, "timing.csv")
    with open(path, "w") as fh:
        fh.write("policy,mean_ms,std_ms\n")
        for s in stats:
            fh.write(f"{s['policy']},{_fmt(s['mean_ms'])},{_fmt(s['std_ms'])}\n")
    return stats
