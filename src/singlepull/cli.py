"""Command-line experiment runner.

    singlepull --config experiment.json [--out DIR] [--seeds A..B]
               [--policies spi,random] [--episodes N]
               [--dump-trajectories] [--timing] [--sweep-rho 2,5,10,20]

The overrides replace keys of the config document, which parse_config then
converts and checks once; --seeds sets instance_seeds. main only parses:
experiments.run_experiment performs the whole run, and with --timing
(measure_runtime) it also writes timing.csv; results.csv holds no clock, so
it is the same with or without it. --sweep-rho runs experiments.sweep_rho,
which takes one policy and one instance seed, and excludes --timing and
--dump-trajectories (or the config keys they set).

Exit codes: 0 success, 2 config error (an output directory that cannot be
made included), 3 solver failure, 4 constraint-audit failure (the
simulator's feasibility authority was breached).
"""

from __future__ import annotations

import argparse
import sys

from .experiments import ConfigError, parse_config, read_config, run_experiment, sweep_rho
from .simulator import InfeasibleAction
from .simplex import SolverStall

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_AUDIT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlepull",
        description="Run single-pull bandit policy experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="experiment config path")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seeds", help="instance seed range A..B inclusive")
    parser.add_argument("--policies", help="comma-separated policy list (overrides config)")
    parser.add_argument("--episodes", type=int, help="episodes per evaluation")
    parser.add_argument("--dump-trajectories", action="store_true",
                        help="write per-(episode, t, arm) records to trajectories.jsonl")
    parser.add_argument("--timing", action="store_true",
                        help="also write per-policy wall clocks to timing.csv")
    parser.add_argument("--sweep-rho", help="comma-separated strictly ascending rho list; "
                                            "writes gap_curve.csv instead of results.csv")
    return parser


def _parse_seed_range(text: str) -> list[int]:
    try:
        a, b = text.split("..")
        return list(range(int(a), int(b) + 1))
    except ValueError:
        raise ConfigError(f"--seeds expects A..B, got {text!r}") from None


def _parse_rho_list(text: str) -> list[int]:
    try:
        return [int(r) for r in text.split(",") if r.strip()]
    except ValueError:
        raise ConfigError(f"--sweep-rho expects comma-separated integers, got {text!r}") from None


def _overrides(args) -> dict:
    """The config keys the command line sets, as JSON values for the schema to check."""
    given = {
        "out_dir": args.out,
        "instance_seeds": None if args.seeds is None else _parse_seed_range(args.seeds),
        "policies": None if args.policies is None else
                    [p.strip() for p in args.policies.split(",") if p.strip()],
        "episodes": args.episodes,
        "dump_trajectories": args.dump_trajectories or None,
        "measure_runtime": args.timing or None,
    }
    return {key: value for key, value in given.items() if value is not None}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config({**read_config(args.config), **_overrides(args)})
        if args.sweep_rho is not None:
            _, slope = sweep_rho(config, _parse_rho_list(args.sweep_rho))
            print(f"wrote {config.out_dir}/gap_curve.csv (log-log slope {slope:.3f})")
        else:
            rows = run_experiment(config)
            print(f"wrote {config.out_dir}/results.csv ({len(rows)} rows)")
            if config.measure_runtime:
                print(f"wrote {config.out_dir}/timing.csv")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleAction as exc:
        print(f"constraint audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except SolverStall as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
