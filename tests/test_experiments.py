import json
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

from singlepull import cli
from singlepull.experiments import (
    CONFIG_SCHEMA,
    ConfigError,
    fit_loglog_slope,
    parse_config,
    read_config,
    run_experiment,
    sweep_rho,
    time_policies,
)
from singlepull.model import load_instance
from singlepull.simplex import SolverStall
from singlepull.simulator import InfeasibleAction, Summary
from singlepull.whittle import NonConvergent, NotIndexable
from singlepull import evaluate, experiments, lp, model, oracle, policies
from singlepull.domains import FAMILIES, make_instance
from singlepull.policies import POLICY_NAMES, BasePolicy, make_policy

from conftest import stall_highs, trajectory_records


def small_config(tmp_path, **overrides):
    doc = {
        "domain": {"family": "RANDOM"},
        "setting": {"n_types": 2, "n_states": 3, "budget": 1, "rho": 2, "horizon": 3},
        "policies": ["spi", "random"],
        "episodes": 10,
        "base_seed": 0,
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return doc


class TestConfig:
    def test_schema_passes_its_metaschema_check(self):
        # parse_config builds its validator without checking the schema
        jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)

    @pytest.mark.parametrize("doc", [{}, {"policies": []}, {"episodes": "2"},
                                     {"setting": {"n_types": 0}}, {"bogus": 1}])
    def test_errors_are_those_jsonschema_validate_raises(self, tmp_path, doc):
        doc = {**small_config(tmp_path), **doc} if doc else doc
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, CONFIG_SCHEMA)
        with pytest.raises(ConfigError) as got:
            parse_config(doc)
        assert str(got.value) == f"config rejected by schema: {want.value.message}"

    def test_parse_round_trip(self, tmp_path):
        cfg = parse_config(small_config(tmp_path))
        assert cfg.setting == (2, 3, 1, 2, 3)
        assert cfg.instance_seeds == [0]

    def test_schema_rejects_unknown_policy(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(small_config(tmp_path, policies=["bogus"]))

    def test_schema_rejects_missing_setting(self, tmp_path):
        doc = small_config(tmp_path)
        del doc["setting"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_never_binding_budget_warns_through_logging(self, tmp_path, caplog, capsys):
        doc = small_config(tmp_path)
        doc["setting"]["budget"] = 5  # n_types = 2, rho = 2
        with caplog.at_level("WARNING", logger="singlepull.experiments"):
            cfg = parse_config(doc)
        assert cfg.budget == 5
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "budget 5 is at least n_types = 2" in caplog.records[0].getMessage()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n_types, rho, budget, warns", [
        (2, 2, 2, True), (2, 2, 1, False), (3, 1, 3, True), (3, 1, 2, False),
        (10, 10, 10, True), (10, 10, 9, False)])
    def test_budget_warns_from_budget_n_types_on(self, tmp_path, caplog,
                                                 n_types, rho, budget, warns):
        # budget * rho arms a step out of n_types * rho: K = N pulls every arm
        doc = small_config(tmp_path)
        doc["setting"].update(n_types=n_types, rho=rho, budget=budget)
        with caplog.at_level("WARNING", logger="singlepull.experiments"):
            parse_config(doc)
        assert [r.getMessage() for r in caplog.records] == (
            [f"budget {budget} is at least n_types = {n_types}; the budget never binds"]
            if warns else [])

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(tmp_path)))
        cfg = parse_config(read_config(str(path)))
        assert cfg.episodes == 10

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(read_config(str(path)))


class TestRunExperiment:
    def test_writes_results_with_normalization(self, tmp_path):
        cfg = parse_config(small_config(tmp_path))
        rows = run_experiment(cfg)
        assert len(rows) == 2
        by_policy = {r.policy: r for r in rows}
        assert by_policy["random"].normalized == pytest.approx(0.0, abs=1e-12)
        spi = by_policy["spi"]
        assert spi.mean_reward <= spi.upper_bound + 3 * spi.ci95 + 1e-9
        csv = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert csv[0].startswith("domain,setting,instance_seed,policy,mean_reward")
        assert len(csv) == 3
        assert (tmp_path / "out" / "results.txt").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(small_config(tmp_path))
        run_experiment(cfg)
        first = (tmp_path / "out" / "results.csv").read_bytes()
        run_experiment(cfg)
        second = (tmp_path / "out" / "results.csv").read_bytes()
        assert first == second

    def test_runtime_column_zero_without_timing(self, tmp_path):
        # results.csv holds no clock, with or without timing
        cfg = parse_config(small_config(tmp_path, policies=["spi", "whittle-finite", "random"]))
        rows = run_experiment(cfg)
        assert all(r.runtime_ms == 0.0 for r in rows)
        cfg.measure_runtime = True
        rows = run_experiment(cfg)
        assert all(r.runtime_ms == 0.0 for r in rows)

    def test_bound_holds_up_to_noise(self, tmp_path):
        cfg = parse_config(small_config(tmp_path, episodes=50,
                                        policies=["spi", "qdiff", "random"]))
        rows = run_experiment(cfg)
        for r in rows:
            assert r.mean_reward <= r.upper_bound + 3 * r.ci95 + 1e-9

    def test_normalized_is_nan_in_every_row_without_random(self, tmp_path):
        cfg = parse_config(small_config(tmp_path, policies=["spi", "meanfield"],
                                        instance_seeds=[0, 1]))
        rows = run_experiment(cfg)
        assert len(rows) == 4 and all(np.isnan(r.normalized) for r in rows)
        csv = (tmp_path / "out" / "results.csv").read_text().splitlines()
        column = csv[0].split(",").index("normalized")
        assert all(line.split(",")[column] == "" for line in csv[1:])

    def test_normalized_is_the_formula_of_each_rows_own_columns(self, tmp_path):
        cfg = parse_config(small_config(tmp_path, policies=["spi", "whittle-finite", "random"],
                                        instance_seeds=[0, 1]))
        rows = run_experiment(cfg)
        random_mean = {r.instance_seed: r.mean_reward for r in rows if r.policy == "random"}
        for r in rows:
            base = random_mean[r.instance_seed]
            assert r.upper_bound > base
            assert r.normalized == (r.mean_reward - base) / (r.upper_bound - base)

    def test_normalized_is_nan_when_the_bound_does_not_exceed_the_random_mean(
            self, tmp_path, monkeypatch):
        # RANDOM rewards are non-negative, so a zero bound is at most the random mean
        monkeypatch.setattr(lp, "upper_bound", lambda instance: 0.0)
        rows = run_experiment(parse_config(small_config(tmp_path)))
        assert len(rows) == 2 and all(np.isnan(r.normalized) for r in rows)

    def test_trajectory_dump(self, tmp_path):
        cfg = parse_config(small_config(tmp_path, episodes=3,
                                        dump_trajectories=True))
        run_experiment(cfg)
        lines = (tmp_path / "out" / "trajectories.jsonl").read_text().splitlines()
        # (2 policies) x (3 episodes) x (T=3 steps) x (4 arms)
        assert len(lines) == 2 * 3 * 3 * 4
        rec = json.loads(lines[0])
        assert set(rec) == {"instance_seed", "policy", "episode", "t", "arm",
                            "state", "action", "reward"}


class TestOnePreparationPerInstance:
    """An instance is checked, expanded and tabled once, when it is made."""

    def count(self, monkeypatch):
        calls = {"validate_instance": 0, "ArmTables.build": 0, "expand_with_dummies": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(model, "validate_instance",
                            counted("validate_instance", model.validate_instance))
        monkeypatch.setattr(model.ArmTables, "build",
                            counted("ArmTables.build", model.ArmTables.build))
        expand = counted("expand_with_dummies", model.expand_with_dummies)
        for module in (model, lp, policies, oracle, experiments):
            if hasattr(module, "expand_with_dummies"):
                monkeypatch.setattr(module, "expand_with_dummies", expand)
        return calls

    def test_a_full_run_checks_and_expands_its_instance_once(self, tmp_path, monkeypatch):
        setting = {"n_types": 2, "n_states": 3, "budget": 1, "rho": 2, "horizon": 3}
        cfg = parse_config(small_config(tmp_path, domain={"family": "MHMH"}, setting=setting,
                                        episodes=2, policies=list(POLICY_NAMES),
                                        dump_trajectories=True))
        calls = self.count(monkeypatch)
        run_experiment(cfg)
        once = {"validate_instance": 1, "ArmTables.build": 1, "expand_with_dummies": 2}
        assert calls == once
        # no later layer adds a check, an expansion or a table build
        inst = cfg.instance(0)
        calls.update(dict.fromkeys(calls, 0))
        lp.upper_bound(inst)
        for variant in lp.VARIANTS:
            lp.build_occupancy_lp(inst, variant)
        for name in POLICY_NAMES:
            policy = make_policy(name)
            policy.prepare(inst)
            evaluate(inst, policy, 2, base_seed=0, prepared=True)
            evaluate(inst, make_policy(name), 2, base_seed=0)
        assert calls == dict.fromkeys(calls, 0)


def reference_dump(config, instances, prepared):
    """The trajectory lines as the loop with one json.dumps per record wrote them."""
    lines = []
    for seed, instance in instances.items():
        for name in config.policies:
            policy = prepared[seed, name]
            for episode in range(config.episodes):
                result = experiments.run_episode(instance, policy,
                                                 config.base_seed + episode, record=True)
                for t, arm, state, action, reward in trajectory_records(instance,
                                                                        result.trajectory):
                    lines.append(json.dumps({
                        "instance_seed": seed, "policy": name,
                        "episode": episode, "t": t, "arm": arm,
                        "state": state, "action": action, "reward": reward,
                    }) + "\n")
    return "".join(lines)


def prepared_policies(config, instances):
    prepared = {}
    for seed, instance in instances.items():
        for name in config.policies:
            prepared[seed, name] = make_policy(name)
            prepared[seed, name].prepare(instance)
    return prepared


class TestTrajectorySerializer:
    REWARDS = [-0.0, 0.1 + 0.2, 1 / 3, 1e-17, 1e16, -2.5, 1.0]

    def edge_instance(self, shift):
        """Two 2-state types whose rewards are REWARDS, shifted; random's episodes pay each one."""
        r = np.roll(self.REWARDS + self.REWARDS[:1], shift).reshape(2, 2, 2)
        types = tuple(model.ArmModel(n_states=2, transitions=np.full((2, 2, 2), 0.5),
                                     rewards=r[n]) for n in range(2))
        return model.Instance(types=types, rho=3, budget=1, horizon=4,
                              initial=(np.array([0.5, 0.5]),) * 2)

    def dump_and_reference(self, tmp_path):
        # the LP policies cannot solve with a 1e16 reward; the index policies can
        cfg = parse_config(small_config(tmp_path, episodes=2, instance_seeds=[5, 11],
                                        policies=["whittle-finite", "qdiff", "random"],
                                        out_dir=str(tmp_path)))
        instances = {5: self.edge_instance(0), 11: self.edge_instance(3)}
        prepared = prepared_policies(cfg, instances)
        path = experiments._dump_trajectories(cfg, instances, prepared)
        with open(path) as fh:
            written = fh.read()
        return written, reference_dump(cfg, instances, prepared), instances

    def test_every_line_equals_json_dumps(self, tmp_path):
        written, reference, instances = self.dump_and_reference(tmp_path)
        assert all(set(inst.tables.rewards.tolist()) == set(self.REWARDS)
                   for inst in instances.values())
        assert written.splitlines(keepends=True) == reference.splitlines(keepends=True)
        assert len(reference.splitlines()) == 2 * 3 * 2 * 4 * 6
        rewards = {json.loads(line)["reward"] for line in written.splitlines()}
        assert rewards == set(self.REWARDS)
        assert '"reward": -0.0}' in written and '"reward": 1e+16}' in written

    def test_a_numpy_float_reward_would_not_match(self):
        # the tails must format Python floats: a numpy float's repr is not its JSON text
        tables = self.edge_instance(0).tables
        as_numpy = np.array([np.float64(r) for r in tables.rewards.tolist()], dtype=object)
        tails = experiments._pair_tails(tables)
        numpy_tails = experiments._pair_tails(replace(tables, rewards=as_numpy))
        assert numpy_tails != tails
        assert all("np.float64(" in tail for tail in numpy_tails)
        for p, tail in enumerate(tails):
            state = (p >> 1) % 4  # each type has 4 expanded states
            record = {"state": state, "action": p & 1, "reward": float(tables.rewards[p])}
            assert tail == ", " + json.dumps(record)[1:] + "\n"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_dump_equals_reference_on_every_family(self, tmp_path, family):
        setting = {"n_types": 2, "n_states": 3, "budget": 1, "rho": 3, "horizon": 4}
        cfg = parse_config(small_config(tmp_path, domain={"family": family}, setting=setting,
                                        episodes=2, instance_seeds=[1],
                                        policies=list(POLICY_NAMES), out_dir=str(tmp_path)))
        instances = {1: cfg.instance(1)}
        prepared = prepared_policies(cfg, instances)
        path = experiments._dump_trajectories(cfg, instances, prepared)
        with open(path, "rb") as fh:
            assert fh.read() == reference_dump(cfg, instances, prepared).encode()


class TestDumpReusesEvaluatedPolicies:
    def test_one_prepare_per_seed_and_policy(self, tmp_path, monkeypatch):
        calls = []
        prepare = BasePolicy.prepare
        monkeypatch.setattr(BasePolicy, "prepare",
                            lambda self, inst: calls.append(self.name) or prepare(self, inst))
        cfg = parse_config(small_config(tmp_path, episodes=2, instance_seeds=[0, 1],
                                        policies=["spi", "qdiff", "random"],
                                        dump_trajectories=True))
        run_experiment(cfg)
        assert sorted(calls) == sorted(cfg.policies * 2)

    def test_dump_equals_one_from_fresh_policies(self, tmp_path):
        setting = {"n_types": 2, "n_states": 3, "budget": 2, "rho": 3, "horizon": 4}
        cfg = parse_config(small_config(tmp_path, domain={"family": "MHMH"}, setting=setting,
                                        episodes=3, instance_seeds=[2],
                                        policies=list(POLICY_NAMES), dump_trajectories=True))
        run_experiment(cfg)
        written = (tmp_path / "out" / "trajectories.jsonl").read_text()
        instances = {2: cfg.instance(2)}
        fresh = prepared_policies(cfg, instances)
        assert written == reference_dump(cfg, instances, fresh)
        assert len(written.splitlines()) == len(POLICY_NAMES) * 3 * 4 * 2 * 3


class TestSweepRho:
    def test_single_rho_single_row(self, tmp_path):
        cfg = parse_config(small_config(tmp_path, policies=["spi"]))
        rows, slope = sweep_rho(cfg, [2])
        assert len(rows) == 1
        assert np.isnan(slope)
        text = (tmp_path / "out" / "gap_curve.csv").read_text()
        assert text.startswith("rho,gap,ci,normalized_gap")
        assert "# loglog_slope=" in text

    def test_rejects_unsorted(self, tmp_path):
        cfg = parse_config(small_config(tmp_path, policies=["spi"]))
        with pytest.raises(ConfigError):
            sweep_rho(cfg, [4, 2])

    def test_injected_constant_gap(self, tmp_path, monkeypatch):
        cfg = parse_config(small_config(tmp_path, policies=["spi"]))
        g = 0.125  # per-arm gap to inject

        def fake_evaluate(instance, policy, episodes, base_seed):
            ub = lp.upper_bound(instance)
            mean = ub - g * instance.n_arms
            return Summary(mean=mean, half_width=0.0, n_episodes=episodes,
                           wall_clock=0.0, rewards=np.full(episodes, mean))

        monkeypatch.setattr(experiments, "evaluate", fake_evaluate)
        rows, slope = sweep_rho(cfg, [1, 2, 4])
        for r in rows:
            assert r["gap"] == pytest.approx(g, abs=1e-12)

    def test_solves_the_lp_once_and_scales_it(self, tmp_path, monkeypatch):
        cfg = parse_config(small_config(tmp_path, policies=["spi"]))
        solve = lp.upper_bound
        solved = []
        monkeypatch.setattr(lp, "upper_bound", lambda inst: solved.append(inst.rho) or solve(inst))

        def zero_mean(instance, policy, episodes, base_seed):
            return Summary(mean=0.0, half_width=0.0, n_episodes=episodes,
                           wall_clock=0.0, rewards=np.zeros(episodes))

        monkeypatch.setattr(experiments, "evaluate", zero_mean)
        rho_list = [2, 5, 10, 100, 1000]
        rows, _ = sweep_rho(cfg, rho_list)
        assert solved == [2]
        for rho, r in zip(rho_list, rows):
            inst = make_instance(cfg.domain_spec(cfg.instance_seeds[0]), budget=cfg.budget,
                                 rho=rho, horizon=cfg.horizon)
            fresh = solve(inst)
            assert r["gap"] * inst.n_arms == pytest.approx(fresh, rel=1e-12, abs=0.0)

    def test_fit_names_the_points_it_used(self, tmp_path, monkeypatch):
        # the rho=2 mean beats the bound, so the fit drops that point and says so
        cfg = parse_config(small_config(tmp_path, policies=["spi"]))
        gaps = {1: 0.5, 2: -0.01, 4: 0.125, 8: 0.0625}

        def fake_evaluate(instance, policy, episodes, base_seed):
            mean = lp.upper_bound(instance) * (1.0 - gaps[instance.rho])
            return Summary(mean=mean, half_width=0.0, n_episodes=episodes,
                           wall_clock=0.0, rewards=np.full(episodes, mean))

        monkeypatch.setattr(experiments, "evaluate", fake_evaluate)
        rows, slope = sweep_rho(cfg, [1, 2, 4, 8])
        assert rows[1]["normalized_gap"] < 0
        assert slope == pytest.approx(-1.0, abs=1e-9)
        lines = (tmp_path / "out" / "gap_curve.csv").read_text().splitlines()
        assert lines[-2].startswith("# loglog_slope=")
        assert lines[-1] == "# fitted_rho=1;4;8"

    def test_slope_fit(self):
        xs = [1, 2, 4, 8]
        ys = [1.0, 0.5, 0.25, 0.125]
        assert fit_loglog_slope(xs, ys) == pytest.approx(-1.0, abs=1e-12)


def drawn_instances(cfg, seeds=(0, 1, 2)):
    return {seed: cfg.instance(seed) for seed in seeds}


class TestTiming:
    def test_requires_spi_and_whittle(self, tmp_path):
        cfg = parse_config(small_config(tmp_path, policies=["spi", "random"],
                                        measure_runtime=True))
        with pytest.raises(ConfigError, match="spi and a whittle variant"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_run_experiment_writes_timing_csv(self, tmp_path):
        cfg = parse_config(small_config(tmp_path, episodes=2, measure_runtime=True,
                                        policies=["spi", "whittle-finite"]))
        run_experiment(cfg)
        lines = (tmp_path / "out" / "timing.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["policy", "spi", "whittle-finite"]

    def test_emits_positive_times(self, tmp_path):
        cfg = parse_config(small_config(tmp_path, episodes=2,
                                        policies=["spi", "whittle-finite"]))
        stats = time_policies(cfg, drawn_instances(cfg))
        assert {s["policy"] for s in stats} == {"spi", "whittle-finite"}
        assert all(s["mean_ms"] > 0 for s in stats)
        assert (tmp_path / "out" / "timing.csv").exists()

    def test_pads_with_distinct_fresh_seeds(self, tmp_path, monkeypatch):
        drawn = []

        def recording_make_instance(spec, **kw):
            drawn.append(spec.seed)
            return make_instance(spec, **kw)

        monkeypatch.setattr(experiments, "make_instance", recording_make_instance)
        cfg = parse_config(small_config(tmp_path, episodes=2, instance_seeds=[3, 2],
                                        policies=["spi", "whittle-finite"],
                                        measure_runtime=True))
        run_experiment(cfg)
        # each seed once: the evaluation and the timing pass share the draws of 3 and 2
        assert drawn == [3, 2, 4]
        header = (tmp_path / "out" / "timing.csv").read_text().splitlines()[0]
        assert header == "policy,mean_ms,std_ms"

    def test_clocks_are_the_evaluation_wall_clocks(self, tmp_path, monkeypatch):
        cfg = parse_config(small_config(tmp_path, episodes=2,
                                        policies=["spi", "whittle-finite", "random"]))
        instances = drawn_instances(cfg)
        clock = {id(inst): ms / 1e3 for inst, ms in zip(instances.values(), (1.0, 2.0, 3.0))}

        def fake_evaluate(instance, policy, n_episodes, base_seed):
            return Summary(mean=0.0, half_width=0.0, n_episodes=n_episodes,
                           wall_clock=clock[id(instance)])

        monkeypatch.setattr(experiments, "evaluate", fake_evaluate)
        stats = time_policies(cfg, instances)
        assert [s["policy"] for s in stats] == cfg.policies
        for s in stats:
            assert s["mean_ms"] == pytest.approx(2.0, rel=1e-12)
            assert s["std_ms"] == pytest.approx(1.0, rel=1e-12)
        lines = (tmp_path / "out" / "timing.csv").read_text().splitlines()
        assert lines[0] == "policy,mean_ms,std_ms"
        assert len(lines) == 1 + len(cfg.policies)


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(tmp_path, **overrides)))
        return str(path)

    def test_happy_path(self, tmp_path, capsys):
        rc = cli.main(["--config", self.write_config(tmp_path), "--episodes", "5"])
        assert rc == cli.EXIT_OK
        assert (tmp_path / "out" / "results.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG

    def test_bad_policy_override(self, tmp_path):
        rc = cli.main(["--config", self.write_config(tmp_path),
                       "--policies", "nonsense"])
        assert rc == cli.EXIT_CONFIG

    def test_seed_range_override(self, tmp_path):
        rc = cli.main(["--config", self.write_config(tmp_path, episodes=4),
                       "--seeds", "3..4"])
        assert rc == cli.EXIT_OK
        csv = (tmp_path / "out" / "results.csv").read_text().splitlines()
        seeds = {line.split(",")[2] for line in csv[1:]}
        assert seeds == {"3", "4"}

    def test_sweep_mode(self, tmp_path):
        rc = cli.main(["--config", self.write_config(tmp_path, policies=["spi"],
                                                     episodes=4),
                       "--sweep-rho", "1,2"])
        assert rc == cli.EXIT_OK
        assert (tmp_path / "out" / "gap_curve.csv").exists()

    def test_sweep_on_a_zero_bound_leaves_the_normalized_gap_empty(self, tmp_path):
        # with no budget MHMH's bound is 0, so 1 - mean / bound is undefined
        setting = {"n_types": 2, "n_states": 3, "budget": 0, "rho": 1, "horizon": 3}
        rc = cli.main(["--config", self.write_config(
            tmp_path, domain={"family": "MHMH"}, setting=setting, policies=["spi"], episodes=4),
            "--sweep-rho", "1,2"])
        assert rc == cli.EXIT_OK
        lines = (tmp_path / "out" / "gap_curve.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert [row[0] for row in rows] == ["1", "2"]
        assert all(row[3] == "" for row in rows)
        assert "# fitted_rho=" in lines

    @pytest.mark.parametrize("sweep", [[], ["--sweep-rho", "1,2"]], ids=["run", "sweep"])
    def test_output_directory_that_cannot_be_made(self, tmp_path, capsys, sweep):
        (tmp_path / "file").write_text("")
        argv = ["--config", self.write_config(tmp_path, policies=["spi"], episodes=2),
                "--out", str(tmp_path / "file" / "sub")] + sweep
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--seeds", "3-4"], ["--policies", ","],
                                       ["--policies", "spi,nosuch"],
                                       ["--episodes", "1"], ["--seeds", "4..3"]])
    def test_rejected_override_writes_nothing(self, tmp_path, flags):
        rc = cli.main(["--config", self.write_config(tmp_path)] + flags)
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", [{"base_seed": -1}, {"instance_seeds": [-1]},
                                       {"instance_seeds": [0, 0]}, "--seeds=-1..1",
                                       {"resample_instances": 3, "instance_seeds": [5]}])
    def test_rejected_seeds_write_nothing(self, tmp_path, given):
        if isinstance(given, dict):
            argv = ["--config", self.write_config(tmp_path, **given)]
        else:
            argv = ["--config", self.write_config(tmp_path), given]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", [{"policies": ["spi", "spi", "random"]},
                                       "--policies=spi,spi"])
    def test_repeated_policies_write_nothing(self, tmp_path, given):
        if isinstance(given, dict):
            argv = ["--config", self.write_config(tmp_path, **given)]
        else:
            argv = ["--config", self.write_config(tmp_path), given]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rho_list", ["a", "0", ",", "4,2", "2,2,4"])
    def test_rejected_sweep_rho_writes_nothing(self, tmp_path, rho_list):
        rc = cli.main(["--config", self.write_config(tmp_path, policies=["spi"]),
                       "--sweep-rho", rho_list])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_random_beyond_its_arm_limit_writes_nothing(self, tmp_path):
        setting = {"n_types": 2, "n_states": 3, "budget": 1, "rho": 5 * 10**8, "horizon": 3}
        rc = cli.main(["--config", self.write_config(tmp_path, setting=setting)])
        assert rc == cli.EXIT_CONFIG
        rc = cli.main(["--config", self.write_config(tmp_path, policies=["random"]),
                       "--sweep-rho", f"1,{5 * 10**8}"])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", [{"policies": ["random", "spi"]},
                                       {"policies": ["spi"], "instance_seeds": [3, 5]}],
                             ids=["two-policies", "two-seeds"])
    def test_sweep_rho_with_more_than_one_policy_or_seed_writes_nothing(self, tmp_path, given):
        # gap_curve.csv names neither, so the sweep takes exactly one of each
        argv = ["--config", self.write_config(tmp_path, episodes=2, **given),
                "--sweep-rho", "1,2"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, key", [("--timing", "measure_runtime"),
                                           ("--dump-trajectories", "dump_trajectories")])
    @pytest.mark.parametrize("given_as", ["flag", "config key"])
    def test_sweep_rho_rejects_timing_and_dump(self, tmp_path, flag, key, given_as):
        extra = {key: True} if given_as == "config key" else {}
        argv = ["--config", self.write_config(tmp_path, policies=["spi"], **extra),
                "--sweep-rho", "1,2"]
        rc = cli.main(argv + ([flag] if given_as == "flag" else []))
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("domain, n_states", [
        pytest.param({"family": "MHMH"}, 4, id="mhmh-4-states"),
        pytest.param({"family": "EHRENFEST"}, 12, id="ehrenfest-dt-too-coarse"),
        pytest.param({"family": "MHMH", "params": {"C": 1.5}}, 3, id="mhmh-C-outside-0-1"),
        pytest.param({"family": "CPAP", "params": {"bogus": 1}}, 3, id="cpap-unknown-key"),
        pytest.param({"family": "MHMH", "params": {"eta_r_x": [0.1, 0.2]}}, 3,
                     id="mhmh-misspelled-range"),
        pytest.param({"family": "CPAP", "params": {"active_only_rewards": "false"}}, 3,
                     id="cpap-string-boolean"),
    ])
    @pytest.mark.parametrize("sweep", [[], ["--sweep-rho", "1,2"]], ids=["run", "sweep"])
    def test_domain_the_generator_rejects_writes_nothing(self, tmp_path, domain, n_states,
                                                           sweep):
        setting = {"n_types": 2, "n_states": n_states, "budget": 1, "rho": 2, "horizon": 3}
        path = self.write_config(tmp_path, domain=domain, setting=setting, policies=["spi"])
        assert cli.main(["--config", path] + sweep) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_timing_seed_the_generator_rejects_writes_nothing(self, tmp_path):
        # instance seed 0 draws a valid EHRENFEST instance; the timing
        # padding's seed 1 does not (dt*max(mu*S, lam*S) >= 1)
        setting = {"n_types": 1, "n_states": 11, "budget": 1, "rho": 2, "horizon": 4}
        path = self.write_config(tmp_path, domain={"family": "EHRENFEST"}, setting=setting,
                                 instance_seeds=[0], policies=["spi", "whittle-finite"])
        assert cli.main(["--config", path, "--timing"]) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_timing_leaves_every_report_byte_identical(self, tmp_path):
        # the cli-report benchmark case: MHMH N=10 S=3 T=10 K=3 rho=10, all policies
        setting = {"n_types": 10, "n_states": 3, "budget": 3, "rho": 10, "horizon": 10}
        path = self.write_config(tmp_path, domain={"family": "MHMH"}, setting=setting,
                                 policies=list(POLICY_NAMES), base_seed=1)
        written = {}
        for timing in ([], ["--timing"]):
            out = tmp_path / ("timed" if timing else "plain")
            argv = ["--config", path, "--out", str(out), "--dump-trajectories"] + timing
            assert cli.main(argv) == cli.EXIT_OK
            written[bool(timing)] = [(out / name).read_bytes() for name in
                                     ("results.csv", "results.txt", "trajectories.jsonl")]
        assert written[True] == written[False]
        assert (tmp_path / "timed" / "timing.csv").exists()
        assert not (tmp_path / "plain" / "timing.csv").exists()

    @pytest.mark.parametrize("key", ["n_types", "n_states", "budget", "rho", "horizon"])
    def test_integral_float_setting_runs_as_its_integer(self, tmp_path, key):
        # JSON's integer type admits 2.0; the run must equal the one with 2
        setting = {"n_types": 2, "n_states": 3, "budget": 1, "rho": 2, "horizon": 3}
        written = []
        for given in (setting, {**setting, key: float(setting[key])}):
            out = tmp_path / f"out-{len(written)}"
            path = self.write_config(tmp_path, domain={"family": "CPAP"}, setting=given,
                                     episodes=4, out_dir=str(out))
            assert cli.main(["--config", path]) == cli.EXIT_OK
            written.append((out / "results.csv").read_bytes())
        assert written[1] == written[0]

    @pytest.mark.parametrize("base_seed, code", [(2**64 - 1, cli.EXIT_CONFIG),
                                                 (2**64 - 2, cli.EXIT_OK)])
    def test_episode_seeds_fit_in_uint64(self, tmp_path, base_seed, code):
        # episode seeds base_seed and base_seed + 1 each key a uint64 Philox stream
        path = self.write_config(tmp_path, base_seed=base_seed, episodes=2)
        assert cli.main(["--config", path]) == code
        assert (tmp_path / "out").exists() == (code == cli.EXIT_OK)

    def test_timing_without_whittle_writes_no_report(self, tmp_path):
        rc = cli.main(["--config", self.write_config(tmp_path), "--timing"])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_audit_failure_exit_code(self, tmp_path, monkeypatch):
        def breach(*args, **kwargs):
            raise InfeasibleAction("constraint audit failed: injected")

        monkeypatch.setattr(experiments, "evaluate", breach)
        rc = cli.main(["--config", self.write_config(tmp_path), "--episodes", "2"])
        assert rc == cli.EXIT_AUDIT

    def test_lp_failure_exit_code(self, tmp_path, monkeypatch):
        stall_highs(monkeypatch, "kSolveError")
        rc = cli.main(["--config", self.write_config(tmp_path), "--episodes", "2"])
        assert rc == cli.EXIT_SOLVER
        assert (tmp_path / "out" / "failed_instance_0.json").exists()

    @pytest.mark.parametrize("failure", [NonConvergent, NotIndexable, SolverStall])
    def test_timing_failure_saves_its_instance_and_exits_3(self, tmp_path, monkeypatch, failure):
        # whittle-infinite prepares on seed 0 in the evaluation pass, then on
        # the timing seeds 0, 1, 2: its third build, on timing seed 1, fails
        real, builds = policies.whittle_index_infinite, []

        def third_build_fails(models, *args):
            builds.append(len(models))
            if len(builds) == 3:
                raise failure("injected")
            return real(models, *args)

        monkeypatch.setattr(policies, "whittle_index_infinite", third_build_fails)
        setting = {"n_types": 2, "n_states": 3, "budget": 1, "rho": 2, "horizon": 4}
        path = self.write_config(tmp_path, setting=setting, policies=["spi", "whittle-infinite"])
        rc = cli.main(["--config", path, "--episodes", "2", "--timing"])
        assert rc == cli.EXIT_SOLVER
        assert len(builds) == 3
        saved = load_instance(str(tmp_path / "out" / "failed_instance_1.json"))
        drawn = parse_config(json.loads((tmp_path / "cfg.json").read_text())).instance(1)
        for a, b in zip(saved.types, drawn.types):
            assert np.array_equal(a.transitions, b.transitions)
            assert np.array_equal(a.rewards, b.rewards)
        assert not (tmp_path / "out" / "timing.csv").exists()

    def test_sweep_bound_failure_saves_its_instance_and_exits_3(self, tmp_path, monkeypatch):
        stall_highs(monkeypatch, "kSolveError")
        path = self.write_config(tmp_path, policies=["spi"], instance_seeds=[3])
        rc = cli.main(["--config", path, "--episodes", "2", "--sweep-rho", "1,2"])
        assert rc == cli.EXIT_SOLVER
        assert load_instance(str(tmp_path / "out" / "failed_instance_3.json")).rho == 1
        assert not (tmp_path / "out" / "gap_curve.csv").exists()

    @pytest.mark.parametrize("failure", [NonConvergent, NotIndexable, SolverStall])
    def test_sweep_evaluation_failure_saves_its_instance_and_exits_3(self, tmp_path,
                                                                      monkeypatch, failure):
        # whittle-infinite prepares once per rho: the build at rho=2 fails
        real, builds = policies.whittle_index_infinite, []

        def second_build_fails(models, *args):
            builds.append(len(models))
            if len(builds) == 2:
                raise failure("injected")
            return real(models, *args)

        monkeypatch.setattr(policies, "whittle_index_infinite", second_build_fails)
        setting = {"n_types": 2, "n_states": 3, "budget": 1, "rho": 2, "horizon": 4}
        path = self.write_config(tmp_path, setting=setting, policies=["whittle-infinite"],
                                 instance_seeds=[3])
        rc = cli.main(["--config", path, "--episodes", "2", "--sweep-rho", "1,2,4"])
        assert rc == cli.EXIT_SOLVER
        assert len(builds) == 2
        saved = load_instance(str(tmp_path / "out" / "failed_instance_3.json"))
        drawn = parse_config(json.loads((tmp_path / "cfg.json").read_text())).instance(3)
        assert saved.rho == 2
        for a, b in zip(saved.types, drawn.types):
            assert np.array_equal(a.transitions, b.transitions)
            assert np.array_equal(a.rewards, b.rewards)
        assert not (tmp_path / "out" / "gap_curve.csv").exists()
