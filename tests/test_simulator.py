import numpy as np
import pytest

from singlepull import (
    ArmModel,
    Instance,
    InfeasibleAction,
    evaluate,
    make_policy,
    normalize_scores,
    run_episode,
    step,
)
from singlepull import POLICY_NAMES, domains, model, simulator
from singlepull.model import ArmTables, expand_with_dummies, point_initial, validate_arm
from singlepull.policies import dummy_mask_for, mean_field_select, spi_select
from singlepull.simulator import DegenerateRange, audit_episode
from singlepull.whittle import IndexTable

import simulator_reference as ref
from conftest import random_arm


def cpap3_arm(q=0.6):
    P = np.zeros((3, 2, 3))
    for s in range(3):
        P[s, 0, max(s - 1, 0)] = 1.0
        P[s, 1, min(s + 1, 2)] += q
        P[s, 1, max(s - 1, 0)] += 1 - q
    r = np.tile(np.arange(1.0, 4.0)[:, None], (1, 2))
    return ArmModel(n_states=3, transitions=P, rewards=r)


def zero_passive_arm(rng):
    return random_arm(rng, 3)  # r(s, 0) = 0 by construction


def short_rows_arm():
    """Two states whose rows sum to 1 - 5e-10, inside the validation tolerance."""
    return ArmModel(n_states=2, transitions=np.full((2, 2, 2), 0.5 - 2.5e-10),
                    rewards=np.zeros((2, 2)))


class Fixed:
    """Stand-in generator whose uniform draws all equal u."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


def spi_tables(arm):
    """The arm tables an SPI policy prepared on one type of arm runs its episodes on."""
    inst = Instance(types=(arm,), rho=2, budget=1, horizon=2,
                    initial=(point_initial(arm.n_states, 0),))
    pol = make_policy("spi")
    pol.prepare(inst)
    return pol.tables


class TestStep:
    def test_deterministic_passive_decay(self):
        m = cpap3_arm()
        rng = np.random.default_rng(0)
        states = np.array([2, 1])
        nxt, reward = step(states, np.zeros(2, dtype=int), ArmTables.build([m]),
                           np.zeros(2, dtype=int), np.zeros(2, dtype=bool), 2, rng)
        assert nxt.tolist() == [1, 0]
        assert reward == pytest.approx(3.0 + 2.0)

    def test_zero_actions_zero_passive_reward(self, rng):
        m = zero_passive_arm(rng)
        local = np.random.default_rng(0)
        _, reward = step(np.array([0, 1, 2]), np.zeros(3, dtype=int), ArmTables.build([m]),
                         np.zeros(3, dtype=int), np.zeros(3, dtype=bool), 3, local)
        assert reward == 0.0

    def test_next_state_stays_in_range_when_row_sums_short_of_one(self):
        # rows sum to 1 - 5e-10, inside the validation tolerance, and a
        # uniform draw above the last cumulative sum must land in the last
        # state of the arm's half: S - 1 when passive, 2S - 1 when pulled
        m = short_rows_arm()
        assert validate_arm(m).ok
        nxt, _ = step(np.array([0, 1]), np.array([0, 1]), ArmTables.build([m]),
                      np.zeros(2, dtype=int), np.zeros(2, dtype=bool), 2, Fixed(1.0 - 1e-12))
        assert nxt.tolist() == [1, 3]

    def test_unpulled_passive_arm_stays_in_normal_half_on_a_draw_above_the_row_sum(self):
        nxt, _ = step(np.array([0, 1]), np.array([0, 0]), spi_tables(short_rows_arm()),
                      np.zeros(2, dtype=int), np.zeros(2, dtype=bool), 2, Fixed(1.0 - 1e-12))
        assert nxt.tolist() == [1, 1]

    def test_pull_on_a_zero_draw_lands_in_dummy_half(self):
        nxt, _ = step(np.array([1]), np.array([1]), spi_tables(cpap3_arm()),
                      np.zeros(1, dtype=int), np.zeros(1, dtype=bool), 1, Fixed(0.0))
        assert nxt.tolist() == [3]

    def test_short_rows_stay_in_range_beside_a_wider_type(self, rng):
        # the flat table pads the 2-state type to the 3-state type's width;
        # its own last state must still absorb the draw above the row sum
        tables = ArmTables.build([short_rows_arm(), random_arm(rng, 3)])
        nxt, _ = step(np.array([0, 1, 0]), np.array([0, 1, 0]), tables, np.array([0, 0, 1]),
                      np.zeros(3, dtype=bool), 3, Fixed(1.0 - 1e-12))
        assert nxt.tolist() == [1, 3, 2]

    def test_budget_violation_raises(self, rng):
        m = zero_passive_arm(rng)
        local = np.random.default_rng(0)
        with pytest.raises(InfeasibleAction):
            step(np.array([0, 1]), np.array([1, 1]), ArmTables.build([m]),
                 np.zeros(2, dtype=int), np.zeros(2, dtype=bool), 1, local)

    def test_repull_raises(self, rng):
        m = zero_passive_arm(rng)
        local = np.random.default_rng(0)
        with pytest.raises(InfeasibleAction):
            step(np.array([0]), np.array([1]), ArmTables.build([m]),
                 np.zeros(1, dtype=int), np.array([True]), 5, local)


class TestRunEpisode:
    def test_budget_zero_is_passive_trajectory(self):
        m = cpap3_arm()
        inst = Instance(types=(m,), rho=2, budget=0, horizon=4,
                        initial=(point_initial(3, 2),))
        pol = make_policy("random")
        pol.prepare(inst)
        result = run_episode(inst, pol, seed=0)
        # deterministic decay from the top state: 3+2+1+1 per arm
        assert result.total_reward == pytest.approx(2 * (3 + 2 + 1 + 1))
        assert result.per_step_pulls.sum() == 0

    def test_single_arm_immediate_pull(self, rng):
        m = random_arm(rng, 2)
        inst = Instance(types=(m,), rho=1, budget=1, horizon=1,
                        initial=(point_initial(2, 1),))
        pol = make_policy("spi")
        pol.prepare(inst)
        assert pol.table.values[0][1, 0] > 0
        result = run_episode(inst, pol, seed=4)
        assert result.total_reward == pytest.approx(m.rewards[1, 1])
        assert result.pull_time.tolist() == [0]

    def test_same_seed_identical(self, rng):
        types = tuple(random_arm(rng, 3) for _ in range(2))
        inst = Instance(types=types, rho=2, budget=1, horizon=4,
                        initial=(np.full(3, 1 / 3), np.full(3, 1 / 3)))
        pol = make_policy("spi")
        pol.prepare(inst)
        a = run_episode(inst, pol, seed=9)
        b = run_episode(inst, pol, seed=9)
        assert a.total_reward == b.total_reward
        assert np.array_equal(a.per_step_pulls, b.per_step_pulls)
        assert np.array_equal(a.pull_time, b.pull_time)

    def test_trajectory_record_shape(self, rng):
        m = random_arm(rng, 2)
        inst = Instance(types=(m,), rho=2, budget=1, horizon=3,
                        initial=(point_initial(2, 0),))
        pol = make_policy("random")
        pol.prepare(inst)
        result = run_episode(inst, pol, seed=1, record=True)
        assert len(result.trajectory) == 3 * 2  # (t, arm) pairs
        t, arm, state, action, reward = result.trajectory[0]
        assert t == 0 and arm in (0, 1) and action in (0, 1)


    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_dummy_half_exactly_after_the_first_pull(self, name):
        for inst in family_instances():
            pol = make_policy(name)
            pol.prepare(inst)
            sizes = [m.n_states for m in inst.types]
            for seed in range(3):
                result = run_episode(inst, pol, seed, record=True)
                assert result.pull_time.max() >= 0
                for t, arm, state, _, _ in result.trajectory:
                    pulled_before = 0 <= result.pull_time[arm] < t
                    assert (state >= sizes[arm // inst.rho]) == pulled_before


class TestEvaluate:
    def test_deterministic_instance_zero_halfwidth(self):
        m = cpap3_arm()
        inst = Instance(types=(m,), rho=2, budget=0, horizon=3,
                        initial=(point_initial(3, 2),))
        summary = evaluate(inst, make_policy("random"), 20, base_seed=0)
        assert summary.half_width == 0.0

    def test_ci_matches_analytic_for_iid_rewards(self):
        # 1 arm, K = 0, T = 1: episode reward is r(s0, 0) with s0 ~ (1/2, 1/2)
        P = np.zeros((2, 2, 2))
        P[:, :, 0] = 1.0
        r = np.array([[0.0, 0.0], [1.0, 0.0]])
        m = ArmModel(n_states=2, transitions=P, rewards=r)
        inst = Instance(types=(m,), rho=1, budget=0, horizon=1,
                        initial=(np.array([0.5, 0.5]),))
        n = 1000
        summary = evaluate(inst, make_policy("random"), n, base_seed=0)
        analytic = 1.96 * 0.5 / np.sqrt(n)
        assert summary.half_width == pytest.approx(analytic, rel=0.10)

    def test_bit_reproducible(self, rng):
        types = tuple(random_arm(rng, 3) for _ in range(2))
        inst = Instance(types=types, rho=2, budget=1, horizon=3,
                        initial=(np.full(3, 1 / 3), np.full(3, 1 / 3)))
        a = evaluate(inst, make_policy("spi"), 50, base_seed=11)
        b = evaluate(inst, make_policy("spi"), 50, base_seed=11)
        assert np.array_equal(a.rewards, b.rewards)

    def test_prepared_policy_runs_only_on_its_own_instance(self):
        def random_instance(seed):
            return domains.make_instance(domains.DomainSpec(domains.RANDOM, 2, 3, seed=seed),
                                         budget=1, rho=2, horizon=4)

        inst = random_instance(0)
        pol = make_policy("spi")
        pol.prepare(inst)
        assert evaluate(inst, pol, 5, base_seed=0, prepared=True).n_episodes == 5
        with pytest.raises(ValueError, match="not prepared for this instance"):
            evaluate(random_instance(1), pol, 5, base_seed=0, prepared=True)
        with pytest.raises(ValueError, match="not prepared for this instance"):
            run_episode(random_instance(0), pol, seed=0)  # an equal copy is not the instance
        with pytest.raises(ValueError, match="not prepared for this instance"):
            run_episode(inst, make_policy("spi"), seed=0)

    def test_needs_two_episodes(self, rng):
        m = random_arm(rng, 2)
        inst = Instance(types=(m,), rho=1, budget=1, horizon=1,
                        initial=(point_initial(2, 0),))
        with pytest.raises(ValueError):
            evaluate(inst, make_policy("random"), 1, base_seed=0)

    def test_episode_independence_lag1(self, rng):
        m = random_arm(rng, 2)
        inst = Instance(types=(m,), rho=2, budget=1, horizon=3,
                        initial=(np.array([0.5, 0.5]),))
        summary = evaluate(inst, make_policy("random"), 1000, base_seed=0)
        x = summary.rewards
        x = x - x.mean()
        denom = float(x @ x)
        assert denom > 0
        rho1 = float(x[:-1] @ x[1:]) / denom
        assert abs(rho1) < 3 / np.sqrt(len(x))


class TestAudit:
    def test_clean_episodes_audit_zero(self, rng):
        types = tuple(random_arm(rng, 3) for _ in range(2))
        inst = Instance(types=types, rho=2, budget=1, horizon=4,
                        initial=(np.full(3, 1 / 3), np.full(3, 1 / 3)))
        for name in ("spi", "meanfield", "whittle-original", "random"):
            pol = make_policy(name)
            pol.prepare(inst)
            for seed in range(5):
                result = run_episode(inst, pol, seed)
                assert audit_episode(result, inst.step_budget) == []

    def test_audit_flags_overbudget(self):
        from singlepull.simulator import EpisodeResult
        r = EpisodeResult(total_reward=0.0,
                          per_step_pulls=np.array([3, 0]),
                          pulls_per_arm=np.array([1, 1, 1]),
                          pull_time=np.array([0, 0, 0]))
        assert audit_episode(r, 2) != []

    def test_audit_flags_repull(self):
        from singlepull.simulator import EpisodeResult
        r = EpisodeResult(total_reward=0.0,
                          per_step_pulls=np.array([1, 1]),
                          pulls_per_arm=np.array([2]),
                          pull_time=np.array([0]))
        assert audit_episode(r, 5) != []


class TestNormalize:
    def test_endpoints(self):
        assert normalize_scores(10.0, upper_bound=10.0, random_mean=2.0) == pytest.approx(1.0)
        assert normalize_scores(2.0, upper_bound=10.0, random_mean=2.0) == pytest.approx(0.0)

    def test_vector_input(self):
        out = normalize_scores([2.0, 6.0, 10.0], upper_bound=10.0, random_mean=2.0)
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            normalize_scores(1.0, upper_bound=1.0, random_mean=2.0)


def mixed_instance(rng, rho=3, horizon=4):
    """Two types with different state counts, S=2 and S=3."""
    types = (random_arm(rng, 2, active_only_rewards=False), random_arm(rng, 3))
    initial = (np.array([0.4, 0.6]), np.array([0.2, 0.3, 0.5]))
    return Instance(types=types, rho=rho, budget=1, horizon=horizon, initial=initial)


def family_instances():
    return [domains.make_instance(domains.DomainSpec(fam, 2, 3, seed=1),
                                  budget=1, rho=3, horizon=4)
            for fam in domains.FAMILIES]


def shuffled_population(rng, models, n_arms, counts=None):
    """A non-contiguous type_of (uneven per-type counts when given) and in-range states."""
    if counts is None:
        type_of = rng.integers(0, len(models), size=n_arms)
    else:
        type_of = rng.permutation(np.repeat(np.arange(len(models)), counts))
    states = np.array([rng.integers(0, models[n].n_states) for n in type_of])
    return type_of, states


def expanded_ids(trajectory, pull_time, sizes, rho):
    """Map a mask-space trajectory's pulled states s to their dummy copies s + S_n."""
    return [(t, i, s + sizes[i // rho] if 0 <= pull_time[i] < t else s, a, r)
            for t, i, s, a, r in trajectory]


class TestAgainstLoopReference:
    """Flat tables give bit-identical results to the per-type loops in simulator_reference."""

    def type_sets(self, rng):
        sets = [[random_arm(rng, 2, active_only_rewards=False), random_arm(rng, 3)]]
        return sets + [list(inst.types) for inst in family_instances()]

    def test_step(self, rng):
        for types in self.type_sets(rng):
            tables = ArmTables.build(types)
            models = [expand_with_dummies(m) for m in types]
            for counts in (None, [5, 9], [700, 1300]):
                n_arms = 14 if counts is None else sum(counts)
                type_of, states = shuffled_population(rng, models, n_arms, counts)
                pulled = rng.random(n_arms) < 0.3
                actions = ((rng.random(n_arms) < 0.5) & ~pulled).astype(np.int64)
                seed = int(rng.integers(1 << 30))
                got = step(states, actions, tables, type_of, pulled, n_arms,
                           np.random.default_rng(seed))
                want = ref.step(states, actions, models, type_of, pulled, n_arms,
                                np.random.default_rng(seed))
                assert np.array_equal(got[0], want[0])
                assert got[1] == want[1]

    def test_step_reward_keeps_type_order_in_blocks(self, rng):
        # equal type blocks take the row-wise sum; values span magnitudes so
        # a different summation order would change the last bits
        types = [ArmModel(n_states=1, transitions=np.ones((1, 2, 1)),
                          rewards=np.array([[v, v]])) for v in (1e16, 1.0, -1e16, 3.0)]
        tables = ArmTables.build(types)
        models = [expand_with_dummies(m) for m in types]
        type_of = np.repeat(np.arange(4), 250)
        states = np.zeros(1000, dtype=np.int64)
        actions = np.zeros(1000, dtype=np.int64)
        pulled = np.zeros(1000, dtype=bool)
        got = step(states, actions, tables, type_of, pulled, 0, np.random.default_rng(0))[1]
        want = ref.step(states, actions, models, type_of, pulled, 0, np.random.default_rng(0))[1]
        assert got == want

    def test_lookup_dummy_mask_and_spi_select(self, rng):
        for types in self.type_sets(rng):
            tables = ArmTables.build(types)
            models = [expand_with_dummies(m) for m in types]
            T = 4
            values = [rng.standard_normal((m.n_states, T)) for m in models]
            values[0][0, :] = 0.0  # ties and non-positive indices
            table = IndexTable(values=values, time_dependent=True)
            stationary = IndexTable(values=[v[:, :1] for v in values], time_dependent=False)
            type_of, states = shuffled_population(rng, models, 17)
            for t in range(T):
                assert np.array_equal(table.lookup(type_of, states, t),
                                      ref.lookup(values, True, type_of, states, t))
                assert np.array_equal(stationary.lookup(type_of, states, t),
                                      ref.lookup(stationary.values, False, type_of, states, t))
                for budget in (0, 3, 17):
                    assert np.array_equal(
                        spi_select(table, tables, type_of, states, t, budget),
                        ref.spi_select(values, models, type_of, states, t, budget))
            assert np.array_equal(dummy_mask_for(tables, type_of, states),
                                  ref.dummy_mask_for(models, type_of, states))

    def test_mean_field_select(self, rng):
        # zero occupancy rows on the dummy half exclude the pulled arms as
        # the reference's pulled mask does on the collapsed states
        for types in self.type_sets(rng):
            T = 3
            blocks = [rng.random((m.n_states, 2, T)) * (rng.random((m.n_states, 2, T)) < 0.7)
                      for m in types]
            offset, occupancy = model.stack_types(
                [np.concatenate([b, np.zeros_like(b)]) for b in blocks])
            type_of, states = shuffled_population(rng, types, 15)
            pulled = rng.random(15) < 0.2
            sizes = np.array([m.n_states for m in types])
            expanded = np.where(pulled, states + sizes[type_of], states)
            for t in range(T):
                for budget in (0, 2, 15):
                    assert np.array_equal(
                        mean_field_select(occupancy, offset, type_of, expanded, t, budget),
                        ref.mean_field_select(blocks, type_of, states, pulled, t, budget))

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_episode_results(self, name, rng):
        for inst in [mixed_instance(rng)] + family_instances():
            pol = make_policy(name)
            pol.prepare(inst)
            sizes = [m.n_states for m in inst.types]
            for seed in range(4):
                got = run_episode(inst, pol, seed, record=True)
                want = ref.run_episode(inst, pol, seed)
                assert got.total_reward == want.total_reward
                assert np.array_equal(got.per_step_pulls, want.per_step_pulls)
                assert np.array_equal(got.pulls_per_arm, want.pulls_per_arm)
                assert np.array_equal(got.pull_time, want.pull_time)
                want_trajectory = want.trajectory
                if name in ref.MASK_SPACE:
                    want_trajectory = expanded_ids(want.trajectory, want.pull_time, sizes,
                                                   inst.rho)
                assert got.trajectory == want_trajectory


class TestTraceBindings:
    """run_episode reaches step and replicate through the simulator module, and
    evaluate validates once per call."""

    def count(self, monkeypatch, owner, name, counts):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def install(self, monkeypatch):
        counts = {}
        self.count(monkeypatch, simulator, "step", counts)
        self.count(monkeypatch, simulator, "replicate", counts)
        self.count(monkeypatch, model, "validate_instance", counts)
        return counts

    def test_run_episode_uses_module_bindings(self, monkeypatch, rng):
        inst = mixed_instance(rng, horizon=5)
        pol = make_policy("random")
        pol.prepare(inst)
        counts = self.install(monkeypatch)
        run_episode(inst, pol, seed=0)
        assert counts == {"replicate": 1, "step": 5}

    @pytest.mark.parametrize("episodes", [2, 7])
    def test_evaluate_validates_once(self, monkeypatch, rng, episodes):
        inst = mixed_instance(rng, horizon=3)
        counts = self.install(monkeypatch)
        evaluate(inst, make_policy("random"), episodes, base_seed=0)
        assert counts == {"validate_instance": 1, "replicate": episodes, "step": 3 * episodes}

    def test_invalid_instance_raises_before_any_episode(self, monkeypatch, rng):
        good = mixed_instance(rng)
        bad = Instance(types=good.types, rho=good.rho, budget=good.budget,
                       horizon=good.horizon, initial=(good.initial[0] * 0.5, good.initial[1]))
        counts = self.install(monkeypatch)
        for name in ("random", "spi"):
            with pytest.raises(ValueError, match="invalid instance"):
                evaluate(bad, make_policy(name), 3, base_seed=0)
        assert "replicate" not in counts and "step" not in counts
