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
from singlepull.model import point_initial, validate_arm
from singlepull.simulator import DegenerateRange, audit_episode

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


class TestStep:
    def test_deterministic_passive_decay(self):
        m = cpap3_arm()
        rng = np.random.default_rng(0)
        states = np.array([2, 1])
        nxt, reward = step(states, np.zeros(2, dtype=int), [m],
                           np.zeros(2, dtype=int), np.zeros(2, dtype=bool), 2, rng)
        assert nxt.tolist() == [1, 0]
        assert reward == pytest.approx(3.0 + 2.0)

    def test_zero_actions_zero_passive_reward(self, rng):
        m = zero_passive_arm(rng)
        local = np.random.default_rng(0)
        _, reward = step(np.array([0, 1, 2]), np.zeros(3, dtype=int), [m],
                         np.zeros(3, dtype=int), np.zeros(3, dtype=bool), 3, local)
        assert reward == 0.0

    def test_next_state_stays_in_range_when_row_sums_short_of_one(self):
        # rows sum to 1 - 5e-10, inside the validation tolerance, and a
        # uniform draw above the last cumulative sum must land in state S - 1
        P = np.full((2, 2, 2), 0.5 - 2.5e-10)
        m = ArmModel(n_states=2, transitions=P, rewards=np.zeros((2, 2)))
        assert validate_arm(m).ok

        class NearOne:
            def random(self, n):
                return np.full(n, 1.0 - 1e-12)

        nxt, _ = step(np.array([0, 1]), np.array([0, 1]), [m], np.zeros(2, dtype=int),
                      np.zeros(2, dtype=bool), 2, NearOne())
        assert nxt.tolist() == [1, 1]

    def test_budget_violation_raises(self, rng):
        m = zero_passive_arm(rng)
        local = np.random.default_rng(0)
        with pytest.raises(InfeasibleAction):
            step(np.array([0, 1]), np.array([1, 1]), [m], np.zeros(2, dtype=int),
                 np.zeros(2, dtype=bool), 1, local)

    def test_repull_raises(self, rng):
        m = zero_passive_arm(rng)
        local = np.random.default_rng(0)
        with pytest.raises(InfeasibleAction):
            step(np.array([0]), np.array([1]), [m], np.zeros(1, dtype=int),
                 np.array([True]), 5, local)


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
        assert pol.table.value(0, 1, 0) > 0
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
