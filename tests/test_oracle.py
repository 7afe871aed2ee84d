import numpy as np
import pytest

from singlepull import (
    ArmModel,
    CapExceeded,
    Instance,
    evaluate,
    exact_optimum,
    exact_policy_value,
    make_policy,
    upper_bound,
)
from singlepull.model import point_initial
from singlepull.oracle import policy_select_adapter, uniform_random_select

from conftest import random_arm, random_tiny_instance


def drift_instance(rho=1, budget=1, horizon=2):
    """rho arms that drift 0 -> 1 for sure; a pull pays 4 in state 0 and 5 in state 1."""
    P = np.zeros((2, 2, 2))
    P[:, :, 1] = 1.0
    r = np.array([[0.0, 4.0], [0.0, 5.0]])
    m = ArmModel(n_states=2, transitions=P, rewards=r)
    return Instance(types=(m,), rho=rho, budget=budget, horizon=horizon,
                    initial=(point_initial(2, 0),))


class TestExactOptimum:
    def test_single_decision(self):
        P = np.ones((1, 2, 1))
        r = np.array([[1.0, 3.0]])
        m = ArmModel(n_states=1, transitions=P, rewards=r)
        inst = Instance(types=(m,), rho=1, budget=1, horizon=1,
                        initial=(point_initial(1, 0),))
        assert exact_optimum(inst) == pytest.approx(3.0)

    def test_waiting_beats_pulling_now(self):
        # deterministic drift 0 -> 1; pulling now pays 4, waiting pays 5
        P = np.zeros((2, 2, 2))
        P[0, 0, 1] = 1.0
        P[1, 0, 1] = 1.0
        P[:, 1, :] = P[:, 0, :]
        r = np.array([[0.0, 4.0], [0.0, 5.0]])
        m = ArmModel(n_states=2, transitions=P, rewards=r)
        inst = Instance(types=(m,), rho=1, budget=1, horizon=2,
                        initial=(point_initial(2, 0),))
        assert exact_optimum(inst) == pytest.approx(5.0)

    def test_bounded_by_lp_upper_bound(self, rng):
        for _ in range(10):
            inst = random_tiny_instance(rng)
            assert exact_optimum(inst) <= upper_bound(inst) + 1e-6

    def test_cap_exceeded(self, rng):
        m = random_arm(rng, 3)
        inst = Instance(types=(m,), rho=6, budget=1, horizon=2,
                        initial=(point_initial(3, 0),))
        with pytest.raises(CapExceeded):
            exact_optimum(inst)
        inst2 = Instance(types=(m,), rho=2, budget=1, horizon=9,
                         initial=(point_initial(3, 0),))
        with pytest.raises(CapExceeded):
            exact_policy_value(inst2, lambda s, t: np.zeros(2, dtype=int))


class TestExactPolicyValue:
    def test_k0_matches_matrix_recursion(self, rng):
        types = tuple(random_arm(rng, 3, active_only_rewards=False) for _ in range(2))
        initial = (point_initial(3, 0), point_initial(3, 2))
        inst = Instance(types=types, rho=2, budget=0, horizon=4, initial=initial)
        got = exact_policy_value(inst, lambda s, t: np.zeros(4, dtype=int))
        expected = 0.0
        for m, d in zip(types, initial):
            dist = d.copy()
            for _ in range(4):
                expected += 2 * float(dist @ m.rewards[:, 0])
                dist = dist @ m.transitions[:, 0, :]
        assert got == pytest.approx(expected, abs=1e-10)

    def test_symmetric_two_arm_orders_agree(self, rng):
        m = random_arm(rng, 2, active_only_rewards=False)
        inst = Instance(types=(m,), rho=2, budget=1, horizon=2,
                        initial=(np.array([0.5, 0.5]),))

        def pull_first(which):
            def sel(states, t):
                a = np.zeros(2, dtype=int)
                order = [which, 1 - which]
                for i in order:
                    if states[i] < m.n_states:  # not pulled: still in the normal half
                        a[i] = 1
                        break
                return a
            return sel

        v0 = exact_policy_value(inst, pull_first(0))
        v1 = exact_policy_value(inst, pull_first(1))
        assert v0 == pytest.approx(v1, abs=1e-10)  # symmetry of identical arms

    def test_pull_now_and_pull_later_match_hand_values(self):
        # the arm of test_waiting_beats_pulling_now: a pull at t=0 pays 4 in
        # state 0, a pull at t=1 pays 5 in state 1, and the passive action 0
        inst = drift_instance()
        assert exact_policy_value(inst, lambda s, t: np.array([int(t == 0)])) == 4.0
        assert exact_policy_value(inst, lambda s, t: np.array([int(t == 1)])) == 5.0

    def test_action_beyond_the_step_budget_is_rejected(self):
        inst = drift_instance(rho=2, budget=0, horizon=1)
        with pytest.raises(ValueError, match="t=0"):
            exact_policy_value(inst, lambda s, t: np.ones(2, dtype=int))

    def test_random_exact_vs_monte_carlo(self, rng):
        inst = random_tiny_instance(rng)
        exact = exact_policy_value(inst, uniform_random_select(inst))
        summary = evaluate(inst, make_policy("random"), 3000, base_seed=0)
        assert abs(summary.mean - exact) <= 3 * max(summary.half_width, 1e-9)

    def test_spi_exact_vs_monte_carlo(self, rng):
        m = random_arm(rng, 3)
        inst = Instance(types=(m,), rho=1, budget=1, horizon=3,
                        initial=(point_initial(3, 0),))
        pol = make_policy("spi")
        pol.prepare(inst)
        exact = exact_policy_value(inst, policy_select_adapter(inst, pol))
        summary = evaluate(inst, pol, 4000, base_seed=0, prepared=True)
        assert abs(summary.mean - exact) <= 3 * max(summary.half_width, 1e-9)

    def test_spi_never_beats_exact_optimum(self, rng):
        for _ in range(8):
            inst = random_tiny_instance(rng)
            pol = make_policy("spi")
            pol.prepare(inst)
            val = exact_policy_value(inst, policy_select_adapter(inst, pol))
            assert val <= exact_optimum(inst) + 1e-9

    def test_mask_space_policy_through_adapter(self, rng):
        assert_monte_carlo_matches_exact(random_tiny_instance(rng), "whittle-original")

    @pytest.mark.parametrize("name", ["spi", "meanfield", "whittle-original",
                                      "whittle-infinite", "whittle-finite", "qdiff", "random"])
    def test_table_policy_matches_exact_value(self, rng, name):
        for _ in range(2):
            assert_monte_carlo_matches_exact(random_tiny_instance(rng), name)

    def test_adapter_lifts_ties_by_state_id_then_arm_id(self):
        # two identical types of two arms each, every normal state with the
        # same index and a cap of 2: the lower global state id goes first,
        # and within a group the lowest arm ids
        P = np.stack([np.eye(2), np.eye(2)], axis=1)
        m = ArmModel(n_states=2, transitions=P, rewards=np.array([[0.0, 1.0], [0.0, 1.0]]))
        inst = Instance(types=(m, m), rho=2, budget=1, horizon=1,
                        initial=(np.array([0.5, 0.5]),) * 2)
        pol = make_policy("whittle-finite")
        pol.prepare(inst)
        select = policy_select_adapter(inst, pol)
        assert select(np.array([1, 0, 0, 0]), 0).tolist() == [1, 1, 0, 0]
        assert select(np.array([0, 2, 0, 0]), 0).tolist() == [1, 0, 1, 0]


def assert_monte_carlo_matches_exact(inst, name):
    """The simulated mean lies within 3 half-widths of the policy's exact value."""
    pol = make_policy(name)
    pol.prepare(inst)
    select = (uniform_random_select(inst) if name == "random"
              else policy_select_adapter(inst, pol))
    val = exact_policy_value(inst, select)
    summary = evaluate(inst, pol, 3000, base_seed=0, prepared=True)
    assert abs(summary.mean - val) <= 3 * max(summary.half_width, 1e-9)
