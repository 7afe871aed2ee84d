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
from singlepull.domains import CPAP, EHRENFEST, FAMILIES, DomainSpec, make_instance
from singlepull.model import point_initial
from singlepull.oracle import policy_select_adapter, uniform_random_select
from singlepull.policies import POLICY_NAMES
from singlepull.simulator import lift

import oracle_reference as ref
from conftest import random_arm, random_tiny_instance


def drift_instance(rho=1, budget=1, horizon=2):
    """rho arms that drift 0 -> 1 for sure; a pull pays 4 in state 0 and 5 in state 1."""
    P = np.zeros((2, 2, 2))
    P[:, :, 1] = 1.0
    r = np.array([[0.0, 4.0], [0.0, 5.0]])
    m = ArmModel(n_states=2, transitions=P, rewards=r)
    return Instance(types=(m,), rho=rho, budget=budget, horizon=horizon,
                    initial=(point_initial(2, 0),))


def family_instance(family, n_types, rho, budget=1, seed=0):
    """An oracle-sized instance of family at T=4: S=3, or S=2 (three levels) for EHRENFEST."""
    S = 2 if family == EHRENFEST else 3
    return make_instance(DomainSpec(family, n_types, S, seed=seed),
                         budget=budget, rho=rho, horizon=4)


def prepared_rule(inst, name):
    """The exact oracle's rule for policy name prepared on inst, and the policy."""
    pol = make_policy(name)
    pol.prepare(inst)
    select = (uniform_random_select(inst) if name == "random"
              else policy_select_adapter(inst, pol))
    return select, pol


@pytest.fixture(scope="module")
def dominance_cases():
    """Per family, (instance, exact optimum, LP bound) at N=2 with rho 1 and 2
    and N=4 with rho 1, each at K 1 and 2, seeds 0 and 1."""
    cases = {}
    for family in FAMILIES:
        instances = [family_instance(family, n, rho, budget, seed)
                     for n, rho in ((2, 1), (2, 2), (4, 1)) for budget in (1, 2)
                     for seed in (0, 1)]
        cases[family] = [(inst, exact_optimum(inst), upper_bound(inst)) for inst in instances]
    return cases


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
                a = np.zeros_like(states)
                order = [which, 1 - which]
                for row, x in zip(a, states):
                    for i in order:
                        if x[i] < m.n_states:  # not pulled: still in the normal half
                            row[i] = 1
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

    def test_probabilities_that_sum_short_of_one_are_rejected(self):
        # half a pull at t=1 and nothing else would read 1.25, where that pull is worth 5
        with pytest.raises(ValueError, match="t=1"):
            exact_policy_value(drift_instance(), lambda s, t: [(0.5, np.array([int(t == 1)]))])

    def test_negative_probabilities_are_rejected(self):
        # -1 on the pull and 2 on the pass sum to 1, and would read -5
        def rule(states, t):
            return [(-1.0, np.array([int(t == 1)])), (2.0, np.array([0]))]
        with pytest.raises(ValueError, match="t=1"):
            exact_policy_value(drift_instance(), rule)

    def test_select_is_called_once_per_epoch(self):
        inst = family_instance(CPAP, 2, 2)  # 4 arms of 6 expanded states
        select, _ = prepared_rule(inst, "spi")
        calls = []

        def counted(states, t):
            calls.append((t, states.shape))
            return select(states, t)
        exact_policy_value(inst, counted)
        assert calls == [(t, (6 ** 4, 4)) for t in reversed(range(inst.horizon))]

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_stacked_rule_equals_the_per_state_reference(self, name):
        # the per-state loop the oracle ran before select took stacks, on one-row stacks
        for family in FAMILIES:
            inst = family_instance(family, 2, 1)
            select, _ = prepared_rule(inst, name)
            assert exact_policy_value(inst, select) == ref.exact_policy_value(inst, select)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_adapter_lifts_each_row_as_simulator_lift_does(self, family):
        inst = family_instance(family, 2, 2, budget=2)
        tables = inst.tables
        type_of = np.repeat(np.arange(inst.n_types), inst.rho)
        dims = [m.n_states for m in inst.expanded for _ in range(inst.rho)]
        joint = np.indices(dims).reshape(len(dims), -1).T
        states = joint[np.random.default_rng(3).choice(len(joint), 200, replace=False)]
        for name in (n for n in POLICY_NAMES if n != "random"):
            select, pol = prepared_rule(inst, name)
            for t in range(inst.horizon):
                got = select(states, t)
                assert got.shape == states.shape
                for x, actions in zip(states, got):
                    ids = tables.offset[type_of] + x
                    counts = np.bincount(ids, minlength=len(tables.dummy))
                    want = lift(pol.select(counts, t, inst.step_budget, None), ids)
                    assert np.array_equal(actions, want), (name, t, x)

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

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_policy_never_beats_exact_optimum(self, name, family, dominance_cases):
        for inst, optimum, bound in dominance_cases[family]:
            value = exact_policy_value(inst, prepared_rule(inst, name)[0])
            assert value <= optimum + 1e-9
            assert optimum <= bound + 1e-9

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
        assert select(np.array([[1, 0, 0, 0]]), 0).tolist() == [[1, 1, 0, 0]]
        assert select(np.array([[0, 2, 0, 0]]), 0).tolist() == [[1, 0, 1, 0]]


def assert_monte_carlo_matches_exact(inst, name):
    """The simulated mean lies within 3 half-widths of the policy's exact value."""
    select, pol = prepared_rule(inst, name)
    val = exact_policy_value(inst, select)
    summary = evaluate(inst, pol, 3000, base_seed=0, prepared=True)
    assert abs(summary.mean - val) <= 3 * max(summary.half_width, 1e-9)
