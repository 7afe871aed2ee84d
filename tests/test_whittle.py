import numpy as np
import pytest

from singlepull import ArmModel, domains, expand_with_dummies, make_policy
from singlepull.domains import DomainSpec, closed_form_whittle, ehrenfest_arm
from singlepull.whittle import (
    DEFAULT_TOL,
    BracketFail,
    NonConvergent,
    _subsidy_index,
    finite_horizon_qdiff,
    q_difference_indices,
    relative_value_iteration,
    whittle_index_finite,
    whittle_index_infinite,
)

from conftest import random_arm
from whittle_reference import (
    backward_qdiff,
    reference_finite,
    reference_infinite,
    rvi_qdiff,
)


def cpap3_arm(q=0.6):
    P = np.zeros((3, 2, 3))
    for s in range(3):
        P[s, 0, max(s - 1, 0)] = 1.0
        P[s, 1, min(s + 1, 2)] += q
        P[s, 1, max(s - 1, 0)] += 1 - q
    r = np.tile(np.arange(1.0, 4.0)[:, None], (1, 2))
    return ArmModel(n_states=3, transitions=P, rewards=r)


class TestInfinite:
    def test_reward_gap_with_identical_transitions(self):
        # both actions share every transition row -> index equals the reward gap
        P = np.zeros((2, 2, 2))
        P[:, 0] = [[0.3, 0.7], [0.6, 0.4]]
        P[:, 1] = P[:, 0]
        r = np.array([[0.0, 1.25], [0.5, 0.5]])
        table = whittle_index_infinite(ArmModel(n_states=2, transitions=P, rewards=r))
        assert table.value(0, 0) == pytest.approx(1.25, abs=1e-5)
        assert table.value(0, 1) == pytest.approx(0.0, abs=1e-5)

    def test_equalization_at_returned_index(self, rng):
        for model in (cpap3_arm(0.4), random_arm(rng, 3, active_only_rewards=False)):
            tol = 1e-6
            table = whittle_index_infinite(model, tol)
            for s in range(model.n_states):
                qd, _ = relative_value_iteration(model, table.value(0, s))
                assert abs(qd[s]) <= tol

    def test_stationary_table_shape(self):
        table = whittle_index_infinite(cpap3_arm())
        assert not table.time_dependent
        assert table.values[0].shape == (3, 1)
        assert table.value(0, 2, t=0) == table.value(0, 2, t=5)

    def test_ehrenfest_symmetric_state_has_zero_index(self):
        S = 4
        arm = ehrenfest_arm(c=2.0, mu=1.0, lam=1.0, S=S, dt=0.01)
        assert closed_form_whittle(2.0, 1.0, 1.0, S, S // 2) == 0.0
        table = whittle_index_infinite(arm)
        assert abs(table.value(0, S // 2) / 0.01) < 0.2

    def test_ehrenfest_closed_form_top_state(self):
        # v(4) = 2 / (1*4) * (1*16 - 1*0) = 8 in rate units
        assert closed_form_whittle(2.0, 1.0, 1.0, 4, 4) == pytest.approx(8.0)
        arm = ehrenfest_arm(c=2.0, mu=1.0, lam=1.0, S=4, dt=0.01)
        table = whittle_index_infinite(arm)
        assert table.value(0, 4) / 0.01 == pytest.approx(8.0, rel=0.10)

    def test_periodic_chain_converges_with_damping(self):
        P = np.zeros((2, 2, 2))
        P[0, :, 1] = 1.0  # deterministic 2-cycle under both actions
        P[1, :, 0] = 1.0
        r = np.array([[1.0, 1.0], [0.0, 0.0]])
        model = ArmModel(n_states=2, transitions=P, rewards=r)
        qd, h = relative_value_iteration(model, 0.0)
        assert np.allclose(qd, 0.0, atol=1e-8)  # identical action rows

    def test_nonconvergent_on_disconnected_gains(self):
        # two absorbing components with different rewards: no single gain
        P = np.zeros((2, 2, 2))
        P[0, :, 0] = 1.0
        P[1, :, 1] = 1.0
        r = np.array([[1.0, 1.0], [0.0, 0.0]])
        model = ArmModel(n_states=2, transitions=P, rewards=r)
        with pytest.raises(NonConvergent):
            relative_value_iteration(model, 0.0)

    def test_nonconvergent_names_only_unfinished_subsidies(self):
        # two absorbing states, gains max(lam, 1) and max(lam, 0): one gain
        # exactly when lam >= 1
        P = np.zeros((2, 2, 2))
        P[0, :, 0] = 1.0
        P[1, :, 1] = 1.0
        r = np.array([[0.0, 1.0], [0.0, 0.0]])
        model = ArmModel(n_states=2, transitions=P, rewards=r)
        qd, _ = relative_value_iteration(model, 2.0)
        assert np.allclose(qd, [-1.0, -2.0])
        with pytest.raises(NonConvergent, match=r"\(lambda=0\.25\)"):
            relative_value_iteration(model, np.array([2.0, 0.25, 3.0]))


class TestPolicyIteration:
    def test_whittle_original_prepares_on_cpap(self):
        # the instance where relative value iteration never converged
        inst = domains.make_instance(DomainSpec(domains.CPAP, 10, 5, seed=0),
                                     budget=3, rho=1, horizon=10)
        policy = make_policy("whittle-original")
        policy.prepare(inst)
        for model, values in zip(inst.types, policy.table.values):
            assert np.all(np.isfinite(values))
            for s in range(model.n_states):
                qd, _ = relative_value_iteration(model, values[s, 0])
                assert abs(qd[s]) <= DEFAULT_TOL

    def test_gain_step_leaves_a_lower_gain_class(self):
        # state 0 rests at gain lam = 0.5 or moves, unpaid, to state 1, which
        # earns 1 when active. The myopic start rests in state 0, and the bias
        # alone ties there (0 + h(1) vs 0.5 + h(0), both 0), so only the gain
        # comparison P_a g finds the move.
        P = np.zeros((2, 2, 2))
        P[0, 0, 0] = 1.0
        P[0, 1, 1] = 1.0
        P[1, :, 1] = 1.0
        r = np.array([[0.0, 0.0], [0.0, 1.0]])
        model = ArmModel(n_states=2, transitions=P, rewards=r)
        qd, h = relative_value_iteration(model, 0.5)
        assert np.allclose(qd, [0.5, 0.5], rtol=0, atol=1e-12)
        assert np.allclose(h, [0.0, 1.0], rtol=0, atol=1e-12)
        assert np.allclose(qd, rvi_qdiff(model, 0.5), rtol=0, atol=1e-8)

    def test_bias_solves_the_optimality_equation(self, rng):
        # h + g = max_a (r_a + P_a h) with one gain g in every state, also on
        # the multichain dummy-expanded model
        lams = np.array([-2.0, -0.1, 0.0, 0.4, 3.0])
        for model in (random_arm(rng, 4, active_only_rewards=False),
                      expand_with_dummies(random_arm(rng, 3)), expand_with_dummies(cpap3_arm())):
            qd, h = relative_value_iteration(model, lams)
            assert np.all(h[:, 0] == 0.0)
            r0 = model.rewards[:, 0] + lams[:, None]
            q0 = r0 + h @ model.transitions[:, 0, :].T
            q1 = model.rewards[:, 1] + h @ model.transitions[:, 1, :].T
            assert np.allclose(q1 - q0, qd, rtol=0, atol=1e-12)
            gain = np.maximum(q0, q1) - h
            assert np.allclose(gain, gain[:, :1], rtol=0, atol=1e-9)


class TestBatchedDp:
    def test_rvi_rows_match_scalar_solves(self, rng):
        model = random_arm(rng, 4, active_only_rewards=False)
        lams = np.array([-1.5, 0.0, 0.3, 2.0])
        qd, h = relative_value_iteration(model, lams)
        assert qd.shape == h.shape == (4, 4)
        for lam, row in zip(lams, qd):
            assert np.allclose(row, rvi_qdiff(model, lam), rtol=0, atol=1e-9)

    def test_finite_rows_match_scalar_solves(self, rng):
        model = expand_with_dummies(random_arm(rng, 3, active_only_rewards=False))
        T = 5
        lams = np.array([-0.7, 0.0, 1.1])
        qd = finite_horizon_qdiff(model, T, lams)
        assert qd.shape == (3, model.n_states, T)
        assert finite_horizon_qdiff(model, T, 0.4).shape == (model.n_states, T)
        for lam, block in zip(lams, qd):
            assert np.allclose(block, backward_qdiff(model, T, lam), rtol=0, atol=1e-12)


def _ehrenfest4():
    return ehrenfest_arm(c=2.0, mu=1.0, lam=1.0, S=3, dt=0.05)


class TestAgainstScalarReference:
    """Batched tables agree with one scalar bisection per entry (tests/whittle_reference.py)."""

    def models(self):
        rng = np.random.default_rng(7)
        arms = [random_arm(rng, S, active_only_rewards=a) for S, a in
                ((3, False), (4, True), (4, False))]
        return arms + [cpap3_arm(0.4), _ehrenfest4()]

    def test_infinite_matches_reference(self):
        for model in self.models():
            for m in (model, expand_with_dummies(model)):
                table = whittle_index_infinite(m)
                assert np.allclose(table.values[0][:, 0], reference_infinite(m),
                                   rtol=0, atol=DEFAULT_TOL)

    def test_family_arms_match_reference(self):
        specs = (DomainSpec(domains.CPAP, 3, 3), DomainSpec(domains.MHMH, 2, 3),
                 DomainSpec(domains.RANDOM, 2, 4),
                 DomainSpec(domains.EHRENFEST, 1, 3, params={"dt": 0.1}))
        for spec in specs:
            for model in domains.make_models(spec):
                for m in (model, expand_with_dummies(model)):
                    table = whittle_index_infinite(m)
                    assert np.allclose(table.values[0][:, 0], reference_infinite(m),
                                       rtol=0, atol=DEFAULT_TOL)

    def test_finite_matches_reference(self):
        for model, T in zip(self.models(), (4, 5, 6, 4, 6)):
            m = expand_with_dummies(model)
            table = whittle_index_finite(m, T)
            assert np.allclose(table.values[0], reference_finite(m, T),
                               rtol=0, atol=DEFAULT_TOL)


class TestSubsidyIndex:
    MODEL = ArmModel(n_states=1, transitions=np.ones((1, 2, 1)), rewards=np.zeros((1, 2)))

    def test_gap_that_never_crosses_raises_bracket_fail(self):
        with pytest.raises(BracketFail):
            _subsidy_index(self.MODEL, lambda lam: np.ones(np.shape(lam) + (3,)), 1e-6)

    def test_linear_gaps_stop_independently(self):
        # gap a_e - lam: entries on a bisection midpoint stop after 1, 2, 3
        # steps, the irrational one runs until |gap| <= tol / 2
        a = np.array([[0.0, 0.5], [-0.25, np.sqrt(2) / 10]])
        calls = []

        def qdiff_at(lam):
            lam = np.asarray(lam, dtype=float)
            calls.append(lam.size)
            return a - lam[..., None, None]

        tol = 1e-6
        index = _subsidy_index(self.MODEL, qdiff_at, tol)  # bracket [-1, 1]
        assert index[0, 0] == 0.0 and index[0, 1] == 0.5 and index[1, 0] == -0.25
        assert abs(index[1, 1] - a[1, 1]) <= 0.5 * tol
        assert calls[2:5] == [4, 3, 2]  # live entries shrink as they stop


class TestFinite:
    def test_last_step_index_is_reward_gap(self, rng):
        model = expand_with_dummies(random_arm(rng, 3, active_only_rewards=False))
        T = 4
        table = whittle_index_finite(model, T)
        gaps = model.rewards[:, 1] - model.rewards[:, 0]
        for s in range(model.n_states):
            assert table.value(0, s, T - 1) == pytest.approx(gaps[s], abs=1e-5)

    def test_dummy_states_have_zero_index(self, rng):
        model = expand_with_dummies(random_arm(rng, 2))
        table = whittle_index_finite(model, 3)
        for sd in model.dummy_of:
            for t in range(3):
                assert table.value(0, sd, t) == pytest.approx(0.0, abs=1e-5)

    def test_matches_grid_search_oracle(self, rng):
        model = expand_with_dummies(random_arm(rng, 2, active_only_rewards=False))
        T = 2
        tol = 1e-6
        table = whittle_index_finite(model, T, tol)
        span = float(model.rewards.max() - model.rewards.min())
        grid = np.arange(-2 * span, 2 * span + 1e-12, 1e-4)
        qd = np.stack([finite_horizon_qdiff(model, T, lam) for lam in grid])  # (G, S, T)
        for s in range(model.n_states):
            for t in range(T):
                best = grid[np.argmin(np.abs(qd[:, s, t]))]
                assert table.value(0, s, t) == pytest.approx(best, abs=2e-4)


class TestQDifference:
    def test_last_step(self, rng):
        model = expand_with_dummies(random_arm(rng, 3))
        T = 3
        table = q_difference_indices(model, T)
        gaps = model.rewards[:, 1] - model.rewards[:, 0]
        assert np.allclose([table.value(0, s, T - 1) for s in range(model.n_states)], gaps)

    def test_dummy_states_zero(self, rng):
        model = expand_with_dummies(random_arm(rng, 3))
        table = q_difference_indices(model, 4)
        for sd in model.dummy_of:
            assert np.allclose(table.values[0][sd], 0.0)

    def test_cpap_hand_rolled_three_step(self):
        model = expand_with_dummies(cpap3_arm(0.6))
        T = 3
        table = q_difference_indices(model, T)
        # independent scalar-loop backward induction
        S = model.n_states
        V = np.zeros(S)
        expected = np.zeros((S, T))
        for t in range(T - 1, -1, -1):
            Q = np.zeros((S, 2))
            for s in range(S):
                for a in (0, 1):
                    Q[s, a] = model.rewards[s, a] + sum(
                        model.transitions[s, a, sp] * V[sp] for sp in range(S)
                    )
            expected[:, t] = Q[:, 1] - Q[:, 0]
            V = Q.max(axis=1)
        assert np.allclose(table.values[0], expected, atol=1e-12)
