import itertools

import numpy as np
import pytest

from singlepull import ArmModel, domains, expand_with_dummies, make_policy, whittle
from singlepull.domains import DomainSpec, closed_form_whittle, ehrenfest_arm
from singlepull.whittle import (
    BISECT_MAX_ITERS,
    DEFAULT_TOL,
    TIE_TOL,
    BracketFail,
    NonConvergent,
    _CesaroLimits,
    _subsidy_index,
    finite_horizon_qdiff,
    q_difference_indices,
    relative_value_iteration,
    whittle_index_finite,
    whittle_index_infinite,
)

from conftest import random_arm
from whittle_reference import backward_qdiff, cesaro_limit, rvi_qdiff


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
        table = whittle_index_infinite([ArmModel(n_states=2, transitions=P, rewards=r)])
        assert table.values[0][0, 0] == pytest.approx(1.25, abs=1e-5)
        assert table.values[0][1, 0] == pytest.approx(0.0, abs=1e-5)

    def test_equalization_at_returned_index(self, rng):
        for model in (cpap3_arm(0.4), random_arm(rng, 3, active_only_rewards=False)):
            tol = 1e-6
            table = whittle_index_infinite([model], tol)
            for s in range(model.n_states):
                qd = relative_value_iteration([model], table.values[0][s, 0])[0]
                assert abs(qd[s]) <= tol

    def test_stationary_table_shape(self):
        table = whittle_index_infinite([cpap3_arm()])
        assert not table.time_dependent
        assert table.values[0].shape == (3, 1)
        assert np.array_equal(table.column(0), table.column(5))

    def test_ehrenfest_symmetric_state_has_zero_index(self):
        S = 4
        arm = ehrenfest_arm(c=2.0, mu=1.0, lam=1.0, S=S, dt=0.01)
        assert closed_form_whittle(2.0, 1.0, 1.0, S, S // 2) == 0.0
        table = whittle_index_infinite([arm])
        assert abs(table.values[0][S // 2, 0] / 0.01) < 0.2

    def test_ehrenfest_closed_form_top_state(self):
        # v(4) = 2 / (1*4) * (1*16 - 1*0) = 8 in rate units
        assert closed_form_whittle(2.0, 1.0, 1.0, 4, 4) == pytest.approx(8.0)
        arm = ehrenfest_arm(c=2.0, mu=1.0, lam=1.0, S=4, dt=0.01)
        table = whittle_index_infinite([arm])
        assert table.values[0][4, 0] / 0.01 == pytest.approx(8.0, rel=0.10)

    def test_periodic_chain_converges_with_damping(self):
        P = np.zeros((2, 2, 2))
        P[0, :, 1] = 1.0  # deterministic 2-cycle under both actions
        P[1, :, 0] = 1.0
        r = np.array([[1.0, 1.0], [0.0, 0.0]])
        model = ArmModel(n_states=2, transitions=P, rewards=r)
        qd, h, _ = relative_value_iteration([model], 0.0)
        assert np.allclose(qd, 0.0, atol=1e-8)  # identical action rows

    def test_nonconvergent_on_disconnected_gains(self):
        # two absorbing components with different rewards: no single gain
        P = np.zeros((2, 2, 2))
        P[0, :, 0] = 1.0
        P[1, :, 1] = 1.0
        r = np.array([[1.0, 1.0], [0.0, 0.0]])
        model = ArmModel(n_states=2, transitions=P, rewards=r)
        with pytest.raises(NonConvergent):
            relative_value_iteration([model], 0.0)

    def test_nonconvergent_names_only_unfinished_subsidies(self):
        # two absorbing states, gains max(lam, 1) and max(lam, 0): one gain
        # exactly when lam >= 1
        P = np.zeros((2, 2, 2))
        P[0, :, 0] = 1.0
        P[1, :, 1] = 1.0
        r = np.array([[0.0, 1.0], [0.0, 0.0]])
        model = ArmModel(n_states=2, transitions=P, rewards=r)
        qd = relative_value_iteration([model], 2.0)[0]
        assert np.allclose(qd, [-1.0, -2.0])
        with pytest.raises(NonConvergent, match=r"\(lambda=0\.25\)"):
            relative_value_iteration([model], np.array([2.0, 0.25, 3.0]))


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
                qd = relative_value_iteration([model], values[s, 0])[0]
                assert abs(qd[s]) <= DEFAULT_TOL

    @pytest.mark.parametrize("seed", [1, 4, 8])
    def test_whittle_original_prepares_where_policies_cycle(self, seed):
        # policy iteration once cycled forever between two policies on these
        inst = domains.make_instance(DomainSpec(domains.CPAP, 4, 10, seed=seed),
                                     budget=1, rho=1, horizon=10)
        policy = make_policy("whittle-original")
        policy.prepare(inst)
        assert all(np.all(np.isfinite(values)) for values in policy.table.values)

    def test_cycling_policies_end_with_a_zero_gap(self):
        # CPAP N=4 S=10 seed 1, type 3: at this subsidy the policies active
        # on {1..8} and on {2..8} alternate, as round-off in near-singular
        # (I - P + P*) flips the sign of state 1's gap; it is 0 up to round-off
        inst = domains.make_instance(DomainSpec(domains.CPAP, 4, 10, seed=1),
                                     budget=1, rho=1, horizon=10)
        qd = relative_value_iteration([inst.types[3]], 16.018462125660555)[0]
        assert qd[1] == 0.0
        assert np.all(qd[2:9] > 0.0) and qd[0] < 0.0 and qd[9] < 0.0

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
        qd, h, _ = relative_value_iteration([model], 0.5)
        assert np.allclose(qd, [0.5, 0.5], rtol=0, atol=1e-12)
        assert np.allclose(h, [0.0, 1.0], rtol=0, atol=1e-12)
        assert np.allclose(qd, rvi_qdiff(model, 0.5), rtol=0, atol=1e-8)

    def test_bias_solves_the_optimality_equation(self, rng):
        # h + g = max_a (r_a + P_a h) with one gain g in every state, also on
        # the multichain dummy-expanded model
        lams = np.array([-2.0, -0.1, 0.0, 0.4, 3.0])
        for model in (random_arm(rng, 4, active_only_rewards=False),
                      expand_with_dummies(random_arm(rng, 3)), expand_with_dummies(cpap3_arm())):
            qd, h, _ = relative_value_iteration([model], lams)
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
        qd, h, dqd = relative_value_iteration([model], lams)
        assert qd.shape == h.shape == dqd.shape == (4, 4)
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


def finite_roots(model, T, index):
    """Check a finite index table entry by entry through the scalar backward_qdiff.

    A singleton entry zeroes its gap to 1e-12 relative to the values'
    scale. Where the gap stays 0 just above the index, the entry is
    set-valued, and the index is its left end: the gap is 0 (to TIE_TOL)
    there and positive just below. Returns the counts of both kinds.
    """
    kinds = [0, 0]
    for (s, t), lam in np.ndenumerate(index):
        scale = 1.0 + T * (np.abs(model.rewards).max() + abs(lam))
        delta = 1e-6 * (1.0 + abs(lam))
        here, below, above = (backward_qdiff(model, T, x)[s, t] for x in (lam, lam - delta,
                                                                             lam + delta))
        set_valued = abs(above) <= TIE_TOL * scale
        assert abs(here) <= (TIE_TOL if set_valued else 1e-12) * scale, (s, t, here)
        assert below > 0, (s, t, below)
        kinds[int(set_valued)] += 1
    return kinds


def _ehrenfest4():
    return ehrenfest_arm(c=2.0, mu=1.0, lam=1.0, S=3, dt=0.05)


def stationary_roots(model, index, tol=DEFAULT_TOL):
    """Check a stationary index table entry by entry through the scalar rvi_qdiff.

    Every entry zeroes its gap to tol / 2, or is a jump root: its gap falls
    across zero by more than tol / 2 each way within +-1e-9. Returns the
    number of jump roots.
    """
    jumps = 0
    for s, lam in enumerate(index):
        if abs(rvi_qdiff(model, lam)[s]) > 0.5 * tol:
            below, above = (rvi_qdiff(model, lam + d)[s] for d in (-1e-9, 1e-9))
            assert below > 0.5 * tol and above < -0.5 * tol, (s, lam, below, above)
            jumps += 1
    return jumps


class TestAgainstScalarReference:
    """Batched tables zero the gaps of an independent scalar DP (tests/whittle_reference.py)."""

    def models(self):
        rng = np.random.default_rng(7)
        arms = [random_arm(rng, S, active_only_rewards=a) for S, a in
                ((3, False), (4, True), (4, False))]
        return arms + [cpap3_arm(0.4), _ehrenfest4()]

    def test_infinite_matches_reference(self):
        for model in self.models():
            for m in (model, expand_with_dummies(model)):
                assert stationary_roots(m, whittle_index_infinite([m]).values[0][:, 0]) == 0

    def test_family_arms_match_reference(self):
        specs = (DomainSpec(domains.CPAP, 3, 3), DomainSpec(domains.MHMH, 2, 3),
                 DomainSpec(domains.RANDOM, 2, 4),
                 DomainSpec(domains.EHRENFEST, 1, 3, params={"dt": 0.1}))
        for spec in specs:
            for model in domains.make_models(spec):
                for m in (model, expand_with_dummies(model)):
                    table = whittle_index_infinite([m])
                    assert stationary_roots(m, table.values[0][:, 0]) == 0

    def test_slopes_match_reference_difference_quotients(self):
        # on a grid around the indices, a run of subsidies whose gaps all keep
        # one sign pattern, none within 1e-9 of a tie, shares the final
        # policy; the gap is affine there, so the slope at either end is the
        # difference quotient of the scalar DP across the run
        for model in self.models():
            for m in (model, expand_with_dummies(model)):
                runs = 0
                index = whittle_index_infinite([m]).values[0][:, 0]
                grid = np.linspace(index.min() - 1.0, index.max() + 1.0, 81)
                qd, _, dqd = relative_value_iteration([m], grid)
                signs = [(g > 0).tobytes() if (np.abs(g) > 1e-9).all() else None for g in qd]
                for key, run in itertools.groupby(range(grid.size), key=signs.__getitem__):
                    run = list(run)
                    if key is None or len(run) < 2:
                        continue
                    i, j = run[0], run[-1]
                    quotient = ((rvi_qdiff(m, grid[j]) - rvi_qdiff(m, grid[i]))
                                / (grid[j] - grid[i]))
                    assert np.allclose(dqd[i], dqd[j], rtol=0, atol=1e-12)
                    assert np.allclose(dqd[i], quotient, rtol=0, atol=1e-8)
                    runs += 1
                assert runs >= 2  # below and above every index, at least

    def test_finite_matches_reference(self):
        # every entry is a root of the scalar backward induction's gap
        for model, T in zip(self.models(), (4, 5, 6, 4, 6)):
            m = expand_with_dummies(model)
            finite_roots(m, T, whittle_index_finite([m], T).values[0])


class TestSubsidyIndex:
    def test_gap_that_never_crosses_raises_bracket_fail(self):
        def qdiff_at(lam, type_of):
            gap = np.ones(np.shape(lam) + (3,))
            return gap, np.zeros_like(gap)

        with pytest.raises(BracketFail, match=r"^type 0, entry \(0,\)"):
            _subsidy_index({0: 1.0}, qdiff_at, 1e-6)

    def test_bracket_fail_names_the_type_that_cannot_bracket(self):
        # type 0's gaps cross zero at lam = 0.3; type 1's stay positive
        def qdiff_at(lam, type_of):
            gap = np.where((type_of == 0)[:, None], 0.3 - lam[:, None], 1.0) * np.ones(2)
            return gap, np.where((type_of == 0)[:, None], -1.0, 0.0) * np.ones(2)

        with pytest.raises(BracketFail, match=r"^type 1, entry \(0,\)"):
            _subsidy_index({0: 1.0, 1: 1.0}, qdiff_at, 1e-6)
        with pytest.raises(BracketFail, match=r"^type 7, "):
            _subsidy_index({4: 1.0, 7: 1.0},
                           lambda lam, type_of: qdiff_at(lam, (type_of == 7).astype(int)), 1e-6)

    def test_linear_gaps_stop_independently(self):
        # gap a_e - lam: the entry at the first midpoint 0 stops after one
        # step, every other one lands exactly on its root with one Newton step
        a = np.array([[0.0, 0.5], [-0.25, np.sqrt(2) / 10]])
        calls = []

        def qdiff_at(lam, type_of):
            assert np.all(type_of == 0)
            calls.append(lam.size)
            gap = a - lam[..., None, None]
            return gap, -np.ones_like(gap)

        index = _subsidy_index({0: 1.0}, qdiff_at, 1e-6)[0]  # bracket [-1, 1]
        assert np.array_equal(index, a)
        assert calls == [1, 1, 4, 3]  # the bracket's two ends, then the live entries

    def test_each_type_grows_its_own_bracket(self):
        # type 0 crosses at 0.5 inside [-1, 1]; type 1 crosses at 5, so its
        # bracket doubles to [-8, 8] while type 0 keeps [-1, 1]
        cross = np.array([0.5, 5.0])
        seen = {0: set(), 1: set()}

        def qdiff_at(lam, type_of):
            for x, n in zip(lam, type_of):
                seen[int(n)].add(abs(float(x)))
            gap = (cross[type_of] - lam)[:, None]
            return gap, -np.ones_like(gap)

        index = _subsidy_index({0: 1.0, 1: 1.0}, qdiff_at, 1e-9)
        assert index[0, 0] == 0.5 and index[1, 0] == 5.0
        assert max(seen[0]) == 1.0 and max(seen[1]) == 8.0

    def test_a_midpoint_when_two_steps_do_not_halve_the_bracket(self):
        # the convex gap max_k (c_k - s_k lam) takes Newton steps from the
        # left, each to the next line's root, so the bracket goes [0, 1],
        # [0.5, 1], [0.6, 1], [0.7, 1]: the last two steps kept 0.3 of 0.5,
        # more than half, so the midpoint 0.85 comes before the Newton step
        # to the root 0.775
        c, s = np.array([1.0, 0.3, 0.14, 0.0775]), np.array([2.0, 0.5, 0.2, 0.1])
        seen = []

        def qdiff_at(lam, type_of):
            seen.extend(lam.tolist())
            lines = c - s * lam[:, None]
            k = lines.argmax(axis=1)
            return lines[np.arange(lam.size), k][:, None], -s[k][:, None]

        index = _subsidy_index({0: 1.0}, qdiff_at, 1e-9)[0, 0]
        assert np.allclose(seen[2:], [0.0, 0.5, 0.6, 0.7, 0.85, 0.775], rtol=0, atol=1e-12)
        assert index == seen[-1]

    def test_no_newton_step_without_a_falling_slope(self):
        # gap 0.3 - lam reported with slope 0 and with slope +1: both entries
        # take midpoints only, like a plain bisection, until |gap| <= tol / 2;
        # a gap flat at 0 keeps the first midpoint
        steps = []

        def qdiff_at(lam, type_of):
            steps.append(lam.size)
            x = lam[:, None]
            gap = np.concatenate((0.3 - x, 0.3 - x, np.zeros_like(x)), axis=1)
            slope = np.concatenate((np.zeros_like(x), np.ones_like(x), np.zeros_like(x)), axis=1)
            return gap, slope

        tol = 1e-6
        index = _subsidy_index({0: 1.0}, qdiff_at, tol)[0]
        assert index[0] == index[1] and abs(index[0] - 0.3) <= 0.5 * tol
        assert index[2] == 0.0
        assert len(steps) - 2 > 10

    def test_jump_root_stops_once_the_bracket_cannot_shrink(self):
        # the gap falls from +1 to -1 between two adjacent floats at c; once
        # the bracket's midpoint is one of its ends the entry stops there,
        # before BISECT_MAX_ITERS steps
        c = np.sqrt(2) / 10
        calls = []

        def qdiff_at(lam, type_of):
            calls.append(lam.size)
            gap = np.where(lam < c, 1.0, -1.0)[:, None]
            return gap, -np.ones_like(gap)

        lam = _subsidy_index({0: 1.0}, qdiff_at, 1e-6)[0, 0]
        assert lam in (np.nextafter(c, -np.inf), c)
        assert len(calls) - 2 < BISECT_MAX_ITERS

    def test_cpap_jump_root_keeps_its_value(self):
        # CPAP N=4 S=10 seed 1, type 1, state 1: the gap falls from +15.9 to
        # -1.01 within +-1e-9 of the index, the float plain bisection returns
        models = domains.make_models(DomainSpec(domains.CPAP, 4, 10, seed=1))
        lam = whittle_index_infinite(models).values[1][1, 0]
        assert lam == 16.053362854457987
        below, above = (relative_value_iteration([models[1]], lam + d)[0][1]
                        for d in (-1e-9, 1e-9))
        assert below > 15.0 and above < -1.0


class TestStackedTypes:
    """No row of a batched call reads another, so one index search over many
    types gives every type's table bit for bit as a search of that type alone."""

    def instances(self):
        out = []
        for family in domains.FAMILIES:
            for seed in range(4):
                out.append(domains.make_models(DomainSpec(family, 3, 3, seed=seed)))
        rng = np.random.default_rng(3)
        mixed = [random_arm(rng, S, active_only_rewards=False) for S in (2, 3, 2, 3, 3)]
        return out + [mixed]

    def test_infinite_equals_per_type_calls(self):
        for types in self.instances():
            for models in (types, [expand_with_dummies(m) for m in types]):
                stacked = whittle_index_infinite(models)
                for m, values in zip(models, stacked.values):
                    assert np.array_equal(values, whittle_index_infinite([m]).values[0])

    def test_finite_and_qdiff_equal_per_type_calls(self):
        rng = np.random.default_rng(4)
        models = [expand_with_dummies(random_arm(rng, S, active_only_rewards=False))
                  for S in (2, 3, 2)]
        for build in (lambda ms: whittle_index_finite(ms, 4),
                      lambda ms: q_difference_indices(ms, 4)):
            stacked = build(models)
            for m, values in zip(models, stacked.values):
                assert np.array_equal(values, build([m]).values[0])

    def test_rvi_rows_equal_single_type_calls(self, rng):
        # three S=4 types, one of them a multichain dummy expansion
        models = [random_arm(rng, 4, active_only_rewards=False), random_arm(rng, 4),
                  expand_with_dummies(random_arm(rng, 2))]
        lams = np.array([-0.5, 0.1, 0.7, 0.2, -1.0, 0.4])
        type_of = np.array([0, 0, 1, 2, 2, 2])  # type 1 has a single row
        batched = relative_value_iteration(models, lams, type_of)
        for n in range(3):
            rows = type_of == n
            alone = relative_value_iteration([models[n]], lams[rows])
            assert all(np.array_equal(x[rows], y) for x, y in zip(batched, alone))

    def test_shared_cesaro_limits_match_squaring_each_call(self):
        # lazy chains converge after different numbers of squares; whatever
        # rows share a call, each row's limit is its own matrix squared alone
        rng = np.random.default_rng(11)
        mats = []
        for stay in (0.2, 0.9, 0.99, 0.999):
            P = stay * np.eye(3) + (1 - stay) * rng.dirichlet(np.ones(3), size=3)
            mats.append(P / P.sum(axis=1, keepdims=True))
        mats = np.array(mats)
        limits = _CesaroLimits()
        for _ in range(12):
            pick = rng.integers(0, 4, size=int(rng.integers(1, 7)))
            type_of = rng.integers(0, 2, size=pick.size)
            got = limits(mats[pick], type_of, mats[pick])
            for b, m in enumerate(pick):
                assert np.array_equal(got[b], cesaro_limit(mats[m:m + 1])[0])

    def test_cesaro_limits_named_by_policy_match_squaring_each_call(self, monkeypatch):
        # rows named by a policy row (here the matrix's index) share their
        # bookkeeping: each row's limit is its own matrix squared alone, and
        # each (type, policy) is squared once across all calls
        rng = np.random.default_rng(5)
        mats = []
        for stay in (0.3, 0.95, 0.995, 0.9995, 0.5):
            P = stay * np.eye(4) + (1 - stay) * rng.dirichlet(np.ones(4), size=4)
            mats.append(P / P.sum(axis=1, keepdims=True))
        mats = np.array(mats)
        stacks = []
        square = whittle._normalised_square
        monkeypatch.setattr(whittle, "_normalised_square",
                            lambda M: stacks.append(len(M)) or square(M))
        limits, seen = _CesaroLimits(), set()
        for _ in range(20):
            pick = rng.integers(0, 5, size=int(rng.integers(1, 9)))
            type_of = rng.integers(0, 3, size=pick.size)
            stacks.clear()
            got = limits(mats[pick], type_of, pick[:, None])
            for b, m in enumerate(pick):
                assert np.array_equal(got[b], cesaro_limit(mats[m:m + 1])[0])
            new = set(zip(type_of.tolist(), pick.tolist())) - seen
            assert stacks[:1] == ([len(new)] if new else [])
            seen |= new

    def test_a_type_stops_once_every_matrix_has_settled(self, monkeypatch):
        # B mixes fast inside two blocks joined by 1e-15: its squares move by
        # less than TIE_TOL at square 7, then by more again as the blocks
        # mix, up to square ~57; the lazy A first settles at square 30. A
        # type holding both squares B 7 times and A 30 times, as each alone,
        # and stops once the last of them has settled
        B = np.zeros((4, 4))
        B[:2, :2] = B[2:, 2:] = 0.5
        B[0, 0] -= 1e-15
        B[0, 2] = 1e-15
        B[3, 3] -= 1e-15
        B[3, 1] = 1e-15
        A = (1 - 1e-7) * np.eye(4) + 1e-7 * np.full((4, 4), 0.25)
        stacks = []
        square = whittle._normalised_square
        monkeypatch.setattr(whittle, "_normalised_square",
                            lambda M: stacks.append(len(M)) or square(M))
        for P in (np.array([A, B]), np.array([B, A])):
            stacks.clear()
            got = _CesaroLimits()(P, np.zeros(2, dtype=np.int64), P)
            assert stacks == [2] * 7 + [1] * 23
            for b in range(2):
                assert np.array_equal(got[b], cesaro_limit(P[b:b + 1])[0])

    def test_nonconvergent_names_the_type(self):
        # type 1 has two absorbing states whose gains differ below lam = 1
        P = np.zeros((2, 2, 2))
        P[0, :, 0] = 1.0
        P[1, :, 1] = 1.0
        split = ArmModel(n_states=2, transitions=P, rewards=np.array([[0.0, 1.0], [0.0, 0.0]]))
        fine = ArmModel(n_states=2, transitions=np.full((2, 2, 2), 0.5),
                        rewards=np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonConvergent, match=r"type 1 \(lambda=0\.25\)$"):
            relative_value_iteration([fine, split], np.array([0.25, 2.0, 0.25]),
                                     np.array([0, 1, 1]))


class TestFinite:
    def test_three_types_take_one_bisection(self, monkeypatch):
        # one stationary index search over the three CPAP types takes as many
        # DP calls as the longest of the three searches alone; the exact
        # finite index takes no DP call, and the Q-value gaps one per type
        models = [expand_with_dummies(m)
                  for m in domains.make_models(DomainSpec(domains.CPAP, 3, 3, seed=0))]
        calls = []
        for name in ("relative_value_iteration", "finite_horizon_qdiff"):
            dp = getattr(whittle, name)
            monkeypatch.setattr(whittle, name,
                                lambda *args, dp=dp, **kw: calls.append(1) or dp(*args, **kw))
        whittle_index_infinite(models)
        merged = len(calls)
        alone = []
        for m in models:
            calls.clear()
            whittle_index_infinite([m])
            alone.append(len(calls))
        assert merged == max(alone) < sum(alone)
        calls.clear()
        whittle_index_finite(models, 5)
        assert len(calls) == 0
        q_difference_indices(models, 5)
        assert len(calls) == 3

    def test_rejects_unexpanded_types(self, rng):
        with pytest.raises(ValueError, match="dummy-expanded"):
            whittle_index_finite([random_arm(rng, 3)], 4)

    def test_last_step_index_is_reward_gap(self, rng):
        model = expand_with_dummies(random_arm(rng, 3, active_only_rewards=False))
        T = 4
        table = whittle_index_finite([model], T)
        gaps = model.rewards[:, 1] - model.rewards[:, 0]
        for s in range(model.n_states):
            assert table.values[0][s, T - 1] == pytest.approx(gaps[s], abs=1e-12)

    def test_dummy_states_have_zero_index(self, rng):
        model = expand_with_dummies(random_arm(rng, 2))
        table = whittle_index_finite([model], 3)
        for sd in model.dummy_of:
            for t in range(3):
                assert table.values[0][sd, t] == pytest.approx(0.0, abs=1e-12)

    def test_matches_grid_search_oracle(self, rng):
        model = expand_with_dummies(random_arm(rng, 2, active_only_rewards=False))
        T = 2
        table = whittle_index_finite([model], T)
        span = float(model.rewards.max() - model.rewards.min())
        grid = np.arange(-2 * span, 2 * span + 1e-12, 1e-4)
        qd = finite_horizon_qdiff(model, T, grid)  # (G, S, T)
        for s in range(model.n_states):
            for t in range(T):
                best = grid[np.argmin(np.abs(qd[:, s, t]))]
                assert table.values[0][s, t] == pytest.approx(best, abs=2e-4)


class TestExactFinite:
    """The finite index is exact on the four families and on random arms (backward_qdiff)."""

    @pytest.fixture(scope="class")
    def tables(self):
        cases = []
        for family in domains.FAMILIES:
            for seed in range(2):
                models = [expand_with_dummies(m)
                          for m in domains.make_models(DomainSpec(family, 3, 3, seed=seed))]
                cases.append((models, 6))
        rng = np.random.default_rng(17)
        arms = [expand_with_dummies(random_arm(rng, S, active_only_rewards=a))
                for S, a in ((2, False), (4, True), (5, False))]
        cases += [(arms, 7), (arms, 1)]
        return [(m, T, values) for models, T in cases
                for m, values in zip(models, whittle_index_finite(models, T).values)]

    def test_singleton_roots_and_set_valued_left_ends(self, tables):
        singletons, set_valued = np.sum([finite_roots(m, T, v) for m, T, v in tables], axis=0)
        assert singletons > 0 and set_valued > 0

    def test_gap_is_nonincreasing(self, tables):
        # indexability: the gap of every entry falls (weakly) in the subsidy,
        # on a grid over the sentinels' span and at every index
        for m, T, values in tables:
            H = T * np.ptp(m.rewards) + 1.0
            lams = np.unique(np.concatenate((np.linspace(-H, H, 201), values.ravel())))
            gaps = np.array([backward_qdiff(m, T, lam) for lam in lams])
            scale = 1.0 + T * (np.abs(m.rewards).max() + H)
            assert (np.diff(gaps, axis=0) <= TIE_TOL * scale).all()

    def test_sentinels_bracket_every_root(self, tables):
        # beyond +-H = T * span + 1, pulling now and never pulling are optimal
        for m, T, values in tables:
            H = T * np.ptp(m.rewards) + 1.0
            assert (backward_qdiff(m, T, -H) > 0).all() and (backward_qdiff(m, T, H) < 0).all()
            assert (np.abs(values) < H).all()


class TestQDifference:
    def test_last_step(self, rng):
        model = expand_with_dummies(random_arm(rng, 3))
        T = 3
        table = q_difference_indices([model], T)
        gaps = model.rewards[:, 1] - model.rewards[:, 0]
        assert np.allclose([table.values[0][s, T - 1] for s in range(model.n_states)], gaps)

    def test_dummy_states_zero(self, rng):
        model = expand_with_dummies(random_arm(rng, 3))
        table = q_difference_indices([model], 4)
        for sd in model.dummy_of:
            assert np.allclose(table.values[0][sd], 0.0)

    def test_cpap_hand_rolled_three_step(self):
        model = expand_with_dummies(cpap3_arm(0.6))
        T = 3
        table = q_difference_indices([model], T)
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
