import itertools

import numpy as np
import pytest

from singlepull import ArmModel, Instance, domains, expand_with_dummies, make_policy, whittle
from singlepull.domains import DomainSpec, ehrenfest_arm
from singlepull.model import on_expanded, point_initial
from singlepull.whittle import (
    TIE_TOL,
    NonConvergent,
    NotIndexable,
    _cesaro_limit,
    _evaluate,
    q_difference_indices,
    whittle_index_finite,
    whittle_index_infinite,
)

from conftest import random_arm
from whittle_reference import (
    backward_qdiff,
    cesaro_limit,
    closed_form_whittle,
    folded_qdiff,
    per_type_qdiff,
    retirement_index,
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


# the folded passes against the expanded ones, relative to max(1, max |table|):
# measured at most 7.0e-13 (finite index) and 7.1e-15 (qdiff) over 1,092 types
FOLD_TOL = {"finite": 1e-12, "qdiff": 1e-14}


def assert_matches_expanded(model, values, expanded_values, kind):
    """The folded table of model agrees with the expanded pass's normal half to FOLD_TOL."""
    normal = expanded_values[:model.n_states]
    scale = max(1.0, np.abs(normal).max())
    assert np.abs(values - normal).max() <= FOLD_TOL[kind] * scale, kind


def placed(values):
    """One type's table over its original states, placed on its expanded states."""
    return on_expanded([values])[0]


def policy_table(name, arm, T):
    """The table policy name places on arm's expanded states, prepared on arm alone."""
    inst = Instance(types=(arm,), rho=1, budget=1, horizon=T,
                    initial=(point_initial(arm.n_states, 0),))
    policy = make_policy(name)
    policy.prepare(inst)
    return policy.table.values[0]


def evaluate_one(model, active):
    """_evaluate on a stack of one type: (Ph, gains) of one policy."""
    R = np.stack((model.rewards.T, np.outer([1.0, 0.0], np.ones(model.n_states))), axis=1)
    Ph, gains = _evaluate(model.transitions[None], R[None], np.asarray(active)[None])
    return Ph[0], gains[0]


def piece_q(model, active, lam):
    """Q(s, a) at lam under one policy, shaped (2, S), and its gain (from _evaluate)."""
    Ph, gains = evaluate_one(model, active)
    q = model.rewards.T + Ph[:, 0] + lam * Ph[:, 1]
    q[0] += lam
    return q, gains[0] + lam * gains[1]


def piece_gaps(model, active, lam):
    """Every state's gap at lam under one policy, and its slope in lam."""
    Ph, _ = evaluate_one(model, active)
    slope = Ph[1, 1] - Ph[0, 1] - 1.0
    return model.rewards[:, 1] - model.rewards[:, 0] + Ph[1, 0] - Ph[0, 0] + lam * slope, slope


def split_arm(S):
    """An S-state arm whose states 0 and 1 absorb; only state 0 earns, 1 when active."""
    P = np.zeros((S, 2, S))
    P[0, :, 0] = 1.0
    P[1:, :, 1] = 1.0
    r = np.zeros((S, 2))
    r[0, 1] = 1.0
    return ArmModel(n_states=S, transitions=P, rewards=r)


def not_indexable_arm():
    """A 3-state arm whose state 2 rests from an index on but wants to pull again later."""
    P = np.array([[[0.97, 0.02, 0.01], [0.92, 0.08, 0.00]],
                  [[0.01, 0.83, 0.16], [0.31, 0.01, 0.68]],
                  [[0.91, 0.03, 0.06], [0.21, 0.77, 0.02]]])
    r = np.array([[0.21, 0.5], [0.55, 0.21], [0.59, 0.64]])
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
        # the scalar reference's gap vanishes at every returned index
        for model in (cpap3_arm(0.4), random_arm(rng, 3, active_only_rewards=False)):
            table = whittle_index_infinite([model])
            for s in range(model.n_states):
                assert abs(rvi_qdiff(model, table.values[0][s, 0])[s]) <= 1e-8

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
        # the Cesaro limit of the 2-cycle comes from its damped, aperiodic
        # transform (I + P) / 2
        P = np.zeros((2, 2, 2))
        P[0, :, 1] = 1.0  # deterministic 2-cycle under both actions
        P[1, :, 0] = 1.0
        r = np.array([[1.0, 1.0], [0.0, 0.0]])
        model = ArmModel(n_states=2, transitions=P, rewards=r)
        assert np.array_equal(_cesaro_limit(P[None, :, 0])[0], np.full((2, 2), 0.5))
        table = whittle_index_infinite([model])
        assert np.array_equal(table.values[0][:, 0], [0.0, 0.0])  # identical action rows

    def test_nonconvergent_on_disconnected_gains(self):
        # two absorbing components with different rewards: no single gain
        P = np.zeros((2, 2, 2))
        P[0, :, 0] = 1.0
        P[1, :, 1] = 1.0
        r = np.array([[1.0, 1.0], [0.0, 0.0]])
        model = ArmModel(n_states=2, transitions=P, rewards=r)
        with pytest.raises(NonConvergent, match=r"^type 0: optimal gain differs"):
            whittle_index_infinite([model])

    def test_nonconvergent_names_only_unfinished_subsidies(self):
        # state 0 rests in place for 0.5 + lam or pulls, unpaid, into the
        # absorbing state 1, which earns 1 active. Every state has gain 1 up
        # to state 0's index 0.5; above it resting in state 0 earns more than
        # state 1 can, so the message names the piece [0.5, 1] only
        P = np.zeros((2, 2, 2))
        P[0, 0, 0] = 1.0
        P[0, 1, 1] = 1.0
        P[1, :, 1] = 1.0
        r = np.array([[0.5, 0.0], [0.0, 1.0]])
        model = ArmModel(n_states=2, transitions=P, rewards=r)
        with pytest.raises(NonConvergent, match=r"^type 0: .* subsidies in \[0\.5, 1\],"):
            whittle_index_infinite([model])


class TestPolicyIteration:
    """Lazy CPAP arms, on which relative value iteration never converged and
    policy iteration cycled: the sweep evaluates each of their policies once."""

    def test_whittle_original_prepares_on_cpap(self):
        # the instance where relative value iteration never converged; the
        # piece that ends at each index zeroes that state's gap there
        inst = domains.make_instance(DomainSpec(domains.CPAP, 10, 5, seed=0),
                                     budget=3, rho=1, horizon=10)
        policy = make_policy("whittle-original")
        policy.prepare(inst)
        for model, values in zip(inst.types, policy.table.values):
            assert np.all(np.isfinite(values))
            index = values[:model.n_states, 0]  # the dummy copies repeat it
            for s, lam in enumerate(index):
                gap, _ = piece_gaps(model, index >= lam, lam)
                assert abs(gap[s]) <= 1e-6

    @pytest.mark.parametrize("seed", [1, 4, 8])
    def test_whittle_original_prepares_where_policies_cycle(self, seed):
        # policy iteration once cycled forever between two policies on these
        inst = domains.make_instance(DomainSpec(domains.CPAP, 4, 10, seed=seed),
                                     budget=1, rho=1, horizon=10)
        policy = make_policy("whittle-original")
        policy.prepare(inst)
        assert all(np.all(np.isfinite(values)) for values in policy.table.values)

    def test_cycling_policies_end_with_a_zero_gap(self):
        # CPAP N=4 S=10 seed 1, type 3: at subsidy 16.018462125660555 policy
        # iteration alternated between the policies active on {1..8} and on
        # {2..8}, as round-off in near-singular (I - P + P*) flipped the sign
        # of state 1's gap. The sweep ends the piece of {1..8} there, at state
        # 1's index, and the piece of {2..8} starts there
        model = domains.make_models(DomainSpec(domains.CPAP, 4, 10, seed=1))[3]
        index = whittle_index_infinite([model]).values[0][:, 0]
        lam = index[1]
        assert lam == pytest.approx(16.018462125660555, rel=0, abs=1e-12)
        assert np.array_equal(np.flatnonzero(index >= lam), np.arange(1, 9))
        wide, _ = piece_gaps(model, index >= lam, lam)
        narrow, _ = piece_gaps(model, index > lam, lam)
        assert abs(wide[1]) <= 1e-4 * np.abs(wide).max()
        assert np.all(narrow[2:9] > 0.0) and narrow[0] < 0.0 and narrow[9] < 0.0

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
        assert np.array_equal(whittle_index_infinite([model]).values[0][:, 0], [1.0, 1.0])
        qd, slope = piece_gaps(model, [True, True], 0.5)
        assert np.allclose(qd, [0.5, 0.5], rtol=0, atol=1e-12)
        assert np.array_equal(slope, [-1.0, -1.0])
        assert np.allclose(qd, rvi_qdiff(model, 0.5), rtol=0, atol=1e-8)

    def test_bias_solves_the_optimality_equation(self, rng):
        # under the policy the table prescribes at lam, h + g = max_a (r_a +
        # P_a h) with one gain g in every state, also on the multichain
        # dummy-expanded models; h = max_a Q - g, and Q_a = r_a + P_a h. On
        # [0, 1] an expanded table rests in every normal state, where pulling
        # can be optimal: the degenerate indices InfiniteWhittlePolicy
        # documents
        for model, lams in ((random_arm(rng, 4, active_only_rewards=False),
                             (-2.0, -0.1, 0.0, 0.4, 3.0)),
                            (expand_with_dummies(random_arm(rng, 3)), (-2.0, -0.1, 3.0)),
                            (expand_with_dummies(cpap3_arm()), (-2.0, -0.1, 3.0))):
            index = whittle_index_infinite([model]).values[0][:, 0]
            for lam in lams:
                q, gain = piece_q(model, index > lam, lam)
                assert np.allclose(gain, gain[0], rtol=0, atol=1e-9)
                h = q.max(axis=0) - gain
                r = model.rewards.T + [[lam], [0.0]]
                for a in (0, 1):
                    assert np.allclose(q[a] - r[a], model.transitions[:, a] @ h,
                                       rtol=0, atol=1e-9), (lam, a)


class TestBatchedDp:
    def test_rvi_rows_match_scalar_solves(self, rng):
        # the gaps of the policy the table prescribes at lam are the scalar
        # relative value iteration's optimal gaps
        model = random_arm(rng, 4, active_only_rewards=False)
        index = whittle_index_infinite([model]).values[0][:, 0]
        for lam in (-1.5, 0.0, 0.3, 2.0):
            qd, slope = piece_gaps(model, index > lam, lam)
            assert qd.shape == slope.shape == (4,)
            assert np.allclose(qd, rvi_qdiff(model, lam), rtol=0, atol=1e-9)

    def test_finite_rows_match_scalar_solves(self, rng):
        # the reference's rows, one per subsidy, are the scalar backward inductions
        model = expand_with_dummies(random_arm(rng, 3, active_only_rewards=False))
        T = 5
        lams = np.array([-0.7, 0.0, 1.1])
        qd = per_type_qdiff(model, T, lams)
        assert qd.shape == (3, model.n_states, T)
        assert per_type_qdiff(model, T, 0.4).shape == (model.n_states, T)
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


def stationary_roots(model, index, tol=1e-6):
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
        # on a grid around the indices, a run of subsidies whose scalar-DP
        # gaps all keep one sign pattern, none within 1e-9 of a tie, shares
        # one optimal policy, and the gap is affine there. Where the table
        # prescribes a policy with the scalar DP's gaps, its slope is the
        # difference quotient of the scalar DP across the run. That holds on
        # every run of an unexpanded arm; an expanded table can rest in every
        # normal state where pulling is optimal (InfiniteWhittlePolicy)
        for model in self.models():
            for m in (model, expand_with_dummies(model)):
                runs = 0
                index = whittle_index_infinite([m]).values[0][:, 0]
                grid = np.linspace(index.min() - 1.0, index.max() + 1.0, 81)
                qd = [rvi_qdiff(m, lam) for lam in grid]
                signs = [(g > 0).tobytes() if (np.abs(g) > 1e-9).all() else None for g in qd]
                for key, run in itertools.groupby(range(grid.size), key=signs.__getitem__):
                    run = list(run)
                    if key is None or len(run) < 2:
                        continue
                    i, j = run[0], run[-1]
                    gap, slope = piece_gaps(m, index > grid[i], grid[i])
                    if m.expanded and not np.allclose(gap, qd[i], rtol=0, atol=1e-8):
                        continue
                    assert np.allclose(gap, qd[i], rtol=0, atol=1e-8)
                    assert np.allclose(slope, (qd[j] - qd[i]) / (grid[j] - grid[i]),
                                       rtol=0, atol=1e-8)
                    runs += 1
                assert runs >= 2  # below and above every index, at least

    def test_finite_matches_reference(self):
        # every entry of the placed table is a root of the scalar backward
        # induction's gap on the expanded arm
        for model, T in zip(self.models(), (4, 5, 6, 4, 6)):
            table = whittle_index_finite([model], T).values[0]
            finite_roots(expand_with_dummies(model), T, placed(table))


class TestSubsidyIndex:
    def test_gap_that_never_crosses_raises_not_indexable(self):
        # state 1 is absorbing and turns passive at its index 0; state 0 then
        # pulls into it for its passive reward 1 and its subsidy, or rests
        # for 0 and the subsidy, so its gap stays 1 at every subsidy
        P = np.zeros((2, 2, 2))
        P[0, 0, 0] = 1.0
        P[0, 1, 1] = 1.0
        P[1, :, 1] = 1.0
        model = ArmModel(n_states=2, transitions=P, rewards=np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(NotIndexable, match=r"^type 0, state 0: its gap 1 does not fall "
                                               r"to 0 for subsidies above 0$"):
            whittle_index_infinite([model])

    def test_not_indexable_names_the_type_and_state(self):
        # state 2 of the second type turns passive at its first kink, and its
        # scalar-DP gap is negative there but positive at a larger subsidy
        model = not_indexable_arm()
        with pytest.raises(NotIndexable, match=r"^type 1, state 2: passive from subsidy "):
            whittle_index_infinite([cpap3_arm(), model])
        assert rvi_qdiff(model, -0.15)[2] < 0.0 < rvi_qdiff(model, 0.0)[2]

    def test_linear_gaps_stop_independently(self, monkeypatch):
        # both actions share every row, so each gap is a - lam on every piece,
        # up to round-off: each state turns passive at its own root, and tied
        # states at one kink, one policy evaluation per distinct root
        a = np.array([0.0, 0.5, -0.25, np.sqrt(2) / 10, 0.5])
        P = np.repeat(np.random.default_rng(2).dirichlet(np.ones(5), size=(5, 1)), 2, axis=1)
        model = ArmModel(n_states=5, transitions=P, rewards=np.stack((np.zeros(5), a), axis=1))
        calls = []
        monkeypatch.setattr(whittle, "_evaluate",
                            lambda *args: calls.append(1) or _evaluate(*args))
        index = whittle_index_infinite([model]).values[0][:, 0]
        assert np.allclose(index, a, rtol=0, atol=4 * np.finfo(float).eps)
        assert index[1] == index[4] and len(calls) == 4

    def test_cpap_jump_root_keeps_its_value(self):
        # CPAP N=4 S=10 seed 1, type 1, state 1: across the index the gap
        # falls from +15.9 to -1.01 within +-1e-9, under the policies the
        # table prescribes on either side
        models = domains.make_models(DomainSpec(domains.CPAP, 4, 10, seed=1))
        index = whittle_index_infinite(models).values[1][:, 0]
        lam = index[1]
        assert lam == 16.05336285445798
        below, above = (piece_gaps(models[1], index > x, x)[0][1] for x in (lam - 1e-9,
                                                                            lam + 1e-9))
        assert below > 15.0 and above < -1.0


class TestStackedTypes:
    """Both indices and qdiff run in lockstep over the types of one state
    count. The stationary sweep's rows read no other row, and each type stops
    at its own settle and its own last kink. The finite pass pads each type's
    kink list with its own last kink, +H, and that kink's value row. qdiff's
    product per type and epoch gives each row P(.|s, a) what a product of
    that row alone gives. So every type's table is bit
    for bit a pass of that type alone, even where the types take different
    numbers of pieces or grow different numbers of kinks. The finite pass and
    qdiff run where a pull retires the arm; on its dummy-expanded copy the
    references give the same normal-state tables to FOLD_TOL."""

    def instances(self):
        out = []
        for family in domains.FAMILIES:
            for seed in range(4):
                out.append(domains.make_models(DomainSpec(family, 3, 3, seed=seed)))
            out.append(domains.make_models(DomainSpec(family, 10, 3, seed=0)))
        rng = np.random.default_rng(3)
        mixed = [random_arm(rng, S, active_only_rewards=False) for S in (2, 3, 2, 3, 3)]
        return out + [mixed]

    def test_infinite_equals_per_type_calls(self):
        for types in self.instances():
            for models in (types, [expand_with_dummies(m) for m in types]):
                stacked = whittle_index_infinite(models)
                for m, values in zip(models, stacked.values):
                    assert np.array_equal(values, whittle_index_infinite([m]).values[0])

    def assert_finite_equals_per_type(self, models, T):
        # under errstate(all="raise") padding cannot hide inf or NaN arithmetic
        with np.errstate(all="raise"):
            stacked = whittle_index_finite(models, T).values
            for m, values in zip(models, stacked):
                assert values.shape == (m.n_states, T)
                assert np.array_equal(values, retirement_index(m, T))
                assert np.array_equal(values, whittle_index_finite([m], T).values[0])
                assert_matches_expanded(m, values, retirement_index(expand_with_dummies(m), T),
                                        "finite")
        for a, b in itertools.combinations(stacked, 2):
            assert not np.shares_memory(a, b)  # each table is its type's own array
        return stacked

    def test_finite_and_qdiff_equal_per_type_calls(self):
        for models, T in itertools.product(self.instances(), (1, 6, 20)):
            self.assert_finite_equals_per_type(models, T)
            with np.errstate(all="raise"):
                stacked = q_difference_indices(models, T)
                for m, values in zip(models, stacked.values):
                    assert values.shape == (m.n_states, T)
                    assert values.tobytes() == folded_qdiff(m, T).tobytes()
                    assert values.tobytes() == q_difference_indices([m], T).values[0].tobytes()
                    assert_matches_expanded(m, values, per_type_qdiff(expand_with_dummies(m), T),
                                            "qdiff")

    @pytest.mark.parametrize("seed", range(8))
    def test_degenerate_types_grow_different_kink_counts(self, seed):
        # zero rewards (H = 1), identical action rows and 0/1 kernels beside
        # plain random arms, all with one state count: the types of the group
        # end with different numbers of distinct roots, so the shorter kink
        # lists are padded while the longer ones grow
        rng = np.random.default_rng(seed)
        models = []
        for kind in ("zero", "same-rows", "0/1", "plain", "0/1", "plain"):
            arm = random_arm(rng, 3, active_only_rewards=bool(seed % 2))
            P, r = arm.transitions.copy(), arm.rewards.copy()
            if kind == "zero":
                r[:] = 0.0
            elif kind == "same-rows":
                P[:, 1] = P[:, 0]
            elif kind == "0/1":
                P = np.eye(3)[rng.integers(0, 3, size=(3, 2))]
            models.append(ArmModel(n_states=3, transitions=P, rewards=r))
        stacked = self.assert_finite_equals_per_type(models, 8)
        roots = {np.unique(values[:, 1:]).size for values in stacked}
        assert len(roots) > 1

    def test_cesaro_limit_stops_at_its_first_settle(self):
        # B mixes fast inside two blocks joined by 1e-15: its squares move by
        # less than TIE_TOL at square 7, then by more again as the blocks
        # mix; the lazy A first settles at square 30. Each limit is the
        # reference's, which stops at the first square that moves no entry
        # by more than TIE_TOL
        B = np.zeros((4, 4))
        B[:2, :2] = B[2:, 2:] = 0.5
        B[0, 0] -= 1e-15
        B[0, 2] = 1e-15
        B[3, 3] -= 1e-15
        B[3, 1] = 1e-15
        A = (1 - 1e-7) * np.eye(4) + 1e-7 * np.full((4, 4), 0.25)
        for P in (A, B):
            assert np.array_equal(_cesaro_limit(P[None])[0], cesaro_limit(P[None])[0])
        assert np.abs(_cesaro_limit(B[None])[0] - 0.25).max() > 0.2  # the blocks had not mixed
        # stacked, each member still stops at its own first settle; squaring
        # the stack until all of it settles would go on mixing B's blocks
        stacked = _cesaro_limit(np.stack([A, B]))
        for P, limit in zip((A, B), stacked):
            assert np.array_equal(limit, _cesaro_limit(P[None])[0])
        assert not np.array_equal(stacked[1], cesaro_limit(np.stack([A, B]))[1])

    def test_each_round_evaluates_every_type_of_a_state_count_at_once(self, monkeypatch):
        # one _evaluate call per round covers every live type of one state
        # count, so at most S calls; a sweep per type would make 50 here
        types = domains.make_models(DomainSpec(domains.CPAP, 10, 5, seed=0))
        calls = []
        monkeypatch.setattr(whittle, "_evaluate",
                            lambda *args: calls.append(1) or _evaluate(*args))
        for models in (types, [expand_with_dummies(m) for m in types]):
            calls.clear()
            whittle_index_infinite(models)
            assert 1 <= len(calls) <= models[0].n_states

    def test_nonconvergent_names_the_type(self):
        # type 1 has two absorbing states whose gains differ below lam = 1
        split = split_arm(2)
        fine = ArmModel(n_states=2, transitions=np.full((2, 2, 2), 0.5),
                        rewards=np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonConvergent, match=r"^type 1: optimal gain differs across "
                                                r"states for subsidies in \[-inf, 0\],"):
            whittle_index_infinite([fine, split])

    @pytest.mark.parametrize("order, error, first", [
        ((0, 1, 2), NotIndexable, 1),  # type 1 fails later, in the second group (S=3)
        ((2, 0, 1), NonConvergent, 0),  # the same failures, the lower one in the first group
        ((0, 1, 3), NotIndexable, 1),  # both failures in one lockstep group
    ])
    def test_the_lowest_failing_type_is_reported(self, order, error, first):
        # the absorbing split arms fail in the first round; state 2 of the
        # non-indexable arm rises at a later kink. Whatever round or state-count
        # group a failure comes in, the lowest-numbered failing type's error is
        # raised, as a sweep of one type after another raises it
        arms = (cpap3_arm(), not_indexable_arm(), split_arm(2), split_arm(3))
        models = [arms[i] for i in order]
        with pytest.raises(error, match=rf"^type {first}[:,]"):
            whittle_index_infinite(models)
        for n, m in enumerate(models):
            try:
                whittle_index_infinite([m])
            except (NotIndexable, NonConvergent) as exc:
                assert n >= first and (n > first or isinstance(exc, error))


class TestFinite:
    def test_a_type_takes_at_most_s_policy_evaluations(self, monkeypatch, rng):
        # the stationary sweep evaluates each policy of its pieces once, at
        # most S per type; the exact finite index takes no DP call, and the
        # Q-value gaps one per state count
        types = domains.make_models(DomainSpec(domains.CPAP, 3, 3, seed=0))
        models = [expand_with_dummies(m) for m in types]
        calls = []
        for name in ("_evaluate", "finite_horizon_qdiff"):
            dp = getattr(whittle, name)
            monkeypatch.setattr(whittle, name,
                                lambda *args, dp=dp, **kw: calls.append(1) or dp(*args, **kw))
        for m in models:
            calls.clear()
            whittle_index_infinite([m])
            assert 1 <= len(calls) <= m.n_states
        calls.clear()
        whittle_index_finite(types, 5)
        assert len(calls) == 0
        q_difference_indices(types, 5)
        assert len(calls) == 1
        calls.clear()
        mixed = types + [random_arm(rng, 2), types[0]]
        q_difference_indices(mixed, 5)
        assert len(calls) == 2

    def test_rejects_expanded_types(self, rng):
        # both finite-horizon passes take the arm whose pull retires it
        arm = random_arm(rng, 3)
        for build in (whittle_index_finite, q_difference_indices):
            with pytest.raises(ValueError, match="take unexpanded types"):
                build([arm, expand_with_dummies(arm)], 4)

    def test_last_step_index_is_reward_gap(self, rng):
        arm = random_arm(rng, 3, active_only_rewards=False)
        model = expand_with_dummies(arm)
        T = 4
        table = placed(whittle_index_finite([arm], T).values[0])
        gaps = model.rewards[:, 1] - model.rewards[:, 0]
        for s in range(model.n_states):
            assert table[s, T - 1] == pytest.approx(gaps[s], abs=1e-12)

    def test_dummy_states_have_zero_index(self, rng):
        arm = random_arm(rng, 2)
        model = expand_with_dummies(arm)
        table = policy_table("whittle-finite", arm, 3)
        for sd in np.flatnonzero(model.dummy_mask):
            for t in range(3):
                assert table[sd, t] == pytest.approx(0.0, abs=1e-12)

    def test_matches_grid_search_oracle(self, rng):
        arm = random_arm(rng, 2, active_only_rewards=False)
        model = expand_with_dummies(arm)
        T = 2
        table = placed(whittle_index_finite([arm], T).values[0])
        span = float(model.rewards.max() - model.rewards.min())
        grid = np.arange(-2 * span, 2 * span + 1e-12, 1e-4)
        qd = per_type_qdiff(model, T, grid)  # (G, S, T)
        for s in range(model.n_states):
            for t in range(T):
                best = grid[np.argmin(np.abs(qd[:, s, t]))]
                assert table[s, t] == pytest.approx(best, abs=2e-4)


class TestExactFinite:
    """The finite index is exact on the four families and on random arms (backward_qdiff)."""

    @pytest.fixture(scope="class")
    def tables(self):
        # each type's table placed on its dummy-expanded arm
        cases = []
        for family in domains.FAMILIES:
            for seed in range(2):
                cases.append((domains.make_models(DomainSpec(family, 3, 3, seed=seed)), 6))
        rng = np.random.default_rng(17)
        arms = [random_arm(rng, S, active_only_rewards=a)
                for S, a in ((2, False), (4, True), (5, False))]
        cases += [(arms, 7), (arms, 1)]
        return [(expand_with_dummies(m), T, placed(values)) for models, T in cases
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
        arm = random_arm(rng, 3)
        model = expand_with_dummies(arm)
        T = 3
        table = placed(q_difference_indices([arm], T).values[0])
        gaps = model.rewards[:, 1] - model.rewards[:, 0]
        assert np.allclose([table[s, T - 1] for s in range(model.n_states)], gaps)

    def test_dummy_states_zero(self, rng):
        arm = random_arm(rng, 3)
        model = expand_with_dummies(arm)
        table = policy_table("qdiff", arm, 4)
        for sd in np.flatnonzero(model.dummy_mask):
            assert np.allclose(table[sd], 0.0)

    def test_cpap_hand_rolled_three_step(self):
        model = expand_with_dummies(cpap3_arm(0.6))
        T = 3
        table = placed(q_difference_indices([cpap3_arm(0.6)], T).values[0])
        # independent scalar-loop backward induction on the expanded arm
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
        assert np.allclose(table, expected, atol=1e-12)
