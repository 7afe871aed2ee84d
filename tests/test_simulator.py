import numpy as np
import pytest

from singlepull import (
    ArmModel,
    Instance,
    InfeasibleAction,
    evaluate,
    make_policy,
    run_episode,
    step,
)
from singlepull import POLICY_NAMES, domains, model, simulator
from singlepull.model import ArmTables, expand_with_dummies, point_initial, validate_arm
from singlepull.policies import mean_field_orders, spi_orders
from singlepull.simulator import (
    EpisodeResult,
    _episode_rng,
    audit_episode,
    lift,
    start_counts,
)
from singlepull.whittle import IndexTable

import simulator_reference as ref
from conftest import planned_select, random_arm, trajectory_records

DETERMINISTIC = tuple(name for name in POLICY_NAMES if name != "random")


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


def off_rows_arm(excess):
    """Two states whose rows sum to 1 + excess; |excess| = 5e-10 is inside the tolerance."""
    return ArmModel(n_states=2, transitions=np.full((2, 2, 2), 0.5 + excess / 2),
                    rewards=np.zeros((2, 2)))


OFF_ROWS = [-5e-10, 5e-10]


def tables_of(types):
    return ArmTables.build([expand_with_dummies(m) for m in types],
                           [point_initial(m.n_states, 0) for m in types])


def counts_of(tables, type_of, states):
    return np.bincount(tables.offset[np.asarray(type_of)] + np.asarray(states),
                       minlength=len(tables.dummy))


def half_totals(tables, counts):
    """Arms per (type, half): rows are types, columns normal and dummy."""
    normal = np.add.reduceat(counts * ~tables.dummy, tables.offset)
    dummy = np.add.reduceat(counts * tables.dummy, tables.offset)
    return np.column_stack((normal, dummy))


class TestStep:
    def test_deterministic_passive_decay(self):
        tables = tables_of([cpap3_arm()])
        nxt, reward, _ = step(counts_of(tables, [0, 0], [2, 1]), np.zeros(6, dtype=int),
                              tables, 2, np.random.default_rng(0))
        assert nxt.tolist() == [1, 1, 0, 0, 0, 0]
        assert reward == pytest.approx(3.0 + 2.0)

    def test_zero_actions_zero_passive_reward(self, rng):
        tables = tables_of([zero_passive_arm(rng)])
        _, reward, _ = step(counts_of(tables, [0, 0, 0], [0, 1, 2]), np.zeros(6, dtype=int),
                            tables, 3, np.random.default_rng(0))
        assert reward == 0.0

    def test_next_state_stays_in_range_when_row_sums_short_of_one(self):
        # rows stochastic only to the validation tolerance, short or long,
        # still give a valid multinomial draw, and every arm lands in its own half
        for excess in OFF_ROWS:
            arm = off_rows_arm(excess)
            assert validate_arm(arm) == []
            tables = tables_of([arm])
            local = np.random.default_rng(0)
            counts = np.array([400_000, 600_000, 0, 0])
            for _ in range(20):
                pulls = np.array([1000, 2000, 0, 0])
                nxt, _, _ = step(counts, pulls, tables, 3000, local)
                assert half_totals(tables, nxt).tolist() == [[counts[:2].sum() - 3000,
                                                              counts[2:].sum() + 3000]]
                counts = nxt

    def test_unpulled_passive_arm_stays_in_normal_half_on_a_draw_above_the_row_sum(self):
        for excess in OFF_ROWS:
            tables = tables_of([off_rows_arm(excess)])
            local = np.random.default_rng(1)
            counts = np.array([10**6, 10**6, 0, 0])
            for _ in range(50):
                counts, _, _ = step(counts, np.zeros(4, dtype=int), tables, 0, local)
                assert counts[2:].tolist() == [0, 0] and counts.sum() == 2 * 10**6

    def test_pull_on_a_zero_draw_lands_in_dummy_half(self):
        # a pull always lands in the dummy half, on the first dummy state too
        tables = tables_of([cpap3_arm()])
        local = np.random.default_rng(2)
        for _ in range(20):
            counts = np.array([1000, 1000, 1000, 0, 0, 0])
            nxt, _, _ = step(counts, counts * ~tables.dummy, tables, 3000, local)
            assert nxt[:3].tolist() == [0, 0, 0] and nxt[3:].sum() == 3000
            assert nxt[3] > 0  # the pulls from state 0 and 1 that move down

    def test_short_rows_stay_in_range_beside_a_wider_type(self, rng):
        # the flat table pads the 2-state type to the 3-state type's width;
        # its arms must still stay among its own states and halves
        for excess in OFF_ROWS:
            tables = tables_of([off_rows_arm(excess), random_arm(rng, 3)])
            local = np.random.default_rng(3)
            counts = np.array([5000, 5000, 0, 0, 4000, 3000, 3000, 0, 0, 0])
            pulls = np.array([100, 200, 0, 0, 300, 0, 0, 0, 0, 0])
            for _ in range(20):
                nxt, _, _ = step(counts, pulls, tables, 600, local)
                pulled = np.add.reduceat(pulls, tables.offset)[:, None]
                assert np.array_equal(half_totals(tables, nxt),
                                      half_totals(tables, counts) + pulled * [-1, 1])
                counts = nxt
                pulls = np.minimum(pulls, counts)

    def test_budget_violation_raises(self, rng):
        tables = tables_of([zero_passive_arm(rng)])
        with pytest.raises(InfeasibleAction, match="exceed budget"):
            step(np.array([1, 1, 0, 0, 0, 0]), np.array([1, 1, 0, 0, 0, 0]), tables, 1,
                 np.random.default_rng(0))

    def test_repull_raises(self, rng):
        tables = tables_of([zero_passive_arm(rng)])
        with pytest.raises(InfeasibleAction, match="already-pulled"):
            step(np.array([0, 0, 0, 1, 0, 0]), np.array([0, 0, 0, 1, 0, 0]), tables, 5,
                 np.random.default_rng(0))

    def test_pull_beyond_the_group_raises(self, rng):
        tables = tables_of([zero_passive_arm(rng)])
        with pytest.raises(InfeasibleAction, match="outside"):
            step(np.array([1, 0, 0, 0, 0, 0]), np.array([2, 0, 0, 0, 0, 0]), tables, 5,
                 np.random.default_rng(0))

    def test_negative_pull_raises(self, rng):
        tables = tables_of([zero_passive_arm(rng)])
        with pytest.raises(InfeasibleAction, match="outside"):
            step(np.array([1, 1, 0, 0, 0, 0]), np.array([1, -1, 0, 0, 0, 0]), tables, 5,
                 np.random.default_rng(0))

    @pytest.mark.parametrize("malformed", ["fractional", "too short", "too long"])
    def test_malformed_pull_vector_raises(self, malformed):
        # RANDOM N=2 S=3 seed 0 at rho=2 starts with both arms of each type
        # in its state 0, groups 0 and 6; half a pull on each would vanish
        # two arms, and a wrong length would escape as IndexError or ValueError
        inst = domains.make_instance(domains.DomainSpec(domains.RANDOM, 2, 3, seed=0),
                                     budget=1, rho=2, horizon=3)
        counts = start_counts(inst.tables, inst.rho, _episode_rng(0))
        assert np.flatnonzero(counts).tolist() == [0, 6]
        pulls = {"fractional": np.where(counts > 0, 0.5, 0.0),
                 "too short": np.array([1]),
                 "too long": np.append(np.zeros_like(counts), 1)}[malformed]
        with pytest.raises(InfeasibleAction, match="integer array of shape"):
            step(counts, pulls, inst.tables, inst.step_budget, np.random.default_rng(0))

    def test_one_draw_over_all_pairs_equals_a_draw_over_the_live_pairs(self, rng):
        # a pair without arms draws nothing, so moves and the stream after
        # the step are those of a multinomial call on the live pairs alone
        for inst in [mixed_instance(rng)] + family_instances(rho=4):
            tables = inst.tables
            for seed in range(10):
                n_groups = len(tables.dummy)
                counts = rng.integers(0, 5, size=n_groups) * (rng.random(n_groups) < 0.5)
                counts[rng.integers(n_groups)] += 1
                pulls = rng.integers(0, counts + 1) * tables.normal
                pairs = np.column_stack((counts - pulls, pulls)).reshape(-1)
                live = pairs.nonzero()[0]
                assert 0 < len(live) < len(pairs)
                stepped, reference = _episode_rng(seed), _episode_rng(seed)
                _, _, moves = step(counts, pulls, tables, int(pulls.sum()), stepped)
                want = np.zeros_like(moves)
                want[live] = reference.multinomial(pairs[live], tables.probs[live])
                assert np.array_equal(moves, want)
                assert np.array_equal(stepped.random(8), reference.random(8))

    def test_moves_account_for_every_arm(self, rng):
        tables = tables_of([random_arm(rng, 2), random_arm(rng, 3)])
        counts = np.array([7, 3, 2, 0, 5, 0, 4, 1, 0, 6])
        pulls = np.array([2, 3, 0, 0, 1, 0, 4, 0, 0, 0])
        nxt, _, moves = step(counts, pulls, tables, 10, np.random.default_rng(4))
        pairs = np.column_stack((counts - pulls, pulls)).reshape(-1)
        assert moves.sum(axis=1).tolist() == pairs.tolist()
        assert np.array_equal(np.bincount(tables.dest.reshape(-1), weights=moves.reshape(-1),
                                          minlength=10), nxt)


class TestStartCounts:
    def make_instance(self, rho=3):
        types = (cpap3_arm(0.5), cpap3_arm(0.9))
        initial = (point_initial(3, 2), point_initial(3, 1))
        return Instance(types=types, rho=rho, budget=1, horizon=4, initial=initial)

    def test_deterministic_initials(self):
        inst = self.make_instance()
        counts = start_counts(inst.tables, inst.rho, _episode_rng(11))
        assert counts.tolist() == [0, 0, 3, 0, 0, 0, 0, 3, 0, 0, 0, 0]

    def test_same_seed_same_population(self):
        inst = Instance(types=(random_arm(np.random.default_rng(0), 3),), rho=50, budget=1,
                        horizon=2, initial=(np.full(3, 1 / 3),))
        tables = inst.tables
        a = start_counts(tables, inst.rho, _episode_rng(5))
        b = start_counts(tables, inst.rho, _episode_rng(5))
        assert np.array_equal(a, b) and a.sum() == 50

    def test_binomial_concentration(self):
        P = np.full((2, 2, 2), 0.5)
        m = ArmModel(n_states=2, transitions=P, rewards=np.zeros((2, 2)))
        tables = ArmTables.build([expand_with_dummies(m)], [np.array([0.5, 0.5])])
        counts = start_counts(tables, 1000, _episode_rng(3))
        sigma = np.sqrt(0.25 / 1000)
        assert abs(counts[0] / 1000 - 0.5) < 3 * sigma
        assert counts[2:].tolist() == [0, 0]

    def test_narrower_type_beside_a_wider_one(self, rng):
        # the S=2 type's start row is padded to width 3; no arm may land in
        # the padding or in either dummy half
        types = (random_arm(rng, 2, active_only_rewards=False), random_arm(rng, 3))
        expanded = [expand_with_dummies(m) for m in types]
        point = ArmTables.build(expanded, (point_initial(2, 1), point_initial(3, 2)))
        assert start_counts(point, 4, _episode_rng(0)).tolist() == [0, 4, 0, 0, 0, 0, 4, 0, 0, 0]
        tables = ArmTables.build(expanded, (np.array([0.4, 0.6]), np.array([0.2, 0.3, 0.5])))
        for seed in range(20):
            counts = start_counts(tables, 500, _episode_rng(seed))
            assert counts[[0, 1]].sum() == 500 and counts[[4, 5, 6]].sum() == 500
            assert not counts[tables.dummy].any()


class TestLift:
    def test_lowest_ids_of_each_group(self):
        ids = np.array([4, 1, 4, 1, 1, 0])
        pulls = np.array([0, 2, 0, 0, 1])
        assert lift(pulls, ids).tolist() == [1, 1, 0, 1, 0, 0]

    def test_inverse_of_the_group_totals(self, rng):
        ids = rng.integers(0, 6, size=40)
        pulls = np.array([rng.integers(0, c + 1) for c in np.bincount(ids, minlength=6)])
        assert np.array_equal(np.bincount(ids, weights=lift(pulls, ids), minlength=6), pulls)


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
        assert result.per_step_pulls.tolist() == [1]
        assert result.pulls_per_type.tolist() == result.dummy_per_type.tolist() == [1]

    def test_same_seed_identical(self, rng):
        types = tuple(random_arm(rng, 3) for _ in range(2))
        inst = Instance(types=types, rho=2, budget=1, horizon=4,
                        initial=(np.full(3, 1 / 3), np.full(3, 1 / 3)))
        pol = make_policy("spi")
        pol.prepare(inst)
        a = run_episode(inst, pol, seed=9, record=True)
        b = run_episode(inst, pol, seed=9, record=True)
        assert a.total_reward == b.total_reward
        assert np.array_equal(a.per_step_pulls, b.per_step_pulls)
        assert np.array_equal(a.pulls_per_type, b.pulls_per_type)
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_trajectory_record_shape(self, rng):
        m = random_arm(rng, 2)
        inst = Instance(types=(m,), rho=2, budget=1, horizon=3,
                        initial=(point_initial(2, 0),))
        pol = make_policy("random")
        pol.prepare(inst)
        result = run_episode(inst, pol, seed=1, record=True)
        assert result.trajectory.shape == (3, 2)  # (t, arm)
        assert result.trajectory.dtype == np.int64
        records = trajectory_records(inst, result.trajectory)
        assert [(t, arm) for t, arm, _, _, _ in records] == [(t, arm) for t in range(3)
                                                             for arm in range(2)]
        for _, _, state, action, reward in records:
            assert 0 <= state < 4 and action in (0, 1)
            assert reward == inst.expanded[0].rewards[state, action]
        plain = run_episode(inst, pol, seed=1)
        assert sum(r[4] for r in records) == pytest.approx(plain.total_reward, rel=1e-12)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_dummy_half_exactly_after_the_first_pull(self, name):
        for inst in family_instances():
            pol = make_policy(name)
            pol.prepare(inst)
            sizes = [m.n_states for m in inst.types]
            for seed in range(3):
                records = trajectory_records(inst, run_episode(inst, pol, seed, record=True)
                                             .trajectory)
                pull_time = {}
                for t, arm, _, action, _ in records:
                    if action == 1:
                        assert arm not in pull_time
                        pull_time[arm] = t
                assert pull_time
                for t, arm, state, _, _ in records:
                    pulled_before = pull_time.get(arm, inst.horizon) < t
                    assert (state >= sizes[arm // inst.rho]) == pulled_before

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_record_lifts_the_count_path(self, name, monkeypatch):
        # recording moves no count draw, and the recorded arms add up to
        # the counts the engine stepped at every t
        stepped = []
        real_step = simulator.step

        def spy(counts, *args):
            stepped.append(counts.copy())
            return real_step(counts, *args)

        monkeypatch.setattr(simulator, "step", spy)
        for inst in family_instances(rho=5):
            pol = make_policy(name)
            pol.prepare(inst)
            for seed in range(3):
                plain = run_episode(inst, pol, seed)
                del stepped[:]
                recorded = run_episode(inst, pol, seed, record=True)
                assert recorded.total_reward == plain.total_reward
                assert np.array_equal(recorded.per_step_pulls, plain.per_step_pulls)
                records = np.array(trajectory_records(inst, recorded.trajectory))
                arms = records[:, 1].astype(int)
                type_of = arms // inst.rho
                for t, counts in enumerate(stepped):
                    at = records[:, 0] == t
                    ids = inst.tables.offset[type_of[at]] + records[at, 2].astype(int)
                    assert np.array_equal(np.bincount(ids, minlength=len(counts)), counts)
                    assert records[at, 3].sum() == plain.per_step_pulls[t]
                assert records[:, 4].sum() == pytest.approx(plain.total_reward, rel=1e-12)


    def test_recorded_arms_have_the_per_arm_law(self):
        # two arms start and move independently, each to state 1 with
        # probability 1/2: a lift that dealt states in id order would put
        # arm 0 in state 1 only when both are there, with probability 1/4
        P = np.full((2, 2, 2), 0.5)
        m = ArmModel(n_states=2, transitions=P, rewards=np.zeros((2, 2)))
        inst = Instance(types=(m,), rho=2, budget=0, horizon=2, initial=(np.array([0.5, 0.5]),))
        pol = make_policy("random")
        pol.prepare(inst)
        n = 4000
        # one type, so a pair id p is state p >> 1; columns (t, arm) in order
        states = np.array([run_episode(inst, pol, seed, record=True).trajectory.reshape(-1) >> 1
                           for seed in range(n)])
        for arm_t in states.T:
            assert abs(arm_t.mean() - 0.5) <= 4 * np.sqrt(0.25 / n)
        both = (states[:, 0] & states[:, 1]).mean()
        assert abs(both - 0.25) <= 4 * np.sqrt(0.25 * 0.75 / n)


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
        r = EpisodeResult(total_reward=0.0, per_step_pulls=np.array([3, 0]),
                          pulls_per_type=np.array([3]), dummy_per_type=np.array([3]))
        assert audit_episode(r, 2) == ["step 0: 3 pulls exceed cap 2"]

    def test_audit_flags_repull(self):
        # an arm pulled twice counts two pulls but enters the dummy half once
        r = EpisodeResult(total_reward=0.0, per_step_pulls=np.array([1, 1]),
                          pulls_per_type=np.array([0, 2]), dummy_per_type=np.array([0, 1]))
        assert audit_episode(r, 5) == ["type 1: 2 pulls but 1 arms in the dummy half"]


def mixed_instance(rng, rho=3, horizon=4):
    """Two types with different state counts, S=2 and S=3."""
    types = (random_arm(rng, 2, active_only_rewards=False), random_arm(rng, 3))
    initial = (np.array([0.4, 0.6]), np.array([0.2, 0.3, 0.5]))
    return Instance(types=types, rho=rho, budget=1, horizon=horizon, initial=initial)


def family_instances(rho=3):
    return [domains.make_instance(domains.DomainSpec(fam, 2, 3, seed=1),
                                  budget=1, rho=rho, horizon=4)
            for fam in domains.FAMILIES]


def shuffled_population(rng, models, n_arms):
    """A non-contiguous type_of and in-range (expanded) states."""
    type_of = rng.integers(0, len(models), size=n_arms)
    states = np.array([rng.integers(0, models[n].n_states) for n in type_of])
    return type_of, states


def combined_se(a, b):
    return np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))


class TestAgainstLoopReference:
    """The count engine against the per-arm loops of simulator_reference.

    Selections lifted to arms are equal bit for bit; steps and episodes,
    which draw from other streams, agree in law.
    """

    def type_sets(self, rng):
        sets = [[random_arm(rng, 2, active_only_rewards=False), random_arm(rng, 3)]]
        return sets + [list(inst.types) for inst in family_instances()]

    def test_step(self, rng):
        # same reward, and next counts whose mean over many draws matches
        # the per-arm rows of the expanded models
        for types in self.type_sets(rng):
            tables = tables_of(types)
            models = [expand_with_dummies(m) for m in types]
            type_of, states = shuffled_population(rng, models, 40)
            pulled = tables.dummy[tables.offset[type_of] + states]
            actions = ((rng.random(40) < 0.5) & ~pulled).astype(np.int64)
            counts = counts_of(tables, type_of, states)
            pulls = counts_of(tables, type_of[actions == 1], states[actions == 1])
            local = np.random.default_rng(int(rng.integers(1 << 30)))
            draws = np.array([step(counts, pulls, tables, 40, local)[0] for _ in range(400)])
            _, want_reward = ref.step(states, actions, models, type_of, pulled, 40, local)
            got_reward = step(counts, pulls, tables, 40, local)[1]
            assert got_reward == pytest.approx(want_reward, rel=1e-12, abs=1e-12)
            expected = np.zeros(len(counts))
            for n, s, a in zip(type_of, states, actions):
                expected[tables.offset[n]:tables.offset[n] + models[n].n_states] += \
                    models[n].transitions[s, a]
            se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
            assert np.all(np.abs(draws.mean(axis=0) - expected) <= 4 * se + 1e-9)

    def test_lookup_dummy_mask_and_spi_select(self, rng):
        for types in self.type_sets(rng):
            tables = tables_of(types)
            models = [expand_with_dummies(m) for m in types]
            T = 4
            values = [rng.standard_normal((m.n_states, T)) for m in models]
            values[0][0, :] = 0.0  # non-positive indices
            values[1][1, :] = values[0][1, :]  # equal indices in two groups
            table = IndexTable(values=values, time_dependent=True)
            stationary = IndexTable(values=[v[:, :1] for v in values], time_dependent=False)
            type_of, states = shuffled_population(rng, models, 17)
            ids = tables.offset[type_of] + states
            counts = counts_of(tables, type_of, states)
            orders = spi_orders(table, tables, T)
            for t in range(T):
                assert np.array_equal(table.column(t)[ids],
                                      ref.lookup(values, True, type_of, states, t))
                assert np.array_equal(stationary.column(t)[ids],
                                      ref.lookup(stationary.values, False, type_of, states, t))
                for budget in (0, 3, 17):
                    assert np.array_equal(
                        lift(planned_select(orders, counts, t, budget), ids),
                        ref.spi_select(values, models, type_of, states, t, budget))
            assert np.array_equal(tables.dummy[ids], ref.dummy_mask_for(models, type_of, states))

    def test_mean_field_select(self, rng):
        # zero occupancy rows on the dummy half exclude the pulled arms
        for types in self.type_sets(rng):
            T = 3
            blocks = [rng.random((m.n_states, 2, T)) * (rng.random((m.n_states, 2, T)) < 0.7)
                      for m in types]
            blocks[1][1] = blocks[0][1]  # equal chi in two groups
            _, occupancy = model.stack_types(model.on_expanded(blocks))
            tables = tables_of(types)
            models = [expand_with_dummies(m) for m in types]
            type_of, states = shuffled_population(rng, models, 15)
            ids = tables.offset[type_of] + states
            counts = counts_of(tables, type_of, states)
            orders = mean_field_orders(occupancy)
            for t in range(T):
                for budget in (0, 2, 15):
                    assert np.array_equal(
                        lift(planned_select(orders, counts, t, budget), ids),
                        ref.mean_field_select(blocks, models, type_of, states, t, budget))

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_policy_select(self, name, rng):
        # random expanded states, dummy states included, of the four families
        for inst in family_instances(rho=6):
            pol = make_policy(name)
            pol.prepare(inst)
            models = ref.expanded_models(inst)
            for _ in range(5):
                type_of = rng.permutation(np.repeat(np.arange(inst.n_types), inst.rho))
                states = np.array([rng.integers(0, models[n].n_states) for n in type_of])
                ids = inst.tables.offset[type_of] + states
                counts = counts_of(inst.tables, type_of, states)
                for t in range(inst.horizon):
                    for budget in (0, 1, 3, 5, len(ids)):
                        got = lift(pol.select(counts, t, budget, None), ids)
                        want = ref.select(pol, models, type_of, states, t, budget, None)
                        assert np.array_equal(got, want), (t, budget)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_episode_results(self, name, rng):
        # same law: the means agree within 4 combined standard errors; the
        # mixed instance puts an S=2 type beside an S=3 one
        for rho, episodes in ((10, 200), (200, 60)):
            for inst in [mixed_instance(rng, rho=rho)] + family_instances(rho=rho):
                pol = make_policy(name)
                pol.prepare(inst)
                got = evaluate(inst, pol, episodes, base_seed=0, prepared=True).rewards
                want = np.array([ref.run_episode(inst, pol, 10_000 + seed)[0]
                                 for seed in range(episodes)])
                gap = abs(got.mean() - want.mean())
                assert gap <= 4 * combined_se(got, want) + 1e-9 * abs(want.mean()), (
                    rho, inst.types[0].label, got.mean(), want.mean())


class TestTraceBindings:
    """run_episode reaches step through the simulator module, and an
    instance is validated once, when it is made, not by evaluate."""

    def count(self, monkeypatch, owner, name, counts):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def install(self, monkeypatch):
        counts = {}
        self.count(monkeypatch, simulator, "step", counts)
        self.count(monkeypatch, model, "validate_instance", counts)
        return counts

    def test_run_episode_uses_module_bindings(self, monkeypatch, rng):
        inst = mixed_instance(rng, horizon=5)
        pol = make_policy("random")
        pol.prepare(inst)
        counts = self.install(monkeypatch)
        run_episode(inst, pol, seed=0)
        assert counts == {"step": 5}
        assert not hasattr(simulator, "replicate")

    @pytest.mark.parametrize("episodes", [2, 7])
    def test_evaluate_validates_once(self, monkeypatch, rng, episodes):
        counts = self.install(monkeypatch)
        inst = mixed_instance(rng, horizon=3)
        assert counts == {"validate_instance": 1}
        evaluate(inst, make_policy("random"), episodes, base_seed=0)
        assert counts == {"validate_instance": 1, "step": 3 * episodes}

    def test_invalid_instance_raises_before_any_episode(self, monkeypatch, rng):
        # the instance cannot be made, so no policy prepares or steps on it
        good = mixed_instance(rng)
        counts = self.install(monkeypatch)
        with pytest.raises(ValueError, match="invalid instance: type 0: initial distribution"):
            Instance(types=good.types, rho=good.rho, budget=good.budget,
                     horizon=good.horizon, initial=(good.initial[0] * 0.5, good.initial[1]))
        assert counts == {"validate_instance": 1}
