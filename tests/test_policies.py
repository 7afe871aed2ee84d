import numpy as np
import pytest

from singlepull import (
    ArmModel,
    Instance,
    build_occupancy_lp,
    compute_chi,
    expand_with_dummies,
    greedy_orders,
    make_policy,
    mean_field_orders,
    random_select,
    solve_lp,
    spi_indices,
    spi_orders,
)
from singlepull import lp
from singlepull.domains import CPAP, FAMILIES, RANDOM, DomainSpec, make_instance
from singlepull.model import ArmTables, point_initial, stack_types
from singlepull.policies import POLICY_NAMES, budget_fill
from singlepull.simulator import lift
from singlepull.whittle import IndexTable

import select_reference as ref
from conftest import mixed_instance, planned_select, random_arm
from whittle_reference import rvi_qdiff

DETERMINISTIC = tuple(name for name in POLICY_NAMES if name != "random")


def fake_solution(mu_blocks):
    """LpSolution stand-in from explicit occupancy blocks (S, 2, T)."""
    return lp.LpSolution(objective=0.0, occupancy=[np.asarray(b, dtype=float) for b in mu_blocks])


class TestChi:
    def test_direct_ratio(self):
        sol = fake_solution([np.array([[[0.6], [0.2]]])])  # mu0=0.6, mu1=0.2
        chi = compute_chi(sol)
        assert chi[0][0, 0] == pytest.approx(0.25)

    def test_zero_denominator_gives_zero(self):
        sol = fake_solution([np.array([[[0.0], [0.0]]])])
        assert compute_chi(sol)[0][0, 0] == 0.0

    def test_boundary_one(self):
        sol = fake_solution([np.array([[[0.0], [0.5]]])])
        assert compute_chi(sol)[0][0, 0] == pytest.approx(1.0)

    def test_range_invariant_on_solved_lp(self, rng):
        types = tuple(random_arm(rng, 3) for _ in range(2))
        inst = Instance(types=types, rho=2, budget=1, horizon=3,
                        initial=(point_initial(3, 0), point_initial(3, 1)))
        sol = solve_lp(build_occupancy_lp(inst, lp.DUMMY))
        chi = compute_chi(sol)
        for n, block in enumerate(sol.occupancy):
            c = chi[n]
            assert np.all(c >= 0.0) and np.all(c <= 1.0)
            dead = (block[:, 0, :] + block[:, 1, :]) <= 1e-12
            assert np.all(c[dead] == 0.0)


class TestSpiIndices:
    def test_product(self):
        m = expand_with_dummies(ArmModel(
            n_states=1, transitions=np.ones((1, 2, 1)), rewards=np.array([[0.5, 2.0]])
        ))
        chi_blocks = [np.array([[0.25], [0.3]])]
        table = spi_indices(chi_blocks, [m])
        assert table.values[0][0, 0] == pytest.approx(0.25 * 2.0)
        # dummy state: active reward ties to the origin's passive reward
        assert table.values[0][1, 0] == pytest.approx(0.3 * 0.5)

    def test_zero_chi_zero_index(self, rng):
        m = expand_with_dummies(random_arm(rng, 2))
        table = spi_indices([np.zeros((4, 2))], [m])
        assert np.allclose(table.values[0], 0.0)


def manual_table(values):
    return IndexTable(values=[np.asarray(values, dtype=float)], time_dependent=True)


def identity_tables(n_states=2):
    """Tables of one type that never moves: normal states 0.. S-1, dummies S.. 2S-1."""
    P = np.stack([np.eye(n_states), np.eye(n_states)], axis=1)
    m = ArmModel(n_states=n_states, transitions=P, rewards=np.zeros((n_states, 2)))
    return ArmTables.build([expand_with_dummies(m)], [point_initial(n_states, 0)])


def counts_of(tables, states):
    return np.bincount(np.asarray(states), minlength=len(tables.dummy))


class TestSpiSelect:
    def setup_method(self):
        self.tables = identity_tables()  # 2 normal states (0, 1) + dummies (2, 3)

    def select(self, idx_by_state, states, budget):
        table = manual_table(np.asarray(idx_by_state, dtype=float)[:, None])
        return planned_select(spi_orders(table, self.tables, 1),
                              counts_of(self.tables, states), 0, budget)

    def test_dummy_arm_spends_no_budget(self):
        # highest index sits on a dummy arm: it is never visited, and the one
        # budget unit goes to the best normal arm
        table = manual_table(np.array([[0.1], [0.8], [0.9], [0.0]]))
        assert 2 not in spi_orders(table, self.tables, 1)[0]
        pulls = self.select([0.1, 0.8, 0.9, 0.0], states=[2, 1, 0], budget=1)
        assert pulls.tolist() == [0, 1, 0, 0]

    def test_two_pulls_within_budget(self):
        pulls = self.select([0.8, 0.5, 0.0, 0.0], states=[0, 1], budget=2)
        assert pulls.tolist() == [1, 1, 0, 0]

    def test_zero_indices_spend_nothing(self):
        pulls = self.select([0.0, 0.0, 0.0, 0.0], states=[0, 1, 0], budget=5)
        assert pulls.sum() == 0

    def test_invariant_under_appended_zero_arms(self):
        base = self.select([0.5, 0.4, 0.0, 0.0], states=[0, 1], budget=1)
        padded = self.select([0.5, 0.4, 0.0, 0.0], states=[0, 1, 3, 3, 3], budget=1)
        assert padded.tolist() == base.tolist() == [1, 0, 0, 0]

    def test_tie_break_lowest_arm_id(self):
        # equal indices: the lower global state id goes first, and within
        # a group the lowest-id arms are pulled
        pulls = self.select([0.5, 0.5, 0.0, 0.0], states=[1, 0, 0, 1], budget=3)
        assert pulls.tolist() == [2, 1, 0, 0]
        assert lift(pulls, np.array([1, 0, 0, 1])).tolist() == [1, 1, 1, 0]


class TestMeanFieldSelect:
    def make_occupancy(self, mu0, mu1):
        block = np.zeros((len(mu0), 2, 1))
        block[:, 0, 0] = mu0
        block[:, 1, 0] = mu1
        return stack_types([block])[1]

    def select(self, occupancy, counts, t, budget):
        return planned_select(mean_field_orders(occupancy), counts, t, budget)

    def test_high_priority_pulled_first(self):
        occupancy = self.make_occupancy([0.0, 0.5], [0.4, 0.1])
        pulls = self.select(occupancy, np.array([1, 1]), 0, budget=1)
        assert pulls.tolist() == [1, 0]

    def test_low_priority_never_pulled(self):
        occupancy = self.make_occupancy([0.5, 0.5], [0.0, 0.0])
        pulls = self.select(occupancy, np.array([3, 3]), 0, budget=5)
        assert pulls.sum() == 0

    def test_medium_filled_by_descending_chi(self):
        # chi = 0.7 vs 0.3; exhaustive check over the two single-pull choices
        occupancy = self.make_occupancy([0.3, 0.7], [0.7, 0.3])
        pulls = self.select(occupancy, np.array([1, 1]), 0, budget=1)
        chis = [0.7, 0.3]
        best = int(np.argmax(chis))
        assert pulls[best] == 1 and pulls.sum() == 1

    def test_skips_pulled_arms(self):
        # state 1 is the dummy copy of state 0, whose occupancy rows are zero
        occupancy = self.make_occupancy([0.0, 0.0], [0.4, 0.0])
        pulls = self.select(occupancy, np.array([1, 1]), 0, budget=2)
        assert pulls.tolist() == [1, 0]

    def test_equal_chi_lowest_state_id(self):
        occupancy = self.make_occupancy([0.5, 0.5, 0.0], [0.5, 0.5, 0.0])
        pulls = self.select(occupancy, np.array([2, 2, 0]), 0, budget=3)
        assert pulls.tolist() == [2, 1, 0]


class TestGreedySelect:
    def select(self, values, states, budget, n_states=3):
        tables = identity_tables(n_states)
        table = manual_table(values)
        return planned_select(greedy_orders(table, tables, 1),
                              counts_of(tables, states), 0, budget)

    def test_descending_order(self):
        pulls = self.select([[3.0], [2.0], [1.0], [0.0], [0.0], [0.0]], [0, 1, 2], 2)
        assert pulls.tolist() == [1, 1, 0, 0, 0, 0]

    def test_pulled_mask_blocks_top(self):
        # the arm in dummy state 2 (the copy of 0) is never pulled, whatever its index
        pulls = self.select([[2.0], [1.0], [3.0], [0.0]], [2, 1], 1, n_states=2)
        assert pulls.tolist() == [0, 1, 0, 0]

    def test_equal_indices_lowest_id(self):
        # equal indices in two groups: the lower global state id is filled first
        for _ in range(5):
            pulls = self.select([[1.0], [1.0], [1.0], [0.0], [0.0], [0.0]], [2, 1, 1], 2)
            assert pulls.tolist() == [0, 2, 0, 0, 0, 0]

    def test_dummy_mask_excludes(self):
        pulls = self.select(np.ones((4, 1)), [2, 0], 2, n_states=2)
        assert pulls.tolist() == [1, 0, 0, 0]


def planning_instances():
    """The four families at N=2 S=3, and CPAP N=10 S=3 T=10 K=3 seed 0, whose
    whittle-finite and qdiff indices tie between states of one type at t=7 and t=8."""
    small = [make_instance(DomainSpec(fam, 2, 3, seed=1), budget=1, rho=4, horizon=4)
             for fam in FAMILIES]
    return small + [make_instance(DomainSpec(CPAP, 10, 3, seed=0), budget=3, rho=5, horizon=10)]


class TestPlannedOrders:
    """select along the orders planned at prepare equals the per-step rule it replaces."""

    @pytest.fixture(scope="class")
    def instances(self):
        return planning_instances()

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_select_matches_the_per_step_rule(self, name, instances):
        rng = np.random.default_rng(5)
        for inst in instances:
            pol = make_policy(name)
            pol.prepare(inst)
            G = len(inst.tables.dummy)
            vectors = [rng.integers(0, inst.rho + 1, size=G) for _ in range(50)]
            vectors.append(np.full(G, inst.rho))
            for counts in vectors:
                total = int(counts.sum())
                for t in range(inst.horizon):
                    for budget in (0, int(rng.integers(1, total + 1)), total):
                        got = pol.select(counts, t, budget, None)
                        want = ref.select(pol, counts, t, budget)
                        assert np.array_equal(got, want), (inst.types[0].label, t, budget)

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_a_stack_selects_each_row_as_one_vector(self, name, instances):
        rng = np.random.default_rng(6)
        for inst in instances:
            pol = make_policy(name)
            pol.prepare(inst)
            stack = rng.integers(0, inst.rho + 1, size=(40, len(inst.tables.dummy)))
            totals = stack.sum(axis=1)
            for t in range(inst.horizon):
                for budget in (0, int(totals.min()) // 2, int(totals.max()) + 1):
                    got = pol.select(stack, t, budget, None)
                    want = np.stack([pol.select(row, t, budget, None) for row in stack])
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["whittle-finite", "qdiff"])
    def test_the_cpap_instance_ties_within_a_type(self, name, instances):
        # keeps the tie-break above exercised: equal indices on different
        # states of one type at t=7 and t=8
        pol = make_policy(name)
        pol.prepare(instances[-1])
        for t in (7, 8):
            assert any(len(np.unique(v[:3, t])) < 3 for v in pol.table.values)

    def test_genuine_ties_are_bit_equal(self, instances):
        # states 0 and 2 of every CPAP type share their whittle-finite index
        # at t=8; exact roots of one epoch differ there by ulps unless merged
        pol = make_policy("whittle-finite")
        pol.prepare(instances[-1])
        assert all(v[0, 8] == v[2, 8] != 0.0 for v in pol.table.values)

    @pytest.mark.parametrize("name", ["whittle-original", "whittle-infinite"])
    def test_a_stationary_table_shares_one_order(self, name, instances):
        pol = make_policy(name)
        pol.prepare(instances[0])
        assert len(pol.orders) == instances[0].horizon
        assert all(order is pol.orders[0] for order in pol.orders)


class TestNoDummyGroupIsPlanned:
    """What lets select be a plain budget fill: no planned order holds a dummy group."""

    @pytest.fixture(scope="class")
    def instances(self):
        return planning_instances() + [mixed_instance()]

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_orders_hold_no_dummy_group(self, name, instances):
        for inst in instances:
            pol = make_policy(name)
            pol.prepare(inst)
            assert len(pol.orders) == inst.horizon
            assert not any(inst.tables.dummy[order].any() for order in pol.orders)

    def test_spi_table_is_zero_on_the_dummy_half(self, instances):
        for inst in instances:
            pol = make_policy("spi")
            pol.prepare(inst)
            for values, m in zip(pol.table.values, inst.expanded):
                assert np.all(values[m.dummy_mask] == 0.0)


class TestBudgetFill:
    def test_a_stack_fills_each_row_as_one_vector(self):
        # budgets 0, 1 and 4, below every row's arms, and above every row's arms
        rng = np.random.default_rng(9)
        stack = rng.integers(0, 5, size=(60, 12))
        assert stack.sum(axis=1).min() > 4
        for order in (np.arange(12), rng.permutation(12), rng.permutation(12)[:7],
                      np.arange(0)):
            for budget in (0, 1, 4, int(stack.sum(axis=1).max()) + 1):
                got = budget_fill(stack, order, budget)
                want = np.stack([budget_fill(row, order, budget) for row in stack])
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert np.array_equal(want, np.stack([ref.budget_fill(row, order, budget)
                                                      for row in stack]))


class TestRandomSelect:
    def test_budget_zero(self):
        rng = np.random.default_rng(0)
        assert random_select(np.array([4, 1]), 0, rng).sum() == 0

    def test_budget_covers_everyone(self):
        rng = np.random.default_rng(0)
        pulls = random_select(np.array([1, 0, 2]), 5, rng)
        assert pulls.tolist() == [1, 0, 2]

    def test_uniformity(self):
        # each free arm is pulled with probability budget / free arms, so a
        # group's pulls are proportional to its free arms
        rng = np.random.default_rng(123)
        free = np.array([1, 0, 2, 1])
        totals = np.zeros(4)
        n = 10_000
        for _ in range(n):
            totals += random_select(free, 1, rng)
        p = free / free.sum()
        sigma = np.sqrt(n * p * (1 - p))
        assert totals[1] == 0
        assert np.all(np.abs(totals - n * p) <= 3 * sigma)


class TestSelectorInvariants:
    def test_budget_and_pulled_respected_everywhere(self, rng):
        types = tuple(random_arm(rng, 3) for _ in range(2))
        inst = Instance(types=types, rho=3, budget=1, horizon=3,
                        initial=(point_initial(3, 1), point_initial(3, 2)))
        for name in ("spi", "meanfield", "whittle-original", "whittle-infinite",
                     "whittle-finite", "qdiff", "random"):
            pol = make_policy(name)
            pol.prepare(inst)
            local = np.random.default_rng(7)
            pulled = np.array([True, False, False, True, False, False])
            states = np.where(pulled, 3, 0) + np.array([1, 2, 1, 2, 0, 1])
            counts = np.bincount(inst.tables.offset[np.repeat([0, 1], 3)] + states, minlength=12)
            for budget in (0, 1, 3, 10):
                pulls = pol.select(counts, 0, budget, local)
                assert pulls.sum() <= budget
                assert np.all((0 <= pulls) & (pulls <= counts))
                assert not np.any(pulls[inst.tables.dummy])

    def test_dominant_action_spends_full_budget(self, rng):
        # action 1 strictly dominates in reward, transitions identical
        P = rng.dirichlet(np.ones(3), size=(3, 1))
        P = np.repeat(P, 2, axis=1)
        r = np.zeros((3, 2))
        r[:, 1] = [1.0, 2.0, 3.0]
        r[:, 0] = 0.0
        m = ArmModel(n_states=3, transitions=P, rewards=r)
        inst = Instance(types=(m,), rho=4, budget=1, horizon=3,
                        initial=(point_initial(3, 2),))
        for name in ("spi", "whittle-original", "whittle-infinite",
                     "whittle-finite", "qdiff"):
            pol = make_policy(name)
            pol.prepare(inst)
            local = np.random.default_rng(3)
            counts = np.array([0, 0, 4, 0, 0, 0])
            pulls = pol.select(counts, 0, inst.step_budget, local)
            assert pulls.sum() == min(inst.step_budget, 4)


class TestInfiniteWhittleOnExpandedModel:
    def test_normal_state_indices_are_degenerate(self):
        """Pins the expanded-model indices that InfiniteWhittlePolicy documents.

        On RANDOM N=4 S=10 seed 0 every normal-state index is <= 0 and the
        largest is exactly 0.0, while the same types unexpanded
        (whittle-original) reach 6.9-8.2.
        """
        inst = make_instance(DomainSpec(RANDOM, 4, 10, seed=0), budget=1, rho=1, horizon=20)
        expanded, original = make_policy("whittle-infinite"), make_policy("whittle-original")
        expanded.prepare(inst)
        original.prepare(inst)
        for n, top_state in enumerate([8, 9, 9, 9]):
            normal = expanded.table.values[n][:10, 0]
            assert np.all(normal <= 0.0)
            assert normal.max() == 0.0 and int(np.argmax(normal)) == top_state
            assert 6.9 <= original.table.values[n].max() <= 8.25

    def test_normal_state_gaps_are_flat_in_the_subsidy(self):
        """The measured mechanism behind the degenerate indices.

        On RANDOM N=4 S=10 seed 0, expanded type 0, the scalar reference's
        gap of every normal state is the same at lambda = 0 and at lambda = 5
        (to its tolerance), and the gap of every dummy state is -lambda. The slope
        is -1 + Pr(pull later): a pull costs the subsidy once, and from every
        normal state the optimal policy pulls later with probability 1.
        """
        inst = make_instance(DomainSpec(RANDOM, 4, 10, seed=0), budget=1, rho=1, horizon=20)
        at0, at5 = (rvi_qdiff(inst.expanded[0], lam) for lam in (0.0, 5.0))
        assert np.allclose(at0[:10], at5[:10], rtol=0, atol=1e-9)
        assert np.array_equal(at0[10:], np.zeros(10)) and np.array_equal(at5[10:], np.full(10, -5.0))
