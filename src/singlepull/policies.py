"""Index policies: SPI and the baseline selectors.

Every policy runs on the counts of its instance's dummy-expanded arms,
instance.tables: select(counts, t, budget, rng) reads counts[g], the number
of arms in global state g, and returns the pulls per group, k[g]. A pulled
arm sits in the dummy half, so pulled-ness is part of the counts.

Groups are ranked by a key (an index, a priority tier, a chi value).
Equal keys are ordered by global state id, lowest first; within a group
the simulator pulls the lowest-id arms. Each rule is therefore a function
of the counts alone, which is what a count engine and an exact oracle
over counts need, and it picks exactly the arms an arm-id tie-break would
wherever no two groups tie at the budget cut.

The keys of every deterministic policy depend on its table and on t,
never on the counts. So prepare ranks the groups once per decision epoch
into orders[t] (one order shared by all epochs for a stationary table).
No order holds a dummy group, so the one select they share is a budget
fill along orders[t]: a handful of array operations per step, whatever
the table or rho.

The SPI policy solves the DUMMY occupancy LP once, over the original
states, converts the optimal measure into per-(state, time) activation
probabilities chi (one (S_n, T) array per type), and ranks groups by
chi * active reward, computed on the original states and placed on the
expanded groups, zero over the dummy half. Arms are pulled in decreasing
index order, and the walk stops at the first non-positive index, which
conserves budget exactly where the LP never activates: its orders hold the
groups outside the dummy half with a positive index only. An LP solve in
`prepare` returns the optimum or raises SolverStall; there is no other
outcome to handle.

Baselines: the mean-field LP priority policy, the original stationary
Whittle indices, the modified infinite-horizon Whittle indices of the
expanded arms, the finite-horizon Whittle and Q-difference indices of the
arms whose pull retires them (computed on the original states and placed
like SPI's), and uniform random selection among unpulled arms.
"""

from __future__ import annotations

import numpy as np

from . import lp
from .model import ArmModel, ArmTables, Instance, on_expanded, stack_types
from .whittle import (
    IndexTable,
    q_difference_indices,
    whittle_index_finite,
    whittle_index_infinite,
)

CHI_DENOM_TOL = 1e-12
PRIORITY_TOL = 1e-9


def _active_share(mu0: np.ndarray, mu1: np.ndarray) -> np.ndarray:
    """mu1 / (mu0 + mu1) where the occupancy exceeds CHI_DENOM_TOL, 0 elsewhere."""
    denom = mu0 + mu1
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > CHI_DENOM_TOL, mu1 / denom, 0.0)


def compute_chi(solution: lp.LpSolution) -> list[np.ndarray]:
    """chi[n][s, t]: probability of action 1 in (state, time) under the optimal measure."""
    return [np.clip(_active_share(block[:, 0, :], block[:, 1, :]), 0.0, 1.0)
            for block in solution.occupancy]


def spi_indices(chi: list[np.ndarray], types: list[ArmModel]) -> IndexTable:
    """index(n, s, t) = chi_n(s, t) * r_n(s, 1) over the states of types."""
    return IndexTable([c * m.rewards[:, 1][:, None] for c, m in zip(chi, types)], True)


def _placed(table: IndexTable) -> IndexTable:
    """A table over the types' original states placed on the expanded groups, 0 on the dummies."""
    return IndexTable(values=on_expanded(table.values), time_dependent=table.time_dependent)


def _by_key(groups: np.ndarray, key: np.ndarray) -> np.ndarray:
    """groups (ascending ids) in decreasing key order, equal keys by id."""
    return groups[np.argsort(-key[groups], kind="stable")]


def budget_fill(counts: np.ndarray, order: np.ndarray, budget: int) -> np.ndarray:
    """Pulls per group when the groups in order each give arms until budget runs out.

    counts is one vector or a (J, G) stack, each row filled on its own. The
    first i groups of order give min(their arms, budget) in all, so group i
    gives the difference of two such running totals; budget >= 0.
    """
    given = np.minimum(np.add.accumulate(counts.T[order]), budget)  # groups first: no 1-D cost
    given[1:] -= given[:-1]  # ufuncs buffer overlapping operands: this reads the old values
    pulls = np.zeros(counts.shape, counts.dtype)
    pulls.T[order] = given
    return pulls


def _per_epoch(horizon: int, time_dependent: bool, order_at) -> list[np.ndarray]:
    """orders[t] = order_at(t) for t < horizon; a stationary rule builds one order and shares it."""
    if time_dependent:
        return [order_at(t) for t in range(horizon)]
    return [order_at(0)] * horizon


def spi_orders(indices: IndexTable, tables: ArmTables, horizon: int) -> list[np.ndarray]:
    """Per epoch, the groups outside the dummy half with a positive index, in
    decreasing index order.
    """
    groups = np.flatnonzero(~tables.dummy)

    def order_at(t):
        idx = indices.column(t)
        return _by_key(groups[idx[groups] > 0], idx)
    return _per_epoch(horizon, indices.time_dependent, order_at)


def mean_field_orders(occupancy: np.ndarray) -> list[np.ndarray]:
    """Per epoch, the three-tier priority order of the relaxed-budget LP.

    occupancy is the LP's optimal measure stacked over global state ids,
    shape (G, 2, T). High priority (zero passive occupancy) groups come
    first, then medium-priority groups in decreasing chi: one key, +inf on
    the high tier, so each tier keeps _by_key's id order on ties. Groups
    whose active occupancy is zero, which includes every dummy group, are
    left out and never pulled.
    """
    def order_at(t):
        mu0, mu1 = occupancy[:, 0, t], occupancy[:, 1, t]
        tiered = np.where(mu0 <= PRIORITY_TOL, np.inf, _active_share(mu0, mu1))
        return _by_key(np.flatnonzero(mu1 > PRIORITY_TOL), tiered)
    return _per_epoch(occupancy.shape[2], True, order_at)


def greedy_orders(indices: IndexTable, tables: ArmTables, horizon: int) -> list[np.ndarray]:
    """Per epoch, the groups outside the dummy half in decreasing index order.

    Classic index-policy behaviour: indices of any sign are eligible.
    """
    groups = np.flatnonzero(~tables.dummy)
    return _per_epoch(horizon, indices.time_dependent,
                      lambda t: _by_key(groups, indices.column(t)))


# Generator.multivariate_hypergeometric (its "marginals" method) needs fewer
# than 1e9 arms in all; experiments rejects larger random runs as ConfigError.
RANDOM_MAX_ARMS = 10**9 - 1


def random_select(free: np.ndarray, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Pulls per group of min(budget, free arms) distinct arms drawn uniformly among the free.

    free[g] counts the arms of group g that may be pulled; their sum must
    not exceed RANDOM_MAX_ARMS.
    """
    return rng.multivariate_hypergeometric(free, min(budget, int(free.sum())))


# ---------------------------------------------------------------------------
# Policy objects used by the simulator and the experiment runner.
# ---------------------------------------------------------------------------

class BasePolicy:
    """Shared plumbing: prepare() records the instance whose tables select reads.

    A deterministic policy's prepare also plans orders[t], the groups it
    visits at epoch t, none of them in the dummy half; select fills the
    budget along them. RandomPolicy plans nothing and has a select of its own.
    """

    name = "base"

    def __init__(self):
        self.instance: Instance | None = None
        self.orders: list[np.ndarray] | None = None

    def prepare(self, instance: Instance):
        """Record the instance, whose ArmTables every select runs on.

        The instance was checked and dummy-expanded when it was made, so
        prepare neither checks nor expands it again.
        """
        self.instance = instance

    def select(self, counts, t, budget, rng) -> np.ndarray:
        """Pulls per group of one count vector or a (J, G) stack; random takes one vector."""
        return budget_fill(counts, self.orders[t], budget)


class SpiPolicy(BasePolicy):
    """chi * r(s, 1) from the DUMMY LP over the original states, 0 on the dummy half."""

    name = "spi"

    def __init__(self):
        super().__init__()
        self.table = None

    def prepare(self, instance: Instance):
        super().prepare(instance)
        solution = lp.solve_lp(lp.build_occupancy_lp(instance, lp.DUMMY))
        self.table = _placed(spi_indices(compute_chi(solution), instance.types))
        self.orders = spi_orders(self.table, instance.tables, instance.horizon)


class MeanFieldPolicy(BasePolicy):
    name = "meanfield"

    def __init__(self):
        super().__init__()
        self.solution = None
        self.occupancy = None

    def prepare(self, instance: Instance):
        super().prepare(instance)
        problem = lp.build_occupancy_lp(instance, lp.MEAN_FIELD)
        self.solution = lp.solve_lp(problem)
        _, self.occupancy = stack_types(on_expanded(self.solution.occupancy))
        self.orders = mean_field_orders(self.occupancy)


class _GreedyIndexPolicy(BasePolicy):
    """Common body for the Whittle variants and the Q-difference policy."""

    def __init__(self):
        super().__init__()
        self.table = None

    def _build_table(self, instance: Instance) -> IndexTable:
        raise NotImplementedError

    def prepare(self, instance: Instance):
        super().prepare(instance)
        self.table = self._build_table(instance)
        self.orders = greedy_orders(self.table, instance.tables, instance.horizon)


class OriginalWhittlePolicy(_GreedyIndexPolicy):
    """Stationary Whittle indices of the unexpanded arms, repeated over the unused dummy half."""

    name = "whittle-original"

    def _build_table(self, instance):
        values = whittle_index_infinite(list(instance.types)).values
        return IndexTable(values=[np.concatenate([v, v]) for v in values], time_dependent=False)


class InfiniteWhittlePolicy(_GreedyIndexPolicy):
    """Stationary Whittle indices of the dummy-expanded arms.

    These indices are degenerate: on RANDOM N=4 S=10 seed 0 every
    normal-state index is <= 0, with maximum exactly 0.0, while the
    unexpanded indices (whittle-original) reach 6.9-8.2. The sweep's pieces
    show why. Below subsidy 0 the dummies pull too, so on every piece each
    normal state's gap falls with slope <= -1, and the last normal state
    turns passive at 0 together with the dummies, whose gap is -lambda.
    Above 0 a pull costs the subsidy once, which the average reward does not
    see: the slope is -1 + Pr(pull later), and from every normal state the
    optimal policy pulls later with probability 1, so a normal state's gap
    is the same at lambda = 0 and at lambda = 5, and pulling stays optimal
    wherever that gap is positive. Whether the paper defines its modified
    index this way is not settled.
    """

    name = "whittle-infinite"

    def _build_table(self, instance):
        return whittle_index_infinite(list(instance.expanded))


class FiniteWhittlePolicy(_GreedyIndexPolicy):
    """Exact time-dependent Whittle indices of the arms, where a pull retires the arm.

    A pull costs the subsidy once, so each index is the subsidy of a
    retirement problem over the original states, found with no bisection by
    one backward pass per state count that tracks every type's kinks in
    lockstep; an entry indifferent over a whole interval of subsidies takes
    its left end (whittle.whittle_index_finite). The table is placed on the
    expanded groups, 0 on the dummy half.
    """

    name = "whittle-finite"

    def _build_table(self, instance):
        return _placed(whittle_index_finite(list(instance.types), instance.horizon))


class QDifferencePolicy(_GreedyIndexPolicy):
    """Q_t(s, 1) - Q_t(s, 0) at subsidy 0, where a pull retires the arm with its passive
    value-to-go (whittle.q_difference_indices), placed on the expanded groups, 0 on the
    dummy half.
    """

    name = "qdiff"

    def _build_table(self, instance):
        return _placed(q_difference_indices(list(instance.types), instance.horizon))


class RandomPolicy(BasePolicy):
    name = "random"

    def select(self, counts, t, budget, rng):
        return random_select(counts * self.instance.tables.normal, budget, rng)


POLICY_REGISTRY = {
    cls.name: cls
    for cls in (
        SpiPolicy,
        MeanFieldPolicy,
        OriginalWhittlePolicy,
        InfiniteWhittlePolicy,
        FiniteWhittlePolicy,
        QDifferencePolicy,
        RandomPolicy,
    )
}

POLICY_NAMES = tuple(POLICY_REGISTRY)


def make_policy(name: str) -> BasePolicy:
    try:
        cls = POLICY_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}") from None
    return cls()
