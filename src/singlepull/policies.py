"""Index policies: SPI and the baseline selectors.

Every policy runs on the dummy-expanded arms of ArmTables, where a pulled
arm sits in the dummy half, so select(type_of, states, t, budget, rng)
reads pulled-ness from the states alone.

The SPI policy solves the dummy-expanded occupancy LP once, converts the
optimal measure into per-(state, time) activation probabilities chi (one
(2 S_n, T) array per type), and ranks arms by chi * active reward. Its
selection walk follows the budget rule of the single-pull algorithm: arms
are visited in decreasing index order, every visited arm consumes one
budget unit, but an arm sitting in a dummy state is never actually pulled.
The walk stops at the first non-positive index, which conserves budget
exactly where the LP never activates. An LP solve in `prepare` returns the
optimum or raises SolverStall; there is no other outcome to handle.

Baselines: the mean-field LP priority policy, the original stationary
Whittle indices, modified infinite/finite Whittle and Q-difference indices
of the expanded arms, and uniform random selection among unpulled arms.
"""

from __future__ import annotations

import numpy as np

from . import lp
from .model import ArmModel, ArmTables, Instance, expand_with_dummies, require_valid, stack_types
from .whittle import (
    IndexTable,
    q_difference_indices,
    whittle_index_finite,
    whittle_index_infinite,
)

CHI_DENOM_TOL = 1e-12
PRIORITY_TOL = 1e-9


def compute_chi(solution: lp.LpSolution) -> list[np.ndarray]:
    """chi[n][s, t]: probability of action 1 in (state, time) under the optimal measure."""
    chi = []
    for block in solution.occupancy:
        denom = block[:, 0, :] + block[:, 1, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.where(denom > CHI_DENOM_TOL, block[:, 1, :] / denom, 0.0)
        chi.append(np.clip(c, 0.0, 1.0))
    return chi


def spi_indices(chi: list[np.ndarray], types: list[ArmModel]) -> IndexTable:
    """index(n, s, t) = chi_n(s, t) * r_n(s, 1) over the expanded state space."""
    values = [c * m.rewards[:, 1][:, None] for c, m in zip(chi, types)]
    return IndexTable(values=values, time_dependent=True)


def spi_select(
    indices: IndexTable,
    tables: ArmTables,
    type_of: np.ndarray,
    states: np.ndarray,
    t: int,
    budget: int,
) -> np.ndarray:
    """Budget walk in decreasing index order over expanded-space states.

    Every visited arm consumes a budget unit; only non-dummy arms are
    pulled. The walk ends at the first index <= 0.
    """
    n_arms = len(type_of)
    actions = np.zeros(n_arms, dtype=np.int64)
    if budget <= 0 or n_arms == 0:
        return actions
    idx = indices.lookup(type_of, states, t)
    order = np.argsort(-idx, kind="stable")  # ties -> lower arm id first
    visited = order[: min(budget, int((idx[order] > 0).sum()))]
    dummy = dummy_mask_for(tables, type_of[visited], states[visited])
    actions[visited[~dummy]] = 1
    return actions


def mean_field_select(
    occupancy: np.ndarray,
    offset: np.ndarray,
    type_of: np.ndarray,
    states: np.ndarray,
    t: int,
    budget: int,
) -> np.ndarray:
    """Three-tier priority fill from the relaxed-budget LP.

    occupancy is the LP's optimal measure stacked over global state ids,
    shape (G, 2, T), with offset from stack_types. High priority (zero
    passive occupancy) arms are pulled first, then medium-priority arms in
    decreasing chi; arms whose active occupancy is zero, which includes
    every arm in a dummy state, are never pulled.
    """
    n_arms = len(type_of)
    actions = np.zeros(n_arms, dtype=np.int64)
    if budget <= 0:
        return actions
    mu = np.take(occupancy[:, :, t], offset[type_of] + states, axis=0)
    mu0, mu1 = mu[:, 0], mu[:, 1]
    denom = mu0 + mu1
    with np.errstate(invalid="ignore", divide="ignore"):
        chi = np.where(denom > CHI_DENOM_TOL, mu1 / denom, 0.0)
    eligible = mu1 > PRIORITY_TOL
    high = eligible & (mu0 <= PRIORITY_TOL)
    medium = eligible & ~high
    take = np.flatnonzero(high)[:budget]
    actions[take] = 1
    remaining = budget - take.size
    if remaining > 0:
        med = np.flatnonzero(medium)
        med = med[np.argsort(-chi[med], kind="stable")]
        actions[med[:remaining]] = 1
    return actions


def greedy_budget_select(
    indices: IndexTable,
    type_of: np.ndarray,
    states: np.ndarray,
    t: int,
    budget: int,
    dummy_mask: np.ndarray,
) -> np.ndarray:
    """Pull up to budget arms outside dummy_mask in decreasing index order.

    Classic index-policy behaviour: indices of any sign are eligible.
    """
    n_arms = len(type_of)
    actions = np.zeros(n_arms, dtype=np.int64)
    if budget <= 0:
        return actions
    cand = np.flatnonzero(~dummy_mask)
    if cand.size == 0:
        return actions
    idx = indices.lookup(type_of[cand], states[cand], t)
    order = cand[np.argsort(-idx, kind="stable")]
    actions[order[:budget]] = 1
    return actions


def random_select(free: np.ndarray, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly pull min(budget, #free) distinct arms among those flagged free."""
    actions = np.zeros(len(free), dtype=np.int64)
    candidates = np.flatnonzero(free)
    k = min(budget, candidates.size)
    if k > 0:
        actions[rng.choice(candidates, size=k, replace=False)] = 1
    return actions


def dummy_mask_for(tables: ArmTables, type_of: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Which arms sit in an expanded-space dummy state, i.e. have been pulled."""
    return tables.dummy[tables.ids(type_of, states)]


# ---------------------------------------------------------------------------
# Policy objects used by the simulator and the experiment runner.
# ---------------------------------------------------------------------------

def _expanded_types(instance: Instance) -> list[ArmModel]:
    return [expand_with_dummies(m) for m in instance.types]


class BasePolicy:
    """Shared plumbing: prepare() validates the instance and builds its tables once."""

    name = "base"

    def __init__(self):
        self.instance: Instance | None = None
        self.tables: ArmTables | None = None

    def prepare(self, instance: Instance):
        """Validate the instance, record it and flatten its dummy-expanded arms."""
        require_valid(instance)
        self.instance = instance
        self.tables = ArmTables.build(instance.types)

    def select(self, type_of, states, t, budget, rng) -> np.ndarray:
        raise NotImplementedError


class SpiPolicy(BasePolicy):
    name = "spi"

    def __init__(self):
        super().__init__()
        self.solution = None
        self.chi = None
        self.table = None

    def prepare(self, instance: Instance):
        super().prepare(instance)
        problem = lp.build_occupancy_lp(instance, lp.DUMMY)
        self.solution = lp.solve_lp(problem)
        self.chi = compute_chi(self.solution)
        self.table = spi_indices(self.chi, _expanded_types(instance))

    def select(self, type_of, states, t, budget, rng):
        return spi_select(self.table, self.tables, type_of, states, t, budget)


class MeanFieldPolicy(BasePolicy):
    name = "meanfield"

    def __init__(self):
        super().__init__()
        self.solution = None
        self.offset = None
        self.occupancy = None

    def prepare(self, instance: Instance):
        super().prepare(instance)
        problem = lp.build_occupancy_lp(instance, lp.MEAN_FIELD)
        self.solution = lp.solve_lp(problem)
        self.offset, self.occupancy = stack_types(
            [np.concatenate([b, np.zeros_like(b)]) for b in self.solution.occupancy]
        )

    def select(self, type_of, states, t, budget, rng):
        return mean_field_select(self.occupancy, self.offset, type_of, states, t, budget)


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

    def select(self, type_of, states, t, budget, rng):
        return greedy_budget_select(
            self.table, type_of, states, t, budget, dummy_mask_for(self.tables, type_of, states)
        )


class OriginalWhittlePolicy(_GreedyIndexPolicy):
    """Stationary Whittle indices of the unexpanded arms, repeated over the unused dummy half."""

    name = "whittle-original"

    def _build_table(self, instance):
        values = [whittle_index_infinite(m).values[0] for m in instance.types]
        return IndexTable(values=[np.concatenate([v, v]) for v in values], time_dependent=False)


class InfiniteWhittlePolicy(_GreedyIndexPolicy):
    """Stationary Whittle indices of the dummy-expanded arms.

    Under the passive action the normal states and their dummy copies form
    two closed classes, so these indices can be degenerate: on RANDOM N=4
    S=10 seed 0 every normal-state index is <= 0, with maximum exactly 0.0,
    while the unexpanded indices (whittle-original) reach 6.9-8.2. Whether
    the paper defines its modified index this way is not settled.
    """

    name = "whittle-infinite"

    def _build_table(self, instance):
        return IndexTable.stack(
            [whittle_index_infinite(m) for m in _expanded_types(instance)]
        )


class FiniteWhittlePolicy(_GreedyIndexPolicy):
    name = "whittle-finite"

    def _build_table(self, instance):
        return IndexTable.stack(
            [whittle_index_finite(m, instance.horizon) for m in _expanded_types(instance)]
        )


class QDifferencePolicy(_GreedyIndexPolicy):
    name = "qdiff"

    def _build_table(self, instance):
        return IndexTable.stack(
            [q_difference_indices(m, instance.horizon) for m in _expanded_types(instance)]
        )


class RandomPolicy(BasePolicy):
    name = "random"

    def select(self, type_of, states, t, budget, rng):
        return random_select(~dummy_mask_for(self.tables, type_of, states), budget, rng)


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
