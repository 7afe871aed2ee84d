"""Index policies: SPI and the baseline selectors.

The SPI policy solves the dummy-expanded occupancy LP once, converts the
optimal measure into per-(state, time) activation probabilities chi, and
ranks arms by chi * active reward. Its selection walk follows the budget
rule of the single-pull algorithm: arms are visited in decreasing index
order, every visited arm consumes one budget unit, but an arm sitting in a
dummy state is never actually pulled. The walk stops at the first
non-positive index (configurable), which conserves budget exactly where
the LP never activates.

Baselines: the mean-field LP priority policy, the original stationary
Whittle policy applied with a pulled mask, modified infinite/finite
Whittle and Q-difference policies on the expanded system, and uniform
random selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class ActivationProbabilities:
    """chi[n][s, t]: probability of choosing action 1 in (state, time)."""

    chi: list[np.ndarray]

    def value(self, n: int, s: int, t: int) -> float:
        return float(self.chi[n][s, t])


def compute_chi(solution: lp.LpSolution) -> ActivationProbabilities:
    """Conditional activation probabilities from an optimal occupancy measure."""
    if solution.status != lp.OPTIMAL:
        raise ValueError(f"need an OPTIMAL solution, got {solution.status}")
    chi = []
    for block in solution.occupancy:
        denom = block[:, 0, :] + block[:, 1, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.where(denom > CHI_DENOM_TOL, block[:, 1, :] / denom, 0.0)
        chi.append(np.clip(c, 0.0, 1.0))
    return ActivationProbabilities(chi=chi)


def spi_indices(chi: ActivationProbabilities, types: list[ArmModel]) -> IndexTable:
    """index(n, s, t) = chi_n(s, t) * r_n(s, 1) over the expanded state space."""
    values = [c * m.rewards[:, 1][:, None] for c, m in zip(chi.chi, types)]
    return IndexTable(values=values, time_dependent=True)


def spi_select(
    indices: IndexTable,
    tables: ArmTables,
    type_of: np.ndarray,
    states: np.ndarray,
    t: int,
    budget: int,
    stop_at_nonpositive: bool = True,
) -> np.ndarray:
    """Budget walk in decreasing index order over expanded-space states.

    Every visited arm consumes a budget unit; only non-dummy arms are
    pulled. With stop_at_nonpositive the walk ends at the first index <= 0.
    """
    n_arms = len(type_of)
    actions = np.zeros(n_arms, dtype=np.int64)
    if budget <= 0 or n_arms == 0:
        return actions
    idx = indices.lookup(type_of, states, t)
    order = np.argsort(-idx, kind="stable")  # ties -> lower arm id first
    if stop_at_nonpositive:
        visit_limit = int((idx[order] > 0).sum())
    else:
        visit_limit = n_arms
    visited = order[: min(budget, visit_limit)]
    dummy = dummy_mask_for(tables, type_of[visited], states[visited])
    actions[visited[~dummy]] = 1
    return actions


def mean_field_select(
    occupancy: np.ndarray,
    offset: np.ndarray,
    type_of: np.ndarray,
    states: np.ndarray,
    pulled: np.ndarray,
    t: int,
    budget: int,
) -> np.ndarray:
    """Three-tier priority fill from the relaxed-budget LP.

    occupancy is the LP's optimal measure stacked over global state ids,
    shape (G, 2, T), with offset from stack_types. High priority (zero
    passive occupancy) arms are pulled first, then medium-priority arms in
    decreasing chi; arms whose active occupancy is zero are never pulled.
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
    eligible = (~pulled) & (mu1 > PRIORITY_TOL)
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
    pulled: np.ndarray,
    dummy_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Pull up to budget non-pulled arms in decreasing index order.

    Classic index-policy behaviour: indices of any sign are eligible.
    dummy_mask excludes expanded-space dummy arms from candidacy.
    """
    n_arms = len(type_of)
    actions = np.zeros(n_arms, dtype=np.int64)
    if budget <= 0:
        return actions
    candidates = ~pulled
    if dummy_mask is not None:
        candidates &= ~dummy_mask
    cand = np.flatnonzero(candidates)
    if cand.size == 0:
        return actions
    idx = indices.lookup(type_of[cand], states[cand], t)
    order = cand[np.argsort(-idx, kind="stable")]
    actions[order[:budget]] = 1
    return actions


def random_select(
    pulled: np.ndarray, budget: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly pull min(budget, #non-pulled) distinct non-pulled arms."""
    actions = np.zeros(len(pulled), dtype=np.int64)
    free = np.flatnonzero(~pulled)
    k = min(budget, free.size)
    if k > 0:
        actions[rng.choice(free, size=k, replace=False)] = 1
    return actions


def dummy_mask_for(tables: ArmTables, type_of: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Which arms sit in an expanded-space dummy state."""
    return tables.dummy[tables.ids(type_of, states)]


# ---------------------------------------------------------------------------
# Policy objects used by the simulator and the experiment runner.
# ---------------------------------------------------------------------------

class BasePolicy:
    """Shared plumbing: prepare() builds tables once per instance."""

    name = "base"
    expanded = False  # whether episodes run on the dummy-expanded system

    def __init__(self):
        self.instance: Instance | None = None
        self.sim_models: list[ArmModel] | None = None
        self.tables: ArmTables | None = None

    def _use_models(self, instance: Instance, models: list[ArmModel]):
        """Validate the instance, record it and flatten the models its episodes run on."""
        require_valid(instance)
        self.instance = instance
        self.sim_models = models
        self.tables = ArmTables.build(models)

    def prepare(self, instance: Instance):
        raise NotImplementedError

    def select(self, type_of, states, pulled, t, budget, rng) -> np.ndarray:
        raise NotImplementedError


class SpiPolicy(BasePolicy):
    name = "spi"
    expanded = True

    def __init__(self, stop_at_nonpositive: bool = True):
        super().__init__()
        self.stop_at_nonpositive = stop_at_nonpositive
        self.solution = None
        self.chi = None
        self.table = None

    def prepare(self, instance: Instance):
        self._use_models(instance, [expand_with_dummies(m) for m in instance.types])
        problem = lp.build_occupancy_lp(instance, lp.DUMMY)
        self.solution = lp.solve_lp(problem)
        if self.solution.status != lp.OPTIMAL:
            raise RuntimeError(f"activation LP ended {self.solution.status}")
        self.chi = compute_chi(self.solution)
        self.table = spi_indices(self.chi, self.sim_models)

    def select(self, type_of, states, pulled, t, budget, rng):
        return spi_select(
            self.table, self.tables, type_of, states, t, budget,
            stop_at_nonpositive=self.stop_at_nonpositive,
        )


class MeanFieldPolicy(BasePolicy):
    name = "meanfield"
    expanded = False

    def __init__(self):
        super().__init__()
        self.solution = None
        self.offset = None
        self.occupancy = None

    def prepare(self, instance: Instance):
        self._use_models(instance, list(instance.types))
        problem = lp.build_occupancy_lp(instance, lp.MEAN_FIELD)
        self.solution = lp.solve_lp(problem)
        if self.solution.status != lp.OPTIMAL:
            raise RuntimeError(f"mean-field LP ended {self.solution.status}")
        self.offset, self.occupancy = stack_types(self.solution.occupancy)

    def select(self, type_of, states, pulled, t, budget, rng):
        return mean_field_select(self.occupancy, self.offset, type_of, states, pulled, t, budget)


class _GreedyIndexPolicy(BasePolicy):
    """Common body for the Whittle variants and the Q-difference policy."""

    def __init__(self):
        super().__init__()
        self.table = None

    def _build_table(self, instance: Instance) -> IndexTable:
        raise NotImplementedError

    def prepare(self, instance: Instance):
        models = list(instance.types)
        if self.expanded:
            models = [expand_with_dummies(m) for m in models]
        self._use_models(instance, models)
        self.table = self._build_table(instance)

    def select(self, type_of, states, pulled, t, budget, rng):
        dmask = dummy_mask_for(self.tables, type_of, states) if self.expanded else None
        return greedy_budget_select(
            self.table, type_of, states, t, budget, pulled, dummy_mask=dmask
        )


class OriginalWhittlePolicy(_GreedyIndexPolicy):
    name = "whittle-original"
    expanded = False

    def _build_table(self, instance):
        return IndexTable.stack(
            [whittle_index_infinite(m) for m in instance.types]
        )


class InfiniteWhittlePolicy(_GreedyIndexPolicy):
    name = "whittle-infinite"
    expanded = True

    def _build_table(self, instance):
        return IndexTable.stack(
            [whittle_index_infinite(m) for m in self.sim_models]
        )


class FiniteWhittlePolicy(_GreedyIndexPolicy):
    name = "whittle-finite"
    expanded = True

    def _build_table(self, instance):
        return IndexTable.stack(
            [whittle_index_finite(m, instance.horizon) for m in self.sim_models]
        )


class QDifferencePolicy(_GreedyIndexPolicy):
    name = "qdiff"
    expanded = True

    def _build_table(self, instance):
        return IndexTable.stack(
            [q_difference_indices(m, instance.horizon) for m in self.sim_models]
        )


class RandomPolicy(BasePolicy):
    name = "random"
    expanded = False

    def prepare(self, instance: Instance):
        self._use_models(instance, list(instance.types))

    def select(self, type_of, states, pulled, t, budget, rng):
        return random_select(pulled, budget, rng)


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


def make_policy(name: str, **kwargs) -> BasePolicy:
    try:
        cls = POLICY_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}") from None
    return cls(**kwargs)
