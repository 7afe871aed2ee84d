"""The per-step count-level selection rules, kept as the reference for the planned orders.

Each rule ranks the groups again on every call, from the policy's table
and t, with the package's tie order: key descending, then global state id.
A policy that plans its orders at prepare must select exactly what these
rules select, pull for pull, on every count vector, epoch and budget.
"""

import numpy as np

from singlepull.policies import CHI_DENOM_TOL, PRIORITY_TOL


def _by_key(groups, key):
    """groups (ascending ids) in decreasing key order, equal keys by id."""
    return groups[np.argsort(-key[groups], kind="stable")]


def budget_fill(counts, order, budget):
    """Pulls per group when the groups in order each give arms until budget runs out."""
    c = counts[order]
    pulls = np.zeros_like(counts)
    pulls[order] = np.minimum(np.maximum(budget - (np.cumsum(c) - c), 0), c)
    return pulls


def spi_select(indices, tables, counts, t, budget):
    """Budget walk over the groups outside the dummy half with a positive index,
    in decreasing index order; a dummy group is never visited and spends no budget.
    """
    idx = indices.column(t)
    return budget_fill(counts, _by_key(np.flatnonzero(~tables.dummy & (idx > 0)), idx), budget)


def mean_field_select(occupancy, counts, t, budget):
    """Three-tier priority fill from the relaxed-budget LP occupancy, shape (G, 2, T)."""
    mu0, mu1 = occupancy[:, 0, t], occupancy[:, 1, t]
    denom = mu0 + mu1
    with np.errstate(invalid="ignore", divide="ignore"):
        chi = np.where(denom > CHI_DENOM_TOL, mu1 / denom, 0.0)
    eligible = mu1 > PRIORITY_TOL
    high = eligible & (mu0 <= PRIORITY_TOL)
    order = np.concatenate((np.flatnonzero(high), _by_key(np.flatnonzero(eligible & ~high), chi)))
    return budget_fill(counts, order, budget)


def greedy_budget_select(indices, tables, counts, t, budget):
    """Pull up to budget arms outside the dummy groups in decreasing index order."""
    return budget_fill(counts, _by_key(np.flatnonzero(~tables.dummy), indices.column(t)), budget)


def select(policy, counts, t, budget):
    """A prepared deterministic policy's pulls under its per-step rule."""
    tables = policy.instance.tables
    if policy.name == "spi":
        return spi_select(policy.table, tables, counts, t, budget)
    if policy.name == "meanfield":
        return mean_field_select(policy.occupancy, counts, t, budget)
    return greedy_budget_select(policy.table, tables, counts, t, budget)
