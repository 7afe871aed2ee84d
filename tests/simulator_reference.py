"""A per-arm engine with per-type loops, kept as the reference for the count engine.

Every arm is simulated on its own, on the dummy-expanded models: its
initial state is drawn per type, each step it moves by one uniform draw
through the cumulative sums of its row, and the selection rules rank arms
by the prepared policy's own tables with the package's tie order: key
descending, then global state id, then arm id. Lifted to arms, the count
engine's selections must equal these bit for bit, and its episodes must
have the same law, which the tests compare through means.
"""

import numpy as np

from singlepull.model import expand_with_dummies
from singlepull.policies import CHI_DENOM_TOL, PRIORITY_TOL
from singlepull.simulator import InfeasibleAction


def expanded_models(instance):
    return [expand_with_dummies(m) for m in instance.types]


def populate(instance, rng):
    """type_of and initial states of rho arms per type, in type blocks."""
    type_of = np.repeat(np.arange(instance.n_types), instance.rho)
    states = np.concatenate([rng.choice(m.n_states, size=instance.rho, p=d)
                             for m, d in zip(instance.types, instance.initial)])
    return type_of, states


def step(states, actions, models, type_of, pulled, budget, rng):
    """One transition round over a list of ArmModels; returns (next_states, reward)."""
    actions = np.asarray(actions)
    if actions.sum() > budget:
        raise InfeasibleAction(f"{int(actions.sum())} activations exceed budget {budget}")
    if np.any(actions[pulled] == 1):
        raise InfeasibleAction("activation assigned to an already-pulled arm")
    reward = 0.0
    next_states = np.empty_like(states)
    u = rng.random(len(states))
    for n in np.unique(type_of):
        mask = type_of == n
        m = models[n]
        reward += float(m.rewards[states[mask], actions[mask]].sum())
        cdf = np.cumsum(m.transitions[states[mask], actions[mask], :], axis=1)
        cdf[:, -1] = 1.0
        next_states[mask] = (cdf < u[mask, None]).sum(axis=1)
    return next_states, reward


def lookup(values, time_dependent, type_of, states, t):
    """Per-arm index from per-type value arrays (S_n, T) or (S_n, 1)."""
    out = np.empty(len(type_of))
    col = t if time_dependent else 0
    for n in np.unique(type_of):
        mask = type_of == n
        out[mask] = values[n][states[mask], col]
    return out


def dummy_mask_for(models, type_of, states):
    masks = [m.dummy_mask for m in models]
    out = np.zeros(len(type_of), dtype=bool)
    for n in np.unique(type_of):
        sel = type_of == n
        out[sel] = masks[n][states[sel]]
    return out


def global_ids(models, type_of, states):
    offsets = np.cumsum([0] + [m.n_states for m in models])
    return np.array([offsets[n] + s for n, s in zip(type_of, states)], dtype=np.int64)


def ranked(arms, key, gid):
    """arms by key descending, then global state id, then arm id."""
    return arms[np.lexsort((arms, gid[arms], -key[arms]))]


def spi_select(values, models, type_of, states, t, budget):
    actions = np.zeros(len(type_of), dtype=np.int64)
    idx = lookup(values, True, type_of, states, t)
    free = np.flatnonzero(~dummy_mask_for(models, type_of, states) & (idx > 0))
    actions[ranked(free, idx, global_ids(models, type_of, states))[:budget]] = 1
    return actions


def greedy_select(values, time_dependent, models, type_of, states, t, budget):
    actions = np.zeros(len(type_of), dtype=np.int64)
    idx = lookup(values, time_dependent, type_of, states, t)
    free = np.flatnonzero(~dummy_mask_for(models, type_of, states))
    actions[ranked(free, idx, global_ids(models, type_of, states))[:budget]] = 1
    return actions


def mean_field_select(occupancy_blocks, models, type_of, states, t, budget):
    """Three-tier priority fill over the normal-state occupancy blocks (S_n, 2, T).

    An arm in a dummy state has zero occupancy, so it is never eligible.
    """
    n_arms = len(type_of)
    actions = np.zeros(n_arms, dtype=np.int64)
    mu0 = np.zeros(n_arms)
    mu1 = np.zeros(n_arms)
    for i, (n, s) in enumerate(zip(type_of, states)):
        block = occupancy_blocks[n]
        if s < len(block):
            mu0[i], mu1[i] = block[s, 0, t], block[s, 1, t]
    denom = mu0 + mu1
    with np.errstate(invalid="ignore", divide="ignore"):
        chi = np.where(denom > CHI_DENOM_TOL, mu1 / denom, 0.0)
    gid = global_ids(models, type_of, states)
    eligible = mu1 > PRIORITY_TOL
    high = eligible & (mu0 <= PRIORITY_TOL)
    order = np.concatenate((ranked(np.flatnonzero(high), np.zeros(n_arms), gid),
                            ranked(np.flatnonzero(eligible & ~high), chi, gid)))
    actions[order[:budget]] = 1
    return actions


def random_select(free, budget, rng):
    """Uniformly pull min(budget, #free) distinct arms among those flagged free."""
    actions = np.zeros(len(free), dtype=np.int64)
    candidates = np.flatnonzero(free)
    k = min(budget, candidates.size)
    if k > 0:
        actions[rng.choice(candidates, size=k, replace=False)] = 1
    return actions


def select(policy, models, type_of, states, t, budget, rng):
    """A prepared policy's selection rule on arms, rebuilt from its tables."""
    if policy.name == "spi":
        return spi_select(policy.table.values, models, type_of, states, t, budget)
    if policy.name == "meanfield":
        return mean_field_select(policy.solution.occupancy, models, type_of, states, t, budget)
    if policy.name == "random":
        return random_select(~dummy_mask_for(models, type_of, states), budget, rng)
    return greedy_select(policy.table.values, policy.table.time_dependent, models,
                         type_of, states, t, budget)


def run_episode(instance, policy, seed):
    """One per-arm episode; returns (total_reward, per_step_pulls)."""
    models = expanded_models(instance)
    rng = np.random.default_rng(seed)
    type_of, states = populate(instance, rng)
    pulled = np.zeros(len(type_of), dtype=bool)
    budget = instance.step_budget
    total = 0.0
    per_step = np.zeros(instance.horizon, dtype=np.int64)
    for t in range(instance.horizon):
        actions = select(policy, models, type_of, states, t, budget, rng)
        states, reward = step(states, actions, models, type_of, pulled, budget, rng)
        total += reward
        per_step[t] = int(actions.sum())
        pulled |= actions == 1
    return total, per_step
