"""Per-type loops over np.unique(type_of) on two simulated systems, kept as a reference.

Each function walks the types present in a population and gathers from
that type's own arrays through a boolean mask, the way the simulator and
the selection rules worked before ArmTables, IndexTable.flat and the
stacked mean-field occupancy replaced them with one gather per call.

run_episode also keeps the engine's former split into two systems: the
mask-space policies (MASK_SPACE) step on the original models and see
collapsed states plus a pulled mask, while the others step on the
dummy-expanded models. It composes the loops with the package's
replicate, greedy and random selection into a whole episode, whose
trajectory records each system's own state ids.
"""

import numpy as np

from singlepull.model import expand_with_dummies, replicate
from singlepull.policies import CHI_DENOM_TOL, PRIORITY_TOL, greedy_budget_select, random_select
from singlepull.simulator import EpisodeResult, InfeasibleAction, _episode_rng

MASK_SPACE = ("meanfield", "whittle-original", "random")


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
    """IndexTable.lookup over the per-type value arrays."""
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


def mean_field_select(occupancy_blocks, type_of, states, pulled, t, budget):
    """Three-tier priority fill over per-type occupancy blocks (S_n, 2, T)."""
    n_arms = len(type_of)
    actions = np.zeros(n_arms, dtype=np.int64)
    if budget <= 0:
        return actions
    mu0 = np.empty(n_arms)
    mu1 = np.empty(n_arms)
    for n in np.unique(type_of):
        mask = type_of == n
        block = occupancy_blocks[n]
        mu0[mask] = block[states[mask], 0, t]
        mu1[mask] = block[states[mask], 1, t]
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


def spi_select(values, models, type_of, states, t, budget):
    n_arms = len(type_of)
    actions = np.zeros(n_arms, dtype=np.int64)
    if budget <= 0 or n_arms == 0:
        return actions
    idx = lookup(values, True, type_of, states, t)
    order = np.argsort(-idx, kind="stable")
    visited = order[: min(budget, int((idx[order] > 0).sum()))]
    dummy = dummy_mask_for(models, type_of[visited], states[visited])
    actions[visited[~dummy]] = 1
    return actions


class _LoopTable:
    """IndexTable stand-in whose lookup is the per-type loop."""

    def __init__(self, table):
        self.values, self.time_dependent = table.values, table.time_dependent

    def lookup(self, type_of, states, t):
        return lookup(self.values, self.time_dependent, type_of, states, t)


def select(policy, models, type_of, states, pulled, t, budget, rng):
    """A prepared policy's selection rule on its system, rebuilt from the loops above.

    Mask-space policies get collapsed states, so only the normal rows of
    their tables are read, and exclude the pulled arms by the mask.
    """
    if policy.name == "spi":
        return spi_select(policy.table.values, models, type_of, states, t, budget)
    if policy.name == "meanfield":
        return mean_field_select(policy.solution.occupancy, type_of, states, pulled, t, budget)
    if policy.name == "random":
        return random_select(~pulled, budget, rng)
    excluded = pulled
    if policy.name not in MASK_SPACE:
        excluded = pulled | dummy_mask_for(models, type_of, states)
    return greedy_budget_select(_LoopTable(policy.table), type_of, states, t, budget, excluded)


def run_episode(instance, policy, seed):
    """One episode with the loop step and loop selection; same seeds and streams."""
    models = list(instance.types)
    if policy.name not in MASK_SPACE:
        models = [expand_with_dummies(m) for m in models]
    pop = replicate(instance, seed)
    states = pop.states.copy()
    pulled = pop.pulled.copy()
    type_of = pop.type_of
    budget = instance.step_budget
    rng = _episode_rng(seed)
    T = instance.horizon
    total = 0.0
    per_step = np.zeros(T, dtype=np.int64)
    pulls_per_arm = np.zeros(instance.n_arms, dtype=np.int64)
    pull_time = np.full(instance.n_arms, -1, dtype=np.int64)
    trajectory = []
    for t in range(T):
        actions = select(policy, models, type_of, states, pulled, t, budget, rng)
        rewards_now = np.array(
            [models[type_of[i]].rewards[states[i], actions[i]] for i in range(len(states))]
        )
        for i in range(len(states)):
            trajectory.append((t, int(i), int(states[i]), int(actions[i]), float(rewards_now[i])))
        next_states, reward = step(states, actions, models, type_of, pulled, budget, rng)
        total += reward
        hit = actions == 1
        per_step[t] = int(hit.sum())
        pulls_per_arm[hit] += 1
        pull_time[hit & (pull_time == -1)] = t
        pulled |= hit
        states = next_states
    return EpisodeResult(total_reward=total, per_step_pulls=per_step,
                         pulls_per_arm=pulls_per_arm, pull_time=pull_time,
                         trajectory=trajectory)
