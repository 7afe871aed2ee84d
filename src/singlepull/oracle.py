"""Exact optimum and exact policy values for tiny instances.

Both routines run one backward induction over the joint product space of
the dummy-expanded arms, so pulled-ness is part of the state and the
single-pull rule is structural. Each epoch t, from the last to the first,
forms Q_a(x) = r_a(x) + E[V_{t+1} | x, a] for every joint state x and
every 0/1 action vector a within the step budget, and a combine step folds
the Q_a into V_t: the optimum keeps max_a Q_a, and a policy's value
sum_a w_t(x, a) Q_a, where w_t(x, a) is the probability that its select,
called once per epoch on every joint state, reachable or not, gives a on
x. Sizes are hard-capped: desk-scale certification tools, not solvers.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import Instance, on_expanded
from .simulator import lift

CAP_ARMS = 4
CAP_STATES = 3
CAP_HORIZON = 5


class CapExceeded(ValueError):
    """Instance is too large for exact joint-state enumeration."""


def _action_vectors(n_arms: int, cap: int) -> np.ndarray:
    """The 0/1 vectors over n_arms with at most cap ones, by count, then in combinations order."""
    return np.array([np.isin(range(n_arms), c) for k in range(min(cap, n_arms) + 1)
                     for c in itertools.combinations(range(n_arms), k)], dtype=np.int64)


def _induction(instance: Instance, combine) -> float:
    """E[V_0(x_0)] of the joint backward induction that combine closes.

    Arms run type by type, rho arms of each type. V_T = 0, and
    V_t = combine(t, Q, actions, states): actions holds the 0/1 action
    vectors within the step budget, one row each, states holds each joint
    state's per-arm expanded states, one row per state in C order, and
    Q[k, j] is Q_a(x) for a = actions[k] and x = states[j].
    """
    arms = [m for m in instance.expanded for _ in range(instance.rho)]
    max_s = max(m.n_states for m in instance.types)
    if len(arms) > CAP_ARMS or max_s > CAP_STATES or instance.horizon > CAP_HORIZON:
        raise CapExceeded(
            f"instance needs ~{(2 * max_s) ** len(arms) * instance.horizon} joint state "
            f"evaluations; cap is arms<={CAP_ARMS}, states<={CAP_STATES}, "
            f"horizon<={CAP_HORIZON}"
        )
    dims = tuple(m.n_states for m in arms)
    states = np.indices(dims).reshape(len(dims), -1).T
    actions = _action_vectors(len(arms), instance.step_budget)
    rewards = np.zeros((len(actions), len(states)))
    for i, m in enumerate(arms):
        rewards += m.rewards[states[:, i], actions[:, [i]]]

    V = np.zeros(dims)
    for t in reversed(range(instance.horizon)):
        Q = np.empty_like(rewards)
        for k, a in enumerate(actions):
            expected = V
            for i, m in enumerate(arms):
                P = m.transitions[:, a[i], :]
                expected = np.moveaxis(np.tensordot(P, expected, axes=(1, i)), 0, i)
            Q[k] = rewards[k] + expected.reshape(-1)
        V = combine(t, Q, actions, states).reshape(dims)

    starts = [d for d in on_expanded(instance.initial) for _ in range(instance.rho)]
    initial = np.ones(len(states))
    for i, d in enumerate(starts):
        initial *= d[states[:, i]]
    return float((initial.reshape(dims) * V).sum())


def exact_optimum(instance: Instance) -> float:
    """Optimal expected total reward: the induction that keeps max_a Q_a.

    Action vectors that activate a dummy arm duplicate a cheaper vector
    (dummy actions are indifferent), so maximizing over all vectors within
    the budget is exact for the single-pull problem.
    """
    return _induction(instance, lambda t, Q, actions, states: Q.max(axis=0))


def policy_select_adapter(instance: Instance, policy):
    """Wrap a deterministic policy prepared on instance as select(states, t).

    The policy selects once on the (J, G) stack of the joint states' counts
    over instance.tables; one lift of the flattened stack, row j's group ids
    offset by j * G, gives each group's pulls to its lowest-id arms.
    """
    n_groups = len(instance.tables.dummy)
    offset = np.repeat(instance.tables.offset, instance.rho)

    def select(states, t):
        ids = offset + states + n_groups * np.arange(len(states))[:, None]
        counts = np.bincount(ids.reshape(-1), minlength=len(states) * n_groups)
        pulls = policy.select(counts.reshape(-1, n_groups), t, instance.step_budget, None)
        return lift(pulls.reshape(-1), ids.reshape(-1)).reshape(states.shape)

    return select


def uniform_random_select(instance: Instance):
    """Exact action law of the uniform random policy, as select(states, t).

    An arm is free while its expanded state is below its type's S. Each
    subset of min(cap, free arms) free arms is alike; the law lists every
    subset of at most cap arms once, with its probability on each row.
    """
    cap = instance.step_budget
    n_states = np.repeat([m.n_states for m in instance.types], instance.rho)
    subsets = _action_vectors(len(n_states), cap)
    sizes = subsets.sum(axis=1)

    def select(states, t):
        free = states < n_states
        fits = (free @ subsets.T == sizes) & (sizes == np.minimum(cap, free.sum(axis=1))[:, None])
        return list(zip((fits / fits.sum(axis=1, keepdims=True)).T, subsets))

    return select


def exact_policy_value(instance: Instance, select) -> float:
    """Exact expected total reward of a selection rule, no sampling.

    The induction keeps sum_a w_t(x, a) Q_a. select(states, t) gets the
    (J, n_arms) stack of all joint states, each arm's expanded state (s +
    S_n once pulled), and returns their actions or, if stochastic, pairs of
    (probabilities per row, one action or a stack). Raises ValueError
    naming t on an action not 0/1 with at most step_budget ones, and on
    probabilities that are negative or do not sum to 1 within 1e-12.
    """
    def combine(t, Q, actions, states):
        bits = 1 << np.arange(states.shape[1])
        index = np.full(2 * bits[-1], -1)
        index[actions @ bits] = np.arange(len(actions))
        chosen = select(states, t)
        weights = np.zeros_like(Q)
        for p, a in [(1.0, chosen)] if isinstance(chosen, np.ndarray) else chosen:
            a = np.broadcast_to(a, states.shape)
            k = np.where(((a == 0) | (a == 1)).all(axis=1), index[(a == 1) @ bits], -1)
            if (k < 0).any():
                raise ValueError(f"select gave {a[k < 0][0]} at t={t}: not 0/1 within budget")
            weights[k, np.arange(len(states))] += p
        off = (weights < 0).any(axis=0) | (np.abs(weights.sum(axis=0) - 1.0) > 1e-12)
        if off.any():
            raise ValueError(f"select's law at t={t} on {states[off][0]}: not >= 0 summing to 1")
        return (weights * Q).sum(axis=0)

    return _induction(instance, combine)
