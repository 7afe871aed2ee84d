"""Exact optimum and exact policy values for tiny instances.

Both routines run one backward induction over the joint product space of
the dummy-expanded arms, so pulled-ness is part of the state and the
single-pull rule is structural. Each epoch t, from the last to the first,
forms for every joint state x and every 0/1 action vector a within the
step budget Q_a(x) = r_a(x) + E[V_{t+1} | x, a]; a combine step then folds
the Q_a into V_t. The optimum keeps max_a Q_a. A policy's value keeps
sum_a w_t(x, a) Q_a, where w_t(x, a) is the probability that its
select(states_row, t) gives a on x. select is called on every joint state,
reachable or not, epoch by epoch in reverse time order, so it must depend
on (states_row, t) alone. Both read the instance's expanded types, which
construction checked and expanded once. Sizes are hard-capped: these are
desk-scale certification tools, not solvers.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import Instance, expand_initial
from .simulator import lift

CAP_ARMS = 4
CAP_STATES = 3
CAP_HORIZON = 5


class CapExceeded(ValueError):
    """Instance is too large for exact joint-state enumeration."""


def _induction(instance: Instance, combine) -> float:
    """E[V_0(x_0)] of the joint backward induction that combine closes.

    Arms run type by type, rho arms of each type. V_T = 0, and
    V_t = combine(t, Q, actions, states): actions lists the action vectors
    within the step budget as tuples, states holds each joint state's
    per-arm expanded states, one row per state in C order, and Q[k, j] is
    Q_a(x) for a = actions[k] and x = states[j].
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
    actions = [tuple(int(i in pulled) for i in range(len(arms)))
               for k in range(min(instance.step_budget, len(arms)) + 1)
               for pulled in itertools.combinations(range(len(arms)), k)]
    pulls = np.array(actions)
    rewards = np.zeros((len(actions), len(states)))
    for i, m in enumerate(arms):
        rewards += m.rewards[states[:, i], pulls[:, [i]]]

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

    starts = [expand_initial(m, d) for m, d in zip(instance.types, instance.initial)
              for _ in range(instance.rho)]
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
    """Wrap a policy prepared on instance as select(states_row, t).

    The oracle's joint states are the dummy-expanded states every policy
    reads pulled-ness from; the policy selects once on their counts over
    instance.tables, and its pulls are lifted to the lowest-id arms of each
    group, as a recorded episode lifts them.
    """
    arm_type = np.repeat(np.arange(instance.n_types), instance.rho)
    cap = instance.step_budget
    tables = instance.tables
    rng = np.random.default_rng(0)  # deterministic policies never draw

    def select(states_row, t):
        ids = tables.ids(arm_type, states_row)
        counts = np.bincount(ids, minlength=len(tables.dummy))
        return lift(policy.select(counts, t, cap, rng), ids)

    return select


def uniform_random_select(instance: Instance):
    """Exact action distribution of the uniform random policy.

    An arm is free while its expanded state is below its type's S, that is
    in the normal half.
    """
    cap = instance.step_budget
    n_states = np.repeat([m.n_states for m in instance.types], instance.rho)

    def select(states_row, t):
        free = np.flatnonzero(states_row < n_states)
        subsets = list(itertools.combinations(free, min(cap, free.size)))  # [()]: pull none
        out = []
        for subset in subsets:
            a = np.zeros(len(states_row), dtype=np.int64)
            a[list(subset)] = 1
            out.append((1.0 / len(subsets), a))
        return out

    return select


def exact_policy_value(instance: Instance, select) -> float:
    """Exact expected total reward of a selection rule, no sampling.

    The induction keeps sum_a w_t(x, a) Q_a. select(states_row, t) returns
    an action vector, or a list of (probability, action vector) pairs for
    stochastic rules; states_row holds each arm's expanded state, s + S_n
    once the arm is pulled. An action that is not a 0/1 vector over the
    arms with at most step_budget ones raises ValueError naming t.
    """
    def combine(t, Q, actions, states):
        row = {a: k for k, a in enumerate(actions)}
        weights = np.zeros_like(Q)
        for j, x in enumerate(states):
            chosen = select(x, t)
            if isinstance(chosen, np.ndarray):
                chosen = [(1.0, chosen)]
            for p, a in chosen:
                k = row.get(tuple(np.asarray(a).tolist()))
                if k is None:
                    raise ValueError(f"select gave {a} at t={t} on state {x}; an action is "
                                     f"a 0/1 vector over the {len(x)} arms with at most "
                                     f"{instance.step_budget} ones")
                weights[k, j] += p
        return (weights * Q).sum(axis=0)

    return _induction(instance, combine)
