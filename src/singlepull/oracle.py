"""Exact optimum and exact policy values for tiny instances.

Both routines work on the joint product space of the dummy-expanded arms,
so pulled-ness is part of the state and the single-pull rule is structural.
The optimum is a backward induction maximizing over all action vectors
within the step budget; the policy value is a forward propagation of the
joint distribution under a given (deterministic or explicitly enumerated
stochastic) selection rule. Both read the instance's expanded types, which
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


def _check_cap(instance: Instance):
    n_arms = instance.n_arms
    max_s = max(m.n_states for m in instance.types)
    joint = (2 * max_s) ** n_arms
    if n_arms > CAP_ARMS or max_s > CAP_STATES or instance.horizon > CAP_HORIZON:
        raise CapExceeded(
            f"instance needs ~{joint * instance.horizon} joint state evaluations; "
            f"cap is arms<={CAP_ARMS}, states<={CAP_STATES}, horizon<={CAP_HORIZON}"
        )


def _arm_setup(instance: Instance):
    """Per-arm expanded models, expanded initial vectors and joint-space dims.

    Arms run type by type, rho arms of each type.
    """
    initials = [expand_initial(m, d) for m, d in zip(instance.types, instance.initial)]
    arm_models = [m for m in instance.expanded for _ in range(instance.rho)]
    arm_init = [d for d in initials for _ in range(instance.rho)]
    dims = tuple(m.n_states for m in arm_models)
    return arm_models, arm_init, dims


def _action_vectors(n_arms: int, cap: int):
    vecs = []
    for k in range(min(cap, n_arms) + 1):
        for subset in itertools.combinations(range(n_arms), k):
            a = np.zeros(n_arms, dtype=np.int64)
            a[list(subset)] = 1
            vecs.append(a)
    return vecs


def _reward_tensor(arm_models, a: np.ndarray, dims):
    total = np.zeros(dims)
    for i, m in enumerate(arm_models):
        shape = [1] * len(dims)
        shape[i] = dims[i]
        total = total + m.rewards[:, a[i]].reshape(shape)
    return total


def _propagate(W: np.ndarray, arm_models, a: np.ndarray):
    """E[W(next) | current] for a fixed action vector, arm by arm."""
    out = W
    for i, m in enumerate(arm_models):
        P = m.transitions[:, a[i], :]
        out = np.moveaxis(np.tensordot(P, out, axes=(1, i)), 0, i)
    return out


def exact_optimum(instance: Instance) -> float:
    """Optimal expected total reward by joint backward induction.

    Action vectors that activate a dummy arm duplicate a cheaper vector
    (dummy actions are indifferent), so enumerating all vectors within the
    budget and maximizing is exact for the single-pull problem.
    """
    _check_cap(instance)
    arm_models, arm_init, dims = _arm_setup(instance)
    cap = instance.step_budget
    vectors = _action_vectors(len(arm_models), cap)
    rewards = [_reward_tensor(arm_models, a, dims) for a in vectors]

    V = np.zeros(dims)
    for _ in range(instance.horizon):
        best = None
        for a, R in zip(vectors, rewards):
            Q = R + _propagate(V, arm_models, a)
            best = Q if best is None else np.maximum(best, Q)
        V = best
    dist = _joint_initial(arm_init, dims)
    return float((dist * V).sum())


def _joint_initial(arm_init, dims):
    dist = np.ones(dims)
    for i, d in enumerate(arm_init):
        shape = [1] * len(dims)
        shape[i] = dims[i]
        dist = dist * d.reshape(shape)
    return dist


def _joint_states(dims) -> np.ndarray:
    grids = np.indices(dims)
    return grids.reshape(len(dims), -1).T  # (J, M)


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
        k = min(cap, free.size)
        if k == 0:
            return [(1.0, np.zeros(len(states_row), dtype=np.int64))]
        subsets = list(itertools.combinations(free, k))
        out = []
        for subset in subsets:
            a = np.zeros(len(states_row), dtype=np.int64)
            a[list(subset)] = 1
            out.append((1.0 / len(subsets), a))
        return out

    return select


def exact_policy_value(instance: Instance, select) -> float:
    """Exact expected total reward of a selection rule, no sampling.

    select(states_row, t) returns an action vector, or a list of
    (probability, action vector) pairs for stochastic rules; states_row
    holds each arm's expanded state, s + S_n once the arm is pulled.
    """
    _check_cap(instance)
    arm_models, arm_init, dims = _arm_setup(instance)
    states = _joint_states(dims)
    dist = _joint_initial(arm_init, dims).reshape(-1)

    total = 0.0
    for t in range(instance.horizon):
        groups: dict[tuple, np.ndarray] = {}
        support = np.flatnonzero(dist > 0)
        for j in support:
            chosen = select(states[j], t)
            if isinstance(chosen, np.ndarray):
                chosen = [(1.0, chosen)]
            for p, a in chosen:
                key = tuple(int(x) for x in a)
                vec = groups.setdefault(key, np.zeros(dist.size))
                vec[j] += p * dist[j]
        nxt = np.zeros(dims)
        for key, weights in groups.items():
            a = np.array(key, dtype=np.int64)
            W = weights.reshape(dims)
            total += float((W * _reward_tensor(arm_models, a, dims)).sum())
            moved = W
            for i, m in enumerate(arm_models):
                P = m.transitions[:, a[i], :]
                moved = np.moveaxis(np.tensordot(P.T, moved, axes=(1, i)), 0, i)
            nxt += moved
        dist = nxt.reshape(-1)
    return total
