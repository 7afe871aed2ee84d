"""The exact oracle's combine step one joint state at a time, kept as the reference.

exact_policy_value calls a rule once per epoch on the stack of every
joint state and maps each row's action by its bit code. This reference
calls the same rule on one-row stacks, one joint state at a time, looks
each action up by its tuple and adds each probability in turn: the combine
step the oracle had before select took stacks. Both must give the same
value, bit for bit.
"""

import numpy as np

from singlepull.oracle import _induction


def exact_policy_value(instance, select):
    """Expected total reward of select, calling it on every joint state alone."""
    def combine(t, Q, actions, states):
        row = {a: k for k, a in enumerate(map(tuple, actions.tolist()))}
        weights = np.zeros_like(Q)
        for j, x in enumerate(states):
            chosen = select(x[None, :], t)
            if isinstance(chosen, np.ndarray):
                chosen = [(1.0, chosen)]
            for p, a in chosen:
                k = row.get(tuple(np.asarray(a).reshape(-1).tolist()))
                if k is None:
                    raise ValueError(f"select gave {a} at t={t} on state {x}")
                weights[k, j] += np.reshape(p, -1)[0]
        return (weights * Q).sum(axis=0)

    return _induction(instance, combine)
