import numpy as np
import pytest

from singlepull import ArmModel, Instance, domains, simplex
from singlepull.model import point_initial
from singlepull.policies import BasePolicy


def random_arm(rng, n_states, active_only_rewards=True, label="arm"):
    """Dirichlet-row kernel with nonnegative rewards; always valid."""
    P = rng.dirichlet(np.ones(n_states), size=(n_states, 2))
    r = np.zeros((n_states, 2))
    r[:, 1] = rng.uniform(0.0, 1.0, size=n_states) * (np.arange(n_states) + 1.0)
    if not active_only_rewards:
        r[:, 0] = rng.uniform(0.0, 0.5, size=n_states)
    return ArmModel(n_states=n_states, transitions=P, rewards=r, label=label)


def random_tiny_instance(rng, max_arms=4, max_states=3, max_horizon=4):
    """Oracle-sized instance with point-mass initial states."""
    n_arms = int(rng.integers(2, max_arms + 1))
    rho = int(rng.choice([d for d in (1, 2, n_arms) if n_arms % d == 0]))
    n_types = n_arms // rho
    S = int(rng.integers(2, max_states + 1))
    T = int(rng.integers(2, max_horizon + 1))
    budget = int(rng.integers(1, 3))
    types = tuple(random_arm(rng, S, label=f"t{i}") for i in range(n_types))
    initial = tuple(point_initial(S, int(rng.integers(0, S))) for _ in range(n_types))
    return Instance(types=types, rho=rho, budget=budget, horizon=T, initial=initial)


def mixed_instance():
    """Two RANDOM S=5 types and two CPAP S=3 types, seed 0, alternating in one instance."""
    parts = [domains.make_instance(domains.DomainSpec(family, 2, S, seed=0),
                                   budget=1, rho=2, horizon=4)
             for family, S in ((domains.RANDOM, 5), (domains.CPAP, 3))]
    return Instance(types=[m for pair in zip(*(p.types for p in parts)) for m in pair],
                    initial=[d for pair in zip(*(p.initial for p in parts)) for d in pair],
                    rho=2, budget=1, horizon=4)


def stall_highs(monkeypatch, status_name):
    """Make every later HiGHS solve end with the model status of that name."""
    _core = simplex._highs()

    status = getattr(_core.HighsModelStatus, status_name)

    class Stalled(_core._Highs):
        def getModelStatus(self):
            return status

    monkeypatch.setattr(_core, "_Highs", Stalled)


def planned_select(orders, counts, t, budget):
    """The shared select of the deterministic policies, on the given orders."""
    policy = BasePolicy()
    policy.orders = orders
    return policy.select(counts, t, budget, None)


def trajectory_records(instance, trajectory):
    """The (t, arm, state, action, reward) record of every entry of a pair-id trajectory.

    Entry (t, arm) is the pair id p = 2g + a; arm has type arm // rho, and
    its state is g less the type's offset. Fields are Python ints and floats.
    """
    tables = instance.tables
    return [(t, arm, (p >> 1) - int(tables.offset[arm // instance.rho]), p & 1,
             float(tables.rewards[p]))
            for t, row in enumerate(trajectory.tolist()) for arm, p in enumerate(row)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
