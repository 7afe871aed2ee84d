"""Generators for the experiment families.

CPAP        -- adherence birth-death chains: passive steps decay one level
               deterministically, active steps move up or down with a
               per-type probability; the reward is the adherence level.
MHMH        -- mobile-health engagement chains with greedy and reliable
               beneficiary types; rewards are collected on pull only.
EHRENFEST   -- discretized birth-death energy model on levels 0..S: n_states=S
               gives S + 1 states, though reports print S. A draw with
               dt*max(mu, lam)*S >= 1 is rejected: never at dt=0.01, S <= 10.
RANDOM      -- fully random kernels (flat Dirichlet rows) with
               active-collected rewards.

All generators are pure functions of (parameters, seed) and their outputs
pass validation with zero errors. Each generator reads its own params from
spec.params and states each default once. A DomainSpec takes only the
params keys its family's generator reads, with values of the type it reads
(PARAM_KEYS), and raises ValueError on any other.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import ArmModel, Instance, point_initial

CPAP = "CPAP"
MHMH = "MHMH"
EHRENFEST = "EHRENFEST"
RANDOM = "RANDOM"
FAMILIES = (CPAP, MHMH, EHRENFEST, RANDOM)


@dataclass
class DomainSpec:
    """A family's generator input. EHRENFEST's n_states=S gives S + 1 states, levels 0..S;
    a draw with dt*max(mu, lam)*S >= 1 is rejected, never at the default dt=0.01 if S <= 10."""

    family: str
    n_types: int
    n_states: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        unknown = sorted(set(self.params) - set(PARAM_KEYS[self.family]))
        if unknown:
            raise ValueError(f"unknown {self.family} params {unknown}; "
                             f"choose from {list(PARAM_KEYS[self.family])}")
        for key, value in self.params.items():
            kind, check = PARAM_KEYS[self.family][key]
            if not check(value):
                raise ValueError(f"{self.family} param {key!r} must be {kind}, got {value!r}")


def make_cpap(spec: DomainSpec) -> list[ArmModel]:
    """Adherence chains: states 0..S-1, reward s+1, deterministic passive decay.

    Active transitions move up with a per-type probability q drawn
    uniformly from (0, 1); at the top state the up-move stays put, at the
    bottom the down-move stays put. By default the adherence reward is paid
    under both actions; params active_only_rewards=True switches to
    pay-on-pull.
    """
    S = spec.n_states
    if S < 2:
        raise ValueError("CPAP needs at least 2 states")
    active_only_rewards = spec.params.get("active_only_rewards", False)
    rng = np.random.default_rng(spec.seed)
    models = []
    for i in range(spec.n_types):
        q = rng.uniform(0.0, 1.0)
        P = np.zeros((S, 2, S))
        for s in range(S):
            P[s, 0, max(s - 1, 0)] = 1.0
            up = min(s + 1, S - 1)
            down = max(s - 1, 0)
            P[s, 1, up] += q
            P[s, 1, down] += 1.0 - q
        r = np.tile(np.arange(1, S + 1, dtype=float)[:, None], (1, 2))
        if active_only_rewards:
            r[:, 0] = 0.0
        models.append(ArmModel(n_states=S, transitions=P, rewards=r, label=f"cpap-{i}"))
    return models


MHMH_DEFAULT_RANGES = {
    "eta_g_s": (0.3, 0.7),
    "eta_r_s": (0.3, 0.7),
    "eta_r_e": (0.5, 0.9),
    "eta_g_d": (0.1, 0.5),
    "eta_r_d": (0.1, 0.5),
    "C": (0.4, 0.9),
}


def _is_number(value) -> bool:
    """An int or a float, the Python value of a JSON number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_range(value) -> bool:
    return _is_number(value) or (isinstance(value, (list, tuple)) and len(value) == 2
                                 and all(map(_is_number, value)))


# The params keys each family's generator reads, each with the type of
# value it reads: a description and a check.
PARAM_KEYS = {
    CPAP: {"active_only_rewards": ("a boolean", lambda value: isinstance(value, bool))},
    MHMH: {key: ("a number or a [lo, hi] pair of numbers", _is_range)
           for key in MHMH_DEFAULT_RANGES},
    EHRENFEST: {"dt": ("a number", _is_number)},
    RANDOM: {},
}

# State order for the engagement chains.
MHMH_START, MHMH_ENGAGED, MHMH_DROPOUT = 0, 1, 2


def _draw_param(rng, value):
    if np.isscalar(value):
        v = float(value)
    else:
        lo, hi = value
        v = float(rng.uniform(lo, hi))
    if not (0.0 < v < 1.0):
        raise ValueError(f"MHMH parameters must lie in (0, 1), got {v}")
    return v


def make_mhmh(spec: DomainSpec) -> list[ArmModel]:
    """Greedy/reliable engagement chains, half of the types each.

    Three states (start, engaged, dropout). Greedy arms drop out of the
    engaged state no matter what; reliable arms stay engaged for sure when
    called and with probability eta_r_e otherwise. Rewards are collected on
    pull only: 1 in the engaged state for greedy types, C < 1 for reliable
    types, zero elsewhere.
    """
    if spec.n_states != 3:
        raise ValueError("MHMH uses exactly 3 states")
    rng = np.random.default_rng(spec.seed)
    ranges = dict(MHMH_DEFAULT_RANGES)
    ranges.update(spec.params)
    n_greedy = spec.n_types // 2 + spec.n_types % 2
    models = []
    for i in range(spec.n_types):
        greedy = i < n_greedy
        eta_s = _draw_param(rng, ranges["eta_g_s" if greedy else "eta_r_s"])
        eta_d = _draw_param(rng, ranges["eta_g_d" if greedy else "eta_r_d"])
        eta_e = _draw_param(rng, ranges["eta_r_e"])
        C = _draw_param(rng, ranges["C"])
        P = np.zeros((3, 2, 3))
        # Active rows.
        P[MHMH_START, 1, MHMH_ENGAGED] = 1.0
        if greedy:
            P[MHMH_ENGAGED, 1, MHMH_DROPOUT] = 1.0
        else:
            P[MHMH_ENGAGED, 1, MHMH_ENGAGED] = 1.0
        P[MHMH_DROPOUT, 1, MHMH_START] = eta_d
        P[MHMH_DROPOUT, 1, MHMH_DROPOUT] = 1.0 - eta_d
        # Passive rows.
        P[MHMH_START, 0, MHMH_ENGAGED] = eta_s
        P[MHMH_START, 0, MHMH_DROPOUT] = 1.0 - eta_s
        if greedy:
            P[MHMH_ENGAGED, 0, MHMH_DROPOUT] = 1.0
        else:
            P[MHMH_ENGAGED, 0, MHMH_ENGAGED] = eta_e
            P[MHMH_ENGAGED, 0, MHMH_DROPOUT] = 1.0 - eta_e
        P[MHMH_DROPOUT, 0, MHMH_START] = eta_d
        P[MHMH_DROPOUT, 0, MHMH_DROPOUT] = 1.0 - eta_d
        r = np.zeros((3, 2))
        r[MHMH_ENGAGED, 1] = 1.0 if greedy else C
        label = f"mhmh-{'greedy' if greedy else 'reliable'}-{i}"
        models.append(ArmModel(n_states=3, transitions=P, rewards=r, label=label))
    return models


def make_ehrenfest(spec: DomainSpec) -> list[ArmModel]:
    """Discretized energy chains on states 0..S with step params dt (0.01 by default).

    Active: move down s -> s-1 at rate mu*s, reward rate c*s. Passive:
    recover s -> s+1 at rate lam*(S-s), no reward. Per-type parameters are
    c ~ U(1, 10) and mu, lam ~ U(0, 10).
    """
    S = spec.n_states
    dt = float(spec.params.get("dt", 0.01))
    rng = np.random.default_rng(spec.seed)
    models = []
    for i in range(spec.n_types):
        c = rng.uniform(1.0, 10.0)
        mu = rng.uniform(0.0, 10.0)
        lam = rng.uniform(0.0, 10.0)
        models.append(ehrenfest_arm(c, mu, lam, S, dt, label=f"ehrenfest-{i}"))
    return models


def ehrenfest_arm(c: float, mu: float, lam: float, S: int, dt: float,
                  label: str = "ehrenfest") -> ArmModel:
    if dt * max(mu * S, lam * S) >= 1.0:
        raise ValueError(
            f"invalid discretization: dt*max(mu*S, lam*S) = {dt * max(mu * S, lam * S):g} >= 1"
        )
    n = S + 1
    P = np.zeros((n, 2, n))
    r = np.zeros((n, 2))
    for s in range(n):
        down = mu * s * dt
        P[s, 1, max(s - 1, 0)] += down if s > 0 else 0.0
        P[s, 1, s] += 1.0 - (down if s > 0 else 0.0)
        up = lam * (S - s) * dt
        P[s, 0, min(s + 1, S)] += up if s < S else 0.0
        P[s, 0, s] += 1.0 - (up if s < S else 0.0)
        r[s, 1] = c * s * dt
    return ArmModel(n_states=n, transitions=P, rewards=r, label=label)


def make_random(spec: DomainSpec) -> list[ArmModel]:
    """Flat-Dirichlet kernels with active-collected rewards r(s,1) ~ U(0,1)*(s+1)."""
    S = spec.n_states
    if S < 2:
        raise ValueError("random domain needs at least 2 states")
    rng = np.random.default_rng(spec.seed)
    models = []
    for i in range(spec.n_types):
        P = rng.dirichlet(np.ones(S), size=(S, 2))
        r = np.zeros((S, 2))
        r[:, 1] = rng.uniform(0.0, 1.0, size=S) * (np.arange(S) + 1.0)
        models.append(ArmModel(n_states=S, transitions=P, rewards=r, label=f"random-{i}"))
    return models


GENERATORS = {CPAP: make_cpap, MHMH: make_mhmh, EHRENFEST: make_ehrenfest, RANDOM: make_random}


def make_models(spec: DomainSpec) -> list[ArmModel]:
    """The arm types of spec, drawn by its family's generator."""
    return GENERATORS[spec.family](spec)


def default_initial_state(family: str, model: ArmModel) -> int:
    """Fixed per-family starting state: CPAP top level, MHMH start,
    energy model fully charged, random domain state 0."""
    if family == CPAP:
        return model.n_states - 1
    if family == MHMH:
        return MHMH_START
    if family == EHRENFEST:
        return model.n_states - 1
    return 0


def make_instance(spec: DomainSpec, budget: int, rho: int, horizon: int) -> Instance:
    """Assemble a replicated instance with the family's default initials."""
    models = make_models(spec)
    initial = tuple(
        point_initial(m.n_states, default_initial_state(spec.family, m)) for m in models
    )
    return Instance(
        types=tuple(models), rho=rho, budget=budget, horizon=horizon, initial=initial
    )
