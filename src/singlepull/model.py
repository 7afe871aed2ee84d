"""Arm MDPs, bandit instances, dummy-state expansion, and validation.

An arm is a two-action MDP (action 1 = pull/activate, action 0 = passive).
Pulling an arm at most once over the horizon is encoded structurally by
expanding the state space with *dummy states*: the dummy copy of state s is
entered when s is pulled, evolves like s under the passive kernel, and pays
the passive reward under both actions, so a pulled arm can never gain from
further activation.

An Instance is checked and dummy-expanded once, when it is made. The
policies and the simulator run on its ArmTables, built from the expanded
types, and none of them checks or expands again. Only ArmTables.build, the
whittle-infinite policy's prepare and the oracle read Instance.expanded.
The LP builder and the finite-horizon index passes read the unexpanded
types: there a pulled arm retires with its passive value. SPI, meanfield,
whittle-finite and qdiff place their per-state tables on the expanded
groups with on_expanded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-9


def _freeze(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ArmModel:
    """One arm type: transition tensor, reward table, dummy bookkeeping.

    transitions[s, a, s2] is P(s2 | s, a); rewards[s, a] is the immediate
    reward. An expanded model (expand_with_dummies) holds the dummy copy of
    state s at s + n_states // 2. Arrays are frozen after construction and
    safe to share across threads.
    """

    n_states: int
    transitions: np.ndarray
    rewards: np.ndarray
    expanded: bool = False
    label: str = ""

    def __post_init__(self):
        P = _freeze(self.transitions)
        r = _freeze(self.rewards)
        if P.shape != (self.n_states, 2, self.n_states):
            raise ValueError(
                f"transitions must have shape ({self.n_states}, 2, {self.n_states}), got {P.shape}"
            )
        if r.shape != (self.n_states, 2):
            raise ValueError(f"rewards must have shape ({self.n_states}, 2), got {r.shape}")
        object.__setattr__(self, "transitions", P)
        object.__setattr__(self, "rewards", r)

    @property
    def dummy_mask(self) -> np.ndarray:
        """True on the dummy half, the upper n_states // 2 states of an expanded model."""
        first_dummy = self.n_states // 2 if self.expanded else self.n_states
        return np.arange(self.n_states) >= first_dummy


@dataclass(frozen=True)
class Instance:
    """N arm types replicated rho times each, with budget and horizon.

    budget is the per-class activation budget K; the physical per-step cap
    in a replicated population is K * rho. initial[n] is the initial state
    distribution of type n over its states. The types are unexpanded.

    Construction raises ValueError("invalid instance: ...") on any error
    validate_instance reports, then stores expanded (expand_with_dummies of
    each type) and tables (the ArmTables of those expanded arms).
    """

    types: tuple[ArmModel, ...]
    rho: int
    budget: int
    horizon: int
    initial: tuple[np.ndarray, ...]
    expanded: tuple[ArmModel, ...] = field(init=False, repr=False, compare=False)
    tables: ArmTables = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "initial", tuple(_freeze(d) for d in self.initial))
        require_valid(self)
        object.__setattr__(self, "expanded", tuple(expand_with_dummies(m) for m in self.types))
        object.__setattr__(self, "tables", ArmTables.build(self.expanded, self.initial))

    @property
    def n_types(self) -> int:
        return len(self.types)

    @property
    def n_arms(self) -> int:
        return self.rho * len(self.types)

    @property
    def step_budget(self) -> int:
        """Hard per-step activation cap for the replicated population."""
        return self.budget * self.rho


def validate_arm(model: ArmModel) -> list[str]:
    """The errors in stochasticity and rewards; report, never raise."""
    errors = []
    P, r = model.transitions, model.rewards

    if not np.all(np.isfinite(P)):
        # NaN fails every comparison below, so it must be caught here
        errors.append(f"{int(np.sum(~np.isfinite(P)))} non-finite transition entries")
    if np.any(P < -1e-15) or np.any(P > 1 + 1e-15):
        bad = int(np.sum((P < -1e-15) | (P > 1 + 1e-15)))
        errors.append(f"{bad} transition entries outside [0, 1]")
    row_sums = P.sum(axis=2)
    for s in range(model.n_states):
        for a in (0, 1):
            if abs(row_sums[s, a] - 1.0) > ROW_SUM_TOL:
                errors.append(f"row sum {row_sums[s, a]:.12g} != 1 at state {s}, action {a}")
    if not np.all(np.isfinite(r)):
        errors.append("non-finite reward entries")
    return errors


def validate_instance(instance: Instance) -> list[str]:
    """The instance-level errors, on top of each type's validate_arm errors."""
    errors = []
    if not instance.types:
        errors.append("an instance needs at least one arm type")
    if instance.rho < 1:
        errors.append(f"rho must be positive, got {instance.rho}")
    if instance.horizon < 1:
        errors.append(f"horizon must be positive, got {instance.horizon}")
    if instance.budget < 0:
        errors.append(f"budget must be non-negative, got {instance.budget}")
    if len(instance.initial) != len(instance.types):
        errors.append("one initial distribution required per type")
        return errors
    for n, (model, dist) in enumerate(zip(instance.types, instance.initial)):
        if model.expanded:
            errors.append(f"type {n}: already contains dummy states; "
                          "an instance expands its types itself")
            continue
        errors.extend(f"type {n}: {msg}" for msg in validate_arm(model))
        if len(dist) != model.n_states:
            errors.append(f"type {n}: initial distribution has length {len(dist)}, "
                          f"expected {model.n_states}")
            continue
        if not np.all(np.isfinite(dist)):
            errors.append(f"type {n}: non-finite initial probabilities")
        elif abs(dist.sum() - 1.0) > ROW_SUM_TOL:
            errors.append(f"type {n}: initial distribution sums to {dist.sum():.12g}")
        if np.any(dist < -1e-15):
            errors.append(f"type {n}: negative initial probabilities")
    return errors


def require_valid(instance: Instance):
    errors = validate_instance(instance)
    if errors:
        raise ValueError("invalid instance: " + "; ".join(errors))


def expand_with_dummies(model: ArmModel) -> ArmModel:
    """Duplicate the state space with absorbing dummy copies.

    The dummy copy of state s has index s + n_states. Pulling a normal state
    routes its action-1 transition onto the dummy copies of the targets;
    dummy states evolve like their origin's passive kernel under both actions
    and pay the origin's passive reward under both actions.
    """
    if model.expanded:
        raise ValueError("model already contains dummy states")
    S = model.n_states
    P, r = model.transitions, model.rewards
    P2 = np.zeros((2 * S, 2, 2 * S))
    r2 = np.zeros((2 * S, 2))
    P2[:S, 0, :S] = P[:, 0, :]
    P2[:S, 1, S:] = P[:, 1, :]
    P2[S:, 0, S:] = P[:, 0, :]
    P2[S:, 1, S:] = P[:, 0, :]
    r2[:S, :] = r
    r2[S:, 0] = r[:, 0]
    r2[S:, 1] = r[:, 0]
    return ArmModel(
        n_states=2 * S,
        transitions=P2,
        rewards=r2,
        expanded=True,
        label=model.label,
    )


def on_expanded(blocks) -> list[np.ndarray]:
    """Per-type arrays over original states placed on the expanded ones, 0 on the dummy half."""
    return [np.concatenate([b, np.zeros_like(b)]) for b in blocks]


def stack_types(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-type arrays, each indexed by state on axis 0, into one table.

    Returns (offset, flat): row offset[n] + s of flat is blocks[n][s], so
    the rows of a whole population are one gather at offset[type_of] + states.
    """
    sizes = [len(b) for b in blocks]
    offset = np.concatenate(([0], np.cumsum(sizes[:-1]))).astype(np.int64)
    return offset, np.concatenate(blocks)


def by_state_count(models):
    """The one grouping of arm types by state count: (ids, P, R) per state count, ascending.

    ids are the positions in models of the types with that state count, in
    type order; their transitions are stacked once as P (B, S, 2, S) and
    their rewards as R (B, S, 2), in the order of ids.
    """
    for S in sorted({m.n_states for m in models}):
        ids = [n for n, m in enumerate(models) if m.n_states == S]
        yield (ids, np.array([models[n].transitions for n in ids]),
               np.array([models[n].rewards for n in ids]))


def stochastic_rows(P: np.ndarray, width: int) -> np.ndarray:
    """Probability rows of width entries from rows over S <= width states.

    P's rows are stochastic only to ROW_SUM_TOL, so they are read through
    their cumulative sums, clipped to [0, 1], made monotone and set to 1.0
    from the last state S - 1 on. Every entry is then in [0, 1], the first
    width - 1 sum to at most 1 up to round-off, as a multinomial draw
    requires, and the mass a short row leaves falls on state S - 1.
    """
    S = P.shape[-1]
    cdf = np.ones(P.shape[:-1] + (width,))
    cdf[..., :S] = np.clip(np.maximum.accumulate(np.cumsum(P, axis=-1), axis=-1), 0.0, 1.0)
    cdf[..., S - 1:] = 1.0
    return np.diff(cdf, axis=-1, prepend=0.0)


@dataclass(frozen=True, eq=False)
class ArmTables:
    """The dummy-expanded arms of one population, flattened over global state ids.

    Type n gets the 2 S_n states of expand_with_dummies, numbered
    g = offset[n] + s; dummy[g] flags the upper half. Row 2g + a of probs
    and dest, like entry 2g + a of rewards, belongs to the pair (s, a),
    which follows an original row: P[s, a] from a normal state, P[s - S_n, 0]
    from a dummy one. The move lands in the dummy half on any pull and on
    every move from a dummy state, else in the normal half; column j of
    the row is state j of that half, and dest holds its global id. probs
    comes from stochastic_rows, so the width is S_max for every type; the
    columns from S_n on have probability 0 up to round-off, and dest maps
    them to the half's last state. Row n of start is the initial
    distribution of type n over its normal half, columns as in probs, and
    row 2 offset[n] of dest (normal state 0, passive) maps them. normal is
    ~dummy as 0/1 integers: counts * normal are the arms that may still be
    pulled, and pulls @ normal the pulls from groups outside the dummy half.
    """

    offset: np.ndarray   # (N,)
    probs: np.ndarray    # (2G, S_max)
    dest: np.ndarray     # (2G, S_max) int
    rewards: np.ndarray  # (2G,)
    dummy: np.ndarray    # (G,) bool
    normal: np.ndarray   # (G,) int64, 1 - dummy
    start: np.ndarray    # (N, S_max)

    @classmethod
    def build(cls, expanded, initial) -> "ArmTables":
        """Tables of the dummy-expanded types, started from initial over their normal halves."""
        width = max(e.n_states for e in expanded) // 2
        offset, rewards = stack_types([e.rewards for e in expanded])
        probs, dest = [], []
        for e, first in zip(expanded, offset):
            S = e.n_states // 2
            lower, upper = e.transitions[:, :, :S], e.transitions[:, :, S:]
            probs.append(stochastic_rows(lower + upper, width))  # each row lives in one half
            half = first + np.where(upper.any(axis=2), S, 0)
            dest.append(half[:, :, None] + np.minimum(np.arange(width), S - 1))
        dummy = np.concatenate([e.dummy_mask for e in expanded])
        return cls(
            offset=offset,
            probs=np.concatenate(probs).reshape(-1, width),
            dest=np.concatenate(dest).reshape(-1, width).astype(np.int64),
            rewards=rewards.reshape(-1),
            dummy=dummy,
            normal=(~dummy).astype(np.int64),
            start=np.stack([stochastic_rows(d, width) for d in initial]),
        )


def point_initial(n_states: int, s: int) -> np.ndarray:
    d = np.zeros(n_states)
    d[s] = 1.0
    return d


def save_instance(instance: Instance, path: str):
    """Serialize an (unexpanded) instance to the JSON model file format."""
    doc = {
        "types": [
            {
                "n_states": m.n_states,
                "transitions": m.transitions.tolist(),
                "rewards": m.rewards.tolist(),
                "label": m.label,
            }
            for m in instance.types
        ],
        "rho": instance.rho,
        "budget": instance.budget,
        "horizon": instance.horizon,
        "initial": [d.tolist() for d in instance.initial],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_instance(path: str) -> Instance:
    """Load an instance document as written; construction checks it.

    Every entry is kept bit for bit, so a saved instance reloads as the very
    instance it was: a row whose sum is off 1 by up to ROW_SUM_TOL is valid
    and kept as it is, and validation rejects the others.
    """
    with open(path) as fh:
        doc = json.load(fh)
    types = []
    for td in doc["types"]:
        types.append(
            ArmModel(
                n_states=int(td["n_states"]),
                transitions=np.asarray(td["transitions"], dtype=float),
                rewards=np.asarray(td["rewards"], dtype=float),
                label=str(td.get("label", "")),
            )
        )
    initial = [np.asarray(d, dtype=float) for d in doc["initial"]]
    return Instance(
        types=tuple(types),
        rho=int(doc["rho"]),
        budget=int(doc["budget"]),
        horizon=int(doc["horizon"]),
        initial=tuple(initial),
    )
