"""Monte Carlo engine over arm counts, enforcing the hard budget and single-pull constraints.

Arms of one type in one expanded state are exchangeable, so an episode
simulates the count vector X[g]: the number of arms in each global state
g = offset[n] + s of the instance's ArmTables. A pulled arm sits in the
dummy half, so pulled-ness is part of X. Each step a policy's select
returns the pulls per group, k, and one multinomial call over every
(group, action) pair moves the counts; a pair without arms draws nothing,
so the streams are those of a call on the live pairs alone. That call is
a step's floor: the deterministic policies planned their visiting orders
at prepare, so their select, like step's checks and count update, is a
few whole-array operations over the O(N S) groups, at any rho. The random
policy's hypergeometric draw caps one population at
policies.RANDOM_MAX_ARMS (just under 1e9) arms.

The simulator, not the policy, is the constraint authority: step checks
every pull vector against the per-step cap budget * rho and against the
single-pull rule (no pull from a dummy group) before it applies it, and
every finished episode is audited again from its pull bookkeeping.

Episodes draw from counter-based Philox streams keyed by the episode seed,
so evaluation is bit-reproducible and episode order is irrelevant. Only a
recorded episode touches arms: it lifts the count path to arms on a
second Philox stream of the same seed, so recording never moves a count
draw. Its record is one (T, n_arms) array of pair ids p = 2g + a, arm i's
global state g and action a at epoch t; every field of a record follows
from p and the ArmTables (see EpisodeResult).

evaluate summarizes raw episode totals; the score normalized against the
bound and the random policy is computed in experiments.run_experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import ArmTables, Instance

CI_Z = 1.96  # normal-approximation 95% interval


class InfeasibleAction(RuntimeError):
    """Pull vector violates the budget or the single-pull constraint."""


@dataclass
class EpisodeResult:
    total_reward: float
    per_step_pulls: np.ndarray          # (T,)
    pulls_per_type: np.ndarray          # (N,) pulls over the episode
    dummy_per_type: np.ndarray          # (N,) arms in the dummy half at the end
    select_seconds: float = 0.0
    # record=True: (T, n_arms) int64 pair ids p = 2g + a of arm i at epoch t.
    # Arm i has type n = i // rho, state g - offset[n] (its expanded state
    # id, s + S_n once pulled), action p & 1 and reward tables.rewards[p].
    trajectory: np.ndarray | None = None


@dataclass
class Summary:
    mean: float
    half_width: float
    n_episodes: int
    wall_clock: float                   # prepare + selection seconds
    rewards: np.ndarray = field(repr=False, default=None)


def _episode_rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def start_counts(tables: ArmTables, rho: int, rng: np.random.Generator) -> np.ndarray:
    """X_0: one multinomial draw of rho arms per type over its normal half."""
    draws = rng.multinomial(rho, tables.start)
    return np.bincount(tables.dest[2 * tables.offset].reshape(-1), weights=draws.reshape(-1),
                       minlength=len(tables.dummy)).astype(np.int64)


def step(
    counts: np.ndarray,
    pulls: np.ndarray,
    tables: ArmTables,
    budget: int,
    rng: np.random.Generator,
):
    """Apply one transition round; returns (next_counts, step_reward, moves).

    counts[g] arms sit in global state g and pulls[g] of them are pulled.
    moves[p, j] arms of the (group, action) pair p = 2g + a go to
    tables.dest[p, j]. Raises InfeasibleAction unless pulls is an integer
    array shaped like counts, 0 <= pulls <= counts, no dummy group is
    pulled and the pulls total at most budget.
    """
    pulls = np.asarray(pulls)
    if pulls.shape != counts.shape or pulls.dtype.kind not in "iu":
        raise InfeasibleAction(f"pull vector must be an integer array of shape {counts.shape}, "
                               f"got {pulls.dtype} of shape {pulls.shape}")
    pairs = np.empty(2 * len(counts), dtype=np.int64)
    pairs[0::2] = counts - pulls
    pairs[1::2] = pulls
    if pairs.min() < 0:  # a negative pull, or more pulls than arms
        raise InfeasibleAction("pulls outside [0, arms in the group]")
    total = pulls.sum()
    if pulls.dot(tables.normal) != total:
        raise InfeasibleAction("activation assigned to an already-pulled arm")
    if total > budget:
        raise InfeasibleAction(f"{int(total)} activations exceed budget {budget}")
    # a pair without arms returns a zero row before any draw
    moves = rng.multinomial(pairs, tables.probs)
    next_counts = np.bincount(tables.dest.ravel(), weights=moves.ravel(),
                              minlength=len(counts)).astype(np.int64)
    return next_counts, float(pairs.dot(tables.rewards)), moves


def lift(pulls: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per-arm actions that pull pulls[g] of the arms in group g, the lowest ids first."""
    order = np.argsort(ids, kind="stable")
    grouped = ids[order]
    rank = np.arange(len(ids)) - np.searchsorted(grouped, grouped)
    actions = np.empty(len(ids), dtype=np.int64)
    actions[order] = rank < pulls[grouped]
    return actions


def _deal(values: np.ndarray, keys: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Deal values, sorted by key, to the arms holding each key in a uniformly random order.

    values holds one entry per arm, and keys[i] is arm i's key.
    """
    dealt = np.empty_like(values)
    dealt[np.lexsort((rng.random(len(keys)), keys))] = values
    return dealt


def run_episode(instance: Instance, policy, seed: int, record: bool = False) -> EpisodeResult:
    """Simulate one T-step episode; deterministic given (instance, policy, seed).

    With record=True the count path is lifted to arms: arm ids run type by
    type, each type's initial states are dealt to its arms in a uniformly
    random order, pulls[g] goes to the lowest-id arms of group g, and the
    next states drawn for a (group, action) pair go to its arms in a
    uniformly random order. The arms then have exactly the per-arm law, and
    row t of the trajectory holds each arm's pair id 2g + a at epoch t, as
    EpisodeResult describes.
    Raises ValueError unless policy was prepared for this very instance
    object, whose tables its index tables and selections refer to.
    """
    if policy.instance is not instance:
        raise ValueError(f"policy {policy.name!r} was not prepared for this instance")
    tables = instance.tables
    budget = instance.step_budget
    rng = _episode_rng(seed)
    counts = start_counts(tables, instance.rho, rng)

    T = instance.horizon
    total = 0.0
    per_step = np.zeros(T, dtype=np.int64)
    pulls_per_group = np.zeros(len(counts), dtype=np.int64)
    select_seconds = 0.0
    trajectory = None
    if record:
        trajectory = np.empty((T, instance.n_arms), dtype=np.int64)
        lifting = _episode_rng(seed, stream=1)
        type_of = np.repeat(np.arange(instance.n_types), instance.rho)
        ids = _deal(np.repeat(np.arange(len(counts)), counts), type_of, lifting)

    for t in range(T):
        t0 = time.perf_counter()
        pulls = policy.select(counts, t, budget, rng)
        select_seconds += time.perf_counter() - t0
        next_counts, reward, moves = step(counts, pulls, tables, budget, rng)
        if record:
            actions = lift(pulls, ids)
            pair = trajectory[t] = 2 * ids + actions
            ids = _deal(np.repeat(tables.dest.reshape(-1), moves.reshape(-1)), pair, lifting)
        total += reward
        per_step[t] = int(pulls.sum())
        pulls_per_group += pulls
        counts = next_counts

    return EpisodeResult(
        total_reward=total,
        per_step_pulls=per_step,
        pulls_per_type=np.add.reduceat(pulls_per_group, tables.offset),
        dummy_per_type=np.add.reduceat(counts * tables.dummy, tables.offset),
        select_seconds=select_seconds,
        trajectory=trajectory,
    )


def audit_episode(result: EpisodeResult, step_budget: int) -> list[str]:
    """Post-hoc hard-constraint audit, independent of policy correctness.

    Flags a step above the cap, and a type whose arms in the dummy half at
    the end differ in number from its pulls: each pulled arm enters the
    dummy half and never leaves it.
    """
    problems = []
    if np.any(result.per_step_pulls > step_budget):
        t = int(np.argmax(result.per_step_pulls > step_budget))
        problems.append(
            f"step {t}: {int(result.per_step_pulls[t])} pulls exceed cap {step_budget}"
        )
    for n in np.flatnonzero(result.pulls_per_type != result.dummy_per_type):
        problems.append(f"type {n}: {int(result.pulls_per_type[n])} pulls but "
                        f"{int(result.dummy_per_type[n])} arms in the dummy half")
    return problems


def evaluate(
    instance: Instance,
    policy,
    n_episodes: int,
    base_seed: int,
    prepared: bool = False,
) -> Summary:
    """Run n_episodes with seeds base_seed..base_seed+n-1 and summarize.

    Wall clock covers policy precomputation plus all per-step selection
    calls; environment sampling is excluded. The instance was checked and
    expanded when it was made; nothing here checks it again.
    With prepared=True the policy must have been prepared for this
    instance; run_episode raises ValueError otherwise.
    """
    if n_episodes < 2:
        raise ValueError("need at least 2 episodes for a confidence interval")
    prep_seconds = 0.0
    if not prepared:
        t0 = time.perf_counter()
        policy.prepare(instance)
        prep_seconds = time.perf_counter() - t0
    rewards = np.empty(n_episodes)
    select_seconds = 0.0
    cap = instance.step_budget
    for e in range(n_episodes):
        result = run_episode(instance, policy, base_seed + e)
        problems = audit_episode(result, cap)
        if problems:
            raise InfeasibleAction("constraint audit failed: " + "; ".join(problems))
        rewards[e] = result.total_reward
        select_seconds += result.select_seconds
    mean = float(rewards.mean())
    half = float(CI_Z * rewards.std(ddof=1) / np.sqrt(n_episodes))
    return Summary(
        mean=mean,
        half_width=half,
        n_episodes=n_episodes,
        wall_clock=prep_seconds + select_seconds,
        rewards=rewards,
    )
