"""Monte Carlo engine enforcing the hard budget and single-pull constraints.

The simulator, not the policy, is the constraint authority: every action
vector is checked against the per-step cap budget * rho and against the
one-pull-per-arm rule before it is applied, and every finished episode is
audited again from its recorded pull bookkeeping.

Episodes draw from counter-based Philox streams keyed by the episode seed,
so evaluation is bit-reproducible and episode order is irrelevant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import ArmTables, Instance, replicate

CI_Z = 1.96  # normal-approximation 95% interval


class InfeasibleAction(RuntimeError):
    """Action vector violates the budget or the single-pull constraint."""


class DegenerateRange(ValueError):
    """Upper bound does not exceed the random-policy mean."""


@dataclass
class EpisodeResult:
    total_reward: float
    per_step_pulls: np.ndarray          # (T,)
    pulls_per_arm: np.ndarray           # (M,)
    pull_time: np.ndarray               # (M,) first pull epoch, -1 if never
    select_seconds: float = 0.0
    trajectory: list[tuple] | None = None  # (t, arm, state, action, reward)


@dataclass
class Summary:
    mean: float
    half_width: float
    n_episodes: int
    wall_clock: float                   # prepare + selection seconds
    rewards: np.ndarray = field(repr=False, default=None)


def _episode_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _sum_by_type(values: np.ndarray, type_of: np.ndarray) -> float:
    """Sum values type by type in ascending type order, then add the sums left to right.

    Each type's entries keep arm order, which pins the float result to that
    of a per-type loop. Equal type blocks, as replicate lays them out, are
    one row-wise sum; other layouts are stable-sorted into blocks first.
    """
    if len(values) == 0:
        return 0.0
    if np.any(type_of[1:] < type_of[:-1]):
        order = np.argsort(type_of, kind="stable")
        values, type_of = values[order], type_of[order]
    sizes = np.bincount(type_of)
    sizes = sizes[sizes > 0]
    if np.all(sizes == sizes[0]):
        sums = values.reshape(len(sizes), -1).sum(axis=1).tolist()
    else:
        sums = [float(part.sum()) for part in np.split(values, np.cumsum(sizes)[:-1])]
    total = 0.0
    for x in sums:
        total += x
    return total


def step(
    states: np.ndarray,
    actions: np.ndarray,
    tables: ArmTables,
    type_of: np.ndarray,
    pulled: np.ndarray,
    budget: int,
    rng: np.random.Generator,
):
    """Apply one transition round; returns (next_states, step_reward).

    states are ids of the dummy-expanded arms that tables hold. Raises
    InfeasibleAction when the action vector exceeds the budget or pulls an
    already-pulled arm.
    """
    actions = np.asarray(actions)
    if actions.sum() > budget:
        raise InfeasibleAction(f"{int(actions.sum())} activations exceed budget {budget}")
    if np.any(actions[pulled] == 1):
        raise InfeasibleAction("activation assigned to an already-pulled arm")
    pairs = tables.pair_ids(type_of, states, actions)
    u = rng.random(len(states))
    next_states = tables.base[pairs] + (np.take(tables.cdf, pairs, axis=1) < u).sum(axis=0)
    return next_states, _sum_by_type(tables.rewards[pairs], type_of)


def run_episode(instance: Instance, policy, seed: int, record: bool = False) -> EpisodeResult:
    """Simulate one T-step episode; deterministic given (instance, policy, seed).

    Arms run on the dummy-expanded system, so policies read pulled-ness
    from the states, and a recorded trajectory holds expanded state ids;
    the pulled mask that step checks stays the simulator's own. Raises
    ValueError unless policy was prepared for this very instance object,
    whose dynamics its tables hold.
    """
    if policy.instance is not instance:
        raise ValueError(f"policy {policy.name!r} was not prepared for this instance")
    tables = policy.tables
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
    trajectory = [] if record else None
    select_seconds = 0.0

    for t in range(T):
        t0 = time.perf_counter()
        actions = policy.select(type_of, states, t, budget, rng)
        select_seconds += time.perf_counter() - t0
        if record:
            rewards_now = tables.rewards[tables.pair_ids(type_of, states, actions)]
            trajectory.extend(
                (t, i, s, a, r) for i, (s, a, r) in enumerate(
                    zip(states.tolist(), actions.tolist(), rewards_now.tolist()))
            )
        next_states, reward = step(states, actions, tables, type_of, pulled, budget, rng)
        total += reward
        hit = actions == 1
        per_step[t] = int(hit.sum())
        pulls_per_arm[hit] += 1
        pull_time[hit & (pull_time == -1)] = t
        pulled |= hit
        states = next_states

    return EpisodeResult(
        total_reward=total,
        per_step_pulls=per_step,
        pulls_per_arm=pulls_per_arm,
        pull_time=pull_time,
        select_seconds=select_seconds,
        trajectory=trajectory,
    )


def audit_episode(result: EpisodeResult, step_budget: int) -> list[str]:
    """Post-hoc hard-constraint audit, independent of policy correctness."""
    problems = []
    if np.any(result.per_step_pulls > step_budget):
        t = int(np.argmax(result.per_step_pulls > step_budget))
        problems.append(
            f"step {t}: {int(result.per_step_pulls[t])} pulls exceed cap {step_budget}"
        )
    if np.any(result.pulls_per_arm > 1):
        arm = int(np.argmax(result.pulls_per_arm > 1))
        problems.append(f"arm {arm}: pulled {int(result.pulls_per_arm[arm])} times")
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
    calls; environment sampling is excluded. The instance is validated
    once, when prepare builds the policy's ArmTables, not per episode.
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


def normalize_scores(means, upper_bound: float, random_mean: float):
    """Affine rescale: upper bound -> 1, random-policy mean -> 0."""
    if upper_bound <= random_mean:
        raise DegenerateRange(
            f"upper bound {upper_bound:g} does not exceed random mean {random_mean:g}"
        )
    scale = upper_bound - random_mean
    arr = np.asarray(means, dtype=float)
    out = (arr - random_mean) / scale
    return float(out) if np.isscalar(means) or arr.ndim == 0 else out
