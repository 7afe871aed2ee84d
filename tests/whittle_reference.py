"""Scalar references for singlepull.whittle.

The infinite-horizon index is bisected one state at a time: every step
solves one full DP at a single subsidy and reads one entry of it, exactly
the per-state loop that the batched bisection replaces. The DP here is
damped relative value iteration, an independent method from the package's
policy iteration, with its own span tolerance and sweep cap. The
finite-horizon reference is scalar backward induction, against which the
tests check that every finite index zeroes its entry's gap.
"""

import numpy as np

from singlepull.whittle import (
    BISECT_MAX_ITERS,
    BRACKET_GROWTH_LIMIT,
    CESARO_MAX_SQUARINGS,
    DEFAULT_TOL,
    TIE_TOL,
    BracketFail,
    NonConvergent,
    _bracket_halfwidth,
)

RVI_SPAN_TOL = 1e-9
RVI_MAX_SWEEPS = 100_000


def rvi_qdiff(model, lam, damping=0.5):
    """Damped relative value iteration at one scalar subsidy; returns qdiff (S,)."""
    P0 = model.transitions[:, 0, :]
    P1 = model.transitions[:, 1, :]
    r0 = model.rewards[:, 0] + lam
    r1 = model.rewards[:, 1]
    v = np.zeros(model.n_states)
    for _ in range(RVI_MAX_SWEEPS):
        q0 = r0 + P0 @ v
        q1 = r1 + P1 @ v
        bellman = np.maximum(q0, q1)
        residual = bellman - v
        if residual.max() - residual.min() < RVI_SPAN_TOL:
            return q1 - q0
        v = (1.0 - damping) * v + damping * bellman
        v = v - v[0]
    raise NonConvergent(f"lambda={lam:g}")


def backward_qdiff(model, T, lam):
    """Backward induction at one scalar subsidy; returns qdiff (S, T)."""
    P0 = model.transitions[:, 0, :]
    P1 = model.transitions[:, 1, :]
    r0 = model.rewards[:, 0] + lam
    r1 = model.rewards[:, 1]
    qdiff = np.empty((model.n_states, T))
    v = np.zeros(model.n_states)
    for t in range(T - 1, -1, -1):
        q0 = r0 + P0 @ v
        q1 = r1 + P1 @ v
        qdiff[:, t] = q1 - q0
        v = np.maximum(q0, q1)
    return qdiff


def cesaro_limit(P):
    """Squares of (I + P) / 2 for a stack (B, S, S), squared together.

    Rows are renormalised after each square; the stack stops once a square
    moves no entry by more than TIE_TOL, at most CESARO_MAX_SQUARINGS times.
    A stack of one matrix gives that matrix's limit as the package takes it.
    """
    M = 0.5 * (np.eye(P.shape[-1]) + P)
    for _ in range(CESARO_MAX_SQUARINGS):
        M2 = M @ M
        M2 /= M2.sum(axis=-1, keepdims=True)
        moved = np.abs(M2 - M).max()
        M = M2
        if moved <= TIE_TOL:
            break
    return M


def _expand_bracket(hw0, qdiff_at):
    """Double [-hw, hw] until every entry's endpoint gaps straddle zero.

    Returns (hw, qd_lo, qd_hi).
    """
    hw = hw0
    qd_lo = qdiff_at(-hw)
    qd_hi = qdiff_at(hw)
    for _ in range(BRACKET_GROWTH_LIMIT):
        if (qd_lo >= 0.0).all() and (qd_hi <= 0.0).all():
            return hw, qd_lo, qd_hi
        hw *= 2.0
        qd_lo = qdiff_at(-hw)
        qd_hi = qdiff_at(hw)
    return hw, qd_lo, qd_hi


def _bisect(qdiff_at, entry, hw, tol):
    lo, hi = -hw, hw
    lam = 0.0
    for _ in range(BISECT_MAX_ITERS):
        lam = 0.5 * (lo + hi)
        qd = qdiff_at(lam)[entry]
        if abs(qd) <= 0.5 * tol:
            break
        if qd > 0:
            lo = lam
        else:
            hi = lam
    return lam


def reference_infinite(model, tol=DEFAULT_TOL):
    """Stationary index (S,) by one scalar bisection per state."""
    qdiff_at = lambda lam: rvi_qdiff(model, lam)
    hw, qd_lo, qd_hi = _expand_bracket(_bracket_halfwidth(model), qdiff_at)
    out = np.zeros(model.n_states)
    for s in range(model.n_states):
        if qd_lo[s] < -tol or qd_hi[s] > tol:
            raise BracketFail(f"state {s}")
        out[s] = _bisect(qdiff_at, s, hw, tol)
    return out
