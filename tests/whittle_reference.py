"""Scalar references for singlepull.whittle.

The stationary reference is damped relative value iteration at one
subsidy, an independent method from the package's parametric sweep over
policies, with its own span tolerance and sweep cap: the tests check that
every stationary index zeroes its entry's gap under it, and that the
slopes of the sweep's pieces are its difference quotients. The finite-horizon reference is
scalar backward induction, against which the tests check that every finite
index zeroes its entry's gap.
"""

import numpy as np

from singlepull.whittle import CESARO_MAX_SQUARINGS, TIE_TOL, NonConvergent

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
