"""Scalar, one-entry-at-a-time Whittle bisections, kept as the reference for singlepull.whittle.

Every bisection step solves one full DP at a single subsidy and reads one
entry of it, exactly the per-state (infinite) and per-(state, t) (finite)
loops that the batched index layer replaces.
"""

import numpy as np

from singlepull.whittle import (
    BISECT_MAX_ITERS,
    DEFAULT_TOL,
    RVI_MAX_SWEEPS,
    RVI_SPAN_TOL,
    BracketFail,
    NonConvergent,
    _bracket_halfwidth,
    _expand_bracket,
)


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


def reference_finite(model, T, tol=DEFAULT_TOL):
    """Time-dependent index (S, T) by one scalar bisection per (state, t)."""
    qdiff_at = lambda lam: backward_qdiff(model, T, lam)
    hw, qd_lo, qd_hi = _expand_bracket(_bracket_halfwidth(model), qdiff_at)
    out = np.zeros((model.n_states, T))
    for s in range(model.n_states):
        for t in range(T):
            if qd_lo[s, t] < -tol or qd_hi[s, t] > tol:
                raise BracketFail(f"state {s}, t {t}")
            out[s, t] = _bisect(qdiff_at, (s, t), hw, tol)
    return out
