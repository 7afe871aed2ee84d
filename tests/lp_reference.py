"""Loop-by-loop occupancy LP builder, kept as the reference for lp.build_occupancy_lp.

It writes every row one coefficient at a time from the model tensors, in
its own statement of the column layout (col below), so the vectorized
builder can be checked against it entry by entry. Besides the three
variants of lp, it states EXPANDED: the single-pull program over
dummy-expanded states, whose dummy copies forbid a second pull. The folded
DUMMY program must reach its optimum.
"""

import numpy as np
import scipy.optimize
import scipy.sparse as sps

from singlepull import lp
from singlepull.model import expand_with_dummies, on_expanded

EXPANDED = "expanded"


def col(n_states, horizon, n, s, a, t):
    """Column of (type n, state s, action a, time t): types in order, then t, s, a."""
    if not (0 <= s < n_states[n] and a in (0, 1) and 0 <= t < horizon):
        raise IndexError(f"bad variable key ({n}, {s}, {a}, {t})")
    return 2 * horizon * sum(n_states[:n]) + (t * n_states[n] + s) * 2 + a


def reference_lp(instance, variant):
    """Return (objective, rows); each row is (cols, vals, relation, rhs)."""
    if variant == EXPANDED:
        models = [expand_with_dummies(m) for m in instance.types]
        initials = on_expanded(instance.initial)
    else:
        models = list(instance.types)
        initials = list(instance.initial)
    T = instance.horizon
    sizes = tuple(m.n_states for m in models)

    def column(n, s, a, t):
        return col(sizes, T, n, s, a, t)

    folded = variant == lp.DUMMY
    c = np.zeros(2 * T * sum(sizes))
    for n, m in enumerate(models):
        # w[t][s]: the passive chain's expected reward from s over epochs t..T-1
        w = [np.zeros(m.n_states) for _ in range(T + 1)]
        for t in reversed(range(T)):
            for s in range(m.n_states):
                w[t][s] = m.rewards[s, 0] + sum(m.transitions[s, 0, j] * w[t + 1][j]
                                                for j in range(m.n_states))
        for t in range(T):
            for s in range(m.n_states):
                for a in (0, 1):
                    value = m.rewards[s, a]
                    if folded and a == 1:  # a pulled arm retires onto the passive chain
                        value += sum(m.transitions[s, 1, j] * w[t + 1][j]
                                     for j in range(m.n_states))
                    c[column(n, s, a, t)] = instance.rho * value

    rows = []
    # Per-step activation budget, normalized per class.
    for t in range(T):
        cols = [column(n, s, 1, t) for n, m in enumerate(models) for s in range(m.n_states)]
        rows.append((cols, [1.0] * len(cols), "<=", float(instance.budget)))
    # Flow balance for t >= 1 (0-based): mass into (n, s, t) from t-1; a
    # folded pull sends none.
    for n, m in enumerate(models):
        S = m.n_states
        for t in range(1, T):
            for s in range(S):
                cols = [column(n, s, 0, t), column(n, s, 1, t)]
                vals = [1.0, 1.0]
                for sp in range(S):
                    for a in ((0,) if folded else (0, 1)):
                        p = m.transitions[sp, a, s]
                        if p != 0.0:
                            cols.append(column(n, sp, a, t - 1))
                            vals.append(-p)
                rows.append((cols, vals, "=", 0.0))
    # Initial distribution at t = 0 (dummy states carry zero initial mass).
    for n, m in enumerate(models):
        for s in range(m.n_states):
            rows.append(([column(n, s, 0, 0), column(n, s, 1, 0)], [1.0, 1.0], "=",
                         float(initials[n][s])))
    # Expected single-activation row per type.
    if variant == lp.SPRMAB_LP:
        for n, m in enumerate(models):
            cols = [column(n, s, 1, t) for t in range(T) for s in range(m.n_states)]
            rows.append((cols, [1.0] * len(cols), "<=", 1.0))
    return c, rows


def solve_reference(instance, variant):
    """(optimum, x) of reference_lp's program, solved by HiGHS through linprog."""
    c, rows = reference_lp(instance, variant)
    ops = {"<=": ([], [], [], []), "=": ([], [], [], [])}  # row ids, cols, vals, rhs
    for cols, vals, relation, rhs in rows:
        ids, js, vs, b = ops[relation]
        ids.extend([len(b)] * len(cols))
        js.extend(cols)
        vs.extend(vals)
        b.append(rhs)
    A_ub, A_eq = (sps.csr_matrix((vs, (ids, js)), shape=(len(b), c.size))
                  for ids, js, vs, b in ops.values())
    res = scipy.optimize.linprog(-c, A_ub=A_ub, b_ub=ops["<="][3], A_eq=A_eq, b_eq=ops["="][3],
                                 bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun, res.x


def canonical_rows(rows):
    """Rows as sorted ((col, val), ...) tuples with relation and rhs, in sorted order."""
    return sorted(
        (relation, rhs, tuple(sorted(zip((int(j) for j in cols), (float(v) for v in vals)))))
        for cols, vals, relation, rhs in rows
    )


def linprog_form(problem):
    """An lp.LpProblem's rows as linprog's keyword arguments A_ub, b_ub, A_eq, b_eq.

    The rows whose lower bound is -inf are the inequalities and come first;
    on every other row lower equals upper.
    """
    n_ub = int(np.isneginf(problem.lower).sum())
    assert np.isneginf(problem.lower[:n_ub]).all()
    assert np.array_equal(problem.lower[n_ub:], problem.upper[n_ub:])
    A, b = problem.A, problem.upper
    return {"A_ub": A[:n_ub], "b_ub": b[:n_ub], "A_eq": A[n_ub:], "b_eq": b[n_ub:]}


def problem_rows(problem):
    """The rows an lp.LpProblem stores, in the shape reference_lp returns."""
    form = linprog_form(problem)
    rows = []
    for A, b, relation in ((form["A_ub"], form["b_ub"], "<="), (form["A_eq"], form["b_eq"], "=")):
        for i in range(A.shape[0]):
            lo, hi = A.indptr[i], A.indptr[i + 1]
            rows.append((A.indices[lo:hi], A.data[lo:hi], relation, float(b[i])))
    return rows
