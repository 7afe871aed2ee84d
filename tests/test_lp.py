from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sps

from singlepull import (
    Instance,
    build_occupancy_lp,
    exact_optimum,
    solve_lp,
    upper_bound,
)
from singlepull import domains, experiments, lp, simplex, whittle
from singlepull.model import ArmModel, expand_with_dummies, load_instance, on_expanded, point_initial

from conftest import mixed_instance, random_arm, random_tiny_instance
from lp_reference import (EXPANDED, canonical_rows, col, linprog_form, problem_rows, reference_lp,
                          solve_reference)


def decoupled_optimum(inst, variant):
    """rho times the sum of the per-type finite-horizon optima: on the
    dummy-expanded types for DUMMY, on the original types for MEAN_FIELD.
    With K >= N that is the program's optimum."""
    total = 0.0
    if variant == lp.DUMMY:
        pairs = zip(map(expand_with_dummies, inst.types), on_expanded(inst.initial))
    else:
        pairs = zip(inst.types, inst.initial)
    for m, d in pairs:
        v = np.zeros(m.n_states)
        for _ in range(inst.horizon):
            v = (m.rewards + m.transitions @ v).max(axis=1)
        total += inst.rho * float(d @ v)
    return total


def covering_instances(rng):
    """K >= N instances: mixed sizes with passive rewards, CPAP at lp-bound's
    K=10 size, and each family at K = N and N + 1, RANDOM S=3 N=10 K=10 rho=2
    T=20 seed 2 among them, where HiGHS's point once fell 7.6e-10 short."""
    out = [mixed_size_instance(rng, covering_budget=True) for _ in range(4)]
    out.append(domains.make_instance(domains.DomainSpec(domains.CPAP, 10, 5, seed=0),
                                     budget=10, rho=10, horizon=20))
    out.append(domains.make_instance(domains.DomainSpec(domains.RANDOM, 10, 3, seed=2),
                                     budget=10, rho=2, horizon=20))
    for family in domains.FAMILIES:
        S = 3 if family == domains.MHMH else 4
        params = {"active_only_rewards": False} if family == domains.CPAP else {}
        spec = domains.DomainSpec(family, 3, S, seed=1, params=params)
        out += [domains.make_instance(spec, budget=K, rho=3, horizon=6) for K in (3, 4)]
    return out


def tiny_instance(rng, n_types=1, S=2, T=2, rho=1, budget=1):
    types = tuple(random_arm(rng, S, label=f"t{i}") for i in range(n_types))
    initial = tuple(point_initial(S, 0) for _ in range(n_types))
    return Instance(types=types, rho=rho, budget=budget, horizon=T, initial=initial)


def mixed_size_instance(rng, covering_budget=False):
    """One to three types of 2-4 states each, with spread initial distributions.

    With covering_budget the budget K is at least the number of types N.
    """
    sizes = rng.integers(2, 5, size=int(rng.integers(1, 4)))
    types = tuple(random_arm(rng, int(S), active_only_rewards=False) for S in sizes)
    initial = tuple(rng.dirichlet(np.ones(int(S))) for S in sizes)
    budget = len(types) + int(rng.integers(0, 2)) if covering_budget else int(rng.integers(0, 3))
    return Instance(types=types, rho=int(rng.integers(1, 4)), budget=budget,
                    horizon=int(rng.integers(1, 6)), initial=initial)


class TestBuilder:
    def test_dummy_variable_count(self, rng):
        inst = tiny_instance(rng, n_types=2, S=2, T=3)
        prob = build_occupancy_lp(inst, lp.DUMMY)
        assert prob.n_vars == 2 * 2 * 2 * 3  # N * |S| * |A| * T: 2 S T per type

    def test_mean_field_constraint_count(self, rng):
        inst = tiny_instance(rng, n_types=1, S=2, T=2)
        prob = build_occupancy_lp(inst, lp.MEAN_FIELD)
        # T activation rows + |S| flow rows at t=1 + |S| initial rows
        form = linprog_form(prob)
        assert form["A_ub"].shape == (2, prob.n_vars)
        assert form["A_eq"].shape == (2 + 2, prob.n_vars)

    def test_sprmab_adds_one_row_per_type(self, rng):
        inst = tiny_instance(rng, n_types=3, S=2, T=2)
        base = linprog_form(build_occupancy_lp(inst, lp.MEAN_FIELD))
        plus = linprog_form(build_occupancy_lp(inst, lp.SPRMAB_LP))
        assert plus["A_ub"].shape[0] == base["A_ub"].shape[0] + 3
        assert (plus["A_eq"] != base["A_eq"]).nnz == 0
        assert np.array_equal(plus["b_ub"][-3:], np.ones(3))

    def test_var_index_bijection(self, rng):
        # the reference layout over the problem's state counts and horizon
        # starts each type where the types before it end and covers
        # 0..n_vars-1 exactly once
        inst = mixed_size_instance(rng)
        prob = build_occupancy_lp(inst, lp.DUMMY)
        assert prob.n_states == tuple(m.n_states for m in inst.types)
        assert prob.horizon == inst.horizon
        seen = []
        for n, S in enumerate(prob.n_states):
            assert col(prob.n_states, prob.horizon, n, 0, 0, 0) == len(seen)
            seen += [col(prob.n_states, prob.horizon, n, s, a, t)
                     for t in range(prob.horizon) for s in range(S) for a in (0, 1)]
        assert seen == list(range(prob.n_vars)) and prob.n_vars == prob.objective.size

    def test_matrices_are_canonical_csr(self, rng):
        instances = [mixed_size_instance(rng) for _ in range(3)]
        instances.append(domains.make_instance(domains.DomainSpec(domains.CPAP, 3, 3, seed=2),
                                               budget=1, rho=2, horizon=3))
        for inst in instances:
            for variant in lp.VARIANTS:
                A = build_occupancy_lp(inst, variant).A
                assert A.format == "csr" and A.has_canonical_format
                assert np.all(np.diff(A.indptr) > 0)  # no empty row
                for i in range(A.shape[0]):
                    cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
                    assert np.all(np.diff(cols) > 0)  # sorted, no duplicates
                assert np.all(A.data != 0.0)

    def test_row_layout(self):
        """The T budget rows come first, then SPRMAB_LP's N single-pull rows,
        then the flow rows; the rows with lower -inf are exactly those before
        the flow rows. The budget duals are the first T row duals."""
        for inst in fold_instances():
            T, N = inst.horizon, inst.n_types
            for variant in lp.VARIANTS:
                prob = build_occupancy_lp(inst, variant)
                A, lower, upper = prob.A, prob.lower, prob.upper
                n_ub = T + (N if variant == lp.SPRMAB_LP else 0)
                for t in range(T):
                    pulls = sorted(col(prob.n_states, T, n, s, 1, t)
                                   for n, S in enumerate(prob.n_states) for s in range(S))
                    assert A.indices[A.indptr[t]:A.indptr[t + 1]].tolist() == pulls
                    assert np.all(A.data[A.indptr[t]:A.indptr[t + 1]] == 1.0)
                assert np.all(lower[:T] == -np.inf) and np.all(upper[:T] == inst.budget)
                assert np.all(upper[T:n_ub] == 1.0)
                assert np.array_equal(lower[n_ub:], upper[n_ub:])
                assert np.flatnonzero(np.isneginf(lower)).tolist() == list(range(n_ub))

    def test_matches_reference_builder(self, rng):
        """Same objective and rows, entry for entry, as the loop-by-loop builder.

        For DUMMY that is the folded statement; the mixed-size instances pay
        passive rewards, so their pull columns carry a nonzero W.
        """
        instances = [mixed_size_instance(rng) for _ in range(6)]
        # domain kernels carry exact zeros, which the reference builder skips
        for family in domains.FAMILIES:
            spec = domains.DomainSpec(family, 2, 3, seed=1)
            instances.append(domains.make_instance(spec, budget=1, rho=2, horizon=3))
        for inst in instances:
            for variant in lp.VARIANTS:
                prob = build_occupancy_lp(inst, variant)
                c, rows = reference_lp(inst, variant)
                if variant == lp.DUMMY:  # the reference sums W in its own order
                    assert np.allclose(prob.objective, c, rtol=1e-15, atol=0.0)
                else:
                    assert np.array_equal(prob.objective, c)
                assert prob.n_vars == c.size
                assert canonical_rows(problem_rows(prob)) == canonical_rows(rows)

    def test_rejects_horizon_zero(self, rng):
        # no LP is ever built for it: the instance cannot be made
        with pytest.raises(ValueError, match="invalid instance: horizon must be positive"):
            tiny_instance(rng, T=0)

    def test_rejects_expanded_types_for_dummy(self, rng):
        # the DUMMY LP would expand the types again; the instance cannot be made
        m = expand_with_dummies(random_arm(rng, 2))
        with pytest.raises(ValueError, match="already contains dummy states"):
            Instance(types=(m,), rho=1, budget=1, horizon=2, initial=(point_initial(4, 0),))


def fold_instances():
    """The four families at two sizes each, CPAP also paying passive rewards
    (W != 0), and the mixed-state-count instance."""
    out = [mixed_instance()]
    for family in domains.FAMILIES:
        for n_types, S, budget, rho, horizon, seed in ((2, 3, 1, 2, 4, 0), (4, 4, 2, 3, 6, 1)):
            S = 3 if family == domains.MHMH else S
            params = {"active_only_rewards": False} if family == domains.CPAP else {}
            spec = domains.DomainSpec(family, n_types, S, seed=seed, params=params)
            out.append(domains.make_instance(spec, budget=budget, rho=rho, horizon=horizon))
    return out


class TestFold:
    """The DUMMY program over the original states, where a pull retires the
    arm with its passive value W, against the expanded program it replaces."""

    def test_upper_bound_equals_the_expanded_optimum(self):
        passive_value_seen = False
        for inst in fold_instances():
            dummy = build_occupancy_lp(inst, lp.DUMMY)
            passive_value_seen |= not np.array_equal(
                dummy.objective, build_occupancy_lp(inst, lp.MEAN_FIELD).objective)
            expanded, _ = solve_reference(inst, EXPANDED)
            assert upper_bound(inst) == pytest.approx(expanded, rel=1e-12, abs=0.0)
        assert passive_value_seen  # some pull column carries a nonzero W

    def test_mean_field_program_without_the_pull_inflow(self):
        for inst in fold_instances():
            dummy = build_occupancy_lp(inst, lp.DUMMY)
            mean_field = build_occupancy_lp(inst, lp.MEAN_FIELD)
            assert (dummy.n_states, dummy.horizon, dummy.n_vars) == \
                (mean_field.n_states, mean_field.horizon, mean_field.n_vars)
            dummy, mean_field = linprog_form(dummy), linprog_form(mean_field)
            assert (dummy["A_ub"] != mean_field["A_ub"]).nnz == 0
            assert np.array_equal(dummy["b_ub"], mean_field["b_ub"])
            assert np.array_equal(dummy["b_eq"], mean_field["b_eq"])
            # the inflow entries are the negative ones; odd columns are pulls
            A = mean_field["A_eq"].tocoo()
            pull_inflow = (A.data < 0) & (A.col % 2 == 1)
            assert pull_inflow.any() or inst.horizon == 1
            keep = ~pull_inflow
            expected = sps.csr_matrix((A.data[keep], (A.row[keep], A.col[keep])), shape=A.shape)
            assert dummy["A_eq"].nnz == expected.nnz and (dummy["A_eq"] != expected).nnz == 0


class TestSolve:
    def test_measure_property_and_flow_residuals(self, rng):
        inst = tiny_instance(rng, n_types=2, S=3, T=4, rho=3, budget=1)
        for variant in lp.VARIANTS:
            prob = build_occupancy_lp(inst, variant)
            sol = solve_lp(prob)
            for block in sol.occupancy:
                # a measure: mass 1 on every (type, t); in DUMMY a pull retires
                # its mass, so the unpulled mass at t plus the pulls before t is 1
                mass = block.sum(axis=(0, 1))
                if variant == lp.DUMMY:
                    mass += np.cumsum(block[:, 1].sum(axis=0)) - block[:, 1].sum(axis=0)
                assert np.abs(mass - 1.0).max() < 1e-7
                assert block.min() > -1e-9
            # every constraint satisfied within 1e-7
            x = np.zeros(prob.n_vars)
            for n, S in enumerate(prob.n_states):
                for t in range(prob.horizon):
                    for s in range(S):
                        for a in (0, 1):
                            x[col(prob.n_states, prob.horizon, n, s, a, t)] = \
                                sol.occupancy[n][s, a, t]
            form = linprog_form(prob)
            assert np.allclose(form["A_eq"] @ x, form["b_eq"], rtol=0.0, atol=1e-7)
            assert np.all(form["A_ub"] @ x <= form["b_ub"] + 1e-7)

    def test_matches_scipy_on_all_variants(self, rng):
        for _ in range(5):
            inst = random_tiny_instance(rng)
            for variant in lp.VARIANTS:
                prob = build_occupancy_lp(inst, variant)
                sol = solve_lp(prob)
                form = linprog_form(prob)
                ref = scipy.optimize.linprog(
                    -prob.objective,
                    A_ub=form["A_ub"].toarray(), b_ub=form["b_ub"],
                    A_eq=form["A_eq"].toarray(), b_eq=form["b_eq"],
                    bounds=[(0, None)] * prob.n_vars, method="highs",
                )
                assert ref.status == 0
                assert sol.objective == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)

    def test_budget_rows_left_out_when_budget_covers_types(self, monkeypatch):
        """At K >= N DUMMY and MEAN_FIELD make no HiGHS call and SPRMAB_LP's
        gets the rows after the T budget rows; at K = N - 1 every variant's
        gets every row. Each solution meets every row, the budget rows
        included, and its occupancy pays its objective."""
        calls, solve = [], simplex.solve

        def spy(c, A, lower, upper, **kwargs):
            calls.append((A, lower, upper))
            return solve(c, A, lower, upper, **kwargs)

        monkeypatch.setattr(simplex, "solve", spy)
        for inst in fold_instances():
            T, N = inst.horizon, inst.n_types
            for budget in (N - 1, N, N + 1):
                for variant in lp.VARIANTS:
                    prob = build_occupancy_lp(replace(inst, budget=budget), variant)
                    sol = solve_lp(prob)
                    if budget >= N and variant != lp.SPRMAB_LP:
                        assert not calls and sol.iterations == 0
                    else:
                        A, lower, upper = calls.pop()
                        first = T if budget >= N else 0
                        assert A.shape == (prob.A.shape[0] - first, prob.n_vars)
                        assert (A != prob.A[first:]).nnz == 0
                        assert np.array_equal(lower, prob.lower[first:])
                        assert np.array_equal(upper, prob.upper[first:])
                    if budget >= N:
                        assert np.array_equal(sol.budget_dual, np.zeros(T))
                    x = np.concatenate([block.transpose(2, 0, 1).ravel()
                                        for block in sol.occupancy])
                    row = prob.A @ x
                    assert x.min() >= 0.0
                    assert np.all(row <= prob.upper + 1e-9) and np.all(row >= prob.lower - 1e-9)
                    assert prob.objective @ x == pytest.approx(sol.objective, rel=1e-12, abs=0.0)
        assert not calls

    def test_per_type_dp_rests_on_ties(self):
        # state 0 pays 0 either way at the last epoch, state 1 pays 1 on a pull
        arm = ArmModel(n_states=2, transitions=np.full((2, 2, 2), 0.5),
                       rewards=np.array([[0.0, 0.0], [0.0, 1.0]]))
        inst = Instance(types=(arm,), rho=1, budget=1, horizon=1,
                        initial=(np.array([0.5, 0.5]),))
        for variant in (lp.DUMMY, lp.MEAN_FIELD):
            sol = solve_lp(build_occupancy_lp(inst, variant))
            assert sol.objective == 0.5
            assert sol.occupancy[0][:, :, 0].tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_deterministic_resolve(self, rng):
        inst = tiny_instance(rng, n_types=2, S=2, T=3)
        prob = build_occupancy_lp(inst, lp.DUMMY)
        a = solve_lp(prob)
        b = solve_lp(prob)
        for ba, bb in zip(a.occupancy, b.occupancy):
            assert np.array_equal(ba, bb)
        assert a.iterations == b.iterations


class TestOrderings:
    def test_value_ordering_corpus(self, rng):
        for _ in range(15):
            inst = random_tiny_instance(rng)
            vals = {}
            for variant in lp.VARIANTS:
                sol = solve_lp(build_occupancy_lp(inst, variant))
                vals[variant] = sol.objective
            opt = exact_optimum(inst)
            assert vals[lp.MEAN_FIELD] >= vals[lp.SPRMAB_LP] - 1e-6
            assert vals[lp.SPRMAB_LP] >= vals[lp.DUMMY] - 1e-6
            assert vals[lp.DUMMY] >= opt - 1e-6

    def test_upper_bound_dominates_exact(self, rng):
        inst = random_tiny_instance(rng)
        assert upper_bound(inst) >= exact_optimum(inst) - 1e-6

    def test_dummy_bound_decouples_when_budget_covers_types(self, rng):
        """With K >= N the budget rows cannot bind (each type's activation mass
        per step is at most 1), so the DUMMY bound is rho times the sum of the
        per-type finite-horizon optima on the expanded models, and never
        below it by more than round-off."""
        for inst in covering_instances(rng):
            expected = decoupled_optimum(inst, lp.DUMMY)
            bound = upper_bound(inst)
            assert bound >= expected - 1e-12 * abs(expected)
            assert bound == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_mean_field_bound_decouples_when_budget_covers_types(self, rng):
        """With K >= N the MEAN_FIELD bound is rho times the sum of the
        per-type finite-horizon optima on the original models."""
        for inst in covering_instances(rng):
            expected = decoupled_optimum(inst, lp.MEAN_FIELD)
            objective = solve_lp(build_occupancy_lp(inst, lp.MEAN_FIELD)).objective
            assert objective == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_upper_bound_k0_equals_passive_reward(self, rng):
        types = tuple(random_arm(rng, 3, active_only_rewards=False) for _ in range(2))
        initial = (point_initial(3, 1), point_initial(3, 2))
        rho, T = 3, 4
        inst = Instance(types=types, rho=rho, budget=0, horizon=T, initial=initial)
        # independent recursion: passive-chain expected reward
        expected = 0.0
        for m, d in zip(types, initial):
            dist = d.copy()
            for _ in range(T):
                expected += rho * float(dist @ m.rewards[:, 0])
                dist = dist @ m.transitions[:, 0, :]
        assert upper_bound(inst) == pytest.approx(expected, abs=1e-7)

    def test_dummy_activation_mass_is_reward_neutral(self, rng):
        # on the expanded reference program, whose dummy half the fold removes
        inst = tiny_instance(rng, n_types=2, S=2, T=3, rho=2)
        objective, x = solve_reference(inst, EXPANDED)
        models = [expand_with_dummies(m) for m in inst.types]
        blocks = np.split(x, 2 * inst.horizon * np.cumsum([m.n_states for m in models[:-1]]))
        # move all dummy activation mass onto action 0 and recompute the objective
        moved = 0.0
        base = 0.0
        for n, m in enumerate(models):
            block = blocks[n].reshape(inst.horizon, m.n_states, 2).transpose(1, 2, 0).copy()
            base += inst.rho * float((block * m.rewards[:, :, None]).sum())
            for sd in np.flatnonzero(m.dummy_mask):
                block[sd, 0, :] += block[sd, 1, :]
                block[sd, 1, :] = 0.0
            moved += inst.rho * float((block * m.rewards[:, :, None]).sum())
        assert moved == pytest.approx(base, abs=1e-9)
        assert base == pytest.approx(objective, abs=1e-7)


class TestCertificate:
    """upper_bound is L(pi) = K sum_t pi_t + sum_n mu_n V_n(pi), which bounds the
    LP optimum from above for every pi >= 0 (weak Lagrangian duality)."""

    def test_lagrangian_bound_dominates_the_exact_optimum(self, rng):
        for _ in range(8):
            inst = random_tiny_instance(rng)
            opt = exact_optimum(inst)
            for variant in (lp.DUMMY, lp.MEAN_FIELD):
                prob = build_occupancy_lp(inst, variant)
                optimum = solve_lp(prob).objective
                for scale in (0.0, 0.1, 1.0, 10.0):
                    pi = scale * inst.rho * rng.exponential(size=inst.horizon)
                    bound = lp.lagrangian_bound(prob, pi)
                    assert bound >= optimum - 1e-12 * abs(optimum)
                    assert bound >= opt - 1e-12 * abs(opt)
            # SPRMAB_LP's single-pull rows are not part of a per-type DP
            with pytest.raises(ValueError, match="DUMMY and MEAN_FIELD only"):
                lp.lagrangian_bound(build_occupancy_lp(inst, lp.SPRMAB_LP), np.zeros(inst.horizon))

    def test_bound_does_not_depend_on_the_strategy(self):
        for inst in fold_instances():
            prob = build_occupancy_lp(inst, lp.DUMMY)
            primal, dual = (lp.lagrangian_bound(prob, solve_lp(prob, strategy).budget_dual)
                            for strategy in (simplex.PRIMAL, simplex.DUAL))
            assert primal == pytest.approx(dual, rel=1e-12, abs=0.0)
            assert upper_bound(inst) == primal

    def test_bound_reads_the_budget_duals(self):
        """Where the budget binds, L(0) is far above the optimum and L at
        HiGHS's duals reaches it."""
        binding = 0
        for inst in fold_instances():
            prob = build_occupancy_lp(inst, lp.DUMMY)
            sol = solve_lp(prob)
            assert sol.budget_dual.shape == (inst.horizon,) and sol.budget_dual.min() >= 0.0
            binding += lp.lagrangian_bound(prob, np.zeros(inst.horizon)) > sol.objective * 1.01
            assert upper_bound(inst) == pytest.approx(sol.objective, rel=1e-12, abs=0.0)
        assert binding >= 4

    def test_one_dp_pass_when_budget_covers_types(self, rng, monkeypatch):
        # at K >= N, pi = 0 and the bound is the value of solve_lp's per-type
        # DP: one whittle.finite_horizon_q pass per state-count group, and the
        # very float a call of lagrangian_bound at pi = 0 returns
        calls, groups = [], 0
        kernel = whittle.finite_horizon_q
        monkeypatch.setattr(whittle, "finite_horizon_q",
                            lambda *args: calls.append(args[0].shape[1]) or kernel(*args))
        for inst in covering_instances(rng):
            calls.clear()
            bound = upper_bound(inst)
            assert calls == sorted({m.n_states for m in inst.types})  # one pass per group
            groups = max(groups, len(calls))
            prob = build_occupancy_lp(inst, lp.DUMMY)
            assert bound == lp.lagrangian_bound(prob, np.zeros(inst.horizon))
        assert groups > 1

    def test_bound_is_a_python_float(self, rng):
        inst = random_tiny_instance(rng)
        for budget in (1, inst.n_types):
            assert type(upper_bound(replace(inst, budget=budget))) is float

    @staticmethod
    def short_of_the_optimum(monkeypatch):
        """Make every HiGHS solve report an objective 1e-6 below its x's."""
        solve = simplex.solve

        def short(*args, **kwargs):
            res = solve(*args, **kwargs)
            return replace(res, objective=res.objective * (1 - 1e-6))

        monkeypatch.setattr(simplex, "solve", short)

    def test_a_certificate_gap_raises_solver_stall(self, monkeypatch):
        inst = fold_instances()[1]
        bound = upper_bound(inst)
        self.short_of_the_optimum(monkeypatch)
        objective = bound * (1 - 1e-6)
        with pytest.raises(simplex.SolverStall, match="certificate") as caught:
            upper_bound(inst)
        message = str(caught.value)
        assert repr(bound) in message
        assert f"{objective:.9g}"[:8] in message

    def test_a_certificate_gap_saves_the_instance(self, tmp_path, monkeypatch):
        config = experiments.parse_config({
            "domain": {"family": "RANDOM"},
            "setting": {"n_types": 2, "n_states": 3, "budget": 1, "rho": 2, "horizon": 3},
            "policies": ["spi"], "episodes": 2, "base_seed": 0,
            "out_dir": str(tmp_path / "out")})
        inst = config.instance(0)
        self.short_of_the_optimum(monkeypatch)
        path = tmp_path / "out" / "failed_instance_0.json"
        with pytest.raises(simplex.SolverStall, match="upper-bound solve failed on seed 0"):
            experiments._run_or_stall(config, 0, inst)
        saved = load_instance(str(path))
        for a, b in zip(saved.types, inst.types):
            assert np.array_equal(a.transitions, b.transitions)
            assert np.array_equal(a.rewards, b.rewards)
