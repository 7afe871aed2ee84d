import numpy as np
import pytest

from singlepull import DomainSpec, make_instance, make_models, validate_arm
from singlepull import domains
from singlepull.domains import (
    MHMH_DROPOUT,
    MHMH_ENGAGED,
    MHMH_START,
    ehrenfest_arm,
    make_cpap,
    make_mhmh,
    make_random,
)
from singlepull.whittle import whittle_index_infinite

from whittle_reference import closed_form_whittle


class TestCpap:
    def test_passive_decay_deterministic(self):
        models = make_cpap(DomainSpec(domains.CPAP, n_types=2, n_states=3, seed=0))
        for m in models:
            assert m.transitions[2, 0, 1] == 1.0
            assert m.transitions[1, 0, 0] == 1.0
            assert m.transitions[0, 0, 0] == 1.0

    def test_rewards_are_adherence_levels(self):
        (m,) = make_cpap(DomainSpec(domains.CPAP, n_types=1, n_states=3, seed=1))
        assert m.rewards[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert m.rewards[:, 1].tolist() == [1.0, 2.0, 3.0]

    def test_active_only_reward_toggle(self):
        (m,) = make_cpap(DomainSpec(domains.CPAP, n_types=1, n_states=3, seed=1,
                                    params={"active_only_rewards": True}))
        assert np.allclose(m.rewards[:, 0], 0.0)
        assert m.rewards[:, 1].tolist() == [1.0, 2.0, 3.0]

    def test_all_generated_types_validate(self):
        for m in make_cpap(DomainSpec(domains.CPAP, n_types=10, n_states=5, seed=3)):
            assert validate_arm(m) == []

    def test_active_boundary_rows(self):
        (m,) = make_cpap(DomainSpec(domains.CPAP, n_types=1, n_states=4, seed=5))
        assert m.transitions[3, 1].sum() == pytest.approx(1.0)
        assert m.transitions[3, 1, 3] + m.transitions[3, 1, 2] == pytest.approx(1.0)

    def test_death_chain_reaches_bottom(self):
        S = 5
        (m,) = make_cpap(DomainSpec(domains.CPAP, n_types=1, n_states=S, seed=2))
        for start in range(S):
            s = start
            for _ in range(S - 1):
                s = int(np.argmax(m.transitions[s, 0]))
            assert s == 0


class TestMhmh:
    def spec(self, **params):
        return DomainSpec(domains.MHMH, n_types=4, n_states=3, seed=7, params=params)

    def test_greedy_active_start_to_engaged(self):
        models = make_mhmh(self.spec())
        greedy = [m for m in models if "greedy" in m.label]
        reliable = [m for m in models if "reliable" in m.label]
        assert len(greedy) == 2 and len(reliable) == 2
        for m in greedy:
            assert m.transitions[MHMH_START, 1, MHMH_ENGAGED] == 1.0
            assert m.transitions[MHMH_ENGAGED, 1, MHMH_DROPOUT] == 1.0

    def test_reliable_engaged_dynamics(self):
        models = make_mhmh(self.spec())
        for m in models:
            if "reliable" not in m.label:
                continue
            assert m.transitions[MHMH_ENGAGED, 1, MHMH_ENGAGED] == 1.0
            stay = m.transitions[MHMH_ENGAGED, 0, MHMH_ENGAGED]
            assert 0.0 < stay < 1.0
            assert stay + m.transitions[MHMH_ENGAGED, 0, MHMH_DROPOUT] == pytest.approx(1.0)

    def test_rewards_collected_on_pull_only(self):
        for m in make_mhmh(self.spec()):
            assert np.allclose(m.rewards[:, 0], 0.0)
            assert m.rewards[MHMH_START, 1] == 0.0
            assert m.rewards[MHMH_DROPOUT, 1] == 0.0
            assert m.rewards[MHMH_ENGAGED, 1] > 0.0

    def test_greedy_reward_one_reliable_less(self):
        models = make_mhmh(self.spec())
        for m in models:
            if "greedy" in m.label:
                assert m.rewards[MHMH_ENGAGED, 1] == 1.0
            else:
                assert m.rewards[MHMH_ENGAGED, 1] < 1.0

    def test_rejects_out_of_range_parameters(self):
        with pytest.raises(ValueError):
            make_mhmh(self.spec(eta_r_e=1.5))

    def test_all_validate(self):
        for m in make_mhmh(self.spec()):
            assert validate_arm(m) == []


class TestEhrenfest:
    def test_closed_form_values(self):
        assert closed_form_whittle(2.0, 1.0, 1.0, 4, 4) == pytest.approx(8.0)
        assert closed_form_whittle(3.0, 2.0, 2.0, 6, 3) == pytest.approx(0.0)

    def test_row_sums(self):
        arm = ehrenfest_arm(c=1.0, mu=5.0, lam=5.0, S=10, dt=0.01)
        assert np.allclose(arm.transitions.sum(axis=2), 1.0, atol=1e-12)
        assert validate_arm(arm) == []

    def test_rejects_invalid_discretization(self):
        with pytest.raises(ValueError):
            ehrenfest_arm(c=1.0, mu=20.0, lam=1.0, S=10, dt=0.01)

    def test_n_states_s_gives_levels_0_to_s(self):
        # a spec's n_states is the top level S, so each arm has S + 1 states
        for m in make_models(DomainSpec(domains.EHRENFEST, 3, 4, seed=0)):
            assert m.n_states == 5
            assert m.transitions.shape == (5, 2, 5) and m.rewards.shape == (5, 2)

    def test_default_dt_rejects_no_draw_up_to_s_10(self):
        # a draw is rejected when dt*max(mu, lam)*S >= 1; with mu, lam < 10
        # and dt = 0.01 that needs S > 10
        assert ehrenfest_arm(c=1.0, mu=9.99, lam=9.99, S=10, dt=0.01).n_states == 11
        with pytest.raises(ValueError, match="invalid discretization"):
            ehrenfest_arm(c=1.0, mu=9.1, lam=0.0, S=11, dt=0.01)
        for seed in range(20):
            make_models(DomainSpec(domains.EHRENFEST, 10, 10, seed=seed))
        rejected = 0
        for seed in range(20):
            try:
                make_models(DomainSpec(domains.EHRENFEST, 10, 12, seed=seed))
            except ValueError:
                rejected += 1
        assert rejected == 18

    def test_ranking_matches_closed_form(self):
        # The closed form is a bulk approximation of the true average-reward
        # index, which whittle_index_infinite computes exactly by one
        # parametric sweep over policies; the two deviate near the
        # formula's sign change and for near-degenerate rates. Ranking
        # agreement holds for arbitrary rates; the 10% value agreement is
        # asserted in the formula's validity regime: balanced rates and
        # states carrying at least 20% of the index range.
        rng = np.random.default_rng(11)
        for _ in range(3):
            c = rng.uniform(1, 10)
            mu = rng.uniform(2.0, 10)
            lam = rng.uniform(2.0, 10)
            S, dt = 6, 0.01
            arm = ehrenfest_arm(c, mu, lam, S, dt)
            table = whittle_index_infinite([arm])
            computed = table.values[0][:, 0] / dt
            reference = np.array([closed_form_whittle(c, mu, lam, S, s) for s in range(S + 1)])
            assert np.array_equal(np.argsort(computed), np.argsort(reference))
            big = np.abs(reference) > 0.2 * (reference.max() - reference.min())
            rel = np.abs(computed[big] - reference[big]) / np.abs(reference[big])
            assert rel.max() < 0.10

    def test_ranking_holds_for_unconstrained_rates(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            c = rng.uniform(1, 10)
            mu = max(rng.uniform(0, 10), 1e-3)
            lam = rng.uniform(0, 10)
            S, dt = 6, 0.01
            arm = ehrenfest_arm(c, mu, lam, S, dt)
            table = whittle_index_infinite([arm])
            computed = table.values[0][:, 0]
            reference = np.array([closed_form_whittle(c, mu, lam, S, s) for s in range(S + 1)])
            assert np.array_equal(np.argsort(computed), np.argsort(reference))


class TestRandomDomain:
    def test_seed_determinism(self):
        spec = DomainSpec(domains.RANDOM, n_types=3, n_states=4, seed=9)
        a = make_random(spec)
        b = make_random(spec)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.transitions, mb.transitions)
            assert np.array_equal(ma.rewards, mb.rewards)

    def test_rows_validate(self):
        for m in make_random(DomainSpec(domains.RANDOM, n_types=5, n_states=4, seed=2)):
            assert validate_arm(m) == []

    def test_dirichlet_moment(self):
        S = 4
        rows = []
        for seed in range(250):
            for m in make_random(DomainSpec(domains.RANDOM, n_types=5, n_states=S,
                                            seed=seed)):
                rows.append(m.transitions.reshape(-1, S))
        stacked = np.concatenate(rows)
        assert stacked.shape[0] >= 10_000  # sampled simplex rows
        entries = stacked.ravel()
        var = (1 / S) * (1 - 1 / S) / (S + 1)
        sigma_mean = np.sqrt(var / entries.size)
        assert abs(entries.mean() - 1 / S) < 3 * sigma_mean


class TestAssembly:
    def test_make_instance_defaults(self):
        spec = DomainSpec(domains.CPAP, n_types=3, n_states=4, seed=1)
        inst = make_instance(spec, budget=1, rho=2, horizon=5)
        assert inst.n_arms == 6
        for d in inst.initial:
            assert d[3] == 1.0  # top adherence level
        spec = DomainSpec(domains.MHMH, n_types=2, n_states=3, seed=1)
        inst = make_instance(spec, budget=1, rho=2, horizon=5)
        for d in inst.initial:
            assert d[MHMH_START] == 1.0

    def test_dispatch(self):
        for family in domains.FAMILIES:
            n_states = 3 if family == domains.MHMH else 4
            spec = DomainSpec(family, n_types=2, n_states=n_states, seed=0)
            models = make_models(spec)
            assert len(models) == 2
            for m in models:
                assert validate_arm(m) == []

    @pytest.mark.parametrize("family, known, unknown", [
        (domains.CPAP, {"active_only_rewards": True}, "bogus"),
        (domains.MHMH, {"C": 0.5, "eta_r_e": [0.6, 0.7], "eta_g_s": (0.3, 0.4)}, "eta_r_x"),
        (domains.EHRENFEST, {"dt": 0.02}, "active_only_rewards"),
        (domains.RANDOM, {}, "dt"),
    ])
    def test_params_limited_to_the_keys_the_family_reads(self, family, known, unknown):
        n_states = 3
        make_models(DomainSpec(family, n_types=2, n_states=n_states, params=known))
        with pytest.raises(ValueError, match=f"unknown {family} params \\['{unknown}'\\]"):
            DomainSpec(family, n_types=2, n_states=n_states, params={**known, unknown: 1})

    @pytest.mark.parametrize("family, key, value", [
        (domains.CPAP, "active_only_rewards", "false"),
        (domains.CPAP, "active_only_rewards", 0),
        (domains.MHMH, "C", "0.5"),
        (domains.MHMH, "C", True),
        (domains.MHMH, "eta_r_e", [0.6]),
        (domains.MHMH, "eta_r_e", [0.6, "0.7"]),
        (domains.MHMH, "eta_r_e", [0.5, 0.6, 0.7]),
        (domains.EHRENFEST, "dt", "0.01"),
        (domains.EHRENFEST, "dt", False),
    ])
    def test_params_of_a_type_the_generator_does_not_read_rejected(self, family, key, value):
        # the string "false" is truthy, so CPAP would pay on pull only
        with pytest.raises(ValueError, match=f"{family} param '{key}' must be"):
            DomainSpec(family, n_types=2, n_states=3, params={key: value})
