import json

import numpy as np
import pytest

from singlepull import (
    ArmModel,
    Instance,
    domains,
    expand_with_dummies,
    load_instance,
    save_instance,
    validate_arm,
    validate_instance,
)
from singlepull.model import ArmTables, by_state_count, point_initial, stochastic_rows

from conftest import random_arm


def two_state_arm():
    P = np.zeros((2, 2, 2))
    P[0, 0] = [0.5, 0.5]
    P[1, 0] = [1.0, 0.0]
    P[0, 1] = [0.5, 0.5]
    P[1, 1] = [1.0, 0.0]
    r = np.array([[0.0, 1.0], [0.5, 2.0]])
    return ArmModel(n_states=2, transitions=P, rewards=r)


def cpap3_arm(q=0.7):
    P = np.zeros((3, 2, 3))
    for s in range(3):
        P[s, 0, max(s - 1, 0)] = 1.0
        P[s, 1, min(s + 1, 2)] += q
        P[s, 1, max(s - 1, 0)] += 1 - q
    r = np.tile(np.arange(1.0, 4.0)[:, None], (1, 2))
    return ArmModel(n_states=3, transitions=P, rewards=r)


class TestValidateArm:
    def test_valid_stochastic_rows(self):
        assert validate_arm(two_state_arm()) == []

    def test_row_sum_violation(self):
        P = np.zeros((2, 2, 2))
        P[:, :, 0] = 0.9  # rows sum to 0.9
        bad = ArmModel(n_states=2, transitions=P, rewards=np.zeros((2, 2)))
        assert any("row sum" in msg for msg in validate_arm(bad))

    def test_dummy_reward_tie_violation(self):
        # the dummy reward tie is not an arm check any more: an expanded type
        # cannot enter an instance, broken tie or not
        em = expand_with_dummies(two_state_arm())
        r = em.rewards.copy()
        r[2, 1] += 1.0  # break r(s_d, 1) == r(s, 0)
        broken = ArmModel(n_states=4, transitions=em.transitions, rewards=r, expanded=True)
        with pytest.raises(ValueError, match="invalid instance: type 0: "
                                             "already contains dummy states"):
            Instance(types=(broken,), rho=1, budget=1, horizon=2,
                     initial=(point_initial(4, 0),))

    def test_entries_outside_unit_interval(self):
        P = np.zeros((2, 2, 2))
        P[:, :, 0] = 1.5
        P[:, :, 1] = -0.5
        errors = validate_arm(ArmModel(n_states=2, transitions=P, rewards=np.zeros((2, 2))))
        assert any("outside [0, 1]" in msg for msg in errors)


    def test_non_finite_transitions_rejected(self):
        # NaN compares False with every bound and row sum, so it needs its own check
        P = two_state_arm().transitions.copy()
        P[1, 0] = np.nan
        P[0, 1, 0] = np.inf
        bad = ArmModel(n_states=2, transitions=P, rewards=np.zeros((2, 2)))
        assert "3 non-finite transition entries" in validate_arm(bad)
        with pytest.raises(ValueError, match="invalid instance: type 0: 3 non-finite "
                                             "transition entries"):
            Instance(types=(bad,), rho=1, budget=1, horizon=2, initial=(point_initial(2, 0),))


class TestExpandWithDummies:
    def test_two_state_expansion_shape(self):
        m = two_state_arm()
        em = expand_with_dummies(m)
        assert em.n_states == 4
        assert em.expanded and em.dummy_mask.tolist() == [False, False, True, True]
        # action 1 from normal states lands on the dummy copies of the
        # original action-1 targets
        assert np.allclose(em.transitions[0, 1, 2:], m.transitions[0, 1])
        assert np.allclose(em.transitions[0, 1, :2], 0.0)
        # both dummy rows equal the original passive rows
        for s in range(2):
            for a in (0, 1):
                assert np.allclose(em.transitions[2 + s, a, 2:], m.transitions[s, 0])

    def test_action_indifferent_input(self):
        m = two_state_arm()  # already has identical rows per action? make it so
        P = m.transitions.copy()
        P[:, 1, :] = P[:, 0, :]
        r = m.rewards.copy()
        r[:, 1] = r[:, 0]
        same = ArmModel(n_states=2, transitions=P, rewards=r)
        em = expand_with_dummies(same)
        assert np.allclose(em.transitions[2:, 0, 2:], same.transitions[:, 0, :])
        assert np.allclose(em.transitions[:2, 1, 2:], same.transitions[:, 0, :])

    def test_cpap_dummy_rewards_tie_to_passive(self):
        m = cpap3_arm()
        em = expand_with_dummies(m)
        assert em.n_states == 6
        for s in range(3):
            assert em.rewards[3 + s, 1] == pytest.approx(m.rewards[s, 0])
            assert em.rewards[3 + s, 0] == pytest.approx(m.rewards[s, 0])

    def test_rejects_expanded_input(self):
        em = expand_with_dummies(two_state_arm())
        with pytest.raises(ValueError):
            expand_with_dummies(em)

    def test_preserves_passive_dynamics_and_validates(self, rng):
        for S in (2, 3, 4):
            m = random_arm(rng, S)
            em = expand_with_dummies(m)
            assert np.allclose(em.transitions[:S, 0, :S], m.transitions[:, 0, :])
            assert np.allclose(em.rewards[:S], m.rewards)
            assert validate_arm(em) == []

    def test_dummy_space_absorbing(self, rng):
        m = random_arm(rng, 3)
        em = expand_with_dummies(m)
        # structurally: no dummy row leaks onto normal states
        dummy = np.flatnonzero(em.dummy_mask)
        assert np.allclose(em.transitions[dummy][:, :, :3], 0.0)
        # dynamically: dummy mass is non-decreasing under any action sequence
        dist = np.array([0.3, 0.3, 0.2, 0.2, 0.0, 0.0])
        mass = dist[3:].sum()
        for a in (1, 0, 1, 0, 0, 1):
            dist = dist @ em.transitions[:, a, :]
            new_mass = dist[3:].sum()
            assert new_mass >= mass - 1e-12
            mass = new_mass


class TestByStateCount:
    def test_groups_ascend_with_ids_in_type_order(self, rng):
        models = [random_arm(rng, S) for S in (4, 2, 3, 2)]
        groups = list(by_state_count(models))
        assert [ids for ids, _, _ in groups] == [[1, 3], [2], [0]]
        for ids, P, R in groups:
            S = models[ids[0]].n_states
            assert P.shape == (len(ids), S, 2, S) and R.shape == (len(ids), S, 2)
            assert np.array_equal(P, np.array([models[n].transitions for n in ids]))
            assert np.array_equal(R, np.array([models[n].rewards for n in ids]))

    def test_one_type_is_one_group(self, rng):
        model = random_arm(rng, 3)
        [(ids, P, R)] = by_state_count([model])
        assert ids == [0]
        assert np.array_equal(P, model.transitions[None])
        assert np.array_equal(R, model.rewards[None])


class TestStochasticRows:
    @pytest.mark.parametrize("row", [[0.5 - 2.5e-10, 0.5 - 2.5e-10],
                                     [0.5 + 2.5e-10, 0.5 + 2.5e-10],
                                     [1.0 + 5e-10, -1e-16],
                                     [-1e-16, 0.3, 0.7 + 5e-10],
                                     [0.6, 0.4 + 5e-10, 0.0]])
    def test_rows_within_tolerance_give_a_multinomial_row(self, row):
        row = np.array(row)
        probs = stochastic_rows(row, 4)
        assert np.all((0.0 <= probs) & (probs <= 1.0))
        assert probs[:len(row) - 1].sum() <= 1.0 and probs[len(row):].sum() == 0.0
        assert np.allclose(probs[:len(row)], np.clip(row, 0, None), atol=1e-9)
        draw = np.random.default_rng(0).multinomial(10**6, probs)
        assert draw.sum() == 10**6

    def test_short_row_leaves_its_mass_on_the_last_state(self):
        probs = stochastic_rows(np.array([0.25, 0.25, 0.5 - 5e-10]), 3)
        assert probs.tolist() == [0.25, 0.25, 0.5]


class TestValidateInstance:
    def test_budget_warning_when_never_binding(self):
        m = two_state_arm()
        inst = Instance(types=(m,), rho=2, budget=5, horizon=3,
                        initial=(point_initial(2, 0),))
        # a budget that never binds is legal; parse_config logs the warning
        assert validate_instance(inst) == []

    def test_expanded_types_rejected(self):
        # an instance expands its types itself: a well-formed expansion, alone
        # or beside an unexpanded type, is rejected when the instance is made
        em = expand_with_dummies(two_state_arm())
        for types in ((em,), (two_state_arm(), em)):
            starts = tuple(point_initial(m.n_states, 0) for m in types)
            with pytest.raises(ValueError, match=rf"invalid instance: type {len(types) - 1}: "
                                                 "already contains dummy states"):
                Instance(types=types, rho=1, budget=1, horizon=2, initial=starts)

    def test_initial_mass_on_dummy_rejected(self):
        em = expand_with_dummies(two_state_arm())
        with pytest.raises(ValueError, match="invalid instance: type 0: "
                                             "already contains dummy states"):
            Instance(types=(em,), rho=1, budget=1, horizon=2,
                     initial=(np.array([0.5, 0.0, 0.5, 0.0]),))

    def test_initial_sum_checked(self):
        m = two_state_arm()
        with pytest.raises(ValueError, match="invalid instance: type 0: initial distribution "
                                             "sums to 1.2"):
            Instance(types=(m,), rho=1, budget=1, horizon=2, initial=(np.array([0.6, 0.6]),))

    def test_non_finite_initial_rejected(self):
        m = two_state_arm()
        for dist in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="invalid instance: type 0: non-finite "
                                                 "initial probabilities$"):
                Instance(types=(m,), rho=1, budget=1, horizon=2, initial=(np.array(dist),))

    def test_no_arm_types_rejected(self, tmp_path):
        # made directly, drawn from a family with zero types, or loaded from a
        # replay file that lists none
        message = "invalid instance: an instance needs at least one arm type$"
        with pytest.raises(ValueError, match=message):
            Instance(types=(), rho=1, budget=1, horizon=2, initial=())
        for family in domains.FAMILIES:
            with pytest.raises(ValueError, match=message):
                domains.make_instance(domains.DomainSpec(family, 0, 3), budget=1, rho=1, horizon=2)
        path = tmp_path / "inst.json"
        save_instance(Instance(types=(two_state_arm(),), rho=1, budget=1, horizon=2,
                               initial=(point_initial(2, 0),)), str(path))
        doc = json.loads(path.read_text())
        doc["types"], doc["initial"] = [], []
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_instance(str(path))

    def test_valid_instance_holds_its_expansion_and_tables(self, rng):
        types = (random_arm(rng, 2), random_arm(rng, 3))
        inst = Instance(types=types, rho=2, budget=1, horizon=2,
                        initial=(point_initial(2, 1), point_initial(3, 0)))
        for m, e in zip(types, inst.expanded):
            want = expand_with_dummies(m)
            assert np.array_equal(e.transitions, want.transitions)
            assert np.array_equal(e.rewards, want.rewards) and e.expanded and want.expanded
        want = ArmTables.build([expand_with_dummies(m) for m in types], inst.initial)
        for name in ("offset", "probs", "dest", "rewards", "dummy", "start"):
            assert np.array_equal(getattr(inst.tables, name), getattr(want, name)), name


class TestInstanceIo:
    def test_round_trip(self, tmp_path, rng):
        types = tuple(random_arm(rng, 3, label=f"t{i}") for i in range(2))
        inst = Instance(types=types, rho=4, budget=2, horizon=5,
                        initial=(point_initial(3, 0), point_initial(3, 2)))
        path = tmp_path / "instance.json"
        save_instance(inst, str(path))
        loaded = load_instance(str(path))
        assert loaded.rho == 4 and loaded.budget == 2 and loaded.horizon == 5
        for a, b in zip(inst.types, loaded.types):
            assert np.array_equal(a.transitions, b.transitions)
            assert np.array_equal(a.rewards, b.rewards)
            assert a.label == b.label

    @pytest.mark.parametrize("family", domains.FAMILIES)
    def test_every_family_reloads_bit_for_bit(self, tmp_path, family):
        # a replay file is only a replay if index failures, which hinge on
        # TIE_TOL-scale gaps, meet the very same instance
        n_states = 3 if family == domains.MHMH else 5
        for seed in range(10):
            inst = domains.make_instance(domains.DomainSpec(family, 4, n_states, seed=seed),
                                         budget=1, rho=1, horizon=4)
            path = tmp_path / f"instance_{seed}.json"
            save_instance(inst, str(path))
            loaded = load_instance(str(path))
            for a, b in zip(inst.types, loaded.types):
                assert np.array_equal(a.transitions, b.transitions)
                assert np.array_equal(a.rewards, b.rewards)
            for a, b in zip(inst.initial, loaded.initial):
                assert np.array_equal(a, b)

    def test_round_trip_keeps_a_row_off_one_within_tolerance(self, tmp_path):
        # a replay file must reload as the instance that failed, even one whose
        # rows are stochastic only to ROW_SUM_TOL
        m = two_state_arm()
        P = m.transitions.copy()
        P[0, 0] = [0.5, 0.5 + 1e-12]
        inst = Instance(types=(ArmModel(n_states=2, transitions=P, rewards=m.rewards),),
                        rho=1, budget=1, horizon=2, initial=(point_initial(2, 0),))
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        loaded = load_instance(str(path))
        assert np.array_equal(loaded.types[0].transitions, P)

    def test_loader_keeps_a_row_edited_within_tolerance(self, tmp_path):
        m = two_state_arm()
        inst = Instance(types=(m,), rho=1, budget=1, horizon=2,
                        initial=(point_initial(2, 0),))
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        doc = json.loads(path.read_text())
        doc["types"][0]["transitions"][0][0][0] += 5e-10  # inside tolerance
        path.write_text(json.dumps(doc))
        loaded = load_instance(str(path))
        assert np.array_equal(loaded.types[0].transitions, doc["types"][0]["transitions"])

    def test_loader_rejects_beyond_tolerance(self, tmp_path):
        m = two_state_arm()
        inst = Instance(types=(m,), rho=1, budget=1, horizon=2,
                        initial=(point_initial(2, 0),))
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        doc = json.loads(path.read_text())
        doc["types"][0]["transitions"][0][0][0] += 1e-3
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_instance(str(path))

    @pytest.mark.parametrize("where", ["transitions", "initial"])
    def test_loader_rejects_nan(self, tmp_path, where):
        # json reads the NaN literal as a float, so a replay file can carry it
        inst = Instance(types=(two_state_arm(),), rho=1, budget=1, horizon=2,
                        initial=(point_initial(2, 0),))
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        doc = json.loads(path.read_text())
        if where == "transitions":
            doc["types"][0]["transitions"][1][0] = [float("nan")] * 2
        else:
            doc["initial"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError, match="non-finite"):
            load_instance(str(path))
