import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oqmarkov.core import (PAULIS, SX, ket, plus_state, random_density,
                           random_hermitian, random_pure, random_unitary,
                           trace_norm)
from oqmarkov.criteria import (CriterionReport, check_composability,
                               criterion_settings, default_gqrf_op_sets,
                               check_distinguishability, check_divisibility,
                               check_fa, check_fdd, check_gqrf, check_nib,
                               check_nqib, check_qrf, check_semigroup,
                               dd_effectiveness, hierarchy_report, map_family,
                               map_residual, multitime_correlation,
                               generalized_map, regression_prediction,
                               replacement_map, tomograph, worst_case)
from oqmarkov.models import (afl, collision, eternal_me, nqib_qubit,
                             partial_swap, static_dephasing, tam)
from oqmarkov.superop import SuperOperator, compose, is_cptp, vec

from dense_reference import dense_propagator


class TestCriterionReport:
    def test_fail_needs_witness(self):
        with pytest.raises(ValueError):
            CriterionReport("x", "fail", {"r": 0.0}, 1e-9, "g")

    def test_inconclusive_needs_reason(self):
        with pytest.raises(ValueError):
            CriterionReport("x", "inconclusive", {}, 1e-9, "g")

    def test_complex_witness_serialization(self):
        rep = CriterionReport("x", "pass", {"z": 1 + 2j}, 1e-9, "g")
        d = rep.to_dict()
        assert d["witnesses"]["z_re"] == 1.0 and d["witnesses"]["z_im"] == 2.0


class TestWorstCase:
    def test_first_strict_maximum_wins_and_nan_never_does(self):
        cases = [(0.5, "a"), (float("nan"), "nan"), (2.0, "b"), (2.0, "c"), (1.0, "d")]
        assert worst_case(cases, 2.0) == (2.0, "b", "pass")
        assert worst_case(cases, 1.0) == (2.0, "b", "fail")

    def test_no_positive_residual_has_no_place(self):
        for cases in ([], [(0.0, "a"), (-1.0, "b"), (float("nan"), "c")]):
            assert worst_case(iter(cases), 0.0) == (0.0, None, "pass")


class TestTomograph:
    @pytest.mark.parametrize("factory", [tam, nqib_qubit, static_dephasing,
                                         collision, afl])
    def test_identity_at_t0_and_tp(self, factory):
        model = factory()
        e0 = tomograph(model, model.t0, model.t0)
        assert np.max(np.abs(e0.mat - np.eye(model.dim_s ** 2))) < 1e-12
        e = tomograph(model, model.t0, model.t0 + 1.0)
        diag = is_cptp(e, tol=1e-10)
        assert diag.tp_residual < 1e-10
        assert diag.herm_residual < 1e-10

    def test_wrong_origin_rejected(self):
        with pytest.raises(ValueError):
            tomograph(tam(), 0.5, 1.0)


class TestMultitime:
    def test_identity_ops_give_one(self):
        for model in (tam(), collision(), afl()):
            ident = np.eye(2, dtype=complex)
            c_ops = [(ident, ident)] * 3
            times = (model.t0, model.t0 + 0.7, model.t0 + 1.4)
            rho0 = np.outer(plus_state(), plus_state().conj())
            val = multitime_correlation(model, c_ops, times, rho0)
            assert np.isclose(val, 1.0, atol=1e-10)
            val2 = regression_prediction(model, c_ops, times, rho0)
            assert np.isclose(val2, 1.0, atol=1e-10)

    def test_afl_numeric_matches_analytic_oracles(self):
        model = afl()
        rho0 = np.outer(plus_state(), plus_state().conj())
        rng = np.random.default_rng(2)
        letters = list(PAULIS.values())
        times = (0.0, 0.5, 1.0)
        for _ in range(6):
            c_ops = [(letters[rng.integers(4)], letters[rng.integers(4)])
                     for _ in times]
            num = multitime_correlation(model, c_ops, times, rho0)
            ana = model.correlation_exact(c_ops, times, rho0)
            assert abs(num - ana) < 1e-6
            numr = regression_prediction(model, c_ops, times, rho0)
            anar = model.correlation_regression(c_ops, times, rho0)
            assert abs(numr - anar) < 1e-6


class TestFa:
    def test_interaction_free_dynamics_passes(self):
        # local pair unitary: the joint state stays an exact product
        u_local = np.kron(np.array([[np.exp(-0.3j), 0], [0, np.exp(0.3j)]]),
                          np.eye(2, dtype=complex))
        model = collision(n_slots=3, pair_unitary=u_local)
        rep = check_fa(model, times=(1.0, 2.0), tol=1e-9)
        assert rep.verdict == "pass"

    def test_single_initial_state_inconclusive_when_product(self):
        u_local = np.kron(np.diag([1.0, 1.0]).astype(complex), np.eye(2))
        model = collision(n_slots=2, pair_unitary=u_local)
        plus = np.outer(plus_state(), plus_state().conj())
        rep = check_fa(model, initial_states=[plus], times=(1.0,), tol=1e-9)
        assert rep.verdict == "inconclusive"


class TestAflSplit:
    def test_fa_fails_with_entanglement_witness(self):
        model = afl()
        plus = np.outer(plus_state(), plus_state().conj())
        rep = check_fa(model, initial_states=[plus, np.diag([1.0, 0.0]).astype(complex)],
                       times=(0.5,), tol=1e-7)
        assert rep.verdict == "fail"
        assert rep.witnesses["max_mutual_information"] > 0.1
        assert rep.witnesses["max_negativity"] > 1e-3

    def test_qrf_passes_on_grid(self):
        model = afl()
        pairs = [(a, b) for a in PAULIS.values() for b in PAULIS.values()]
        rep = check_qrf(model, op_pairs=pairs,
                        time_pairs=((0.2, 0.5), (0.2, 1.0), (0.5, 1.0)), tol=1e-5)
        assert rep.verdict == "pass"

    def test_gqrf_fails(self):
        model = afl()
        rep = check_gqrf(model, time_sets=((0.5, 1.0, 1.5),), tol=1e-5)
        assert rep.verdict == "fail"
        assert rep.witnesses["max_residual"] > 0.01


class TestGeneralizedMap:
    """The replaced-bath map resets the bath to its initial state."""

    @settings(max_examples=30, deadline=None)
    @given(levels=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
           t1=st.floats(0.0, 2.0), dt=st.floats(0.0, 2.0))
    def test_static_dephasing_resets_to_initial_state(self, levels, seed, t1, dt):
        rng = np.random.default_rng(seed)
        model = static_dephasing(rng.dirichlet(np.ones(levels)),
                                 [random_hermitian(2, rng) for _ in range(levels)])
        reset = replacement_map(model, t1, t1 + dt, model.rho_e0_matrix())
        assert np.max(np.abs(generalized_map(model, t1, t1 + dt).mat - reset.mat)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 3), n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           u1=st.floats(0.0, 1.0), u2=st.floats(0.0, 1.0), mixed=st.booleans())
    def test_collision_resets_to_initial_state(self, d, n, seed, u1, u2, mixed):
        rng = np.random.default_rng(seed)
        ancilla = random_density(d, rng=rng) if mixed else None
        model = collision(n, random_unitary(d * d, rng), ancilla_state=ancilla)
        t1, t2 = sorted((n * u1, n * u2))     # on slot boundaries and inside slots
        reset = replacement_map(model, t1, t2, model.rho_e0_matrix())
        assert np.max(np.abs(generalized_map(model, t1, t2).mat - reset.mat)) < 1e-12


class TestEnvironmentInterventions:
    def test_composability_trivial_when_t1_is_t0(self):
        model = tam()
        rep = check_composability(model, [(0.0, 0.0, 1.0)], tol=1e-9)
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("factory", [tam, collision])
    def test_maps_are_read_from_the_model_initial_time(self, factory):
        # E(t1) and E(t2) are tomographs from the triple's own t0
        model = factory()
        with pytest.raises(ValueError, match="initial time"):
            check_composability(model, [(0.0, 1.0, 2.0), (0.5, 1.0, 2.0)])
        with pytest.raises(ValueError, match="initial time"):
            check_nib(model, (0.5, 1.0, 2.0))

    def test_tam_nib_fails_with_ground_among_best(self):
        from oqmarkov.criteria import compose, map_residual, replacement_map
        model = tam()
        rep = check_nib(model, (0.0, 1.0, 2.0), tol=1e-4)
        assert rep.verdict == "fail"
        assert rep.witnesses["min_residual"] > 1e-2
        # the ground-state replacement attains the same minimal residual
        e2 = map_family(model, [2.0])[0][1]
        e1 = map_family(model, [1.0])[0][1]
        q = replacement_map(model, 1.0, 2.0, np.diag([1.0, 0.0]).astype(complex))
        ground_resid = map_residual(e2, compose(q, e1))["residual"]
        assert ground_resid <= rep.witnesses["min_residual"] + 1e-9

    def test_nqib_model_nib_fails_by_half_trace_distance(self):
        rep = check_nib(nqib_qubit(), (0.0, math.pi, 2 * math.pi), tol=1e-6)
        assert rep.verdict == "fail"
        assert rep.witnesses["action_norm"] >= 0.49

    def test_nqib_pass_with_projective_channel(self):
        model = nqib_qubit()
        rep = check_nqib(model, (0.0, math.pi, 2 * math.pi),
                         model.breaking_channel(math.pi), tol=1e-10)
        assert rep.verdict == "pass"

    def test_nqib_wrong_channel_fails(self):
        model = nqib_qubit()
        povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        flip = [np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]   # re-prepare flipped
        rep = check_nqib(model, (0.0, math.pi, 2 * math.pi), (povm, flip), tol=1e-9)
        assert rep.verdict == "fail"
        assert rep.witnesses["residual"] > 0.1

    def test_nqib_without_channel_inconclusive(self):
        rep = check_nqib(tam(), (0.0, 1.0, 2.0), None)
        assert rep.verdict == "inconclusive"

    def test_collision_nib_exact_with_fresh_ancillas(self):
        model = collision()
        rep = check_nib(model, (0.0, 2.0, 4.0), tol=1e-10)
        assert rep.verdict == "pass"
        assert rep.witnesses["min_residual"] < 1e-10


def _dense_intervened_map(model, time_triple, povm, states):
    """Reference for the measure-and-prepare map of check_nqib, built from
    dense joint density matrices: U1 (X (x) rho_E) U1^dag, then
    sum_k Tr_E[(1 (x) F_k) .] (x) s_k, then U2 . U2^dag and Tr_E."""
    t0, t1, t2 = time_triple
    ds, de = model.dim_s, model.dim_e
    u1 = dense_propagator(model, t0, t1)
    u2 = dense_propagator(model, t1, t2)
    rho_e = model.rho_e0_matrix()
    m = np.zeros((ds * ds, ds * ds), dtype=complex)
    for i in range(ds):
        for j in range(ds):
            x = np.outer(ket(i, ds), ket(j, ds).conj())
            joint = u1 @ np.kron(x, rho_e) @ u1.conj().T
            interrupted = np.zeros_like(joint)
            for f, s in zip(povm, states):
                sel = np.kron(np.eye(ds), np.asarray(f, dtype=complex)) @ joint
                m_sys = sel.reshape(ds, de, ds, de).trace(axis1=1, axis2=3)
                interrupted += np.kron(m_sys, np.asarray(s, dtype=complex))
            final = u2 @ interrupted @ u2.conj().T
            out = final.reshape(ds, de, ds, de).trace(axis1=1, axis2=3)
            m[:, i + ds * j] = vec(out)
    return m


def _assert_nqib_matches_dense(model, triple, povm, states):
    from oqmarkov.criteria import _intervened_map
    dense = _dense_intervened_map(model, triple, povm, states)
    assert np.max(np.abs(_intervened_map(model, triple, povm, states).mat - dense)) < 1e-12
    rep = check_nqib(model, triple, (povm, states), tol=1e-9)
    ref = map_residual(tomograph(model, triple[0], triple[2]), SuperOperator(dense, model.dim_s))
    for key in ("residual", "max_entry", "action_norm"):
        assert abs(rep.witnesses[key] - ref[key]) < 1e-12


class TestNqibAgainstDense:
    @settings(max_examples=25, deadline=None)
    @given(levels=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
           t1=st.floats(0.0, 2.0), dt=st.floats(0.0, 2.0), rotated=st.booleans())
    def test_register_measure_and_prepare(self, levels, seed, t1, dt, rotated):
        # computational measurement, or (rotated) one in a random basis whose
        # complex effects are not their own transposes
        rng = np.random.default_rng(seed)
        hams = []
        for _ in range(levels):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            hams.append((a + a.conj().T) / 2)
        model = static_dephasing(rng.dirichlet(np.ones(levels)), hams)
        basis = random_unitary(levels, rng) if rotated else np.eye(levels)
        povm = [np.outer(basis[:, j], basis[:, j].conj()) for j in range(levels)]
        states = [random_density(levels, rng) for _ in range(levels)]
        _assert_nqib_matches_dense(model, (0.0, t1, t1 + dt), povm, states)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), t1=st.sampled_from([1.0, 2.0]),
           frac=st.floats(0.0, 1.0), rotated=st.booleans())
    def test_collision_past_channel(self, seed, t1, frac, rotated):
        # the past channel as built, or (rotated) conjugated by a random bath
        # unitary so that bath coherences reach the effects
        from oqmarkov.criteria import _collision_past_channel
        rng = np.random.default_rng(seed)
        model = collision(3, random_unitary(4, rng), random_pure(2, rng))
        povm, states = _collision_past_channel(model, t1)
        if rotated:
            v = random_unitary(model.dim_e, rng)
            povm = [v @ f @ v.conj().T for f in povm]
            states = [v @ s @ v.conj().T for s in states]
        t2 = t1 + frac * (3.0 - t1)
        _assert_nqib_matches_dense(model, (0.0, t1, t2), povm, states)


# check_nib on the parent of the convex rewrite, where a 17^3 Bloch grid
# (or a 12-step register enumeration) plus Nelder-Mead was searched:
# (model, triple, tolerance, verdict, min_residual).
NIB_SEED_VALUES = [
    ("tam", (0.0, 1.0, 2.0), 1e-4, "fail", 0.221914500876698),
    ("nqib", (0.0, math.pi, 2 * math.pi), 1e-6, "fail", 1.0),
    ("static-dephasing", (0.0, 0.7, 1.3), 1e-6, "fail", 0.9184776656050946),
    ("tam", (0.0, 0.0, 1.0), 1e-4, "pass", 2.220446049250313e-16),
    ("tam", (0.0, 0.3, 1.0), 1e-4, "fail", 0.306374448747438),
    ("tam", (0.0, 0.5, 3.0), 1e-4, "fail", 0.4501588629622585),
    ("nqib", (0.0, 0.0, 1.0), 1e-6, "pass", 1.2901102036597931e-17),
    ("nqib", (0.0, 1.0, 2.5), 1e-6, "fail", 0.3267950296576876),
]
NIB_MODELS = {"tam": tam, "nqib": nqib_qubit, "static-dephasing": static_dephasing}

bloch_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(
    lambda r: np.array(r) / max(1.0, float(np.linalg.norm(r))))


def _bloch_state(r):
    from oqmarkov.core import SY, SZ
    return (np.eye(2) + r[0] * SX + r[1] * SY + r[2] * SZ) / 2.0


def _nib_residual(model, t1, t2, sigma):
    from oqmarkov.criteria import compose, map_residual, replacement_map
    e2 = map_family(model, [t2])[0][1]
    e1 = map_family(model, [t1])[0][1]
    q = replacement_map(model, t1, t2, sigma)
    return map_residual(e2, compose(q, e1))["residual"]


class TestNibConvex:
    @settings(max_examples=40, deadline=None)
    @given(factory=st.sampled_from([tam, nqib_qubit]), r=bloch_vectors,
           t1=st.floats(0.0, 3.0), dt=st.floats(0.0, 3.0))
    def test_basis_maps_rebuild_replacement_map(self, factory, r, t1, dt):
        from oqmarkov.criteria import (_nib_coordinates, _signed_branches,
                                       replacement_map)
        model = factory()
        base, ops, feasible = _nib_coordinates(model)
        assert feasible == "ball"
        q = [replacement_map(model, t1, t1 + dt, _signed_branches(op)).mat
             for op in [base] + ops]
        combined = q[0] + sum(c * qk for c, qk in zip(r, q[1:]))
        direct = replacement_map(model, t1, t1 + dt, _bloch_state(r)).mat
        assert np.max(np.abs(combined - direct)) < 1e-12

    @pytest.mark.parametrize("name,triple,tol,verdict,seed_value", NIB_SEED_VALUES)
    def test_no_worse_than_grid_search(self, name, triple, tol, verdict, seed_value):
        rep = check_nib(NIB_MODELS[name](), triple, tol=tol)
        w = rep.witnesses
        assert rep.verdict == verdict
        assert w["min_residual"] <= seed_value + 1e-12
        assert 0.0 <= w["lower_bound"] <= w["min_residual"]
        assert len(w["best_sigma_diag"]) == 2

    @pytest.mark.parametrize("name,triple,tol,verdict,seed_value", NIB_SEED_VALUES[:3])
    def test_preset_fails_are_certified(self, name, triple, tol, verdict, seed_value):
        rep = check_nib(NIB_MODELS[name](), triple, tol=tol)
        assert rep.witnesses["lower_bound"] >= rep.witnesses["min_residual"] - 1e-9
        assert "fail certified" in rep.grid

    @settings(max_examples=30, deadline=None)
    @given(factory=st.sampled_from([tam, nqib_qubit]), x=bloch_vectors,
           y=bloch_vectors, t1=st.floats(0.05, 2.0), dt=st.floats(0.1, 2.0))
    # subnormal residual entries, where z/|z| overflowed and the cut was nan
    @example(factory=tam, x=np.array([0.0, 2.2250738585072014e-308, 0.0]),
             y=np.zeros(3), t1=1.0, dt=1.0)
    def test_cut_at_any_point_bounds_every_state(self, factory, x, y, t1, dt):
        from oqmarkov.criteria import (_AffineResidual, _nib_coordinates,
                                       _signed_branches, replacement_map)
        model = factory()
        t2 = t1 + dt
        e1 = map_family(model, [t1])[0][1].mat
        e2 = map_family(model, [t2])[0][1].mat
        base, ops, feasible = _nib_coordinates(model)

        def chained(op):
            return replacement_map(model, t1, t2, _signed_branches(op)).mat @ e1

        res = _AffineResidual(e2 - chained(base), [chained(op) for op in ops], 2, feasible)
        direct = _nib_residual(model, t1, t2, _bloch_state(y))
        assert abs(res.value(y) - direct) < 1e-12
        assert res.lower_bound(x) <= direct + 1e-12
        # every piece's subgradient inequality, entry pieces and probe pieces
        fx, gx = res.subgradients(x)
        fy, _ = res.subgradients(y)
        assert np.all(fy >= fx + gx @ (y - x) - 1e-12)
        rep = check_nib(model, (0.0, t1, t2), tol=1e-6)
        assert rep.witnesses["lower_bound"] <= rep.witnesses["min_residual"]
        assert rep.witnesses["lower_bound"] <= direct + 1e-12

    def test_lower_bound_rejects_a_non_finite_cut(self):
        from oqmarkov.criteria import _AffineResidual
        res = _AffineResidual(np.zeros((4, 4), dtype=complex),
                              [np.eye(4, dtype=complex)] * 3, 2, "ball")
        assert np.isfinite(res.lower_bound(np.zeros(3)))
        res.subgradients = lambda x: (np.array([np.nan]), np.zeros((1, 3)))
        with pytest.raises(FloatingPointError):
            res.lower_bound(np.zeros(3))

    def test_register_search_beats_population_grid(self):
        # three register levels with unrelated Hamiltonians: the seeds leave a
        # gap, so Nelder-Mead runs on the population simplex
        rng = np.random.default_rng(5)
        hams = []
        for _ in range(3):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            hams.append((a + a.conj().T) / 2)
        model = static_dephasing([0.2, 0.3, 0.5], hams)
        t1, t2 = 0.8, 1.7
        rep = check_nib(model, (0.0, t1, t2), tol=1e-6)
        w = rep.witnesses
        assert rep.verdict == "fail" and "Nelder-Mead" in rep.grid
        assert abs(sum(w["best_sigma_diag"]) - 1.0) < 1e-12
        assert min(w["best_sigma_diag"]) >= 0.0
        assert 0.0 < w["lower_bound"] <= w["min_residual"]
        steps = 8
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                p = np.array([i, j, steps - i - j]) / steps
                value = _nib_residual(model, t1, t2, np.diag(p).astype(complex))
                assert value >= w["lower_bound"] - 1e-12
                assert value >= w["min_residual"] - 1e-9


class TestGqrfOperatorSets:
    def test_none_selects_the_defaults_and_empty_is_rejected(self):
        model = tam()
        rep = check_gqrf(model, op_sets=None, time_sets=((0.5, 1.0),))
        assert rep.grid == "40 operator sequences over 1 time sets"
        assert rep.to_dict() == check_gqrf(model, default_gqrf_op_sets(2, 2),
                                           ((0.5, 1.0),)).to_dict()
        for empty in ([], ()):
            with pytest.raises(ValueError, match="op_sets is empty"):
                check_gqrf(model, op_sets=empty)


class TestNonQubitSystems:
    def test_qrf_gqrf_defaults_for_qutrit_collisions(self):
        # the default operator sets follow dim_s (9 Gell-Mann operators here)
        model = collision(n_slots=3, pair_unitary=partial_swap(math.pi / 4, d=3))
        assert model.dim_s == 3
        qrf = check_qrf(model, time_pairs=((1.0, 2.0),), tol=1e-9)
        assert qrf.verdict == "pass"
        assert qrf.grid.startswith("81 operator pairs")
        gqrf = check_gqrf(model, time_sets=((1.0, 2.0, 3.0),), tol=1e-9)
        assert gqrf.verdict == "pass"
        assert gqrf.witnesses["max_residual"] < 1e-9


class TestMapFamilyCriteria:
    def test_lindblad_semigroup_all_pass(self):
        import scipy.linalg
        from oqmarkov.superop import SuperOperator, dissipator
        from oqmarkov.core import SM
        l = 1.5 * dissipator(SM).mat
        map_at = lambda tau: SuperOperator(scipy.linalg.expm(l * tau), 2)
        grid = np.arange(0.0, 2.01, 0.4)
        family = [(t, map_at(t)) for t in grid]
        assert check_divisibility(family).verdict == "pass"
        assert check_semigroup(map_at, [(0.4, 0.8), (0.4, 0.4)]).verdict == "pass"
        assert check_distinguishability(family).verdict == "pass"

    def test_eternal_family_verdicts(self):
        model = eternal_me()
        grid = np.arange(0.0, 3.01, 0.5)
        family = map_family(model, grid)
        div = check_divisibility(family, tol=1e-9)
        assert div.verdict == "fail"
        assert div.witnesses["min_choi_eig"] <= -0.05
        assert check_distinguishability(family, tol=1e-9).verdict == "pass"
        semi = check_semigroup(model.map, [(0.5, 1.0), (1.0, 1.0)], tol=1e-9)
        assert semi.verdict == "fail"

    def test_distinguishability_half_weight_equals_trace_distance_monotonicity(self):
        for model in (eternal_me(),):
            grid = np.arange(0.0, 3.01, 0.5)
            family = map_family(model, grid)
            rep_half = check_distinguishability(family, w_grid=[0.5], tol=1e-9)
            # manual trace-distance monotonicity over the same pairs
            rng = np.random.default_rng(23)
            from oqmarkov.core import random_pure, trace_norm
            increase = 0.0
            for _ in range(25):
                u, v = random_pure(2, rng), random_pure(2, rng)
                r0, s0 = np.outer(u, u.conj()), np.outer(v, v.conj())
                prev = None
                for t, emap in family:
                    val = 0.5 * trace_norm(emap(r0) - emap(s0))
                    if prev is not None:
                        increase = max(increase, val - prev)
                    prev = val
            assert (rep_half.verdict == "pass") == (increase <= 1e-9)

    def test_tam_family_divisible_and_semigroup(self):
        model = tam()
        grid = [0.0, 0.5, 1.0, 1.5, 2.0]
        family = map_family(model, grid)
        assert check_divisibility(family, tol=1e-7).verdict == "pass"
        semi = check_semigroup(lambda tau: model.analytic_map(0.0, tau),
                               [(0.5, 0.5), (0.5, 1.0)], tol=1e-9)
        assert semi.verdict == "pass"


def _looped_distinguishability(family, state_pairs=None, w_grid=None,
                               tol=1e-9, seed=23, n_pairs=25):
    """Reference: the per-matrix triple loop over (pair, weight, time) that
    the stacked sweep of `check_distinguishability` replaced; the strict `>`
    keeps the first maximum in that order."""
    d = family[0][1].dim
    if state_pairs is None:
        rng = np.random.default_rng(seed)
        state_pairs = []
        for _ in range(n_pairs):
            u, v = random_pure(d, rng), random_pure(d, rng)
            state_pairs.append((np.outer(u, u.conj()), np.outer(v, v.conj())))
        state_pairs.append((np.outer(ket(0, d), ket(0, d).conj()),
                            np.outer(ket(d - 1, d), ket(d - 1, d).conj())))
        up = np.ones(d, dtype=complex) / np.sqrt(d)
        dn = up.copy(); dn[1::2] *= -1
        state_pairs.append((np.outer(up, up.conj()), np.outer(dn, dn.conj())))
    if w_grid is None:
        w_grid = np.arange(0.1, 0.95, 0.1)
    max_increase, worst = 0.0, None
    for rho0, sig0 in state_pairs:
        for w in w_grid:
            prev = None
            for t, emap in family:
                val = trace_norm(w * emap(rho0) - (1 - w) * emap(sig0))
                if prev is not None and val - prev > max_increase:
                    max_increase, worst = val - prev, (t, float(w))
                prev = val
    witnesses = {"max_increase": max_increase, "worst": list(worst) if worst else []}
    grid = (f"{len(state_pairs)} state pairs x {len(list(w_grid))} weights "
            f"x {len(family)} grid times")
    verdict = "pass" if max_increase <= tol else "fail"
    return CriterionReport("distinguishability", verdict, witnesses, tol, grid)


def _random_channel(d, rng, rank=2):
    """A random CPTP map of Kraus rank `rank`, from a Haar isometry."""
    iso = random_unitary(d * rank, rng)[:, :d].reshape(d, rank, d)
    return SuperOperator(sum(np.kron(iso[:, i].conj(), iso[:, i]) for i in range(rank)), d)


def _divisible_family(d, rng, n_times):
    """E_0 = identity and E_k = L_k E_(k-1) with random channels L_k: the
    Helstrom bias can only fall along it."""
    maps = [SuperOperator(np.eye(d * d, dtype=complex), d)]
    for _ in range(n_times - 1):
        maps.append(compose(_random_channel(d, rng), maps[-1]))
    return [(0.5 * k, m) for k, m in enumerate(maps)]


class TestDistinguishabilitySweep:
    """The stacked sweep against the per-matrix loop it replaced."""

    @settings(max_examples=12, deadline=None)
    @given(d=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
           n_times=st.integers(2, 5), tol=st.sampled_from([1e-9, 0.05]))
    def test_matches_the_loop_on_random_families(self, d, seed, n_times, tol):
        rng = np.random.default_rng(seed)
        falling = _divisible_family(d, rng, n_times)
        rising = [(t, m) for (t, _), (_, m) in zip(falling, falling[::-1])]
        for family in (falling, rising):
            got = check_distinguishability(family, tol=tol, seed=seed)
            assert got.to_dict() == _looped_distinguishability(
                family, tol=tol, seed=seed).to_dict()
        assert check_distinguishability(falling, tol=1e-9).verdict == "pass"
        assert check_distinguishability(rising, tol=1e-9).verdict == "fail"

    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_tie_takes_the_first_maximum(self, d):
        rng = np.random.default_rng(d)
        a, one = _random_channel(d, rng), SuperOperator(np.eye(d * d, dtype=complex), d)
        # the rise a -> one happens twice, from bitwise equal outputs
        family = [(0.0, a), (1.0, one), (2.0, a), (3.0, one)]
        got = check_distinguishability(family, w_grid=[0.3, 0.5, 0.7])
        assert got.verdict == "fail" and got.witnesses["worst"][0] == 1.0
        assert got.to_dict() == _looped_distinguishability(
            family, w_grid=[0.3, 0.5, 0.7]).to_dict()

    def test_no_pairs_or_one_time_passes(self):
        family = _divisible_family(2, np.random.default_rng(0), 3)
        for rep in (check_distinguishability(family, state_pairs=[]),
                    check_distinguishability(family[:1])):
            assert rep.verdict == "pass"
            assert rep.witnesses == {"max_increase": 0.0, "worst": []}

    def test_generators_are_read_once(self):
        model = nqib_qubit()
        family = map_family(model, criterion_settings(model, ["distinguishability"])[
            "distinguishability"]["grid"])
        rng = np.random.default_rng(5)
        pairs = [tuple(random_density(2, rng, rank=1) for _ in range(2)) for _ in range(6)]
        weights = (0.2, 0.5, 0.8)
        want = check_distinguishability(family, tuple(pairs), weights).to_dict()
        got = check_distinguishability(family, (p for p in pairs), (w for w in weights))
        assert got.to_dict() == want
        assert want["grid"] == "6 state pairs x 3 weights x 9 grid times"
        assert want["verdict"] == "fail"

    def test_semigroup_reads_a_generator_once(self):
        model = eternal_me()
        durations = ((0.5, 1.0), (1.0, 1.0))
        want = check_semigroup(model.map, durations).to_dict()
        assert check_semigroup(model.map, (p for p in durations)).to_dict() == want
        assert want["grid"] == "2 duration pairs"


class TestFdd:
    def test_collision_chain_matches(self):
        model = collision()
        rng = np.random.default_rng(4)
        from oqmarkov.core import random_unitary
        seqs = [([random_unitary(2, rng), random_unitary(2, rng)], [1.0, 2.0])]
        rep = check_fdd(model, seqs, tol=1e-9)
        assert rep.verdict == "pass"
        assert rep.witnesses["max_residual"] < 1e-9

    def test_afl_echo_breaks_chain(self):
        model = afl()
        rep = check_fdd(model, [([SX, SX], [0.5, 1.0])], tol=1e-5)
        assert rep.verdict == "fail"
        eff = dd_effectiveness(model, [SX, SX], [0.5, 1.0])
        assert np.isclose(eff["purity_hahn"], 1.0, atol=1e-9)
        assert np.isclose(eff["purity_gain"], 1.0 - eff["purity_free"], atol=1e-9)

    def test_empty_sequence_trivially_consistent(self):
        model = collision()
        rep = check_fdd(model, [([], [])], tol=1e-12)
        assert rep.verdict == "pass"


class TestCaseArgumentsReadOnce:
    """Each checker lists its case arguments at entry, so a generator gives
    the report that a list gives."""

    TIMES = [(0.5, 1.0), (1.0, 2.0)]

    def test_qrf(self):
        model = tam()
        pairs = [(SX, SX), (PAULIS["Z"], SX)]
        want = check_qrf(model, pairs, self.TIMES).to_dict()
        got = check_qrf(model, (p for p in pairs), (t for t in self.TIMES))
        assert got.to_dict() == want
        assert want["grid"] == "2 operator pairs x 2 time pairs, both orderings"

    def test_gqrf(self):
        model = tam()
        sets = default_gqrf_op_sets(2, 2, n_sets=3)
        want = check_gqrf(model, sets, self.TIMES).to_dict()
        got = check_gqrf(model, (s for s in sets), (t for t in self.TIMES))
        assert got.to_dict() == want
        assert want["grid"] == "6 operator sequences over 2 time sets"

    def test_composability(self):
        model = tam()
        triples = [(0.0, 0.5, 1.0), (0.0, 1.0, 2.0)]
        want = check_composability(model, triples).to_dict()
        assert check_composability(model, (t for t in triples)).to_dict() == want
        assert want["grid"] == "2 time triples"
        assert want["verdict"] == "fail"

    def test_fdd(self):
        model = tam()
        seqs = [([SX, SX], [0.5, 1.0]), ([SX], [1.0])]
        want = check_fdd(model, seqs).to_dict()
        assert check_fdd(model, (s for s in seqs)).to_dict() == want
        assert want["grid"] == "2 pulse sequences"


EXPECTED_ROWS = {
    "collision": {"fa": "fail", "qrf": "pass", "gqrf": "pass",
                  "composability": "pass", "nib": "pass", "nqib": "pass",
                  "divisibility": "pass", "distinguishability": "pass",
                  "fdd": "pass"},
    "eternal": {"divisibility": "fail", "distinguishability": "pass",
                "semigroup": "fail"},
    "afl": {"fa": "fail", "qrf": "pass", "gqrf": "fail"},
    "nqib": {"nqib": "pass", "nib": "fail"},
    "static-dephasing": {"gqrf": "fail", "pu": "pass"},
    "tam": {"divisibility": "pass", "semigroup": "pass", "nib": "fail"},
}


class TestMapStore:
    """One `hierarchy` run builds each initial-bath map once; nothing is
    kept outside a run."""

    @staticmethod
    def _count_builds(monkeypatch, model):
        """Pin the model's initial bath to one branch list and count, per
        (t1, t2), the maps assemble_map builds from it."""
        import collections
        from oqmarkov import criteria
        from oqmarkov.models import assemble_map as assemble
        branches = model.env_branches()
        monkeypatch.setattr(model, "env_branches", lambda: branches, raising=False)
        builds, total = collections.Counter(), [0]

        def counted(m, b, times, ops, effect=None):
            total[0] += 1
            if b is branches and effect is None:
                builds[tuple(times)] += 1
            return assemble(m, b, times, ops, effect)
        monkeypatch.setattr(criteria, "assemble_map", counted)
        return builds, total

    def test_hierarchy_builds_each_map_once(self, monkeypatch):
        from oqmarkov.models import make_model
        total = 0
        for name in ("tam", "nqib", "collision", "static-dephasing", "afl"):
            model = make_model(name)
            builds, calls = self._count_builds(monkeypatch, model)
            hierarchy_report(model)
            assert builds and max(builds.values()) == 1, (name, builds)
            total += calls[0]
        assert total <= 104

    def test_no_store_outside_a_run(self, monkeypatch):
        model = tam()
        builds, _ = self._count_builds(monkeypatch, model)
        first, second = generalized_map(model, 0.5, 1.0), generalized_map(model, 0.5, 1.0)
        assert builds[(0.5, 1.0)] == 2 and first is not second
        assert np.array_equal(first.mat, second.mat)

    def test_model_freed_after_a_run(self):
        import gc
        import weakref
        from oqmarkov.criteria import run_criteria
        model = tam()
        hierarchy_report(model)
        settings = criterion_settings(model, ["composability", "fa"])
        del settings["fa"]["times"]         # the second checker raises
        with pytest.raises(KeyError):
            run_criteria(model, settings, 0)
        ref = weakref.ref(model)
        del model, settings
        gc.collect()
        assert ref() is None


class TestHierarchy:
    @pytest.mark.parametrize("name", sorted(EXPECTED_ROWS))
    def test_preset_rows_and_consistency(self, name):
        rep = hierarchy_report(name)
        assert rep.consistent, rep.implications
        for crit, expected in EXPECTED_ROWS[name].items():
            assert rep.reports[crit].verdict == expected, (name, crit)

    def test_every_fail_has_witness_above_tolerance(self):
        for name in EXPECTED_ROWS:
            rep = hierarchy_report(name)
            for r in rep.reports.values():
                if r.verdict == "fail":
                    numeric = [abs(v) for v in r.witnesses.values()
                               if isinstance(v, (int, float))]
                    assert max(numeric) > r.tolerance

    def test_static_spin_echo_extras(self):
        rep = hierarchy_report("static-dephasing")
        echo = rep.extras["spin_echo"]
        assert abs(echo["purity_hahn"] - 1.0) < 1e-10
        assert rep.reports["gqrf"].verdict == "fail"

    def test_collision_times_follow_slot_times(self):
        from oqmarkov.criteria import criterion_settings
        model = collision(slot_times=[0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        s = criterion_settings(model)
        assert s["fa"]["times"] == (0.5, 1.0)
        assert s["nib"]["triple"] == (0.0, 1.0, 2.0)
        assert s["fdd"]["sequences"][1][1] == (0.5, 1.0)
        assert s["semigroup"]["pairs"][2] == (1.0, 1.5)     # durations
        assert ([t for t, _ in map_family(model, s["divisibility"]["grid"])]
                == list(model.slot_times))
        rep = hierarchy_report(model)
        preset = hierarchy_report("collision")
        assert ({k: r.verdict for k, r in rep.reports.items()}
                == {k: r.verdict for k, r in preset.reports.items()})
        # the past-ancilla channel measures the two ancillas used by t1 = 1.0
        assert rep.reports["nqib"].grid.endswith("supplied channel with 4 outcomes")

    def test_declared_times_are_offsets_from_t0(self):
        rep = hierarchy_report(tam(t0=0.5))
        assert rep.consistent, rep.implications
        assert rep.reports["fa"].grid.startswith("times=[1.0, 1.5]")
        assert rep.reports["nib"].grid.startswith("triple=[0.5, 1.5, 2.5]")
        s = criterion_settings(tam(t0=0.5), ["semigroup", "fdd"])
        assert s["semigroup"]["pairs"] == ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0))  # durations
        assert s["fdd"]["sequences"][0][1] == (1.5, 2.5)     # the window from t0

    def test_slot_beyond_the_model_is_a_value_error(self):
        with pytest.raises(ValueError, match="slot 4 .*n_slots = 3"):
            criterion_settings(collision(n_slots=3))
        with pytest.raises(ValueError, match="n_slots = 3"):
            hierarchy_report(collision(n_slots=3))

    def test_nqib_negativity_extra(self):
        rep = hierarchy_report("nqib")
        assert rep.extras["max_negativity_over_time"] < 1e-10
