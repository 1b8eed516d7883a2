import functools
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from oqmarkov.core import (ID2, SM, SP, SX, SZ, ket, plus_state, random_density,
                           random_hermitian, random_pure, random_unitary)
from oqmarkov.models import (afl, assemble_map, bath_correlation, collision,
                             dd_apply, eternal_me, evolve, nqib_qubit, partial_swap,
                             static_dephasing, tam,
                             tam_post_replacement_model,
                             tam_post_replacement_rate, make_model)
from oqmarkov.superop import SuperOperator, is_cptp, unvec, vec
from oqmarkov.criteria import replacement_map, tomograph

from closed_forms import (afl_correlation_exact, afl_correlation_regression,
                          afl_map, chi_exact, chi_grid, chi_of_accumulated,
                          chi_of_product, nqib_map, tam_map,
                          tam_post_replacement_rate_closed_form, theta_quadrature,
                          three_time_failure_case)
from dense_reference import dense_propagator, reference_map


ALL_JOINT = ["afl", "tam", "nqib", "collision", "static-dephasing"]


def propagate(model, t1, t2, v):
    return model.apply_propagator(t1, t2, v)


@pytest.mark.parametrize("name", ALL_JOINT)
def test_propagator_unitarity_and_cocycle(name):
    model = make_model(name)
    rng = np.random.default_rng(3)
    d = model.dim_s * model.dim_e
    t_triples = [(0.0, 0.4, 1.1), (0.2, 0.9, 1.7), (0.0, 1.0, 2.0)]
    for t0, t1, t2 in t_triples:
        v = random_pure(d, rng)
        w = propagate(model, t1, t2, propagate(model, t0, t1, v))
        w2 = propagate(model, t0, t2, v)
        assert np.max(np.abs(w - w2)) < 1e-9          # cocycle
        assert abs(np.linalg.norm(w) - 1.0) < 1e-9    # unitarity
        assert np.max(np.abs(propagate(model, t1, t1, v) - v)) < 1e-12


def _dense_collision(model, t1, t2):
    """Reference U(t2, t1) of a collision model: the product of the slot
    unitaries, each a fractional pair-unitary power (principal branch, from
    an eigendecomposition) kron-embedded on (system, ancilla k)."""
    ds, da, n = model.dim_s, model.dim_a, model.n_slots
    lam, vecs = np.linalg.eig(model.pair_unitary)
    dims = [ds] + [da] * n
    d = ds * da ** n
    u = np.eye(d, dtype=complex)
    for k in range(n):
        a, b = model.slot_times[k], model.slot_times[k + 1]
        lo, hi = max(t1, a), min(t2, b)
        if hi - lo > 1e-12:
            frac = (hi - lo) / (b - a)
            pair = (vecs * np.exp(1j * frac * np.angle(lam))) @ np.linalg.inv(vecs)
            big = np.kron(pair, np.eye(d // (ds * da)))
            # big acts on (system, ancilla k, the other ancillas in order)
            order = [0, k + 1] + [i + 1 for i in range(n) if i != k]
            perm = np.argsort(order)
            t = big.reshape([dims[i] for i in order] * 2)
            big = t.transpose(list(perm) + [p + n + 1 for p in perm]).reshape(d, d)
            u = big @ u
    return u


def _check_against_dense(model, t1, t2, ref, rng):
    assert np.max(np.abs(dense_propagator(model, t1, t2) - ref)) < 1e-13
    v = random_pure(ref.shape[0], rng)
    assert np.max(np.abs(model.apply_propagator(t1, t2, v) - ref @ v)) < 1e-13


class TestPropagationContract:
    """apply_propagator, and the dense matrix built from it column by
    column, against dense references kept here."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 3), n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           q1=st.tuples(st.integers(0, 4), st.sampled_from([0.0, 0.3, 0.5, 0.77])),
           q2=st.tuples(st.integers(0, 4), st.sampled_from([0.0, 0.3, 0.5, 0.77])))
    def test_collision_matches_kron_embedded_product(self, d, n, seed, q1, q2):
        rng = np.random.default_rng(seed)
        slot_times = np.concatenate([[0.25], 0.25 + np.cumsum(rng.uniform(0.2, 2.0, n))])
        model = collision(n, random_unitary(d * d, rng), slot_times=slot_times)

        def at(q):    # on the boundary of slot k when the fraction is 0
            k = min(q[0], n)
            if k == n:
                return float(slot_times[n])
            return float(slot_times[k] + q[1] * (slot_times[k + 1] - slot_times[k]))
        t1, t2 = sorted((at(q1), at(q2)))
        _check_against_dense(model, t1, t2, _dense_collision(model, t1, t2), rng)

    @settings(max_examples=40, deadline=None)
    @given(levels=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
           t1=st.floats(0.0, 2.0), dt=st.floats(0.0, 2.0))
    def test_static_dephasing_matches_sector_sum(self, levels, seed, t1, dt):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(levels))
        hams = [random_hermitian(2, rng) / 2 for _ in range(levels)]
        model = static_dephasing(probs, hams)
        ref = sum(np.kron(scipy.linalg.expm(-1j * h * dt), np.diag(ket(j, levels).real))
                  for j, h in enumerate(hams))
        _check_against_dense(model, t1, t1 + dt, ref, rng)

    @settings(max_examples=30, deadline=None)
    @given(t1=st.floats(0.0, 3.0), dt=st.floats(0.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_nqib_and_tam_match_closed_forms(self, t1, dt, seed):
        rng = np.random.default_rng(seed)
        uz = np.diag([np.exp(-1j * dt / 2), np.exp(1j * dt / 2)])
        ref = np.kron(ID2, np.diag([1.0, 0.0])) + np.kron(uz, np.diag([0.0, 1.0]))
        _check_against_dense(nqib_qubit(), t1, t1 + dt, ref, rng)
        phi = math.acos(math.exp(-(t1 + dt))) - math.acos(math.exp(-t1))
        exchange = np.kron(SM, SP) + np.kron(SP, SM)
        _check_against_dense(tam(), t1, t1 + dt, scipy.linalg.expm(-1j * phi * exchange), rng)


@functools.lru_cache(maxsize=None)
def _preset(name):
    """One instance per joint preset, shared by the hypothesis examples
    (afl's construction checks its quadrature)."""
    return make_model(name)


def _random_joint_model(rng, kind: str):
    """A preset, a random collision (d = 2 or 3, 1-4 slots, a Haar pair
    unitary, a pure or mixed ancilla, random slot lengths) or a random
    static register (2-4 levels of random Hamiltonians on d = 2 or 3), with
    a start time t1 <= t2 inside its schedule, slot interiors included."""
    if kind in ALL_JOINT:
        model = _preset(kind)
        t1, t2 = np.sort(rng.uniform(model.t0, model.t0 + 3.0, 2))
        return model, float(t1), float(t2)
    d = int(rng.integers(2, 4))
    if kind == "register":
        levels = int(rng.integers(2, 5))
        model = static_dephasing(rng.dirichlet(np.ones(levels)),
                                 [random_hermitian(d, rng) for _ in range(levels)])
        t1, t2 = np.sort(rng.uniform(0.0, 2.0, 2))
        return model, float(t1), float(t2)
    n = int(rng.integers(1, 5))
    slot_times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n))])
    ancilla = random_density(d, rng) if rng.random() < 0.5 else None
    model = collision(n, random_unitary(d * d, rng), ancilla_state=ancilla,
                      slot_times=slot_times)
    # slot boundaries and slot interiors
    t1, t2 = np.sort(rng.choice(np.concatenate([slot_times, rng.uniform(0, slot_times[-1], 2)]), 2))
    return model, float(t1), float(t2)


_MODEL_KINDS = st.sampled_from(ALL_JOINT + ["collision-random", "register"])


def _stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestStackContract:
    """`apply_propagator`, `evolve` and `SuperOperator.apply` take a stack
    on leading axes, and each member's result is bit for bit that of the
    member alone."""

    @settings(max_examples=60, deadline=None)
    @given(kind=_MODEL_KINDS, seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4))
    def test_stacked_propagation_is_per_vector_propagation(self, kind, seed, n):
        rng = np.random.default_rng(seed)
        model, t1, t2 = _random_joint_model(rng, kind)
        ds = model.dim_s
        stack = _stack(rng, (n, ds * model.dim_e))
        out = model.apply_propagator(t1, t2, stack)
        assert out.shape == stack.shape
        for x, y in zip(stack, out):
            assert y.tobytes() == model.apply_propagator(t1, t2, x).tobytes()
        # a schedule with system ops, one of them Fortran-ordered
        t_mid = float(rng.uniform(t1, t2))
        ops = [_stack(rng, (ds, ds)), None, np.asfortranarray(_stack(rng, (ds, ds)))]
        out = evolve(model, stack, (t1, t_mid, t2), ops)
        assert out.shape == stack.shape
        for x, y in zip(stack, out):
            assert y.tobytes() == evolve(model, x, (t1, t_mid, t2), ops).tobytes()
        # two leading axes
        assert (model.apply_propagator(t1, t2, stack.reshape(1, n, -1)).tobytes()
                == model.apply_propagator(t1, t2, stack).tobytes())

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 4), n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_stacked_map_apply_is_per_matrix_apply(self, d, n, seed):
        rng = np.random.default_rng(seed)
        emap = SuperOperator(_stack(rng, (d * d, d * d)), d)
        xs = _stack(rng, (n, d, d))
        out = emap(xs)
        assert out.shape == xs.shape
        for x, y in zip(xs, out):
            assert y.tobytes() == emap(x).tobytes()
        # a lone matrix keeps its column-major image: the bytes and strides
        # of unvec(S vec(x))
        want = unvec(emap.mat @ vec(xs[0]), d)
        lone = emap(xs[0])
        assert lone.tobytes() == want.tobytes() and lone.strides == want.strides

    def test_empty_stack(self):
        for name in ALL_JOINT:
            model = _preset(name)
            empty = np.zeros((0, model.dim_s * model.dim_e), dtype=complex)
            assert model.apply_propagator(model.t0, model.t0 + 1.0, empty).shape == empty.shape


class TestReferenceMap:
    """`assemble_map` (every start column in one stack, at every joint
    dimension) against the per-column loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(kind=_MODEL_KINDS, seed=st.integers(0, 2 ** 32 - 1),
           bath=st.sampled_from(["initial", "signed", "effect"]), pulse=st.booleans())
    def test_bitwise_equal_to_per_column_loop(self, kind, seed, bath, pulse):
        rng = np.random.default_rng(seed)
        model, t1, t2 = _random_joint_model(rng, kind)
        de = model.dim_e
        branches, effect = model.env_branches(), None
        if bath == "signed" and de <= 128:
            # a signed bath operator's eigenbranches, as nib's coordinates give
            w, v = np.linalg.eigh(random_hermitian(de, rng))
            branches = [(float(w[k]), v[:, k]) for k in range(de)]
        elif bath == "effect" and de <= 128:
            g = _stack(rng, (de, de))
            effect = g @ g.conj().T / de
        times, ops = (t1, t2), (None, None)
        if pulse:
            t_mid = float(rng.uniform(t1, t2))
            times, ops = (t1, t_mid, t2), (None, random_unitary(model.dim_s, rng), None)
        got = assemble_map(model, branches, times, ops, effect)
        assert got.mat.tobytes() == reference_map(model, branches, times, ops, effect).mat.tobytes()

    def test_nib_coordinates_and_no_branches(self):
        """nib's signed coordinate operators on a qubit bath, and the zero
        base operator of a register bath, which has no branches."""
        for model, sigma in [(tam(), SX / 2), (nqib_qubit(), SZ / 2),
                             (static_dephasing(), np.zeros((2, 2)))]:
            w, v = np.linalg.eigh(sigma)
            branches = [(float(w[k]), v[:, k]) for k in range(2) if abs(w[k]) > 1e-12]
            want = reference_map(model, branches, (0.5, 1.0), (None, None))
            assert replacement_map(model, 0.5, 1.0, sigma).mat.tobytes() == want.mat.tobytes()
        empty = assemble_map(static_dephasing(), [], (0.5, 1.0), (None, None))
        assert not empty.mat.any()

    def test_breaking_channel_effects(self):
        """The maps read through each effect of the collision preset's
        measure-and-prepare channel, as nqib's intervened map reads them."""
        model = _preset("collision")
        for effect in model.breaking_channel(2.0)[0]:
            args = (model, model.env_branches(), (0.0, 2.0), (None, None), effect)
            assert assemble_map(*args).mat.tobytes() == reference_map(*args).mat.tobytes()

    def test_afl_columns_in_one_call(self, monkeypatch):
        """afl's 8002-entry joint vectors, above the dense joint limit, go in
        one stack too: one propagation per step of the schedule."""
        model, calls = afl(), []
        propagate = model.apply_propagator
        monkeypatch.setattr(model, "apply_propagator",
                            lambda *args: calls.append(1) or propagate(*args))
        for times, ops in [((0.2, 0.7), (None, None)), ((0.0, 0.5, 1.0), (None, SX, None))]:
            before = len(calls)
            got = assemble_map(model, model.env_branches(), times, ops)
            assert len(calls) - before == len(times) - 1
            want = reference_map(model, model.env_branches(), times, ops)
            assert got.mat.tobytes() == want.mat.tobytes()


def _cosine_band_error(model) -> float:
    """afl's band check evaluated directly: one row of cosines over the grid
    per phase slope of the band."""
    from oqmarkov.models import _AFL_BAND
    b = np.linspace(_AFL_BAND[0], _AFL_BAND[1], 600)
    vals = np.array([np.sum(model.weights * np.cos(bb * model._u)) for bb in b])
    return float(np.max(np.abs(vals - np.exp(-b))))


class TestAfl:
    def test_quadrature_error_reported_and_small(self):
        m = afl()
        assert m.quadrature_error < 1e-6

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            afl(n_points=101)

    @pytest.mark.parametrize("gamma, g", [(math.nan, 2.0), (1.0, math.nan), (1.0, math.inf),
                                          (math.inf, 2.0), (0.0, 2.0), (1.0, -2.0)])
    def test_non_finite_or_non_positive_parameters_rejected(self, gamma, g):
        with pytest.raises(ValueError, match="finite and positive"):
            afl(gamma=gamma, g=g)

    @pytest.mark.parametrize("kwargs", [dict(quad_tol=math.nan), dict(quad_tol=math.inf),
                                        dict(quad_tol=-1e-5),
                                        dict(n_points=1001, quad_tol=math.nan)])
    def test_non_finite_or_negative_quad_tol_rejected(self, kwargs):
        # a NaN tolerance would make the band check `error > quad_tol` false,
        # so a grid the default rejects (n_points=1001) would build
        with pytest.raises(ValueError, match="quad_tol"):
            afl(**kwargs)

    @pytest.mark.parametrize("n_points", [1001, 2001, 4001])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
    def test_band_error_matches_cosine_oracle(self, n_points, gamma):
        m = afl(gamma=gamma, n_points=n_points, quad_tol=1.0)
        assert m.quadrature_error == m._band_error()
        assert abs(m.quadrature_error - _cosine_band_error(m)) < 1e-13

    def test_phases_built_once_per_duration(self):
        """Each duration's phases are built once and kept read-only, keyed by
        the bits of the duration, at most `_AFL_PHASE_DURATIONS` at a time;
        the propagated vectors are those of phases built at every call."""
        from oqmarkov.models import _AFL_PHASE_DURATIONS
        m = afl()
        rng = np.random.default_rng(5)
        v = rng.normal(size=2 * m.dim_e) + 1j * rng.normal(size=2 * m.dim_e)
        for t1, t2 in [(0.0, 0.5), (0.5, 1.0), (0.25, 0.75), (1.0, 1.0)]:
            phase = np.exp(-1j * (m.g / 2) * m.x * (t2 - t1))
            want = np.concatenate([v[:m.dim_e] * phase, v[m.dim_e:] * phase.conj()])
            assert m.apply_propagator(t1, t2, v).tobytes() == want.tobytes()
        assert m._phase(0.5) is m._phase(0.5) and not m._phase(0.5).flags.writeable
        assert m._phase(-0.0) is not m._phase(0.0)
        for k in range(3 * _AFL_PHASE_DURATIONS):
            m._phase(0.01 * k)
        assert len(m._phase_memo) == _AFL_PHASE_DURATIONS

    def test_chi_identities(self):
        m = afl()
        assert np.isclose(chi_exact(m.gamma, 2.0), math.exp(-2.0))
        assert np.isclose(chi_grid(m.x, m.weights, 2.0), math.exp(-2.0), atol=1e-8)
        assert np.isclose(chi_grid(m.x, m.weights, 0.0), 1.0, atol=1e-13)

    def test_identity_at_t0(self):
        m = afl()
        e = tomograph(m, 0.0, 0.0)
        assert np.max(np.abs(e.mat - np.eye(4))) < 1e-12

    def test_coherence_decay_matches_rate(self):
        # gamma = g/2 = 1 gives coherence factor exp(-2t)
        m = afl()
        for t in (0.3, 0.5, 1.0):
            e = tomograph(m, 0.0, t)
            rho = e(np.outer(plus_state(), plus_state().conj()))
            assert np.isclose(rho[0, 1], 0.5 * math.exp(-2 * t), atol=1e-6)

    def test_grid_map_matches_analytic_chi(self):
        m = afl()
        for t in (0.25, 0.5, 1.0, 2.0):
            e_grid = tomograph(m, 0.0, t)
            e_ana = afl_map(m.gamma, m.g, 0.0, t)
            assert np.max(np.abs(e_grid.mat - e_ana.mat)) < 1e-6

    def test_grid_refinement_converges(self):
        # fixed cutoff, increasing point count: error decreases at order >= 1
        errs = [afl(n_points=n, quad_tol=1.0).quadrature_error
                for n in (1001, 2001, 4001)]
        assert errs[2] < errs[1] < errs[0]
        assert errs[0] / errs[2] > 3.0

    def test_two_time_regression_is_exact(self):
        m = afl()
        segs = [(1, -1, 0.4), (1, -1, 0.6)]
        assert np.isclose(chi_of_accumulated(m.gamma, m.g, segs),
                          chi_of_product(m.gamma, m.g, segs), atol=1e-14)

    def test_three_time_failure_case(self):
        m = afl()
        exact, regression = three_time_failure_case(m.gamma, m.g, 0.5, 0.5, 0.5)
        assert np.isclose(exact, 1.0, atol=1e-12)
        assert np.isclose(regression, math.exp(-2.0), atol=1e-12)
        assert np.isclose(abs(exact - regression), 0.8646647167633873, atol=1e-6)

    def test_identity_ops_correlation_is_one(self):
        m = afl()
        c_ops = [(ID2, ID2)] * 3
        rho0 = np.outer(plus_state(), plus_state().conj())
        ex = afl_correlation_exact(m.gamma, m.g, c_ops, (0.0, 0.5, 1.0), rho0)
        rg = afl_correlation_regression(m.gamma, m.g, c_ops, (0.0, 0.5, 1.0), rho0)
        assert np.isclose(ex, 1.0, atol=1e-12)
        assert np.isclose(rg, 1.0, atol=1e-12)

    def test_general_gamma_g_scaling(self):
        m = afl(gamma=0.5, g=1.0)
        e = tomograph(m, 0.0, 1.0)
        # coherence factor exp(-gamma * g * t) for the +- coherence
        assert np.isclose(np.abs(e.mat[1, 1]), math.exp(-0.5 * 1.0 * 1.0), atol=1e-5)


class TestTam:
    def test_theta_closed_form_vs_quadrature(self):
        for t in (0.2, 0.7, 1.0, 2.0, 3.0):
            assert abs(tam().theta(t) - theta_quadrature(t)) < 1e-8

    def test_population_and_coherence_decay(self):
        model = tam()
        exc = np.outer(ket(1, 2), ket(1, 2).conj())
        sup = np.outer(plus_state(), plus_state().conj())
        for t in (0.3, 1.0, 2.0):
            e = tomograph(model, 0.0, t)
            assert abs(e(exc)[1, 1] - math.exp(-2 * t)) < 1e-6
            assert abs(e(sup)[0, 1] - 0.5 * math.exp(-t)) < 1e-6

    def test_tomograph_matches_closed_form_map(self):
        model = tam()
        for t in (0.5, 1.0, 2.0):
            e = tomograph(model, 0.0, t)
            assert np.max(np.abs(e.mat - tam_map(0.0, t).mat)) < 1e-8

    def test_map_is_exponential_of_decay_generator(self):
        import scipy.linalg
        from oqmarkov.core import SM
        from oqmarkov.superop import dissipator
        model = tam()
        gen = 2.0 * dissipator(SM).mat
        for t in (0.5, 1.0, 2.0):
            e = tomograph(model, 0.0, t)
            assert np.max(np.abs(e.mat - scipy.linalg.expm(gen * t))) < 1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            tam().apply_propagator(-0.5, 1.0, np.eye(4, dtype=complex)[0])

    def test_reference_rate_values(self):
        # the printed closed form evaluates to about -0.0374 at (t1, t) = (1, 2)
        assert np.isclose(tam_post_replacement_rate(1.0, 2.0), -0.0374, atol=5e-4)
        # and tends to zero as t -> t1 from above
        assert abs(tam_post_replacement_rate(1.0, 1.0 + 1e-6)) < 1e-4
        # it is negative on all of (1, 3]
        for t in np.linspace(1.1, 3.0, 10):
            assert tam_post_replacement_rate(1.0, t) < 0

    def test_closed_form_matches_reset_model_tomography(self):
        from oqmarkov.superop import canonical_decompose, generator_from_maps
        t1 = 1.0
        reset = tam_post_replacement_model(t1)
        map_at = lambda t: tomograph(reset, t1, t)
        for t in (1.5, 2.0, 2.5):
            lhat, _ = generator_from_maps(map_at, t, dt=1e-5)
            gen = canonical_decompose(lhat, tol=1e-4)
            assert np.isclose(gen.rates[0] / 2.0,
                              tam_post_replacement_rate_closed_form(t1, t),
                              atol=1e-6)


class TestNqib:
    def test_reduced_state_recurrence(self):
        model = nqib_qubit()
        plus = np.outer(plus_state(), plus_state().conj())
        rho_pi = model.reduced_state(plus, math.pi)
        assert np.max(np.abs(rho_pi - np.eye(2) / 2)) < 1e-12
        rho_2pi = model.reduced_state(plus, 2 * math.pi)
        assert np.max(np.abs(rho_2pi - plus)) < 1e-12

    def test_no_entanglement_ever(self):
        from oqmarkov.core import DensityOperator, negativity
        model = nqib_qubit()
        plus = np.outer(plus_state(), plus_state().conj())
        for t in np.linspace(0.1, 2 * math.pi, 20):
            joint = np.zeros((4, 4), dtype=complex)
            for w, v in model.joint_branches(plus, t):
                joint += w * np.outer(v, v.conj())
            assert negativity(DensityOperator(joint, (2, 2)), 1) < 1e-12

    def test_analytic_map_matches_tomography(self):
        model = nqib_qubit()
        for t in (0.7, math.pi, 5.0):
            assert np.max(np.abs(tomograph(model, 0.0, t).mat
                                 - nqib_map(0.0, t).mat)) < 1e-12


class TestCollision:
    def test_swap_angle_zero_is_identity(self):
        model = collision(n_slots=3, pair_unitary=partial_swap(0.0))
        e = tomograph(model, 0.0, 3.0)
        assert np.max(np.abs(e.mat - np.eye(4))) < 1e-12

    def test_full_swap_resets_system(self):
        model = collision(n_slots=2, pair_unitary=partial_swap(math.pi / 2))
        e = tomograph(model, 0.0, 1.0)
        rng = np.random.default_rng(5)
        v = random_pure(2, rng)
        out = e(np.outer(v, v.conj()))
        assert np.max(np.abs(out - np.diag([1.0, 0.0]))) < 1e-12

    def test_slot_maps_compose(self):
        model = collision()
        e2 = tomograph(model, 0.0, 2.0)
        e1 = tomograph(model, 0.0, 1.0)
        q = tomograph(collision(), 0.0, 1.0)   # one fresh collision
        assert np.max(np.abs((q.mat @ e1.mat) - e2.mat)) < 1e-12

    def test_time_beyond_schedule_rejected(self):
        with pytest.raises(ValueError):
            collision(n_slots=2).apply_propagator(0.0, 3.0, np.eye(8, dtype=complex)[0])

    @pytest.mark.parametrize("n_slots", [0, -1])
    def test_fewer_than_one_slot_rejected(self, n_slots):
        with pytest.raises(ValueError, match="n_slots"):
            collision(n_slots=n_slots)

    @pytest.mark.parametrize("slot_times", [[0.0, math.nan, 2.0], [math.nan, 1.0, 2.0],
                                            [0.0, 1.0, math.inf], [-math.inf, 0.0, 1.0]])
    def test_non_finite_slot_times_rejected(self, slot_times):
        with pytest.raises(ValueError, match="finite"):
            collision(n_slots=2, slot_times=slot_times)

    def test_zero_ancilla_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            collision(ancilla_state=np.zeros(2))

    @pytest.mark.parametrize("ancilla", [np.zeros((2, 2)), -np.eye(2)])
    def test_ancilla_matrix_without_positive_eigenvalue_rejected(self, ancilla):
        # it would leave the model no bath branches, so every map it assembles is zero
        with pytest.raises(ValueError, match="positive eigenvalue"):
            collision(ancilla_state=ancilla)

    @pytest.mark.parametrize("ancilla", [np.array([1.0, math.nan]),
                                         np.array([[math.inf, 0.0], [0.0, 0.0]])])
    def test_non_finite_ancilla_rejected(self, ancilla):
        with pytest.raises(ValueError, match="non-finite"):
            collision(ancilla_state=ancilla)

    def test_schur_factors_built_on_first_fractional_query(self):
        """Slot-boundary queries never factorise the pair unitary; a query
        inside a slot applies the Schur-form power of it. The preset's
        partial swap has degenerate eigenvalues, where np.linalg.eig need
        not return orthonormal eigenvectors; a Schur factor is unitary."""
        model = collision(n_slots=1)
        assert "_pair_eig" not in vars(model)
        assert np.array_equal(dense_propagator(model, 0.0, 1.0), model.pair_unitary)
        assert "_pair_eig" not in vars(model)
        t, z = scipy.linalg.schur(model.pair_unitary, output="complex")
        power = (z * np.exp(1j * np.angle(np.diag(t)) * 0.25)) @ z.conj().T
        assert np.array_equal(dense_propagator(model, 0.5, 0.75), power)
        assert "_pair_eig" in vars(model)
        assert model._pair_power(0.25).tobytes() == power.tobytes()

    def test_reversed_times_rejected(self):
        model = collision(n_slots=2)
        with pytest.raises(ValueError):
            model.apply_propagator(1.5, 0.5, np.eye(8, dtype=complex)[0])

    def test_model_freed_after_tomograph(self):
        model = collision(n_slots=3)
        tomograph(model, 0.0, 2.5)
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_six_qutrit_slots_regress_like_three(self):
        """Queries up to t = 1.5 only touch the first two slots, so later
        ancillas change nothing; six qutrit slots (joint dimension 2187) run
        without a dense joint matrix."""
        from oqmarkov.criteria import check_gqrf, check_qrf
        reports = []
        for n in (3, 6):
            model = collision(n_slots=n, pair_unitary=partial_swap(math.pi / 4, d=3))
            reports.append((check_qrf(model), check_gqrf(model)))
        for small, large in zip(*reports):
            assert large.verdict == small.verdict == "fail"
            assert set(large.witnesses) == set(small.witnesses)
            for key, val in small.witnesses.items():
                assert large.witnesses[key] == pytest.approx(val, abs=1e-12), key

    def test_intermediate_maps_cptp(self):
        model = collision()
        maps = [tomograph(model, 0.0, float(t)) for t in range(7)]
        from oqmarkov.superop import intermediate_map
        for ea, eb in zip(maps[:-1], maps[1:]):
            inter = intermediate_map(eb, ea)
            assert inter.divisible_as_linear_map
            assert is_cptp(inter.map, tol=1e-10).verdict

    def test_past_future_product_structure_at_boundaries(self):
        from oqmarkov.core import DensityOperator, mutual_information, negativity
        model = collision()
        plus = np.outer(plus_state(), plus_state().conj())
        for k in (1, 2, 3):
            joint = np.zeros((128, 128), dtype=complex)
            for w, v in model.joint_branches(plus, float(k)):
                joint += w * np.outer(v, v.conj())
            rho = DensityOperator(joint, (2,) * 7)
            # (system + collided slots) is uncorrelated with the future slots
            split = 1 + k
            assert negativity(rho, split) < 1e-10
            assert mutual_information(rho, split) < 1e-10
            # but the system is correlated with the past slots
            assert mutual_information(rho, 1) > 1e-3


class TestStaticDephasing:
    def test_single_level_is_unitary(self):
        model = static_dephasing([1.0], [0.8 * SZ])
        e = tomograph(model, 0.0, 1.3)
        assert is_cptp(e).verdict
        rho = e(np.outer(plus_state(), plus_state().conj()))
        from oqmarkov.core import purity
        assert np.isclose(purity(rho), 1.0, atol=1e-12)

    def test_spin_echo_restores_purity(self):
        model = static_dephasing(kappa=1.0)
        t = 1.0
        hahn = dd_apply(model, [SX, SX], [t / 2, t])
        assert np.max(np.abs(hahn.mat - np.eye(4))) < 1e-10

    def test_free_evolution_dephases(self):
        model = static_dephasing(kappa=1.0)
        e = tomograph(model, 0.0, 1.0)
        rho = e(np.outer(plus_state(), plus_state().conj()))
        assert np.isclose(rho[0, 1], 0.5 * math.cos(2.0), atol=1e-12)

    def test_bath_correlation_time_independent(self):
        # the register never evolves: g_plus = Tr[rho_E xi^2] = 1, g_minus = 0
        model = static_dephasing(kappa=1.0)
        xi = np.diag([1.0, -1.0])
        gp, gm = bath_correlation(model, xi, xi)
        assert gp == 1.0 and gm == 0.0


class TestEternal:
    def test_map_family_is_cptp_from_origin(self):
        model = eternal_me()
        for t in np.arange(0.0, 3.01, 0.5):
            assert is_cptp(model.map(t), tol=1e-10).verdict

    def test_identity_at_zero(self):
        assert np.max(np.abs(eternal_me().map(0.0).mat - np.eye(4))) < 1e-12

    def test_analytic_vs_integrated(self):
        from oqmarkov.superop import me_integrate
        model = eternal_me()
        res = me_integrate(model.lindblad_spec(), np.eye(2) / 2,
                           [0.0, 0.5, 1.0, 2.0], step=1e-3)
        for t, emap in zip(res.times, res.map_family):
            assert np.max(np.abs(emap.mat - model.map(t).mat)) < 1e-7


class TestBathCorrelation:
    def test_identity_operator(self):
        model = nqib_qubit()
        b = np.array([[0.3, 0.1], [0.1, 0.7]])
        gp, gm = bath_correlation(model, np.eye(2), b)
        assert np.isclose(gp, np.trace(model.rho_e0_matrix() @ b))
        assert abs(gm) < 1e-14

    def test_collision_cross_slot_vanishes(self):
        model = collision(n_slots=2)
        # zero-mean operator on each slot for ground-state ancillas
        a = np.kron(SX, ID2)
        b = np.kron(ID2, SX)
        gp, gm = bath_correlation(model, a, b)
        assert abs(gp) < 1e-14 and abs(gm) < 1e-14


class TestDdApply:
    def test_empty_sequence_is_free_map(self):
        model = static_dephasing(kappa=0.7)
        free = dd_apply(model, [], [], t_end=1.2)
        assert np.max(np.abs(free.mat - tomograph(model, 0.0, 1.2).mat)) < 1e-12

    def test_afl_echo_decouples_exactly(self):
        model = afl()
        hahn = dd_apply(model, [SX, SX], [0.5, 1.0])
        assert np.max(np.abs(hahn.mat - np.eye(4))) < 1e-10

    def test_nonunitary_pulse_rejected(self):
        with pytest.raises(ValueError):
            dd_apply(static_dephasing(), [np.diag([1.0, 0.5])], [1.0])

    def test_pulse_times_must_not_run_backwards(self):
        for times in ([1.0, 0.5], [-0.5, 1.0]):
            with pytest.raises(ValueError, match="t0 <= times"):
                dd_apply(tam(), [SX, SX], times)

    def test_end_time_before_last_pulse_rejected(self):
        with pytest.raises(ValueError, match="t_end"):
            dd_apply(tam(), [SX, SX], [0.5, 1.0], t_end=0.8)
