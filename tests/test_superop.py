import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqmarkov.core import (DensityOperator, SM, SX, SY, SZ, random_density,
                           random_unitary)
from oqmarkov.models import eternal_me
from oqmarkov.superop import (LindbladSpec, SuperOperator, canonical_decompose,
                              choi_of, compose, dissipator,
                              generator_from_maps, hamiltonian_superop,
                              identity_superop, intermediate_map, is_cptp,
                              me_integrate, pinv, superop_of, unitary_superop,
                              unvec, vec)


def random_superop(d, rng):
    return SuperOperator(rng.normal(size=(d * d, d * d))
                         + 1j * rng.normal(size=(d * d, d * d)), d)


class TestVecConventions:
    def test_column_stacking(self):
        x = np.array([[1, 2], [3, 4]])
        assert np.allclose(vec(x), [1, 3, 2, 4])
        assert np.allclose(unvec(vec(x)), x)

    def test_sandwich_identity(self):
        rng = np.random.default_rng(0)
        a, b, x = (rng.normal(size=(3, 3)) for _ in range(3))
        from oqmarkov.superop import sandwich
        assert np.allclose(unvec(sandwich(a, b) @ vec(x)), a @ x @ b)


class TestDissipator:
    def test_zero_operator(self):
        assert np.allclose(dissipator(np.zeros((2, 2))).mat, 0)

    def test_sz_dephasing_action(self):
        rng = np.random.default_rng(1)
        rho = random_density(2, rng)
        out = dissipator(SZ)(rho)
        assert np.isclose(out[0, 0], 0) and np.isclose(out[1, 1], 0)
        assert np.isclose(out[0, 1], -2 * rho[0, 1])

    def test_lowering_on_excited(self):
        exc = np.diag([0.0, 1.0]).astype(complex)
        out = dissipator(SM)(exc)
        assert np.isclose(out[1, 1], -1.0)
        assert np.isclose(out[0, 0], 1.0)

    def test_trace_annihilating(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = random_density(3, rng)
            assert abs(np.trace(dissipator(c)(rho))) < 1e-12


class TestChoi:
    def test_identity_map_choi(self):
        j = choi_of(identity_superop(2)).mat
        omega = np.zeros(4, dtype=complex)
        omega[0] = omega[3] = 1.0
        assert np.allclose(j, np.outer(omega, omega.conj()))
        eigs = np.sort(np.linalg.eigvalsh(j))
        assert np.allclose(eigs, [0, 0, 0, 2], atol=1e-12)

    def test_depolarizing_choi(self):
        d = 2
        m = np.outer(vec(np.eye(d) / d), vec(np.eye(d)).conj())
        j = choi_of(SuperOperator(m, d)).mat
        assert np.allclose(j, np.eye(4) / 2)

    def test_unitary_choi_rank_one(self):
        rng = np.random.default_rng(3)
        u = random_unitary(3, rng)
        j = choi_of(unitary_superop(u)).mat
        eigs = np.sort(np.linalg.eigvalsh(j))[::-1]
        assert np.isclose(eigs[0], 3.0, atol=1e-10)
        assert np.max(np.abs(eigs[1:])) < 1e-10

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 8):
            s = random_superop(d, rng)
            back = superop_of(choi_of(s))
            assert np.max(np.abs(back.mat - s.mat)) < 1e-12


class TestIsCptp:
    def test_identity_passes(self):
        diag = is_cptp(identity_superop(3))
        assert diag.verdict and diag.min_choi_eig > -1e-12
        assert diag.tp_residual < 1e-12

    def test_transpose_map_fails(self):
        d = 2
        m = np.zeros((4, 4))
        # transpose in column stacking: vec(X^T), a permutation
        for i in range(d):
            for j in range(d):
                m[j + d * i, i + d * j] = 1.0
        diag = is_cptp(SuperOperator(m, d))
        assert not diag.verdict
        assert np.isclose(diag.min_choi_eig, -1.0, atol=1e-12)

    def test_cptp_closure_on_states(self):
        rng = np.random.default_rng(5)
        spec = LindbladSpec(2, SX, [(SM, 1.0), (SZ, 0.3)])
        res = me_integrate(spec, random_density(2, rng), [0.0, 0.7], step=1e-3)
        emap = res.map_family[-1]
        assert is_cptp(emap, tol=1e-7).verdict
        for _ in range(5):
            rho = random_density(2, rng)
            DensityOperator(emap(rho), herm_tol=1e-9, trace_tol=1e-7, psd_tol=1e-8)


class TestComposeAndPinv:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(6)
        s = random_superop(2, rng)
        assert np.allclose(compose(s, identity_superop(2)).mat, s.mat)

    def test_pinv_of_unitary_map_is_adjoint(self):
        rng = np.random.default_rng(7)
        u = random_unitary(2, rng)
        s = unitary_superop(u)
        p = pinv(s)
        assert np.max(np.abs(p.mat - s.mat.conj().T)) < 1e-10

    def test_penrose_identities(self):
        rng = np.random.default_rng(8)
        s = random_superop(2, rng)
        p = pinv(s)
        a, ap = s.mat, p.mat
        assert np.max(np.abs(a @ ap @ a - a)) < 1e-10
        assert np.max(np.abs(ap @ a @ ap - ap)) < 1e-10

    def test_pinv_of_projector_map(self):
        proj = np.diag([1.0, 1.0, 0.0, 0.0])
        p = pinv(SuperOperator(proj, 2))
        assert np.allclose(p.mat, proj)


class TestIntermediateMap:
    def test_equal_maps_give_identity(self):
        rng = np.random.default_rng(9)
        s = unitary_superop(random_unitary(2, rng))
        inter = intermediate_map(s, s)
        assert np.max(np.abs(inter.map.mat - np.eye(4))) < 1e-10
        assert inter.divisible_as_linear_map

    def test_semigroup_exponent(self):
        import scipy.linalg
        l = dissipator(SM).mat + hamiltonian_superop(0.4 * SX)
        e1 = SuperOperator(scipy.linalg.expm(1.0 * l), 2)
        e2 = SuperOperator(scipy.linalg.expm(2.5 * l), 2)
        inter = intermediate_map(e2, e1)
        assert np.max(np.abs(inter.map.mat - scipy.linalg.expm(1.5 * l))) < 1e-9

    def test_eternal_intermediate_witness(self):
        from oqmarkov.models import eternal_me
        model = eternal_me()
        e1, e2 = model.map(1.0), model.map(2.0)
        inter = intermediate_map(e2, e1)
        diag = is_cptp(inter.map)
        lx, _, lz = model.intermediate_multipliers(1.0, 2.0)
        witness = 1.0 + lz - 2.0 * lx
        assert np.isclose(witness, -0.65851, atol=1e-4)
        # smallest Choi eigenvalue is the witness / 2 in trace-d normalization
        assert np.isclose(diag.min_choi_eig, witness / 2, atol=1e-9)
        assert not diag.verdict


class TestMeIntegrate:
    def test_zero_generator(self):
        rng = np.random.default_rng(10)
        rho = random_density(2, rng)
        res = me_integrate(SuperOperator(np.zeros((4, 4)), 2), rho,
                           [0.0, 0.5, 1.0], step=1e-2)
        assert np.max(np.abs(res.states[-1] - rho)) < 1e-12

    def test_decay_analytic_solution(self):
        spec = LindbladSpec(2, None, [(SM, 2.0)])
        rho0 = np.array([[0.3, 0.4], [0.4, 0.7]], dtype=complex)
        res = me_integrate(spec, rho0, [0.0, 0.5, 1.0], step=1e-3)
        for t, rho in zip(res.times, res.states):
            assert np.isclose(rho[1, 1], 0.7 * np.exp(-2 * t), atol=1e-8)
            assert np.isclose(rho[0, 1], 0.4 * np.exp(-t), atol=1e-8)
        assert res.max_trace_drift < 1e-10

    def test_eternal_bloch_solution(self):
        from oqmarkov.models import eternal_me
        spec = eternal_me().lindblad_spec()
        x0, z0 = 0.8, 0.6
        rho0 = (np.eye(2) + x0 * SX + z0 * SZ) / 2
        res = me_integrate(spec, rho0, [0.0, 1.0, 2.0], step=1e-3)
        for t, rho in zip(res.times, res.states):
            x = np.real(np.trace(rho @ SX))
            z = np.real(np.trace(rho @ SZ))
            assert np.isclose(x, x0 * (1 + np.exp(-2 * t)) / 2, atol=1e-7)
            assert np.isclose(z, z0 * np.exp(-2 * t), atol=1e-7)

    def test_strict_lindblad_intervals_are_cptp(self):
        spec = LindbladSpec(2, 0.5 * SX, [(SM, 1.5), (SZ, 0.2)])
        grid = np.arange(0.0, 1.01, 0.25)
        res = me_integrate(spec, np.diag([0.2, 0.8]).astype(complex), grid, step=1e-3)
        for ea, eb in zip(res.map_family[:-1], res.map_family[1:]):
            inter = intermediate_map(eb, ea)
            assert is_cptp(inter.map, tol=1e-7).verdict

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            me_integrate(SuperOperator(np.zeros((4, 4)), 2), np.eye(2) / 2,
                         [0.0, 1.0], step=0.0)


class TestGeneratorFromMaps:
    def test_semigroup_recovery(self):
        import scipy.linalg
        l = 1.3 * dissipator(SM).mat + hamiltonian_superop(0.7 * SZ)
        map_at = lambda t: SuperOperator(scipy.linalg.expm(l * t), 2)
        lhat, diag = generator_from_maps(map_at, 0.8, dt=1e-4)
        assert np.max(np.abs(lhat.mat - l)) < 1e-6
        assert not diag["inconclusive"]

    def test_tam_map_recovers_constant_rate(self):
        from oqmarkov.models import tam
        from oqmarkov.criteria import tomograph
        model = tam()
        map_at = lambda t: tomograph(model, 0.0, t)
        for t in (0.5, 1.0, 2.0):
            lhat, _ = generator_from_maps(map_at, t, dt=1e-5)
            gen = canonical_decompose(lhat, tol=1e-5)
            assert np.isclose(gen.rates[0], 2.0, atol=1e-4)
            assert np.max(np.abs(gen.rates[1:])) < 1e-4

    def test_afl_map_recovers_dephasing_generator(self):
        # the chi-kernel map family obeys a dephasing generator whose
        # canonical rate is gamma*g (coefficient gamma*g/2 on D[sigma_z])
        from oqmarkov.models import afl
        model = afl()      # gamma = 1, g = 2
        map_at = lambda t: model.analytic_map(0.0, t)
        lhat, _ = generator_from_maps(map_at, 0.8, dt=1e-5)
        gen = canonical_decompose(lhat, tol=1e-5)
        assert np.isclose(gen.rates[0], 2.0, atol=1e-6)
        assert np.max(np.abs(gen.rates[1:])) < 1e-6
        c = gen.operators[0]
        phase = c[0, 0] * np.sqrt(2.0)
        assert np.max(np.abs(c - phase * SZ / np.sqrt(2.0))) < 1e-8


class TestCanonicalDecompose:
    def test_single_decay_channel(self):
        gen = canonical_decompose(SuperOperator(2 * dissipator(SM).mat, 2))
        assert np.isclose(gen.rates[0], 2.0, atol=1e-10)
        assert np.max(np.abs(gen.rates[1:])) < 1e-10
        c = gen.operators[0]
        phase = c[0, 1]
        assert np.max(np.abs(c - phase * SM)) < 1e-9
        assert np.max(np.abs(gen.hamiltonian)) < 1e-10

    def test_eternal_rates(self):
        from oqmarkov.models import eternal_me
        model = eternal_me()
        for t in (0.3, 1.0, 2.5):
            gen = canonical_decompose(model.generator(t))
            expected = np.sort([1.0, 1.0, -np.tanh(t)])[::-1]
            assert np.allclose(gen.rates, expected, atol=1e-10)

    def test_pure_hamiltonian_has_zero_rates(self):
        gen = canonical_decompose(SuperOperator(hamiltonian_superop(0.9 * SY), 2))
        assert np.max(np.abs(gen.rates)) < 1e-10
        assert np.max(np.abs(gen.hamiltonian - 0.9 * SY)) < 1e-10

    def test_rejects_trace_growing(self):
        with pytest.raises(ValueError):
            canonical_decompose(SuperOperator(np.eye(4), 2))

    def test_gauge_stability(self):
        rng = np.random.default_rng(11)
        spec = LindbladSpec(2, 0.3 * SX, [(SM, 1.2), (SZ / np.sqrt(2), 0.4)])
        grid = [0.0, 0.6]
        res = me_integrate(spec, np.eye(2) / 2, grid, step=1e-3)
        u = random_unitary(2, rng)
        v = unitary_superop(u)
        # pre-compose the family with a fixed unitary conjugation of the state
        map_at = lambda t: compose(
            me_integrate(spec, np.eye(2) / 2, [0.0, t], step=1e-3).map_family[-1], v)
        lhat, _ = generator_from_maps(map_at, 0.6, dt=2e-3)
        rates1 = canonical_decompose(lhat, tol=1e-4).rates
        base = lambda t: me_integrate(spec, np.eye(2) / 2, [0.0, t], step=1e-3).map_family[-1]
        lbase, _ = generator_from_maps(base, 0.6, dt=2e-3)
        rates0 = canonical_decompose(lbase, tol=1e-4).rates
        assert np.allclose(rates0, rates1, atol=1e-8)


def _random_spec(seed: int, dim: int, timed_h: bool, timed_rates: bool):
    """Random Lindblad spec: H None, constant or oscillating; 0-3 channels
    with constant rates or rates that cross zero."""
    rng = np.random.default_rng(seed)

    def herm():
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return (a + a.conj().T) / 2

    h0, h1 = herm(), herm()
    if timed_h:
        hamiltonian = lambda t: h0 + math.sin(3.0 * t) * h1
    else:
        hamiltonian = None if rng.random() < 0.3 else h0
    channels = []
    for _ in range(int(rng.integers(0, 4))):
        c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a, b = rng.uniform(-1.0, 2.0, size=2)
        rate = (lambda t, a=a, b=b: a + b * math.cos(t)) if timed_rates else float(a)
        channels.append((c, rate))
    return LindbladSpec(dim, hamiltonian, channels)


def _reference_generator(spec, t):
    """The generator as built before dissipators were cached."""
    l = hamiltonian_superop(spec.hamiltonian(t))
    for k, (c, _) in enumerate(spec.channels):
        l = l + spec.rate(k, t) * dissipator(c).mat
    return l


def _reference_rk4(spec, rho0, t_grid, step):
    """RK4 with five generator evaluations per step, as before L was
    evaluated once per distinct time."""
    lfn = spec.generator
    d = rho0.shape[0]
    block = np.concatenate([vec(rho0)[:, None], np.eye(d * d, dtype=complex)], axis=1)
    states, maps = [unvec(block[:, 0], d)], [block[:, 1:].copy()]
    for a, b in zip(t_grid[:-1], t_grid[1:]):
        t = a
        for _ in range(int(round((b - a) / step))):
            h = step
            k1 = lfn(t) @ block
            k2 = lfn(t + h / 2) @ (block + h / 2 * k1)
            k3 = lfn(t + h / 2) @ (block + h / 2 * k2)
            k4 = lfn(t + h) @ (block + h * k3)
            block = block + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += step
        states.append(unvec(block[:, 0], d))
        maps.append(block[:, 1:].copy())
    return states, maps


spec_params = dict(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 3),
                   timed_h=st.booleans(), timed_rates=st.booleans())


class TestLindbladSpecCaches:
    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(-2.0, 5.0), **spec_params)
    def test_generator_equals_uncached_sum(self, seed, dim, timed_h, timed_rates, t):
        spec = _random_spec(seed, dim, timed_h, timed_rates)
        assert np.array_equal(spec.generator(t), _reference_generator(spec, t))
        for (c, _), cdc in zip(spec.channels, spec.jump_products):
            assert np.array_equal(cdc, c.conj().T @ c)

    @settings(max_examples=25, deadline=None)
    @given(**spec_params)
    def test_me_integrate_equals_five_evaluation_rk4(self, seed, dim, timed_h,
                                                     timed_rates):
        spec = _random_spec(seed, dim, timed_h, timed_rates)
        rho0 = random_density(dim, np.random.default_rng(seed))
        # 0.3 is not the float sum of three 0.1 steps, so the second
        # interval starts from a freshly evaluated L.
        grid = [0.0, 0.3, 0.5]
        res = me_integrate(spec, rho0, grid, step=0.1)
        states, maps = _reference_rk4(spec, rho0, grid, 0.1)
        for got, want in zip(res.states, states):
            assert np.array_equal(got, want)
        for got, want in zip(res.map_family, maps):
            assert np.array_equal(got.mat, want)

    @pytest.mark.parametrize("spec", [LindbladSpec(2, None, [(SM, 2.0)]),
                                      eternal_me().lindblad_spec()],
                             ids=["decay", "eternal"])
    def test_presets_equal_five_evaluation_rk4(self, spec):
        rho0 = np.array([[0.3, 0.4], [0.4, 0.7]], dtype=complex)
        grid = [0.0, 0.1, 0.25]
        res = me_integrate(spec, rho0, grid, step=1e-3)
        states, maps = _reference_rk4(spec, rho0, grid, 1e-3)
        for got, want in zip(res.states, states):
            assert np.array_equal(got, want)
        for got, want in zip(res.map_family, maps):
            assert np.array_equal(got.mat, want)

    def test_constant_generator_is_built_once_and_read_only(self):
        spec = LindbladSpec(2, 0.5 * SX, [(SM, 1.5), (SZ, 0.2)])
        l = spec.generator(0.0)
        assert spec.generator(3.0) is l
        with pytest.raises(ValueError):
            l[0, 0] = 1.0
        timed = eternal_me().lindblad_spec()
        assert timed.generator(0.5) is not timed.generator(0.5)

    def test_non_hermitian_constant_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            LindbladSpec(2, SM, [(SM, 1.0)])
