import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oqmarkov.core import (SM, SX, SZ, plus_state, random_hermitian, random_pure,
                           random_unitary)
from oqmarkov.criteria import tomograph
from oqmarkov.models import collision, eternal_me, partial_swap, static_dephasing
from oqmarkov.superop import LindbladSpec
from oqmarkov import unravel
from oqmarkov.classical import mcsm, ou_spec, poisson_spec
from oqmarkov.unravel import (_CONJUGATE, Ensemble, _chunked, _fill_draws, _prepare_grid,
                              _Streams, collision_unravel, ensemble_mean,
                              ensemble_second_moment, ensembles_distinct, mcwf_diffusive,
                              mcwf_jump, static_unravel, ensemble_to_rows)

from dense_reference import (reference_collision_unravel, reference_ensemble_mean,
                             reference_second_moment, reference_static_unravel)

DECAY = LindbladSpec(2, None, [(SM, 2.0)])
EXCITED = np.array([0.0, 1.0], dtype=complex)


def _random_spec(d, seed):
    """A constant spec on d levels, a random Hermitian H plus two random
    channels, and a random start."""
    rng = np.random.default_rng(seed)

    def mat():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    h = mat()
    spec = LindbladSpec(d, (h + h.conj().T) / 2, [(mat() / d, 0.8), (mat() / d, 1.3)])
    return spec, rng.standard_normal(d) + 1j * rng.standard_normal(d)


# (spec, start) pairs on which the samplers equal their references bit for bit
REFERENCE_CASES = {
    "constant": (LindbladSpec(2, 0.3 * SX, [(SM, 2.0), (SX, 0.7), (SZ, 1.1)]), EXCITED),
    "time-dependent": (LindbladSpec(2, lambda t: 0.5 * t * SZ,
                                    [(SM, lambda t: 1.0 + t), (SX, 0.4)]), EXCITED),
    "qutrit": _random_spec(3, 5),
}
REFERENCE_RUN = dict(grid=[0.0, 0.1, 0.3], m=300, seed=11, dt=2e-3)


def _sampled(sampler, spec, psi0):
    """The states of a REFERENCE_RUN of a sampler, split into four chunks."""
    run = REFERENCE_RUN
    return sampler(spec, psi0, run["grid"], M=run["m"], seed=run["seed"], dt=run["dt"],
                   jobs=4).states


def excited_population(ens, t):
    return float(np.real(ensemble_mean(ens, t).mat[1, 1]))


class TestMcwfJump:
    def test_decay_within_three_sigma(self):
        grid = [0.0, 0.25, 0.5, 1.0]
        m = 5000
        ens = mcwf_jump(DECAY, EXCITED, grid, M=m, seed=42, dt=1e-3)
        for t in grid[1:]:
            p = excited_population(ens, t)
            target = math.exp(-2 * t)
            se = math.sqrt(max(target * (1 - target), 1e-12) / m)
            assert abs(p - target) < 3 * se, (t, p, target)

    def test_zero_rates_deterministic(self):
        spec = LindbladSpec(2, 0.7 * SX, [(SM, 0.0)])
        ens = mcwf_jump(spec, EXCITED, [0.0, 0.5], M=20, seed=1, dt=1e-3)
        states = np.stack([tr.states[-1] for tr in ens.trajectories])
        assert np.max(np.abs(states - states[0])) < 1e-12

    def test_negative_rate_hard_error(self):
        spec = eternal_me().lindblad_spec()
        with pytest.raises(ValueError, match="negative rate gamma_2"):
            mcwf_jump(spec, EXCITED, [0.0, 0.5], M=10, seed=3, dt=1e-3)

    def test_step_probability_guard(self):
        hot = LindbladSpec(2, None, [(SM, 500.0)])
        with pytest.raises(ValueError, match="reduce dt"):
            mcwf_jump(hot, EXCITED, [0.0, 0.1], M=5, seed=3, dt=1e-3)

    @pytest.mark.parametrize("runner", [mcwf_jump, mcwf_diffusive])
    @pytest.mark.parametrize("m", [0, -3])
    def test_non_positive_sample_count_rejected(self, runner, m):
        with pytest.raises(ValueError, match="M must be a positive"):
            runner(DECAY, EXCITED, [0.0, 0.1], M=m, seed=3, dt=1e-3)

    def test_bitwise_reproducible_across_jobs(self):
        grid = [0.0, 0.3]
        a = mcwf_jump(DECAY, EXCITED, grid, M=64, seed=9, dt=1e-3, jobs=1)
        b = mcwf_jump(DECAY, EXCITED, grid, M=64, seed=9, dt=1e-3, jobs=3)
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta.states, tb.states)

    def test_m_scaling_of_mean_estimator_variance(self):
        # The across-repetition variance ratio at 10 repetitions carries
        # ~50% statistical spread, so the seeds are frozen; the pooled
        # per-trajectory variance gives the same law with tight error bars.
        t_grid = [0.0, 0.5]
        reps = 10
        small, large = 400, 1600

        def collect(m, seed0):
            means, pops = [], []
            for r in range(reps):
                ens = mcwf_jump(DECAY, EXCITED, t_grid, M=m, seed=seed0 + r, dt=2e-3)
                vals = np.array([abs(tr.states[-1][1]) ** 2
                                 for tr in ens.trajectories])
                means.append(vals.mean())
                pops.append(vals)
            return np.var(means, ddof=1), np.concatenate(pops).var(ddof=1)

        v_small, traj_small = collect(small, 1700)
        v_large, traj_large = collect(large, 2200)
        ratio = v_small / v_large
        assert abs(ratio / (large / small) - 1.0) < 0.2, ratio
        pooled_ratio = (traj_small / small) / (traj_large / large)
        assert abs(pooled_ratio / (large / small) - 1.0) < 0.1, pooled_ratio

    @pytest.mark.parametrize("case", [*REFERENCE_CASES, "four-level"])
    def test_matches_per_step_reference(self, case):
        # real state-axis sums keep numpy's order for d < 8, so four levels
        # stay bitwise here too
        spec, psi0 = REFERENCE_CASES[case] if case in REFERENCE_CASES else _random_spec(4, 6)
        assert _sampled(mcwf_jump, spec, psi0).tobytes() == \
            _reference_jump(spec, psi0, **REFERENCE_RUN).tobytes()


def _reference_jump(spec, psi0, grid, m, seed, dt):
    """The jump sampler as one chunk, rebuilding h_eff every step, choosing
    channels over every row and reducing over the state axis with numpy."""
    _, step_times, slot = _prepare_grid(grid, dt)
    c_ops = [c for c, _ in spec.channels]
    uni = _fill_draws(_Streams(seed), range(m), (len(step_times) - 1,), "random")
    psi = np.tile(psi0 / np.linalg.norm(psi0), (m, 1))
    out = np.empty((m, len(grid), len(psi0)), dtype=complex)
    out[:, 0] = psi
    for s, t in enumerate(step_times[:-1]):
        rates = spec.rates(t)
        h_eff = spec.hamiltonian(t).astype(complex)
        for cdc, g in zip(spec.jump_products, rates):
            h_eff = h_eff - 0.5j * g * cdc
        jump_amps = np.stack([psi @ c.T for c in c_ops])
        probs = np.stack([g * dt * np.sum(np.abs(a) ** 2, axis=1)
                          for a, g in zip(jump_amps, rates)])
        cum = np.cumsum(probs, axis=0)
        new = psi - 1j * dt * (psi @ h_eff.T)
        new /= np.linalg.norm(new, axis=1, keepdims=True)
        jumped = uni[:, s] < probs.sum(axis=0)
        channel = np.argmax(uni[:, s][None, :] < cum, axis=0)
        for k in range(len(c_ops)):
            sel = jumped & (channel == k)
            amp = jump_amps[k][sel]
            new[sel] = amp / np.linalg.norm(amp, axis=1, keepdims=True)
        psi = new
        if slot[s + 1] >= 0:
            out[:, slot[s + 1]] = psi
    return out


def _reference_diffusive(spec, psi0, grid, m, seed, dt):
    """The diffusive sampler as one chunk, reading H and the rates every step
    and reducing over the state axis with numpy."""
    _, step_times, slot = _prepare_grid(grid, dt)
    c_ops = [c for c, _ in spec.channels]
    dw = _fill_draws(_Streams(seed), range(m), (len(step_times) - 1, len(c_ops)),
                     "standard_normal")
    psi = np.tile(psi0 / np.linalg.norm(psi0), (m, 1))
    out = np.empty((m, len(grid), len(psi0)), dtype=complex)
    out[:, 0] = psi
    for s, t in enumerate(step_times[:-1]):
        drift = -1j * (psi @ spec.hamiltonian(t).T)
        noise = np.zeros_like(psi)
        for k, (c, cdc, g) in enumerate(zip(c_ops, spec.jump_products, spec.rates(t))):
            if g == 0.0:
                continue
            cpsi = psi @ c.T
            ev = 2.0 * np.sum(psi.conj() * cpsi, axis=1).real
            drift += -0.5 * g * (psi @ cdc.T - ev[:, None] * cpsi
                                 + 0.25 * (ev ** 2)[:, None] * psi)
            noise += np.sqrt(g) * (cpsi - 0.5 * ev[:, None] * psi) \
                * (dw[:, s, k] * np.sqrt(dt))[:, None]
        psi = psi + drift * dt + noise
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        if slot[s + 1] >= 0:
            out[:, slot[s + 1]] = psi
    return out


class TestMcwfDiffusive:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_per_step_reference(self, case):
        spec, psi0 = REFERENCE_CASES[case]
        assert _sampled(mcwf_diffusive, spec, psi0).tobytes() == \
            _reference_diffusive(spec, psi0, **REFERENCE_RUN).tobytes()

    def test_four_levels_move_only_the_last_bits(self):
        # numpy sums a complex row of four or more entries pairwise, so the
        # column-wise real part of <C + C^dag> may differ in the last bits
        spec, psi0 = _random_spec(4, 6)
        ref = _reference_diffusive(spec, psi0, **REFERENCE_RUN)
        assert np.max(np.abs(_sampled(mcwf_diffusive, spec, psi0) - ref)) <= 1e-12

    def test_decay_within_three_sigma(self):
        grid = [0.0, 0.25, 0.5, 1.0]
        m = 5000
        ens = mcwf_diffusive(DECAY, EXCITED, grid, M=m, seed=7, dt=1e-3)
        for t in grid[1:]:
            pops = np.array([abs(tr.states[list(grid).index(t)][1]) ** 2
                             for tr in ens.trajectories])
            target = math.exp(-2 * t)
            se = float(pops.std(ddof=1) / math.sqrt(m))
            assert abs(pops.mean() - target) < 3 * max(se, 1e-4)

    def test_zero_rates_unitary(self):
        spec = LindbladSpec(2, 0.7 * SX, [(SM, 0.0)])
        ens = mcwf_diffusive(spec, EXCITED, [0.0, 0.5], M=8, seed=1, dt=1e-3)
        states = np.stack([tr.states[-1] for tr in ens.trajectories])
        assert np.max(np.abs(states - states[0])) < 1e-12

    def test_jump_and_diffusive_agree_on_mean_but_not_second_moment(self):
        grid = [0.0, 0.5]
        m = 4000
        jump = mcwf_jump(DECAY, EXCITED, grid, M=m, seed=11, dt=1e-3)
        diff = mcwf_diffusive(DECAY, EXCITED, grid, M=m, seed=12, dt=1e-3)
        pj = excited_population(jump, 0.5)
        pd = excited_population(diff, 0.5)
        assert abs(pj - pd) < 0.03      # combined statistical error
        distinct, gap = ensembles_distinct(jump, diff, 0.5, threshold=0.05)
        assert distinct, gap

    def test_negative_rate_hard_error(self):
        spec = eternal_me().lindblad_spec()
        with pytest.raises(ValueError, match="negative rate"):
            mcwf_diffusive(spec, EXCITED, [0.0, 0.5], M=4, seed=3, dt=1e-3)


class TestCollisionUnravel:
    def test_exact_mean_matches_map_both_bases(self):
        model = collision()
        psi0 = plus_state()
        rho0 = np.outer(psi0, psi0.conj())
        for basis in ("computational", "conjugate"):
            ens = collision_unravel(model, basis, psi0=psi0)
            assert ens.meta["exact"]
            assert abs(ens.total_weight() - 1.0) < 1e-12
            for t in (1.0, 3.0, 6.0):
                mean = ensemble_mean(ens, t).mat
                target = tomograph(model, 0.0, t)(rho0)
                assert np.max(np.abs(mean - target)) < 1e-10

    def test_all_conditional_states_pure(self):
        ens = collision_unravel(collision(), "computational")
        for tr in ens.trajectories:
            norms = np.linalg.norm(tr.states, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_second_moments_differ_between_bases(self):
        model = collision()
        psi0 = plus_state()
        comp = collision_unravel(model, "computational", psi0=psi0)
        conj = collision_unravel(model, "conjugate", psi0=psi0)
        # still-distinct late in the schedule, and by >= 0.05 after two slots
        distinct, gap = ensembles_distinct(comp, conj, 6.0, threshold=1e-3)
        assert distinct
        early_distinct, early_gap = ensembles_distinct(comp, conj, 2.0, threshold=1e-3)
        assert early_distinct and early_gap >= 0.05

    def test_trivial_unitary_keeps_state(self):
        model = collision(n_slots=3, pair_unitary=np.eye(4))
        psi0 = plus_state()
        ens = collision_unravel(model, "computational", psi0=psi0)
        for tr in ens.trajectories:
            for state in tr.states:
                overlap = abs(np.vdot(state, psi0))
                assert np.isclose(overlap, 1.0, atol=1e-12)

    def test_sampled_mode_beyond_enumeration_limit(self):
        model = collision(n_slots=13, pair_unitary=partial_swap(0.3))
        with pytest.raises(ValueError, match="enumeration limit"):
            collision_unravel(model, "computational")
        ens = collision_unravel(model, "computational", M=50, seed=2)
        assert not ens.meta["exact"]
        assert len(ens.trajectories) == 50
        assert ens.states.shape == (50, 14, 2) and ens.records.shape == (50, 13)
        assert set(ens.records.ravel().tolist()) <= {0, 1}
        assert np.max(np.abs(np.linalg.norm(ens.states, axis=2) - 1.0)) < 1e-12

    @pytest.mark.parametrize("basis", ["computational", "conjugate"])
    def test_sampled_mean_within_five_standard_errors_of_map(self, basis):
        model = collision(n_slots=13, pair_unitary=partial_swap(0.3))
        ens = collision_unravel(model, basis, M=2000, seed=5)
        rho0 = np.outer(ens.states[0, 0], ens.states[0, 0].conj())
        for k, t in enumerate(ens.times):
            target = tomograph(model, model.t0, t)(rho0)
            psi = ens.states[:, k]
            proj = psi[:, :, None] * psi[:, None, :].conj()      # (M, 2, 2)
            for part in (np.real, np.imag):
                vals = part(proj)
                se = vals.std(axis=0) / np.sqrt(len(vals))
                assert np.all(np.abs(vals.mean(axis=0) - part(target)) <= 5 * se + 1e-12), (k, t)

    def test_sampled_records_pinned(self):
        # the records of a seed, as the per-trajectory sample loop drew them
        model = collision(n_slots=13, pair_unitary=partial_swap(0.3))
        want = {"computational": ["0000000001000", "0000000000000", "0000000000000",
                                  "0100000000000", "0000000001000", "0010000000000"],
                "conjugate": ["0010010111000", "1101111010001", "1001010101111",
                              "1100110110111", "0000100111001", "0010011011101"]}
        for basis, rows in want.items():
            ens = collision_unravel(model, basis, M=6, seed=2)
            assert [''.join(map(str, r)) for r in ens.records.tolist()] == rows
            assert ens.records.dtype == np.int64

    @pytest.mark.parametrize("m", [0, -2])
    def test_sampled_mode_rejects_non_positive_sample_count(self, m):
        with pytest.raises(ValueError, match="M must be a positive"):
            collision_unravel(collision(n_slots=14), M=m, seed=1)


class TestStaticUnravel:
    def test_register_basis_exact_and_pure(self):
        model = static_dephasing(kappa=1.0)
        ens = static_unravel(model, times=(0.5, 1.0))
        rho0 = np.outer(plus_state(), plus_state().conj())
        for t in (0.5, 1.0):
            mean = ensemble_mean(ens, t).mat
            target = tomograph(model, 0.0, t)(rho0)
            assert np.max(np.abs(mean - target)) < 1e-12
        for tr in ens.trajectories:
            assert np.max(np.abs(np.linalg.norm(tr.states, axis=1) - 1)) < 1e-12

    def test_single_register_level_is_unitary(self):
        model = static_dephasing([1.0], [0.6 * SZ])
        ens = static_unravel(model, times=(1.0,))
        assert len(ens.trajectories) == 1
        assert np.isclose(ens.trajectories[0].weight, 1.0)

    def test_nonregister_basis_disturbs_mean(self):
        model = static_dephasing(kappa=1.0)
        ens = static_unravel(model, times=(0.5, 1.0), basis="conjugate")
        assert ens.meta["mean_deviation_from_map"] > 1e-3

    def test_basis_given_as_an_array(self):
        """A unitary array is a basis (its columns the outcome states), not
        a name compared elementwise; the conjugate preset's own array gives
        the preset's bits."""
        model = static_dephasing()
        haar = random_unitary(2, np.random.default_rng(8))
        ens = static_unravel(model, [0.5, 1.0], basis=haar)
        assert ens.meta["basis"] == "custom" and ens.records.shape == (len(ens.weights), 3)
        assert abs(ens.total_weight() - 1) < 1e-12
        by_name = static_unravel(model, [0.5, 1.0], basis="conjugate")
        by_array = static_unravel(model, [0.5, 1.0], basis=_CONJUGATE.copy())
        for key in ("states", "weights", "records"):
            assert getattr(by_array, key).tobytes() == getattr(by_name, key).tobytes()
        assert by_array.meta == by_name.meta

    def test_non_unitary_basis_rejected(self):
        with pytest.raises(ValueError, match="unitary on the register"):
            static_unravel(static_dephasing(), [0.5], basis=np.ones((2, 2)))
        with pytest.raises(ValueError, match="unitary on the register"):
            static_unravel(static_dephasing(), [0.5], basis=np.eye(3))


class TestStartState:
    """Every sampler normalises a given psi0 and rejects a zero, non-finite
    or wrong-length one with ValueError before propagating anything; the
    default start keeps its bytes."""

    SAMPLERS = {
        "static": lambda psi0: static_unravel(static_dephasing(), [0.5], psi0=psi0),
        "static-conjugate": lambda psi0: static_unravel(static_dephasing(), [0.5], psi0=psi0,
                                                        basis="conjugate"),
        "collision": lambda psi0: collision_unravel(collision(n_slots=2), psi0=psi0),
        "collision-sampled": lambda psi0: collision_unravel(collision(n_slots=13), psi0=psi0,
                                                            M=8, seed=3),
        "mcwf-jump": lambda psi0: mcwf_jump(DECAY, psi0, [0.0, 0.1], M=8, seed=3),
        "mcwf-diffusive": lambda psi0: mcwf_diffusive(DECAY, psi0, [0.0, 0.1], M=8, seed=3),
    }

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_given_state_is_normalised(self, name):
        ens = self.SAMPLERS[name]([1, 1])
        assert np.array_equal(ens.states, self.SAMPLERS[name]([2, 2]).states)
        assert np.max(np.abs(np.linalg.norm(ens.states, axis=-1) - 1)) < 1e-12
        if name.startswith("static"):
            assert abs(np.trace(ensemble_mean(ens, 0.5).mat) - 1) < 1e-12

    @pytest.mark.parametrize("psi0", [[0, 0], [1, np.nan], [np.inf, 0], [1, 0, 0], [[1, 0]]],
                             ids=["zero", "nan", "inf", "length", "matrix"])
    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_bad_state_rejected(self, name, psi0, monkeypatch):
        def no_propagation(*args, **kwargs):
            raise AssertionError("propagated before the start state was checked")
        for cls in (type(static_dephasing()), type(collision())):
            monkeypatch.setattr(cls, "apply_propagator", no_propagation)
        monkeypatch.setattr(unravel, "_sample", no_propagation)
        with pytest.raises(ValueError, match="psi0"):
            self.SAMPLERS[name](psi0)

    def test_default_start_keeps_its_bytes(self):
        """The uniform superposition as before: unnormalised again in
        `static_unravel` (the `pu` witness reads it), normalised in
        `collision_unravel`."""
        plus = np.ones(2, dtype=complex) / np.sqrt(2)
        ens = static_unravel(static_dephasing(), [0.5])
        assert ens.states[0, 0].tobytes() == plus.tobytes()
        ens = collision_unravel(collision(n_slots=2))
        assert ens.states[0, 0].tobytes() == (plus / np.linalg.norm(plus)).tobytes()


class TestEnsembleStatistics:
    def test_single_deterministic_trajectory_mean(self):
        spec = LindbladSpec(2, None, [])
        ens = mcwf_jump(spec, plus_state(), [0.0, 1.0], M=1, seed=0, dt=1e-2)
        mean = ensemble_mean(ens, 1.0).mat
        assert np.max(np.abs(mean - np.outer(plus_state(), plus_state().conj()))) < 1e-12

    def test_empty_ensemble_rejected(self):
        empty = Ensemble(np.array([0.0]), np.empty((0, 1, 2), dtype=complex),
                         np.empty(0), "x")
        with pytest.raises(ValueError):
            ensemble_mean(empty, 0.0)

    def test_csv_rows_shape(self):
        ens = static_unravel(static_dephasing(kappa=1.0), times=(1.0,))
        header, columns = ensemble_to_rows(ens)
        assert header[:3] == ["time", "trajectory", "weight"]
        assert len(columns) == len(header)
        for col in columns:
            assert len(col) == len(ens.trajectories) * len(ens.times)

    def test_arrays_and_trajectory_view(self):
        ens = mcwf_jump(DECAY, EXCITED, [0.0, 0.1, 0.2], M=5, seed=4, dt=1e-2)
        assert ens.states.shape == (5, 3, 2) and ens.weights.shape == (5,)
        assert ens.records.tolist() == [[i] for i in range(5)]
        for i, tr in enumerate(ens.trajectories):
            assert np.shares_memory(tr.states, ens.states)
            assert np.array_equal(tr.states, ens.states[i])
            assert tr.times is ens.times
            assert tr.weight == 0.2 and tr.record == (i,)
        exact = collision_unravel(collision(n_slots=3), "computational")
        assert exact.records.shape == (len(exact.weights), 3)
        assert [tr.record for tr in exact.trajectories] == \
            [tuple(r) for r in exact.records.tolist()]


class TestPrepareGrid:
    def test_slot_of_every_step(self):
        grid, steps, slot = _prepare_grid([0.0, 0.02, 0.05], 0.01)
        assert len(steps) == 6
        assert slot.tolist() == [0, -1, 1, -1, -1, 2]

    @pytest.mark.parametrize("grid", [[0.0, 0.5, 0.5], [0.0, 0.5, 0.3], [0.2, 0.1]])
    def test_non_increasing_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            _prepare_grid(grid, 0.1)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.inf, -math.inf, math.nan])
    def test_non_finite_or_non_positive_step_rejected(self, dt):
        with pytest.raises(ValueError, match="finite positive step"):
            _prepare_grid([0.0, 0.1], dt)

    @pytest.mark.parametrize("grid", [[], [[0.0, 0.1]]])
    def test_empty_or_nested_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="non-empty list"):
            _prepare_grid(grid, 0.1)


class TestChunked:
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 5000), jobs=st.integers(-2, 40),
           row_bytes=st.integers(0, 1 << 26), budget=st.integers(1, 1 << 20))
    def test_chunks_cover_the_run_within_the_budget(self, m, jobs, row_bytes, budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(unravel, "DRAW_BUDGET", budget)
            chunks = _chunked(m, jobs, row_bytes)
        assert [i for c in chunks for i in c] == list(range(m))
        assert all(c.step == 1 and len(c) for c in chunks)
        assert len(chunks) >= min(m, jobs)
        assert all(len(c) * row_bytes <= budget or len(c) == 1 for c in chunks)
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1

    def test_draw_memory_does_not_grow_with_the_sample_count(self):
        row = 8 * 1000
        for m in (10, 10 ** 4, 10 ** 6):
            widest = max(map(len, _chunked(m, 1, row)))
            assert widest * row <= unravel.DRAW_BUDGET

    SAMPLERS = {
        "mcwf-jump": lambda jobs: mcwf_jump(DECAY, EXCITED, [0.0, 0.05, 0.2], M=37, seed=5,
                                            dt=1e-3, jobs=jobs).states,
        "mcwf-diffusive": lambda jobs: mcwf_diffusive(DECAY, EXCITED, [0.0, 0.05, 0.2], M=37,
                                                      seed=5, dt=1e-3, jobs=jobs).states,
        "mcsm-ou": lambda jobs: mcsm(ou_spec(), [1.0], [0.0, 0.1, 0.2], 37, seed=5,
                                     dt=1e-3, jobs=jobs).paths,
        "mcsm-poisson": lambda jobs: mcsm(poisson_spec(3.0), [0.0], [0.0, 0.1, 0.2], 37,
                                          seed=5, dt=1e-3, jobs=jobs).paths,
    }

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_many_chunks_match_one_chunk(self, name, monkeypatch):
        one = self.SAMPLERS[name](1)
        # 200 steps of 8-byte draws per sample: 3 samples fit 5000 bytes
        monkeypatch.setattr(unravel, "DRAW_BUDGET", 5000)
        assert len(_chunked(37, 1, 200 * 8)) == 13
        many = self.SAMPLERS[name](1)
        assert one.tobytes() == many.tobytes()


MASK = 0xFFFFFFFFFFFFFFFF


def _draws(gen):
    """A mix of draws; the odd count of 32-bit integers leaves half a
    64-bit word buffered in the bit generator."""
    return (gen.integers(0, 2 ** 31, size=3, dtype=np.uint32).tolist(),
            gen.random(3).tolist(), gen.normal(size=2).tolist())


def _fresh(seed, index):
    key = np.array([seed & MASK, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TestStreams:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2 ** 63), st.integers(2 ** 63, 2 ** 70),
                          st.integers(-2 ** 64, -1)),
           path=st.integers(0, 2 ** 31))
    def test_rekeyed_draws_equal_fresh_philox(self, seed, path):
        streams = _Streams(seed)
        # trajectory keys of mcwf and collision_unravel, then the normal and
        # jump keys of classical.mcsm
        for index in (path, path | (1 << 32), (path + (1 << 40)) | (1 << 32)):
            assert _draws(streams(index)) == _draws(_fresh(seed, index))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 70), a=st.integers(0, 2 ** 40),
           b=st.integers(0, 2 ** 40))
    def test_interleaved_trajectories_and_samplers(self, seed, a, b):
        one, other = _Streams(seed), _Streams(seed + 1)
        for index in (a, b, a, b):
            assert _draws(one(index)) == _draws(_fresh(seed, index))
            assert _draws(other(index)) == _draws(_fresh(seed + 1, index))


SEEDS = st.one_of(st.integers(0, 2 ** 63), st.integers(2 ** 63, 2 ** 70),
                  st.integers(-2 ** 64, -1))


class TestFillDraws:
    """Each filled row equals the draws of a fresh Philox keyed by its
    trajectory, for the keys of every sampler."""

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, first=st.integers(0, 2 ** 31), m=st.integers(1, 4),
           n_steps=st.integers(0, 7), width=st.integers(0, 3),
           offset=st.sampled_from(["mcwf", "mcsm-normal", "mcsm-jump"]))
    def test_rows_equal_fresh_philox(self, seed, first, m, n_steps, width, offset):
        indices = range(first, first + m)
        keys = {"mcwf": list(indices),
                "mcsm-normal": [i | (1 << 32) for i in indices],
                "mcsm-jump": [(i + (1 << 40)) | (1 << 32) for i in indices]}[offset]
        streams = _Streams(seed)
        normals = _fill_draws(streams, keys, (n_steps, width), "standard_normal")
        uniforms = _fill_draws(streams, keys, (n_steps,), "random")
        assert normals.shape == (m, n_steps, width) and uniforms.shape == (m, n_steps)
        for key, normal_row, uniform_row in zip(keys, normals, uniforms):
            # == treats -0.0 and 0.0 alike, the one way normal() and
            # standard_normal() can differ
            assert np.array_equal(normal_row, _fresh(seed, key).normal(size=(n_steps, width)))
            assert np.array_equal(uniform_row, _fresh(seed, key).random(n_steps))


# signed zeros, the smallest subnormal, the largest normal, infinities and nan
EDGE_REALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              math.inf, -math.inf, math.nan, 1.0, -0.1]
REALS = st.one_of(st.sampled_from(EDGE_REALS),
                  st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@st.composite
def state_rows(draw, dtype=float):
    """An (m, d) array with d = 1-3 (every CLI spec has d = 2); a complex
    entry draws both parts from REALS."""
    m, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    x = np.empty((m, d), dtype=dtype)
    for part in ("real", "imag") if dtype is complex else ("real",):
        getattr(x, part)[:] = np.reshape(draw(st.lists(REALS, min_size=m * d,
                                                       max_size=m * d)), (m, d))
    return x


def _bits(*patterns) -> np.ndarray:
    """Floats with the given IEEE 754 bit patterns."""
    return np.array(patterns, dtype=np.uint64).view(float)


# quiet NaNs: NAN_1 differs from NAN in payload, NEG_NAN in sign only
NAN, NAN_1, NEG_NAN = 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000


class TestStateAxisReductions:
    """The samplers' column-wise state reductions equal numpy's axis-1
    reductions bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(x=state_rows())
    @example(x=np.array([[-0.0], [0.0]]))
    @example(x=np.array([[-0.0, -0.0, -0.0], [math.inf, -math.inf, 1.0]]))
    @example(x=_bits(NAN, NAN_1).reshape(1, 2))
    @example(x=_bits(NAN, NEG_NAN, NAN_1).reshape(1, 3))
    def test_row_sum_is_numpys_axis_sum(self, x):
        with np.errstate(invalid="ignore", over="ignore"):
            assert unravel._row_sum(x).tobytes() == np.sum(x, axis=1).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(z=state_rows(complex))
    @example(z=np.array([[-0.0 + 1e308j, 1e308 - 0.0j]]))
    @example(z=np.array([[complex(math.inf, math.nan)], [5e-324j]]))
    @example(z=_bits(0, NAN, 0, NEG_NAN).view(complex).reshape(1, 2))
    @example(z=_bits(0, NAN, 0, NAN_1).view(complex).reshape(1, 2))
    def test_row_norm_is_numpys_norm(self, z):
        with np.errstate(invalid="ignore", over="ignore"):
            assert unravel._row_norm(z).tobytes() == \
                np.linalg.norm(z, axis=1, keepdims=True).tobytes()


def _register(rng, levels: int, ds: int):
    """A static register of `levels` levels, some of probability zero (never
    all), with random Hermitian H_j on d_s levels."""
    probs = rng.dirichlet(np.ones(levels))
    probs[rng.random(levels) < 0.3] = 0.0
    if not probs.any():
        probs[rng.integers(levels)] = 1.0
    return static_dephasing(probs / probs.sum(), [random_hermitian(ds, rng) for _ in range(levels)])


class TestExactEnumerator:
    """Both exact unravellings run on one enumerator, `_branch_tree`, with one
    stacked propagation per time, and the ensemble statistics are stacked
    sums. Against the loops they replace (`dense_reference`): the register
    path, the collision exact mode and the statistics are bitwise equal; a
    custom register basis keeps every branch and record, and its states,
    weights and mean deviation agree to 1e-12 (its outcome amplitudes are
    one matrix product now, not one matrix-vector product per outcome)."""

    @settings(max_examples=60, deadline=None)
    @given(levels=st.integers(1, 4), ds=st.integers(2, 3), n_times=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_static_unravel_matches_the_branch_loop(self, levels, ds, n_times, seed):
        rng = np.random.default_rng(seed)
        model = _register(rng, levels, ds)
        times = np.sort(rng.uniform(0.0, 2.0, n_times))
        psi0 = random_pure(ds, rng)
        reg = static_unravel(model, times, psi0=psi0)
        want = reference_static_unravel(model, times, reg.states[0, 0])
        for got, ref in zip((reg.weights, reg.states, reg.records), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        basis = random_unitary(levels, rng)
        ens = static_unravel(model, times, psi0=psi0, basis=basis)
        weights, states, records = reference_static_unravel(model, times, ens.states[0, 0],
                                                            basis)
        assert np.array_equal(ens.records, records) and ens.records.dtype == np.int64
        assert np.max(np.abs(ens.weights - weights)) <= 1e-12
        assert np.max(np.abs(ens.states - states)) <= 1e-12
        rho0 = np.outer(states[0, 0], states[0, 0].conj())
        dev = max(np.max(np.abs(reference_ensemble_mean(weights, states[:, k + 1])
                                - tomograph(model, model.t0, t)(rho0)))
                  for k, t in enumerate(times))
        assert abs(ens.meta["mean_deviation_from_map"] - dev) <= 1e-12

    def test_static_unravel_propagates_one_stack_per_time(self, monkeypatch):
        """Three live levels and a 4-outcome basis: 3, 12 and 48 branches
        are propagated, one stack a time, into 192 leaves."""
        rng = np.random.default_rng(1)
        model = static_dephasing([0.2, 0.0, 0.5, 0.3], [random_hermitian(2, rng) for _ in range(4)])
        calls = []
        inner = type(model).apply_propagator

        def counted(self, t1, t2, joint):
            calls.append(joint.shape)
            return inner(self, t1, t2, joint)
        monkeypatch.setattr(type(model), "apply_propagator", counted)
        monkeypatch.setattr(unravel, "mean_deviation_from_map", lambda *args: 0.0)
        ens = static_unravel(model, [0.5, 1.0, 2.0], basis=random_unitary(4, rng))
        assert calls == [(3, 8), (12, 8), (48, 8)] and len(ens.weights) == 192

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 3), n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_collision_exact_mode_matches_the_loop(self, d, n, seed):
        rng = np.random.default_rng(seed)
        model = collision(n, random_unitary(d * d, rng), ancilla_state=random_pure(d, rng))
        bases = [random_unitary(d, rng) for _ in range(n)]
        ens = collision_unravel(model, lambda k: bases[k], psi0=random_pure(d, rng))
        want = reference_collision_unravel(model, bases, ens.states[0, 0])
        for got, ref in zip((ens.weights, ens.states, ens.records), want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 300), d=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_statistics_are_the_per_trajectory_sums(self, m, d, seed):
        """Random normalised ensembles, with zero weights, zero amplitudes
        and negative zeros: the mean and the second moment are bitwise the
        per-trajectory sums."""
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((m, 2, d)) + 1j * rng.standard_normal((m, 2, d))
        states[rng.random((m, 2, d)) < 0.2] = 0.0
        states[:, :, 0] += states[:, :, 0] == 0          # no zero state
        states /= np.linalg.norm(states, axis=2, keepdims=True)
        states[rng.random((m, 2, d)) < 0.1] *= -1.0
        weights = rng.random(m)
        weights[rng.random(m) < 0.1] = 0.0
        weights = weights / weights.sum() if weights.any() else np.full(m, 1.0 / m)
        ens = Ensemble(np.array([0.0, 1.0]), states, weights, "random")
        for k, t in enumerate(ens.times):
            assert ensemble_mean(ens, t).mat.tobytes() == \
                reference_ensemble_mean(weights, states[:, k]).tobytes()
            assert ensemble_second_moment(ens, t).mat.tobytes() == \
                reference_second_moment(weights, states[:, k]).tobytes()
