import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oqmarkov.core import (PAULIS, SX, hermitian_basis, ket, plus_state,
                           random_density, random_hermitian, random_pure,
                           random_unitary, trace_norm)
from oqmarkov import core, criteria
from oqmarkov.criteria import (CriterionReport, check_composability,
                               criterion_settings,
                               check_distinguishability, check_divisibility,
                               check_fa, check_fdd, check_gqrf, check_nib,
                               check_nqib, check_qrf, check_semigroup,
                               dd_effectiveness, hierarchy_report, map_family,
                               map_residual, multitime_correlation,
                               generalized_map, regression_prediction,
                               replacement_map, run_criteria, tomograph, worst_case)
from oqmarkov.models import (afl, assemble_map, collision, eternal_me, make_model,
                             nqib_qubit, partial_swap, static_dephasing, tam)
from oqmarkov.superop import SuperOperator, compose, is_cptp, vec

from closed_forms import afl_correlation_exact, afl_correlation_regression, tam_map
from dense_reference import (dense_propagator, reference_correlation, reference_fa,
                             reference_leaf_gram, reference_prediction)


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
            ana = afl_correlation_exact(model.gamma, model.g, c_ops, times, rho0)
            assert abs(num - ana) < 1e-6
            numr = regression_prediction(model, c_ops, times, rho0)
            anar = afl_correlation_regression(model.gamma, model.g, c_ops, times, rho0)
            assert abs(numr - anar) < 1e-6


def _assert_same_bits(got, want, where):
    """got and want bitwise equal. A mismatch states its size: a last-bit
    one points at a BLAS kernel other than the 4-row one `_leaf_gram`'s
    padding assumes, not at the pruning."""
    assert got.tobytes() == want.tobytes(), (
        f"{where}: largest difference {np.max(np.abs(got - want)):.3g}; a last-bit "
        "difference means the complex product does not form rows 4 at a time")


class TestRegressionTensor:
    """`qrf` and `gqrf` read one regression tensor per time tuple: the Gram
    matrix of the bath leaves of a matrix-unit propagation tree minus the
    Kronecker product of the reshuffled replaced-bath maps, contracted with
    the Hermitian basis on every leg. Every entry must be the per-case
    loop's (one `evolve` per start branch for the bra and the ket, the
    replaced-bath maps step by step)."""

    @staticmethod
    def _side(model, times, rho, zeroed, seqs):
        """The entries of the Hermitian-basis index sequences
        (a0, b0, ..., an, bn) in `_regression_slices`, read slice by slice,
        with one side of the difference (`_map_kron` or `_leaf_gram`) set to
        zero."""
        d, size = model.dim_s, model.dim_s ** (2 * len(times) - 2)
        places = []
        for seq in seqs:
            c = 0
            for k in seq[2:-2]:
                c = c * d * d + k
            places.append((c, seq[0] * d * d + seq[1], seq[-2] * d * d + seq[-1]))
        out = [None] * len(seqs)
        with mock.patch.object(criteria, zeroed,
                               lambda *args: np.zeros((size, size), dtype=complex)):
            with criteria._map_store(model):
                for lo, r in criteria._regression_slices(model, times, rho):
                    for i, (c, f, l) in enumerate(places):
                        if lo <= c < lo + len(r):
                            out[i] = r[c - lo, f, l]
        return out

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), register=st.booleans(), d=st.integers(2, 3),
           size=st.integers(1, 3), mixed=st.booleans(), n=st.integers(1, 3))
    def test_entries_match_the_per_case_loop(self, seed, register, d, size, mixed, n):
        """Random collisions (d = 2, 3; 1-3 slots, pure or mixed ancillas;
        times on and inside slots) and static registers (2-4 levels), at
        n = 1..3 times after t0, from a mixed or pure rho. A qutrit at three
        times has 9^8 entries: it has its own test."""
        assume(d == 2 or n < 3)
        self._check_entries(seed, register, d, size, mixed, n)

    def test_qutrit_entries_across_slices(self):
        """A qutrit at three times: 81 slices of 9^6 entries."""
        self._check_entries(3, False, 3, 3, True, 3)

    def _check_entries(self, seed, register, d, size, mixed, n):
        rng = np.random.default_rng(seed)
        if register:
            model = static_dephasing(rng.dirichlet(np.ones(size + 1)),
                                     [random_hermitian(d, rng) for _ in range(size + 1)])
            t_end = 2.0
        else:
            ancilla = random_density(d, rng=rng) if mixed else random_pure(d, rng)
            model = collision(size, random_unitary(d * d, rng), ancilla_state=ancilla)
            t_end = float(size)
        times = (model.t0,) + tuple(float(t) for t in np.sort(rng.uniform(0.0, t_end, n)))
        rho = random_density(d, rng=rng) if mixed else random_density(d, rng=rng, rank=1)
        seqs = [[int(k) for k in rng.integers(d * d, size=2 * n + 2)] for _ in range(8)]
        exact = self._side(model, times, rho, "_map_kron", seqs)
        predicted = self._side(model, times, rho, "_leaf_gram", seqs)
        basis = hermitian_basis(d)
        for seq, got_exact, got_predicted in zip(seqs, exact, predicted):
            c_ops = [(basis[seq[2 * j]], basis[seq[2 * j + 1]]) for j in range(n + 1)]
            want = reference_correlation(model, c_ops, times, rho)
            assert abs(got_exact - want) <= 1e-12, (seq, want)
            want = reference_prediction(model, c_ops, times, rho)
            assert abs(-got_predicted - want) <= 1e-12, (seq, want)

    @pytest.mark.parametrize("name", ["tam", "nqib", "collision", "static-dephasing", "afl"])
    def test_pruned_gram_is_the_all_leaves_gram_on_presets(self, name):
        """Zero leaves are neither propagated nor multiplied. Every joint
        preset's tree has some at each `qrf` and `gqrf` time tuple, and its
        Gram matrix is bitwise that of every leaf (`reference_leaf_gram`)."""
        model = make_model(name)
        s = criterion_settings(model, ["qrf", "gqrf"])
        for times in ([(model.t0,) + tuple(pair) for pair in s["qrf"]["time_pairs"]]
                      + [(model.t0,) + tuple(ts) for ts in s["gqrf"]["time_sets"]]):
            want = reference_leaf_gram(model, times)
            assert np.count_nonzero(want.any(axis=1)) < len(want), times
            _assert_same_bits(criteria._leaf_gram(model, times), want, times)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), register=st.booleans(), d=st.integers(2, 3),
           unitary=st.sampled_from(["haar", "partial-swap", "diagonal"]),
           ancilla=st.sampled_from(["ground", "pure", "mixed", "diagonal"]),
           size=st.integers(1, 3), n=st.integers(1, 3), on_slots=st.booleans())
    def test_pruned_gram_is_the_all_leaves_gram(self, seed, register, d, unitary, ancilla,
                                                size, n, on_slots):
        """Random collisions (1-3 slots; Haar, partial-swap or diagonal pair
        unitaries; ground, pure, mixed or diagonal mixed ancillas; times on
        or inside slots) and static registers (2-4 levels, random or
        diagonal Hamiltonians), n = 1..3 times after t0. A qubit's Gram
        matrix is bitwise the all-leaves one. A qutrit's agrees to 1e-12:
        its d^(2n) leaves are no multiple of 4, so the all-leaves product
        runs OpenBLAS's tail kernels on other rows than the pruned one."""
        assume(d == 2 or n < 3)
        rng = np.random.default_rng(seed)
        if register:
            hams = [np.diag(rng.normal(size=d)) if unitary == "diagonal"
                    else random_hermitian(d, rng) for _ in range(size + 1)]
            model = static_dephasing(rng.dirichlet(np.ones(size + 1)), hams)
            grid = rng.uniform(0.0, 2.0, n)
        else:
            pair = {"haar": lambda: random_unitary(d * d, rng),
                    "partial-swap": lambda: partial_swap(rng.uniform(0.0, math.pi), d),
                    "diagonal": lambda: np.diag(np.exp(2j * math.pi * rng.uniform(size=d * d)))}
            state = {"ground": lambda: ket(0, d), "pure": lambda: random_pure(d, rng),
                     "mixed": lambda: random_density(d, rng=rng),
                     "diagonal": lambda: np.diag(rng.dirichlet(np.ones(d)))}
            model = collision(size, pair[unitary](), ancilla_state=state[ancilla]())
            grid = rng.integers(1, size + 1, n) if on_slots else rng.uniform(0.0, size, n)
        times = (model.t0,) + tuple(float(t) for t in np.sort(grid))
        got, want = criteria._leaf_gram(model, times), reference_leaf_gram(model, times)
        if d == 2:
            _assert_same_bits(got, want, times)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_qutrit_gram_at_three_times(self):
        """729 leaves: the Gram products are split below 2**16 multiply-adds
        (`_blas_product`), and the matrix agrees with the all-leaves one."""
        model = collision(n_slots=3, pair_unitary=partial_swap(math.pi / 4, d=3))
        times = (0.0, 1.0, 2.0, 3.0)
        got, want = criteria._leaf_gram(model, times), reference_leaf_gram(model, times)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_qutrit_tensor_runs_on_the_calling_thread(self):
        """A qutrit at three times: every Gram and contraction product stays
        below OpenBLAS's one-thread size, so the process takes no more CPU
        time than wall time (a threaded product read 1.5 x). The first call
        outlasts the spin of worker threads an earlier test may have woken."""
        import resource
        import time
        model = collision(n_slots=3, pair_unitary=partial_swap(math.pi / 4, d=3))
        check_gqrf(model, time_sets=((1, 2, 3),))
        before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        check_gqrf(model, time_sets=((1, 2, 3),))
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        assert cpu <= 1.1 * wall + 0.01, (cpu, wall)

    def test_tam_worst_sequence(self):
        """The worst of all 4^8 sequences at tam's declared times (a sample
        of 40 sequences reads 0.3406)."""
        rep = check_gqrf(tam(), time_sets=((0.5, 1.0, 1.5),))
        assert abs(rep.witnesses["max_residual"] - 0.4435024854178521) <= 1e-12
        assert rep.grid == "every Hermitian-basis operator sequence: 65536 over 1 time sets"
        assert rep.verdict == "fail"

    def test_gqrf_is_the_maximum_over_every_sequence(self):
        """At one time after t0, brute force over all 4^4 sequences."""
        model, times = tam(), (0.0, 0.7)
        rho = np.outer(plus_state(), plus_state().conj())
        basis = hermitian_basis(2)
        worst = max(abs(reference_correlation(model, ops, times, rho)
                        - reference_prediction(model, ops, times, rho))
                    for ops in itertools.product(itertools.product(basis, repeat=2), repeat=2))
        rep = check_gqrf(model, time_sets=((0.7,),), rho_s0=rho)
        assert abs(rep.witnesses["max_residual"] - worst) <= 1e-12
        assert rep.grid == "every Hermitian-basis operator sequence: 256 over 1 time sets"

    @pytest.mark.parametrize("factory", [tam, static_dephasing, nqib_qubit])
    def test_qrf_is_its_slice(self, factory):
        """`qrf` reads the two orderings of every operator pair: the same
        worst case as the per-case loop over its 2 d^4 cases."""
        model = factory()
        pairs = [(model.t0 + 0.5, model.t0 + 1.0), (model.t0 + 1.0, model.t0 + 2.0)]
        rho, ident = np.eye(2) / 2 + 0.3 * SX, np.eye(2, dtype=complex)
        basis = hermitian_basis(2)
        want = max((abs(reference_correlation(model, ops, (model.t0,) + pair, rho)
                        - reference_prediction(model, ops, (model.t0,) + pair, rho)), pair)
                   for pair in pairs for a in basis for b in basis
                   for ops in ([(ident, ident), (ident, a), (ident, b)],
                               [(ident, ident), (a, ident), (ident, b)]))
        rep = check_qrf(model, time_pairs=pairs, rho_s0=rho)
        assert abs(rep.witnesses["max_residual"] - want[0]) <= 1e-12
        assert rep.witnesses["worst_time_pair"] == list(want[1])

    def test_single_case_calls_match_the_loop(self):
        model = tam()
        rho = np.outer(plus_state(), plus_state().conj())
        c_ops = [(SX, np.eye(2)), (PAULIS["Y"], PAULIS["Z"]), (np.eye(2), SX)]
        times = (0.0, 0.4, 1.1)
        assert (multitime_correlation(model, c_ops, times, rho)
                == reference_correlation(model, c_ops, times, rho))
        assert (regression_prediction(model, c_ops, times, rho)
                == reference_prediction(model, c_ops, times, rho))

    def test_operator_and_time_counts_must_agree(self):
        with pytest.raises(ValueError, match="operator pairs"):
            multitime_correlation(tam(), [(SX, SX)] * 2, (0.0, 0.5, 1.0), np.eye(2) / 2)
        with pytest.raises(ValueError, match="operator pairs"):
            regression_prediction(tam(), [(SX, SX)] * 2, (0.0, 0.5, 1.0), np.eye(2) / 2)

    def test_afl_preset_propagates_each_tree_level(self, monkeypatch):
        """afl dephases, so a leaf (q0, p1, ..., p_n) is zero unless
        p_k = q_(k-1): at afl's declared times the tree propagates the 2 + 4
        vectors of live rows per `qrf` time pair and 2 + 4 + 8 for `gqrf`'s
        time set, one per call on afl's 8002-entry joint vectors. With the
        replaced-bath maps the run builds, 28 and 20 `apply_propagator`
        calls."""
        model = afl()
        calls = []
        propagate = model.apply_propagator
        monkeypatch.setattr(model, "apply_propagator",
                            lambda *args: calls.append(1) or propagate(*args))
        counts = {}
        for name in ("check_qrf", "check_gqrf"):
            def counted(*args, _check=getattr(criteria, name), _name=name, **kwargs):
                before = len(calls)
                report = _check(*args, **kwargs)
                counts[_name] = len(calls) - before
                return report
            monkeypatch.setattr(criteria, name, counted)
        run_criteria(model, criterion_settings(model, names=["qrf", "gqrf"]), seed=23)
        assert counts["check_qrf"] <= 28
        assert counts["check_gqrf"] <= 20

    def test_afl_gqrf_holds_few_vectors(self):
        """The tree grows depth first, one vector per level at a time on
        afl's bath, and keeps only the 8 live leaves of 64 (0.5 MB): with
        afl's maps built, gqrf at its declared settings peaks at about
        1.7 MB of traced allocations."""
        import tracemalloc
        model = afl()
        s = criterion_settings(model, ["gqrf"])["gqrf"]
        with criteria._map_store(model):
            check_gqrf(model, time_sets=s["time_sets"], tol=s["tol"])
            tracemalloc.start()
            try:
                check_gqrf(model, time_sets=s["time_sets"], tol=s["tol"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 6e6


class TestStackedPropagation:
    """One `apply_propagator` call propagates a stack: every vector of a
    tree level on a small bath, and every start column of a map."""

    def test_register_preset_propagates_its_start_branches_together(self, monkeypatch):
        """static-dephasing's two register levels are two bath branches of
        every tree and map. One call per tree level and per map leaves 8 and
        6 `apply_propagator` calls for qrf and gqrf in one run (one per
        branch and map column would take 56 and 204)."""
        model = static_dephasing()
        calls = []
        propagate = model.apply_propagator
        monkeypatch.setattr(model, "apply_propagator",
                            lambda *args: calls.append(1) or propagate(*args))
        run_criteria(model, criterion_settings(model, names=["qrf"]), seed=23)
        assert len(calls) <= 8
        run_criteria(model, criterion_settings(model, names=["gqrf"]), seed=23)
        assert len(calls) <= 8 + 6


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


class TestSpanKernel:
    """`fa` decides every clause in the span of the bath rows of all its
    branches: the values must be those of the dense joint state."""

    @staticmethod
    def _case(rng, register, d, size, mixed, n_states):
        """A random collision (`size` slots, pure or mixed ancilla, times on
        slot boundaries) or static register (`size + 1` levels), and
        `n_states` initial states, each rank-1 or mixed."""
        if register:
            levels = size + 1
            model = static_dephasing(rng.dirichlet(np.ones(levels)),
                                     [random_hermitian(d, rng) for _ in range(levels)])
            times = tuple(float(t) for t in np.sort(rng.uniform(0.1, 2.0, 2)))
        else:
            ancilla = random_density(d, rng=rng) if mixed else random_pure(d, rng)
            model = collision(size, random_unitary(d * d, rng), ancilla_state=ancilla)
            times = tuple(sorted({float(t) for t in rng.integers(1, size + 1, 2)}))
        states = [random_density(d, rng=rng, rank=None if rng.random() < 0.5 else 1)
                  for _ in range(n_states)]
        return model, states, times

    def _random_cases(self, seed, n, registers=True):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            yield self._case(rng, registers and bool(rng.integers(2)), int(rng.integers(2, 4)),
                             int(rng.integers(1, 4)), bool(rng.integers(2)),
                             int(rng.integers(2, 4)))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), register=st.booleans(),
           d=st.integers(2, 3), size=st.integers(1, 3), mixed=st.booleans(),
           n_states=st.integers(1, 3))
    def test_matches_dense_reference(self, seed, register, d, size, mixed, n_states):
        """Random collisions (1-3 slots, pure or mixed ancillas, times on
        slot boundaries) and static registers (2-4 levels), from 1-3
        initial states, each rank-1 or mixed."""
        rng = np.random.default_rng(seed)
        model, states, times = self._case(rng, register, d, size, mixed, n_states)
        got = check_fa(model, initial_states=states, times=times).witnesses
        for name, want in reference_fa(model, states, times).items():
            assert abs(got[name] - want) <= 1e-12, (name, got[name], want)

    def test_matches_dense_eigvalsh(self):
        """The bath marginals' distance, decided in the span of the bath
        rows, is half the dense trace norm (an eigvalsh) of the difference
        of the dense joint states' partial traces, to 1e-12 relative. On
        collisions only: a static register's bath marginal does not depend
        on the initial state, so its distance is zero up to rounding."""
        for model, states, times in self._random_cases(2024, 60, registers=False):
            got = check_fa(model, initial_states=states, times=times).witnesses
            want = reference_fa(model, states, times)["max_env_marginal_distance"]
            got = got["max_env_marginal_distance"]
            assert abs(got - want) <= 1e-12 * want, (model.name, got, want)

    def test_span_negativity_matches_dense(self):
        """The negativity of a mixture of branches, taken in the span of its
        bath rows, is the dense joint state's."""
        for model, states, times in self._random_cases(2027, 60):
            got = check_fa(model, initial_states=states, times=times).witnesses
            want = reference_fa(model, states, times)["max_negativity"]
            assert abs(got["max_negativity"] - want) <= 1e-12, (model.name, got, want)

    def test_equal_initial_states_read_zero(self):
        """Two equal initial states have bitwise equal span coordinates, so
        their bath marginals' distance is exactly zero, on small baths and on
        afl's 4001-point bath."""
        rng = np.random.default_rng(2025)
        models = [afl(), static_dephasing(rng.dirichlet(np.ones(3)),
                                          [random_hermitian(2, rng) for _ in range(3)])]
        models += [collision(2, random_unitary(4, rng), ancilla_state=random_density(2, rng=rng))
                   for _ in range(4)]
        for model in models:
            rho = random_density(2, rng=rng)
            rep = check_fa(model, initial_states=[rho, rho.copy()], times=(1.0, 2.0))
            assert rep.witnesses["max_env_marginal_distance"] == 0.0, model.name

    def test_coordinates_reproduce_inner_products_on_a_large_bath(self):
        """On afl's 4001-point bath the span coordinates keep every inner
        product: R^H R is the Gram matrix of the stacked vectors."""
        rng = np.random.default_rng(2026)
        vs = [random_pure(4001, rng) for _ in range(4)] + [np.zeros(4001, dtype=complex)]
        r = criteria._span_coordinates(vs)
        assert r.shape == (5, 5)
        gram = np.array([[np.vdot(u, v) for v in vs] for u in vs])
        assert np.max(np.abs(r.conj().T @ r - gram)) < 1e-14


class TestAflSplit:
    def test_fa_fails_with_entanglement_witness(self):
        model = afl()
        plus = np.outer(plus_state(), plus_state().conj())
        rep = check_fa(model, initial_states=[plus, np.diag([1.0, 0.0]).astype(complex)],
                       times=(0.5,), tol=1e-7)
        assert rep.verdict == "fail"
        assert rep.witnesses["max_mutual_information"] > 0.1
        assert rep.witnesses["max_negativity"] > 1e-3

    def test_fa_negativity_of_a_mixed_start_on_the_large_bath(self):
        """A mixed start on afl's 4001-point bath gets its negativity in the
        bath rows' span (a dense joint state on the 1001-point grid reads
        0.4168)."""
        rho = 0.9 * np.outer(plus_state(), plus_state().conj()) + 0.1 * np.eye(2) / 2
        rep = check_fa(afl(), initial_states=[rho], times=(0.5,))
        assert rep.witnesses["max_negativity"] > 0.4

    def test_qrf_passes_on_grid(self):
        model = afl()
        rep = check_qrf(model, time_pairs=((0.2, 0.5), (0.2, 1.0), (0.5, 1.0)), tol=1e-5)
        assert rep.verdict == "pass"

    def test_gqrf_fails(self):
        model = afl()
        rep = check_gqrf(model, time_sets=((0.5, 1.0, 1.5),), tol=1e-5)
        assert rep.verdict == "fail"
        assert rep.witnesses["max_residual"] > 0.01

    def test_fa_evolves_each_branch_once(self, monkeypatch):
        """The reduced state comes from the branches already propagated:
        afl's declared `fa` makes one propagation per initial state and time."""
        model = afl()
        calls = []
        propagate = model.apply_propagator
        monkeypatch.setattr(model, "apply_propagator",
                            lambda *args: calls.append(1) or propagate(*args))
        s = criterion_settings(model, ["fa"])["fa"]
        rep = check_fa(model, times=s["times"], tol=s["tol"])
        assert len(calls) == 4 and rep.verdict == "fail"


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

    def test_nqib_malformed_channel_raises_before_propagation(self):
        # effects and states are paired one to one, each dim_e x dim_e: a
        # short state list would drop an outcome and read as a fail
        model = nqib_qubit()

        def refuse(*args):
            raise AssertionError("propagated")
        model.apply_propagator = refuse
        povm, states = model.breaking_channel(math.pi)
        triple = (0.0, math.pi, 2 * math.pi)
        for channel, match in [((povm, states[:1]), "2 POVM elements but 1 prepared"),
                               ((povm, states + states[:1]), "2 POVM elements but 3 prepared"),
                               (([np.eye(3)], [np.eye(3) / 3]), "must be 2 x 2")]:
            with pytest.raises(ValueError, match=match):
                check_nqib(model, triple, channel)

    def test_nqib_without_channel_inconclusive(self):
        rep = check_nqib(tam(), (0.0, 1.0, 2.0), None)
        assert rep.verdict == "inconclusive"

    def test_collision_nib_exact_with_fresh_ancillas(self):
        model = collision()
        rep = check_nib(model, (0.0, 2.0, 4.0), tol=1e-10)
        assert rep.verdict == "pass"
        assert rep.witnesses["min_residual"] < 1e-10

    def test_collision_nib_is_the_replaced_bath_residual(self, monkeypatch):
        # a product bath tries only its initial state, through the replaced-bath
        # map: the residual is composability's, and no replacement map is built
        from oqmarkov import criteria

        def refuse(*args):
            raise AssertionError("replacement_map called")
        monkeypatch.setattr(criteria, "replacement_map", refuse)
        model = collision()
        rep = check_nib(model, (0.0, 2.0, 4.0))
        comp = check_composability(model, [(0.0, 2.0, 4.0)])
        assert rep.witnesses["min_residual"] == comp.witnesses["max_residual"]
        assert rep.witnesses["n_candidates"] == 1.0

    def test_nqib_channel_follows_the_model(self):
        # the collision channel comes from the model, not the settings table
        from oqmarkov.criteria import run_criterion
        rep = run_criterion("nqib", collision(), {"triple": (0.0, 2.0, 4.0), "tol": 1e-9}, 0)
        assert rep.verdict == "pass", rep.reason


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
        rng = np.random.default_rng(seed)
        model = collision(3, random_unitary(4, rng), random_pure(2, rng))
        povm, states = model.breaking_channel(t1)
        if rotated:
            v = random_unitary(model.dim_e, rng)
            povm = [v @ f @ v.conj().T for f in povm]
            states = [v @ s @ v.conj().T for s in states]
        t2 = t1 + frac * (3.0 - t1)
        _assert_nqib_matches_dense(model, (0.0, t1, t2), povm, states)


class TestNqibOnTheSupport:
    """The bath operators of `nqib` are decomposed on their support, so a
    past-slot projector (x) identity effect or a projector (x) fresh-ancilla
    state is solved on its nonzero block."""

    @settings(max_examples=20, deadline=None)
    @given(mask=st.lists(st.booleans(), min_size=8, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1), t1=st.floats(0.0, 2.0), dt=st.floats(0.0, 1.0))
    @example(mask=[False] * 8, seed=0, t1=1.0, dt=1.0)
    def test_replacement_map_matches_the_full_size_decomposition(self, mask, seed, t1, dt):
        rng = np.random.default_rng(seed)
        model = collision(3, random_unitary(4, rng), random_pure(2, rng))
        rows = np.flatnonzero(mask)
        sigma = np.zeros((8, 8), dtype=complex)
        sigma[np.ix_(rows, rows)] = random_hermitian(rows.size, rng)
        w, v = np.linalg.eigh(sigma)
        full = assemble_map(model, [(float(w[i]), v[:, i]) for i in range(8)
                                    if abs(w[i]) > 1e-12], (t1, t1 + dt), (None, None))
        got = replacement_map(model, t1, t1 + dt, sigma)
        assert np.max(np.abs(got.mat - full.mat), initial=0.0) < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), t1=st.sampled_from([1.0, 2.0]),
           rotated=st.booleans())
    def test_channel_checks(self, seed, t1, rotated):
        # the past channel as built, or (rotated) with full-support operators
        rng = np.random.default_rng(seed)
        model = collision(3, random_unitary(4, rng), random_pure(2, rng))
        povm, states = model.breaking_channel(t1)
        if rotated:
            u = random_unitary(model.dim_e, rng)
            povm = [u @ f @ u.conj().T for f in povm]
            states = [u @ s @ u.conj().T for s in states]
        triple = (0.0, t1, 3.0)
        a, b = rng.choice(len(povm), 2, replace=False)

        def replaced(ops, k, op):
            return [op if j == k else o for j, o in enumerate(ops)]

        for channel, match in [
                # -0.5 on F_b's support, still resolving the identity
                ((replaced(replaced(povm, a, povm[a] + 1.5 * povm[b]), b, -0.5 * povm[b]),
                  states), "POVM element not positive semidefinite"),
                ((replaced(povm, a, 0.5 * povm[a]), states), "does not resolve the identity"),
                ((povm, replaced(states, a, 2 * states[a])), "trace deviates"),
                ((povm, replaced(states, a, 1.5 * states[a] - 0.5 * states[b])),
                 "negative eigenvalue")]:
            with pytest.raises(ValueError, match=match):
                check_nqib(model, triple, channel)
        # a zero effect has an empty support and adds nothing to the map
        rep = check_nqib(model, triple, (povm, states))
        padded = check_nqib(model, triple, (povm + [np.zeros_like(povm[0])],
                                            states + [states[a]]))
        assert (padded.verdict, padded.witnesses) == (rep.verdict, rep.witnesses)


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
        from oqmarkov.criteria import _nib_coordinates, replacement_map
        model = factory()
        base, ops, feasible = _nib_coordinates(model)
        assert feasible == "ball"
        q = [replacement_map(model, t1, t1 + dt, op).mat
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
                                       replacement_map)
        model = factory()
        t2 = t1 + dt
        e1 = map_family(model, [t1])[0][1].mat
        e2 = map_family(model, [t2])[0][1].mat
        base, ops, feasible = _nib_coordinates(model)

        def chained(op):
            return replacement_map(model, t1, t2, op).mat @ e1

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


class TestNonQubitSystems:
    def test_qrf_gqrf_defaults_for_qutrit_collisions(self):
        # the operator basis follows dim_s (9 Gell-Mann operators here):
        # 81 pairs for qrf, all 9^8 sequences for gqrf, in slices
        model = collision(n_slots=3, pair_unitary=partial_swap(math.pi / 4, d=3))
        assert model.dim_s == 3
        qrf = check_qrf(model, time_pairs=((1.0, 2.0),), tol=1e-9)
        assert qrf.verdict == "pass"
        assert qrf.grid.startswith("81 operator pairs")
        gqrf = check_gqrf(model, time_sets=((1.0, 2.0, 3.0),), tol=1e-9)
        assert gqrf.verdict == "pass"
        assert gqrf.witnesses["max_residual"] < 1e-9
        assert gqrf.grid == "every Hermitian-basis operator sequence: 43046721 over 1 time sets"


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
        semi = check_semigroup(lambda tau: tam_map(0.0, tau),
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
        want = check_qrf(model, self.TIMES).to_dict()
        assert check_qrf(model, (t for t in self.TIMES)).to_dict() == want
        assert want["grid"] == "16 operator pairs x 2 time pairs, both orderings"

    def test_gqrf(self):
        model = tam()
        want = check_gqrf(model, self.TIMES).to_dict()
        got = check_gqrf(model, (iter(t) for t in self.TIMES))
        assert got.to_dict() == want
        assert want["grid"] == "every Hermitian-basis operator sequence: 8192 over 2 time sets"

    def test_fa(self):
        model = tam()
        states = [np.eye(2) / 2, np.outer(plus_state(), plus_state().conj())]
        want = check_fa(model, states, self.TIMES[0]).to_dict()
        got = check_fa(model, (r for r in states), (t for t in self.TIMES[0]))
        assert got.to_dict() == want
        assert want["grid"] == "times=[0.5, 1.0], 2 initial states"

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


def _three_maps():
    return _divisible_family(2, np.random.default_rng(0), 3)


class TestNoVacuousPass:
    """A checker given no case to test raises ValueError; it never passes."""

    @pytest.mark.parametrize("check", [
        lambda: check_qrf(tam(), time_pairs=[]),
        lambda: check_gqrf(tam(), time_sets=[]),
        lambda: check_gqrf(tam(), time_sets=[()]),
        lambda: check_composability(tam(), []),
        lambda: check_semigroup(lambda tau: tomograph(tam(), 0.0, tau), []),
        lambda: check_fdd(tam(), []),
        lambda: check_fa(tam(), times=()),
        lambda: check_fa(tam(), initial_states=[]),
        lambda: check_divisibility([]),
        lambda: check_divisibility(_three_maps()[:1]),
        lambda: check_distinguishability(_three_maps()[:1]),
        lambda: check_distinguishability(_three_maps(), state_pairs=[]),
        lambda: check_distinguishability(_three_maps(), w_grid=[]),
    ], ids=["qrf-times", "gqrf-times", "gqrf-set", "composability", "semigroup", "fdd",
            "fa", "fa-states", "divisibility-none", "divisibility-one", "distinguishability-one",
            "distinguishability-pairs", "distinguishability-weights"])
    def test_no_cases_raise(self, check):
        with pytest.raises(ValueError, match="would pass without testing anything"):
            check()


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
            if name == "collision":     # nib reads the store's (2, 4) map
                assert calls[0] <= 20
        assert total <= 93

    def test_direct_regression_calls_keep_one_store(self, monkeypatch):
        """A direct `qrf` or `gqrf` call builds each replaced-bath map once
        for its own duration: at afl's declared settings it makes as many
        propagations as inside a run, with the same report."""
        model = afl()
        builds, _ = self._count_builds(monkeypatch, model)
        calls = []
        propagate = model.apply_propagator
        monkeypatch.setattr(model, "apply_propagator",
                            lambda *args: calls.append(1) or propagate(*args))
        s = criterion_settings(model, ["qrf", "gqrf"])
        qrf = check_qrf(model, time_pairs=s["qrf"]["time_pairs"], tol=s["qrf"]["tol"])
        assert len(calls) == 28
        gqrf = check_gqrf(model, time_sets=s["gqrf"]["time_sets"], tol=s["gqrf"]["tol"])
        assert len(calls) == 28 + 20
        assert max(builds.values()) == 2        # once per call
        run = run_criteria(model, s, 23)
        assert qrf.to_dict() == run["qrf"].to_dict()
        assert gqrf.to_dict() == run["gqrf"].to_dict()

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

    def test_trace_norms_taken_as_stacks(self, monkeypatch):
        """`distinguishability` and `map_residual` take their trace norms as
        stacks through `core.trace_norms`: over the hierarchies of tam, nqib,
        collision, static-dephasing and eternal, 31 stack calls cover 9,199
        matrices. A per-matrix `trace_norm` loop must not come back."""
        calls = {"trace_norm": 0, "trace_norms": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        monkeypatch.setattr(core, "trace_norm", counted("trace_norm", core.trace_norm))
        monkeypatch.setattr(criteria, "trace_norms", counted("trace_norms", criteria.trace_norms))
        for name in ("tam", "nqib", "collision", "static-dephasing", "eternal"):
            hierarchy_report(name)
        assert calls["trace_norm"] == 0 and 0 < calls["trace_norms"] <= 35, calls

    def test_no_large_linear_algebra_on_any_preset(self, monkeypatch):
        """No `np.linalg` solve of the six presets' hierarchies has a side of
        32 or more, so none runs threaded LAPACK. Collision's nqib operators
        are 64 x 64 but nonzero on 16 rows or 1: they are decomposed on their
        support."""
        large = []

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                if max(np.shape(a)[-2:], default=0) >= 32:
                    large.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)
            return wrapper
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "qr", "pinv", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        for name in sorted(EXPECTED_ROWS):
            hierarchy_report(name)
        # a mixed start on a 1001-point afl bath: the dense joint state,
        # which reads the same negativity, has side 2002
        rho = 0.9 * np.outer(plus_state(), plus_state().conj()) + 0.1 * np.eye(2) / 2
        rep = check_fa(afl(n_points=1001, quad_tol=1.0), initial_states=[rho], times=(0.5,))
        assert large == []
        assert abs(rep.witnesses["max_negativity"] - 0.41678556363663) <= 1e-12

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
