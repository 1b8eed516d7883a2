import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oqmarkov.classical import (FiniteProcess, SDESpec, StochasticMatrix,
                                TransitionFamily, blockwise_counterexample,
                                check_cdiv, check_cke, check_classical_disting,
                                check_cm, check_crf, check_stochastic_semigroup,
                                conditional, iid_process, markov_chain, mcsm,
                                ou_moments, ou_spec, poisson_spec)
from oqmarkov.criteria import (check_distinguishability, check_divisibility,
                               map_family)
from oqmarkov.models import eternal_me
from oqmarkov.unravel import _fill_draws, _prepare_grid, _Streams

STEP = np.array([[0.9, 0.3], [0.1, 0.7]])   # column-stochastic
CHAIN = markov_chain(STEP, [0.6, 0.4], 4)
BLOCK33 = blockwise_counterexample(3, 3, 1.0)
IID = iid_process([0.5, 0.5], 5)


def _memory_process() -> FiniteProcess:
    """x0 uniform, x1 independent of x0, x2 = x0: T(1) is singular."""
    table = np.zeros((2, 2, 2))
    for x0 in range(2):
        table[x0, :, x0] = 0.5 * np.array([0.3, 0.7])
    return FiniteProcess(table)


MEMORY = _memory_process()


class TestFiniteProcess:
    def test_table_normalization_enforced(self):
        with pytest.raises(ValueError):
            FiniteProcess(np.ones((2, 2)))

    def test_table_cap(self):
        with pytest.raises(ValueError):
            FiniteProcess(np.zeros((2,) * 21))

    def test_marginalization_order_independent(self):
        t = BLOCK33.table
        a = t.sum(axis=(0, 2))
        b = t.sum(axis=2).sum(axis=0)
        assert np.max(np.abs(a - b)) < 1e-15
        assert abs(t.sum() - 1.0) < 1e-12

    def test_stochastic_matrix_validation(self):
        with pytest.raises(ValueError):
            StochasticMatrix([[0.5, 0.2], [0.4, 0.8]])
        StochasticMatrix(STEP)


class TestConditional:
    def test_independent_process_conditional_is_marginal(self):
        cond, info = conditional(IID, target_times=[2], given_times=[1])
        assert np.allclose(cond, 0.5)
        assert not info["zero_probability_conditioning"]

    def test_block_pairwise_conditionals_are_half(self):
        for t_from, t_to in ((1, 2), (1, 3), (2, 3)):
            cond = BLOCK33.two_time_conditional(t_from, t_to)
            assert np.allclose(cond, 0.5)

    def test_deterministic_chain_zero_one(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        proc = markov_chain(flip, [1.0, 0.0], 2)
        cond = proc.two_time_conditional(0, 1)
        finite = cond[np.isfinite(cond)]   # zero-probability sources are NaN
        assert set(np.unique(finite)) <= {0.0, 1.0}

    def test_zero_probability_flagged(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        proc = markov_chain(flip, [1.0, 0.0], 1)
        _, info = conditional(proc, target_times=[1], given_times=[0])
        assert info["zero_probability_conditioning"]

    def test_initial_distribution_dependence_documented(self):
        _, info = conditional(BLOCK33, [2], [1], alt_q=[0.3, 0.7])
        # blocks are independent of the first variable, so no dependence
        assert info["max_initial_state_dependence"] < 1e-12


class TestCm:
    def test_iid_passes(self):
        assert check_cm(IID).verdict == "pass"

    def test_markov_chain_passes(self):
        assert check_cm(CHAIN).verdict == "pass"

    def test_block_process_fails(self):
        rep = check_cm(BLOCK33)
        assert rep.verdict == "fail"
        assert rep.witnesses["max_residual"] > 0.4


class TestCrf:
    def test_block33_second_order_holds_third_fails(self):
        assert check_crf(BLOCK33, 2).verdict == "pass"
        rep = check_crf(BLOCK33, 3)
        assert rep.verdict == "fail"
        assert np.isclose(rep.witnesses["max_residual"], 0.125, atol=1e-12)

    def test_markov_chain_all_orders_hold(self):
        for n in (1, 2, 3, 4):
            assert check_crf(CHAIN, n).verdict == "pass"

    def test_hierarchy_pattern_for_higher_correlation_orders(self):
        # first anchored failure at order n = N for N >= 3 block families
        for m, n in ((3, 3), (4, 3), (5, 4)):
            proc = blockwise_counterexample(m, n, 1.0)
            for order in range(2, n):
                assert check_crf(proc, order).verdict == "pass", (m, n, order)
            assert check_crf(proc, n).verdict == "fail", (m, n)

    def test_pairwise_correlated_family_first_fails_at_three(self):
        # with pairwise-correlated blocks the two-time conditionals carry
        # the correlations, so the anchored chain only breaks at order 3
        proc = blockwise_counterexample(4, 2, 1.0)
        assert check_crf(proc, 2).verdict == "pass"
        assert check_crf(proc, 3).verdict == "fail"

    def test_out_of_range_order(self):
        with pytest.raises(ValueError):
            check_crf(BLOCK33, 9)


class TestCkeAndCdiv:
    def test_markov_chain_all_pass(self):
        fam = TransitionFamily.from_process(CHAIN)
        assert check_cke(CHAIN).verdict == "pass"
        assert check_cdiv(fam).verdict == "pass"
        assert check_stochastic_semigroup(fam).verdict == "pass"
        assert check_classical_disting(fam).verdict == "pass"

    def test_block33_cke_and_cdiv_pass(self):
        fam = TransitionFamily.from_process(BLOCK33)
        assert check_cke(BLOCK33).verdict == "pass"
        assert check_cdiv(fam).verdict == "pass"

    def test_block42_cke_fails(self):
        proc = blockwise_counterexample(4, 2, 1.0)
        assert check_cke(proc).verdict == "fail"

    def test_cdiv_and_disting_agree_on_presets(self):
        for proc in (CHAIN, BLOCK33, blockwise_counterexample(4, 3, 1.0)):
            fam = TransitionFamily.from_process(proc)
            a = check_cdiv(fam).verdict
            b = check_classical_disting(fam).verdict
            assert a == b == "pass" or (a != "pass" and b != "pass")

    def test_explicit_step_family(self):
        fam = TransitionFamily.from_step_matrix(STEP, 4)
        assert check_cdiv(fam).verdict == "pass"
        assert check_stochastic_semigroup(fam).verdict == "pass"


def _stochastic(k):
    return st.lists(st.floats(0.01, 1.0), min_size=k * k, max_size=k * k).map(
        lambda xs: np.reshape(xs, (k, k)) / np.reshape(xs, (k, k)).sum(axis=0))


@st.composite
def invertible_families(draw):
    """(T(1), T(2)) on 2-4 states with a well-conditioned T(1). T(2) is drawn
    freely, or is L T(1) for a stochastic L with one entry lowered by eps
    and another entry of its column raised by eps."""
    k = draw(st.integers(2, 4))
    t1 = draw(_stochastic(k))
    assume(np.linalg.cond(t1) < 1e4)
    if draw(st.booleans()):
        return t1, draw(_stochastic(k))
    lmat = draw(_stochastic(k))
    col = draw(st.integers(0, k - 1))
    lower, raise_ = draw(st.permutations(range(k)))[:2]
    eps = draw(st.floats(0.001, 0.2))
    lmat[lower, col] -= eps
    lmat[raise_, col] += eps
    t2 = lmat @ t1
    assume(t2.min() >= 0.0)
    return t1, t2


# passed by the former 25-pair sample although T(2) T(1)^{-1} has a -0.079 entry
SAMPLED_WRONG_PASS = (np.array([[0.28, 0.51], [0.72, 0.49]]),
                      np.array([[0.39, 0.61], [0.61, 0.39]]))
WEIGHTS = np.arange(0.1, 0.95, 0.1)


def _bias(m, p, q, w):
    return float(np.sum(np.abs(w * (m @ p) - (1 - w) * (m @ q))))


class TestClassicalDistinguishability:
    @settings(max_examples=150, deadline=None)
    @given(family=invertible_families(), seed=st.integers(0, 2 ** 32 - 1))
    @example(family=SAMPLED_WRONG_PASS, seed=0)
    def test_exact_on_invertible_families(self, family, seed):
        t1, t2 = family
        fam = TransitionFamily([1, 2], [t1, t2])
        rep = check_classical_disting(fam)
        assert rep.verdict == check_cdiv(fam).verdict
        if rep.verdict == "fail":
            assert rep.witnesses["worst_pair"] == [1, 2]
            lam = t2 @ np.linalg.inv(t1)
            x = np.linalg.inv(t1)[:, np.argmin(lam.min(axis=0))]
            pos, neg = np.clip(x, 0.0, None), np.clip(-x, 0.0, None)
            w = pos.sum() / (pos.sum() + neg.sum())
            p, q = pos / pos.sum(), neg / neg.sum()
            assert _bias(t2, p, q, w) > _bias(t1, p, q, w)
        else:
            assert rep.verdict == "pass"
            rng = np.random.default_rng(seed)
            k = len(t1)
            p, q = rng.dirichlet(np.ones(k), 1000).T, rng.dirichlet(np.ones(k), 1000).T
            w = WEIGHTS[:, None, None]
            # [time, weight, pair], from the identity at t = 0
            bias = np.array([np.abs(w * (m @ p) - (1 - w) * (m @ q)).sum(axis=1)
                             for m in (np.eye(k), t1, t2)])
            assert np.max(np.diff(bias, axis=0)) <= rep.tolerance

    def test_sampled_wrong_pass_now_fails(self):
        rep = check_classical_disting(TransitionFamily([1, 2], list(SAMPLED_WRONG_PASS)))
        assert rep.verdict == "fail"
        lam = SAMPLED_WRONG_PASS[1] @ np.linalg.inv(SAMPLED_WRONG_PASS[0])
        assert rep.witnesses["max_residual"] == pytest.approx(-lam.min(), abs=1e-14)
        assert rep.witnesses["max_residual"] > 0.07

    def test_memory_family_fails_with_and_without_steps(self):
        fam = TransitionFamily.from_process(MEMORY)
        bare = TransitionFamily(fam.times, fam.maps)
        for family in (fam, bare):
            rep = check_classical_disting(family)
            assert rep.verdict == "fail"
            assert rep.witnesses["worst_pair"] == [1, 2]
            # T(2) = 1 on the kernel direction (1, -1) / sqrt(2) of T(1)
            assert rep.witnesses["max_residual"] == pytest.approx(np.sqrt(0.5))
        assert check_cdiv(fam).verdict == "fail"
        assert check_cdiv(bare).verdict == "inconclusive"

    def test_eternal_is_the_quantum_contrast(self):
        family = map_family(eternal_me(), np.arange(0.0, 3.01, 0.5))
        assert check_divisibility(family, tol=1e-9).verdict == "fail"
        assert check_distinguishability(family, tol=1e-9).verdict == "pass"

    def test_singular_interval_needs_a_stochastic_step_that_composes(self):
        t1 = np.array([[0.3, 0.3], [0.7, 0.7]])
        t2 = np.array([[0.6, 0.6], [0.4, 0.4]])      # vanishes on ker T(1)
        bare = check_classical_disting(TransitionFamily([1, 2], [t1, t2]))
        assert bare.verdict == "inconclusive"
        assert "[[1, 2]]" in bare.reason
        composing = {(1, 2): t2.copy()}
        nonstochastic = {(1, 2): np.array([[1.3, 0.3], [-0.3, 0.7]])}
        assert np.allclose(nonstochastic[(1, 2)] @ t1, t2)
        verdicts = [check_classical_disting(TransitionFamily([1, 2], [t1, t2], s)).verdict
                    for s in (composing, nonstochastic)]
        assert verdicts == ["pass", "inconclusive"]

    def test_unreachable_initial_state_reads_inconclusive(self):
        # the second initial state has probability 0, so every T(t) has a NaN
        # column 1 where the checks used to stop in an SVD
        fam = TransitionFamily.from_process(markov_chain([[0.9, 0.2], [0.1, 0.8]], [1.0, 0.0], 3))
        assert np.isnan(fam.maps[0][:, 1]).all() and np.isfinite(fam.maps[0][:, 0]).all()
        cdiv, disting = check_cdiv(fam), check_classical_disting(fam)
        for rep, intervals in ((cdiv, ["[1, 2]", "[2, 3]"]),
                               (disting, ["[0, 1]", "[1, 2]", "[2, 3]"])):
            assert rep.verdict == "inconclusive"
            assert rep.witnesses == {"max_residual": 0.0, "worst_pair": [],
                                     "n_inconclusive": float(len(intervals))}
            assert "not finite in source columns" in rep.reason
            assert rep.reason.endswith(", ".join(f"[1] at {p}" for p in intervals))

    def test_families_build_only_consecutive_steps(self):
        consecutive = [(1, 2), (2, 3), (3, 4)]
        assert sorted(TransitionFamily.from_process(CHAIN).steps) == consecutive
        assert sorted(TransitionFamily.from_step_matrix(STEP, 4).steps) == consecutive


ONE_MAP = TransitionFamily([1], [np.eye(2)])


class TestNoVacuousPass:
    """A classical checker given no case to test raises ValueError; it never
    passes."""

    @pytest.mark.parametrize("check", [
        lambda: check_cdiv(ONE_MAP),
        lambda: check_classical_disting(ONE_MAP),
        lambda: check_classical_disting(TransitionFamily([], [])),
        lambda: check_stochastic_semigroup(ONE_MAP),
        lambda: check_stochastic_semigroup(TransitionFamily([2, 3], [STEP @ STEP,
                                                                     STEP @ STEP @ STEP])),
        lambda: check_cm(markov_chain(STEP, [0.6, 0.4], 1)),
        lambda: check_cke(markov_chain(STEP, [0.6, 0.4], 1)),
    ], ids=["cdiv-one", "disting-one", "disting-none", "semigroup-one",
            "semigroup-no-sum-on-grid", "cm-two-times", "cke-two-times"])
    def test_no_cases_raise(self, check):
        with pytest.raises(ValueError, match="would pass without testing anything"):
            check()


class TestBlockwise:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            blockwise_counterexample(3, 3, 0.0)
        with pytest.raises(ValueError):
            blockwise_counterexample(3, 3, 1.5)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            blockwise_counterexample(2, 3)

    def test_single_variable_marginal_is_half(self):
        for t in range(1, BLOCK33.n_times):
            assert np.allclose(BLOCK33.marginal((t,)), 0.5)

    def test_pair_marginal_is_quarter(self):
        for a in range(1, 4):
            for b in range(a + 1, 4):
                assert np.allclose(BLOCK33.marginal((a, b)), 0.25)

    def test_n_subset_marginal_formula(self):
        m, n, alpha = 5, 4, 0.7
        proc = blockwise_counterexample(m, n, alpha)
        sub = (1, 2, 3, 4)
        marg = proc.marginal(sub)
        binom = math.comb(m, n)
        for idx in np.ndindex(*marg.shape):
            x = [1 - 2 * i for i in idx]
            expected = 2.0 ** (-n) * (1 + alpha / binom * math.prod(x))
            assert np.isclose(marg[idx], expected, atol=1e-14)

    def test_two_blocks_independent(self):
        proc = blockwise_counterexample(3, 3, 1.0, n_blocks=2)
        assert proc.n_times == 7
        joint = proc.marginal((1, 4))
        assert np.allclose(joint, 0.25)


def _reference_mcsm(spec, x0, grid, m, seed, dt):
    """mcsm as one chunk: each path's normals and jump uniforms drawn up
    front from its own keyed streams, the spec called every step."""
    _, step_times, slot = _prepare_grid(grid, dt)
    n_steps, n_jump = len(step_times) - 1, len(spec.jump_rates)
    streams = _Streams(seed)
    normals = _fill_draws(streams, [i | (1 << 32) for i in range(m)],
                          (n_steps, spec.n_noise), "standard_normal")
    jumps = _fill_draws(streams, [(i + (1 << 40)) | (1 << 32) for i in range(m)],
                        (n_steps, n_jump), "random")
    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    out = np.empty((m, len(grid), spec.dim))
    out[:, 0] = x
    for s, t in enumerate(step_times[:-1]):
        noise = 0.0
        if spec.n_noise:
            bmat = np.asarray(spec.diffusion(x, t), dtype=float)
            noise = (normals[:, s] @ bmat.T if bmat.ndim == 2
                     else np.einsum("pij,pj->pi", bmat, normals[:, s])) * math.sqrt(dt)
        x = x + np.asarray(spec.drift(x, t), dtype=float) * dt + noise
        for j in range(n_jump):
            fired = jumps[:, s, j] < np.asarray(spec.jump_rates[j](x, t), dtype=float) * dt
            x[fired] += np.asarray(spec.jump_effects[j](x[fired]), dtype=float)
        if slot[s + 1] >= 0:
            out[:, slot[s + 1]] = x
    return out


def _jump_diffusion_2d():
    """Two coordinates, two noise channels with a per-path (paths, 2, 2)
    diffusion, and two jump channels with per-path rates."""
    a = np.array([[-1.0, 0.4], [0.3, -0.6]])

    def diffusion(x, t):
        b = np.zeros((len(x), 2, 2))
        b[:, 0, 0] = 0.5
        b[:, 0, 1] = 0.2 * np.tanh(x[:, 1])
        b[:, 1, 1] = 0.3 + 0.1 * np.cos(x[:, 0] + t)
        return b

    return SDESpec(lambda x, t: x @ a.T + np.array([t, 0.5]), diffusion,
                   jump_rates=[lambda x, t: 2.0 + np.sin(x[:, 0]),
                               lambda x, t: 3.0 * np.exp(-x[:, 1] ** 2)],
                   jump_effects=[lambda x: np.stack([np.ones(len(x)), -0.5 * x[:, 1]], axis=1),
                                 lambda x: -0.3 * x],
                   dim=2, n_noise=2)


MCSM_REFERENCE_CASES = {"ou": (ou_spec(), [1.0]), "poisson": (poisson_spec(3.0), [0.0]),
                        "jump-diffusion-2d": (_jump_diffusion_2d(), [0.2, -0.4])}


class TestMcsm:
    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("case", MCSM_REFERENCE_CASES)
    def test_matches_per_step_reference(self, case, jobs):
        spec, x0 = MCSM_REFERENCE_CASES[case]
        run = dict(grid=[0.0, 0.1, 0.3], m=60, seed=11, dt=2e-3)
        paths = mcsm(spec, x0, run["grid"], M=run["m"], seed=run["seed"], dt=run["dt"],
                     jobs=jobs).paths
        assert paths.tobytes() == _reference_mcsm(spec, x0, **run).tobytes()

    def test_ou_moments_within_three_sigma(self):
        k, sigma, x0 = 1.0, 0.5, 1.0
        grid = [0.0, 0.5, 1.0]
        res = mcsm(ou_spec(k, sigma), [x0], grid, M=10000, seed=77, dt=1e-3)
        for i, t in enumerate(grid[1:], start=1):
            am, av = ou_moments(x0, k, sigma, t)
            assert abs(res.mean[i, 0] - am) < 3 * res.se_mean[i, 0]
            var_se = av * math.sqrt(2.0 / (10000 - 1))
            assert abs(res.variance[i, 0] - av) < 4 * var_se

    def test_poisson_mean_within_three_sigma(self):
        rate = 1.0
        grid = [0.0, 1.0]
        res = mcsm(poisson_spec(rate), [0.0], grid, M=10000, seed=5, dt=1e-3)
        target = rate * 1.0
        assert abs(res.mean[-1, 0] - target) < 3 * res.se_mean[-1, 0]

    def test_deterministic_when_noiseless(self):
        spec = SDESpec(lambda x, t: -x, lambda x, t: np.array([[0.0]]), dim=1)
        res = mcsm(spec, [1.0], [0.0, 1.0], M=4, seed=1, dt=1e-3)
        assert np.max(np.abs(res.paths[:, -1, 0] - res.paths[0, -1, 0])) < 1e-15
        assert abs(res.mean[-1, 0] - math.exp(-1.0)) < 1e-3

    def test_bitwise_seed_reproducibility_and_chunking(self):
        a = mcsm(ou_spec(), [1.0], [0.0, 0.5], M=32, seed=9, dt=1e-3, jobs=1)
        b = mcsm(ou_spec(), [1.0], [0.0, 0.5], M=32, seed=9, dt=1e-3, jobs=3)
        assert np.array_equal(a.paths, b.paths)
        c = mcsm(ou_spec(), [1.0], [0.0, 0.5], M=32, seed=10, dt=1e-3)
        assert not np.array_equal(a.paths, c.paths)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_poisson_draws_no_normals_and_keeps_paths(self, jobs):
        # reference: the same counting process with one noise channel of zero
        # diffusion; declaring none draws no normals and keeps every path bit
        rate = 1.0
        one_zero_column = SDESpec(lambda x, t: np.zeros_like(x),
                                  lambda x, t: np.array([[0.0]]),
                                  jump_rates=[lambda x, t: np.full(x.shape[0], rate)],
                                  jump_effects=[lambda x: np.ones_like(x)], dim=1)
        spec = poisson_spec(rate)
        assert spec.n_noise == 0
        grid = [0.0, 0.5, 1.0]
        new = mcsm(spec, [0.0], grid, M=40, seed=3, dt=1e-3, jobs=jobs)
        old = mcsm(one_zero_column, [0.0], grid, M=40, seed=3, dt=1e-3, jobs=jobs)
        assert new.paths.tobytes() == old.paths.tobytes()

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_scalar_jump_rate_keeps_paths(self, jobs):
        def counting(rate_of):
            return SDESpec(lambda x, t: np.zeros_like(x), lambda x, t: np.zeros((1, 0)),
                           jump_rates=[rate_of], jump_effects=[lambda x: np.ones_like(x)],
                           dim=1, n_noise=0)

        grid = [0.0, 0.5, 1.0]
        scalar = mcsm(counting(lambda x, t: 2.0), [0.0], grid, M=40, seed=4, dt=1e-3,
                      jobs=jobs)
        full = mcsm(counting(lambda x, t: np.full(x.shape[0], 2.0)), [0.0], grid, M=40,
                    seed=4, dt=1e-3, jobs=jobs)
        assert scalar.paths.tobytes() == full.paths.tobytes()
        assert scalar.paths[:, -1].max() > 0

    @pytest.mark.parametrize("rates", [-1.0, [0.5, -1.0, 0.5], [math.nan, -1.0, 0.5]])
    def test_negative_jump_rate_rejected(self, rates):
        spec = SDESpec(lambda x, t: np.zeros_like(x), lambda x, t: np.zeros((1, 0)),
                       jump_rates=[lambda x, t: np.asarray(rates)],
                       jump_effects=[lambda x: np.ones_like(x)], dim=1, n_noise=0)
        with pytest.raises(ValueError, match="negative jump rate"):
            mcsm(spec, [0.0], [0.0, 0.1], M=3, seed=0, dt=1e-3)

    def test_jump_rate_of_paths_by_one_rejected(self):
        spec = SDESpec(lambda x, t: np.zeros_like(x), lambda x, t: np.zeros((1, 0)),
                       jump_rates=[lambda x, t: np.full((x.shape[0], 1), 0.5)],
                       jump_effects=[lambda x: np.ones_like(x)], dim=1, n_noise=0)
        with pytest.raises(ValueError, match="one value per path"):
            mcsm(spec, [0.0], [0.0, 0.1], M=3, seed=0, dt=1e-3)

    def test_jump_probability_guard(self):
        with pytest.raises(ValueError, match="reduce dt"):
            mcsm(poisson_spec(500.0), [0.0], [0.0, 0.1], M=2, seed=0, dt=1e-3)

    @pytest.mark.parametrize("m", [0, -3])
    def test_non_positive_sample_count_rejected(self, m):
        with pytest.raises(ValueError, match="M must be a positive"):
            mcsm(ou_spec(), [1.0], [0.0, 0.1], M=m, seed=0, dt=1e-3)


class TestExports:
    def test_process_to_dict_round_trips(self):
        from oqmarkov.classical import process_to_dict
        d = process_to_dict(BLOCK33)
        assert d["shape"] == [2, 2, 2, 2]
        assert abs(sum(d["table"]) - 1.0) < 1e-12
        back = np.array(d["table"]).reshape(d["shape"])
        assert np.array_equal(back, BLOCK33.table)

    def test_paths_rows_time_first(self):
        from oqmarkov.classical import paths_to_rows
        res = mcsm(ou_spec(), [1.0], [0.0, 0.5], M=3, seed=1, dt=1e-2)
        header, columns = paths_to_rows(res)
        assert header[0] == "time"
        assert len(columns) == len(header)
        for col in columns:
            assert len(col) == 3 * 2
