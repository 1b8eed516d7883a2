"""Acceptance suite: one test per acceptance criterion, each at its stated
tolerance, printing one pass/fail line per criterion (run with -s or see the
captured output). Two sub-clauses are documented expected failures backed by
independent brute-force analysis; see notes/decisions.md in the repository
root's companion notes (outside the package) for the details:

  * criterion 3's post-replacement rate clause: the printed closed form
    (g g1 - g^2)/(g g1 - 1) cannot equal the reset model's canonical rate,
    which is (g g1 - g^2)/(g g1 + 1) = tan(theta-theta1) g(t) >= 0; the
    tomographic extraction reproduces the latter to 1e-6.
  * criterion 9's (4,2) block family clause: with pairwise-correlated
    blocks the two-time conditionals carry the correlations, so the
    anchored regression chain first fails at order 3, not at order N=2.
"""

import itertools
import math
import time

import numpy as np
import pytest

from oqmarkov.core import PAULIS, plus_state
from oqmarkov.classical import (TransitionFamily, blockwise_counterexample,
                                check_cdiv, check_cke, check_cm, check_crf,
                                mcsm, ou_moments, ou_spec, poisson_spec)
from oqmarkov.criteria import (check_fa, check_distinguishability,
                               check_nib, check_nqib, hierarchy_report,
                               map_family, tomograph)
from oqmarkov.models import (afl, collision, eternal_me, nqib_qubit,
                             static_dephasing, tam, tam_post_replacement_model,
                             tam_post_replacement_rate)
from oqmarkov.superop import (LindbladSpec, canonical_decompose,
                              generator_from_maps, intermediate_map, is_cptp)
from oqmarkov.unravel import (collision_unravel, ensemble_mean,
                              ensembles_distinct, mcwf_diffusive, mcwf_jump,
                              static_unravel)

from closed_forms import (afl_correlation_exact, afl_correlation_regression, tam_map,
                          theta_quadrature, three_time_failure_case)


def _line(num, label, ok):
    print(f"[criterion {num:>2}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label})"


@pytest.fixture(scope="module")
def afl_grid():
    return afl()    # 4001-point discretization, gamma = g/2 = 1


@pytest.fixture(scope="module")
def collision_model():
    return collision()   # partial swap pi/4, 6 slots


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_afl_qrf_gqrf_split(afl_grid):
    started = time.perf_counter()
    model = afl_grid
    times = (0.2, 0.5, 1.0)
    pairs = [(a, b) for a, b in itertools.combinations(times, 2)]
    ident = np.eye(2, dtype=complex)
    rho0 = np.outer(plus_state(), plus_state().conj())

    # analytic path: closed-form kernel on both sides
    worst_analytic = 0.0
    for t1, t2 in pairs:
        for a in PAULIS.values():
            for b in PAULIS.values():
                for c1 in ((ident, a), (a, ident)):
                    c_ops = [(ident, ident), c1, (ident, b)]
                    ex = afl_correlation_exact(model.gamma, model.g, c_ops, (0.0, t1, t2), rho0)
                    rg = afl_correlation_regression(model.gamma, model.g, c_ops,
                                                    (0.0, t1, t2), rho0)
                    worst_analytic = max(worst_analytic, abs(ex - rg))
    _line(1, f"analytic two-time residual {worst_analytic:.2e} <= 1e-8",
          worst_analytic <= 1e-8)

    # discretized path: joint-vector propagation on the 4001-point grid
    from oqmarkov.criteria import check_qrf
    rep = check_qrf(model, time_pairs=pairs, tol=1e-5)
    _line(1, f"discretized two-time residual "
             f"{rep.witnesses['max_residual']:.2e} <= 1e-5",
          rep.verdict == "pass")

    exact, regression = three_time_failure_case(model.gamma, model.g, 0.5, 0.5, 0.5)
    resid = abs(exact - regression)
    _line(1, f"three-time residual {resid:.7f} = 1-exp(-2) +- 1e-6",
          abs(resid - (1.0 - math.exp(-2.0))) <= 1e-6)

    elapsed = time.perf_counter() - started
    _line(1, f"runtime {elapsed:.1f}s < 10s", elapsed < 10.0)


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_afl_fa_failure(afl_grid):
    model = afl_grid
    plus = np.outer(plus_state(), plus_state().conj())
    rep = check_fa(model, initial_states=[plus], times=(0.5,), tol=1e-7)
    neg = rep.witnesses["max_negativity"]
    _line(2, f"joint-state negativity {neg:.4f} > 1e-3 at t=0.5", neg > 1e-3)
    emap = tomograph(model, 0.0, 0.5)
    factor = emap.mat[1, 1]   # rho_{10} multiplier
    _line(2, f"dephasing factor |{factor:.8f}| vs exp(-1) to 1e-5",
          abs(factor - math.exp(-1.0)) <= 1e-5)


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_tam_maps_and_rates():
    model = tam()
    for t in (0.5, 1.0, 2.0, 3.0):
        assert abs(model.theta(t) - theta_quadrature(t)) <= 1e-8
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        e = tomograph(model, 0.0, t)
        worst = max(worst, float(np.max(np.abs(e.mat - tam_map(0.0, t).mat))))
    _line(3, f"tomography vs closed-form propagator {worst:.2e} <= 1e-8",
          worst <= 1e-8)

    map_at = lambda t: tomograph(model, 0.0, t)
    for t in (0.5, 1.0, 2.0):
        lhat, _ = generator_from_maps(map_at, t, dt=1e-5)
        gen = canonical_decompose(lhat, tol=1e-4)
        assert abs(gen.rates[0] - 2.0) <= 1e-4, (t, gen.rates)
        assert np.max(np.abs(gen.rates[1:])) <= 1e-4
    _line(3, "canonical decay rate = 2 +- 1e-4 at t in {0.5, 1, 2}", True)

    rep = check_nib(model, (0.0, 1.0, 2.0), tol=1e-4)
    _line(3, f"environment-reset check fails (min residual "
             f"{rep.witnesses['min_residual']:.3f})", rep.verdict == "fail")


def test_criterion_3_post_replacement_rate_matches_printed_formula():
    """Expected failure: the printed coefficient formula has the opposite
    denominator sign from what the reset model's dynamics can produce (the
    reset population decays monotonically, so its canonical rate is
    nonnegative, while the formula is negative on all of (1, 3])."""
    t1 = 1.0
    reset = tam_post_replacement_model(t1)
    map_at = lambda t: tomograph(reset, t1, t)
    worst = 0.0
    sign_change_seen = False
    for t in np.arange(1.25, 3.01, 0.25):
        lhat, _ = generator_from_maps(map_at, float(t), dt=1e-5)
        gen = canonical_decompose(lhat, tol=1e-4)
        extracted = gen.rates[0] / 2.0
        reference = tam_post_replacement_rate(t1, float(t))
        worst = max(worst, abs(extracted - reference))
        if extracted < 0:
            sign_change_seen = True
    _line(3, f"post-replacement extracted rate matches printed formula to 1e-3 "
             f"(worst gap {worst:.4f}) including sign change",
          worst <= 1e-3 and sign_change_seen)


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_eternal_model():
    started = time.perf_counter()
    model = eternal_me()
    grid = np.arange(0.5, 3.01, 0.5)
    family = map_family(model, np.concatenate([[0.0], grid]))
    min_eig = 0.0
    for (ta, ea), (tb, eb) in zip(family[:-1], family[1:]):
        inter = intermediate_map(eb, ea)
        min_eig = min(min_eig, is_cptp(inter.map).min_choi_eig)
    _line(4, f"min intermediate Choi eigenvalue {min_eig:.3f} <= -0.05",
          min_eig <= -0.05)
    rep = check_distinguishability(family, tol=1e-9, n_pairs=25)
    _line(4, "bias norm non-increasing within 1e-9 per step "
             "(25 pairs x 9 weights)", rep.verdict == "pass")
    elapsed = time.perf_counter() - started
    _line(4, f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0)


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_collision_row(collision_model):
    rep = hierarchy_report(collision_model.name)
    expected_pass = ("composability", "divisibility", "nib", "qrf", "gqrf", "fdd")
    for crit in expected_pass:
        r = rep.reports[crit]
        assert r.verdict == "pass", crit
        key = "max_residual" if "max_residual" in r.witnesses else "min_residual"
        if key in r.witnesses:
            assert r.witnesses[key] < 1e-9, (crit, r.witnesses[key])
    _line(5, "composability/divisibility/NIB/QRF/GQRF/FDD all pass < 1e-9", True)
    _line(5, "FA fails", rep.reports["fa"].verdict == "fail")
    _line(5, "implication-consistency holds", rep.consistent)


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_unravelling_exactness(collision_model):
    model = collision_model
    psi0 = plus_state()
    rho0 = np.outer(psi0, psi0.conj())
    worst = 0.0
    ensembles = {}
    for basis in ("computational", "conjugate"):
        ens = collision_unravel(model, basis, psi0=psi0)
        ensembles[basis] = ens
        for t in model.slot_times[1:]:
            mean = ensemble_mean(ens, float(t)).mat
            target = tomograph(model, 0.0, float(t))(rho0)
            worst = max(worst, float(np.max(np.abs(mean - target))))
    _line(6, f"collision unravelling means match the map to 1e-10 "
             f"({worst:.1e})", worst <= 1e-10)
    distinct, gap = ensembles_distinct(ensembles["computational"],
                                       ensembles["conjugate"], 2.0,
                                       threshold=1e-3)
    _line(6, f"second moments differ by {gap:.3f} >= 1e-3", distinct)

    static = static_dephasing(kappa=1.0)
    ens = static_unravel(static, times=(0.5, 1.0))
    dev = 0.0
    for t in (0.5, 1.0):
        mean = ensemble_mean(ens, t).mat
        target = tomograph(static, 0.0, t)(rho0)
        dev = max(dev, float(np.max(np.abs(mean - target))))
    _line(6, f"register-basis unravelling exact to 1e-12 ({dev:.1e})",
          dev <= 1e-12)


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_mcwf_decay():
    started = time.perf_counter()
    spec = LindbladSpec(2, None, [(np.array([[0, 1], [0, 0]], dtype=complex), 2.0)])
    psi0 = np.array([0.0, 1.0], dtype=complex)
    grid = [0.0, 0.25, 0.5, 1.0]
    m = 5000
    for name, runner, seed in (("jump", mcwf_jump, 42), ("diffusive", mcwf_diffusive, 43)):
        ens = runner(spec, psi0, grid, M=m, seed=seed, dt=1e-3)
        for idx, t in enumerate(grid[1:], start=1):
            pops = np.array([abs(tr.states[idx][1]) ** 2 for tr in ens.trajectories])
            target = math.exp(-2 * t)
            se = max(float(pops.std(ddof=1) / math.sqrt(m)), 1e-6)
            assert abs(pops.mean() - target) <= 3 * se, (name, t)
        _line(7, f"{name} ensemble within 3 standard errors at t in "
                 "{0.25, 0.5, 1}", True)

    # variance of the mean estimator scales as 1/M (frozen seeds; see
    # tests/test_unravel.py for the tighter pooled check)
    def rep_var(m_size, seed0):
        vals = []
        for r in range(10):
            ens = mcwf_jump(spec, psi0, [0.0, 0.5], M=m_size, seed=seed0 + r, dt=2e-3)
            vals.append(float(np.real(ensemble_mean(ens, 0.5).mat[1, 1])))
        return np.var(vals, ddof=1)

    ratio = rep_var(400, 1700) / rep_var(1600, 2200)
    _line(7, f"M-scaling variance ratio {ratio:.2f} within 20% of 4",
          abs(ratio / 4.0 - 1.0) < 0.2)
    elapsed = time.perf_counter() - started
    _line(7, f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0)


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_nqib_model():
    model = nqib_qubit()
    plus = np.outer(plus_state(), plus_state().conj())
    from oqmarkov.core import DensityOperator, negativity
    max_neg = 0.0
    for t in np.linspace(0.1, 2 * math.pi, 20):
        joint = np.zeros((4, 4), dtype=complex)
        for w, v in model.joint_branches(plus, float(t)):
            joint += w * np.outer(v, v.conj())
        max_neg = max(max_neg, negativity(DensityOperator(joint, (2, 2)), 1))
    _line(8, f"negativity zero at 20 sampled times ({max_neg:.1e})",
          max_neg < 1e-10)

    rep = check_nqib(model, (0.0, math.pi, 2 * math.pi),
                     model.breaking_channel(math.pi), tol=1e-10)
    _line(8, f"supplied measure-and-prepare channel residual "
             f"{rep.witnesses['residual']:.1e} < 1e-10", rep.verdict == "pass")

    nib = check_nib(model, (0.0, math.pi, 2 * math.pi), tol=1e-6)
    _line(8, f"replacement check fails with trace-distance witness "
             f"{nib.witnesses['action_norm']:.3f} >= 0.49",
          nib.verdict == "fail" and nib.witnesses["action_norm"] >= 0.49)


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_blockwise_family():
    started = time.perf_counter()
    for m, n in ((3, 3), (4, 3), (5, 4)):
        proc = blockwise_counterexample(m, n, 1.0)
        for order in range(2, n):
            assert check_crf(proc, order).verdict == "pass", (m, n, order)
        rep = check_crf(proc, n)
        assert rep.verdict == "fail", (m, n)
        if (m, n) == (3, 3):
            assert np.isclose(rep.witnesses["max_residual"], 0.125, atol=1e-12)
    _line(9, "block families (3,3), (4,3), (5,4): regression chains pass "
             "below the correlation order and fail at it", True)

    block33 = blockwise_counterexample(3, 3, 1.0)
    fam = TransitionFamily.from_process(block33)
    _line(9, "(3,3): three-time composition passes",
          check_cke(block33).verdict == "pass")
    _line(9, "(3,3): transition divisibility passes",
          check_cdiv(fam).verdict == "pass")
    _line(9, "(3,3): full Markov condition fails",
          check_cm(block33).verdict == "fail")
    elapsed = time.perf_counter() - started
    _line(9, f"runtime {elapsed:.1f}s < 10s", elapsed < 10.0)


def test_criterion_9_pairwise_family_fails_at_order_two():
    """Expected failure: for pairwise-correlated blocks (N = 2) the stepwise
    conditionals reproduce all anchored two-time statistics, so the order-2
    regression chain holds exactly; brute-force table evaluation puts the
    first failure at order 3."""
    proc = blockwise_counterexample(4, 2, 1.0)
    rep = check_crf(proc, 2)
    _line(9, "(4,2): regression chain fails at order N=2", rep.verdict == "fail")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_mcsm():
    k, sigma, x0 = 1.0, 0.5, 1.0
    grid = [0.0, 0.5, 1.0]
    res = mcsm(ou_spec(k, sigma), [x0], grid, M=10000, seed=77, dt=1e-3)
    ok = True
    for i, t in enumerate(grid[1:], start=1):
        am, _ = ou_moments(x0, k, sigma, t)
        ok &= abs(res.mean[i, 0] - am) < 3 * res.se_mean[i, 0]
    _line(10, "mean-reverting diffusion moments within 3 sigma at M=1e4", ok)

    pres = mcsm(poisson_spec(1.0), [0.0], [0.0, 1.0], M=10000, seed=5, dt=1e-3)
    _line(10, "counting-process mean within 3 sigma",
          abs(pres.mean[-1, 0] - 1.0) < 3 * pres.se_mean[-1, 0])

    again = mcsm(ou_spec(k, sigma), [x0], grid, M=10000, seed=77, dt=1e-3)
    _line(10, "seeded reruns bitwise identical",
          np.array_equal(res.paths, again.paths))


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_spin_echo_report():
    rep = hierarchy_report("static-dephasing")
    echo = rep.extras["spin_echo"]
    _line(11, f"echo purity {echo['purity_hahn']:.12f} = 1 within 1e-10",
          abs(echo["purity_hahn"] - 1.0) <= 1e-10)
    _line(11, "multi-time regression check fails in the same report",
          rep.reports["gqrf"].verdict == "fail")


# -- cross-model consistency --------------------------------------------------

def test_every_preset_respects_the_implication_edges():
    for name in ("collision", "afl", "tam", "nqib", "static-dephasing", "eternal"):
        rep = hierarchy_report(name)
        assert rep.consistent, (name, rep.implications)
    _line(0, "implication edges respected on every preset", True)
