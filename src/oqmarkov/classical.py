"""Finite classical stochastic-process toolkit: Markovianity and
regression-formula checks, Chapman-Kolmogorov and divisibility of transition
matrices, the blockwise correlated-family counterexamples, and Monte-Carlo
simulation of jump-diffusion dynamics.

Classical distinguishability is decided exactly from the same connecting
steps that divisibility (`cdiv`) reads, so the two coincide on invertible
families; the quantum `eternal` preset fails divisibility yet passes
distinguishability.

Joint distributions are stored as dense arrays with one axis per time label
(capped at 2**20 entries). Regression checks are anchored at the process's
initial time: the conditioning base of each factorization chain is the
first time label, whose distribution is the free knob of the process.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .criteria import CriterionReport, PASS, FAIL, INCONCLUSIVE
from .unravel import _chunked, _fill_draws, _prepare_grid, _Streams

TABLE_CAP = 2 ** 20


class FiniteProcess:
    """Finite-state process given by its dense joint probability table."""

    def __init__(self, table: np.ndarray, values: Sequence | None = None,
                 times: Sequence | None = None):
        table = np.asarray(table, dtype=float)
        if table.size > TABLE_CAP:
            raise ValueError(f"joint table with {table.size} entries exceeds cap {TABLE_CAP}")
        if np.any(table < -1e-14):
            raise ValueError("negative joint probabilities")
        if abs(table.sum() - 1.0) > 1e-12:
            raise ValueError(f"joint table sums to {table.sum()}, not 1")
        self.table = np.clip(table, 0.0, None)
        self.n_times = table.ndim
        self.values = list(values) if values is not None else list(range(table.shape[0]))
        self.times = list(times) if times is not None else list(range(self.n_times))

    def marginal(self, keep: Sequence[int]) -> np.ndarray:
        keep = tuple(keep)
        drop = tuple(i for i in range(self.n_times) if i not in keep)
        out = self.table.sum(axis=drop) if drop else self.table
        # axes of `out` follow the sorted original order; reorder to `keep`
        sorted_keep = tuple(sorted(keep))
        perm = [sorted_keep.index(k) for k in keep]
        return np.transpose(out, perm)

    def two_time_conditional(self, t_from: int, t_to: int) -> np.ndarray:
        """Column-stochastic matrix P(x_to | x_from)."""
        joint = self.marginal((t_from, t_to))     # axes (from, to)
        p_from = joint.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = joint.T / p_from[None, :]
        cond[:, p_from <= 0] = np.nan
        return cond

    def with_initial(self, q: Sequence[float]) -> "FiniteProcess":
        """Same conditional structure with the initial-time distribution replaced."""
        q = np.asarray(q, dtype=float)
        p0 = self.table.sum(axis=tuple(range(1, self.n_times)))
        if np.any(p0 <= 0):
            raise ValueError("initial distribution has zero-probability points")
        shape = (-1,) + (1,) * (self.n_times - 1)
        return FiniteProcess(self.table * (q / p0).reshape(shape),
                             self.values, self.times)


def conditional(process: FiniteProcess, target_times: Sequence[int],
                given_times: Sequence[int], alt_q: Sequence[float] | None = None):
    """Bayes-quotient conditional table P(targets | givens).

    Axes are ordered (givens..., targets...). Conditioning on an event of
    zero probability leaves NaN entries and sets the flag. When alt_q is
    supplied the same conditional is recomputed under the replaced
    initial distribution and the maximal difference is reported, which
    documents the initial-state dependence of generic conditionals.
    """
    target_times, given_times = tuple(target_times), tuple(given_times)
    joint = process.marginal(given_times + target_times)
    base = process.marginal(given_times)
    shape = base.shape + (1,) * len(target_times)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = joint / base.reshape(shape)
    flagged = bool(np.any(base <= 0))
    info = {"zero_probability_conditioning": flagged}
    if alt_q is not None:
        other, _ = conditional(process.with_initial(alt_q), target_times, given_times)
        info["max_initial_state_dependence"] = float(
            np.nanmax(np.abs(cond - other)))
    return cond, info


# ---------------------------------------------------------------------------
# Markovianity and regression checks
# ---------------------------------------------------------------------------

def check_cm(process: FiniteProcess, tol: float = 1e-10) -> CriterionReport:
    """Full Markov condition over every increasing time subset: the last
    variable conditioned on all earlier subset variables must match its
    conditioning on the immediately preceding one alone."""
    t = process.n_times
    k = len(process.values)
    worst, worst_subset = 0.0, None
    for size in range(3, t + 1):
        for subset in itertools.combinations(range(t), size):
            joint = process.marginal(subset)
            past = joint.sum(axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                full_cond = joint / past[..., None]
            pair = process.two_time_conditional(subset[-2], subset[-1])  # (to, from)
            markov = pair.T.reshape((1,) * (size - 2) + (k, k))
            mask = np.isfinite(full_cond) & np.isfinite(markov + np.zeros_like(full_cond))
            if mask.any():
                r = float(np.max(np.abs((full_cond - markov)[mask])))
                if r > worst:
                    worst, worst_subset = r, subset
    witnesses = {"max_residual": worst,
                 "worst_subset": list(worst_subset) if worst_subset else []}
    verdict = PASS if worst <= tol else FAIL
    return CriterionReport("cm", verdict, witnesses, tol,
                           "all increasing time subsets of size >= 3")


def _chain_residual(process: FiniteProcess, tup: Sequence[int]) -> float:
    """max |P(later | base) - prod of step conditionals| over value tuples."""
    base = tup[0]
    joint = process.marginal(tup)                    # axes in tuple order
    p_base = process.marginal((base,))
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = joint / p_base.reshape((-1,) + (1,) * (len(tup) - 1))
    rhs = np.ones_like(lhs)
    k = len(process.values)
    for pos in range(len(tup) - 1):
        cond = process.two_time_conditional(tup[pos], tup[pos + 1])  # (to, from)
        shape = [1] * len(tup)
        shape[pos] = k
        shape[pos + 1] = k
        rhs = rhs * cond.T.reshape(shape)
    mask = np.isfinite(lhs) & np.isfinite(rhs)
    return float(np.max(np.abs(lhs[mask] - rhs[mask]))) if mask.any() else 0.0


def check_crf(process: FiniteProcess, n: int, tol: float = 1e-10) -> CriterionReport:
    """n-th order regression factorization over all tuples anchored at the
    initial time: P(x_{s_n},...,x_{s_1}|x_0) must factor into the chain of
    two-time conditionals for every 0 < s_1 < ... < s_n."""
    t = process.n_times
    if n < 1 or n >= t:
        raise ValueError(f"order n={n} out of range for {t} time labels")
    worst, worst_tuple = 0.0, None
    for later in itertools.combinations(range(1, t), n):
        r = _chain_residual(process, (0,) + later)
        if r > worst:
            worst, worst_tuple = r, (0,) + later
    witnesses = {"max_residual": worst,
                 "worst_tuple": list(worst_tuple) if worst_tuple else []}
    grid = f"all {n}+1-time tuples anchored at the initial time"
    verdict = PASS if worst <= tol else FAIL
    return CriterionReport(f"crf{n}", verdict, witnesses, tol, grid)


def check_cke(process: FiniteProcess, tol: float = 1e-10) -> CriterionReport:
    """Two-time conditionals must compose through every intermediate time."""
    t = process.n_times
    worst, worst_triple = 0.0, None
    for t1, t2, t3 in itertools.combinations(range(t), 3):
        direct = process.two_time_conditional(t1, t3)
        step2 = process.two_time_conditional(t2, t3)
        step1 = process.two_time_conditional(t1, t2)
        composed = step2 @ step1
        mask = np.isfinite(direct) & np.isfinite(composed)
        if mask.any():
            r = float(np.max(np.abs(direct[mask] - composed[mask])))
            if r > worst:
                worst, worst_triple = r, (t1, t2, t3)
    witnesses = {"max_residual": worst,
                 "worst_triple": list(worst_triple) if worst_triple else []}
    verdict = PASS if worst <= tol else FAIL
    return CriterionReport("cke", verdict, witnesses, tol, "all time triples")


# ---------------------------------------------------------------------------
# Transition-matrix notions
# ---------------------------------------------------------------------------

class StochasticMatrix:
    """Column-stochastic matrix: columns indexed by source state."""

    def __init__(self, mat, tol: float = 1e-12):
        m = np.asarray(mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
        if np.any(m < -tol):
            raise ValueError("negative transition probability")
        if np.max(np.abs(m.sum(axis=0) - 1.0)) > tol:
            raise ValueError("columns do not sum to 1")
        self.mat = np.clip(m, 0.0, None)


def stochastic_residual(mat: np.ndarray) -> float:
    """Largest of the most negative entry's size and the column-sum errors."""
    return float(max(0.0, -np.min(mat), np.max(np.abs(mat.sum(axis=0) - 1.0))))


@dataclasses.dataclass
class TransitionFamily:
    """T(t) = P(x_t | x_{t0}) for a set of times, plus optional step matrices
    P(x_{t2} | x_{t1}) for consecutive times, used when T(t1) is singular."""
    times: list
    maps: list                      # T(t): column-stochastic
    steps: dict = dataclasses.field(default_factory=dict)   # (t1,t2) -> matrix

    @classmethod
    def from_process(cls, process: FiniteProcess) -> "TransitionFamily":
        times = list(range(1, process.n_times))
        maps = [process.two_time_conditional(0, t) for t in times]
        steps = {(t1, t2): process.two_time_conditional(t1, t2)
                 for t1, t2 in zip(times, times[1:])}
        return cls(times, maps, steps)

    @classmethod
    def from_step_matrix(cls, s: np.ndarray, n_steps: int) -> "TransitionFamily":
        s = StochasticMatrix(s).mat
        maps = [np.eye(s.shape[0])]
        for _ in range(n_steps):
            maps.append(s @ maps[-1])
        times = list(range(1, n_steps + 1))
        return cls(times, maps[1:], {(t, t + 1): s for t in times[:-1]})


def connecting_steps(family: TransitionFamily):
    """Yield (t1, t2, T(t1), T(t2), step, invertible, residual) for each
    consecutive pair of grid times. The step of an invertible T(t1) is the
    unique T(t2) T(t1)^{-1}; for a singular one it is the family's own step
    matrix, or None. The residual is the step's `stochastic_residual`, also
    covering its composition error for a singular T(t1); None without a step."""
    points = list(zip(family.times, family.maps))
    for (t1, m1), (t2, m2) in zip(points, points[1:]):
        invertible = np.linalg.matrix_rank(m1, tol=1e-12) == m1.shape[0]
        step = m2 @ np.linalg.inv(m1) if invertible else family.steps.get((t1, t2))
        resid = None if step is None else stochastic_residual(step)
        if step is not None and not invertible:
            resid = max(resid, float(np.max(np.abs(step @ m1 - m2))))
        yield t1, t2, m1, m2, step, invertible, resid


def _interval_report(name: str, residuals: list, tol: float, grid: str,
                     reason: str = "") -> CriterionReport:
    """Report on [((t1, t2), residual)]; a None residual leaves its interval
    undecided."""
    worst, worst_pair = 0.0, []
    for pair, resid in residuals:
        if resid is not None and resid > worst:
            worst, worst_pair = resid, list(pair)
    inconclusive = [list(pair) for pair, resid in residuals if resid is None]
    witnesses = {"max_residual": worst, "worst_pair": worst_pair,
                 "n_inconclusive": float(len(inconclusive))}
    if worst > tol:
        return CriterionReport(name, FAIL, witnesses, tol, grid)
    if inconclusive:
        return CriterionReport(name, INCONCLUSIVE, witnesses, tol, grid,
                               reason=f"singular transition matrix at {inconclusive}{reason}")
    return CriterionReport(name, PASS, witnesses, tol, grid)


def check_cdiv(family: TransitionFamily, tol: float = 1e-10) -> CriterionReport:
    """Classical divisibility: a stochastic matrix must connect consecutive
    transition matrices. The connecting step of an invertible T(t1) is
    unique; for a singular T(t1) the family's own step is tried as an
    existence witness, and absent that the interval is inconclusive."""
    residuals = [((t1, t2), r) for t1, t2, *_, r in connecting_steps(family)]
    return _interval_report("cdiv", residuals, tol,
                            f"{len(family.times)} grid times, consecutive pairs")


def check_stochastic_semigroup(family: TransitionFamily,
                               tol: float = 1e-10) -> CriterionReport:
    """Homogeneity composition: T(r+s) = T(r) T(s) on the available grid."""
    lookup = dict(zip(family.times, family.maps))
    worst, worst_pair = 0.0, None
    for r in family.times:
        for s in family.times:
            if (r + s) in lookup:
                resid = float(np.max(np.abs(lookup[r + s] - lookup[r] @ lookup[s])))
                if resid > worst:
                    worst, worst_pair = resid, (r, s)
    witnesses = {"max_residual": worst,
                 "worst_pair": list(worst_pair) if worst_pair else []}
    verdict = PASS if worst <= tol else FAIL
    return CriterionReport("stochastic-semigroup", verdict, witnesses, tol,
                           f"duration pairs within {family.times}")


def check_classical_disting(family: TransitionFamily,
                            tol: float = 1e-10) -> CriterionReport:
    """Classical distinguishability, decided exactly: the bias
    ||w T(t) p - (1-w) T(t) q||_1 must never grow along the grid, from the
    identity at t = 0, for any distributions p, q and prior w.

    Statement implemented (Buscemi & Datta, PRA 93, 012101, arXiv:1408.7062):
    for an invertible T(t1) the bias never grows from t1 to t2, over any pair
    and prior, exactly when the connecting step T(t2) T(t1)^{-1} is
    stochastic. Its columns sum to one, so `tol` bounds its most negative
    entry. A singular T(t1) fails when T(t2) does not vanish on its kernel,
    as two distributions equal at t1 then separate at t2 (the residual is
    T(t2)'s largest entry on an orthonormal kernel basis); it passes when
    the family's own step is stochastic and composes, else it is
    inconclusive."""
    anchored = TransitionFamily([0, *family.times], [np.eye(len(family.maps[0])),
                                                     *family.maps], family.steps)
    residuals = []
    for t1, t2, m1, m2, step, invertible, step_resid in connecting_steps(anchored):
        if invertible:
            resid = max(0.0, -float(np.min(step)))
        else:
            _, sv, vh = np.linalg.svd(m1)
            resid = float(np.max(np.abs(m2 @ vh[np.sum(sv > 1e-12):].T)))
            if resid <= tol:
                undecided = step_resid is None or step_resid > tol
                resid = None if undecided else max(resid, step_resid)
        residuals.append(((t1, t2), resid))
    return _interval_report(
        "classical-distinguishability", residuals, tol,
        f"{len(family.times)} grid times from the identity at t = 0, consecutive pairs",
        " without a stochastic step that composes")


# ---------------------------------------------------------------------------
# Blockwise correlated counterexample family
# ---------------------------------------------------------------------------

def _block_table(m: int, n: int, alpha: float) -> np.ndarray:
    subsets = list(itertools.combinations(range(m), n))
    t = np.zeros((2,) * m)
    for idx in itertools.product(range(2), repeat=m):
        x = [1 - 2 * i for i in idx]        # index 0 -> value +1, 1 -> -1
        s = sum(math.prod(x[j] for j in sub) for sub in subsets)
        t[idx] = 2.0 ** (-m) * (1.0 + alpha * s / len(subsets))
    if np.any(t < 0):
        raise ValueError("block distribution has negative entries")
    return t


def blockwise_counterexample(m: int, n: int, alphas=1.0, n_blocks: int = 1,
                             q: Sequence[float] = (0.5, 0.5)) -> FiniteProcess:
    """Process of +-1 variables: an initial free variable followed by
    independent blocks of m variables whose joint law correlates exactly
    the n-fold products. Within a block every marginal of fewer than n
    variables is uniform, so regression chains of order below n hold while
    the n-th order factorization fails.
    """
    if not (m >= n >= 2):
        raise ValueError("need block size m >= correlation order n >= 2")
    if np.isscalar(alphas):
        alphas = [float(alphas)] * n_blocks
    if len(alphas) != n_blocks:
        raise ValueError("one alpha per block required")
    for a in alphas:
        if not (0.0 < abs(a) <= 1.0):
            raise ValueError(f"alpha {a} outside (0, 1]")
    table = np.asarray(q, dtype=float)
    if abs(table.sum() - 1.0) > 1e-12:
        raise ValueError("q must be a distribution")
    for a in alphas:
        table = np.multiply.outer(table, _block_table(m, n, a))
    return FiniteProcess(table, values=[+1, -1])


def markov_chain(step: np.ndarray, q: Sequence[float], n_steps: int) -> FiniteProcess:
    """Joint table of a homogeneous chain driven by a column-stochastic step."""
    s = StochasticMatrix(step).mat
    table = np.asarray(q, dtype=float)
    for _ in range(n_steps):
        table = np.einsum("...i,ji->...ij", table, s)
    return FiniteProcess(table)


def iid_process(p: Sequence[float], n_times: int) -> FiniteProcess:
    p = np.asarray(p, dtype=float)
    table = p.copy()
    for _ in range(n_times - 1):
        table = np.multiply.outer(table, p)
    return FiniteProcess(table)


def process_to_dict(process: FiniteProcess) -> dict:
    """JSON-ready snapshot of a joint table: labels, times, entries."""
    return {"values": list(process.values),
            "times": list(process.times),
            "shape": list(process.table.shape),
            "table": process.table.reshape(-1).tolist()}


def paths_to_rows(result: "MCSMResult") -> tuple[list, list]:
    """Header and columns for sample paths: time column first, one entry per
    (time, path), time-major, with the configuration components."""
    m, n_times, dim = result.paths.shape
    header = ["time", "path"] + [f"x{i}" for i in range(dim)]
    columns = [np.repeat(result.times, m), np.tile(np.arange(m), n_times)]
    columns += [result.paths[:, :, i].T.reshape(-1) for i in range(dim)]
    return header, columns


# ---------------------------------------------------------------------------
# Monte Carlo simulation of jump-diffusion dynamics
# ---------------------------------------------------------------------------

class SDESpec:
    """dx = A(x,t) dt + B(x,t) dW + sum_j c_j(x) dN_j with Bernoulli-thinned
    jumps of rate lambda_j(x,t).

    Callables are evaluated on batches: x has shape (paths, dim); the drift
    and jump effects must return (paths, dim), the rates (paths,), and the
    diffusion either a constant (dim, n_noise) matrix or (paths, dim,
    n_noise)."""

    def __init__(self, drift: Callable, diffusion: Callable,
                 jump_rates: Sequence[Callable] = (), jump_effects: Sequence[Callable] = (),
                 dim: int = 1, n_noise: int | None = None):
        self.drift = drift
        self.diffusion = diffusion
        self.jump_rates = list(jump_rates)
        self.jump_effects = list(jump_effects)
        if len(self.jump_rates) != len(self.jump_effects):
            raise ValueError("one effect per jump rate required")
        self.dim = dim
        self.n_noise = dim if n_noise is None else n_noise


@dataclasses.dataclass
class MCSMResult:
    times: np.ndarray
    paths: np.ndarray            # (M, n_times, dim)
    mean: np.ndarray             # (n_times, dim)
    variance: np.ndarray
    se_mean: np.ndarray
    seed: int


def mcsm(spec: SDESpec, x0, grid, M: int, seed: int, dt: float = 1e-3,
         jobs: int = 1) -> MCSMResult:
    """Euler-Maruyama with Bernoulli-thinned jumps, evolved in lockstep over
    the sample paths. Per-path random streams keyed by (seed, path index)
    make results bitwise seed-reproducible and independent of chunking."""
    grid, step_times, slot = _prepare_grid(grid, dt)
    n_steps = len(step_times) - 1
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n_jump = len(spec.jump_rates)
    chunks = _chunked(M, jobs, n_steps * (spec.n_noise + n_jump) * 8)
    sqrt_dt = math.sqrt(dt)
    streams = _Streams(seed)

    def run_chunk(idxs, out: np.ndarray) -> None:
        m = len(idxs)
        # path streams are keyed apart from the trajectory streams of unravel
        normals = _fill_draws(streams, [i | (1 << 32) for i in idxs],
                              (n_steps, spec.n_noise), "standard_normal")
        jumps = _fill_draws(streams, [(i + (1 << 40)) | (1 << 32) for i in idxs],
                            (n_steps, n_jump), "random") if n_jump else None
        x = np.tile(x0, (m, 1))
        out[:, 0] = x
        for s in range(n_steps):
            t = step_times[s]
            drift = np.asarray(spec.drift(x, t), dtype=float)
            bmat = np.asarray(spec.diffusion(x, t), dtype=float)
            if bmat.ndim == 2:
                noise = normals[:, s] @ bmat.T * sqrt_dt
            else:
                noise = np.einsum("pij,pj->pi", bmat, normals[:, s]) * sqrt_dt
            x = x + drift * dt + noise
            for j in range(n_jump):
                rates = np.asarray(spec.jump_rates[j](x, t), dtype=float)
                rates = np.broadcast_to(rates, (m,))
                if np.any(rates < 0):
                    raise ValueError(f"negative jump rate at t={t:.4g}")
                if np.max(rates) * dt >= MAX_JUMP_STEP_PROB:
                    raise ValueError(
                        f"jump probability {np.max(rates) * dt:.3f} per step at "
                        f"t={t:.4g}; reduce dt")
                fired = jumps[:, s, j] < rates * dt
                if np.any(fired):
                    eff = np.asarray(spec.jump_effects[j](x[fired]), dtype=float)
                    x = x.copy()
                    x[fired] += eff
            if slot[s + 1] >= 0:
                out[:, slot[s + 1]] = x

    paths = np.empty((M, len(grid), spec.dim))
    for c in chunks:
        run_chunk(c, paths[c.start:c.stop])
    mean = paths.mean(axis=0)
    var = paths.var(axis=0, ddof=1) if M > 1 else np.full_like(mean, np.nan)
    se = np.sqrt(var / M) if M > 1 else np.full_like(mean, np.nan)
    return MCSMResult(grid, paths, mean, var, se, seed)


MAX_JUMP_STEP_PROB = 0.1


def ou_spec(k: float = 1.0, sigma: float = 0.5) -> SDESpec:
    """Mean-reverting linear drift with constant diffusion."""
    return SDESpec(lambda x, t: -k * x, lambda x, t: np.array([[sigma]]), dim=1)


def ou_moments(x0: float, k: float, sigma: float, t: float) -> tuple[float, float]:
    mean = x0 * math.exp(-k * t)
    var = sigma ** 2 * (1.0 - math.exp(-2.0 * k * t)) / (2.0 * k)
    return mean, var


def poisson_spec(rate: float = 1.0) -> SDESpec:
    """Pure counting process: unit jumps at a constant rate, no diffusion
    (no noise channels, so no normals are drawn)."""
    return SDESpec(lambda x, t: np.zeros_like(x),
                   lambda x, t: np.zeros((1, 0)),
                   jump_rates=[lambda x, t: np.full(x.shape[0], rate)],
                   jump_effects=[lambda x: np.ones_like(x)], dim=1, n_noise=0)
