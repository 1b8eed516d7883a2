"""Executable Markovianity criterion checkers.

Each checker maps a model (or a family of dynamical maps) to a
CriterionReport carrying a pass / fail / inconclusive verdict together with
the numerical witnesses that justify it. A report can only say "fail" when
at least one witness exceeds the tolerance it was tested against, and every
"inconclusive" carries a reason string. Any finite time grid only samples
the underlying quantified-over-all-times definitions; the grid descriptor
in the report records exactly what was sampled.

Every map from a joint model's initial bath comes from `generalized_map`,
which builds each (t1, t2) map once per `run_criteria` run (the run loop of
`hierarchy_report` and `analyze`) and keeps nothing outside a run.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import itertools
import math
from typing import Callable

import numpy as np

from .core import (DensityOperator, ID2, PAULIS, SX, SY, SZ, branch_negativity,
                   hermitian_basis, ket, negativity_pure_from_marginal, purity,
                   trace_norms, vn_entropy, random_pure)
from .models import (JointModel, MapFamilyModel, _apply_cop, _eig_branches,
                     assemble_map, dd_apply, evolve)
from .superop import (SuperOperator, compose, intermediate_map, is_cptp,
                      vec, unvec)

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


@dataclasses.dataclass
class CriterionReport:
    criterion: str
    verdict: str
    witnesses: dict
    tolerance: float
    grid: str
    reason: str = ""

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"bad verdict {self.verdict}")
        if self.verdict == FAIL:
            numeric = [abs(v) for v in self.witnesses.values()
                       if isinstance(v, (int, float)) and np.isfinite(v)]
            if not numeric or max(numeric) <= self.tolerance:
                raise ValueError(
                    f"{self.criterion}: fail verdict without a witness above tolerance")
        if self.verdict == INCONCLUSIVE and not self.reason:
            raise ValueError(f"{self.criterion}: inconclusive verdict needs a reason")

    def to_dict(self) -> dict:
        wit = {}
        for k, v in self.witnesses.items():
            if isinstance(v, complex):
                wit[k + "_re"], wit[k + "_im"] = float(v.real), float(v.imag)
            elif isinstance(v, (np.floating, np.integer)):
                wit[k] = float(v)
            else:
                wit[k] = v
        out = {"criterion": self.criterion, "verdict": self.verdict,
               "witnesses": wit, "tolerance": float(self.tolerance),
               "grid": self.grid}
        if self.reason:
            out["reason"] = self.reason
        return out


def worst_case(cases, tol: float):
    """The worst-case rule every residual sweep shares: over (residual,
    place) cases, the first strict maximum wins and a NaN never does.
    Returns (worst, place, verdict): (0.0, None) when no residual is
    positive, and the verdict passes iff worst <= tol."""
    worst, place = 0.0, None
    for r, at in cases:
        if r > worst:
            worst, place = r, at
    return worst, place, PASS if worst <= tol else FAIL


# ---------------------------------------------------------------------------
# Map extraction
# ---------------------------------------------------------------------------

# (model, {(t1, t2): map}) of the run in progress, set by `run_criteria`
_RUN_MAPS = contextvars.ContextVar("run_maps", default=(None, None))


def tomograph(model: JointModel, t0: float, t: float) -> SuperOperator:
    """Dynamical map from t0 to t, reconstructed by evolving the matrix-unit
    basis tensored with the initial bath state and tracing the bath out."""
    if abs(t0 - model.t0) > 1e-12:
        raise ValueError(f"maps are defined from the model's initial time {model.t0}")
    return generalized_map(model, t0, t)


def generalized_map(model: JointModel, t1: float, t2: float) -> SuperOperator:
    """Replaced-bath map: the bath is reset at t1 to its initial state
    before the joint propagation to t2 (the model is written in the bath's
    interaction picture, where that state does not evolve freely). Within a
    `run_criteria` run on this model, each (t1, t2) map is built once."""
    run_model, maps = _RUN_MAPS.get()
    if model is not run_model:
        maps = {}
    if (t1, t2) not in maps:
        maps[t1, t2] = assemble_map(model, model.env_branches(), (t1, t2), (None, None))
    return maps[t1, t2]


def replacement_map(model: JointModel, t1: float, t2: float,
                    sigma_e) -> SuperOperator:
    """Map generated by resetting the bath to an arbitrary state at t1.

    The state may be a dense matrix or a pre-decomposed list of
    (weight, vector) branches; the latter keeps huge product or grid baths
    tractable."""
    branches = sigma_e if isinstance(sigma_e, list) else _eig_branches(sigma_e)
    return assemble_map(model, branches, (t1, t2), (None, None))


def map_family(model, grid):
    """[(t, map from t0)] over a time grid: a map-only model's own maps, a
    joint model's tomographs."""
    if isinstance(model, MapFamilyModel):
        return [(t, model.map(t)) for t in grid]
    return [(t, tomograph(model, model.t0, t)) for t in grid]


# ---------------------------------------------------------------------------
# Residual norms
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _probe_stack(d: int) -> np.ndarray:
    """The probe states of `map_residual`, vectorised one per row and built
    once per dimension: the basis projectors, the real and imaginary
    superpositions of every basis pair, the maximally mixed state and three
    fixed random pure states."""
    probes = [np.outer(ket(i, d), ket(i, d).conj()) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = (ket(i, d) + ket(j, d)) / np.sqrt(2)
            probes.append(np.outer(v, v.conj()))
            v = (ket(i, d) + 1j * ket(j, d)) / np.sqrt(2)
            probes.append(np.outer(v, v.conj()))
    probes.append(np.eye(d) / d)
    rng = np.random.default_rng(7)
    for _ in range(3):
        v = random_pure(d, rng)
        probes.append(np.outer(v, v.conj()))
    stack = np.stack([vec(rho) for rho in probes])
    stack.setflags(write=False)
    return stack


def map_residual(s1: SuperOperator, s2: SuperOperator) -> dict:
    """Two residuals of a map difference: max absolute Liouville entry and
    the worst trace distance of outputs over a fixed probe-state set."""
    diff = s1.mat - s2.mat
    max_entry = float(np.max(np.abs(diff)))
    outs = np.stack([unvec(diff @ v, s1.dim) for v in _probe_stack(s1.dim)])
    action = max([0.0, *(0.5 * trace_norms(outs)).tolist()])
    return {"max_entry": max_entry, "action_norm": action,
            "residual": max(max_entry, action)}


# ---------------------------------------------------------------------------
# Factorization check
# ---------------------------------------------------------------------------

def _low_rank_spectrum(vectors: list[np.ndarray], weights: list[float]) -> np.ndarray:
    """Eigenvalues of sum_k w_k |v_k><v_k| via the Gram matrix."""
    if not vectors:
        return np.zeros(0)
    cols = np.stack([np.sqrt(w) * v for w, v in zip(weights, vectors)], axis=1)
    gram = cols.conj().T @ cols
    return np.linalg.eigvalsh((gram + gram.conj().T) / 2)


def _low_rank_trace_distance(vs1, ws1, vs2, ws2) -> float:
    """Trace distance between two low-rank PSD operators given spanning
    vectors; works in the joint span so huge ambient dimensions are fine."""
    cols = np.stack(vs1 + vs2, axis=1)
    q, _ = np.linalg.qr(cols)
    a = sum(w * np.outer(q.conj().T @ v, (q.conj().T @ v).conj())
            for w, v in zip(ws1, vs1))
    b = sum(w * np.outer(q.conj().T @ v, (q.conj().T @ v).conj())
            for w, v in zip(ws2, vs2))
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def _env_marginal_vectors(model: JointModel, branches):
    """Spanning vectors/weights of the bath marginal of a branched state."""
    ds, de = model.dim_s, model.dim_e
    vs, ws = [], []
    for w, v in branches:
        m = v.reshape(ds, de)
        for k in range(ds):
            vs.append(m[k].copy())
            ws.append(w)
    return vs, ws


def check_fa(model: JointModel, initial_states=None, times=(0.5, 1.0),
             tol: float = 1e-7) -> CriterionReport:
    """Factorization check: the joint state must stay a product of the
    reduced state with a bath state that is the same for every initial
    system state. Product structure is decided by mutual information (zero
    iff product); entanglement negativity is reported as an extra witness.
    """
    ds, de = model.dim_s, model.dim_e
    if initial_states is None:
        v = np.ones(ds, dtype=complex) / np.sqrt(ds)
        initial_states = [np.outer(v, v.conj()),
                          np.outer(ket(0, ds), ket(0, ds).conj())]
    max_mi, max_neg, max_env_dist = 0.0, 0.0, 0.0
    worst_time = None
    for t in times:
        env_margs = []
        for rho0 in initial_states:
            branches = model.joint_branches(rho0, t)
            weights = [w for w, _ in branches]
            joint_eigs = _low_rank_spectrum([v for _, v in branches], weights)
            rho_s = model.reduced_state(rho0, t)
            env_vs, env_ws = _env_marginal_vectors(model, branches)
            env_eigs = _low_rank_spectrum(env_vs, env_ws)
            mi = (vn_entropy(np.linalg.eigvalsh(rho_s)) + vn_entropy(env_eigs)
                  - vn_entropy(joint_eigs))
            if mi > max_mi:
                max_mi, worst_time = mi, t
            if len(branches) == 1 and abs(sum(weights) - 1) < 1e-9:
                neg = negativity_pure_from_marginal(np.linalg.eigvalsh(rho_s))
            elif ds * de <= 4096:
                neg = branch_negativity(branches, (ds, de))
            else:
                neg = 0.0
            max_neg = max(max_neg, neg)
            env_margs.append((env_vs, env_ws))
        for (v1, w1), (v2, w2) in itertools.combinations(env_margs, 2):
            d = _low_rank_trace_distance(v1, w1, v2, w2)
            if d > max_env_dist:
                max_env_dist, worst_time = d, t
    witnesses = {"max_mutual_information": max_mi, "max_negativity": max_neg,
                 "max_env_marginal_distance": max_env_dist,
                 "worst_time": worst_time if worst_time is not None else -1.0}
    grid = f"times={list(times)}, {len(initial_states)} initial states"
    if max(max_mi, max_env_dist) > tol:
        return CriterionReport("fa", FAIL, witnesses, tol, grid)
    if len(initial_states) < 2:
        return CriterionReport("fa", INCONCLUSIVE, witnesses, tol, grid,
                               reason="state-independence clause needs >= 2 initial states")
    return CriterionReport("fa", PASS, witnesses, tol, grid)


# ---------------------------------------------------------------------------
# Multi-time correlation functions
# ---------------------------------------------------------------------------

def multitime_correlation(model: JointModel, c_ops, times, rho_s0) -> complex:
    """Exact time-ordered correlation Tr[C_n U ... C_1 U C_0 rho_se(t0)]
    with C_j X = B_j X A_j inserted on the system at times[j].

    Evaluated as an inner product of two propagated joint vectors per
    spectral branch, so it works even for very large product baths.
    """
    if abs(times[0] - model.t0) > 1e-12:
        raise ValueError("times[0] must be the model's initial time")
    kets = [b for _, b in c_ops]
    bras = [np.asarray(a, dtype=complex).conj().T for a, _ in c_ops]
    total = 0.0 + 0.0j
    for q, s in _eig_branches(np.asarray(rho_s0, dtype=complex), 1e-14):
        for p, phi in model.env_branches():
            start = np.kron(s, phi)
            total += q * p * np.vdot(evolve(model, start, times, bras),
                                     evolve(model, start, times, kets))
    return complex(total)


def regression_prediction(model: JointModel, c_ops, times, rho_s0) -> complex:
    """The same correlation computed from system-only replaced-bath maps."""
    x = _apply_cop(c_ops[0], np.asarray(rho_s0, dtype=complex))
    for j in range(1, len(times)):
        x = generalized_map(model, times[j - 1], times[j])(x)
        x = _apply_cop(c_ops[j], x)
    return complex(np.trace(x))


def _default_rho0(ds: int) -> np.ndarray:
    v = np.ones(ds, dtype=complex) / np.sqrt(ds)
    return np.outer(v, v.conj())


def _regression_residuals(model: JointModel, cases, rho_s0):
    """(|exact - regression-predicted correlation|, times) of each
    (times, c_ops) case."""
    for times, c_ops in cases:
        lhs = multitime_correlation(model, c_ops, times, rho_s0)
        rhs = regression_prediction(model, c_ops, times, rho_s0)
        yield abs(lhs - rhs), times


def check_qrf(model: JointModel, op_pairs=None, time_pairs=((0.5, 1.0),),
              tol: float = 1e-8, rho_s0=None) -> CriterionReport:
    """Two-time regression check, both operator orderings per pair."""
    ds = model.dim_s
    if op_pairs is None:
        basis = hermitian_basis(ds)
        op_pairs = [(a, b) for a in basis for b in basis]
    op_pairs, time_pairs = list(op_pairs), list(time_pairs)
    rho_s0 = _default_rho0(ds) if rho_s0 is None else rho_s0
    ident = np.eye(ds, dtype=complex)
    # ordering <B(t2) A(t1)>: insert X -> A X at t1, trace B at t2
    # ordering <A(t1) B(t2)>: insert X -> X A at t1, trace B at t2
    cases = (((model.t0, t1, t2), [(ident, ident), c1, (ident, b)])
             for t1, t2 in time_pairs for a, b in op_pairs
             for c1 in ((ident, a), (a, ident)))
    worst, times, verdict = worst_case(_regression_residuals(model, cases, rho_s0), tol)
    witnesses = {"max_residual": worst,
                 "worst_time_pair": list(times[1:]) if times else []}
    grid = f"{len(op_pairs)} operator pairs x {len(time_pairs)} time pairs, both orderings"
    return CriterionReport("qrf", verdict, witnesses, tol, grid)


def default_gqrf_op_sets(ds: int, n_steps: int, n_sets: int = 40,
                         seed: int = 11) -> list:
    """Deterministic sample of sequences of Hermitian-basis operator pairs
    (the Paulis for a qubit)."""
    rng = np.random.default_rng(seed)
    letters = hermitian_basis(ds)
    sets = []
    ident = np.eye(ds, dtype=complex)
    sets.append([(ident, ident)] * (n_steps + 1))
    for _ in range(n_sets - 1):
        seq = []
        for _ in range(n_steps + 1):
            a = letters[rng.integers(len(letters))]
            b = letters[rng.integers(len(letters))]
            seq.append((a, b))
        sets.append(seq)
    return sets


def check_gqrf(model: JointModel, op_sets=None, time_sets=((0.5, 1.0, 1.5),),
               tol: float = 1e-8, rho_s0=None) -> CriterionReport:
    """Multi-time regression check over sequences of system-operator pairs;
    `op_sets=None` samples `default_gqrf_op_sets` for each time set."""
    rho_s0 = _default_rho0(model.dim_s) if rho_s0 is None else rho_s0
    time_sets = list(time_sets)
    if op_sets is not None:
        op_sets = list(op_sets)
        if not op_sets:
            raise ValueError("op_sets is empty; pass None for the default sequences")
    cases = [((model.t0,) + tuple(ts), seq) for ts in time_sets
             for seq in (op_sets or default_gqrf_op_sets(model.dim_s, len(ts)))]
    worst, times, verdict = worst_case(_regression_residuals(model, cases, rho_s0), tol)
    witnesses = {"max_residual": worst, "worst_times": list(times) if times else []}
    grid = f"{len(cases)} operator sequences over {len(time_sets)} time sets"
    return CriterionReport("gqrf", verdict, witnesses, tol, grid)


# ---------------------------------------------------------------------------
# Environment interventions
# ---------------------------------------------------------------------------

def check_composability(model: JointModel, time_triples, tol: float = 1e-9) -> CriterionReport:
    """Resetting the bath to its initial state at the midpoint must
    reproduce the map."""
    time_triples = list(time_triples)

    def residuals():
        for t0, t1, t2 in time_triples:
            chained = compose(generalized_map(model, t1, t2), tomograph(model, t0, t1))
            res = map_residual(tomograph(model, t0, t2), chained)
            yield res["residual"], ((t0, t1, t2), res)

    worst, at, verdict = worst_case(residuals(), tol)
    triple, details = at or ([], {})
    witnesses = {"max_residual": worst,
                 "max_entry": details.get("max_entry", 0.0),
                 "action_norm": details.get("action_norm", 0.0),
                 "worst_triple": list(triple)}
    grid = f"{len(time_triples)} time triples"
    return CriterionReport("composability", verdict, witnesses, tol, grid)


def _nib_candidate_states(model: JointModel, t1: float) -> list:
    """The model's candidates and, last, the initial bath state: a dense
    matrix, or on a bath above 64 levels its own branch list."""
    cands = list(model.nib_candidates(t1))
    branches = model.env_branches()
    if model.dim_e <= 64:
        cands.append(sum(p * np.outer(v, v.conj()) for p, v in branches))
    else:
        cands.append(branches)
    return cands


def _signed_branches(h: np.ndarray) -> list:
    """Spectral branches [(weight, vector)] of a Hermitian operator; the
    weights may be negative, which assemble_map accepts."""
    w, v = np.linalg.eigh(h)
    return [(float(w[i]), v[:, i]) for i in range(len(w)) if abs(w[i]) > 1e-12]


def _nib_coordinates(model: JointModel):
    """Affine coordinates sigma(x) = base + sum_k x_k ops[k] of the bath
    replacement states, with x in the unit ball (qubit bath: the Bloch
    vector) or in the probability simplex (register bath: the register
    populations, the only part of the state its dynamics passes on)."""
    if model.env_kind == "qubit":
        return ID2 / 2, [SX / 2, SY / 2, SZ / 2], "ball"
    de = model.dim_e
    units = [np.outer(ket(j, de), ket(j, de).conj()) for j in range(de)]
    return np.zeros((de, de), dtype=complex), units, "simplex"


def _unvec_columns(m: np.ndarray, d: int) -> np.ndarray:
    """Unvectorise every column of a (..., d*d, n) array into (..., n, d, d)."""
    n = m.shape[-1]
    return np.swapaxes(m, -1, -2).reshape(m.shape[:-2] + (n, d, d)).swapaxes(-1, -2)


class _AffineResidual:
    """The map_residual of E2 against Q(sigma(x)) E1 as a function of the
    coordinates x, which range over the unit ball or the probability
    simplex: the difference R(x) = r0 - sum_k x_k D_k is affine in x, so the
    residual, a maximum of norms of affine functions (the pieces: every
    Liouville entry and every probe output), is convex."""

    def __init__(self, r0: np.ndarray, dirs: list, d: int, feasible: str):
        self.r0, self.dirs, self.d, self.feasible = r0, np.stack(dirs), d, feasible
        self.probes = np.ascontiguousarray(_probe_stack(d).T)
        # minus the derivative of each probe output along each coordinate
        self.d_out = _unvec_columns(self.dirs @ self.probes, d)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the feasible set."""
        if self.feasible == "ball":
            return x / max(1.0, float(np.linalg.norm(x)))
        u = np.sort(x)[::-1]
        css = np.cumsum(u) - 1.0
        k = np.nonzero(u - css / np.arange(1, len(x) + 1) > 0)[0][-1]
        return np.maximum(x - css[k] / (k + 1), 0.0)

    def _pieces(self, x: np.ndarray):
        diff = self.r0 - np.tensordot(x, self.dirs, 1)
        return diff, _unvec_columns(diff @ self.probes, self.d)

    def value(self, x: np.ndarray) -> float:
        diff, outs = self._pieces(x)
        action = 0.5 * np.linalg.svd(outs, compute_uv=False).sum(-1)
        return max(float(np.max(np.abs(diff))), float(np.max(action)))

    def subgradients(self, x: np.ndarray):
        """Value f_p(x) of every piece and a subgradient g_p of each, so
        that f_p(y) >= f_p(x) + g_p.(y - x) for every y."""
        diff, outs = self._pieces(x)
        z = diff.reshape(-1)
        az = np.abs(z)
        # |z|: Re(conj z dz)/|z|, with dz = -D_k; zero is a subgradient at z = 0,
        # and is taken at subnormal |z| too, where z/|z| overflows
        phase = np.divide(z, az, out=np.zeros_like(z), where=az >= np.finfo(float).tiny)
        g_entry = -np.real(phase.conj() * self.dirs.reshape(len(x), -1))
        # 0.5 ||O||_1 with O = U S V^dag: 0.5 Re Tr(V U^dag dO)
        u, s, vh = np.linalg.svd(outs)
        g_action = -0.5 * np.real(np.einsum("pij,kpij->kp", (u @ vh).conj(), self.d_out))
        return (np.concatenate([az, 0.5 * s.sum(-1)]),
                np.concatenate([g_entry, g_action], axis=1).T)

    def lower_bound(self, x: np.ndarray) -> float:
        """Largest subgradient cut at x over all pieces: the residual is at
        least f_p(y), so its minimum over the ball is >= f_p(x) - g_p.x - |g_p|
        and over the simplex >= f_p(x) - g_p.x + min_j (g_p)_j."""
        f, g = self.subgradients(x)
        floor = -np.linalg.norm(g, axis=1) if self.feasible == "ball" else np.min(g, axis=1)
        cut = float(np.max(f - g @ x + floor))
        if not math.isfinite(cut):
            raise FloatingPointError(f"non-finite subgradient cut {cut} at {x}")
        return cut


def _check_nib_convex(model: JointModel, time_triple, cands, tol: float) -> CriterionReport:
    t0, t1, t2 = time_triple
    e2, e1 = tomograph(model, t0, t2), tomograph(model, t0, t1)
    base, ops, feasible = _nib_coordinates(model)

    def chained(op):
        return assemble_map(model, _signed_branches(op), (t1, t2), (None, None)).mat @ e1.mat

    res = _AffineResidual(e2.mat - chained(base), [chained(op) for op in ops],
                          model.dim_s, feasible)
    norms = [float(np.real(np.trace(op @ op))) for op in ops]
    centre = np.zeros(len(ops)) if feasible == "ball" else np.full(len(ops), 1.0 / len(ops))
    seeds = [centre]
    for sigma in cands:
        if isinstance(sigma, list):
            sigma = sum(p * np.outer(v, v.conj()) for p, v in sigma)
        x = [np.real(np.trace(sigma @ op)) / n for op, n in zip(ops, norms)]
        seeds.append(res.project(np.array(x)))
    values = [res.value(x) for x in seeds]
    best = int(np.argmin(values))
    x, fx, n_evals = seeds[best], values[best], len(seeds)
    cut = res.lower_bound(x)
    # search only while the seed fails and the cut leaves a gap to close
    searched = fx > tol and fx - cut > 1e-12
    if searched:
        import scipy.optimize
        opt = scipy.optimize.minimize(lambda y: res.value(res.project(y)), x,
                                      method="Nelder-Mead",
                                      options={"xatol": 1e-6, "fatol": 1e-12,
                                               "maxiter": 400})
        n_evals += opt.nfev
        y = res.project(opt.x)
        fy = res.value(y)
        if fy < fx:
            x, fx, cut = y, fy, res.lower_bound(y)
    sigma = base + sum(c * op for c, op in zip(x, ops))
    best_res = map_residual(e2, compose(replacement_map(model, t1, t2, sigma), e1))
    lower = max(0.0, min(cut, best_res["residual"]))
    verdict = PASS if best_res["residual"] <= tol else FAIL
    witnesses = {"min_residual": best_res["residual"],
                 "max_entry": best_res["max_entry"],
                 "action_norm": best_res["action_norm"],
                 "lower_bound": lower,
                 "best_sigma_diag": [float(np.real(sigma[i, i])) for i in range(len(sigma))]}
    where = "Bloch ball" if feasible == "ball" else "population simplex"
    grid = (f"triple={list(time_triple)}, convex residual over the {where}: "
            f"{len(seeds)} seeds{' + Nelder-Mead' if searched else ''}, "
            f"{n_evals} evaluations")
    if verdict == FAIL:
        grid += ("; fail certified by a subgradient lower bound above tolerance"
                 if lower > tol else "; fail not certified: lower bound within tolerance")
    return CriterionReport("nib", verdict, witnesses, tol, grid)


def check_nib(model: JointModel, time_triple=(0.0, 1.0, 2.0),
              tol: float = 1e-8) -> CriterionReport:
    """Search for a bath replacement state at t1 that reproduces the map to
    t2. For qubit and register baths the residual is convex in the state:
    it is minimised from a few seeds, and a subgradient cut at the minimiser
    gives the witness lower_bound, which certifies a fail when it exceeds
    the tolerance. Other baths try only the model's candidate states, so
    their fails are not certified, and the report says so."""
    cands = _nib_candidate_states(model, time_triple[1])
    if model.env_kind in ("qubit", "register"):
        return _check_nib_convex(model, time_triple, cands, tol)
    t0, t1, t2 = time_triple
    e2, e1 = tomograph(model, t0, t2), tomograph(model, t0, t1)
    best_res, best_sigma = None, None
    for sigma in cands:
        # a branch list is the initial bath: its map is the replaced-bath map
        emap = (generalized_map(model, t1, t2) if isinstance(sigma, list)
                else replacement_map(model, t1, t2, sigma))
        res = map_residual(e2, compose(emap, e1))
        if best_res is None or res["residual"] < best_res["residual"]:
            best_res, best_sigma = res, sigma
    witnesses = {"min_residual": best_res["residual"],
                 "max_entry": best_res["max_entry"],
                 "action_norm": best_res["action_norm"],
                 "n_candidates": float(len(cands))}
    grid = (f"triple={list(time_triple)}, {len(cands)} candidate states only; "
            f"a fail is not certified")
    verdict = PASS if best_res["residual"] <= tol else FAIL
    report = CriterionReport("nib", verdict, witnesses, tol, grid)
    if isinstance(best_sigma, np.ndarray) and best_sigma.shape[0] <= 16:
        report.witnesses["best_sigma_diag"] = [float(np.real(best_sigma[i, i]))
                                               for i in range(best_sigma.shape[0])]
    return report


def _intervened_map(model: JointModel, time_triple, povm, states) -> SuperOperator:
    """Map to t2 when the bath is measured with the POVM {F_k} at t1 and
    re-prepared in s_k: the sum over outcomes of the replacement map of s_k
    after the map to t1 read through the effect F_k."""
    t0, t1, t2 = time_triple
    m = sum(replacement_map(model, t1, t2, np.asarray(s, dtype=complex)).mat
            @ assemble_map(model, model.env_branches(), (t0, t1), (None, None), f).mat
            for f, s in zip(povm, states))
    return SuperOperator(m, model.dim_s)


def check_nqib(model: JointModel, time_triple, breaking_channel,
               tol: float = 1e-9) -> CriterionReport:
    """Verify that a supplied measure-and-prepare intervention on the bath
    at t1 leaves the map to t2 unchanged. Only the supplied channel is
    tested; searching over all entanglement-breaking channels is out of
    scope, so a missing channel yields inconclusive."""
    t0, t1, t2 = time_triple
    if breaking_channel is None:
        return CriterionReport("nqib", INCONCLUSIVE, {}, tol,
                               f"triple={list(time_triple)}",
                               reason="no entanglement-breaking channel supplied")
    povm, states = breaking_channel
    de = model.dim_e
    if model.dim_s * de > 4096:
        return CriterionReport("nqib", INCONCLUSIVE, {}, tol,
                               f"triple={list(time_triple)}",
                               reason="joint dimension too large for the dense channel check")
    acc = np.zeros((de, de), dtype=complex)
    for f in povm:
        f = np.asarray(f)
        if np.min(np.linalg.eigvalsh((f + f.conj().T) / 2)) < -1e-10:
            raise ValueError("POVM element not positive semidefinite")
        acc += f
    if np.max(np.abs(acc - np.eye(de))) > 1e-9:
        raise ValueError("POVM does not resolve the identity")
    for s in states:
        DensityOperator(np.asarray(s), psd_tol=1e-8)

    e_target = tomograph(model, t0, t2)
    res = map_residual(e_target, _intervened_map(model, time_triple, povm, states))
    witnesses = {"residual": res["residual"], "max_entry": res["max_entry"],
                 "action_norm": res["action_norm"]}
    grid = f"triple={list(time_triple)}, supplied channel with {len(povm)} outcomes"
    verdict = PASS if res["residual"] <= tol else FAIL
    return CriterionReport("nqib", verdict, witnesses, tol, grid)


# ---------------------------------------------------------------------------
# Map-family criteria
# ---------------------------------------------------------------------------

def check_divisibility(family, tol: float = 1e-9) -> CriterionReport:
    """Intermediate maps between consecutive grid times must be CP."""
    min_eig, worst_interval = np.inf, None
    inconclusive_at = []
    for (ta, ea), (tb, eb) in zip(family[:-1], family[1:]):
        inter = intermediate_map(eb, ea, tol=max(tol, 1e-7))
        if not inter.divisible_as_linear_map:
            inconclusive_at.append([ta, tb])
            continue
        diag = is_cptp(inter.map, tol)
        if diag.min_choi_eig < min_eig:
            min_eig, worst_interval = diag.min_choi_eig, (ta, tb)
    d = family[0][1].dim
    witnesses = {"min_choi_eig": float(min_eig),
                 "worst_interval": list(worst_interval) if worst_interval else [],
                 "n_inconclusive_intervals": float(len(inconclusive_at))}
    grid = f"{len(family)} grid maps, consecutive intervals"
    if min_eig < -tol * d:
        return CriterionReport("divisibility", FAIL, witnesses, tol, grid)
    if inconclusive_at:
        return CriterionReport("divisibility", INCONCLUSIVE, witnesses, tol, grid,
                               reason=f"singular map at intervals {inconclusive_at}")
    return CriterionReport("divisibility", PASS, witnesses, tol, grid)


def check_semigroup(map_at: Callable[[float], SuperOperator], pairs,
                    tol: float = 1e-9) -> CriterionReport:
    """Duration-composition identity E(r+s) = E(r)E(s) on supplied pairs."""
    pairs = list(pairs)
    worst, pair, verdict = worst_case(
        ((map_residual(map_at(r + s), compose(map_at(r), map_at(s)))["residual"], (r, s))
         for r, s in pairs), tol)
    witnesses = {"max_residual": worst, "worst_pair": list(pair) if pair else []}
    grid = f"{len(pairs)} duration pairs"
    return CriterionReport("semigroup", verdict, witnesses, tol, grid)


def check_distinguishability(family, state_pairs=None, w_grid=None,
                             tol: float = 1e-9, seed: int = 23,
                             n_pairs: int = 25) -> CriterionReport:
    """Helstrom bias norm must be non-increasing along the grid for every
    supplied state pair and prior weight.

    Each grid map is applied once to each state of every pair; the bias
    operators w*E(rho) - (1-w)*E(sigma) of every pair, weight and time form
    one stack whose trace norms are taken in one `trace_norms` call. The
    witness is the largest rise between consecutive grid times, at the first
    place it occurs in (pair, weight, time) order; a pass reports 0 and no
    place."""
    d = family[0][1].dim
    if state_pairs is None:
        rng = np.random.default_rng(seed)
        state_pairs = []
        for _ in range(n_pairs):
            u, v = random_pure(d, rng), random_pure(d, rng)
            state_pairs.append((np.outer(u, u.conj()), np.outer(v, v.conj())))
        # fixed stress pairs: orthogonal computational and superposition states
        state_pairs.append((np.outer(ket(0, d), ket(0, d).conj()),
                            np.outer(ket(d - 1, d), ket(d - 1, d).conj())))
        up = np.ones(d, dtype=complex) / np.sqrt(d)
        dn = up.copy(); dn[1::2] *= -1
        state_pairs.append((np.outer(up, up.conj()), np.outer(dn, dn.conj())))
    state_pairs = list(state_pairs)
    w_grid = list(np.arange(0.1, 0.95, 0.1) if w_grid is None else w_grid)
    # [pair, state, time, d, d]
    images = np.array([[[emap(x) for _, emap in family] for x in pair]
                       for pair in state_pairs]).reshape(len(state_pairs), 2,
                                                         len(family), d, d)
    w = np.array(w_grid, dtype=float).reshape(1, -1, 1, 1, 1)
    # [pair, weight, time]
    norms = trace_norms(w * images[:, None, 0] - (1 - w) * images[:, None, 1])
    rises = norms[..., 1:] - norms[..., :-1]
    rises = np.where(rises > 0.0, rises, 0.0)   # a strict > scan skips falls and NaN
    max_increase, worst = float(rises.max(initial=0.0)), []
    if max_increase > 0.0:
        _, k, j = np.unravel_index(np.argmax(rises), rises.shape)
        worst = [family[j + 1][0], float(w_grid[k])]
    witnesses = {"max_increase": max_increase, "worst": worst}
    grid = (f"{len(state_pairs)} state pairs x {len(w_grid)} weights "
            f"x {len(family)} grid times")
    verdict = PASS if max_increase <= tol else FAIL
    return CriterionReport("distinguishability", verdict, witnesses, tol, grid)


# ---------------------------------------------------------------------------
# Dynamical-decoupling criteria
# ---------------------------------------------------------------------------

def check_fdd(model: JointModel, pulse_sequences, tol: float = 1e-9) -> CriterionReport:
    """Pulse sequences must commute through the dynamics as a chain of
    replaced-bath maps interleaved with the pulses: each segment starts from
    the bath in its initial state, so the first one is the map from t0."""
    from .superop import identity_superop, unitary_superop
    pulse_sequences = list(pulse_sequences)

    def residuals():
        for seq_idx, (pulses, times) in enumerate(pulse_sequences):
            chain, tcur = None, model.t0
            for pulse, tk in zip(pulses, times):
                step = compose(unitary_superop(np.asarray(pulse, dtype=complex)),
                               generalized_map(model, tcur, tk))
                chain = step if chain is None else compose(step, chain)
                tcur = tk
            if chain is None:
                chain = identity_superop(model.dim_s)
            yield map_residual(dd_apply(model, pulses, times), chain)["residual"], seq_idx

    worst, seq_idx, verdict = worst_case(residuals(), tol)
    witnesses = {"max_residual": worst,
                 "worst_sequence_index": float(-1 if seq_idx is None else seq_idx)}
    grid = f"{len(pulse_sequences)} pulse sequences"
    return CriterionReport("fdd", verdict, witnesses, tol, grid)


def dd_effectiveness(model: JointModel, pulses, times, reference=None) -> dict:
    """Purity gained by a pulse sequence relative to free evolution, for a
    reference pure input state."""
    ds = model.dim_s
    if reference is None:
        v = np.ones(ds, dtype=complex) / np.sqrt(ds)
        reference = np.outer(v, v.conj())
    t_end = times[-1]
    hahn = dd_apply(model, pulses, times)
    free = dd_apply(model, [], [], t_end=t_end)
    p_hahn = purity(hahn(reference))
    p_free = purity(free(reference))
    return {"purity_hahn": p_hahn, "purity_free": p_free,
            "purity_gain": p_hahn - p_free}


# ---------------------------------------------------------------------------
# Hierarchy report
# ---------------------------------------------------------------------------

HIERARCHY_EDGES = [
    ("fa", "qrf"), ("fa", "gqrf"), ("gqrf", "qrf"),
    ("qrf", "composability"), ("composability", "nib"), ("nib", "nqib"),
    ("nib", "divisibility"), ("divisibility", "distinguishability"),
    ("gqrf", "fdd"),
]


@dataclasses.dataclass
class HierarchyReport:
    model: str
    reports: dict
    implications: list
    consistent: bool
    extras: dict

    def to_dict(self) -> dict:
        return {"model": self.model,
                "reports": {k: r.to_dict() for k, r in self.reports.items()},
                "implications": self.implications,
                "consistent": self.consistent,
                "extras": self.extras}


def _check_implications(reports: dict) -> tuple[list, bool]:
    rows, consistent = [], True
    for strong, weak in HIERARCHY_EDGES:
        if strong not in reports or weak not in reports:
            continue
        vs, vw = reports[strong].verdict, reports[weak].verdict
        if vs == PASS and vw == FAIL:
            status = "violated"
            consistent = False
        elif INCONCLUSIVE in (vs, vw):
            status = "not-applicable"
        else:
            status = "respected"
        rows.append({"edge": f"{strong}->{weak}", "strong": vs, "weak": vw,
                     "status": status})
    return rows, consistent


def hierarchy_report(model, seed: int = 23) -> HierarchyReport:
    """Run every checker a preset model declares in MODEL_SETTINGS and
    verify that no implication edge is violated by the verdicts."""
    if isinstance(model, str):
        from .models import make_model
        model = make_model(model)
    reports = run_criteria(model, criterion_settings(model), seed)
    extras = MODEL_SETTINGS[model.name].get("extras", lambda m: {})(model)
    implications, consistent = _check_implications(reports)
    return HierarchyReport(model.name, reports, implications, consistent, extras)


def _collision_past_channel(model, t1):
    """Measure the already-used ancillas projectively and re-prepare the
    measured state with fresh states on the untouched slots."""
    k_past = int(np.searchsorted(model.slot_times, t1 - 1e-9))
    da, n = model.dim_a, model.n_slots
    anc = model.ancilla_vector()
    fresh_future = None
    for _ in range(n - k_past):
        blk = np.outer(anc, anc.conj())
        fresh_future = blk if fresh_future is None else np.kron(fresh_future, blk)
    povm, states = [], []
    for idx in itertools.product(range(da), repeat=k_past):
        proj = None
        for i in idx:
            p = np.outer(ket(i, da), ket(i, da).conj())
            proj = p if proj is None else np.kron(proj, p)
        povm.append(np.kron(proj, np.eye(da ** (n - k_past))))
        states.append(np.kron(proj, fresh_future))
    return povm, states


def _check_pu(model, times, tol: float) -> CriterionReport:
    """The register-basis pure unravelling's exact branch sum must reproduce
    the map's output at every time."""
    from .unravel import mean_deviation_from_map, static_unravel
    ens = static_unravel(model, times=times)
    dev = mean_deviation_from_map(ens, model, _default_rho0(model.dim_s), times)
    return CriterionReport("pu", PASS if dev <= tol else FAIL, {"mean_deviation": dev},
                           tol, "register-basis unravelling, exact branch sum")


# ---------------------------------------------------------------------------
# Declared checker settings
# ---------------------------------------------------------------------------

CRITERIA = ("fa", "qrf", "gqrf", "composability", "nib", "nqib",
            "divisibility", "semigroup", "distinguishability", "fdd")

_ENV_BASED = ("fa", "qrf", "gqrf", "composability", "nib", "nqib", "fdd")

# the fields a given window time replaces, and that count slot boundaries
# on a model with `slots`
_TIME_FIELDS = ("times", "time_pairs", "time_sets", "triples", "triple", "sequences")

_X = PAULIS["X"]
_ECHO = ((_X, _X), (0.5, 1.0))      # pulses and pulse times of a Hahn echo

# The context each preset's verdicts are reached in: times, tolerances and
# operator sets only. Every map a checker reads comes from the model's own
# dynamics (`tomograph`, `generalized_map`), never from a closed form. Per
# model: the map-family grid, a `tol` for every criterion without its own
# (declared or not), `slots` where times (and durations) are slot numbers
# read through `model.slot_times`, and the hierarchy report's `extras`. Per
# criterion: its times, tolerance, and operator or pulse sets ("random": a
# Haar unitary drawn from the run's seed). Times without `slots` are offsets
# from the model's initial time; durations (`pairs`) are durations.
MODEL_SETTINGS = {
    "collision": dict(
        slots=True, tol=1e-9, grid=(0, 1, 2, 3, 4, 5, 6),
        fa=dict(times=(1, 2), tol=1e-7),
        qrf=dict(time_pairs=((1, 2), (1, 3), (2, 4))),
        gqrf=dict(time_sets=((1, 2, 3),)),
        composability=dict(triples=((0, 1, 2), (0, 2, 4), (0, 3, 6))),
        nib=dict(triple=(0, 2, 4)),
        nqib=dict(triple=(0, 2, 4), channel=_collision_past_channel),
        divisibility={}, distinguishability={},
        semigroup=dict(pairs=((1, 1), (1, 2), (2, 3))),
        fdd=dict(sequences=((("random",) * 3, (1, 2, 3)), ((_X, _X), (1, 2))))),
    "afl": dict(
        tol=1e-5,    # no lower: the quadrature error of the discretized bath
        grid=np.arange(0.0, 2.01, 0.25),
        fa=dict(times=(0.25, 0.5), tol=1e-7),
        qrf=dict(time_pairs=((0.2, 0.5), (0.2, 1.0), (0.5, 1.0))),
        gqrf=dict(time_sets=((0.5, 1.0, 1.5),)),
        composability=dict(triples=((0.0, 0.5, 1.0), (0.0, 0.2, 0.7))),
        nib=dict(triple=(0.0, 0.5, 1.0)),
        divisibility={}, distinguishability={},
        semigroup=dict(pairs=((0.2, 0.3), (0.5, 0.5), (0.5, 1.0))),
        fdd=dict(sequences=(_ECHO,)),
        extras=lambda model: {"echo_effect": dd_effectiveness(model, *_ECHO)}),
    "tam": dict(
        grid=(0.0, 0.5, 1.0, 1.5, 2.0),
        fa=dict(times=(0.5, 1.0), tol=1e-7),
        qrf=dict(time_pairs=((0.5, 1.0), (1.0, 2.0)), tol=1e-8),
        gqrf=dict(time_sets=((0.5, 1.0, 1.5),), tol=1e-8),
        composability=dict(triples=((0.0, 0.5, 1.0), (0.0, 1.0, 2.0)), tol=1e-8),
        nib=dict(triple=(0.0, 1.0, 2.0), tol=1e-4),
        divisibility=dict(tol=1e-7),
        semigroup=dict(pairs=((0.5, 0.5), (0.5, 1.0), (1.0, 1.0)), tol=1e-9),
        distinguishability=dict(tol=1e-9)),
    "nqib": dict(
        grid=np.linspace(0.0, 2 * math.pi, 9),
        fa=dict(times=(math.pi / 2, math.pi), tol=1e-7),
        qrf=dict(time_pairs=((math.pi, 2 * math.pi),), tol=1e-9),
        composability=dict(triples=((0.0, math.pi, 2 * math.pi),), tol=1e-9),
        nib=dict(triple=(0.0, math.pi, 2 * math.pi), tol=1e-6),
        nqib=dict(triple=(0.0, math.pi, 2 * math.pi), tol=1e-9),
        divisibility=dict(tol=1e-7),
        distinguishability=dict(tol=1e-9),
        extras=lambda model: {"max_negativity_over_time": float(max(
            branch_negativity(model.joint_branches(_default_rho0(2), t), (2, 2), psd_tol=1e-8)
            for t in np.linspace(0.0, 2 * math.pi, 21)[1:]))}),
    "static-dephasing": dict(
        tol=1e-9, grid=np.arange(0.0, 2.01, 0.25),
        fa=dict(times=(0.5, 1.0), tol=1e-7),
        qrf=dict(time_pairs=((0.4, 0.9), (0.6, 1.1))),
        gqrf=dict(time_sets=((0.4, 0.8, 1.2),)),
        composability=dict(triples=((0.0, 0.4, 0.9), (0.0, 0.7, 1.3))),
        nib=dict(triple=(0.0, 0.7, 1.3), tol=1e-6),
        divisibility=dict(tol=1e-7), distinguishability={},
        fdd=dict(sequences=(_ECHO,), tol=1e-7),
        pu=dict(times=(0.5, 1.0), tol=1e-12),
        extras=lambda model: {"spin_echo": dd_effectiveness(model, *_ECHO)}),
    "eternal": dict(
        tol=1e-9, grid=np.arange(0.0, 3.01, 0.5),
        divisibility={}, distinguishability={},
        semigroup=dict(pairs=((0.5, 0.5), (0.5, 1.0), (1.0, 2.0)))),
}

# tolerance of a criterion that neither the model nor its entry sets
_WINDOW_TOL = dict(fa=1e-7, qrf=1e-8, gqrf=1e-8, composability=1e-8, nib=1e-6,
                   nqib=1e-9, divisibility=1e-9, semigroup=1e-9,
                   distinguishability=1e-9, fdd=1e-7)


def _window(t0: float, t1: float, t2: float) -> dict:
    """Settings of every criterion on the single window t0 < t1 < t2."""
    return dict(fa=dict(times=(t1, t2)),
                qrf=dict(time_pairs=((t1, t2),)),
                gqrf=dict(time_sets=((t1, (t1 + t2) / 2, t2),)),
                composability=dict(triples=((t0, t1, t2),)),
                nib=dict(triple=(t0, t1, t2)),
                nqib=dict(triple=(t0, t1, t2)),
                semigroup=dict(pairs=((0.5, 0.5), (0.5, 1.0), (1.0, 1.0))),
                fdd=dict(sequences=(((_X, _X), ((t0 + t2) / 2, t2)),)))


def _model_times(value, t0: float, slot_times):
    """Declared times, also nested in tuples, as times of the model: slot
    numbers read through `slot_times` (a number beyond them is a
    ValueError), or offsets from the initial time t0 where `slot_times` is
    None."""
    if isinstance(value, tuple):
        return tuple(_model_times(v, t0, slot_times) for v in value)
    if slot_times is None:
        return t0 + value if isinstance(value, (int, float)) else value
    if isinstance(value, int):
        if not 0 <= value < len(slot_times):
            raise ValueError(f"slot {value} is beyond the model's slots: "
                             f"n_slots = {len(slot_times) - 1}")
        return float(slot_times[value])
    return value


def criterion_settings(model, names=None, times=(None, None, None), grid=None,
                       tol=None) -> dict:
    """Settings of each named criterion (default: every one the preset model
    declares) on the model, declared times read through `_model_times`. A
    criterion the model does not declare runs on the window t0, t1, t2 =
    `times`, each model.t0 + 0, 1, 2 where not given; a given time puts that
    window's times in place of a declared entry's. `grid` replaces the
    map-family grid and `tol` every tolerance. Every map is read from the
    model's initial time, so a given t0 other than `model.t0` is a
    ValueError."""
    t0 = model.t0
    if times[0] is not None and abs(float(times[0]) - t0) > 1e-12:
        raise ValueError(f"t0 = {times[0]}: maps are defined from the model's "
                         f"initial time {t0}")
    table = MODEL_SETTINGS[model.name]
    if names is None:
        names = [k for k in CRITERIA + ("pu",) if k in table]
    window = _window(*(t0 + d if t is None else float(t)
                       for t, d in zip(times, (0.0, 1.0, 2.0))))
    slots = model.slot_times if table.get("slots") else None
    if grid is None:
        grid = _model_times(tuple(table["grid"]), t0, slots)
    out = {}
    for name in names:
        s = dict(table[name] if name in table else window.get(name, {}))
        if name in table:
            s.update({k: _model_times(v, t0, slots) for k, v in s.items() if k in _TIME_FIELDS})
            if slots is not None and "pairs" in s:
                s["pairs"] = _model_times(s["pairs"], 0.0, slots - slots[0])
        if any(t is not None for t in times):
            s.update((k, v) for k, v in window.get(name, {}).items() if k in _TIME_FIELDS)
        default = s.get("tol", table.get("tol", _WINDOW_TOL.get(name)))
        s["tol"] = default if tol is None else tol
        s["grid"] = list(grid)
        out[name] = s
    return out


def run_criteria(model, settings: dict, seed: int) -> dict:
    """Run each criterion of `settings` (as criterion_settings resolves
    them) on the model: name -> report. The run keeps one map store, so
    each map `generalized_map` reads of the model is built once in it."""
    token = _RUN_MAPS.set((model, {}))
    try:
        return {name: run_criterion(name, model, s, seed) for name, s in settings.items()}
    finally:
        _RUN_MAPS.reset(token)


def run_criterion(name: str, model, settings: dict, seed: int) -> CriterionReport:
    """Run one criterion's checker on a model at the settings that
    criterion_settings resolved for it."""
    s, tol = settings, settings["tol"]
    if isinstance(model, MapFamilyModel) and name in _ENV_BASED:
        return CriterionReport(name, INCONCLUSIVE, {}, tol, "none",
                               reason="model is specified by its map family alone")
    if name == "fa":
        return check_fa(model, times=s["times"], tol=tol)
    if name == "qrf":
        return check_qrf(model, time_pairs=s["time_pairs"], tol=tol)
    if name == "gqrf":
        return check_gqrf(model, time_sets=s["time_sets"], tol=tol)
    if name == "composability":
        return check_composability(model, s["triples"], tol)
    if name == "nib":
        return check_nib(model, s["triple"], tol=tol)
    if name == "nqib":
        t1 = s["triple"][1]
        channel = (s["channel"](model, t1) if "channel" in s else
                   model.breaking_channel(t1) if hasattr(model, "breaking_channel") else None)
        return check_nqib(model, s["triple"], channel, tol)
    if name == "divisibility":
        return check_divisibility(map_family(model, s["grid"]), tol)
    if name == "semigroup":
        return check_semigroup(lambda tau: map_family(model, [model.t0 + tau])[0][1],
                               s["pairs"], tol)
    if name == "distinguishability":
        return check_distinguishability(map_family(model, s["grid"]), seed=seed, tol=tol)
    if name == "fdd":
        from .core import random_unitary
        rng = np.random.default_rng(seed)
        seqs = [([random_unitary(model.dim_s, rng) if isinstance(p, str) else p
                  for p in pulses], list(ts)) for pulses, ts in s["sequences"]]
        return check_fdd(model, seqs, tol)
    if name == "pu":
        return _check_pu(model, s["times"], tol)
    raise KeyError(name)
