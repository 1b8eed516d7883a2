"""Executable Markovianity criterion checkers.

Each checker maps a model (or a family of dynamical maps) to a
CriterionReport carrying a pass / fail / inconclusive verdict together with
the numerical witnesses that justify it. A report can only say "fail" when
at least one witness exceeds the tolerance it was tested against, and every
"inconclusive" carries a reason string. Any finite time grid only samples
the underlying quantified-over-all-times definitions; the grid descriptor
in the report records exactly what was sampled.

`qrf`, `gqrf`, `composability` and `nib` on a product bath sample times
only: at each time tuple they contract one process difference, the Gram
matrix of a propagation tree's bath leaves minus a Kronecker product of
replaced-bath maps, with their insertions. Every time tuple must start at
the model's initial time and never decrease.

Every map from a joint model's initial bath comes from `generalized_map`,
which builds each (t1, t2) map, like each difference, once per `run_criteria`
run (the run loop of `hierarchy_report` and `analyze`), or per `qrf`/`gqrf`
call made outside a run, and keeps nothing after it.
`replacement_map` resets the bath to any Hermitian operator instead. `nib`
seeds from the initial bath state, and `nqib` tests the channel of the
model's own `breaking_channel`.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import functools
import itertools
import math
from typing import Callable

import numpy as np

from .core import (DensityOperator, ID2, SX, SY, SZ, branch_negativity,
                   hermitian_basis, ket, negativity, purity, support_eigh,
                   trace_norms, vn_entropy, random_pure, random_unitary)
from .models import (DENSE_JOINT_LIMIT, JointModel, MapFamilyModel, _start_stack,
                     assemble_map, check_pulses, check_times, dd_apply, evolve)
from .superop import (SuperOperator, compose, intermediate_map, is_cptp,
                      vec)

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


def _listed(values, name: str, least: int = 1) -> list:
    """A checker's cases as a list, read once; fewer than `least` is a
    ValueError, as a check over none would pass without testing anything."""
    values = list(values)
    if len(values) < least:
        raise ValueError(f"{len(values)} {name} given, at least {least} needed: "
                         "the check would pass without testing anything")
    return values


# ---------------------------------------------------------------------------
# Map extraction
# ---------------------------------------------------------------------------

# (model, {(t1, t2): map, ("difference", times): array}) set by `run_criteria`
_RUN_MAPS = contextvars.ContextVar("run_maps", default=(None, None))


def _from_t0(model: JointModel, times) -> tuple:
    """times, after checking that they start at the model's initial time
    and do not decrease."""
    times = tuple(times)
    if abs(times[0] - model.t0) > 1e-12:
        raise ValueError(f"maps are defined from the model's initial time {model.t0}")
    check_times(model, times)
    return times


def tomograph(model: JointModel, t0: float, t: float) -> SuperOperator:
    """Dynamical map from t0 to t, reconstructed by evolving the matrix-unit
    basis tensored with the initial bath state and tracing the bath out."""
    return generalized_map(model, *_from_t0(model, (t0, t)))


@contextlib.contextmanager
def _map_store(model):
    """Keep one map store for the model while the block runs, unless one is
    kept for it already: each of the model's maps and differences is then
    built once in it. The store ends with the outermost block."""
    if _RUN_MAPS.get()[0] is model:
        yield
        return
    token = _RUN_MAPS.set((model, {}))
    try:
        yield
    finally:
        _RUN_MAPS.reset(token)


def _stored(model, key, build):
    """build(), kept under key in the model's map store while one is open."""
    run_model, store = _RUN_MAPS.get()
    store = store if model is run_model else {}
    if key not in store:
        store[key] = build()
    return store[key]


def generalized_map(model: JointModel, t1: float, t2: float) -> SuperOperator:
    """Replaced-bath map: the bath is reset at t1 to its initial state
    before the joint propagation to t2 (the model is written in the bath's
    interaction picture, where that state does not evolve freely). Within a
    `run_criteria` run on this model, or a `qrf` or `gqrf` call, each
    (t1, t2) map is built once."""
    return _stored(model, (t1, t2), lambda: assemble_map(model, model.env_branches(),
                                                         (t1, t2), (None, None)))


def replacement_map(model: JointModel, t1: float, t2: float,
                    sigma_e: np.ndarray) -> SuperOperator:
    """Map generated by resetting the bath to the Hermitian operator sigma_e
    at t1, which is linear in it: a state, or one of the signed coordinate
    operators of `nib`'s convex search. It is decomposed on its support."""
    sigma_e = np.asarray(sigma_e, dtype=complex)
    w, v = support_eigh((sigma_e + sigma_e.conj().T) / 2)
    branches = [(float(w[i]), v[:, i]) for i in range(len(w)) if abs(w[i]) > 1e-12]
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


def difference_residual(diff: np.ndarray) -> dict:
    """Two residuals of a map difference's Liouville matrix: max absolute
    entry and the worst trace distance of outputs over a fixed probe set."""
    d = math.isqrt(len(diff))
    max_entry = float(np.max(np.abs(diff)))
    # one matrix-vector product per probe; each output unvectorised
    outs = (diff @ _probe_stack(d)[..., None]).reshape(-1, d, d).swapaxes(-1, -2)
    action = max([0.0, *(0.5 * trace_norms(outs)).tolist()])
    return {"max_entry": max_entry, "action_norm": action,
            "residual": max(max_entry, action)}


def map_residual(s1: SuperOperator, s2: SuperOperator) -> dict:
    """`difference_residual` of s1 - s2."""
    return difference_residual(s1.mat - s2.mat)


# ---------------------------------------------------------------------------
# Factorization check
# ---------------------------------------------------------------------------

def _span_coordinates(vectors: list[np.ndarray]) -> np.ndarray:
    """Coordinates of k vectors in an orthonormal basis of their span, as
    the columns of a min(n, k) x k matrix R: the R of a Householder QR of
    the stacked vectors, [v_1 ... v_k] = Q R. Every reflection is applied
    to every vector, so equal vectors get bitwise equal columns, and only
    elementwise products and sums are used, so no BLAS or LAPACK call grows
    with the ambient dimension n. A zero column (rank deficiency) is
    skipped."""
    a = np.array(vectors, dtype=complex)        # row c is v_c
    k, n = a.shape
    m = min(n, k)
    for j in range(m):
        v = a[j, j:].copy()
        norm = math.sqrt(float(np.sum(v.real * v.real + v.imag * v.imag)))
        if norm == 0.0:
            continue
        head = abs(v[0])
        v[0] += norm * (v[0] / head if head else 1.0)
        # u -> u - 2 v <v|u> / <v|v> on coordinates j: of every vector
        rest = a[:, j:]
        rest -= (np.sum(v.conj() * rest, axis=1) / (norm * (norm + head)))[:, None] * v
    return a[:, :m].T


def check_fa(model: JointModel, initial_states=None, times=(0.5, 1.0),
             tol: float = 1e-7) -> CriterionReport:
    """Factorization check: the joint state must stay a product of the
    reduced state with a bath state that is the same for every initial
    system state. Product structure is decided by mutual information (zero
    iff product); entanglement negativity is reported as an extra witness.

    Every clause at a time t is read from one coordinate map: the bath rows
    v.reshape(ds, de)[i] of every branch of every initial state (state, then
    branch, then row i) get their coordinates in their span
    (`_span_coordinates`), so branch k of weight w_k becomes a ds x rank
    matrix M_k. The isometry onto the span acts on the bath alone, so it
    keeps every spectrum, the negativity and every trace distance, and no
    matrix of the bath's size is formed. A state's system marginal is
    sum_k w_k M_k M_k^H, its bath marginal C W C^H over its columns C, and
    its joint state sum_k w_k vec(M_k) vec(M_k)^H.
    """
    ds = model.dim_s
    times = _listed(times, "times")
    if initial_states is None:
        initial_states = [_default_rho0(ds), np.outer(ket(0, ds), ket(0, ds).conj())]
    initial_states = _listed(initial_states, "initial states")
    max_mi, max_neg, max_env_dist = 0.0, 0.0, 0.0
    worst_time = None
    for t in times:
        per_state = [model.joint_branches(rho0, t) for rho0 in initial_states]
        r = _span_coordinates([row for branches in per_state for _, v in branches
                               for row in v.reshape(ds, -1)])
        env_margs, start = [], 0
        for branches in per_state:
            w = np.array([wk for wk, _ in branches])
            cols = r[:, start:start + ds * len(w)]
            start += ds * len(w)
            mats = cols.T.reshape(len(w), ds, -1)
            rho_s = sum(wk * (m @ m.conj().T) for wk, m in zip(w, mats))
            env = (cols * np.repeat(w, ds)) @ cols.conj().T
            joint = DensityOperator(sum(wk * np.outer(m, m.conj()) for wk, m in zip(w, mats)),
                                    (ds, r.shape[0]), psd_tol=1e-7)
            mi = vn_entropy(rho_s) + vn_entropy(env) - vn_entropy(joint)
            if mi > max_mi:
                max_mi, worst_time = mi, t
            max_neg = max(max_neg, negativity(joint))
            env_margs.append(env)
        for a, b in itertools.combinations(env_margs, 2):
            diff = a - b
            d = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))
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
# Multi-time correlation functions and the regression tensor
# ---------------------------------------------------------------------------

def _default_rho0(ds: int) -> np.ndarray:
    v = np.ones(ds, dtype=complex) / np.sqrt(ds)
    return np.outer(v, v.conj())


def _case_times(c_ops, times) -> tuple:
    if len(times) != len(c_ops):
        raise ValueError(f"{len(c_ops)} operator pairs for {len(times)} times")
    return tuple(times)


def multitime_correlation(model: JointModel, c_ops, times, rho_s0) -> complex:
    """Exact time-ordered correlation Tr[C_n U ... C_1 U C_0 rho_se(t0)]
    with C_j X = B_j X A_j inserted at times[j], c_ops = [(A_j, B_j)]: the
    weighted sum of <bra|ket> over the start branches, the ket evolved with
    the B_j and the bra with the A_j^dag (no dense joint matrix)."""
    times = _from_t0(model, _case_times(c_ops, times))
    weights, starts = _start_stack(model, rho_s0, 1e-14)
    bras = evolve(model, starts, times, [np.asarray(a, dtype=complex).conj().T
                                         for a, _ in c_ops])
    kets = evolve(model, starts, times, [b for _, b in c_ops])
    return complex(sum((w * np.vdot(bra, ket_) for w, bra, ket_ in zip(weights, bras, kets)),
                       0.0 + 0.0j))


def regression_prediction(model: JointModel, c_ops, times, rho_s0) -> complex:
    """The same correlation from system-only maps: Tr[C_n E_n ... C_1 E_1
    C_0 rho_s0] with E_k = generalized_map(times[k-1], times[k])."""
    times = _case_times(c_ops, times)
    x = np.asarray(rho_s0, dtype=complex)
    for k, (a, b) in enumerate(c_ops):
        if k:
            x = generalized_map(model, times[k - 1], times[k])(x)
        x = np.asarray(b, dtype=complex) @ x @ np.asarray(a, dtype=complex)
    return complex(np.trace(x))


def _tree_rows(model: JointModel, times, rows: np.ndarray, ids: np.ndarray, k: int = 0):
    """The live bath rows at times[-1] of the matrix-unit propagation tree
    grown from `rows` (leaf numbers `ids`) at times[k]: each row is placed at
    every |q>, propagated to times[k + 1], and each row <p| of the result
    grows on as leaf (id d + q) d + p. A row that is exactly zero is dropped
    with its subtree, which is zero too. Yields (ids, rows) in leaf order,
    depth first, at most DENSE_JOINT_LIMIT joint entries per call."""
    ds, de = model.dim_s, model.dim_e
    per_call = max(1, DENSE_JOINT_LIMIT // (ds * de))
    count = len(rows) * ds
    # the leaf number of row p grown from kid = row d + q, at index kid d + p
    grown = (ids[:, None] * (ds * ds) + np.arange(ds * ds)).ravel()
    for lo in range(0, count, per_call):
        kid = np.arange(lo, min(lo + per_call, count))
        joint = np.zeros((len(kid), ds, de), dtype=complex)
        joint[np.arange(len(kid)), kid % ds] = rows[kid // ds]
        out = model.apply_propagator(times[k], times[k + 1],
                                     joint.reshape(len(kid), -1)).reshape(-1, de)
        del joint       # not held while the subtree grows
        out_ids = grown[lo * ds:(lo + len(kid)) * ds]
        live = out.any(axis=1)
        out, out_ids = out[live], out_ids[live]
        if k + 2 < len(times):
            yield from _tree_rows(model, times, out, out_ids, k + 1)
        else:
            yield out_ids, out


def _blas_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b (stacks broadcast), b's columns split so that each matrix
    product takes fewer than 2**16 multiply-adds: OpenBLAS runs such a
    complex product on the calling thread (a larger one wakes worker threads
    that spin on after it, and splitting k between threads moves the last
    bits)."""
    cols = max(1, ((1 << 16) - 1) // (a.shape[-2] * a.shape[-1]))
    if cols >= b.shape[-1]:
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]),
                   dtype=np.result_type(a, b))
    for lo in range(0, b.shape[-1], cols):
        np.matmul(a, b[..., lo:lo + cols], out=out[..., lo:lo + cols])
    return out


def _leaf_gram(model: JointModel, times) -> np.ndarray:
    """The exact side at times t0, ..., tn: G = sum_b p_b conj(F_b) F_b^T
    over the bath branches (p_b, e_b), F_b's d^(2n) rows the leaves
    (q0, p1, q1, ..., p_n) of the tree grown from e_b. Zero leaves are
    neither propagated nor multiplied: the products run over the leaves live
    in some branch, padded with zero rows to a multiple of 4 (at most d^(2n)),
    so that every live entry takes OpenBLAS's full-width kernels and is
    bitwise the entry of the all-leaves product. The bath sum runs over
    blocks in a fixed order."""
    ds, de = model.dim_s, model.dim_e
    branches = model.env_branches()
    size = ds ** (2 * len(times) - 2)
    found = list(_tree_rows(model, times, np.array([phi for _, phi in branches]),
                            np.arange(len(branches))))
    mask = np.zeros(size, dtype=bool)
    for i, _ in found:
        mask[i % size] = True
    live, place = np.flatnonzero(mask), np.cumsum(mask) - 1
    # Padded to a multiple of 4 rows: this assumes the complex product forms
    # rows 4 at a time in one kernel, the remainder in tail kernels that round
    # otherwise, and an entry's bits not depending on its row (OpenBLAS 0.3's
    # x86-64 zgemm). Every live entry then takes the kernel it takes among all
    # d^(2n) leaves, a multiple of 4 for d = 2; a kernel of another width
    # would move last bits only.
    leaves = np.zeros((len(branches), min(size, -(-len(live) // 4) * 4), de), dtype=complex)
    for i, rows in found:
        leaves[i // size, place[i % size]] = rows
    del found
    # k-blocks of fewer than 2**16 multiply-adds over all d^(2n) leaves, whose
    # products `_blas_product` leaves whole; where none can, blocks of 8 with
    # the columns split
    step = ((1 << 16) - 1) // size ** 2 or 8
    gram = np.zeros(leaves.shape[1:2] * 2, dtype=complex)
    for (p, _), f in zip(branches, leaves):
        fc = f.conj()
        for lo in range(0, de, step):
            gram += p * _blas_product(fc[:, lo:lo + step], f[:, lo:lo + step].T)
    full = np.zeros((size, size), dtype=complex)
    full[live[:, None], live] = gram[:len(live), :len(live)]
    return full


def _map_kron(model: JointModel, times) -> np.ndarray:
    """The predicted side, in the leaves' order: the Kronecker product of the
    reshuffled replaced-bath maps M_k[(q, p), (q', p')] = E_k[p' + d p,
    q' + d q], the entry <p'|.|p> of E_k(|q'><q|)."""
    d = model.dim_s
    kron = np.ones((1, 1), dtype=complex)
    for t1, t2 in zip(times, times[1:]):
        m = generalized_map(model, t1, t2).mat.reshape(d, d, d, d)    # [p, p', q, q']
        kron = np.kron(kron, m.transpose(2, 0, 3, 1).reshape(d * d, d * d))
    return kron


def _process_difference(model: JointModel, times) -> np.ndarray:
    """G - kron M_k at times t0 <= ... <= tn from the model's initial time,
    built once per map store: [leaf, leaf'] is the joint minus the chained
    <p_n'|.|p_n> of |q0'><q0| with X -> |q_k'><p_k'| X |p_k><q_k| at each t_k
    (Pollock et al., arXiv:1512.00589; Milz & Modi, arXiv:2012.01894)."""
    times = _from_t0(model, times)
    return _stored(model, ("difference", times),
                   lambda: _leaf_gram(model, times) - _map_kron(model, times))


def _regression_slices(model: JointModel, times, rho_s0):
    """The regression tensor at times t0, ..., tn: exact minus predicted
    correlation of each Hermitian-basis sequence (A_j, B_j) = (H_a_j, H_b_j),
    the process difference contracted with the basis on every leg (X0 =
    B0 rho_s0 A0, the trace Tr[An Bn .]). Yields (lo, R) in slices of at
    most 2**20 entries, R[c - lo, f, l] for the row-major indices c of
    (a1, b1, ..., b_(n-1)), f of (a0, b0) and l of (an, bn)."""
    d, n = model.dim_s, len(times) - 1
    h = np.array(hermitian_basis(d))
    # a leaf is (q0, [p1 q1], ..., [p_(n-1) q_(n-1)], p_n): the bra's, then the ket's
    leaf = (d,) + (d * d,) * (n - 1) + (d,)
    x = _process_difference(model, times).reshape(leaf + leaf)
    bra = h.reshape(d * d, d * d)                        # [a, (p, q)] = H_a[p, q]
    ket = h.transpose(0, 2, 1).reshape(d * d, d * d)     # [b, (p, q)] = H_b[q, p]
    for j in range(1, n):
        for m, axis in ((bra, j), (ket, n + 1 + j)):
            x = np.moveaxis(x, axis, 0)
            x = np.moveaxis(_blas_product(m, x.reshape(d * d, -1)).reshape(x.shape), 0, axis)
    middle = [axis for j in range(1, n) for axis in (j, n + 1 + j)]
    y = x.transpose(middle + [0, n + 1, n, 2 * n + 1]).reshape(-1, d * d, d * d)
    first = np.einsum("bij,jk,akl->abli", h, np.asarray(rho_s0, dtype=complex),
                      h).reshape(d ** 4, d * d)
    last = np.einsum("aij,bjk->abik", h, h).reshape(d ** 4, d * d)
    per_slice = max(1, (1 << 20) // d ** 8)
    for lo in range(0, len(y), per_slice):
        yield lo, first @ y[lo:lo + per_slice] @ last.T


def _composability_difference(model: JointModel, triple) -> np.ndarray:
    """E(t0 -> t2) - G(t1, t2) E(t0 -> t1) as a Liouville matrix: the process
    difference at the triple with the identity at t1 (p1 = q1 on both sides)."""
    d = model.dim_s
    # axes q0, p1, q1, p2 of the bra, then of the ket; [p2, p2', q0, q0'] is
    # <p2'|.|p2> of |q0'><q0|, the Liouville entry [p2' + d p2, q0' + d q0]
    x = _process_difference(model, triple).reshape((d,) * 8)
    return np.einsum("ajjbckkd->bdac", x).reshape(d * d, d * d)


def _largest(r: np.ndarray) -> float:
    """The largest |entry|, NaN entries skipped."""
    return float(np.fmax.reduce(np.abs(r), axis=None, initial=0.0))


def check_qrf(model: JointModel, time_pairs=((0.5, 1.0),), tol: float = 1e-8,
              rho_s0=None) -> CriterionReport:
    """Two-time regression check over every pair (a, b) of Hermitian-basis
    operators, both orderings: <B(t2) A(t1)> inserts X -> A X at t1 and
    <A(t1) B(t2)> inserts X -> X A, and B is traced at t2. These are the
    regression tensor's entries at (t0, t1, t2) with a0 = b0 = a2 = 0 (the
    identity) and a1 b1 = 0."""
    ds = model.dim_s
    time_pairs = _listed(time_pairs, "time pairs")
    rho_s0 = _default_rho0(ds) if rho_s0 is None else rho_s0
    a1, b1 = np.divmod(np.arange(ds ** 4), ds ** 2)     # the index c of (a1, b1)
    with _map_store(model):
        worst, pair, verdict = worst_case(
            ((_largest(r[(a1 * b1 == 0)[lo:lo + len(r)], 0, :ds * ds]), (t1, t2))
             for t1, t2 in time_pairs
             for lo, r in _regression_slices(model, (model.t0, t1, t2), rho_s0)), tol)
    witnesses = {"max_residual": worst, "worst_time_pair": list(pair) if pair else []}
    grid = f"{ds ** 4} operator pairs x {len(time_pairs)} time pairs, both orderings"
    return CriterionReport("qrf", verdict, witnesses, tol, grid)


def check_gqrf(model: JointModel, time_sets=((0.5, 1.0, 1.5),), tol: float = 1e-8,
               rho_s0=None) -> CriterionReport:
    """Multi-time regression check: at each time set t1 < ... < tn, every
    sequence of Hermitian-basis operator pairs (A_j, B_j), j = 0..n, must
    give the same correlation from the joint dynamics as from the chain of
    replaced-bath maps; the witness is the largest |exact - predicted| over
    all (d^2)^(2n+2) sequences, read from the process difference: the
    insertions X -> B X A with matrix units A, B span every map, so each
    correlation is a contraction of one Gram matrix of bath leaves, and each
    prediction one of a Kronecker product of maps (`_regression_slices`)."""
    rho_s0 = _default_rho0(model.dim_s) if rho_s0 is None else rho_s0
    time_sets = [(model.t0,) + tuple(_listed(ts, "times"))
                 for ts in _listed(time_sets, "time sets")]
    with _map_store(model):
        worst, times, verdict = worst_case(
            ((_largest(r), times) for times in time_sets
             for _, r in _regression_slices(model, times, rho_s0)), tol)
    witnesses = {"max_residual": worst, "worst_times": list(times) if times else []}
    count = sum(model.dim_s ** (4 * len(times)) for times in time_sets)
    grid = f"every Hermitian-basis operator sequence: {count} over {len(time_sets)} time sets"
    return CriterionReport("gqrf", verdict, witnesses, tol, grid)


# ---------------------------------------------------------------------------
# Environment interventions
# ---------------------------------------------------------------------------

def check_composability(model: JointModel, time_triples, tol: float = 1e-9) -> CriterionReport:
    """Resetting the bath to its initial state at the midpoint must
    reproduce the map: the process difference at (t0, t1, t2) with the
    identity at t1 must vanish. This code's argument for qrf ->
    composability at the same times, by linearity: `qrf`'s entries with the
    identity at t1 read this difference, on rho_s0, out on a complete basis,
    so qrf on a spanning set of rho_s0 makes it zero (up to the
    coefficients, under a tolerance)."""
    time_triples = _listed(time_triples, "time triples")

    def residuals():
        for t0, t1, t2 in time_triples:
            res = difference_residual(_composability_difference(model, (t0, t1, t2)))
            yield res["residual"], ((t0, t1, t2), res)

    worst, at, verdict = worst_case(residuals(), tol)
    triple, details = at or ([], {})
    witnesses = {"max_residual": worst,
                 "max_entry": details.get("max_entry", 0.0),
                 "action_norm": details.get("action_norm", 0.0),
                 "worst_triple": list(triple)}
    grid = f"{len(time_triples)} time triples"
    return CriterionReport("composability", verdict, witnesses, tol, grid)


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


def _check_nib_convex(model: JointModel, time_triple, tol: float) -> CriterionReport:
    t0, t1, t2 = _from_t0(model, time_triple)
    e2, e1 = tomograph(model, t0, t2), tomograph(model, t0, t1)
    base, ops, feasible = _nib_coordinates(model)

    def chained(op):
        return replacement_map(model, t1, t2, op).mat @ e1.mat

    res = _AffineResidual(e2.mat - chained(base), [chained(op) for op in ops],
                          model.dim_s, feasible)
    rho_e0 = model.rho_e0_matrix()
    x0 = [np.real(np.trace(rho_e0 @ op)) / np.real(np.trace(op @ op)) for op in ops]
    centre = np.zeros(len(ops)) if feasible == "ball" else np.full(len(ops), 1.0 / len(ops))
    seeds = [centre, res.project(np.array(x0))]
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
    # R(x) is affine in x: the witnesses read its difference at the minimiser
    best_res = difference_residual(res.r0 - np.tensordot(x, res.dirs, 1))
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
    it is minimised from two seeds (the centre and the initial bath state),
    and a subgradient cut at the minimiser gives the witness lower_bound,
    which certifies a fail when it exceeds the tolerance. Other baths try
    only the initial bath state, whose residual is `composability`'s at the
    triple, so their fails are not certified, and the report says so."""
    if model.env_kind in ("qubit", "register"):
        return _check_nib_convex(model, time_triple, tol)
    res = difference_residual(_composability_difference(model, time_triple))
    witnesses = {"min_residual": res["residual"],
                 "max_entry": res["max_entry"],
                 "action_norm": res["action_norm"],
                 "n_candidates": 1.0}
    grid = (f"triple={list(time_triple)}, 1 candidate states only; "
            f"a fail is not certified")
    verdict = PASS if res["residual"] <= tol else FAIL
    return CriterionReport("nib", verdict, witnesses, tol, grid)


def _intervened_map(model: JointModel, time_triple, povm, states) -> SuperOperator:
    """Map to t2 when the bath is measured with the POVM {F_k} at t1 and
    re-prepared in s_k: the sum over outcomes of the replacement map of s_k
    after the map to t1 read through the effect F_k."""
    t0, t1, t2 = time_triple
    m = sum(replacement_map(model, t1, t2, s).mat
            @ assemble_map(model, model.env_branches(), (t0, t1), (None, None), f).mat
            for f, s in zip(povm, states))
    return SuperOperator(m, model.dim_s)


def check_nqib(model: JointModel, time_triple, breaking_channel,
               tol: float = 1e-9) -> CriterionReport:
    """Verify that a supplied measure-and-prepare intervention on the bath
    at t1 leaves the map to t2 unchanged. Only the supplied channel is
    tested; searching over all entanglement-breaking channels is out of
    scope, so a missing channel yields inconclusive."""
    t0, t1, t2 = _from_t0(model, time_triple)
    if breaking_channel is None:
        return CriterionReport("nqib", INCONCLUSIVE, {}, tol,
                               f"triple={list(time_triple)}",
                               reason="no entanglement-breaking channel supplied")
    povm, states = ([np.asarray(op) for op in ops] for ops in breaking_channel)
    de = model.dim_e
    if len(povm) != len(states):
        raise ValueError(f"{len(povm)} POVM elements but {len(states)} prepared states")
    if any(op.shape != (de, de) for op in povm + states):
        raise ValueError(f"every POVM element and prepared state must be {de} x {de}")
    if model.dim_s * de > DENSE_JOINT_LIMIT:
        return CriterionReport("nqib", INCONCLUSIVE, {}, tol,
                               f"triple={list(time_triple)}",
                               reason="joint dimension too large for the dense channel check")
    acc = np.zeros((de, de), dtype=complex)
    for f in povm:
        if support_eigh((f + f.conj().T) / 2, vectors=False)[0] < -1e-10:
            raise ValueError("POVM element not positive semidefinite")
        acc += f
    if np.max(np.abs(acc - np.eye(de))) > 1e-9:
        raise ValueError("POVM does not resolve the identity")
    for s in states:
        DensityOperator(s, psd_tol=1e-8)

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
    family = _listed(family, "grid maps", least=2)
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
    pairs = _listed(pairs, "duration pairs")
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
    family = _listed(family, "grid maps", least=2)
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
    state_pairs = _listed(state_pairs, "state pairs")
    w_grid = _listed(np.arange(0.1, 0.95, 0.1) if w_grid is None else w_grid, "weights")
    # [pair, state, time, d, d]: each grid map applied once to the stack
    # of every state
    states = np.array(state_pairs).reshape(len(state_pairs), 2, d, d)
    images = np.stack([emap(states) for _, emap in family], axis=2)
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
    the bath in its initial state, so the first one is the map from t0.
    `dd_apply` propagates each sequence once and the chain reads the run's
    maps, so the cost is linear in the pulse count; an empty sequence reads
    0. This code's argument for gqrf -> fdd at the same times, by linearity:
    `gqrf`'s insertions, inputs and read-outs on a complete basis span every
    map, operator and functional, so this difference is a combination of
    `gqrf`'s entries (up to the coefficients, under a tolerance)."""
    from .superop import unitary_superop
    sequences = [check_pulses(model, *seq, where=f"sequence {i}: ")
                 for i, seq in enumerate(_listed(pulse_sequences, "pulse sequences"))]

    def residuals():
        for seq_idx, (pulses, times) in enumerate(sequences):
            if not pulses:
                yield 0.0, seq_idx
                continue
            chain, tcur = None, model.t0
            for pulse, tk in zip(pulses, times):
                step = compose(unitary_superop(pulse), generalized_map(model, tcur, tk))
                chain = step if chain is None else compose(step, chain)
                tcur = tk
            yield map_residual(dd_apply(model, pulses, times), chain)["residual"], seq_idx

    worst, seq_idx, verdict = worst_case(residuals(), tol)
    witnesses = {"max_residual": worst,
                 "worst_sequence_index": float(-1 if seq_idx is None else seq_idx)}
    grid = f"{len(sequences)} pulse sequences"
    return CriterionReport("fdd", verdict, witnesses, tol, grid)


def dd_effectiveness(model: JointModel, pulses, times, reference=None) -> dict:
    """Purity gained by a pulse sequence relative to free evolution, for a
    reference pure input state; the free evolution runs to the last pulse
    time, so a sequence without one is a ValueError."""
    if len(times) == 0:
        raise ValueError("no pulse times: the free evolution runs to the last one")
    reference = _default_rho0(model.dim_s) if reference is None else reference
    p_hahn = purity(dd_apply(model, pulses, times)(reference))
    p_free = purity(dd_apply(model, [], [], t_end=times[-1])(reference))
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

_ECHO = (("shift", "shift"), (0.5, 1.0))      # pulses and pulse times of a Hahn echo

# The context each preset's verdicts are reached in: times, tolerances and
# operator sets only. Every map a checker reads comes from the model's own
# dynamics (`tomograph`, `generalized_map`), never from a closed form. Per
# model: the map-family grid, a `tol` for every criterion without its own
# (declared or not), `slots` where times (and durations) are slot numbers
# read through `model.slot_times`, and the hierarchy report's `extras`. Per
# criterion: its times, tolerance, and operator or pulse sets (pulses named
# as `_sequence` reads them). Times without `slots` are offsets from the
# model's initial time; durations (`pairs`) are durations.
MODEL_SETTINGS = {
    "collision": dict(
        slots=True, tol=1e-9, grid=(0, 1, 2, 3, 4, 5, 6),
        fa=dict(times=(1, 2), tol=1e-7),
        qrf=dict(time_pairs=((1, 2), (1, 3), (2, 4))),
        gqrf=dict(time_sets=((1, 2, 3),)),
        composability=dict(triples=((0, 1, 2), (0, 2, 4), (0, 3, 6))),
        nib=dict(triple=(0, 2, 4)),
        nqib=dict(triple=(0, 2, 4)),
        divisibility={}, distinguishability={},
        semigroup=dict(pairs=((1, 1), (1, 2), (2, 3))),
        fdd=dict(sequences=((("random",) * 3, (1, 2, 3)), (("shift", "shift"), (1, 2))))),
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
        extras=lambda model: {"echo_effect": dd_effectiveness(model, *_sequence(model, _ECHO))}),
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
        extras=lambda model: {"spin_echo": dd_effectiveness(model, *_sequence(model, _ECHO))}),
    "eternal": dict(
        tol=1e-9, grid=np.arange(0.0, 3.01, 0.5),
        divisibility={}, distinguishability={},
        semigroup=dict(pairs=((0.5, 0.5), (0.5, 1.0), (1.0, 2.0)))),
}

# tolerance of a criterion that neither the model nor its entry sets
_WINDOW_TOL = dict(fa=1e-7, qrf=1e-8, gqrf=1e-8, composability=1e-8, nib=1e-6,
                   nqib=1e-9, divisibility=1e-9, semigroup=1e-9,
                   distinguishability=1e-9, fdd=1e-7)


def _sequence(model, sequence, rng=None) -> tuple:
    """A declared pulse sequence (pulses, times), every named pulse a
    dim_s x dim_s unitary: "shift" the cyclic shift |j> -> |j + 1 mod d>
    (X for a qubit), "random" a Haar unitary drawn from rng."""
    d, (pulses, times) = model.dim_s, sequence
    named = {"shift": lambda: np.roll(np.eye(d, dtype=complex), 1, axis=0),
             "random": lambda: random_unitary(d, rng)}
    return [named[p]() if isinstance(p, str) else p for p in pulses], list(times)


def _window(t0: float, t1: float, t2: float) -> dict:
    """Settings of every criterion on the single window t0 < t1 < t2."""
    return dict(fa=dict(times=(t1, t2)),
                qrf=dict(time_pairs=((t1, t2),)),
                gqrf=dict(time_sets=((t1, (t1 + t2) / 2, t2),)),
                composability=dict(triples=((t0, t1, t2),)),
                nib=dict(triple=(t0, t1, t2)),
                nqib=dict(triple=(t0, t1, t2)),
                semigroup=dict(pairs=((0.5, 0.5), (0.5, 1.0), (1.0, 1.0))),
                fdd=dict(sequences=((("shift", "shift"), ((t0 + t2) / 2, t2)),)))


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
    ValueError, and so is a window with a given time that is not
    t0 < t1 < t2."""
    t0 = model.t0
    if times[0] is not None and abs(float(times[0]) - t0) > 1e-12:
        raise ValueError(f"t0 = {times[0]}: maps are defined from the model's "
                         f"initial time {t0}")
    table = MODEL_SETTINGS[model.name]
    if names is None:
        names = [k for k in CRITERIA + ("pu",) if k in table]
    given = any(t is not None for t in times)
    w = [t0 + d if t is None else float(t) for t, d in zip(times, (0.0, 1.0, 2.0))]
    if given and not w[0] < w[1] < w[2]:
        raise ValueError(f"window t0, t1, t2 = {w[0]}, {w[1]}, {w[2]}: the times "
                         "must strictly increase")
    window = _window(*w)
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
        if given:
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
    with _map_store(model):
        return {name: run_criterion(name, model, s, seed) for name, s in settings.items()}


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
        channel = (model.breaking_channel(s["triple"][1])
                   if hasattr(model, "breaking_channel") else None)
        return check_nqib(model, s["triple"], channel, tol)
    if name == "divisibility":
        return check_divisibility(map_family(model, s["grid"]), tol)
    if name == "semigroup":
        return check_semigroup(lambda tau: map_family(model, [model.t0 + tau])[0][1],
                               s["pairs"], tol)
    if name == "distinguishability":
        return check_distinguishability(map_family(model, s["grid"]), seed=seed, tol=tol)
    if name == "fdd":
        rng = np.random.default_rng(seed)
        return check_fdd(model, [_sequence(model, seq, rng) for seq in s["sequences"]], tol)
    if name == "pu":
        return _check_pu(model, s["times"], tol)
    raise KeyError(name)
