"""Reference implementations for the tests, which the package replaced by
faster ones: the joint propagator U(t2, t1) as a dense matrix, a map
assembled one start column and one (i, j) block at a time, and the exact
multi-time correlations and regression predictions as one `evolve` or one
map step per case, start branch and bra or ket. The package never forms the
joint matrix. It propagates a stack of vectors per call (`apply_propagator`
takes leading axes): `assemble_map` evolves every start column at once,
with each member's arithmetic that of a lone vector, so its values are
bitwise those of the loop here. `qrf` and `gqrf` read every correlation at
a time tuple from one regression tensor (a Gram matrix of the bath leaves
of a matrix-unit propagation tree, and a Kronecker product of the
replaced-bath maps), whose entries agree with these per-case loops to
rounding. The package's tree drops every zero row and multiplies only the
leaves that are live; `reference_leaf_gram` grows every leaf and multiplies
them all. `check_fa` decides its clauses in the span of the bath rows;
`reference_fa` forms the dense joint state instead."""

import itertools

import numpy as np

from oqmarkov.criteria import generalized_map
from oqmarkov.core import (DensityOperator, ket, mutual_information, negativity,
                           partial_trace, trace_norm)
from oqmarkov.models import _eig_branches, evolve
from oqmarkov.superop import SuperOperator, vec


def apply_cop(c_op, x: np.ndarray) -> np.ndarray:
    """The insertion X -> B X A of an operator pair c_op = (A, B)."""
    a, b = c_op
    return np.asarray(b, dtype=complex) @ x @ np.asarray(a, dtype=complex)


def dense_propagator(model, t1: float, t2: float) -> np.ndarray:
    d = model.dim_s * model.dim_e
    return np.column_stack([model.apply_propagator(t1, t2, e) for e in np.eye(d, dtype=complex)])


def reference_map(model, branches, times, ops, effect=None) -> SuperOperator:
    """`assemble_map` one start column |i> (x) e_b per `evolve` call, and
    one (i, j) column of the map at a time, summed over the branches in
    their order."""
    ds, de = model.dim_s, model.dim_e
    ft = None if effect is None else np.asarray(effect, dtype=complex).T
    evolved = []
    for p, phi in branches:
        mats = [evolve(model, np.kron(ket(i, ds), phi), times, ops).reshape(ds, de)
                for i in range(ds)]
        evolved.append((p, mats if ft is None else [u @ ft for u in mats], mats))
    m = np.zeros((ds * ds, ds * ds), dtype=complex)
    for i in range(ds):
        for j in range(ds):
            out = np.zeros((ds, ds), dtype=complex)
            for p, left, mats in evolved:
                out += p * (left[i] @ mats[j].conj().T)
            m[:, i + ds * j] = vec(out)
    return SuperOperator(m, ds)


def reference_correlation(model, c_ops, times, rho_s0) -> complex:
    """Exact correlation of one case: one `evolve` of the bra and one of the
    ket from every start branch, summed as q * p * <bra|ket>."""
    kets = [b for _, b in c_ops]
    bras = [np.asarray(a, dtype=complex).conj().T for a, _ in c_ops]
    total = 0.0 + 0.0j
    for q, s in _eig_branches(np.asarray(rho_s0, dtype=complex), 1e-14):
        for p, phi in model.env_branches():
            start = np.kron(s, phi)
            total += q * p * np.vdot(evolve(model, start, times, bras),
                                     evolve(model, start, times, kets))
    return complex(total)


def reference_prediction(model, c_ops, times, rho_s0) -> complex:
    """Regression-predicted correlation of one case, step by step through
    the replaced-bath maps."""
    x = apply_cop(c_ops[0], np.asarray(rho_s0, dtype=complex))
    for j in range(1, len(times)):
        x = generalized_map(model, times[j - 1], times[j])(x)
        x = apply_cop(c_ops[j], x)
    return complex(np.trace(x))


def reference_leaf_gram(model, times) -> np.ndarray:
    """The exact side of the regression tensor from every leaf of the
    matrix-unit propagation tree, zero leaves included: each level places
    every row at every |q>, propagates the whole level in one stack and
    splits the result into its rows <p|. G = sum_b p_b conj(F_b) F_b^T is
    summed in (branch, block) order over blocks of (2**16 - 1) // size**2
    bath columns, 64 where none fit."""
    ds, de = model.dim_s, model.dim_e
    branches = model.env_branches()
    rows = np.array([phi for _, phi in branches])
    for t1, t2 in zip(times, times[1:]):
        joint = np.zeros((len(rows), ds, ds, de), dtype=complex)
        for q in range(ds):
            joint[:, q, q] = rows
        rows = model.apply_propagator(t1, t2, joint.reshape(-1, ds * de)).reshape(-1, de)
    size = ds ** (2 * len(times) - 2)
    step = ((1 << 16) - 1) // size ** 2 or 64
    gram = np.zeros((size, size), dtype=complex)
    for (p, _), f in zip(branches, rows.reshape(len(branches), size, de)):
        for lo in range(0, de, step):
            gram += p * (f[:, lo:lo + step].conj() @ f[:, lo:lo + step].T)
    return gram


def reference_fa(model, initial_states, times) -> dict:
    """`check_fa`'s three witnesses from the dense joint state
    U (rho0 (x) rho_E) U^dag of each initial state at each time: its
    mutual information and negativity, and the largest trace distance
    between two initial states' bath marginals (partial traces)."""
    ds, de = model.dim_s, model.dim_e
    mi = neg = dist = 0.0
    for t in times:
        u = dense_propagator(model, model.t0, t)
        baths = []
        for rho0 in initial_states:
            joint = u @ np.kron(rho0, model.rho_e0_matrix()) @ u.conj().T
            rho = DensityOperator((joint + joint.conj().T) / 2, (ds, de))
            mi, neg = max(mi, mutual_information(rho)), max(neg, negativity(rho))
            baths.append(partial_trace(rho, [1]).mat)
        for a, b in itertools.combinations(baths, 2):
            dist = max(dist, 0.5 * trace_norm(a - b))
    return {"max_mutual_information": mi, "max_negativity": neg,
            "max_env_marginal_distance": dist}
