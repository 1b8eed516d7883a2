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
them all. `composability` and `nib` on a product bath contract the same
difference with the identity at t1; `reference_composability_difference`
composes the replaced-bath maps instead, as the checkers did before.
`reference_fdd_difference` is `check_fdd`'s pulse chain, written out.
`check_fa` decides its clauses in the span of the bath rows;
`reference_fa` forms the dense joint state instead. The exact unravellings
grow all branches at once on one enumerator, with one stacked propagation
per time; `reference_static_unravel` and `reference_collision_unravel`
grow them as before, and `reference_ensemble_mean` and
`reference_second_moment` sum one trajectory at a time."""

import itertools

import numpy as np

from oqmarkov.criteria import generalized_map, tomograph
from oqmarkov.core import (DensityOperator, ket, mutual_information, negativity,
                           partial_trace, trace_norm)
from oqmarkov.models import _eig_branches, dd_apply, evolve
from oqmarkov.superop import (SuperOperator, compose, identity_superop, unitary_superop,
                              vec)


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


def reference_composability_difference(model, triple) -> np.ndarray:
    """E(t0 -> t2) - G(t1, t2) E(t0 -> t1) as a Liouville matrix, from the
    tomographs and the replaced-bath map."""
    t0, t1, t2 = triple
    chained = compose(generalized_map(model, t1, t2), tomograph(model, t0, t1))
    return tomograph(model, t0, t2).mat - chained.mat


def reference_fdd_difference(model, pulses, times) -> np.ndarray:
    """`dd_apply` minus the chain of replaced-bath maps interleaved with the
    pulses, as a Liouville matrix: each segment starts from the bath in its
    initial state, so the first one is the map from t0."""
    chain, tcur = None, model.t0
    for pulse, tk in zip(pulses, times):
        step = compose(unitary_superop(np.asarray(pulse, dtype=complex)),
                       generalized_map(model, tcur, tk))
        chain = step if chain is None else compose(step, chain)
        tcur = tk
    if chain is None:
        chain = identity_superop(model.dim_s)
    return dd_apply(model, pulses, times).mat - chain.mat


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


def reference_static_unravel(model, times, psi0, basis=None):
    """`static_unravel` one register branch at a time: in the register
    basis (basis None) each live level's states u_j psi0; in a unitary
    basis b, each branch's joint state kron(state, register) propagated
    alone and split one outcome column of b at a time. The weights, the
    (branch, time, d_s) states and the records."""
    ds, r = model.dim_s, model.dim_e
    full_times = [model.t0] + list(times)
    live = [j for j in range(r) if model.probs[j] > 1e-14]
    if basis is None:
        us = [model.sector_unitaries(t - model.t0) for t in times]
        branches = [(float(model.probs[j]), [psi0] + [u[j] @ psi0 for u in us], (j,))
                    for j in live]
    else:
        branches = [(float(model.probs[j]), [psi0], (j,), np.kron(psi0, ket(j, r)))
                    for j in live]
        for t1, t2 in zip(full_times, full_times[1:]):
            grown = []
            for w, hist, rec, joint in branches:
                mat = model.apply_propagator(t1, t2, joint).reshape(ds, r)
                for m in range(r):
                    amp = mat @ basis[:, m].conj()
                    wk = float(np.vdot(amp, amp).real)
                    if wk > 1e-14:
                        psi = amp / np.sqrt(wk)
                        grown.append((w * wk, hist + [psi], rec + (m,),
                                      np.kron(psi, basis[:, m])))
            branches = grown
    return (np.array([b[0] for b in branches], dtype=float),
            np.array([b[1] for b in branches], dtype=complex),
            np.array([b[2] for b in branches], dtype=np.int64))


def reference_collision_unravel(model, bases, psi0):
    """`collision_unravel`'s exact mode as its own loop: per slot, the pair
    unitary on every branch's psi (x) ancilla, split by the outcomes of
    bases[k] and pruned at weight 1e-14. The weights, states and records."""
    ds, da = model.dim_s, model.dim_a
    anc = model.ancilla_vector()
    hist = psi0[None, None, :]
    weights, records = np.ones(1), np.zeros((1, 0), dtype=np.int64)
    for basis in bases:
        psi_rows = hist[:, -1]
        joint = (psi_rows[:, :, None] * anc).reshape(len(psi_rows), ds * da)
        mat = (joint @ model.pair_unitary.T).reshape(-1, ds, da)
        branches = np.swapaxes(mat @ basis.conj(), 1, 2)
        w = np.sum(branches.real ** 2 + branches.imag ** 2, axis=2)
        rows, outs = np.nonzero(w > 1e-14)
        psi = branches[rows, outs] / np.sqrt(w[rows, outs])[:, None]
        hist = np.concatenate([hist[rows], psi[:, None]], axis=1)
        weights = weights[rows] * w[rows, outs]
        records = np.column_stack([records[rows], outs])
    return weights, hist, records


def reference_ensemble_mean(weights, states) -> np.ndarray:
    """sum_i w_i |v_i><v_i|, one trajectory at a time."""
    d = states.shape[1]
    rho = np.zeros((d, d), dtype=complex)
    for w, v in zip(weights.tolist(), states):
        rho += w * np.outer(v, v.conj())
    return rho


def reference_second_moment(weights, states) -> np.ndarray:
    """sum_i w_i P_i (x) P_i, one trajectory at a time."""
    d = states.shape[1]
    out = np.zeros((d * d, d * d), dtype=complex)
    for w, v in zip(weights.tolist(), states):
        pi = np.outer(v, v.conj())
        out += w * np.kron(pi, pi)
    return out
