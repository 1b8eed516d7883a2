"""Reference implementations for the tests, which the package replaced by
faster ones: the joint propagator U(t2, t1) as a dense matrix, and the
exact multi-time correlations as one `evolve` per case and bra or ket. The
package itself never forms the matrix, and builds each distinct bra or ket
prefix of a call's cases once, visiting the cases sorted by their prefixes
and dropping each prefix's vector after its last reader. Its regression
predictions are the same per-case loop as `reference_prediction`."""

import numpy as np

from oqmarkov.criteria import _apply_cop, generalized_map
from oqmarkov.models import _eig_branches, evolve


def dense_propagator(model, t1: float, t2: float) -> np.ndarray:
    d = model.dim_s * model.dim_e
    return np.column_stack([model.apply_propagator(t1, t2, e) for e in np.eye(d, dtype=complex)])


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
    x = _apply_cop(c_ops[0], np.asarray(rho_s0, dtype=complex))
    for j in range(1, len(times)):
        x = generalized_map(model, times[j - 1], times[j])(x)
        x = _apply_cop(c_ops[j], x)
    return complex(np.trace(x))
