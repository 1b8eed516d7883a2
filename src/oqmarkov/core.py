"""Dense complex linear algebra for small composite Hilbert spaces.

Operators carry an ordered tuple of subsystem dimensions so that tensor
products and partial traces stay order-safe; a dimension mismatch is a hard
error, never a silent reshape. All values are immutable after construction
and every operation here is a pure function, so they are safe to share
across concurrent workers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Absolute tolerances for state validation (matrices of dimension <~ 64).
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9


def _as_complex_matrix(mat) -> np.ndarray:
    m = np.array(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


def _resolve_dims(dim: int, dims) -> tuple[int, ...]:
    if dims is None:
        return (dim,)
    out = tuple(int(d) for d in dims)
    if any(d <= 0 for d in out):
        raise ValueError(f"invalid subsystem dimensions {out}")
    if int(np.prod(out)) != dim:
        raise ValueError(f"dims {out} do not multiply to matrix side {dim}")
    return out


class Operator:
    """A complex square matrix together with its subsystem dimensions."""

    __slots__ = ("mat", "dims")

    def __init__(self, mat, dims: Sequence[int] | None = None):
        m = _as_complex_matrix(mat)
        m.setflags(write=False)
        self.mat = m
        self.dims = _resolve_dims(m.shape[0], dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.mat.conj().T, self.dims)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, dims={self.dims})"


class DensityOperator(Operator):
    """State matrix: Hermitian, unit trace, positive semidefinite within tolerance."""

    __slots__ = ()

    def __init__(self, mat, dims=None, herm_tol: float = HERM_TOL,
                 trace_tol: float = TRACE_TOL, psd_tol: float = PSD_TOL):
        super().__init__(mat, dims)
        m = self.mat
        herm = np.max(np.abs(m - m.conj().T))
        if herm > herm_tol:
            raise ValueError(f"not Hermitian: residual {herm:.3e} > {herm_tol:.1e}")
        tr = abs(np.trace(m) - 1.0)
        if tr > trace_tol:
            raise ValueError(f"trace deviates from 1 by {tr:.3e} > {trace_tol:.1e}")
        min_eig = float(support_eigh((m + m.conj().T) / 2, vectors=False)[0])
        if min_eig < -psd_tol:
            raise ValueError(f"negative eigenvalue {min_eig:.3e} < -{psd_tol:.1e}")


class PureState:
    """Normalized state vector with subsystem dimensions."""

    __slots__ = ("vec", "dims")

    def __init__(self, vec, dims: Sequence[int] | None = None,
                 trace_tol: float = TRACE_TOL):
        v = np.array(vec, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("state vector has non-finite entries")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > trace_tol:
            raise ValueError(f"norm deviates from 1 by {abs(norm - 1.0):.3e}")
        v.setflags(write=False)
        self.vec = v
        self.dims = _resolve_dims(v.size, dims)

    @property
    def dim(self) -> int:
        return self.vec.size

    def density(self) -> DensityOperator:
        return DensityOperator(np.outer(self.vec, self.vec.conj()), self.dims)


# Common qubit operators and states.
ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = np.array([[0, 1], [0, 0]], dtype=complex)   # lowers |1> to |0>
SP = SM.conj().T
PAULIS = {"I": ID2, "X": SX, "Y": SY, "Z": SZ}


def ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def is_unitary(u: np.ndarray, d: int) -> bool:
    """Whether u is a d x d matrix with every entry of U^dag U - I within 1e-10."""
    u = np.asarray(u)
    return u.shape == (d, d) and bool(np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10)


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Generalized Gell-Mann basis of d x d Hermitian operators: the
    identity, then the symmetric and antisymmetric pair for every j < k,
    then the traceless diagonals. Every non-identity element has
    Tr(A^2) = 2, so for d = 2 the list is exactly I, X, Y, Z."""
    basis = [np.eye(d, dtype=complex)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k], anti[k, j] = -1j, 1j
            basis += [sym, anti]
    for m in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:m] = 1.0
        diag[m] = -m
        basis.append(np.diag(np.sqrt(2.0 / (m * (m + 1))) * diag))
    return basis


def plus_state() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; the result's dims are dims(a) followed by dims(b)."""
    return Operator(np.kron(a.mat, b.mat), a.dims + b.dims)


def _keep_set(keep, n: int) -> tuple[int, ...]:
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(int(k) for k in keep))
    if len(set(keep)) != len(keep) or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid subsystem index set {keep} for {n} subsystems")
    return keep


def partial_trace(a: Operator, keep) -> Operator:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` may be empty, in which case a 1x1 operator holding the full
    trace is returned. The kept subsystems stay in their original order.
    """
    n = len(a.dims)
    keep = _keep_set(keep, n)
    if not keep:
        return Operator(np.array([[np.trace(a.mat)]]), (1,))
    tens = a.mat.reshape(a.dims + a.dims)
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(traced):
        off = i - sum(1 for j in traced[:count] if j < i)
        ndim_half = tens.ndim // 2
        tens = np.trace(tens, axis1=off, axis2=off + ndim_half)
    kept_dims = tuple(a.dims[i] for i in keep)
    d = int(np.prod(kept_dims))
    return Operator(tens.reshape(d, d), kept_dims)


def support_eigh(h: np.ndarray, vectors: bool = True):
    """Eigendecomposition of a Hermitian matrix on its support: the rows
    whose row and column are not identically zero.

    Each dropped row is an eigenvector of eigenvalue 0, so the result is
    exact for any input while the solve has the support's side: a
    projector (x) identity or projector (x) pure-state operator is solved
    on its nonzero block, and a dense one at full size. Returns the
    ascending spectrum, zeros included, and with `vectors` the orthonormal
    eigenvectors as columns: the support's zero-padded to full size, and a
    unit vector for each dropped row.
    """
    h = np.asarray(h)
    support = h.any(axis=0) | h.any(axis=1)
    if support.all():
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    keep = np.flatnonzero(support)
    n, k = len(h), keep.size
    block = h[np.ix_(keep, keep)]
    if not vectors:
        return np.sort(np.concatenate([np.linalg.eigvalsh(block), np.zeros(n - k)]))
    w, v = np.linalg.eigh(block)
    w = np.concatenate([w, np.zeros(n - k)])
    full = np.zeros((n, n), dtype=v.dtype)
    full[keep, :k] = v
    full[np.flatnonzero(~support), np.arange(k, n)] = 1
    order = np.argsort(w, kind="stable")
    return w[order], full[:, order]


def trace_norms(stack) -> np.ndarray:
    """Trace norm of every matrix in a stack of shape (..., d, d).

    A member Hermitian to 1e-12 of max(1, its largest entry) takes the sum
    of |eigenvalues| of its Hermitian part, any other member the sum of its
    singular values; each branch is one batched LAPACK call over its members.
    """
    m = np.asarray(stack)
    m_dag = np.conj(np.swapaxes(m, -1, -2))
    herm = np.abs(m - m_dag).max(axis=(-2, -1))
    is_herm = herm <= 1e-12 * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    out = np.empty(m.shape[:-2])
    out[is_herm] = np.sum(np.abs(np.linalg.eigvalsh(
        (m[is_herm] + m_dag[is_herm]) / 2)), axis=-1)
    out[~is_herm] = np.sum(np.linalg.svd(m[~is_herm], compute_uv=False), axis=-1)
    return out


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values; eigenvalue path for Hermitian input."""
    return float(trace_norms(mat))


def helstrom_norm(w: float, rho: DensityOperator, sigma: DensityOperator) -> float:
    """Tr|w*rho - (1-w)*sigma|, the bias norm governing optimal discrimination.

    Lies in [|2w-1|, 1]; equals |2w-1| exactly when the states coincide.
    """
    if not 0.0 < w < 1.0:
        raise ValueError(f"weight w={w} must lie strictly between 0 and 1")
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    return trace_norm(w * rho.mat - (1.0 - w) * sigma.mat)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the trace norm of the difference; in [0, 1]."""
    return helstrom_norm(0.5, rho, sigma)


def partial_transpose(a: Operator, split: int) -> np.ndarray:
    """Transpose the trailing party of the bipartition (first `split` dims | rest)."""
    n = len(a.dims)
    if not 1 <= split < n:
        raise ValueError(f"split {split} invalid for dims {a.dims}")
    da = int(np.prod(a.dims[:split]))
    db = a.dim // da
    t = a.mat.reshape(da, db, da, db)
    return t.transpose(0, 3, 2, 1).reshape(a.dim, a.dim)


def negativity(rho: DensityOperator, split: int = 1) -> float:
    """Sum of |negative eigenvalues| of the partial transpose.

    Zero for separable states; a strictly positive value certifies
    entanglement across the bipartition.
    """
    pt = partial_transpose(rho, split)
    eigs = np.linalg.eigvalsh((pt + pt.conj().T) / 2)
    return float(-eigs[eigs < 0].sum())


def branch_negativity(branches, dims: Sequence[int], psd_tol: float = 1e-7) -> float:
    """Negativity across the first split of the mixture sum_k w_k |v_k><v_k|
    of joint vectors given as branches [(w_k, v_k)]."""
    d = int(np.prod(dims))
    rho = np.zeros((d, d), dtype=complex)
    for w, v in branches:
        rho += w * np.outer(v, v.conj())
    return negativity(DensityOperator(rho, dims, psd_tol=psd_tol), 1)


def matrix_exp(a: Operator) -> Operator:
    """exp(A) with an eigendecomposition fast path for (anti-)Hermitian input."""
    m = a.mat
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) <= 1e-13 * scale:
        w, v = np.linalg.eigh((m + m.conj().T) / 2)
        return Operator((v * np.exp(w)) @ v.conj().T, a.dims)
    if np.max(np.abs(m + m.conj().T)) <= 1e-13 * scale:
        h = (m / 1j + (m / 1j).conj().T) / 2   # m = i*h with h Hermitian
        w, v = np.linalg.eigh(h)
        return Operator((v * np.exp(1j * w)) @ v.conj().T, a.dims)
    import scipy.linalg
    return Operator(scipy.linalg.expm(m), a.dims)


def purity(rho: DensityOperator | np.ndarray) -> float:
    m = rho.mat if isinstance(rho, Operator) else np.asarray(rho)
    return float(np.real(np.trace(m @ m)))


def vn_entropy(eigs_or_rho) -> float:
    """Von Neumann entropy in nats from a spectrum or a matrix."""
    if isinstance(eigs_or_rho, Operator):
        eigs = np.linalg.eigvalsh(eigs_or_rho.mat)
    else:
        arr = np.asarray(eigs_or_rho)
        eigs = np.linalg.eigvalsh(arr) if arr.ndim == 2 else arr
    eigs = np.clip(np.real(eigs), 0.0, None)
    nz = eigs[eigs > 1e-15]
    return float(-np.sum(nz * np.log(nz)))


def mutual_information(rho: DensityOperator, split: int = 1) -> float:
    """S(A) + S(B) - S(AB) across the bipartition (first `split` dims | rest)."""
    n = len(rho.dims)
    sa = vn_entropy(partial_trace(rho, range(split)).mat)
    sb = vn_entropy(partial_trace(rho, range(split, n)).mat)
    sab = vn_entropy(rho.mat)
    return sa + sb - sab


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2
