"""Superoperator machinery: Liouville and Choi representations, CPTP
diagnostics, composition and pseudo-inversion, dissipators, master-equation
integration, and canonical-form decomposition of time-local generators.

Vectorization is column-stacking throughout: vec(A X B) = (B^T (x) A) vec(X),
so a state matrix X maps to X.flatten(order="F"). The Choi matrix of a map S
is J(S) = (S (x) I)|Omega><Omega| with |Omega> = sum_i |i>|i> unnormalized,
with the map's output factor first; Tr J = d for trace-preserving maps.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from .core import Operator, hermitian_basis

PINV_RCOND = 1e-12


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x).flatten(order="F")


def unvec(v: np.ndarray, d: int | None = None) -> np.ndarray:
    v = np.asarray(v).reshape(-1)
    d = d or int(round(np.sqrt(v.size)))
    return v.reshape(d, d, order="F")


class SuperOperator:
    """d^2 x d^2 matrix acting on column-stacked operators."""

    __slots__ = ("mat", "dim")

    def __init__(self, mat, dim: int | None = None):
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected square matrix, got {m.shape}")
        d = dim or int(round(np.sqrt(m.shape[0])))
        if d * d != m.shape[0]:
            raise ValueError(f"side {m.shape[0]} is not a perfect square")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError("superoperator has non-finite entries")
        m.setflags(write=False)
        self.mat = m
        self.dim = d

    def apply(self, x: np.ndarray) -> np.ndarray:
        return unvec(self.mat @ vec(x), self.dim)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def __repr__(self):
        return f"SuperOperator(dim={self.dim})"


class ChoiMatrix:
    """Choi matrix of a map on a d-dimensional system, output factor first."""

    __slots__ = ("mat", "dim")

    def __init__(self, mat, dim: int | None = None):
        m = np.array(mat, dtype=complex)
        d = dim or int(round(np.sqrt(m.shape[0])))
        if m.ndim != 2 or m.shape[0] != m.shape[1] or d * d != m.shape[0]:
            raise ValueError(f"bad Choi shape {m.shape}")
        m.setflags(write=False)
        self.mat = m
        self.dim = d


def spre(a: np.ndarray) -> np.ndarray:
    """Superoperator for X -> A X."""
    d = a.shape[0]
    return np.kron(np.eye(d), a)


def spost(b: np.ndarray) -> np.ndarray:
    """Superoperator for X -> X B."""
    d = b.shape[0]
    return np.kron(b.T, np.eye(d))


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator for X -> A X B."""
    return np.kron(b.T, a)


def unitary_superop(u: np.ndarray) -> SuperOperator:
    """Conjugation map X -> U X U^dag."""
    return SuperOperator(np.kron(u.conj(), u))


def identity_superop(d: int) -> SuperOperator:
    return SuperOperator(np.eye(d * d))


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Generator part -i[H, .] as a plain matrix."""
    return -1j * (spre(h) - spost(h))


def dissipator(c: Operator | np.ndarray) -> SuperOperator:
    """Lindblad dissipator C . C^dag - (1/2){C^dag C, .}; trace-annihilating."""
    cm = c.mat if isinstance(c, Operator) else np.asarray(c, dtype=complex)
    cdc = cm.conj().T @ cm
    m = sandwich(cm, cm.conj().T) - 0.5 * (spre(cdc) + spost(cdc))
    return SuperOperator(m)


def choi_of(s: SuperOperator) -> ChoiMatrix:
    """Liouville to Choi. Exact involution with superop_of up to float error."""
    d = s.dim
    j = s.mat.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
    return ChoiMatrix(j, d)


def superop_of(j: ChoiMatrix) -> SuperOperator:
    d = j.dim
    s = j.mat.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    return SuperOperator(s, d)


@dataclasses.dataclass
class CPTPDiagnostic:
    min_choi_eig: float
    tp_residual: float
    herm_residual: float
    verdict: bool


def is_cptp(s: SuperOperator, tol: float = 1e-9) -> CPTPDiagnostic:
    """Complete-positivity and trace-preservation diagnostic.

    CP passes when the smallest Choi eigenvalue is >= -tol*d (the eigenvalue
    scale grows with dimension); TP when the output-trace of the Choi matrix
    is the identity within tol.
    """
    d = s.dim
    j = choi_of(s).mat
    herm = float(np.max(np.abs(j - j.conj().T)))
    jh = (j + j.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(jh).min())
    tr_out = j.reshape(d, d, d, d).trace(axis1=0, axis2=2)
    tp = float(np.max(np.abs(tr_out - np.eye(d))))
    ok = (min_eig >= -tol * d) and (tp <= tol) and (herm <= tol)
    return CPTPDiagnostic(min_eig, tp, herm, ok)


def compose(s2: SuperOperator, s1: SuperOperator) -> SuperOperator:
    """Apply s1 first, then s2."""
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch in composition")
    return SuperOperator(s2.mat @ s1.mat, s1.dim)


def pinv(s: SuperOperator, rcond: float = PINV_RCOND) -> SuperOperator:
    """Moore-Penrose pseudo-inverse; singular values below rcond*max are dropped."""
    return SuperOperator(np.linalg.pinv(s.mat, rcond=rcond), s.dim)


@dataclasses.dataclass
class IntermediateMap:
    map: SuperOperator
    reconstruction_residual: float
    condition_number: float
    divisible_as_linear_map: bool
    pinv_rcond: float = PINV_RCOND


def intermediate_map(e_late: SuperOperator, e_early: SuperOperator,
                     tol: float = 1e-9) -> IntermediateMap:
    """Q with Q . e_early = e_late, built via the pseudo-inverse of e_early.

    When e_early is singular the reconstruction residual flags that no linear
    map connects the two, and the caller should treat the result as
    inconclusive rather than as a CP verdict.
    """
    if e_late.dim != e_early.dim:
        raise ValueError("dimension mismatch")
    q = compose(e_late, pinv(e_early))
    resid = float(np.max(np.abs(q.mat @ e_early.mat - e_late.mat)))
    sv = np.linalg.svd(e_early.mat, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    return IntermediateMap(q, resid, cond, resid <= tol)


class LindbladSpec:
    """Effective Hamiltonian plus jump channels (C_k, rate_k).

    The Hamiltonian and the rates may be constants or callables of time;
    H(t) must be Hermitian at every sampled time. H, the channels and the
    rates are read once, at construction: each channel's dissipator and
    C_k^dag C_k (``jump_products``) are built then, and when H and every
    rate are constants so is the whole generator, returned read-only by
    ``generator``. Treat a spec as immutable.
    """

    def __init__(self, dim: int, hamiltonian=None, channels: Sequence[tuple] = ()):
        self.dim = dim
        self._h = hamiltonian
        self.channels = [(np.asarray(c, dtype=complex), g) for c, g in channels]
        for c, _ in self.channels:
            if c.shape != (dim, dim):
                raise ValueError(f"channel operator shape {c.shape} != ({dim},{dim})")
        self._dissipators = [dissipator(c).mat for c, _ in self.channels]
        self.jump_products = [c.conj().T @ c for c, _ in self.channels]
        self._generator = None
        if not callable(hamiltonian) and not any(callable(g) for _, g in self.channels):
            self._generator = self._assemble(0.0)
            self._generator.setflags(write=False)

    def hamiltonian(self, t: float) -> np.ndarray:
        h = self._h(t) if callable(self._h) else self._h
        if h is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        h = np.asarray(h, dtype=complex)
        if np.max(np.abs(h - h.conj().T)) > 1e-10:
            raise ValueError(f"Hamiltonian not Hermitian at t={t}")
        return h

    def rate(self, k: int, t: float) -> float:
        g = self.channels[k][1]
        return float(g(t)) if callable(g) else float(g)

    def rates(self, t: float) -> np.ndarray:
        return np.array([self.rate(k, t) for k in range(len(self.channels))])

    def _assemble(self, t: float) -> np.ndarray:
        l = hamiltonian_superop(self.hamiltonian(t))
        for k, diss in enumerate(self._dissipators):
            l = l + self.rate(k, t) * diss
        return l

    def generator(self, t: float) -> np.ndarray:
        if self._generator is not None:
            return self._generator
        return self._assemble(t)


@dataclasses.dataclass
class MEResult:
    times: np.ndarray
    states: list
    map_family: list
    max_trace_drift: float


def _as_generator_fn(gen) -> Callable[[float], np.ndarray]:
    if isinstance(gen, LindbladSpec):
        return gen.generator
    if isinstance(gen, SuperOperator):
        return lambda t: gen.mat
    if callable(gen):
        return lambda t: np.asarray(gen(t), dtype=complex)
    raise TypeError(f"cannot interpret generator of type {type(gen)}")


def me_integrate(gen, rho0, t_grid, step: float = 1e-3) -> MEResult:
    """Fixed-step RK4 integration of d(vec rho)/dt = L(t) vec(rho).

    The d^2 x d^2 propagator family is integrated alongside the state, so
    the returned map_family contains the map from t_grid[0] to every grid
    time. Trace drift is reported, never renormalized away.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    rho0 = rho0.mat if isinstance(rho0, Operator) else np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    lfn = _as_generator_fn(gen)

    def rk4(mat_state, l_start, l_mid, l_end, h):
        k1 = l_start @ mat_state
        k2 = l_mid @ (mat_state + h / 2 * k1)
        k3 = l_mid @ (mat_state + h / 2 * k2)
        k4 = l_end @ (mat_state + h * k3)
        return mat_state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    # integrate [vec(rho) | S] together as a d^2 x (d^2+1) block
    block = np.concatenate([vec(rho0)[:, None], np.eye(d * d, dtype=complex)], axis=1)
    states, maps = [unvec(block[:, 0], d)], [SuperOperator(block[:, 1:].copy(), d)]
    drift = 0.0
    for a, b in zip(t_grid[:-1], t_grid[1:]):
        n_sub = int(round((b - a) / step))
        if n_sub == 0 or abs(n_sub * step - (b - a)) > 1e-9 * max(1.0, abs(b - a)):
            raise ValueError(f"step {step} does not divide interval [{a}, {b}]")
        # L is evaluated once per distinct time: L(t + step) of one step is
        # L(t) of the next, as both times are the same float sum.
        t, l_t = a, lfn(a)
        for _ in range(n_sub):
            if not np.all(np.isfinite(l_t.real)):
                raise ValueError(f"generator has non-finite entries at t={t}")
            l_end = lfn(t + step)
            block = rk4(block, l_t, lfn(t + step / 2), l_end, step)
            t, l_t = t + step, l_end
        rho = unvec(block[:, 0], d)
        drift = max(drift, abs(np.trace(rho).real - np.trace(rho0).real))
        states.append(rho)
        maps.append(SuperOperator(block[:, 1:].copy(), d))
    return MEResult(t_grid, states, maps, float(drift))


def generator_from_maps(map_at: Callable[[float], SuperOperator], t: float,
                        dt: float = 1e-5,
                        cond_threshold: float = 1e10) -> tuple[SuperOperator, dict]:
    """Time-local generator L(t) = dE/dt . pinv(E(t)) by central differences.

    Second-order accurate in dt. A large condition number of E(t) marks the
    extraction inconclusive; the diagnostics carry the flag.
    """
    ep, em, e0 = map_at(t + dt), map_at(t - dt), map_at(t)
    deriv = (ep.mat - em.mat) / (2 * dt)
    sv = np.linalg.svd(e0.mat, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    l = SuperOperator(deriv @ np.linalg.pinv(e0.mat, rcond=PINV_RCOND), e0.dim)
    diag = {"condition_number": cond, "inconclusive": cond > cond_threshold,
            "pinv_rcond": PINV_RCOND}
    return l, diag


@dataclasses.dataclass
class CanonicalGenerator:
    """Time-local generator in canonical form: Hamiltonian part plus
    traceless orthonormal jump operators with real, descending rates."""
    hamiltonian: np.ndarray
    operators: list
    rates: np.ndarray
    reconstruction_residual: float

    def as_matrix(self) -> np.ndarray:
        l = hamiltonian_superop(self.hamiltonian)
        for c, g in zip(self.operators, self.rates):
            l = l + g * dissipator(c).mat
        return l


def canonical_decompose(l: SuperOperator | np.ndarray, tol: float = 1e-8) -> CanonicalGenerator:
    """Decompose a Hermiticity-preserving, trace-annihilating generator.

    Projects onto the traceless orthonormal operator basis, builds the
    (d^2-1)^2 coefficient matrix, and diagonalizes it. Rates are returned
    sorted descending together with their eigen-operators and the traceless
    Hamiltonian component. Raises if the input does not annihilate the trace
    or fails to reconstruct within tol.
    """
    lm = l.mat if isinstance(l, SuperOperator) else np.asarray(l, dtype=complex)
    d = int(round(np.sqrt(lm.shape[0])))
    scale = max(1.0, float(np.max(np.abs(lm))))
    id_vec = vec(np.eye(d)).conj()
    tr_resid = float(np.max(np.abs(id_vec @ lm)))
    if tr_resid > tol * scale * 10:
        raise ValueError(f"generator does not annihilate the trace: {tr_resid:.3e}")

    j = choi_of(SuperOperator(lm, d)).mat
    herm_resid = float(np.max(np.abs(j - j.conj().T)))
    if herm_resid > tol * scale * 10:
        raise ValueError(f"generator is not Hermiticity-preserving: {herm_resid:.3e}")
    j = (j + j.conj().T) / 2

    ops = [np.eye(d, dtype=complex) / np.sqrt(d)] + [
        f / np.sqrt(2) for f in hermitian_basis(d)[1:]]
    v = np.stack([f.reshape(-1) for f in ops], axis=1)     # row-major vec
    a_full = v.conj().T @ j @ v

    kossakowski = a_full[1:, 1:]
    k_op = (a_full[0, 0] / (2 * d)) * np.eye(d, dtype=complex)
    for m in range(1, d * d):
        k_op = k_op + a_full[m, 0] / np.sqrt(d) * ops[m]
    h = 1j * (k_op - k_op.conj().T) / 2
    h = h - np.trace(h) / d * np.eye(d)

    w, u = np.linalg.eigh((kossakowski + kossakowski.conj().T) / 2)
    order = np.argsort(w)[::-1]
    rates = w[order]
    c_ops = []
    for idx in order:
        c = np.zeros((d, d), dtype=complex)
        for m in range(d * d - 1):
            c = c + u[m, idx] * ops[m + 1]
        c_ops.append(c)

    gen = CanonicalGenerator(h, c_ops, rates, 0.0)
    resid = float(np.max(np.abs(gen.as_matrix() - lm)))
    if resid > max(tol, tol * scale):
        raise ValueError(f"canonical reconstruction residual {resid:.3e} > tol")
    return CanonicalGenerator(h, c_ops, rates, resid)
