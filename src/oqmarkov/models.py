"""Concrete system--environment and map-only models behind a uniform
interface, each bundling the closed-form results that make it useful as a
test oracle.

Every joint model is defined by the pair (joint unitary family, initial
environment state). The criterion checkers only need three things from a
model: the spectral branches of the initial environment state, the action
of the joint propagator on vectors, and (optionally) a unitary frame for
the environment that defines the replaced-environment maps. Dense
propagator matrices are available whenever the joint dimension is small;
the Lorentzian-bath dephasing model works purely through its diagonal
vector action.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np
import scipy.integrate
import scipy.linalg

from .core import Operator, ID2, SM, SP, SX, SZ, ket
from .superop import SuperOperator, LindbladSpec, vec

DENSE_JOINT_LIMIT = 4096


def _eig_branches(mat: np.ndarray, tol: float = 1e-12):
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    return [(float(w[i]), v[:, i].copy()) for i in range(len(w)) if w[i] > tol]


class JointModel:
    """System--environment dynamics: dims, initial bath state, propagators."""

    name = "joint"
    t0 = 0.0
    dim_s = 0
    dim_e = 0
    env_kind = "generic"          # qubit | register | product | grid | generic
    analytic_map_available = False
    supports_dd = True
    supports_unravelling = False

    def env_branches(self):
        """Spectral decomposition [(weight, vector)] of the initial bath state."""
        raise NotImplementedError

    def rho_e0_matrix(self) -> np.ndarray:
        if self.dim_e > DENSE_JOINT_LIMIT:
            raise ValueError(f"environment dimension {self.dim_e} too large for a dense state")
        rho = np.zeros((self.dim_e, self.dim_e), dtype=complex)
        for p, v in self.env_branches():
            rho += p * np.outer(v, v.conj())
        return rho

    def propagator(self, t1: float, t2: float) -> Operator:
        raise NotImplementedError(f"{self.name}: dense propagator unavailable")

    @property
    def has_dense_propagator(self) -> bool:
        return self.dim_s * self.dim_e <= DENSE_JOINT_LIMIT

    def apply_propagator(self, t1: float, t2: float, joint: np.ndarray) -> np.ndarray:
        return self.propagator(t1, t2).mat @ joint

    def env_frame(self, t0: float, t: float) -> np.ndarray | None:
        """Unitary on the bath defining the replaced-environment state; None
        when the model has no meaningful frame."""
        return None

    def apply_env_frame(self, t0: float, t: float, env_vec: np.ndarray) -> np.ndarray:
        w = self.env_frame(t0, t)
        if w is None:
            raise ValueError(f"{self.name}: no environment frame defined")
        return w @ env_vec if not _is_identity_marker(w) else env_vec

    @property
    def has_env_frame(self) -> bool:
        return self.env_frame(self.t0, self.t0 + 1.0) is not None

    def nib_candidates(self, t1: float):
        """Replacement-state candidates worth trying before any grid search."""
        return []

    def joint_branches(self, rho_s0: np.ndarray, t: float):
        """Branches [(weight, joint vector at time t)] from a factorized start."""
        out = []
        for q, s in _eig_branches(np.asarray(rho_s0, dtype=complex)):
            for p, e in self.env_branches():
                v = np.kron(s, e)
                out.append((q * p, self.apply_propagator(self.t0, t, v)))
        return out

    def reduced_state(self, rho_s0: np.ndarray, t: float) -> np.ndarray:
        ds, de = self.dim_s, self.dim_e
        rho = np.zeros((ds, ds), dtype=complex)
        for w, v in self.joint_branches(rho_s0, t):
            m = v.reshape(ds, de)
            rho += w * (m @ m.conj().T)
        return rho


_IDENTITY = "identity-frame"


def _is_identity_marker(w) -> bool:
    return isinstance(w, str) and w == _IDENTITY


class IdentityFrameModel(JointModel):
    """Bath with no free Hamiltonian: the environment frame is the identity."""

    def env_frame(self, t0: float, t: float):
        return np.eye(self.dim_e, dtype=complex)

    def apply_env_frame(self, t0: float, t: float, env_vec: np.ndarray) -> np.ndarray:
        return env_vec

    @property
    def has_env_frame(self) -> bool:
        # known without building the dim_e x dim_e identity
        return True


class MapFamilyModel:
    """Dynamics specified by the family of maps from t0 alone."""

    name = "map-family"
    t0 = 0.0
    dim_s = 0
    analytic_map_available = True

    def map(self, t: float) -> SuperOperator:
        raise NotImplementedError

    def generator(self, t: float) -> SuperOperator | None:
        return None


# ---------------------------------------------------------------------------
# Lorentzian-bath dephasing model (qubit coupled to one continuous mode)
# ---------------------------------------------------------------------------

def _smooth_step(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        g = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return f / (f + g)


def _lorentz_grid_weights(n_points: int, cutoff: float, taper_start: float,
                          bump_width: float):
    """Quadrature nodes/weights on [-cutoff, cutoff] whose discrete
    characteristic function tracks exp(-|a|) on a band bounded away from 0.

    A hard truncation of the Lorentzian loses tail mass that shows up as a
    few-times-1e-3 error in the characteristic function after
    renormalization. Instead the density is tapered smoothly to zero near
    the cutoff and the missing mass is re-deposited as a wide central
    Gaussian whose own transform is negligible beyond the band edge.
    """
    x = np.linspace(-cutoff, cutoff, n_points)
    dx = x[1] - x[0]
    window = _smooth_step((cutoff - np.abs(x)) / (cutoff - taper_start))
    w = (1.0 / np.pi) / (1.0 + x ** 2) * dx * window
    missing = 1.0 - w.sum()
    bump = np.exp(-0.5 * (x / bump_width) ** 2)
    bump /= bump.sum()
    return x, w + missing * bump


class AflModel(IdentityFrameModel):
    """Qubit dephasing through a single Lorentzian-distributed bath coordinate.

    The coupling (g/2) sigma_z (x) x_hat keeps the joint unitary diagonal in
    the bath coordinate, so the exact reduced dynamics multiplies each
    coherence by the bath characteristic function chi(a) = exp(-gamma|a|)
    evaluated at the accumulated phase slope. The model carries both this
    analytic kernel and a quadrature grid whose discretization error is
    measured on construction.
    """

    name = "afl"
    env_kind = "grid"
    analytic_map_available = True
    check_tol = 1e-5    # grid-limited: checker tolerances cannot go below
                        # the quadrature error of the discretized bath

    def __init__(self, gamma: float = 1.0, g: float = 2.0, n_points: int = 4001,
                 cutoff: float | None = None, taper_start: float | None = None,
                 bump_width: float | None = None, band=(0.3, 12.0),
                 quad_tol: float = 1e-5):
        if gamma <= 0 or g <= 0:
            raise ValueError("gamma and g must be positive")
        if n_points < 3:
            raise ValueError("grid too coarse")
        self.gamma = float(gamma)
        self.g = float(g)
        cutoff = 200.0 if cutoff is None else cutoff / gamma
        taper_start = cutoff / 2 if taper_start is None else taper_start / gamma
        bump_width = 30.0 if bump_width is None else bump_width / gamma
        u, w = _lorentz_grid_weights(n_points, cutoff, taper_start, bump_width)
        if np.min(w) < 0:
            raise ValueError("grid too coarse: tapered weights go negative")
        self._u = u                      # standardized coordinate x / gamma
        self.x = gamma * u
        self.weights = w
        self.band = band
        self.quadrature_error = self._band_error()
        if self.quadrature_error > quad_tol:
            raise ValueError(
                f"grid too coarse: characteristic-function error "
                f"{self.quadrature_error:.3e} > {quad_tol:.1e} on band {band}")
        self.amplitudes = np.sqrt(w).astype(complex)  # bath phases are immaterial:
        # the joint evolution is diagonal in x, so a local phase on the bath
        # never enters reduced states, correlations, or entanglement.
        self.dim_s = 2
        self.dim_e = n_points

    def _band_error(self) -> float:
        b = np.linspace(self.band[0], self.band[1], 600)
        vals = np.array([np.sum(self.weights * np.cos(bb * self._u)) for bb in b])
        return float(np.max(np.abs(vals - np.exp(-b))))

    # chi(a) = integral of exp(-i a x) against the bath distribution
    def chi_exact(self, a: float) -> float:
        return math.exp(-self.gamma * abs(a))

    def chi_grid(self, a: float) -> float:
        return float(np.sum(self.weights * np.cos(a * self.x)))

    def env_branches(self):
        return [(1.0, self.amplitudes)]

    def apply_propagator(self, t1, t2, joint):
        dt = t2 - t1
        m = joint.reshape(2, self.dim_e).copy()
        phase = np.exp(-1j * (self.g / 2) * self.x * dt)
        m[0] *= phase          # sigma_z eigenvalue +1
        m[1] *= phase.conj()   # sigma_z eigenvalue -1
        return m.reshape(-1)

    @property
    def has_dense_propagator(self) -> bool:
        return False

    def dephasing_map(self, t1: float, t2: float, analytic: bool = True) -> SuperOperator:
        chi = self.chi_exact if analytic else self.chi_grid
        lam = (1.0, -1.0)
        m = np.zeros((4, 4), dtype=complex)
        for r in range(2):
            for c in range(2):
                a = (self.g / 2) * (lam[r] - lam[c]) * (t2 - t1)
                m[r + 2 * c, r + 2 * c] = chi(a)
        return SuperOperator(m, 2)

    def analytic_map(self, t0: float, t: float) -> SuperOperator:
        return self.dephasing_map(t0, t, analytic=True)

    # --- multi-time correlation oracles -----------------------------------
    def chi_of_accumulated(self, segments) -> float:
        """Single chi of the summed phase slope over [(lam_ket, lam_bra, dt)]."""
        a = sum((self.g / 2) * (lk - lb) * dt for lk, lb, dt in segments)
        return self.chi_exact(a)

    def chi_of_product(self, segments) -> float:
        """Product of per-interval chi factors over [(lam_ket, lam_bra, dt)]."""
        out = 1.0
        for lk, lb, dt in segments:
            out *= self.chi_exact((self.g / 2) * (lk - lb) * dt)
        return out

    def three_time_failure_case(self, t1: float = 0.5, dt2: float = 0.5,
                                dt3: float = 0.5):
        """Accumulated-vs-product split for the slope pattern (+-, ++, -+)."""
        segs = [(1, -1, t1), (1, 1, dt2), (-1, 1, dt3)]
        return self.chi_of_accumulated(segs), self.chi_of_product(segs)

    def correlation_exact(self, c_ops, times, rho_s0) -> complex:
        """Multi-time correlation Tr[C_n U ... C_1 U C_0 rho] evaluated with
        the exact bath kernel. c_ops[j] = (A_j, B_j) acts as X -> B X A at
        times[j]; times[0] must be the initial time."""
        lam = (1.0, -1.0)
        terms = {0.0: _apply_cop(c_ops[0], np.asarray(rho_s0, dtype=complex))}
        for j in range(1, len(times)):
            dt = times[j] - times[j - 1]
            new: dict = {}
            for a, m in terms.items():
                for r in range(2):
                    for c in range(2):
                        if m[r, c] == 0:
                            continue
                        key = round(a + (self.g / 2) * (lam[r] - lam[c]) * dt, 12)
                        blk = new.setdefault(key, np.zeros((2, 2), dtype=complex))
                        blk[r, c] += m[r, c]
            terms = {a: _apply_cop(c_ops[j], m) for a, m in new.items()}
        return complex(sum(self.chi_exact(a) * np.trace(m) for a, m in terms.items()))

    def correlation_regression(self, c_ops, times, rho_s0) -> complex:
        """Same correlation predicted from system-only replaced-bath maps."""
        m = _apply_cop(c_ops[0], np.asarray(rho_s0, dtype=complex))
        lam = (1.0, -1.0)
        for j in range(1, len(times)):
            dt = times[j] - times[j - 1]
            fac = np.array([[self.chi_exact((self.g / 2) * (lam[r] - lam[c]) * dt)
                             for c in range(2)] for r in range(2)])
            m = _apply_cop(c_ops[j], fac * m)
        return complex(np.trace(m))


def _apply_cop(c_op, x: np.ndarray) -> np.ndarray:
    a, b = c_op
    return np.asarray(b, dtype=complex) @ x @ np.asarray(a, dtype=complex)


def afl(gamma: float = 1.0, g: float = 2.0, n_points: int = 4001,
        **kwargs) -> AflModel:
    """Lorentzian-bath qubit dephasing model; defaults to gamma = g/2 = 1."""
    return AflModel(gamma, g, n_points, **kwargs)


# ---------------------------------------------------------------------------
# Two-atom excitation-exchange model
# ---------------------------------------------------------------------------

_EXCHANGE = np.kron(SM, SP) + np.kron(SP, SM)
_EXCH_EIG = np.linalg.eigh(_EXCHANGE)


class TamModel(IdentityFrameModel):
    """Two two-level atoms exchanging one excitation with coupling tuned so
    the reduced dynamics from a ground-state partner is constant-rate decay.

    The coupling g(t) = 1/sqrt(e^{2t}-1) integrates to
    theta(t) = arccos(e^{-t}); because the interaction direction is fixed,
    the propagator between any two times is exp(-i (theta2-theta1) h) with
    h the exchange generator, which avoids stepping through the divergence
    of g at the initial instant.
    """

    name = "tam"
    env_kind = "qubit"
    analytic_map_available = True

    def __init__(self, t0: float = 0.0):
        if t0 < 0:
            raise ValueError("negative times not allowed")
        self.t0 = float(t0)
        self.dim_s = 2
        self.dim_e = 2

    @staticmethod
    def coupling(t: float) -> float:
        return 1.0 / math.sqrt(math.expm1(2.0 * t))

    @staticmethod
    def theta(t: float) -> float:
        if t < 0:
            raise ValueError("negative times not allowed")
        return math.acos(math.exp(-t))

    @staticmethod
    def theta_quadrature(t: float) -> float:
        """Integral of the coupling, with the substitution s = u^2 removing
        the integrable inverse-square-root divergence at s = 0."""
        def f(u):
            s = u * u
            return 2.0 * u / math.sqrt(math.expm1(2.0 * s)) if s > 0 else math.sqrt(2.0)
        val, _ = scipy.integrate.quad(f, 0.0, math.sqrt(t), limit=200)
        return val

    def env_branches(self):
        return [(1.0, ket(0, 2))]

    def propagator(self, t1: float, t2: float) -> Operator:
        if t1 < 0 or t2 < 0:
            raise ValueError("negative times not allowed")
        phi = self.theta(t2) - self.theta(t1)
        w, v = _EXCH_EIG
        u = (v * np.exp(-1j * phi * w)) @ v.conj().T
        return Operator(u, (2, 2))

    def analytic_map(self, t0: float, t: float) -> SuperOperator:
        """Amplitude-damping map with coherence factor cos(theta(t)-theta(t0))."""
        c = math.cos(self.theta(t) - self.theta(t0))
        m = np.zeros((4, 4), dtype=complex)
        # column-stacked basis |r + 2c>: populations and coherences
        m[0, 0] = 1.0
        m[0, 3] = 1.0 - c * c
        m[3, 3] = c * c
        m[1, 1] = c
        m[2, 2] = c
        return SuperOperator(m, 2)

    def nib_candidates(self, t1: float):
        return [np.diag([1.0, 0.0]).astype(complex)]


def tam(t0: float = 0.0) -> TamModel:
    return TamModel(t0)


def tam_post_replacement_model(t1: float) -> TamModel:
    """Dynamics continued after the partner atom is reset to its ground state."""
    return TamModel(t0=t1)


def tam_post_replacement_rate(t1: float, t: float) -> float:
    """Reference decay coefficient (g g1 - g^2)/(g g1 - 1) for the reset model."""
    g1, gt = TamModel.coupling(t1), TamModel.coupling(t)
    return (gt * g1 - gt * gt) / (gt * g1 - 1.0)


def tam_post_replacement_rate_closed_form(t1: float, t: float) -> float:
    """Decay coefficient tan(theta(t)-theta(t1)) g(t) of the reset model,
    equal to (g g1 - g^2)/(g g1 + 1); this is what tomography extracts."""
    return math.tan(TamModel.theta(t) - TamModel.theta(t1)) * TamModel.coupling(t)


# ---------------------------------------------------------------------------
# Controlled-phase qubit pair (classical bath register in disguise)
# ---------------------------------------------------------------------------

class NqibModel(IdentityFrameModel):
    """Qubit whose phase is conditioned on a maximally mixed partner qubit.

    The joint state stays a mixture of products at all times (no
    entanglement is ever created), the reduced state recurs with period
    4*pi/angular rate, and a projective measure-and-reprepare intervention
    on the partner leaves the dynamics untouched.
    """

    name = "nqib"
    env_kind = "qubit"
    analytic_map_available = True
    supports_unravelling = False

    def __init__(self):
        self.dim_s = 2
        self.dim_e = 2

    def env_branches(self):
        return [(0.5, ket(0, 2)), (0.5, ket(1, 2))]

    def propagator(self, t1: float, t2: float) -> Operator:
        dt = t2 - t1
        uz = np.diag([np.exp(-1j * dt / 2), np.exp(1j * dt / 2)])
        u = np.kron(ID2, np.diag([1.0, 0.0])) + np.kron(uz, np.diag([0.0, 1.0]))
        return Operator(u.astype(complex), (2, 2))

    def analytic_map(self, t0: float, t: float) -> SuperOperator:
        f = (1.0 + np.exp(-1j * (t - t0))) / 2.0
        # column-stacked index r + 2c: entry 1 is rho_{10}, entry 2 is rho_{01}
        m = np.diag([1.0, np.conj(f), f, 1.0]).astype(complex)
        return SuperOperator(m, 2)

    def breaking_channel(self, t1: float):
        """Projective computational measurement with re-preparation of the
        measured state: a measure-and-prepare channel that acts trivially on
        this model's (always diagonal) bath marginal."""
        povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        states = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        return povm, states


def nqib_qubit() -> NqibModel:
    return NqibModel()


# ---------------------------------------------------------------------------
# Collision model
# ---------------------------------------------------------------------------

def swap_gate(d: int = 2) -> np.ndarray:
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def partial_swap(eta: float, d: int = 2) -> np.ndarray:
    """exp(-i eta SWAP) = cos(eta) I - i sin(eta) SWAP."""
    return math.cos(eta) * np.eye(d * d) - 1j * math.sin(eta) * swap_gate(d)


def _permute_subsystems(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    n = len(dims)
    t = mat.reshape(tuple(dims) + tuple(dims))
    axes = tuple(perm) + tuple(p + n for p in perm)
    out_dims = [dims[p] for p in perm]
    d = int(np.prod(dims))
    return t.transpose(axes).reshape(d, d)


class CollisionModel(IdentityFrameModel):
    """Sequential pairwise collisions with fresh, identical ancillas.

    During the k-th slot the system interacts with ancilla k only; a query
    strictly inside a slot interpolates the pair unitary by a fractional
    matrix power, so the slot boundaries are the exact discrete time set.
    """

    name = "collision"
    env_kind = "product"
    supports_unravelling = True

    def __init__(self, n_slots: int, pair_unitary: np.ndarray,
                 ancilla_state: np.ndarray | None = None,
                 slot_times: Sequence[float] | None = None):
        u = np.asarray(pair_unitary, dtype=complex)
        if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > 1e-10:
            raise ValueError("pair_unitary is not unitary")
        self.n_slots = int(n_slots)
        d2 = u.shape[0]
        self.dim_a = int(round(math.sqrt(d2)))
        self.dim_s = d2 // self.dim_a
        if self.dim_s * self.dim_a != d2:
            raise ValueError("pair unitary side must be dim_s * dim_a with dim_s == dim_a")
        self.pair_unitary = u
        anc = ket(0, self.dim_a) if ancilla_state is None else np.asarray(ancilla_state, dtype=complex)
        if anc.ndim == 2:
            anc_branches = _eig_branches(anc)
        else:
            anc = anc / np.linalg.norm(anc)
            anc_branches = [(1.0, anc)]
        self._anc_branches = anc_branches
        if slot_times is None:
            slot_times = np.arange(self.n_slots + 1, dtype=float)
        self.slot_times = np.asarray(slot_times, dtype=float)
        if len(self.slot_times) != self.n_slots + 1 or np.any(np.diff(self.slot_times) <= 0):
            raise ValueError("slot_times must be n_slots+1 strictly increasing boundaries")
        self.t0 = float(self.slot_times[0])
        self.dim_e = self.dim_a ** self.n_slots
        t, z = scipy.linalg.schur(u, output="complex")   # unitary is normal
        self._pair_eig = (np.angle(np.diag(t)), z)

    def ancilla_vector(self) -> np.ndarray:
        if len(self._anc_branches) != 1:
            raise ValueError("ancilla state is mixed")
        return self._anc_branches[0][1]

    def env_branches(self):
        out = [(1.0, np.ones(1, dtype=complex))]
        for _ in range(self.n_slots):
            out = [(p * q, np.kron(v, a)) for p, v in out for q, a in self._anc_branches]
        return out

    def fresh_env_state(self) -> np.ndarray:
        rho = None
        anc = sum(p * np.outer(v, v.conj()) for p, v in self._anc_branches)
        for _ in range(self.n_slots):
            rho = anc if rho is None else np.kron(rho, anc)
        return rho

    def nib_candidates(self, t1: float):
        return [self.fresh_env_state()]

    def _pair_power(self, s: float) -> np.ndarray:
        if abs(s - 1.0) < 1e-12:
            return self.pair_unitary
        ang, z = self._pair_eig
        return (z * np.exp(1j * ang * s)) @ z.conj().T

    def _embedded_slot_unitary(self, k: int, s: float) -> np.ndarray:
        dims = [self.dim_s] + [self.dim_a] * self.n_slots
        u_pair = self._pair_power(s)
        rest = self.dim_e // self.dim_a
        big = np.kron(u_pair, np.eye(rest, dtype=complex))
        # big acts on ordering (system, ancilla k, other ancillas in order)
        order = [0, k + 1] + [i + 1 for i in range(self.n_slots) if i != k]
        inverse = np.argsort(order)
        big_dims = [dims[i] for i in order]
        return _permute_subsystems(big, big_dims, inverse)

    @functools.lru_cache(maxsize=512)
    def _propagator_cached(self, t1: float, t2: float) -> np.ndarray:
        if t1 < self.slot_times[0] - 1e-12 or t2 > self.slot_times[-1] + 1e-12:
            raise ValueError(f"time query [{t1}, {t2}] beyond the slot schedule")
        if t2 < t1:
            raise ValueError("t2 < t1")
        u = np.eye(self.dim_s * self.dim_e, dtype=complex)
        for k in range(self.n_slots):
            a, b = self.slot_times[k], self.slot_times[k + 1]
            lo, hi = max(t1, a), min(t2, b)
            if hi - lo > 1e-12:
                frac = (hi - lo) / (b - a)
                u = self._embedded_slot_unitary(k, frac) @ u
        return u

    def propagator(self, t1: float, t2: float) -> Operator:
        return Operator(self._propagator_cached(float(t1), float(t2)),
                        (self.dim_s,) + (self.dim_a,) * self.n_slots)


def collision(n_slots: int = 6, pair_unitary: np.ndarray | None = None,
              ancilla_state: np.ndarray | None = None,
              slot_times: Sequence[float] | None = None) -> CollisionModel:
    """Collision model preset: partial-swap collisions (angle pi/4) on
    ground-state qubit ancillas unless told otherwise."""
    if pair_unitary is None:
        pair_unitary = partial_swap(math.pi / 4)
    return CollisionModel(n_slots, pair_unitary, ancilla_state, slot_times)


# ---------------------------------------------------------------------------
# Static bath register (commuting dephasing; supports echo sequences)
# ---------------------------------------------------------------------------

class StaticDephasingModel(IdentityFrameModel):
    """System Hamiltonian drawn from a classical register: H = sum_j H_j (x) |j><j|.

    The register never evolves, so the bath correlation time is infinite;
    sign-flipping control pulses refocus the conditional evolution exactly.
    """

    name = "static-dephasing"
    env_kind = "register"
    supports_unravelling = True

    def __init__(self, probabilities: Sequence[float], hamiltonians: Sequence[np.ndarray]):
        p = np.asarray(probabilities, dtype=float)
        if abs(p.sum() - 1.0) > 1e-10 or np.any(p < 0):
            raise ValueError("probabilities must be nonnegative and sum to 1")
        hs = [np.asarray(h, dtype=complex) for h in hamiltonians]
        if len(hs) != len(p):
            raise ValueError("one Hamiltonian per register level required")
        for h in hs:
            if np.max(np.abs(h - h.conj().T)) > 1e-10:
                raise ValueError("register Hamiltonians must be Hermitian")
        self.probs = p
        self.hams = hs
        self.dim_s = hs[0].shape[0]
        self.dim_e = len(p)

    def env_branches(self):
        return [(float(self.probs[j]), ket(j, self.dim_e))
                for j in range(self.dim_e) if self.probs[j] > 1e-14]

    def sector_unitary(self, j: int, dt: float) -> np.ndarray:
        w, v = np.linalg.eigh(self.hams[j])
        return (v * np.exp(-1j * w * dt)) @ v.conj().T

    def propagator(self, t1: float, t2: float) -> Operator:
        u = np.zeros((self.dim_s * self.dim_e,) * 2, dtype=complex)
        for j in range(self.dim_e):
            proj = np.zeros((self.dim_e, self.dim_e)); proj[j, j] = 1.0
            u += np.kron(self.sector_unitary(j, t2 - t1), proj)
        return Operator(u, (self.dim_s, self.dim_e))


def static_dephasing(probabilities: Sequence[float] | None = None,
                     hamiltonians: Sequence[np.ndarray] | None = None,
                     kappa: float = 1.0) -> StaticDephasingModel:
    """Preset: symmetric two-level register with f sigma_z rates +-kappa."""
    if probabilities is None or hamiltonians is None:
        probabilities = [0.5, 0.5]
        hamiltonians = [kappa * SZ, -kappa * SZ]
    return StaticDephasingModel(probabilities, hamiltonians)


# ---------------------------------------------------------------------------
# Map-only model: always-divisibility-violating qubit dephasing family
# ---------------------------------------------------------------------------

class EternalModel(MapFamilyModel):
    """Qubit Pauli-channel family with canonical rates (1, 1, -tanh t).

    The maps from the initial time are completely positive at every t while
    every intermediate map between distinct times fails complete positivity;
    distinguishability of state pairs still never increases.
    """

    name = "eternal"

    def __init__(self):
        self.dim_s = 2

    @staticmethod
    def bloch_multipliers(t: float):
        lx = (1.0 + math.exp(-2.0 * t)) / 2.0
        return lx, lx, math.exp(-2.0 * t)

    @staticmethod
    def rates(t: float):
        return 1.0, 1.0, -math.tanh(t)

    def map(self, t: float) -> SuperOperator:
        return pauli_channel_map(*self.bloch_multipliers(t))

    def intermediate_multipliers(self, t1: float, t2: float):
        l1 = self.bloch_multipliers(t1)
        l2 = self.bloch_multipliers(t2)
        return tuple(a / b for a, b in zip(l2, l1))

    def intermediate_choi_spectrum(self, t1: float, t2: float) -> np.ndarray:
        """Closed-form Choi spectrum (trace-d normalization) of the map
        between two times, from the Bloch multiplier ratios."""
        lx, ly, lz = self.intermediate_multipliers(t1, t2)
        probs = np.array([1 + lx + ly + lz, 1 + lx - ly - lz,
                          1 - lx + ly - lz, 1 - lx - ly + lz]) / 4.0
        return np.sort(2.0 * probs)

    def generator(self, t: float) -> SuperOperator:
        spec = self.lindblad_spec()
        return SuperOperator(spec.generator(t), 2)

    def lindblad_spec(self) -> LindbladSpec:
        from .core import SY
        return LindbladSpec(2, None, [
            (SX / np.sqrt(2.0), 1.0),
            (SY / np.sqrt(2.0), 1.0),
            (SZ / np.sqrt(2.0), lambda t: -math.tanh(t)),
        ])


def pauli_channel_map(lx: float, ly: float, lz: float) -> SuperOperator:
    """Unital qubit map with the given Bloch-vector multipliers."""
    from .core import SY
    basis = [np.eye(2, dtype=complex), SX, SY, SZ]
    mult = [1.0, lx, ly, lz]
    m = np.zeros((4, 4), dtype=complex)
    for b, lam in zip(basis, mult):
        vb = vec(b) / np.sqrt(2.0)
        m += lam * np.outer(vb, vb.conj())
    return SuperOperator(m, 2)


def eternal_me() -> EternalModel:
    return EternalModel()


# ---------------------------------------------------------------------------
# Bath correlation functions and pulse-interleaved propagation
# ---------------------------------------------------------------------------

def bath_correlation(model: JointModel, a_e: np.ndarray, b_e: np.ndarray,
                     t: float, tp: float):
    """Symmetric/antisymmetric bath correlation pair of two bath operators.

    Operators are moved to the interaction frame defined by the model's
    environment frame before averaging in the initial bath state. Returns
    (g_plus, g_minus, lab_frame_flag); the flag is set when the model has no
    frame and the lab frame was used instead.
    """
    if model.dim_e > DENSE_JOINT_LIMIT:
        raise ValueError("environment too large for dense correlation functions")
    rho = model.rho_e0_matrix()
    lab_frame = not model.has_env_frame
    def frame_op(op, at):
        op = np.asarray(op, dtype=complex)
        if lab_frame:
            return op
        w = model.env_frame(model.t0, at)
        return w.conj().T @ op @ w
    xa, xb = frame_op(a_e, t), frame_op(b_e, tp)
    g_plus = 0.5 * np.trace(rho @ (xa @ xb + xb @ xa))
    g_minus = 0.5 * np.trace(rho @ (xa @ xb - xb @ xa))
    return complex(g_plus), complex(g_minus), lab_frame


def dd_apply(model: JointModel, pulses: Sequence[np.ndarray],
             times: Sequence[float], t_end: float | None = None) -> SuperOperator:
    """Map produced by free joint evolution interleaved with instantaneous
    system control unitaries, tracing the bath out at the end.

    With an empty pulse list this reduces to the ordinary dynamical map up
    to t_end.
    """
    times = list(times)
    if len(pulses) != len(times):
        raise ValueError("one pulse per pulse time required")
    for p in pulses:
        p = np.asarray(p)
        if np.max(np.abs(p.conj().T @ p - np.eye(p.shape[0]))) > 1e-10:
            raise ValueError("pulse is not unitary")
    if t_end is None:
        t_end = times[-1] if times else model.t0
    ds, de = model.dim_s, model.dim_e
    basis_vecs = []
    for p, e in model.env_branches():
        for i in range(ds):
            basis_vecs.append((p, i, np.kron(ket(i, ds), e)))
    evolved = {}
    for p, i, v in basis_vecs:
        tcur = model.t0
        for pulse, tk in zip(pulses, times):
            v = model.apply_propagator(tcur, tk, v)
            v = (np.asarray(pulse, dtype=complex) @ v.reshape(ds, de)).reshape(-1)
            tcur = tk
        if t_end > tcur + 1e-15:
            v = model.apply_propagator(tcur, t_end, v)
        evolved.setdefault(i, []).append((p, v))
    m = np.zeros((ds * ds, ds * ds), dtype=complex)
    for i in range(ds):
        for j in range(ds):
            out = np.zeros((ds, ds), dtype=complex)
            for (p1, u), (p2, w) in zip(evolved[i], evolved[j]):
                um, wm = u.reshape(ds, de), w.reshape(ds, de)
                out += p1 * (um @ wm.conj().T)
            m[:, i + ds * j] = vec(out)
    return SuperOperator(m, ds)


# ---------------------------------------------------------------------------
# Preset registry
# ---------------------------------------------------------------------------

PRESETS: dict[str, Callable] = {
    "afl": afl,
    "tam": tam,
    "nqib": nqib_qubit,
    "collision": collision,
    "static-dephasing": static_dephasing,
    "eternal": eternal_me,
}


def make_model(name: str, **params):
    if name not in PRESETS:
        raise KeyError(f"unknown model preset '{name}'; known: {sorted(PRESETS)}")
    return PRESETS[name](**params)
