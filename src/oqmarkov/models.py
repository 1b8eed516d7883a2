"""Concrete system--environment and map-only models behind a uniform
interface, each bundling the closed-form results that make it useful as a
test oracle.

Every joint model is defined by the pair (joint unitary family, initial
environment state). The criterion checkers only need two things from a
model: the spectral branches of the initial environment state and the
action of the joint propagator on vectors. Every joint model is written in
the interaction picture of its bath (the bath has no free Hamiltonian), so
a replaced-environment map resets the bath to its initial state.

`apply_propagator(t1, t2, joint)` is the one propagation contract: each
joint model defines it as the action of U(t2, t1) on a joint vector,
without forming the joint matrix (the collision model applies one pair
unitary per slot). The dense `propagator` is derived from it, column by
column, and only exists for joint dimensions up to `DENSE_JOINT_LIMIT`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import Operator, SM, SP, SX, SZ, ket
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

    def apply_propagator(self, t1: float, t2: float, joint: np.ndarray) -> np.ndarray:
        """U(t2, t1) applied to a joint vector (system index major)."""
        raise NotImplementedError

    def propagator(self, t1: float, t2: float) -> Operator:
        """Dense U(t2, t1), one apply_propagator call per column."""
        d = self.dim_s * self.dim_e
        if d > DENSE_JOINT_LIMIT:
            raise ValueError(f"{self.name}: joint dimension {d} too large for a dense propagator")
        cols = [self.apply_propagator(t1, t2, e) for e in np.eye(d, dtype=complex)]
        return Operator(np.column_stack(cols), (self.dim_s, self.dim_e))

    def nib_candidates(self, t1: float):
        """Replacement-state candidates worth trying before any grid search."""
        return []

    def joint_branches(self, rho_s0: np.ndarray, t: float):
        """Branches [(weight, joint vector at time t)] from a factorized start."""
        return [(q * p, evolve(self, np.kron(s, e), (self.t0, t), (None, None)))
                for q, s in _eig_branches(np.asarray(rho_s0, dtype=complex))
                for p, e in self.env_branches()]

    def reduced_state(self, rho_s0: np.ndarray, t: float) -> np.ndarray:
        ds, de = self.dim_s, self.dim_e
        rho = np.zeros((ds, ds), dtype=complex)
        for w, v in self.joint_branches(rho_s0, t):
            m = v.reshape(ds, de)
            rho += w * (m @ m.conj().T)
        return rho


class MapFamilyModel:
    """Dynamics specified by the family of maps from t0 alone."""

    name = "map-family"
    t0 = 0.0
    dim_s = 0

    def map(self, t: float) -> SuperOperator:
        raise NotImplementedError

    def generator(self, t: float) -> SuperOperator | None:
        return None


# ---------------------------------------------------------------------------
# Evolve-and-trace kernel
# ---------------------------------------------------------------------------

def evolve(model: JointModel, joint: np.ndarray, times: Sequence[float],
           ops: Sequence) -> np.ndarray:
    """Joint vector after a schedule: the system operator ops[k] acts at
    times[k] (None acts as the identity), with the joint propagation
    between consecutive times."""
    ds, de = model.dim_s, model.dim_e
    for k, op in enumerate(ops):
        if k:
            joint = model.apply_propagator(times[k - 1], times[k], joint)
        if op is not None:
            joint = (np.asarray(op, dtype=complex) @ joint.reshape(ds, de)).reshape(-1)
    return joint


def assemble_map(model: JointModel, branches, times: Sequence[float], ops: Sequence,
                 effect: np.ndarray | None = None) -> SuperOperator:
    """System map X -> Tr_E[(1 (x) F) K (X (x) sigma) K^dag] of a schedule K
    (see evolve) started from the bath state sigma = sum_b w_b |e_b><e_b|,
    given as branches [(w_b, e_b)] whose weights may be negative. The bath
    effect F defaults to the identity, the plain partial trace."""
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


class AflModel(JointModel):
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


class TamModel(JointModel):
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
        import scipy.integrate

        def f(u):
            s = u * u
            return 2.0 * u / math.sqrt(math.expm1(2.0 * s)) if s > 0 else math.sqrt(2.0)
        val, _ = scipy.integrate.quad(f, 0.0, math.sqrt(t), limit=200)
        return val

    def env_branches(self):
        return [(1.0, ket(0, 2))]

    def apply_propagator(self, t1, t2, joint):
        if t1 < 0 or t2 < 0:
            raise ValueError("negative times not allowed")
        phi = self.theta(t2) - self.theta(t1)
        w, v = _EXCH_EIG
        return ((v * np.exp(-1j * phi * w)) @ v.conj().T) @ joint

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

class NqibModel(JointModel):
    """Qubit whose phase is conditioned on a maximally mixed partner qubit.

    The joint state stays a mixture of products at all times (no
    entanglement is ever created), the reduced state recurs with period
    4*pi/angular rate, and a projective measure-and-reprepare intervention
    on the partner leaves the dynamics untouched.
    """

    name = "nqib"
    env_kind = "qubit"

    def __init__(self):
        self.dim_s = 2
        self.dim_e = 2

    def env_branches(self):
        return [(0.5, ket(0, 2)), (0.5, ket(1, 2))]

    def apply_propagator(self, t1, t2, joint):
        # partner in |1>: phase exp(-+i dt/2) on system level 0/1
        dt = t2 - t1
        m = joint.reshape(2, 2).copy()
        m[:, 1] *= [np.exp(-1j * dt / 2), np.exp(1j * dt / 2)]
        return m.reshape(-1)

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


class CollisionModel(JointModel):
    """Sequential pairwise collisions with fresh, identical ancillas.

    During the k-th slot the system interacts with ancilla k only; a query
    strictly inside a slot interpolates the pair unitary by a fractional
    matrix power, so the slot boundaries are the exact discrete time set.
    """

    name = "collision"
    env_kind = "product"

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
        import scipy.linalg
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

    def apply_propagator(self, t1, t2, joint):
        if t1 < self.slot_times[0] - 1e-12 or t2 > self.slot_times[-1] + 1e-12:
            raise ValueError(f"time query [{t1}, {t2}] beyond the slot schedule")
        if t2 < t1:
            raise ValueError("t2 < t1")
        ds, da = self.dim_s, self.dim_a
        psi = joint.reshape((ds,) + (da,) * self.n_slots)
        for k in range(self.n_slots):
            a, b = self.slot_times[k], self.slot_times[k + 1]
            lo, hi = max(t1, a), min(t2, b)
            if hi - lo > 1e-12:
                # pair unitary on (system, ancilla k); tensordot puts the
                # new ancilla-k axis second, moveaxis puts it back
                u = self._pair_power((hi - lo) / (b - a)).reshape(ds, da, ds, da)
                psi = np.moveaxis(np.tensordot(u, psi, axes=([2, 3], [0, k + 1])), 1, k + 1)
        return psi.reshape(-1)


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

class StaticDephasingModel(JointModel):
    """System Hamiltonian drawn from a classical register: H = sum_j H_j (x) |j><j|.

    The register never evolves, so the bath correlation time is infinite;
    sign-flipping control pulses refocus the conditional evolution exactly.
    """

    name = "static-dephasing"
    env_kind = "register"

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
        self._sector_eig = [np.linalg.eigh(h) for h in hs]
        self.dim_s = hs[0].shape[0]
        self.dim_e = len(p)

    def env_branches(self):
        return [(float(self.probs[j]), ket(j, self.dim_e))
                for j in range(self.dim_e) if self.probs[j] > 1e-14]

    def sector_unitary(self, j: int, dt: float) -> np.ndarray:
        w, v = self._sector_eig[j]
        return (v * np.exp(-1j * w * dt)) @ v.conj().T

    def apply_propagator(self, t1, t2, joint):
        # register level j (column j) evolves under its own sector unitary
        us = np.stack([self.sector_unitary(j, t2 - t1) for j in range(self.dim_e)])
        m = joint.reshape(self.dim_s, self.dim_e)
        return np.einsum("jab,bj->aj", us, m).reshape(-1)


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

def bath_correlation(model: JointModel, a_e: np.ndarray, b_e: np.ndarray):
    """Symmetric/antisymmetric bath correlation pair (g_plus, g_minus) of two
    bath operators, averaged in the initial bath state. The bath has no
    free Hamiltonian, so the pair does not depend on the operators' times."""
    if model.dim_e > DENSE_JOINT_LIMIT:
        raise ValueError("environment too large for dense correlation functions")
    rho = model.rho_e0_matrix()
    xa, xb = np.asarray(a_e, dtype=complex), np.asarray(b_e, dtype=complex)
    g_plus = 0.5 * np.trace(rho @ (xa @ xb + xb @ xa))
    g_minus = 0.5 * np.trace(rho @ (xa @ xb - xb @ xa))
    return complex(g_plus), complex(g_minus)


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
    sched = [model.t0] + times
    if any(b < a for a, b in zip(sched, sched[1:] + [t_end])):
        raise ValueError("need t0 <= times[0] <= ... <= times[-1] <= t_end")
    ops = [None] + list(pulses)
    if t_end > sched[-1] + 1e-15:
        sched.append(t_end)
        ops.append(None)
    return assemble_map(model, model.env_branches(), sched, ops)


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
