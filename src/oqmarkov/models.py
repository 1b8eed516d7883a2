"""Concrete system--environment and map-only models behind a uniform
interface: the counterexample models that set the Markov concepts apart.

Every joint model is defined by the pair (joint unitary family, initial
environment state). The criterion checkers only need two things from a
model: the spectral branches of the initial environment state and the
action of the joint propagator on vectors. Every joint model is written in
the interaction picture of its bath (the bath has no free Hamiltonian), so
a replaced-environment map resets the bath to its initial state, and `nib`
seeds its search from that state. `nqib` tests only the measure-and-prepare
bath channel a model supplies through `breaking_channel(t1)` (the nqib and
collision presets).

`apply_propagator(t1, t2, joint)` is the one propagation contract: each
joint model defines it as the action of U(t2, t1) on a joint vector,
without forming the joint matrix (the collision model applies one pair
unitary per slot). `joint` has shape (..., dim_s * dim_e): its leading
axes, if any, are a stack of vectors propagated in one call, and each
member's arithmetic is that of the vector alone, bit for bit. A kernel
keeps that by giving every member the BLAS call, of the same shape and
layout, that a lone vector gets; it never widens a product to absorb the
stack, which would change the last bits. `evolve` carries the stack
through a schedule. Every map a checker reads is assembled from it by
`assemble_map`, which evolves all its start columns as one stack. A model
carries no closed-form map: the closed forms the tests compare against
live beside the tests, not in the package.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .core import SM, SP, SX, SZ, ket
from .superop import SuperOperator, LindbladSpec, vec

DENSE_JOINT_LIMIT = 4096


def _eig_branches(mat: np.ndarray, tol: float = 1e-12):
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    return [(float(w[i]), v[:, i].copy()) for i in range(len(w)) if w[i] > tol]


def _start_stack(model, rho_s0: np.ndarray, tol: float = 1e-12):
    """Weights q * p and the stack of start vectors s (x) e over the
    eigenbranches (q, s) of rho_s0 with q > tol and the bath branches
    (p, e), system branch major. The stack is one broadcast product of the
    same factors np.kron multiplies, so each row is bitwise its kron."""
    ds, de = model.dim_s, model.dim_e
    sys_b = _eig_branches(np.asarray(rho_s0, dtype=complex), tol)
    env_b = model.env_branches()
    s = np.array([v for _, v in sys_b]).reshape(len(sys_b), 1, ds, 1)
    e = np.array([v for _, v in env_b]).reshape(1, len(env_b), 1, de)
    return [q * p for q, _ in sys_b for p, _ in env_b], (s * e).reshape(-1, ds * de)


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
        """U(t2, t1) applied to joint vectors (system index major) of shape
        (..., dim_s * dim_e), returned in the same shape. The leading axes
        are a stack: each member's result is bitwise the result of that
        vector propagated alone."""
        raise NotImplementedError

    def joint_branches(self, rho_s0: np.ndarray, t: float):
        """Branches [(weight, joint vector at time t)] from a factorized
        start, every branch propagated in one stack."""
        weights, starts = _start_stack(self, rho_s0)
        if not weights:
            return []
        return list(zip(weights, evolve(self, starts, (self.t0, t), (None, None))))

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
    """Joint vectors (a stack of shape (..., dim_s * dim_e), as
    `apply_propagator` takes) after a schedule: the system operator ops[k]
    acts at times[k] (None acts as the identity), with the joint
    propagation between consecutive times."""
    ds, de = model.dim_s, model.dim_e
    for k, op in enumerate(ops):
        if k:
            joint = model.apply_propagator(times[k - 1], times[k], joint)
        if op is not None:
            shape = joint.shape
            joint = (np.asarray(op, dtype=complex)
                     @ joint.reshape(shape[:-1] + (ds, de))).reshape(shape)
    return joint


def assemble_map(model: JointModel, branches, times: Sequence[float], ops: Sequence,
                 effect: np.ndarray | None = None) -> SuperOperator:
    """System map X -> Tr_E[(1 (x) F) K (X (x) sigma) K^dag] of a schedule K
    (see evolve) started from the bath state sigma = sum_b w_b |e_b><e_b|,
    given as branches [(w_b, e_b)] whose weights may be negative. The bath
    effect F defaults to the identity, the plain partial trace.

    The start columns |i> (x) e_b of every branch are evolved in one stack
    and contracted in one stacked product, unless the joint dimension
    exceeds DENSE_JOINT_LIMIT: a stack of vectors that long takes
    temporaries past glibc's mmap and trim thresholds (128 KiB), each handed
    back to the kernel and faulted in again, so such columns go one at a
    time, each conjugated once. The branches are summed in their order, so
    both ways give the same bits. No branches give the zero map."""
    ds, de = model.dim_s, model.dim_e
    ft = None if effect is None else np.asarray(effect, dtype=complex).T
    blocks = np.zeros((ds,) * 4, dtype=complex)     # [i, j]: the image of |i><j|
    # row (b, i) is kron(|i>, e_b), as one broadcast product
    phis = np.array([phi for _, phi in branches]).reshape(len(branches), 1, 1, de)
    starts = (np.eye(ds, dtype=complex)[None, :, :, None] * phis).reshape(-1, ds * de)
    if branches and ds * de <= DENSE_JOINT_LIMIT:
        mats = evolve(model, starts, times, ops).reshape(-1, ds, ds, de)
        left = mats if ft is None else mats @ ft
        prods = left[:, :, None] @ mats.conj()[:, None].swapaxes(-1, -2)
    else:
        mats = [evolve(model, s, times, ops).reshape(ds, de) for s in starts]
        left = mats if ft is None else [u @ ft for u in mats]
        bras = [u.conj().T for u in mats]
        prods = [np.array([[left[b + i] @ bras[b + j] for j in range(ds)]
                           for i in range(ds)]) for b in range(0, len(mats), ds)]
    for (p, _), prod in zip(branches, prods):
        blocks += p * prod
    # column i + ds j of the map is vec of block [i, j]
    return SuperOperator(blocks.transpose(3, 2, 1, 0).reshape(ds * ds, ds * ds), ds)


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


# quadrature of the standardized bath coordinate x / gamma: the grid spans
# [-cutoff, cutoff], tapers from half the cutoff, and re-deposits the lost
# tail mass as a central Gaussian of the bump width; its characteristic
# function is checked on the band of phase slopes
_AFL_CUTOFF = 200.0
_AFL_BUMP_WIDTH = 30.0
_AFL_BAND = (0.3, 12.0)
_AFL_PHASE_DURATIONS = 16     # phase arrays an AflModel keeps, 64 KB each at 4001 points


class AflModel(JointModel):
    """Qubit dephasing through a single Lorentzian-distributed bath coordinate.

    The coupling (g/2) sigma_z (x) x_hat keeps the joint unitary diagonal in
    the bath coordinate, so the exact reduced dynamics multiplies each
    coherence by the bath characteristic function chi(a) = exp(-gamma|a|)
    evaluated at the accumulated phase slope. The model propagates on a
    quadrature grid whose discretization error against that kernel is
    measured on construction, at 600 evenly spaced phase slopes of the band
    `_AFL_BAND` (`quadrature_error`); a grid whose error exceeds `quad_tol`
    is rejected. gamma and g must be finite and positive, quad_tol finite
    and nonnegative.
    """

    name = "afl"
    env_kind = "grid"

    def __init__(self, gamma: float = 1.0, g: float = 2.0, n_points: int = 4001,
                 quad_tol: float = 1e-5):
        gamma, g = float(gamma), float(g)
        if not (math.isfinite(gamma) and math.isfinite(g) and gamma > 0 and g > 0):
            raise ValueError(f"gamma and g must be finite and positive, got {gamma} and {g}")
        quad_tol = float(quad_tol)
        if not (math.isfinite(quad_tol) and quad_tol >= 0):
            raise ValueError(f"quad_tol must be finite and nonnegative, got {quad_tol}")
        if n_points < 3:
            raise ValueError("grid too coarse")
        self.gamma = gamma
        self.g = g
        u, w = _lorentz_grid_weights(n_points, _AFL_CUTOFF, _AFL_CUTOFF / 2, _AFL_BUMP_WIDTH)
        if np.min(w) < 0:
            raise ValueError("grid too coarse: tapered weights go negative")
        self._u = u                      # standardized coordinate x / gamma
        self.x = gamma * u
        self.weights = w
        self.quadrature_error = self._band_error()
        if self.quadrature_error > quad_tol:
            raise ValueError(
                f"grid too coarse: characteristic-function error "
                f"{self.quadrature_error:.3e} > {quad_tol:.1e} on band {_AFL_BAND}")
        self.amplitudes = np.sqrt(w).astype(complex)  # bath phases are immaterial:
        # the joint evolution is diagonal in x, so a local phase on the bath
        # never enters reduced states, correlations, or entanglement.
        self.dim_s = 2
        self.dim_e = n_points
        self._phase_memo: dict = {}

    def _band_error(self) -> float:
        """Largest deviation of the grid's characteristic function from
        exp(-b) over 600 evenly spaced slopes b of the band. Its values at
        the four slopes b, b + db, b + 2 db, b + 3 db are the real parts of
        one product of the powers exp(i j db u), j = 0..3, with the weighted
        phases z = w exp(i b u), and z then steps on by exp(i 4 db u): no
        cosine, and one product per four slopes (a product of eight woke
        OpenBLAS's worker threads)."""
        b = np.linspace(_AFL_BAND[0], _AFL_BAND[1], 600)
        step = np.exp(1j * (b[1] - b[0]) * self._u)
        powers = np.empty((4, len(step)), dtype=complex)
        powers[0] = 1.0
        for j in range(1, 4):
            powers[j] = powers[j - 1] * step
        stride = powers[3] * step
        z = self.weights * np.exp(1j * b[0] * self._u)
        vals = np.empty((len(b) // 4, 4))
        for row in vals:
            row[:] = (powers @ z).real
            z *= stride
        return float(np.max(np.abs(vals.ravel() - np.exp(-b))))

    def env_branches(self):
        return [(1.0, self.amplitudes)]

    def _phase(self, dt) -> np.ndarray:
        """The read-only phases exp(-i (g/2) x dt), built once per duration:
        keyed by the bits of dt (0.0 and -0.0 give other signed zeros), at
        most `_AFL_PHASE_DURATIONS` held, the oldest dropped first."""
        key = float(dt).hex()
        phase = self._phase_memo.get(key)
        if phase is None:
            phase = np.exp(-1j * (self.g / 2) * self.x * dt)
            phase.setflags(write=False)
            if len(self._phase_memo) >= _AFL_PHASE_DURATIONS:
                del self._phase_memo[next(iter(self._phase_memo))]
            self._phase_memo[key] = phase
        return phase

    def apply_propagator(self, t1, t2, joint):
        m = joint.reshape(joint.shape[:-1] + (2, self.dim_e)).copy()
        phase = self._phase(t2 - t1)
        m[..., 0, :] *= phase          # sigma_z eigenvalue +1
        m[..., 1, :] *= phase.conj()   # sigma_z eigenvalue -1
        return m.reshape(joint.shape)

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

    def env_branches(self):
        return [(1.0, ket(0, 2))]

    def apply_propagator(self, t1, t2, joint):
        if t1 < 0 or t2 < 0:
            raise ValueError("negative times not allowed")
        phi = self.theta(t2) - self.theta(t1)
        w, v = _EXCH_EIG
        # one matrix-vector product per member, as for a lone vector
        return (((v * np.exp(-1j * phi * w)) @ v.conj().T) @ joint[..., None])[..., 0]

def tam(t0: float = 0.0) -> TamModel:
    return TamModel(t0)


def tam_post_replacement_model(t1: float) -> TamModel:
    """Dynamics continued after the partner atom is reset to its ground state."""
    return TamModel(t0=t1)


def tam_post_replacement_rate(t1: float, t: float) -> float:
    """Reference decay coefficient (g g1 - g^2)/(g g1 - 1) for the reset model."""
    g1, gt = TamModel.coupling(t1), TamModel.coupling(t)
    return (gt * g1 - gt * gt) / (gt * g1 - 1.0)


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
        m = joint.reshape(joint.shape[:-1] + (2, 2)).copy()
        m[..., 1] *= [np.exp(-1j * dt / 2), np.exp(1j * dt / 2)]
        return m.reshape(joint.shape)

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
    The power is taken through a complex Schur factorisation of the pair
    unitary (scipy), computed on the first such query: a model queried on
    slot boundaries only never imports scipy. n_slots must be at least 1,
    slot_times n_slots + 1 finite, strictly increasing boundaries, and
    ancilla_state a finite nonzero vector or a finite matrix with a positive
    eigenvalue.
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
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be at least 1, got {self.n_slots}")
        d2 = u.shape[0]
        self.dim_a = int(round(math.sqrt(d2)))
        self.dim_s = d2 // self.dim_a
        if self.dim_s * self.dim_a != d2:
            raise ValueError("pair unitary side must be dim_s * dim_a with dim_s == dim_a")
        self.pair_unitary = u
        anc = ket(0, self.dim_a) if ancilla_state is None else np.asarray(ancilla_state, dtype=complex)
        if not np.all(np.isfinite(anc)):
            raise ValueError("ancilla_state has non-finite entries")
        if anc.ndim == 2:
            anc_branches = _eig_branches(anc)
            if not anc_branches:
                raise ValueError("ancilla_state has no positive eigenvalue")
        else:
            norm = np.linalg.norm(anc)
            if norm == 0:
                raise ValueError("ancilla_state is the zero vector")
            anc_branches = [(1.0, anc / norm)]
        self._anc_branches = anc_branches
        if slot_times is None:
            slot_times = np.arange(self.n_slots + 1, dtype=float)
        self.slot_times = np.asarray(slot_times, dtype=float)
        if (len(self.slot_times) != self.n_slots + 1 or not np.all(np.isfinite(self.slot_times))
                or np.any(np.diff(self.slot_times) <= 0)):
            raise ValueError("slot_times must be n_slots+1 finite, strictly increasing boundaries")
        self.t0 = float(self.slot_times[0])
        self.dim_e = self.dim_a ** self.n_slots
        # per slot k, the axis order of a stacked state (stack, system,
        # ancillas) with ancilla k moved next to the system, and its inverse
        self._slot_axes = []
        for k in range(self.n_slots):
            front = [0, 1, k + 2] + [a for a in range(2, self.n_slots + 2) if a != k + 2]
            self._slot_axes.append((front, [int(a) for a in np.argsort(front)]))
        branches = [(1.0, np.ones(1, dtype=complex))]
        for _ in range(self.n_slots):
            branches = [(p * q, np.kron(v, a)) for p, v in branches for q, a in anc_branches]
        for _, v in branches:
            v.setflags(write=False)
        self._env_branches = branches

    def ancilla_vector(self) -> np.ndarray:
        if len(self._anc_branches) != 1:
            raise ValueError("ancilla state is mixed")
        return self._anc_branches[0][1]

    def env_branches(self):
        """The product branches of the initial bath, built once (read-only)."""
        return self._env_branches

    def breaking_channel(self, t1: float):
        """Measure the ancillas already used by t1 projectively and
        re-prepare the measured state, with fresh ancillas on the untouched
        slots: a measure-and-prepare channel on the bath."""
        k_past = int(np.searchsorted(self.slot_times, t1 - 1e-9))
        da, n = self.dim_a, self.n_slots
        anc = self.ancilla_vector()
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

    @functools.cached_property
    def _pair_eig(self):
        """Eigenphases and orthonormal eigenvectors of the pair unitary. A
        unitary is normal, so its complex Schur form is diagonal; np.linalg.eig
        would not give orthonormal vectors for degenerate eigenvalues."""
        import scipy.linalg
        t, z = scipy.linalg.schur(self.pair_unitary, output="complex")
        return np.angle(np.diag(t)), z

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
        ds, da, n = self.dim_s, self.dim_a, self.n_slots
        psi = joint.reshape((-1, ds) + (da,) * n)
        for k in range(n):
            a, b = self.slot_times[k], self.slot_times[k + 1]
            lo, hi = max(t1, a), min(t2, b)
            if hi - lo > 1e-12:
                # pair unitary on (system, ancilla k): one product per member
                to_front, back = self._slot_axes[k]
                front = psi.transpose(to_front)
                out = self._pair_power((hi - lo) / (b - a)) @ front.reshape(
                    len(psi), ds * da, da ** (n - 1))
                psi = out.reshape(front.shape).transpose(back)
        return psi.reshape(joint.shape)


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
        # level j's eigenvalues (r, ds) and eigenvectors (r, ds, ds)
        self._sector_w, self._sector_v = np.linalg.eigh(np.stack(hs))
        self.dim_s = hs[0].shape[0]
        self.dim_e = len(p)

    def env_branches(self):
        return [(float(self.probs[j]), ket(j, self.dim_e))
                for j in range(self.dim_e) if self.probs[j] > 1e-14]

    def sector_unitaries(self, dt: float) -> np.ndarray:
        """exp(-i H_j dt) of every register level j, as an (r, ds, ds) stack
        built in one broadcast product."""
        w, v = self._sector_w, self._sector_v
        return (v * np.exp(-1j * w * dt)[:, None, :]) @ v.conj().swapaxes(-1, -2)

    def apply_propagator(self, t1, t2, joint):
        # register level j (column j) evolves under its own sector unitary
        us = self.sector_unitaries(t2 - t1)
        m = joint.reshape(joint.shape[:-1] + (self.dim_s, self.dim_e))
        return np.einsum("jab,...bj->...aj", us, m).reshape(joint.shape)


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
