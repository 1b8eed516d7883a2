"""Closed-form results of the preset models, kept as test oracles: the
package never reads them, since every map a checker reads is assembled from
the model's own propagation. Each is a function of the model's parameters:
afl's (gamma, g), tam's start time, and the times alone for nqib, eternal and
the reset tam model."""

import math

import numpy as np
import scipy.integrate

from dense_reference import apply_cop
from oqmarkov.models import EternalModel, TamModel
from oqmarkov.superop import SuperOperator

# sigma_z eigenvalues of the afl qubit's levels 0 and 1
_LAM = (1.0, -1.0)


# ---------------------------------------------------------------------------
# afl: qubit dephasing through one Lorentzian bath coordinate
# ---------------------------------------------------------------------------

def chi_exact(gamma: float, a: float) -> float:
    """The bath characteristic function chi(a) = exp(-gamma |a|), the
    integral of exp(-i a x) against the Lorentzian of width gamma."""
    return math.exp(-gamma * abs(a))


def chi_grid(x: np.ndarray, weights: np.ndarray, a: float) -> float:
    """chi(a) of a quadrature grid: nodes x with the given weights."""
    return float(np.sum(weights * np.cos(a * x)))


def afl_map(gamma: float, g: float, t0: float, t: float) -> SuperOperator:
    """Closed-form dephasing map: each coherence is multiplied by
    chi_exact of its accumulated phase slope."""
    m = np.zeros((4, 4), dtype=complex)
    for r in range(2):
        for c in range(2):
            a = (g / 2) * (_LAM[r] - _LAM[c]) * (t - t0)
            m[r + 2 * c, r + 2 * c] = chi_exact(gamma, a)
    return SuperOperator(m, 2)


def chi_of_accumulated(gamma: float, g: float, segments) -> float:
    """Single chi of the summed phase slope over [(lam_ket, lam_bra, dt)]."""
    return chi_exact(gamma, sum((g / 2) * (lk - lb) * dt for lk, lb, dt in segments))


def chi_of_product(gamma: float, g: float, segments) -> float:
    """Product of per-interval chi factors over [(lam_ket, lam_bra, dt)]."""
    out = 1.0
    for lk, lb, dt in segments:
        out *= chi_exact(gamma, (g / 2) * (lk - lb) * dt)
    return out


def three_time_failure_case(gamma: float, g: float, t1: float = 0.5, dt2: float = 0.5,
                            dt3: float = 0.5):
    """Accumulated-vs-product split for the slope pattern (+-, ++, -+)."""
    segs = [(1, -1, t1), (1, 1, dt2), (-1, 1, dt3)]
    return chi_of_accumulated(gamma, g, segs), chi_of_product(gamma, g, segs)


def afl_correlation_exact(gamma: float, g: float, c_ops, times, rho_s0) -> complex:
    """Multi-time correlation Tr[C_n U ... C_1 U C_0 rho] evaluated with
    the exact bath kernel. c_ops[j] = (A_j, B_j) acts as X -> B X A at
    times[j]; times[0] must be the initial time."""
    terms = {0.0: apply_cop(c_ops[0], np.asarray(rho_s0, dtype=complex))}
    for j in range(1, len(times)):
        dt = times[j] - times[j - 1]
        new: dict = {}
        for a, m in terms.items():
            for r in range(2):
                for c in range(2):
                    if m[r, c] == 0:
                        continue
                    key = round(a + (g / 2) * (_LAM[r] - _LAM[c]) * dt, 12)
                    blk = new.setdefault(key, np.zeros((2, 2), dtype=complex))
                    blk[r, c] += m[r, c]
        terms = {a: apply_cop(c_ops[j], m) for a, m in new.items()}
    return complex(sum(chi_exact(gamma, a) * np.trace(m) for a, m in terms.items()))


def afl_correlation_regression(gamma: float, g: float, c_ops, times, rho_s0) -> complex:
    """Same correlation predicted from system-only replaced-bath maps."""
    m = apply_cop(c_ops[0], np.asarray(rho_s0, dtype=complex))
    for j in range(1, len(times)):
        dt = times[j] - times[j - 1]
        fac = np.array([[chi_exact(gamma, (g / 2) * (_LAM[r] - _LAM[c]) * dt)
                         for c in range(2)] for r in range(2)])
        m = apply_cop(c_ops[j], fac * m)
    return complex(np.trace(m))


# ---------------------------------------------------------------------------
# tam: two atoms exchanging one excitation
# ---------------------------------------------------------------------------

def theta_quadrature(t: float) -> float:
    """Integral of the coupling g(s) = 1/sqrt(e^{2s}-1) from 0 to t, with the
    substitution s = u^2 removing the integrable inverse-square-root
    divergence at s = 0."""
    def f(u):
        s = u * u
        return 2.0 * u / math.sqrt(math.expm1(2.0 * s)) if s > 0 else math.sqrt(2.0)
    val, _ = scipy.integrate.quad(f, 0.0, math.sqrt(t), limit=200)
    return val


def tam_map(t0: float, t: float) -> SuperOperator:
    """Amplitude-damping map with coherence factor cos(theta(t)-theta(t0))."""
    c = math.cos(TamModel.theta(t) - TamModel.theta(t0))
    m = np.zeros((4, 4), dtype=complex)
    # column-stacked basis |r + 2c>: populations and coherences
    m[0, 0] = 1.0
    m[0, 3] = 1.0 - c * c
    m[3, 3] = c * c
    m[1, 1] = c
    m[2, 2] = c
    return SuperOperator(m, 2)


def tam_post_replacement_rate_closed_form(t1: float, t: float) -> float:
    """Decay coefficient tan(theta(t)-theta(t1)) g(t) of the reset model,
    equal to (g g1 - g^2)/(g g1 + 1); this is what tomography extracts."""
    return math.tan(TamModel.theta(t) - TamModel.theta(t1)) * TamModel.coupling(t)


# ---------------------------------------------------------------------------
# nqib and eternal
# ---------------------------------------------------------------------------

def nqib_map(t0: float, t: float) -> SuperOperator:
    """Dephasing by the average of the two partner-conditioned phases."""
    f = (1.0 + np.exp(-1j * (t - t0))) / 2.0
    # column-stacked index r + 2c: entry 1 is rho_{10}, entry 2 is rho_{01}
    return SuperOperator(np.diag([1.0, np.conj(f), f, 1.0]).astype(complex), 2)


def eternal_intermediate_multipliers(t1: float, t2: float):
    """Bloch multipliers of the intermediate map E(t2) E(t1)^{-1}."""
    l1 = EternalModel.bloch_multipliers(t1)
    l2 = EternalModel.bloch_multipliers(t2)
    return tuple(a / b for a, b in zip(l2, l1))
