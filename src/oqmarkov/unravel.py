"""Stochastic pure-state methods: Monte-Carlo wave-function simulation of
master equations with nonnegative rates, and measurement-based pure
unravellings of the collision and static-register models.

Randomness is counter-based: every trajectory owns a Philox stream keyed by
(master seed, trajectory index), so runs split into any number of chunks
(``jobs``) produce bitwise identical ensembles.
"""

from __future__ import annotations

import dataclasses
import numpy as np

from .core import DensityOperator, Operator, ket
from .criteria import tomograph
from .superop import LindbladSpec

MAX_STEP_PROB = 0.1
BRANCH_ENUM_LIMIT = 4096
# Bytes of random draws a sampler holds at once: runs are split into chunks
# whose draws fit, so draw memory does not grow with the sample count.
DRAW_BUDGET = 24 << 20


@dataclasses.dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (n_times, d) pure states
    weight: float
    record: tuple = ()


@dataclasses.dataclass
class Ensemble:
    """Weighted pure-state trajectories on one time grid, stored as arrays.

    ``states[i, k]`` is trajectory i's state at ``times[k]``, ``weights[i]``
    its weight and ``records[i]`` its measurement record (by default its
    index). ``trajectories`` builds per-trajectory views on demand.
    """
    times: np.ndarray           # (T,)
    states: np.ndarray          # (M, T, d) pure states
    weights: np.ndarray         # (M,)
    kind: str
    seed: int | None = None
    meta: dict = dataclasses.field(default_factory=dict)
    records: np.ndarray | None = None   # (M, k) integers

    def __post_init__(self):
        if self.records is None:
            self.records = np.arange(len(self.weights))[:, None]

    @property
    def trajectories(self) -> list:
        return [Trajectory(self.times, states, weight, tuple(record))
                for states, weight, record in zip(self.states, self.weights.tolist(),
                                                  self.records.tolist())]

    def total_weight(self) -> float:
        return float(sum(self.weights.tolist()))


def _branch_ensemble(times, branches, kind: str, seed=None, meta=None) -> Ensemble:
    """Ensemble from (weight, state history, record) triples."""
    return Ensemble(times, np.array([hist for _, hist, _ in branches], dtype=complex),
                    np.array([w for w, _, _ in branches], dtype=float), kind, seed,
                    meta or {}, np.array([rec for _, _, rec in branches], dtype=np.int64))


def _time_index(ens: Ensemble, t: float) -> int:
    idx = np.argmin(np.abs(ens.times - t))
    if abs(ens.times[idx] - t) > 1e-9:
        raise ValueError(f"time {t} not on the ensemble grid {ens.times}")
    return int(idx)


def _projectors_at(ens: Ensemble, t: float):
    """Weights and states at a grid time, in trajectory order."""
    if not len(ens.weights):
        raise ValueError("empty ensemble")
    return zip(ens.weights.tolist(), ens.states[:, _time_index(ens, t)])


def ensemble_mean(ens: Ensemble, t: float) -> DensityOperator:
    """Weighted average of the pure-state projectors at a grid time."""
    d = ens.states.shape[2]
    rho = np.zeros((d, d), dtype=complex)
    for w, v in _projectors_at(ens, t):
        rho += w * np.outer(v, v.conj())
    return DensityOperator(rho, psd_tol=1e-7, herm_tol=1e-8, trace_tol=1e-7)


def ensemble_second_moment(ens: Ensemble, t: float) -> Operator:
    """Weighted average of projector (x) projector; distinguishes ensembles
    with equal means."""
    d = ens.states.shape[2]
    out = np.zeros((d * d, d * d), dtype=complex)
    for w, v in _projectors_at(ens, t):
        pi = np.outer(v, v.conj())
        out += w * np.kron(pi, pi)
    return Operator(out, (d, d))


def ensembles_distinct(e1: Ensemble, e2: Ensemble, t: float,
                       threshold: float = 1e-3) -> tuple[bool, float]:
    """Max-entry distance of second moments against the distinctness threshold."""
    m1 = ensemble_second_moment(e1, t).mat
    m2 = ensemble_second_moment(e2, t).mat
    gap = float(np.max(np.abs(m1 - m2)))
    return gap >= threshold, gap


def mean_deviation_from_map(ens: Ensemble, model, rho0, times) -> float:
    """Largest entry of |ensemble mean - map output| for the initial system
    state rho0, over the grid times."""
    dev = 0.0
    for t in times:
        target = tomograph(model, model.t0, t)(rho0)
        dev = max(dev, float(np.max(np.abs(ensemble_mean(ens, t).mat - target))))
    return dev


# ---------------------------------------------------------------------------
# Monte Carlo wave function
# ---------------------------------------------------------------------------

class _Streams:
    """The per-trajectory Philox streams of one sampler call.

    ``streams(index)`` re-keys one local Philox to ``[seed mod 2^64, index]``
    with a zero counter and an empty buffer and returns its generator, so
    the draws equal those of ``Generator(Philox(key=[seed, index]))`` without
    building a generator per trajectory. The returned generator is valid
    until the next call; each sampler call owns its own ``_Streams``.
    """

    def __init__(self, seed: int):
        self._bits = np.random.Philox(0)
        self._gen = np.random.Generator(self._bits)
        # a fresh state: zero counter, empty buffer; only the key changes
        self._state = self._bits.state
        self._state["state"]["key"][0] = seed & 0xFFFFFFFFFFFFFFFF

    def __call__(self, index: int) -> np.random.Generator:
        self._state["state"]["key"][1] = index
        self._bits.state = self._state
        return self._gen


def _scan_rates(spec: LindbladSpec, t_values: np.ndarray) -> None:
    for k in range(len(spec.channels)):
        rates = np.array([spec.rate(k, t) for t in t_values])
        bad = np.where(rates < 0)[0]
        if bad.size:
            t_bad = t_values[bad[0]]
            raise ValueError(
                f"negative rate gamma_{k} = {rates[bad[0]]:.6g} at t = {t_bad:.6g}; "
                "jump/diffusive sampling requires nonnegative rates")


def _prepare_grid(grid, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The output grid, the integration times, and the output slot of every
    integration step (-1 where the state is not recorded)."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be a finite positive step, got {dt}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not grid.size:
        raise ValueError("output grid must be a non-empty list of times")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("output grid times must be strictly increasing")
    t0, t_end = grid[0], grid[-1]
    n_steps = int(round((t_end - t0) / dt))
    if abs(n_steps * dt - (t_end - t0)) > 1e-9:
        raise ValueError("dt must divide the output grid span")
    step_times = t0 + dt * np.arange(n_steps + 1)
    sample_idx = np.array([int(round((t - t0) / dt)) for t in grid])
    if np.max(np.abs(step_times[sample_idx] - grid)) > 1e-9:
        raise ValueError("output grid times must sit on the integration grid")
    slot = np.full(n_steps + 1, -1)
    slot[sample_idx] = np.arange(len(grid))
    return grid, step_times, slot


def _require_samples(m: int) -> None:
    if m < 1:
        raise ValueError(f"M must be a positive number of samples, got {m}")


def _chunked(m: int, jobs: int, row_bytes: int):
    """Index ranges of a run of m samples, split evenly into at least `jobs`
    chunks (at most m), and into enough chunks that the draws of each one,
    `row_bytes` per sample, fit in DRAW_BUDGET (a chunk of one sample may
    exceed it)."""
    _require_samples(m)
    rows = max(1, DRAW_BUDGET // row_bytes) if row_bytes > 0 else m
    n = min(m, max(int(jobs), -(-m // rows)))
    bounds = [m * k // n for k in range(n + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _fill_draws(streams: _Streams, keys, shape: tuple, method: str) -> np.ndarray:
    """One row of draws per stream key, filled in place: row i holds what
    ``Generator(Philox(key=[seed, keys[i]])).<method>(size=shape)`` draws."""
    out = np.empty((len(keys),) + shape)
    for row, key in zip(out, keys):
        getattr(streams(key), method)(out=row)
    return out


def mcwf_jump(spec: LindbladSpec, psi0, grid, M: int, seed: int,
              dt: float = 1e-3, jobs: int = 1) -> Ensemble:
    """Jump unravelling: per step, channel k fires with probability
    rate_k <psi|C_k^dag C_k|psi> dt and applies C_k with renormalization;
    otherwise the state evolves under the non-Hermitian effective
    Hamiltonian and is renormalized. First-order scheme; the run aborts if
    the per-step total jump probability ever reaches 0.1."""
    grid, step_times, slot = _prepare_grid(grid, dt)
    _scan_rates(spec, step_times[:-1])
    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    d = psi0.size
    n_steps = len(step_times) - 1
    chunks = _chunked(M, jobs, n_steps * 8)
    c_ops = [c for c, _ in spec.channels]
    streams = _Streams(seed)

    def rates_and_h_eff(t):
        rates = spec.rates(t)
        h_eff = spec.hamiltonian(t).astype(complex)
        for cdc, g in zip(spec.jump_products, rates):
            h_eff = h_eff - 0.5j * g * cdc
        return rates, h_eff

    # constant H and rates (the spec built its generator once): one h_eff
    constant = rates_and_h_eff(step_times[0]) if spec._generator is not None else None

    def run_chunk(indices, out: np.ndarray) -> None:
        m = len(indices)
        uni = _fill_draws(streams, indices, (n_steps,), "random")
        psi = np.tile(psi0, (m, 1))
        out[:, 0] = psi
        for s in range(n_steps):
            t = step_times[s]
            rates, h_eff = constant or rates_and_h_eff(t)
            jump_amps = np.stack([psi @ c.T for c in c_ops]) if c_ops else np.zeros((0, m, d))
            probs = np.stack([g * dt * np.sum(np.abs(a) ** 2, axis=1)
                              for a, g in zip(jump_amps, rates)]) if c_ops else np.zeros((0, m))
            ptot = probs.sum(axis=0)
            if ptot.size and ptot.max() >= MAX_STEP_PROB:
                raise ValueError(
                    f"total jump probability {ptot.max():.3f} >= {MAX_STEP_PROB} at "
                    f"t = {t:.6g}; reduce dt")
            u = uni[:, s]
            no_jump = (psi - 1j * dt * (psi @ h_eff.T))
            no_jump /= np.linalg.norm(no_jump, axis=1, keepdims=True)
            new = no_jump
            if c_ops:
                rows = np.flatnonzero(u < ptot)
                if rows.size:
                    cum = np.cumsum(probs[:, rows], axis=0)
                    channel = np.argmax(u[rows][None, :] < cum, axis=0)
                    for k in range(len(c_ops)):
                        sel = rows[channel == k]
                        if sel.size:
                            amp = jump_amps[k][sel]
                            amp = amp / np.linalg.norm(amp, axis=1, keepdims=True)
                            new[sel] = amp
            psi = new
            if slot[s + 1] >= 0:
                out[:, slot[s + 1]] = psi

    states = np.empty((M, len(grid), d), dtype=complex)
    for c in chunks:
        run_chunk(c, states[c.start:c.stop])
    return Ensemble(grid, states, np.full(M, 1.0 / M), "mcwf-jump", seed,
                    {"dt": dt, "M": M})


def mcwf_diffusive(spec: LindbladSpec, psi0, grid, M: int, seed: int,
                   dt: float = 1e-3, jobs: int = 1) -> Ensemble:
    """Diffusive unravelling: Euler-Maruyama steps of the normalized
    diffusive stochastic state equation with one Gaussian increment per
    channel per step, renormalizing after each step. The ensemble mean
    converges to the same master-equation solution as the jump scheme."""
    grid, step_times, slot = _prepare_grid(grid, dt)
    _scan_rates(spec, step_times[:-1])
    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    d = psi0.size
    n_steps = len(step_times) - 1
    c_ops = [c for c, _ in spec.channels]
    n_ch = len(c_ops)
    chunks = _chunked(M, jobs, n_steps * n_ch * 8)
    sqrt_dt = np.sqrt(dt)
    streams = _Streams(seed)

    def run_chunk(indices, out: np.ndarray) -> None:
        dw = _fill_draws(streams, indices, (n_steps, n_ch), "standard_normal")
        psi = np.tile(psi0, (len(indices), 1))
        out[:, 0] = psi
        for s in range(n_steps):
            t = step_times[s]
            rates = spec.rates(t)
            h = spec.hamiltonian(t)
            drift = -1j * (psi @ h.T)
            noise = np.zeros_like(psi)
            for k, (c, cdc, g) in enumerate(zip(c_ops, spec.jump_products, rates)):
                if g == 0.0:
                    continue
                cpsi = psi @ c.T
                cdag_c_psi = psi @ cdc.T
                ev = 2.0 * np.sum(psi.conj() * cpsi, axis=1).real   # <C + C^dag>
                drift += -0.5 * g * (cdag_c_psi - ev[:, None] * cpsi
                                     + 0.25 * (ev ** 2)[:, None] * psi)
                noise += np.sqrt(g) * (cpsi - 0.5 * ev[:, None] * psi) \
                    * (dw[:, s, k] * sqrt_dt)[:, None]
            psi = psi + drift * dt + noise
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            if slot[s + 1] >= 0:
                out[:, slot[s + 1]] = psi

    states = np.empty((M, len(grid), d), dtype=complex)
    for c in chunks:
        run_chunk(c, states[c.start:c.stop])
    return Ensemble(grid, states, np.full(M, 1.0 / M), "mcwf-diffusive", seed,
                    {"dt": dt, "M": M})


# ---------------------------------------------------------------------------
# Exact measurement-based unravellings
# ---------------------------------------------------------------------------

_CONJUGATE = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _slot_basis(chooser, slot: int, d: int) -> np.ndarray:
    if chooser is None or chooser == "computational":
        return np.eye(d, dtype=complex)
    if chooser == "conjugate":
        if d != 2:
            raise ValueError("conjugate basis preset is for qubit ancillas")
        return _CONJUGATE
    b = np.asarray(chooser(slot), dtype=complex)
    if np.max(np.abs(b.conj().T @ b - np.eye(d))) > 1e-10:
        raise ValueError("measurement basis is not unitary")
    return b


def collision_unravel(model, basis_per_slot=None, psi0=None,
                      M: int | None = None, seed: int | None = None) -> Ensemble:
    """Measure the just-used ancilla after each collision slot.

    Conditional system states stay pure and the weighted mean over branches
    reproduces the dynamical map exactly. All outcome branches are
    enumerated when their count stays below the enumeration limit;
    otherwise M branches are sampled with per-trajectory streams and the
    ensemble carries statistical rather than exact weights.
    """
    ds, da, n = model.dim_s, model.dim_a, model.n_slots
    if psi0 is None:
        psi0 = np.ones(ds, dtype=complex) / np.sqrt(ds)
    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    anc = model.ancilla_vector()
    times = np.asarray(model.slot_times, dtype=float)
    n_branches = da ** n
    bases = [_slot_basis(basis_per_slot, k, da) for k in range(n)]

    def collide(psi, k):
        joint = np.kron(psi, anc)
        joint = model.pair_unitary @ joint
        mat = joint.reshape(ds, da)
        outs = []
        b = bases[k]
        for m_out in range(da):
            branch = mat @ b[:, m_out].conj()
            w = float(np.vdot(branch, branch).real)
            if w > 1e-14:
                outs.append((w, branch / np.sqrt(w), m_out))
        return outs

    if n_branches <= BRANCH_ENUM_LIMIT:
        branches = [(1.0, psi0, (), [psi0])]
        for k in range(n):
            new = []
            for w, psi, rec, hist in branches:
                for wk, psik, m_out in collide(psi, k):
                    new.append((w * wk, psik, rec + (m_out,), hist + [psik]))
            branches = new
        return _branch_ensemble(times, [(w, hist, rec) for w, _, rec, hist in branches],
                                "collision-exact",
                                meta={"exact": True, "n_branches": len(branches)})

    if M is None or seed is None:
        raise ValueError(
            f"{n_branches} branches exceed the enumeration limit "
            f"{BRANCH_ENUM_LIMIT}; pass M and seed for sampled mode")
    _require_samples(M)
    states = np.empty((M, n + 1, ds), dtype=complex)
    records = np.empty((M, n), dtype=np.int64)
    streams = _Streams(seed)
    for i in range(M):
        rng = streams(i)
        psi = states[i, 0] = psi0
        for k in range(n):
            outs = collide(psi, k)
            ws = np.array([w for w, _, _ in outs])
            pick = int(np.searchsorted(np.cumsum(ws), rng.random() * ws.sum()))
            pick = min(pick, len(outs) - 1)
            psi = states[i, k + 1] = outs[pick][1]
            records[i, k] = outs[pick][2]
    return Ensemble(times, states, np.full(M, 1.0 / M), "collision-sampled", seed,
                    {"exact": False, "M": M}, records)


def static_unravel(model, times, psi0=None, basis: str | np.ndarray = "register",
                   M: int | None = None) -> Ensemble:
    """Unravel the static-register model by measuring the register.

    In the register basis the branch states are exactly pure and the branch
    sum is exactly the dynamical map: this is the construction behind the
    uniqueness of the scheme. Any other basis disturbs the register
    statistics; the resulting mean deviation is reported in the metadata as
    the demonstration of that uniqueness.
    """
    ds, r = model.dim_s, model.dim_e
    if psi0 is None:
        psi0 = np.ones(ds, dtype=complex) / np.sqrt(ds)
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    full_times = np.concatenate([[model.t0], times])
    if basis == "register" or basis is None:
        branches = []
        for j in range(r):
            p = float(model.probs[j])
            if p <= 1e-14:
                continue
            states = [psi0]
            for t in times:
                states.append(model.sector_unitary(j, t - model.t0) @ psi0)
            branches.append((p, states, (j,)))
        return _branch_ensemble(full_times, branches, "static-register",
                                meta={"exact": True, "basis": "register"})

    b = _CONJUGATE if isinstance(basis, str) and basis == "conjugate" \
        else np.asarray(basis, dtype=complex)
    if b.shape != (r, r) or np.max(np.abs(b.conj().T @ b - np.eye(r))) > 1e-10:
        raise ValueError("basis must be a unitary on the register")
    # branch over initial diagonal measurement, then over the chosen basis
    branches = []
    for j in range(r):
        p = float(model.probs[j])
        if p > 1e-14:
            branches.append((p, np.kron(psi0, ket(j, r)), (j,), [psi0]))
    tcur = model.t0
    for t in times:
        new = []
        for w, joint, rec, hist in branches:
            joint = model.apply_propagator(tcur, t, joint)
            mat = joint.reshape(ds, r)
            for m_out in range(r):
                amp = mat @ b[:, m_out].conj()
                wk = float(np.vdot(amp, amp).real)
                if wk <= 1e-14:
                    continue
                sys = amp / np.sqrt(wk)
                new.append((w * wk, np.kron(sys, b[:, m_out]), rec + (m_out,),
                            hist + [sys]))
        branches = new
        tcur = t
    ens = _branch_ensemble(full_times, [(w, hist, rec) for w, _, rec, hist in branches],
                           "static-nonregister", meta={"exact": True, "basis": "custom"})
    # mean deviation from the uninterrupted map output, per time
    ens.meta["mean_deviation_from_map"] = mean_deviation_from_map(
        ens, model, np.outer(psi0, psi0.conj()), times)
    return ens


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def ensemble_to_rows(ens: Ensemble) -> tuple[list, list]:
    """Header and columns: one entry per (trajectory, time), trajectory-major,
    time column first, weight, then state amplitudes split into real/imaginary
    columns."""
    m, n_times, d = ens.states.shape
    header = ["time", "trajectory", "weight"]
    columns = [np.tile(ens.times, m), np.repeat(np.arange(m), n_times),
               np.repeat(ens.weights, n_times)]
    for i in range(d):
        amp = ens.states[:, :, i].reshape(-1)
        header += [f"amp{i}_re", f"amp{i}_im"]
        columns += [amp.real, amp.imag]
    return header, columns
