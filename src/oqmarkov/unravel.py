"""Stochastic pure-state methods: Monte-Carlo wave-function simulation of
master equations with nonnegative rates, and measurement-based pure
unravellings of the collision and static-register models.

Randomness is counter-based: every trajectory owns a Philox stream keyed by
(master seed, trajectory index), so runs split into any number of chunks
(``jobs``) produce bitwise identical ensembles. Both MCWF samplers,
``classical.mcsm`` and the sampled mode of ``collision_unravel`` run on one
sample loop, ``_sample``, and keep only their step arithmetic;
MAX_STEP_PROB caps the jump probability of a step in both jump samplers.
"""

from __future__ import annotations

import dataclasses
import numpy as np

from .core import DensityOperator, Operator
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


def _time_index(ens: Ensemble, t: float) -> int:
    idx = np.argmin(np.abs(ens.times - t))
    if abs(ens.times[idx] - t) > 1e-9:
        raise ValueError(f"time {t} not on the ensemble grid {ens.times}")
    return int(idx)


def _weighted_sum(ens: Ensemble, t: float, term) -> np.ndarray:
    """sum_i w_i term(P_i) over the projectors P_i of the states at a grid
    time, added in trajectory order onto a zero: bitwise the loop
    ``total += w_i * term(P_i)``, at d = 1 too, where a reduction sums
    pairwise."""
    if not len(ens.weights):
        raise ValueError("empty ensemble")
    v = ens.states[:, _time_index(ens, t)]
    x = ens.weights[:, None, None] * term(v[:, :, None] * v.conj()[:, None, :])
    x[0] += 0       # the loop's first add, onto zero, turns -0.0 into 0.0
    return np.add.accumulate(x, axis=0, out=x)[-1]


def ensemble_mean(ens: Ensemble, t: float) -> DensityOperator:
    """Weighted average of the pure-state projectors at a grid time."""
    return DensityOperator(_weighted_sum(ens, t, lambda pi: pi),
                           psd_tol=1e-7, herm_tol=1e-8, trace_tol=1e-7)


def ensemble_second_moment(ens: Ensemble, t: float) -> Operator:
    """Weighted average of projector (x) projector; distinguishes ensembles
    with equal means."""
    d = ens.states.shape[2]
    # member i is kron(P_i, P_i), as one broadcast product
    out = _weighted_sum(ens, t, lambda pi: (pi[:, :, None, :, None] * pi[:, None, :, None, :])
                        .reshape(-1, d * d, d * d))
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


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, axis=1)`` of a real (m, d) array, bit for bit for d < 8:
    numpy adds the columns in order onto a zero, one strided row at a time,
    while whole-column adds take a tenth of the time at d = 2. Each add
    writes a fresh array: an in-place add of two NaNs keeps the other
    operand's payload."""
    total = x[:, 0] + 0.0
    for j in range(1, x.shape[1]):
        total = total + x[:, j]
    return total


def _row_norm(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1, keepdims=True)``, bit for bit for d < 8:
    numpy's own formula, with the sum taken by ``_row_sum``."""
    return np.sqrt(_row_sum((x.conj() * x).real))[:, None]


def _fill_draws(streams: _Streams, keys, shape: tuple, method: str) -> np.ndarray:
    """One row of draws per stream key, filled in place: row i holds what
    ``Generator(Philox(key=[seed, keys[i]])).<method>(size=shape)`` draws."""
    out = np.empty((len(keys),) + shape)
    if out.size:        # an empty row draws nothing: no stream is keyed
        for row, key in zip(out, keys):
            getattr(streams(key), method)(out=row)
    return out


def _sample(grid, dt: float, M: int, jobs: int, seed: int, x0: np.ndarray,
            draws: list, step) -> tuple[np.ndarray, np.ndarray]:
    """The output grid and (M, len(grid), x0.size) states of M samples from
    x0, advanced in lockstep by ``x = step(x, t, *draws)`` at each integration
    time t. Per entry (key, width, method) of `draws`, sample i draws `width`
    values of ``Generator.<method>`` a step from its stream keyed ``key(i)``,
    and `step` gets that step's (m, width) draws. The run is split into at
    least `jobs` chunks whose draws fit in DRAW_BUDGET."""
    grid, step_times, slot = _prepare_grid(grid, dt)
    n_steps = len(step_times) - 1
    chunks = _chunked(M, jobs, n_steps * sum(width for _, width, _ in draws) * 8)
    streams = _Streams(seed)
    states = np.empty((M, len(grid), x0.size), dtype=x0.dtype)
    for c in chunks:
        filled = [_fill_draws(streams, [key(i) for i in c], (n_steps, width), method)
                  for key, width, method in draws]
        out = states[c.start:c.stop]
        x = np.tile(x0, (len(c), 1))
        out[:, 0] = x
        for s in range(n_steps):
            x = step(x, step_times[s], *[d[:, s] for d in filled])
            if slot[s + 1] >= 0:
                out[:, slot[s + 1]] = x
        # free this chunk's draws before the next chunk's are filled
        del filled
    return grid, states


def _unit_start(psi0, dim: int) -> np.ndarray:
    """A given start state, normalised; one that is not a finite nonzero
    vector of length dim is a ValueError."""
    psi0 = np.asarray(psi0, dtype=complex)
    norm = np.linalg.norm(psi0) if psi0.shape == (dim,) else 0.0
    if not (np.isfinite(norm) and norm > 0):
        raise ValueError(f"psi0 must be a finite nonzero vector of length {dim}: {psi0}")
    return psi0 / norm


def _read_spec(spec: LindbladSpec, psi0, grid, dt: float):
    """The normalised start state of an MCWF run, the jump operators and, for
    a constant spec, its rates and Hamiltonian, read once (else None). Every
    rate is first checked nonnegative at each integration step."""
    _, step_times, _ = _prepare_grid(grid, dt)
    for k in range(len(spec.channels)):
        rates = np.array([spec.rate(k, t) for t in step_times[:-1]])
        bad = np.where(rates < 0)[0]
        if bad.size:
            t_bad = step_times[bad[0]]
            raise ValueError(
                f"negative rate gamma_{k} = {rates[bad[0]]:.6g} at t = {t_bad:.6g}; "
                "jump/diffusive sampling requires nonnegative rates")
    t0 = step_times[0]
    constant = (spec.rates(t0), spec.hamiltonian(t0)) if spec.constant else None
    return _unit_start(psi0, spec.dim), [c for c, _ in spec.channels], constant


def mcwf_jump(spec: LindbladSpec, psi0, grid, M: int, seed: int,
              dt: float = 1e-3, jobs: int = 1) -> Ensemble:
    """Jump unravelling: per step, channel k fires with probability
    rate_k <psi|C_k^dag C_k|psi> dt and applies C_k with renormalization;
    otherwise the state evolves under the non-Hermitian effective
    Hamiltonian and is renormalized. First-order scheme; the run aborts if
    the per-step total jump probability ever reaches 0.1."""
    psi0, c_ops, constant = _read_spec(spec, psi0, grid, dt)

    def with_h_eff(rates, h):
        h_eff = h.astype(complex)
        for cdc, g in zip(spec.jump_products, rates):
            h_eff = h_eff - 0.5j * g * cdc
        return rates, h_eff

    if constant:
        constant = with_h_eff(*constant)

    def step(psi, t, u):
        m, d = psi.shape
        u = u[:, 0]
        rates, h_eff = constant or with_h_eff(spec.rates(t), spec.hamiltonian(t))
        jump_amps = np.stack([psi @ c.T for c in c_ops]) if c_ops else np.zeros((0, m, d))
        probs = np.stack([g * dt * _row_sum(np.abs(a) ** 2)
                          for a, g in zip(jump_amps, rates)]) if c_ops else np.zeros((0, m))
        ptot = probs.sum(axis=0)
        if ptot.size and ptot.max() >= MAX_STEP_PROB:
            raise ValueError(
                f"total jump probability {ptot.max():.3f} >= {MAX_STEP_PROB} at "
                f"t = {t:.6g}; reduce dt")
        new = psi - 1j * dt * (psi @ h_eff.T)
        new /= _row_norm(new)
        if c_ops:
            rows = np.flatnonzero(u < ptot)
            if rows.size:
                cum = np.cumsum(probs[:, rows], axis=0)
                channel = np.argmax(u[rows][None, :] < cum, axis=0)
                for k in range(len(c_ops)):
                    sel = rows[channel == k]
                    if sel.size:
                        amp = jump_amps[k][sel]
                        amp = amp / _row_norm(amp)
                        new[sel] = amp
        return new

    grid, states = _sample(grid, dt, M, jobs, seed, psi0, [(lambda i: i, 1, "random")], step)
    return Ensemble(grid, states, np.full(M, 1.0 / M), "mcwf-jump", seed,
                    {"dt": dt, "M": M})


def mcwf_diffusive(spec: LindbladSpec, psi0, grid, M: int, seed: int,
                   dt: float = 1e-3, jobs: int = 1) -> Ensemble:
    """Diffusive unravelling: Euler-Maruyama steps of the normalized
    diffusive stochastic state equation with one Gaussian increment per
    channel per step, renormalizing after each step. The ensemble mean
    converges to the same master-equation solution as the jump scheme."""
    psi0, c_ops, constant = _read_spec(spec, psi0, grid, dt)
    sqrt_dt = np.sqrt(dt)

    def step(psi, t, dw):
        rates, h = constant or (spec.rates(t), spec.hamiltonian(t))
        drift = -1j * (psi @ h.T)
        noise = np.zeros_like(psi)
        for k, (c, cdc, g) in enumerate(zip(c_ops, spec.jump_products, rates)):
            if g == 0.0:
                continue
            cpsi = psi @ c.T
            cdag_c_psi = psi @ cdc.T
            ev = 2.0 * _row_sum((psi.conj() * cpsi).real)   # <C + C^dag>
            drift += -0.5 * g * (cdag_c_psi - ev[:, None] * cpsi
                                 + 0.25 * (ev ** 2)[:, None] * psi)
            noise += np.sqrt(g) * (cpsi - 0.5 * ev[:, None] * psi) \
                * (dw[:, k] * sqrt_dt)[:, None]
        psi = psi + drift * dt + noise
        psi /= _row_norm(psi)
        return psi

    grid, states = _sample(grid, dt, M, jobs, seed, psi0,
                           [(lambda i: i, len(c_ops), "standard_normal")], step)
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


def _branch_tree(hist, weights, records, split, n_steps: int):
    """The exact unravellings' enumerator: the branches (hist (M, k, d),
    weights, records (M, j)) grown by n_steps measurements, in (branch,
    outcome) order. ``split(states, records, k)`` gives step k's unnormalised
    (M, outcomes, d) branch states and (M, outcomes) weights from the
    branches' last states; outcomes above weight 1e-14 are kept, renormalised."""
    for k in range(n_steps):
        branches, w = split(hist[:, -1], records, k)
        rows, outs = np.nonzero(w > 1e-14)
        psi = branches[rows, outs] / np.sqrt(w[rows, outs])[:, None]
        hist = np.concatenate([hist[rows], psi[:, None]], axis=1)
        weights = weights[rows] * w[rows, outs]
        records = np.column_stack([records[rows], outs])
    return hist, weights, records


def collision_unravel(model, basis_per_slot=None, psi0=None,
                      M: int | None = None, seed: int | None = None) -> Ensemble:
    """Measure the just-used ancilla after each collision slot.

    Conditional system states stay pure and the weighted mean over branches
    reproduces the dynamical map exactly. All outcome branches are
    enumerated when their count stays below the enumeration limit;
    otherwise M branches are sampled on ``_sample``, one slot a step and one
    uniform a slot from each trajectory's stream, and the ensemble carries
    statistical rather than exact weights. psi0 (default: the uniform
    superposition) is normalised.
    """
    ds, da, n = model.dim_s, model.dim_a, model.n_slots
    psi0 = _unit_start(np.ones(ds, dtype=complex) / np.sqrt(ds) if psi0 is None else psi0, ds)
    anc = model.ancilla_vector()
    times = np.asarray(model.slot_times, dtype=float)
    n_branches = da ** n
    bases = [_slot_basis(basis_per_slot, k, da) for k in range(n)]

    def collide(psi_rows, k):
        """Each row's psi (x) ancilla after the pair unitary, split by the
        outcome of measuring the ancilla in slot k's basis: unnormalised
        (rows, outcomes, ds) branch states and (rows, outcomes) weights."""
        joint = (psi_rows[:, :, None] * anc).reshape(len(psi_rows), ds * da)
        mat = (joint @ model.pair_unitary.T).reshape(-1, ds, da)
        branches = np.swapaxes(mat @ bases[k].conj(), 1, 2)
        return branches, np.sum(branches.real ** 2 + branches.imag ** 2, axis=2)

    if n_branches <= BRANCH_ENUM_LIMIT:
        hist, weights, records = _branch_tree(
            psi0[None, None, :], np.ones(1), np.zeros((1, 0), dtype=np.int64),
            lambda psi, _, k: collide(psi, k), n)
        return Ensemble(times, hist, weights, "collision-exact", None,
                        {"exact": True, "n_branches": len(weights)}, records)

    if M is None or seed is None:
        raise ValueError(
            f"{n_branches} branches exceed the enumeration limit "
            f"{BRANCH_ENUM_LIMIT}; pass M and seed for sampled mode")

    def step(x, t, u):
        # x holds each trajectory's state and, in its last column, its last
        # outcome: the first of weight above 1e-14 whose cumulative weight
        # reaches u * total (the last such outcome always does, as u < 1)
        branches, w = collide(x[:, :ds], int(t))
        keep = w > 1e-14
        cum = np.cumsum(np.where(keep, w, 0.0), axis=1)
        out = np.argmax(keep & (cum >= (u[:, 0] * cum[:, -1])[:, None]), axis=1)
        rows = np.arange(len(x))
        return np.column_stack([branches[rows, out] / np.sqrt(w[rows, out])[:, None], out])

    _, states = _sample(np.arange(n + 1.0), 1.0, M, 1, seed, np.append(psi0, 0),
                        [(lambda i: i, 1, "random")], step)
    return Ensemble(times, states[:, :, :ds], np.full(M, 1.0 / M), "collision-sampled", seed,
                    {"exact": False, "M": M}, states[:, 1:, ds].real.astype(np.int64))


def static_unravel(model, times, psi0=None,
                   basis: str | np.ndarray = "register") -> Ensemble:
    """Unravel the static-register model by measuring the register.

    In the register basis the branch states are exactly pure and the branch
    sum is exactly the dynamical map: this is the construction behind the
    uniqueness of the scheme. Any other basis ("conjugate", or a unitary
    array whose columns are the outcome states) disturbs the register
    statistics; the resulting mean deviation is reported in the metadata as
    the demonstration of that uniqueness. A given psi0 is normalised; the
    default is the uniform superposition.
    """
    ds, r = model.dim_s, model.dim_e
    psi0 = np.ones(ds, dtype=complex) / np.sqrt(ds) if psi0 is None else _unit_start(psi0, ds)
    times = np.asarray(times, dtype=float)
    full_times = np.concatenate([[model.t0], times])
    live = np.flatnonzero(model.probs > 1e-14)
    if basis is None or isinstance(basis, str) and basis == "register":
        states = [np.tile(psi0, (len(live), 1))] + \
            [model.sector_unitaries(t - model.t0)[live] @ psi0 for t in times]
        return Ensemble(full_times, np.stack(states, axis=1), model.probs[live],
                        "static-register", None, {"exact": True, "basis": "register"},
                        live[:, None])

    b = _CONJUGATE if isinstance(basis, str) and basis == "conjugate" \
        else np.asarray(basis, dtype=complex)
    if b.shape != (r, r) or np.max(np.abs(b.conj().T @ b - np.eye(r))) > 1e-10:
        raise ValueError("basis must be a unitary on the register")

    def measure(psi, records, k):
        # the register is e_m after outcome m at t0, column m of b after a
        # later one; psi (x) register is one broadcast product, bitwise kron
        reg = (np.eye(r, dtype=complex) if k == 0 else b.T)[records[:, -1]]
        joint = (psi[:, :, None] * reg[:, None, :]).reshape(len(psi), ds * r)
        mat = model.apply_propagator(full_times[k], full_times[k + 1], joint).reshape(-1, ds, r)
        branches = np.swapaxes(mat @ b.conj(), 1, 2)
        return branches, np.sum(branches.real ** 2 + branches.imag ** 2, axis=2)

    hist, weights, records = _branch_tree(np.tile(psi0, (len(live), 1, 1)), model.probs[live],
                                          live[:, None], measure, len(times))
    ens = Ensemble(full_times, hist, weights, "static-nonregister", None,
                   {"exact": True, "basis": "custom"}, records)
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
