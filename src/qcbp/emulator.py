"""Noiseless state-vector emulation of a driven Rydberg atom register.

The Hamiltonian is Omega(t) * sum_i X_i - delta(t) * sum_i n_i
+ sum_{i<j} (C6 / r_ij^6) n_i n_j, with basis index bit i holding the
occupation of atom i. Time stepping is second-order Strang splitting with
midpoint pulse values: half a diagonal phase, a global X rotation and the
second diagonal half, with consecutive half-steps merged. The detuning part of
the diagonal is a sum of one-atom terms, so it factors over blocks of qubits
and commutes with the interaction part; `evolve` folds it into the rotation.
A step is then one matmul per block of qubits, by exp(-i theta sum X)
exp(i phi sum n) on that block, and one multiply by the interaction phase.
Every factor is unitary, so the norm is conserved to rounding. `evolve`
returns the final amplitudes as a plain array, and `sample` draws from them.

The device limits (the Rabi cap OMEGA_MAX, the register cap MAX_QUBITS) and
the pulse's RAMP_FRACTION are constants. The run's `RunConfig` sets C6, the
time step, the pulse duration and the detuning sweep's ends, and it caps
the pulse at MAX_STEPS steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .embedding import EmbeddingReport, Register
from .graphs import pairwise_distances

OMEGA_MAX = 4.0 * math.pi  # rad/us; the peak Rabi frequency never exceeds it
MAX_QUBITS = 20  # largest register `evolve` accepts: 2^20 amplitudes, 16 MB
RAMP_FRACTION = 0.15  # share of the duration over which Omega rises, and again falls
BLOCK_QUBITS = 4  # widest qubit block of evolve's step matrices; 4 and 5 measure alike
# Steps whose block matrices evolve builds at once: 0.26 MB at 4 qubits. A
# 2-atom evolve (900 steps) takes 2.6 ms at 64, 2.9 at 32 and 2.3 with all
# steps at once, where the matrices would grow with the step count.
STEP_CHUNK = 64


@dataclass(frozen=True)
class PulseSchedule:
    """Piecewise-linear Omega(t) and delta(t) over a fixed duration."""

    duration: float
    omega: tuple[tuple[float, float], ...]
    delta: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for name, points in (("omega", self.omega), ("delta", self.delta)):
            ts = [t for t, _ in points]
            if ts != sorted(set(ts)):
                raise ValueError(f"{name} breakpoints must be strictly increasing")
            if not points or abs(points[0][0]) > 1e-12 or abs(points[-1][0] - self.duration) > 1e-9:
                raise ValueError(f"{name} breakpoints must cover [0, duration]")
        if abs(self.omega[0][1]) > 1e-12 or abs(self.omega[-1][1]) > 1e-12:
            raise ValueError("omega must start and end at zero")

    def at_midpoints(self, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Omega and delta at the midpoints of `steps` equal steps."""
        t = (np.arange(steps) + 0.5) * (self.duration / steps)
        return np.interp(t, *zip(*self.omega)), np.interp(t, *zip(*self.delta))


def blockade_radius(report: EmbeddingReport) -> float:
    """Geometric mean of the extreme edge/non-edge distances.

    Complete graphs have no non-edges and fall back to the longest edge;
    edgeless graphs fall back to the shortest non-edge. Either keeps the
    radius on the meaningful side of the only available distance scale.
    """
    if report.r_max is not None and report.r_min_gap is not None:
        return math.sqrt(report.r_min_gap * report.r_max)
    if report.r_max is not None:
        return report.r_max
    if report.r_min_gap is not None:
        return report.r_min_gap
    raise ValueError("report covers no atom pair; cannot size the pulse")


def build_adiabatic_pulse(report: EmbeddingReport, cfg: RunConfig) -> PulseSchedule:
    """Trapezoidal Rabi drive capped by the blockade condition, linear detuning sweep.

    The peak Rabi frequency is min(C6 / r_b^6, OMEGA_MAX) for blockade radius
    r_b; the drive rises over the first RAMP_FRACTION of the duration and
    falls over the last. The detuning ramps linearly from delta_start to
    delta_end across the full duration.
    """
    r_b = blockade_radius(report)
    peak = min(cfg.c6 / r_b**6, OMEGA_MAX)
    t_end = cfg.duration
    omega = (
        (0.0, 0.0),
        (RAMP_FRACTION * t_end, peak),
        ((1.0 - RAMP_FRACTION) * t_end, peak),
        (t_end, 0.0),
    )
    delta = ((0.0, cfg.delta_start), (t_end, cfg.delta_end))
    return PulseSchedule(duration=t_end, omega=omega, delta=delta)


def interaction_diagonal(positions: np.ndarray, c6: float) -> np.ndarray:
    """Diagonal of the pair-interaction term over all 2^n basis states, in O(2^n) memory."""
    n = len(positions)
    dist = pairwise_distances(positions)
    states = np.arange(1 << n)
    diag = np.zeros(1 << n)
    for i in range(n):
        bit = (states >> i) & 1
        for j in range(i + 1, n):
            diag += (c6 / dist[i, j] ** 6) * (bit & (states >> j))
    return diag


def step_blocks(m: int, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """exp(-i thetas[k] sum_i X_i) exp(i phis[k] sum_i n_i) on m qubits for every
    k, shape (len(thetas), 2^m, 2^m): entry [x, y] is
    cos^(m-h) (-i sin)^h e^(i phi |y|), h = popcount(x ^ y), gathered from powers."""
    states, counts = np.arange(1 << m), np.arange(m + 1)
    cos, sin = np.cos(thetas)[:, None], -1j * np.sin(thetas)[:, None]
    powers = cos ** (m - counts) * sin ** counts
    phases = np.exp(1j * phis[:, None] * counts)[:, np.bitwise_count(states)]
    return powers[:, np.bitwise_count(states[:, None] ^ states)] * phases[:, None, :]


def evolve(reg: Register, pulse: PulseSchedule, cfg: RunConfig) -> np.ndarray:
    """The amplitudes of |0...0> evolved under the register Hamiltonian for the
    full pulse, one per basis index (bit i = atom i).

    Step k multiplies by the interaction phase left from step k - 1, then
    applies one `step_blocks` matrix per block of qubits (low bits first):
    step k's X rotation after the detuning phase left from step k - 1. The
    matrices are built STEP_CHUNK steps at a time.
    """
    n = reg.n
    if n > MAX_QUBITS:
        raise ValueError(f"{n} atoms exceed the emulation cap of {MAX_QUBITS}")
    steps = max(1, round(pulse.duration / cfg.dt))
    h = pulse.duration / steps
    count = -(-n // BLOCK_QUBITS)
    sizes = [n // count + (b < n % count) for b in range(count)]  # low bits first

    size = 1 << n
    inter_half = np.exp(-0.5j * h * interaction_diagonal(reg.as_array(), cfg.c6))
    inter_full = inter_half * inter_half
    omegas, deltas = pulse.at_midpoints(steps)
    thetas = omegas * h
    phis = 0.5 * h * np.concatenate((deltas[:1], deltas[:-1] + deltas[1:]))

    # The first half-step's interaction phase is 1 on |0...0>, so it is left
    # out; its detuning phase is in step 0's matrices.
    psi = np.zeros(size, dtype=np.complex128)
    psi[0] = 1.0
    for k in range(steps):
        if k % STEP_CHUNK == 0:
            chunk = slice(k, k + STEP_CHUNK)
            mats = {m: step_blocks(m, thetas[chunk], phis[chunk]) for m in set(sizes)}
        if k:
            psi *= inter_full
        # Each matmul takes the low m bits and writes them back as the high
        # bits, so after the last block the bits are in order again.
        for m in sizes:
            psi = np.matmul(mats[m][k % STEP_CHUNK], psi.reshape(-1, 1 << m).T)
        psi = psi.reshape(size)
    end = np.exp(0.5j * h * deltas[-1] * np.arange(n + 1))[np.bitwise_count(np.arange(size))]
    psi *= inter_half * end
    return psi


def sample(amplitudes: np.ndarray, shots: int, seed: int) -> dict[int, int]:
    """Multinomial draw of bitstrings from the measurement distribution of
    `amplitudes`: counts keyed by basis index (bit i = atom i), zero counts
    left out."""
    p = np.abs(amplitudes) ** 2
    p = p / p.sum()
    raw = np.random.default_rng(seed).multinomial(shots, p)
    return {int(i): int(c) for i, c in enumerate(raw) if c}
