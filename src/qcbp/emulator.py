"""Noiseless state-vector emulation of a driven Rydberg atom register.

The Hamiltonian is Omega(t) * sum_i X_i - delta(t) * sum_i n_i
+ sum_{i<j} (C6 / r_ij^6) n_i n_j, with basis index bit i holding the
occupation of atom i. Time stepping is second-order Strang splitting with
midpoint pulse values: half a diagonal phase, a global X rotation and the
second diagonal half, with consecutive half-steps merged.

`evolve` steps in the frame P = diag(1, -i) of each atom, where the rotation
exp(-i theta X) = P R(theta) P with the real R = [[cos, sin], [sin, -cos]].
The two P's between consecutive steps merge with the detuning phase
e^(i phi |x|) into one popcount phase (-e^(i phi))^|x|, applied beside the
interaction phase; |0...0> needs no phase, and the last P folds into the
final half-step. A step is then the interaction and popcount phases and
one real matrix product per block of atoms on the float view of the state.
The lowest block's product also spans the real/imaginary bit, so it carries
that block's share of the popcount phase; the other atoms' share is one
broadcast multiply. Every factor is unitary, so the norm is conserved to
rounding. `evolve` returns the final amplitudes as a plain array, and
`sample` draws from them.

The device limits (the Rabi cap OMEGA_MAX, the register cap MAX_QUBITS) and
the pulse's RAMP_FRACTION are constants. The run's `RunConfig` sets C6, the
time step, the pulse duration and the detuning sweep's ends, and it caps
the pulse at MAX_STEPS steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .embedding import EmbeddingReport, Register
from .graphs import pairwise_distances

OMEGA_MAX = 4.0 * math.pi  # rad/us; the peak Rabi frequency never exceeds it
MAX_QUBITS = 20  # largest register `evolve` accepts: 2^20 amplitudes, 16 MB
RAMP_FRACTION = 0.15  # share of the duration over which Omega rises, and again falls
# Widest atom block of evolve's real step matrices. At 8-12 atoms 3 is 0-12%
# faster than 4, whose lowest block's 32 x 32 matrices cost more to build than
# they save; at 16-18 atoms 4 is 3-7% faster.
BLOCK_QUBITS = 3
# Steps whose tables evolve builds at once: their block matrices (3 KB a step
# at 3-atom blocks) and the phases of the atoms above the lowest block, 16 B
# a step per state of those atoms. Past 12 atoms a chunk holds fewer steps,
# so that those phases stay within STEP_CHUNK x 2^9 of them (0.5 MB).
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


def _signed_powers(m: int, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """cos^(m-h) sin^h for h = 0..m, then their negatives: one row per step."""
    counts = np.arange(m + 1)
    powers = cos[:, None] ** (m - counts) * sin[:, None] ** counts
    return np.concatenate((powers, -powers), axis=1)


@functools.cache
def _rotation_index(m: int) -> np.ndarray:
    """Where entry [x, y] of R^(x)m lies in a row of `_signed_powers`: it is
    cos^(m-h) sin^h (-1)^|x & y| with h = |x ^ y|. Cached, so read-only."""
    states = np.arange(1 << m)
    distance = np.bitwise_count(states[:, None] ^ states).astype(np.intp)  # not uint8, which index arithmetic overflows
    index = distance + (m + 1) * (np.bitwise_count(states[:, None] & states) & 1)
    index.flags.writeable = False
    return index


@functools.cache
def _carry_index(m: int) -> np.ndarray:
    """Where entry [2x + r, 2y + s] of `carry_blocks` lies in a row of its
    table: R^(x)m[x, y]'s signed power, then |x|, then G's entry [r, s].
    Cached, so read-only."""
    weight = np.bitwise_count(np.arange(1 << m))
    index = ((_rotation_index(m)[:, None, :, None] * (m + 1) + weight[:, None, None, None]) * 4
             + np.array([0, 2])[:, None, None] + np.array([0, 1]))
    index = index.reshape(2 << m, 2 << m)
    index.flags.writeable = False
    return index


def rotation_blocks(m: int, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """R^(x)m on m atoms for each step, R = [[cos, sin], [sin, -cos]]: shape
    (len(cos), 2^m, 2^m), real and symmetric. With P = diag(1, -i) on each
    atom, P^(x)m R^(x)m P^(x)m is the rotation exp(-i theta sum X)."""
    return _signed_powers(m, cos, sin)[:, _rotation_index(m)]


def carry_blocks(m: int, cos: np.ndarray, sin: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """The lowest block's real matrices, shape (len(cos), 2^(m+1), 2^(m+1)),
    indexed 2x + r over its m atoms' state x and the real (r = 0) or
    imaginary (r = 1) part. A row vector times one applies e^(i beta |x|),
    then R^(x)m: entry [2x + r, 2y + s] is R^(x)m[x, y] G[r, s], where
    G = [[cos, sin], [-sin, cos]](beta |x|) acts on (real, imaginary) rows."""
    angles = betas[:, None] * np.arange(m + 1)
    c, s = np.cos(angles), np.sin(angles)
    turns = np.stack((c, s, -s, c), axis=2)  # G(beta q), q = 0..m, row-major
    table = _signed_powers(m, cos, sin)[:, :, None, None] * turns[:, None]
    return table.reshape(len(cos), -1)[:, _carry_index(m)]


def evolve(reg: Register, pulse: PulseSchedule, cfg: RunConfig) -> np.ndarray:
    """The amplitudes of |0...0> evolved under the register Hamiltonian for the
    full pulse, one per basis index (bit i = atom i).

    Step k multiplies by the interaction phase left from step k - 1 and by
    the high atoms' share of the popcount phase, then applies one real matrix
    per block of atoms to the float view of the state: `rotation_blocks` for
    each block above the lowest, top block first, and `carry_blocks` for the
    lowest. The tables are built STEP_CHUNK steps at a time.
    """
    n = reg.n
    if n > MAX_QUBITS:
        raise ValueError(f"{n} atoms exceed the emulation cap of {MAX_QUBITS}")
    steps = max(1, round(pulse.duration / cfg.dt))
    h = pulse.duration / steps
    count = -(-n // BLOCK_QUBITS)
    sizes = [n // count + (b < n % count) for b in range(count)]  # low bits first
    low, high = sizes[0], sizes[:0:-1]  # the blocks above the lowest, top first
    chunk = min(STEP_CHUNK, max(1, (STEP_CHUNK << 9) >> (n - low)))

    size = 1 << n
    inter_half = np.exp(-0.5j * h * interaction_diagonal(reg.as_array(), cfg.c6))
    inter_full = inter_half * inter_half
    thetas, deltas = pulse.at_midpoints(steps)
    thetas *= h
    # e^(i beta |x|) = (-e^(i phi))^|x|: step k's detuning phase phi, merged
    # with the frame's P from step k - 1 and step k's own
    betas = np.concatenate((deltas[:1], deltas[:-1] + deltas[1:]))
    betas *= 0.5 * h
    betas += math.pi
    high_weight = np.bitwise_count(np.arange(1 << (n - low)))[:, None]

    # Each product reads the top bits of one buffer's float view and writes
    # them as the bottom bits of the other's, so after the lowest block (its
    # atoms and the real/imaginary bit) the bits are in order again.
    buffers = np.zeros((2, size), dtype=np.complex128)
    floats = buffers.view(np.float64)
    products, src = [], 0
    for bits in (*high, low + 1):
        products.append((floats[src].reshape(1 << bits, -1).T, floats[1 - src].reshape(-1, 1 << bits)))
        src = 1 - src
    psi, out = buffers[0], buffers[src]  # a step reads `out` and writes its phased copy to `psi`
    out[0] = 1.0
    rows = psi.reshape(-1, 1 << low)  # one row per state of the high atoms
    for start in range(0, steps, chunk):
        part = slice(start, start + chunk)
        cos, sin, beta = np.cos(thetas[part]), np.sin(thetas[part]), betas[part]
        rotations = {m: rotation_blocks(m, cos, sin) for m in set(high)}
        mats = [rotations[m] for m in high] + [carry_blocks(low, cos, sin, beta)]
        phases = np.exp(1j * beta[:, None] * np.arange(n - low + 1))[:, high_weight]
        # At step 0 both phases are 1 on |0...0>.
        for phase, *step in zip(phases, *mats):
            np.multiply(out, inter_full, out=psi)
            np.multiply(rows, phase, out=rows)
            for (a, b), mat in zip(products, step):
                np.matmul(a, mat, out=b)
    # the last half-step's phases, with the frame's last P = (-i)^|x|
    end = np.exp(1j * (0.5 * h * deltas[-1] - 0.5 * math.pi) * np.arange(n + 1))[np.bitwise_count(np.arange(size))]
    return out * inter_half * end


def sample(amplitudes: np.ndarray, shots: int, seed: int) -> dict[int, int]:
    """Multinomial draw of bitstrings from the measurement distribution of
    `amplitudes`: counts keyed by basis index (bit i = atom i), zero counts
    left out."""
    p = np.abs(amplitudes) ** 2
    p = p / p.sum()
    raw = np.random.default_rng(seed).multinomial(shots, p)
    return {int(i): int(raw[i]) for i in raw.nonzero()[0]}
