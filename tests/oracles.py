"""Independent reference implementations used only to check the package."""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from qcbp.embedding import Register
from qcbp.config import RunConfig
from qcbp.emulator import C6, PulseSchedule, interaction_diagonal
from qcbp.graphs import iter_bits


def dense_x_operator(n: int) -> np.ndarray:
    """sum_i X_i as a dense matrix over the 2^n basis."""
    size = 1 << n
    x = np.zeros((size, size))
    for state in range(size):
        for i in range(n):
            x[state ^ (1 << i), state] += 1.0
    return x


RK4_STEP = 1e-4  # us; fixed, so a coarser emulator dt never coarsens its reference


def rk4_final_state(reg: Register, pulse: PulseSchedule, step: float = RK4_STEP) -> np.ndarray:
    """Classic fixed-step RK4 integration of the Schrodinger equation.

    Steps at `step` (rounded to divide the duration), not at a run's dt. The
    state is normalized at the end to remove the integrator's tiny norm
    drift before fidelity comparisons.
    """
    return rk4_final_states([reg], [pulse], step)[0]


def rk4_final_states(regs: list[Register], pulses: list[PulseSchedule], step: float = RK4_STEP) -> np.ndarray:
    """`rk4_final_state` for registers of one size whose pulses share a
    duration, integrated side by side: row b is register b's final state."""
    n, duration = regs[0].n, pulses[0].duration
    if any(reg.n != n for reg in regs) or any(pulse.duration != duration for pulse in pulses):
        raise ValueError("a batch needs registers of one size and pulses of one duration")
    steps = max(1, round(duration / step))
    h = duration / steps
    x_op = dense_x_operator(n)  # symmetric, so psi @ x_op applies it to every row
    inter = np.stack([interaction_diagonal(reg.as_array(), C6) for reg in regs])
    size = 1 << n
    occ = np.zeros(size)
    for i in range(n):
        occ += (np.arange(size) >> i) & 1

    # Omega and delta at every stage time t, t + h/2, t + h, looked up at once;
    # the last axis runs over the batch
    t = np.arange(steps) * h
    stages = np.stack([t, t + h / 2, t + h])
    oms = np.stack([np.interp(stages, *zip(*pulse.omega)) for pulse in pulses], axis=-1)
    des = np.stack([np.interp(stages, *zip(*pulse.delta)) for pulse in pulses], axis=-1)

    def rhs(stage: int, k: int, psi: np.ndarray) -> np.ndarray:
        om, de = oms[stage, k][:, None], des[stage, k][:, None]
        return -1j * (om * (psi @ x_op) + (inter - de * occ) * psi)

    psi = np.zeros((len(regs), size), dtype=np.complex128)
    psi[:, 0] = 1.0
    for k in range(steps):
        k1 = rhs(0, k, psi)
        k2 = rhs(1, k, psi + h / 2 * k1)
        k3 = rhs(1, k, psi + h / 2 * k2)
        k4 = rhs(2, k, psi + h * k3)
        psi = psi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def strang_pairs_final_state(reg: Register, pulse: PulseSchedule, cfg: RunConfig) -> np.ndarray:
    """The emulator's Strang steps with the X rotation applied qubit pair by
    qubit pair: one kron(u2, u2) matmul per pair, and u2 on an odd last qubit.

    Same step count, midpoint grid and merged diagonal half-steps as
    `evolve`; only the rotation kernel differs.
    """
    n = reg.n
    steps = max(1, round(pulse.duration / cfg.dt))
    h = pulse.duration / steps
    size = 1 << n
    occupation = np.bitwise_count(np.arange(size))
    inter_half = np.exp(-0.5j * h * interaction_diagonal(reg.as_array(), C6))
    inter_full = inter_half * inter_half
    counts = np.arange(n + 1)

    def half_phase(delta: float) -> np.ndarray:
        return inter_half * np.exp(0.5j * h * delta * counts)[occupation]

    def rotate_pairs(psi: np.ndarray, theta: float) -> np.ndarray:
        c, s = math.cos(theta), math.sin(theta)
        u2 = np.array([[c, -1j * s], [-1j * s, c]])
        u4 = np.kron(u2, u2)
        for q in range(0, n - 1, 2):
            psi = np.matmul(u4, psi.reshape(1 << q, 4, -1))
        if n % 2:
            psi = np.matmul(u2, psi.reshape(1 << (n - 1), 2, -1))
        return psi.reshape(size)

    omegas, deltas = (values.tolist() for values in pulse.at_midpoints(steps))
    psi = np.zeros(size, dtype=np.complex128)
    psi[0] = 1.0
    psi *= half_phase(deltas[0])
    for k in range(steps):
        if omegas[k]:
            psi = rotate_pairs(psi, omegas[k] * h)
        if k + 1 < steps:
            psi *= inter_full * np.exp(0.5j * h * (deltas[k] + deltas[k + 1]) * counts)[occupation]
    psi *= half_phase(deltas[-1])
    return psi


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


def is_maximal_independent(g, s: int) -> bool:
    """True iff s is independent in g and every outside vertex has a neighbor in s."""
    return g.is_independent(s) and all(g.adj[v] & s for v in range(g.n) if not s >> v & 1)


def all_independent_sets(g) -> list[int]:
    """Every nonempty independent set of g, as masks in increasing order."""
    return [s for s in range(1, 1 << g.n) if g.is_independent(s)]


def independence_table(g) -> np.ndarray:
    """Boolean vector over all 2^n masks: True where the mask is independent.

    Vectorized so the exhaustive MWIS oracle stays usable at n = 16.
    """
    masks = np.arange(1 << g.n, dtype=np.int64)
    ok = np.ones(1 << g.n, dtype=bool)
    for u, v in g.edges():
        ok &= ~(((masks >> u) & (masks >> v)) & 1).astype(bool)
    return ok


def brute_mwis(g, weights) -> tuple[float, int]:
    """Exhaustive maximum-weight independent set: its value, and the smallest
    mask within 1e-12 of it (the empty set when no weight is positive)."""
    ok = independence_table(g)
    masks = np.arange(1 << g.n, dtype=np.int64)
    values = np.zeros(1 << g.n)
    for v in range(g.n):
        values += np.asarray(weights, dtype=float)[v] * ((masks >> v) & 1)
    best = values[ok].max()
    return float(best), int(np.flatnonzero(ok & (values >= best - 1e-12))[0])


def lp_oracle(g, masks: list[int]) -> float:
    """The set-partitioning LP over `masks` (cover every vertex exactly once,
    at cost 1 a column), solved by HiGHS."""
    a = np.zeros((g.n, len(masks)))
    for j, mask in enumerate(masks):
        for v in iter_bits(mask):
            a[v, j] = 1.0
    res = linprog(np.ones(len(masks)), A_eq=a, b_eq=np.ones(g.n), bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def random_register(rng: np.random.Generator, n: int, spread: float = 14.0) -> Register:
    """Random hardware-feasible register: spacing >= 4 um via rejection."""
    while True:
        pts = rng.uniform(-spread, spread, size=(n, 2))
        d = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((d * d).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        if dist.min() >= 4.0:
            return Register(positions=tuple((float(x), float(y)) for x, y in pts))
