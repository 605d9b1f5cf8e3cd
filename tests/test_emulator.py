import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qcbp.config import DEFAULT_C6, MAX_STEPS, RunConfig
from qcbp.embedding import Register, audit
from qcbp.emulator import (
    MAX_QUBITS,
    OMEGA_MAX,
    RAMP_FRACTION,
    STEP_CHUNK,
    PulseSchedule,
    build_adiabatic_pulse,
    carry_blocks,
    evolve,
    interaction_diagonal,
    rotation_blocks,
    sample,
)
from qcbp.graphs import Graph, pairwise_distances

from oracles import dense_x_operator, fidelity, random_register, rk4_final_state, strang_pairs_final_state


def at(points, t):
    """A piecewise-linear schedule's value at t, interpolated as `at_midpoints` does."""
    return float(np.interp(t, *zip(*points)))


def worked_report():
    """Target graph with one edge at 5.0 um and both non-edges at 8.7 um."""
    g = Graph.from_edges(3, [(0, 1)])
    y = math.sqrt(8.7**2 - 2.5**2)
    reg = Register(positions=((0.0, 0.0), (5.0, 0.0), (2.5, y)))
    return audit(g, reg, ud_radius=10.0)


class TestPulse:
    def test_peak_from_worked_bounds(self):
        pulse = build_adiabatic_pulse(worked_report(), RunConfig())
        assert at(pulse.omega, 1.5) == pytest.approx(10.66, abs=1e-2)

    def test_detuning_endpoints(self):
        pulse = build_adiabatic_pulse(worked_report(), RunConfig())
        assert at(pulse.delta, 0.0) == -15.0
        assert at(pulse.delta, 3.0) == 15.0

    def test_omega_clamped_at_4pi(self):
        # Two atoms at 5 um: c6/r_b^6 = 56 rad/us, far above the cap.
        g = Graph.from_edges(2, [(0, 1)])
        rep = audit(g, Register(positions=((0.0, 0.0), (5.0, 0.0))), 10.0)
        pulse = build_adiabatic_pulse(rep, RunConfig())
        assert at(pulse.omega, 1.5) == pytest.approx(OMEGA_MAX)

    def test_omega_zero_at_ends(self):
        pulse = build_adiabatic_pulse(worked_report(), RunConfig())
        assert at(pulse.omega, 0.0) == 0.0
        assert at(pulse.omega, pulse.duration) == 0.0

    def test_duration_default_3us(self):
        assert build_adiabatic_pulse(worked_report(), RunConfig()).duration == 3.0

    def test_edgeless_uses_min_gap(self):
        g = Graph.from_edges(2, [])
        rep = audit(g, Register(positions=((0.0, 0.0), (11.0, 0.0))), 10.0)
        pulse = build_adiabatic_pulse(rep, RunConfig())
        assert at(pulse.omega, 1.5) == pytest.approx(min(877455.0 / 11.0**6, OMEGA_MAX))

    def test_breakpoints_validated(self):
        with pytest.raises(ValueError, match="increasing"):
            PulseSchedule(3.0, ((0.0, 0.0), (0.0, 1.0), (3.0, 0.0)), ((0.0, -15.0), (3.0, 15.0)))
        with pytest.raises(ValueError, match="zero"):
            PulseSchedule(3.0, ((0.0, 1.0), (3.0, 0.0)), ((0.0, -15.0), (3.0, 15.0)))

    def test_breakpoints_must_reach_the_duration(self):
        with pytest.raises(ValueError, match=r"delta breakpoints must cover \[0, duration\]"):
            PulseSchedule(3.0, ((0.0, 0.0), (1.5, 1.0), (3.0, 0.0)), ((0.0, -15.0), (2.0, 15.0)))

    @pytest.mark.parametrize("duration, dt", [(3.0, 1e-3), (3.0, 2e-3), (1.7, 7e-4)])
    def test_midpoint_schedule_matches_scalar_lookups(self, duration, dt):
        cfg = RunConfig(duration=duration, dt=dt)
        pulse = build_adiabatic_pulse(worked_report(), cfg)
        steps = round(pulse.duration / cfg.dt)
        h = pulse.duration / steps
        omegas, deltas = pulse.at_midpoints(steps)
        assert omegas.tolist() == [at(pulse.omega, (k + 0.5) * h) for k in range(steps)]
        assert deltas.tolist() == [at(pulse.delta, (k + 0.5) * h) for k in range(steps)]


class TestConfigRanges:
    @pytest.mark.parametrize("kwargs, reason", [
        ({"duration": 0.0}, "duration"),
        ({"duration": -3.0}, "duration"),
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": -1e-3}, "dt must be positive"),
        ({"c6": 0.0}, "c6 must be positive"),
        ({"delta_start": math.inf}, "delta_start must be finite"),
        ({"delta_end": math.nan}, "delta_end must be finite"),
        ({"dt": math.nan}, "dt must be finite"),
        ({"dt": math.inf}, "dt must be finite"),
        ({"duration": math.inf}, "duration must be finite"),
        ({"c6": math.nan}, "c6 must be finite"),
        ({"c6": -1.0}, "c6 must be positive"),
        ({"delta_start": math.nan}, "delta_start must be finite"),
        ({"delta_end": -math.inf}, "delta_end must be finite"),
        ({"dt": 1e-9}, f"3000000000 steps, above {MAX_STEPS}: evolve's per-step tables"),
        ({"duration": 3e3}, f"steps, above {MAX_STEPS}"),
        ({"dt": 3.0 / (MAX_STEPS + 1)}, f"steps, above {MAX_STEPS}"),
    ])
    def test_out_of_range_rejected(self, kwargs, reason):
        with pytest.raises(ValueError, match=reason):
            RunConfig(**kwargs)

    def test_edge_of_range_builds_a_pulse(self):
        # A pulse of MAX_STEPS steps is in range (built, never evolved here).
        RunConfig(dt=3.0 / MAX_STEPS)
        # A short duration and a zero detuning are in range: the one-step
        # pulse still ramps up before it ramps down, and evolves.
        cfg = RunConfig(duration=1e-3, dt=1e-3, delta_start=0.0, delta_end=0.0)
        pulse = build_adiabatic_pulse(worked_report(), cfg)
        assert pulse.omega[1][0] < pulse.omega[2][0]
        reg = Register(positions=((0.0, 0.0), (5.0, 0.0)))
        assert np.linalg.norm(evolve(reg, pulse, cfg)) == pytest.approx(1.0, abs=1e-12)


def unit_disk_register(seed, n, radius=10.0):
    """A random register and the audit of its own unit-disk graph."""
    reg = random_register(np.random.default_rng(seed), n, spread=16.0)
    dist = pairwise_distances(reg.as_array())
    g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if dist[i, j] <= radius])
    return reg, audit(g, reg, radius)


def frame(m):
    """The diagonal of P^(x)m, P = diag(1, -i): (-i)^|x| per basis state x."""
    return (-1j) ** np.bitwise_count(np.arange(1 << m))


class TestXRotation:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_blocks_match_dense_exponential(self, n):
        """Each real step matrix, conjugated by P^(x)n, is exp(-i theta sum X) on n qubits."""
        rng = np.random.default_rng(n)
        w, v = np.linalg.eigh(dense_x_operator(n))
        thetas = np.array([0.0, math.pi / 2, rng.uniform(-math.pi, math.pi)])
        mats = rotation_blocks(n, np.cos(thetas), np.sin(thetas))
        assert mats.shape == (3, 1 << n, 1 << n) and mats.dtype == np.float64
        p = frame(n)
        for mat, theta in zip(mats, thetas):
            dense = (v * np.exp(-1j * theta * w)) @ v.T
            assert np.abs(p[:, None] * mat * p - dense).max() <= 1e-12

    @pytest.mark.parametrize("m", range(1, 6))
    def test_lowest_block_is_the_real_form_of_its_complex_matrix(self, m):
        """A row vector of (real, imaginary) pairs times the lowest block's
        matrix is the complex R^(x)m e^(i beta |x|) applied to the amplitudes,
        where R^(x)m = P^-1 exp(-i theta sum X) P^-1."""
        rng = np.random.default_rng(10 + m)
        w, v = np.linalg.eigh(dense_x_operator(m))
        angles = (0.0, math.pi / 2, float(rng.uniform(-math.pi, math.pi)))
        thetas, betas = (np.array(grid).ravel() for grid in np.meshgrid(angles, angles))
        mats = carry_blocks(m, np.cos(thetas), np.sin(thetas), betas)
        assert mats.shape == (9, 2 << m, 2 << m) and mats.dtype == np.float64
        occupation = np.bitwise_count(np.arange(1 << m))
        p_inv = 1 / frame(m)
        for mat, theta, beta in zip(mats, thetas, betas):
            dense = p_inv[:, None] * ((v * np.exp(-1j * theta * w)) @ v.T) * (p_inv * np.exp(1j * beta * occupation))
            # real unit vector x maps to row 2x, imaginary unit vector to row 2x + 1
            assert np.abs(mat[0::2, 0::2] + 1j * mat[0::2, 1::2] - dense.T).max() <= 1e-12
            assert np.abs(mat[1::2, 1::2] - 1j * mat[1::2, 0::2] - dense.T).max() <= 1e-12
            amplitudes = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
            stepped = (amplitudes.view(np.float64) @ mat).view(np.complex128)
            assert np.abs(stepped - dense @ amplitudes).max() <= 1e-12


class TestInteractionDiagonal:
    def test_matches_all_pairs_reference(self):
        reg, _ = unit_disk_register(60, 10)
        positions = reg.as_array()
        dist = pairwise_distances(positions)
        states = np.arange(1 << 10)
        expected = np.zeros(1 << 10)
        for i in range(10):
            for j in range(i + 1, 10):
                expected += (DEFAULT_C6 / dist[i, j] ** 6) * (((states >> i) & 1) & ((states >> j) & 1))
        assert np.array_equal(interaction_diagonal(positions, DEFAULT_C6), expected)

    def test_peak_memory_is_a_few_states(self):
        n = 16
        positions = np.array([(5.0 * (q % 4), 5.0 * (q // 4)) for q in range(n)])
        tracemalloc.start()
        try:
            interaction_diagonal(positions, DEFAULT_C6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        state_bytes = 16 << n  # complex128 amplitudes
        assert peak <= 4 * state_bytes


class TestAgainstPairReference:
    """`evolve` against the same Strang steps rotated qubit pair by pair."""

    # n = 2, 3: one block; 5: 3 + 2 qubits; 7: 3 + 2 + 2; 9, 12: all of 3;
    # 13: 3 + 3 + 3 + 2 + 2, with chunks of STEP_CHUNK / 2 steps
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 9, 10, 11, 12, 13])
    @pytest.mark.parametrize("half_rabi", [False, True])
    def test_amplitudes_and_samples(self, n, half_rabi):
        cfg = RunConfig()
        reg, report = unit_disk_register(70 + n, n)
        pulse = build_adiabatic_pulse(report, cfg)
        if half_rabi:  # a second rotation angle per step: the same pulse at Omega/2
            pulse = replace(pulse, omega=tuple((t, 0.5 * w) for t, w in pulse.omega))
        self.assert_matches(reg, pulse, cfg)

    @pytest.mark.parametrize("steps", [1, STEP_CHUNK - 1, STEP_CHUNK + 1, 2 * STEP_CHUNK + 7])
    def test_step_counts_across_chunks(self, steps):
        """A one-step pulse, and step counts that leave a partial chunk."""
        reg, report = unit_disk_register(81, 9)
        cfg = RunConfig(dt=3.0 / steps)
        assert round(cfg.duration / cfg.dt) == steps
        self.assert_matches(reg, build_adiabatic_pulse(report, cfg), cfg)

    @staticmethod
    def assert_matches(reg, pulse, cfg):
        psi = evolve(reg, pulse, cfg)
        ref = strang_pairs_final_state(reg, pulse, cfg)
        assert np.abs(psi - ref).max() <= 1e-10
        for seed in range(10):
            assert sample(psi, 200, seed) == sample(ref, 200, seed)


class TestEvolve:
    def test_tables_take_about_32_bytes_a_step(self):
        """The per-step tables MAX_STEPS is sized by: a 2-atom evolve of a
        long pulse peaks at about 32 B a step."""
        cfg = RunConfig(dt=3.0 / 20_000)
        reg = Register(positions=((0.0, 0.0), (5.0, 0.0)))
        pulse = build_adiabatic_pulse(audit(Graph.from_edges(2, [(0, 1)]), reg, 10.0), cfg)
        tracemalloc.start()
        try:
            evolve(reg, pulse, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 34 * 20_000

    def test_single_atom_zero_drive_stays_ground(self):
        pulse = PulseSchedule(3.0, ((0.0, 0.0), (3.0, 0.0)), ((0.0, -15.0), (3.0, 15.0)))
        psi = evolve(Register(positions=((0.0, 0.0),)), pulse, RunConfig())
        assert abs(psi[0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_norm_conserved(self):
        rng = np.random.default_rng(50)
        for n in (2, 5, 12):
            reg = random_register(rng, n, spread=16.0)
            rep = audit(Graph.from_edges(n, []), reg, 10.0)
            psi = evolve(reg, build_adiabatic_pulse(rep, RunConfig()), RunConfig())
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-6

    def test_two_atoms_match_dense_reference(self):
        g = Graph.from_edges(2, [(0, 1)])
        reg = Register(positions=((0.0, 0.0), (5.0, 0.0)))
        pulse = build_adiabatic_pulse(audit(g, reg, 10.0), RunConfig())
        psi = evolve(reg, pulse, RunConfig())
        ref = rk4_final_state(reg, pulse, RunConfig())
        assert fidelity(psi, ref) >= 1 - 1e-4

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_default_dt_samples_like_a_tenth_of_it(self, n):
        """The default step's error budget on sampler-sized registers: the
        measurement distribution moves by TVD <= 1e-2 at dt / 10."""
        cfg = RunConfig()
        reg, report = unit_disk_register(90 + n, n)
        pulse = build_adiabatic_pulse(report, cfg)
        p = np.abs(evolve(reg, pulse, cfg)) ** 2
        q = np.abs(evolve(reg, pulse, RunConfig(dt=cfg.dt / 10))) ** 2
        assert 0.5 * np.abs(p - q).sum() <= 1e-2

    def test_default_grid_puts_ramp_corners_on_step_boundaries(self):
        """The midpoint rule never straddles a kink of the default pulse."""
        cfg = RunConfig()
        steps = round(cfg.duration / cfg.dt)
        for corner in (RAMP_FRACTION * steps, (1.0 - RAMP_FRACTION) * steps):
            assert corner == pytest.approx(round(corner), abs=1e-9)

    def test_halving_dt_changes_little(self):
        rng = np.random.default_rng(51)
        reg = random_register(rng, 3, spread=8.0)
        pulse = build_adiabatic_pulse(audit(Graph.from_edges(3, [(0, 1)]), reg, 10.0), RunConfig())
        a = evolve(reg, pulse, RunConfig())
        b = evolve(reg, pulse, RunConfig(dt=RunConfig().dt / 2))
        assert fidelity(a, b) >= 1 - 1e-5

    def test_blockade_suppresses_double_excitation(self):
        cfg = RunConfig()
        rep = worked_report()
        pulse = build_adiabatic_pulse(rep, cfg)
        r_b = math.sqrt(rep.r_min_gap * rep.r_max)
        for frac in (0.62, 0.7):
            pair = Register(positions=((0.0, 0.0), (frac * r_b, 0.0)))
            psi = evolve(pair, pulse, cfg)
            assert abs(psi[0b11]) ** 2 < 0.05

    def test_path3_ground_state_is_the_mis(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        reg = Register(positions=((0.0, 0.0), (5.5, 0.0), (11.0, 0.0)))
        rep = audit(g, reg, 10.0)
        assert rep.is_exact_ud
        pulse = build_adiabatic_pulse(rep, RunConfig())
        psi = evolve(reg, pulse, RunConfig())
        assert int(np.argmax(np.abs(psi) ** 2)) == 0b101
        ref = rk4_final_state(reg, pulse, RunConfig())
        assert int(np.argmax(np.abs(ref) ** 2)) == 0b101

    def test_qubit_cap(self):
        n = MAX_QUBITS + 1
        reg = Register(positions=tuple((5.0 * (q % 5), 5.0 * (q // 5)) for q in range(n)))
        pulse = build_adiabatic_pulse(audit(Graph.from_edges(n, []), reg, 10.0), RunConfig())
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"cap of {MAX_QUBITS}"):
                evolve(reg, pulse, RunConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 16  # raised before a 2^21 state (32 MB) existed


class TestSample:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_counts_match_a_scan_of_every_state(self, seed):
        """Keys, key order and int types as a comprehension over all 2^16 counts gives them."""
        rng = np.random.default_rng(100 + seed)
        amp = rng.normal(size=1 << 16) + 1j * rng.normal(size=1 << 16)
        psi = amp / np.linalg.norm(amp)
        p = np.abs(psi) ** 2
        raw = np.random.default_rng(seed).multinomial(200, p / p.sum())
        scanned = {int(i): int(c) for i, c in enumerate(raw) if c}
        out = sample(psi, 200, seed)
        assert out == scanned and list(out) == list(scanned)
        assert all(type(key) is int and type(count) is int for key, count in out.items())

    def test_point_mass(self):
        psi = np.array([1.0, 0, 0, 0], dtype=complex)
        out = sample(psi, shots=10, seed=0)
        assert out == {0: 10}

    def test_total_conserved(self):
        rng = np.random.default_rng(53)
        amp = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = amp / np.linalg.norm(amp)
        out = sample(psi, shots=137, seed=1)
        assert sum(out.values()) == 137

    def test_uniform_binomial_statistics(self):
        psi = np.full(4, 0.5, dtype=complex)
        out = sample(psi, shots=100_000, seed=2)
        sigma = math.sqrt(100_000 * 0.25 * 0.75)
        for k in range(4):
            assert abs(out[k] - 25_000) < 5 * sigma

    def test_deterministic_per_seed(self):
        psi = np.full(4, 0.5, dtype=complex)
        assert sample(psi, 50, seed=3) == sample(psi, 50, seed=3)
        assert sample(psi, 50, seed=3) != sample(psi, 50, seed=4)
