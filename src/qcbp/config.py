"""The run's configuration: one frozen dataclass that every layer reads.

Its fields are the CLI flags and the config-file keys, the only values a run
may set. The device (its limits and its interaction coefficient C6), the
pulse's ramp and detuning sweep, the layout's unit-disk radius, loss weights,
descent schedule, restart count and iteration cap, and column generation's
round cap are module constants of the layers that use them. The pulse's
duration, PULSE_DURATION_US, is one here, beside the MAX_STEPS cap that `dt`
is checked against. Every type and range is checked when the config is
built, and each message names its field.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields, replace

PULSE_DURATION_US = 3.0  # the adiabatic pulse's length, which `build_adiabatic_pulse` reads
MAX_STEPS = 100_000  # per pulse; evolve's per-step tables take ~32 B a step at any register size


@dataclass(frozen=True)
class RunConfig:
    sampler: str = "emulated_qaa"  # emulated_qaa | classical_stochastic | exact_pricer
    shots: int = 200
    seed: int = 0
    node_budget: int = 1000
    # us; 900 steps. Infidelity against RK4: <= 1.1e-6 (RK4 at 1e-4 us) on criterion
    # 5's registers (n <= 4, 6-12 um spread), up to 3.3e-5 (RK4 at 2e-5 us) on the
    # compact 6 um registers of random_ud_graph(6, seed, box=25). TVD <= 3.1e-3 vs 1e-3.
    dt: float = 1 / 300

    def __post_init__(self) -> None:
        if self.sampler not in ("emulated_qaa", "classical_stochastic", "exact_pricer"):
            raise ValueError(f"unknown sampler kind {self.sampler!r}")
        # each number by its field type (numpy's pass); a bool is an Integral, but no field is a flag
        kinds = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number")}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in kinds and (isinstance(value, bool) or not isinstance(value, kinds[f.type][0])):
                raise ValueError(f"{f.name} must be {kinds[f.type][1]}, got {value!r}")
        for name in ("shots", "node_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if isinstance(self.dt, int) and abs(self.dt) > sys.float_info.max:  # math.isfinite would overflow
            raise ValueError(f"dt must be finite, got an integer of {self.dt.bit_length()} bits")
        if not math.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {self.dt!r}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        # as round(steps) > MAX_STEPS (MAX_STEPS is even), with no round() to overflow at inf
        steps = PULSE_DURATION_US / self.dt
        if steps > MAX_STEPS + 0.5:
            raise ValueError(f"dt makes {steps:.0f} steps of the {PULSE_DURATION_US} us pulse, above {MAX_STEPS}: "
                             f"evolve's per-step tables would take about {steps * 32 / 1e9:.2g} GB")

    # The benchmark harness seeds each solve's engine through `sampler_config`
    # and passes `solver_config()` beside it, which differs only in its seed.
    def sampler_config(self, seed: int | None = None) -> RunConfig:
        """This config, with `seed` as its sampler seed when one is given."""
        return self if seed is None else replace(self, seed=seed)

    def solver_config(self) -> RunConfig:
        return self
