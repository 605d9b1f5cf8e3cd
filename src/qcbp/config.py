"""The run's configuration: one frozen dataclass that every layer reads.

Its fields are the CLI flags and the config-file keys, and they are the only
values a run may set; device limits, the pulse ramp, the layout's loss
weights and descent schedule are module constants of the layers that use
them. Every type and range is checked when the config is built, and each
message names its field.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields, replace

# Interaction coefficient in rad * um^6 / us, sized so that a blockade radius
# of sqrt(43.5) um corresponds to a 10.66 rad/us Rabi frequency.
DEFAULT_C6 = 877_455.0
MAX_STEPS = 100_000  # per pulse; evolve's per-step tables take ~32 B a step at any register size
MAX_EMBED_RESTARTS = 1000  # the layout descent holds every restart at once, ~38 KB each at 20 atoms
# Pricing registers are laid out against a tighter unit-disk radius than the
# 10 um hardware maximum, so every target edge sits deep inside the blockade
# (a 6 um edge has ~19 rad/us of interaction, above the final detuning).
COMPACT_REGISTER_RADIUS_UM = 6.0
MAX_ITERATIONS = 50  # pricing rounds per column-generation run before it stops uncertified


@dataclass(frozen=True)
class RunConfig:
    sampler: str = "emulated_qaa"  # emulated_qaa | classical_stochastic | exact_pricer
    shots: int = 200
    seed: int = 0
    node_budget: int = 1000
    hcg_max_iterations: int = MAX_ITERATIONS
    # us; 900 steps. Infidelity against RK4: <= 1.1e-6 (RK4 at 1e-4 us) on criterion
    # 5's registers (n <= 4, 6-12 um spread), up to 3.3e-5 (RK4 at 2e-5 us) on the
    # compact 6 um registers of random_ud_graph(6, seed, box=25). TVD <= 3.1e-3 vs 1e-3.
    dt: float = 1 / 300
    c6: float = DEFAULT_C6
    duration: float = 3.0  # us
    delta_start: float = -15.0
    delta_end: float = 15.0
    register_radius: float = COMPACT_REGISTER_RADIUS_UM  # um, the layout's unit-disk radius
    embed_iterations: int = 3000
    embed_restarts: int = 5

    def __post_init__(self) -> None:
        if self.sampler not in ("emulated_qaa", "classical_stochastic", "exact_pricer"):
            raise ValueError(f"unknown sampler kind {self.sampler!r}")
        # each number by its field type (numpy's pass); a bool is an Integral, but no field is a flag
        kinds = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number")}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in kinds and (isinstance(value, bool) or not isinstance(value, kinds[f.type][0])):
                raise ValueError(f"{f.name} must be {kinds[f.type][1]}, got {value!r}")
        for name in ("shots", "node_budget", "hcg_max_iterations", "embed_iterations", "embed_restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("dt", "c6", "duration", "delta_start", "delta_end", "register_radius"):
            value = getattr(self, name)
            if isinstance(value, int) and abs(value) > sys.float_info.max:  # math.isfinite would overflow
                raise ValueError(f"{name} must be finite, got an integer of {value.bit_length()} bits")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value <= 0 and name not in ("delta_start", "delta_end"):
                raise ValueError(f"{name} must be positive, got {value!r}")
        steps = round(self.duration / self.dt)
        if steps > MAX_STEPS:
            raise ValueError(f"duration / dt is {steps} steps, above {MAX_STEPS}: evolve's per-step "
                             f"tables would take about {steps * 32 / 1e9:.2g} GB")
        if self.embed_restarts > MAX_EMBED_RESTARTS:
            raise ValueError(f"embed_restarts is {self.embed_restarts}, above {MAX_EMBED_RESTARTS}: the layout "
                             f"descent would hold about {self.embed_restarts * 38e3 / 1e9:.2g} GB at 20 atoms")

    # The benchmark harness seeds each solve's engine through `sampler_config`
    # and passes `solver_config()` beside it, which differs only in its seed.
    def sampler_config(self, seed: int | None = None) -> RunConfig:
        """This config, with `seed` as its sampler seed when one is given."""
        return self if seed is None else replace(self, seed=seed)

    def solver_config(self) -> RunConfig:
        return self
