"""Quantum-classical branch-and-price vertex coloring at desk scale.

Solves graph coloring through a set-partitioning master problem whose pricing
step samples independent sets from an emulated neutral-atom adiabatic
evolution, safeguarded by an exact classical pricer.
"""

from .bench import generate_dataset, run_benchmark
from .bnp import solve_qcbp
from .chromatic import exact_chromatic_number
from .config import RunConfig
from .embedding import Register, audit, embed
from .emulator import PulseSchedule, build_adiabatic_pulse, evolve, sample
from .graphs import Graph, parse_dimacs, random_ud_graph
from .hcg import run_hcg
from .pricing import PricingEngine, exact_mwis
from .rmp import ColumnPool, RmpModel, solve_rmp

__all__ = [
    "ColumnPool",
    "Graph",
    "PricingEngine",
    "PulseSchedule",
    "Register",
    "RmpModel",
    "RunConfig",
    "audit",
    "build_adiabatic_pulse",
    "embed",
    "evolve",
    "exact_chromatic_number",
    "exact_mwis",
    "generate_dataset",
    "parse_dimacs",
    "random_ud_graph",
    "run_benchmark",
    "run_hcg",
    "sample",
    "solve_qcbp",
    "solve_rmp",
]
__version__ = "0.1.0"
