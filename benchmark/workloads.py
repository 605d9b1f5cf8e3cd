"""Benchmark workloads: the instances each one solves, made from the seed.

Each workload fixes its generator parameters and its sampler here; the seed
only picks the graphs. The solver sees nothing but those graphs: the pricing
engine seeds come from the instance index, as in `qcbp.bench.run_benchmark`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qcbp.bench import generate_dataset
from qcbp.graphs import Graph, parse_dimacs


@dataclass(frozen=True)
class Instance:
    name: str
    graph: Graph


@dataclass(frozen=True)
class Workload:
    name: str
    sampler: str
    # (seed, scratch directory, span factory) -> instances
    make: Callable[..., list[Instance]]


UD_NS = (8, 9, 10, 11, 12)
UD_PER_N = 3  # generate_dataset keeps round(3 * 0.5) = 2 of them unit-disk

# G(20, 0.3) only: a solve's cost follows its branch-and-bound node count,
# which is heavy-tailed on G(20, 0.5) and G(20, 0.7) (single solves of 4-11 s
# among a 0.2 s median), so no run that fits the time budget sums enough of
# them to repeat from seed to seed. n = 20 is the exact oracle's cap.
GNP_N = 20
GNP_P = 0.3
GNP_COUNT = 150


def make_ud(seed: int, work_dir: Path, span=lambda name: nullcontext()) -> list[Instance]:
    """`generate_dataset` graphs: per size, two unit-disk and one perturbed."""
    with span("bench.generate_dataset"):
        records = generate_dataset(work_dir, ns=UD_NS, per_n=UD_PER_N, ud_fraction=0.5, seed=seed)
    return [Instance(r.instance, parse_dimacs((work_dir / r.graph_file).read_text()))
            for r in records]


def make_gnp(seed: int, work_dir: Path, span=lambda name: nullcontext()) -> list[Instance]:
    """G(20, 0.3); instance k draws its edges in i < j order from
    `default_rng([seed, 20, k])`."""
    out = []
    for k in range(GNP_COUNT):
        rng = np.random.default_rng([seed, GNP_N, k])
        edges = [(i, j) for i in range(GNP_N) for j in range(i + 1, GNP_N) if rng.random() < GNP_P]
        out.append(Instance(f"g{GNP_N}_p{GNP_P}_{k:03d}", Graph.from_edges(GNP_N, edges)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ud_qaa", "emulated_qaa", make_ud),
        Workload("gnp_exact", "exact_pricer", make_gnp),
    )
}
