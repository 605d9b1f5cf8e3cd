"""Small graphs and pricing engines that several test modules build."""

from __future__ import annotations

import numpy as np

from qcbp.graphs import Graph, iter_bits
from qcbp.config import RunConfig
from qcbp.pricing import PricingEngine


def path3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def myciel(k: int) -> Graph:
    """DIMACS `myciel<k>`: K2 after k - 1 Mycielski steps, triangle-free with
    chromatic number k + 1. A step keeps the graph on vertices 0..n-1, adds a
    shadow n + v joined to v's neighbours, and one vertex joined to every
    shadow."""
    g = Graph.from_edges(2, [(0, 1)])
    for _ in range(k - 1):
        n = g.n
        edges = [(u, v) for u in range(n) for v in iter_bits(g.adj[u])]
        edges = [(u, v) for u, v in edges if u < v] + [(u, n + v) for u, v in edges]
        g = Graph.from_edges(2 * n + 1, edges + [(n + v, 2 * n) for v in range(n)])
    return g


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def exact_engine(**options) -> PricingEngine:
    return PricingEngine(RunConfig(sampler="exact_pricer", **options))


def stochastic_engine(seed: int = 0) -> PricingEngine:
    return PricingEngine(RunConfig(sampler="classical_stochastic", shots=40, seed=seed))
