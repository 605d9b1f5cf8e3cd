import math

import numpy as np
import pytest

from qcbp.bounds import CEIL_TOL, spectral_lb
from qcbp.chromatic import exact_chromatic_number
from qcbp.graphs import Graph

from builders import complete, cycle, random_graph


class TestAdjacencySpectrum:
    def test_single_edge(self):
        eig = np.linalg.eigvalsh(Graph.from_edges(2, [(0, 1)]).adjacency_matrix())
        assert np.allclose(eig, [-1.0, 1.0], atol=1e-10)

    def test_edgeless(self):
        eig = np.linalg.eigvalsh(Graph.from_edges(3, []).adjacency_matrix())
        assert np.allclose(eig, 0.0, atol=1e-12)

    def test_c5_closed_form(self):
        # Eigenvalues of a cycle are 2*cos(2*pi*k/n).
        expected = sorted(2 * math.cos(2 * math.pi * k / 5) for k in range(5))
        eig = np.linalg.eigvalsh(cycle(5).adjacency_matrix())
        assert np.allclose(eig, expected, atol=1e-9)

    def test_trace_and_energy(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            g = random_graph(int(rng.integers(2, 13)), rng.uniform(0.1, 0.9), rng)
            eig = np.linalg.eigvalsh(g.adjacency_matrix())
            assert abs(eig.sum()) < 1e-8
            assert abs((eig**2).sum() - 2 * g.edge_count) < 1e-6


class TestSpectralLb:
    def test_k4(self):
        b = spectral_lb(complete(4))
        assert abs(b - 4.0) < 1e-8
        assert math.ceil(b - CEIL_TOL) == 4

    def test_edgeless(self):
        assert spectral_lb(Graph.from_edges(5, [])) == 1.0

    def test_c5_hoffman(self):
        b = spectral_lb(cycle(5))
        phi = (1 + math.sqrt(5)) / 2
        assert abs(b - (1 + 2 / phi)) < 1e-8
        assert math.ceil(b - CEIL_TOL) == 3 == exact_chromatic_number(cycle(5))

    def test_hoffman_exact_on_cliques(self):
        for n in range(2, 9):
            b = spectral_lb(complete(n))
            assert abs(b - n) < 1e-8
            assert math.ceil(b - CEIL_TOL) == n

    def test_soundness_against_exact_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            g = random_graph(n, rng.uniform(0.0, 1.0), rng)
            assert math.ceil(spectral_lb(g) - CEIL_TOL) <= exact_chromatic_number(g)

    def test_fields_at_least_one(self):
        # the bound is at least 1, on edgeless graphs too
        rng = np.random.default_rng(13)
        for _ in range(50):
            g = random_graph(int(rng.integers(1, 9)), rng.uniform(0, 1), rng)
            assert spectral_lb(g) >= 1.0

    def test_keep_bounds_the_induced_subgraph_bitwise(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            g = random_graph(int(rng.integers(1, 13)), rng.uniform(0, 1), rng)
            keep = int(rng.integers(1, 1 << g.n))
            assert spectral_lb(g, keep) == spectral_lb(g.induced_subgraph(keep))
        assert spectral_lb(cycle(5), cycle(5).full_mask) == spectral_lb(cycle(5))

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="empty vertex set"):
            spectral_lb(cycle(5), 0)
