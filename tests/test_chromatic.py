import itertools

import numpy as np
import pytest

from qcbp.chromatic import exact_chromatic_number, exact_coloring, greedy_coloring
from qcbp.graphs import Graph

from builders import complete, cycle


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def brute_force_colorable(g: Graph, k: int) -> bool:
    for assign in itertools.product(range(k), repeat=g.n):
        if all(assign[u] != assign[v] for u, v in g.edges()):
            return True
    return False


def assert_proper(g: Graph, colors: list[int], k: int) -> None:
    assert len(colors) == g.n
    assert max(colors) + 1 <= k
    for u, v in g.edges():
        assert colors[u] != colors[v]


class TestExactChromatic:
    def test_k4(self):
        assert exact_chromatic_number(complete(4)) == 4

    def test_c5_no_two_coloring(self):
        g = cycle(5)
        assert not brute_force_colorable(g, 2)
        assert brute_force_colorable(g, 3)
        assert exact_chromatic_number(g) == 3

    def test_petersen(self):
        g = petersen()
        assert not brute_force_colorable(g, 2)
        chi, colors = exact_coloring(g)
        assert chi == 3
        assert_proper(g, colors, 3)

    def test_edgeless(self):
        assert exact_chromatic_number(Graph.from_edges(6, [])) == 1
        assert exact_coloring(Graph.from_edges(6, [])) == (1, [0] * 6)

    def test_single_vertex(self):
        assert exact_chromatic_number(Graph.from_edges(1, [])) == 1

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            exact_chromatic_number(Graph.from_edges(21, []))

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.uniform(0.1, 0.9)]
            g = Graph.from_edges(n, edges)
            chi, colors = exact_coloring(g)
            assert_proper(g, colors, chi)
            assert brute_force_colorable(g, chi)
            assert chi == 1 or not brute_force_colorable(g, chi - 1)

    def test_greedy_is_proper(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            g = Graph.from_edges(n, edges)
            colors = greedy_coloring(g)
            assert_proper(g, colors, max(colors) + 1)
