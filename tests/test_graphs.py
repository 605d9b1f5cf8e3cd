import math

import numpy as np
import pytest

from qcbp.bench import PositionRecord, generate_dataset, parse_csv
from qcbp.graphs import (
    Graph,
    expand_mask,
    flip_random_pairs,
    iter_bits,
    mask_of,
    mask_sum,
    pairwise_distances,
    parse_dimacs,
    random_ud_graph,
    restrict_mask,
)

from builders import complete, path3, random_graph
from oracles import is_maximal_independent


class TestParseDimacs:
    def test_path_graph(self):
        g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3")
        assert g.n == 3
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_edgeless(self):
        g = parse_dimacs("p edge 2 0")
        assert g.n == 2 and g.edge_count == 0

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_dimacs("p edge 2 1\ne 1 3")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            parse_dimacs("p edge 2 1\ne 1 1")

    @pytest.mark.parametrize("edge", ["e 1 x", "e 1.0 2", "e two 1"])
    def test_non_integer_endpoint_names_its_line(self, edge):
        with pytest.raises(ValueError, match=f"line 3: malformed edge line '{edge}'"):
            parse_dimacs(f"p edge 2 1\nc comment\n{edge}\n")

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_dimacs("p vertex 2 0")

    def test_duplicate_edges_collapse(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 1\ne 1 2")
        assert g.edge_count == 1

    def test_comments_ignored(self):
        g = parse_dimacs("c a comment\np edge 2 1\ne 1 2")
        assert g.edge_count == 1

    def test_roundtrip(self):
        g = path3()
        assert parse_dimacs(g.to_dimacs()) == g


class TestIndependence:
    def test_path_endpoints(self):
        assert path3().is_independent(mask_of([0, 2]))

    def test_adjacent_pair(self):
        assert not path3().is_independent(mask_of([0, 1]))

    def test_empty_set_vacuous(self):
        assert path3().is_independent(0)
        assert complete(4).is_independent(0)

    def test_maximal_path_endpoints(self):
        assert is_maximal_independent(path3(), mask_of([0, 2]))

    def test_single_endpoint_not_maximal(self):
        assert not is_maximal_independent(path3(), mask_of([0]))

    def test_edgeless_full_set_maximal(self):
        g = Graph.from_edges(3, [])
        assert is_maximal_independent(g, mask_of([0, 1, 2]))

    def test_singletons_always_independent(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(8, 0.4, rng)
            for v in range(g.n):
                assert g.is_independent(1 << v)

    def test_maximal_implies_independent_sampled(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 10_000:
            g = random_graph(10, rng.uniform(0.1, 0.7), rng)
            for _ in range(50):
                s = int(rng.integers(0, 1 << g.n))
                if is_maximal_independent(g, s):
                    assert g.is_independent(s)
                checked += 1


class TestInducedSubgraph:
    def test_path_minus_middle(self):
        keep = mask_of([0, 2])
        sub = path3().induced_subgraph(keep)
        assert sub.n == 2 and sub.edge_count == 0
        assert [expand_mask(1 << i, keep) for i in range(sub.n)] == [1 << 0, 1 << 2]

    def test_k4_minus_vertex_is_k3(self):
        sub = complete(4).induced_subgraph(mask_of([0, 2, 3]))
        assert sub == complete(3)

    def test_identity(self):
        g = path3()
        sub = g.induced_subgraph(g.full_mask)
        assert sub == g
        assert all(restrict_mask(1 << v, g.full_mask) == 1 << v for v in range(3))

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            path3().induced_subgraph(0)

    def test_chained_removal_equals_one_shot(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = random_graph(9, 0.4, rng)
            drop1 = int(rng.integers(1, g.full_mask))
            keep1 = g.full_mask ^ (drop1 & (g.full_mask >> 1))  # keep at least one vertex
            sub1 = g.induced_subgraph(keep1)
            keep2_local = (1 << sub1.n) - 1
            drop2_local = int(rng.integers(0, keep2_local))
            if keep2_local ^ drop2_local == 0:
                continue
            sub2 = sub1.induced_subgraph(keep2_local ^ drop2_local)
            keep_final = expand_mask(keep2_local ^ drop2_local, keep1)
            direct = g.induced_subgraph(keep_final)
            assert sub2 == direct


def edge_matrix(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix, one edge at a time."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


class TestMaskPrimitives:
    """Each per-mask primitive against the renumbered induced subgraph."""

    @staticmethod
    def graphs_and_masks(seed: int, count: int = 100):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            g = random_graph(int(rng.integers(1, 13)), rng.uniform(0.0, 1.0), rng)
            yield g, int(rng.integers(1, 1 << g.n))

    def test_adjacency_matrix_is_the_induced_subgraphs(self):
        for g, keep in self.graphs_and_masks(20):
            assert np.array_equal(g.adjacency_matrix(keep), edge_matrix(g.induced_subgraph(keep)))
        g = random_graph(64, 0.5, np.random.default_rng(21))
        assert np.array_equal(g.adjacency_matrix(), edge_matrix(g))

    def test_edges_within_counts_the_induced_subgraphs(self):
        for g, keep in self.graphs_and_masks(22):
            assert g.edges_within(keep) == g.induced_subgraph(keep).edge_count
            assert g.edges_within(keep) == sum(1 for u, v in g.edges() if keep >> u & keep >> v & 1)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="empty vertex set"):
            path3().adjacency_matrix(0)
        assert path3().edges_within(0) == 0

    def test_grow_adds_in_order_what_stays_independent(self):
        for g, keep in self.graphs_and_masks(23):
            order = list(iter_bits(keep))[::-1]
            grown = g.grow(0, order)
            assert g.is_independent(grown) and grown & ~keep == 0
            assert all(grown >> v & 1 or g.adj[v] & grown for v in order)
            assert grown >> order[0] & 1
            assert g.grow(grown, order) == grown

    def test_mask_sum_in_vertex_order(self):
        values = [0.1 * v for v in range(12)]
        for g, keep in self.graphs_and_masks(24):
            assert mask_sum(keep, values) == sum(values[v] for v in iter_bits(keep))
        assert mask_sum(0, values) == 0.0


class TestRandomUdGraph:
    def test_single_vertex(self):
        g, pos = random_ud_graph(1, seed=0)
        assert g.n == 1 and g.edge_count == 0 and pos.shape == (1, 2)

    def test_deterministic(self):
        g1, p1 = random_ud_graph(10, seed=5, radius=10, box=40)
        g2, p2 = random_ud_graph(10, seed=5, radius=10, box=40)
        assert g1 == g2
        assert np.array_equal(p1, p2)

    def test_edges_match_distance_threshold(self):
        g, pos = random_ud_graph(12, seed=7, radius=10, box=40)
        dist = pairwise_distances(pos)
        assert np.array_equal(g.adjacency_matrix() > 0, (dist <= 10) & ~np.eye(12, dtype=bool))

    def test_min_spacing_respected(self):
        _, pos = random_ud_graph(15, seed=3, radius=10, box=40)
        dist = pairwise_distances(pos)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 4.0

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("box", [0.0, -40.0, math.nan, math.inf])
    def test_box_must_be_positive(self, n, box):
        with pytest.raises(ValueError, match="box must be positive"):
            random_ud_graph(n, seed=0, box=box)

    def test_infeasible_box_raises(self):
        with pytest.raises(RuntimeError):
            random_ud_graph(30, seed=0, radius=10, box=10)


class TestFlipRandomPairs:
    def test_changes_between_one_and_three_pairs(self):
        for seed in range(20):
            g, _ = random_ud_graph(10, seed=seed)
            h = flip_random_pairs(g, seed=seed + 100)
            diff = sum((g.adj[v] ^ h.adj[v]).bit_count() for v in range(g.n)) // 2
            assert 1 <= diff <= 3

    def test_two_vertices_flip_their_one_pair(self):
        # This seed draws k >= 2, more flips than a 2-vertex graph has pairs.
        assert np.random.default_rng(502002).integers(1, 4) >= 2
        for g in (Graph.from_edges(2, []), Graph.from_edges(2, [(0, 1)])):
            h = flip_random_pairs(g, seed=502002)
            assert h.edge_count == 1 - g.edge_count

    def test_one_vertex_comes_back_equal(self):
        g = Graph.from_edges(1, [])
        assert flip_random_pairs(g, seed=3) == g

    def test_deterministic(self):
        g, _ = random_ud_graph(10, seed=1)
        assert flip_random_pairs(g, seed=9) == flip_random_pairs(g, seed=9)


class TestMaskHelpers:
    def test_roundtrip(self):
        keep = mask_of([2, 5, 9])
        m = mask_of([2, 9])
        local = restrict_mask(m, keep)
        assert local == 0b101
        assert expand_mask(local, keep) == m

    def test_restrict_inverts_expand(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            keep = int(rng.integers(0, 1 << 20))
            x = int(rng.integers(0, 1 << keep.bit_count())) if keep else 0
            assert restrict_mask(expand_mask(x, keep), keep) == x
            assert expand_mask(x, keep) & ~keep == 0

    def test_iter_bits(self):
        assert list(iter_bits(0b10110)) == [1, 2, 4]


class TestPositionsCsv:
    def test_roundtrip(self, tmp_path):
        (rec,) = generate_dataset(tmp_path, ns=(6,), per_n=1, seed=4)
        _, pos = random_ud_graph(rec.n, rec.seed)
        back = parse_csv(PositionRecord, (tmp_path / rec.positions_file).read_text())
        assert [r.vertex for r in back] == list(range(6))
        assert np.array_equal([(r.x_um, r.y_um) for r in back], pos)
