import math

import numpy as np
import pytest

from qcbp.config import MAX_EMBED_RESTARTS, RunConfig
from qcbp.embedding import (
    EmbeddingError,
    Register,
    _descend,
    _project,
    audit,
    embed,
)
from qcbp.graphs import Graph, pairwise_distances, random_ud_graph

from builders import complete


FAST = RunConfig(register_radius=10.0, embed_iterations=600, embed_restarts=2)


def register_from(pos) -> Register:
    return Register(positions=tuple((float(x), float(y)) for x, y in pos))


class TestRegister:
    def test_spacing_enforced(self):
        with pytest.raises(EmbeddingError, match="spacing"):
            register_from([(0, 0), (2, 0)])

    def test_disk_enforced(self):
        with pytest.raises(EmbeddingError, match="centroid"):
            register_from([(0, 0), (120, 0)])

    def test_valid(self):
        reg = register_from([(0, 0), (5, 0)])
        assert reg.n == 2

    def test_empty_rejected(self):
        with pytest.raises(EmbeddingError, match="^a register needs at least one atom$"):
            Register(positions=())

    @pytest.mark.parametrize("positions, atom", [
        (((math.nan, 0.0), (0.0, 0.0)), 0),
        (((0.0, 0.0), (0.0, math.inf)), 1),
        (((0.0, 0.0), (-math.inf, 5.0)), 1),
        (((math.nan, math.nan),), 0),
    ])
    def test_non_finite_coordinate_rejected(self, positions, atom):
        with pytest.raises(EmbeddingError, match=rf"^atom {atom} has a non-finite coordinate"):
            Register(positions=positions)


class TestAudit:
    def test_worked_distance_bounds(self):
        # One edge at 5.0 um, both non-edges at 8.7 um.
        g = Graph.from_edges(3, [(0, 1)])
        y = math.sqrt(8.7**2 - 2.5**2)
        reg = register_from([(0, 0), (5, 0), (2.5, y)])
        rep = audit(g, reg, ud_radius=10.0)
        assert rep.r_max == pytest.approx(5.0)
        assert rep.r_min_gap == pytest.approx(8.7)
        assert math.sqrt(rep.r_min_gap * rep.r_max) == pytest.approx(6.6, abs=0.01)

    def test_exact_ud_from_generated_positions(self):
        for seed in range(5):
            g, pos = random_ud_graph(8, seed=seed, radius=10, box=25)
            rep = audit(g, register_from(pos), ud_radius=10)
            assert rep.is_exact_ud
            assert rep.missing_edges == () and rep.extra_edges == ()

    def test_missing_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        rep = audit(g, register_from([(0, 0), (12, 0)]), ud_radius=10)
        assert rep.missing_edges == ((0, 1),)
        assert not rep.is_exact_ud
        assert rep.r_max == pytest.approx(12.0)
        assert rep.r_min_gap is None

    def test_extra_edge(self):
        g = Graph.from_edges(2, [])
        rep = audit(g, register_from([(0, 0), (8, 0)]), ud_radius=10)
        assert rep.extra_edges == ((0, 1),)
        assert rep.r_max is None
        assert rep.r_min_gap == pytest.approx(8.0)

    def test_bounds_match_brute_force(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g, pos = random_ud_graph(n, seed=int(rng.integers(1e6)), radius=10, box=25)
            rep = audit(g, register_from(pos), ud_radius=10)
            dist = pairwise_distances(pos)
            edge_d = [dist[u, v] for u, v in g.edges()]
            nonedge_d = [
                dist[u, v]
                for u in range(n)
                for v in range(u + 1, n)
                if not g.adj[u] >> v & 1
            ]
            assert rep.r_max == (pytest.approx(max(edge_d)) if edge_d else None)
            assert rep.r_min_gap == (pytest.approx(min(nonedge_d)) if nonedge_d else None)

    def test_report_matches_a_loop_over_every_pair(self):
        # Pairs in (u, v) order with u < v as Python ints, and the distance
        # bounds as the very floats the loop finds, on layouts that miss
        # and add edges.
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            g, pos = random_ud_graph(n, seed=int(rng.integers(1e6)), radius=10, box=25)
            radius = float(rng.uniform(6.0, 14.0))
            dist = pairwise_distances(pos)
            pairs = [(u, v, float(dist[u, v]), bool(g.adj[u] >> v & 1))
                     for u in range(n) for v in range(u + 1, n)]
            rep = audit(g, register_from(pos), ud_radius=radius)
            assert rep.missing_edges == tuple((u, v) for u, v, d, e in pairs if e and d > radius)
            assert rep.extra_edges == tuple((u, v) for u, v, d, e in pairs if not e and d <= radius)
            assert all(type(x) is int for pair in rep.missing_edges + rep.extra_edges for x in pair)
            edge_d = [d for _, _, d, e in pairs if e]
            nonedge_d = [d for _, _, d, e in pairs if not e]
            assert rep.r_max == (max(edge_d) if edge_d else None)
            assert rep.r_min_gap == (min(nonedge_d) if nonedge_d else None)
            assert type(rep.r_max) in (float, type(None)) and type(rep.r_min_gap) in (float, type(None))


class TestEmbed:
    def test_single_vertex(self):
        reg = embed(Graph.from_edges(1, []), FAST, seed=0)
        assert reg.n == 1

    def test_k2_edge_length_window(self):
        reg = embed(complete(2), FAST, seed=0)
        d = float(np.hypot(*(np.subtract(reg.positions[0], reg.positions[1]))))
        assert 4.0 - 1e-9 <= d <= 10.0 + 1e-6

    def test_k5_audit_consistent_with_distances(self):
        reg = embed(complete(5), FAST, seed=1)
        rep = audit(complete(5), reg, ud_radius=10)
        dist = pairwise_distances(reg.as_array())
        all_within = all(
            dist[u, v] <= 10 for u in range(5) for v in range(u + 1, 5)
        )
        assert rep.is_exact_ud == all_within

    def test_deterministic(self):
        g, _ = random_ud_graph(7, seed=2, radius=10, box=25)
        assert embed(g, FAST, seed=5) == embed(g, FAST, seed=5)

    def test_hard_constraints_hold(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            n = int(rng.integers(2, 10))
            g, _ = random_ud_graph(n, seed=int(rng.integers(1e6)), radius=10, box=30)
            reg = embed(g, FAST, seed=int(rng.integers(1e6)))
            dist = pairwise_distances(reg.as_array())
            np.fill_diagonal(dist, np.inf)
            assert dist.min() >= 4.0 - 1e-9
            centroid = reg.as_array().mean(axis=0)
            assert np.sqrt(((reg.as_array() - centroid) ** 2).sum(axis=1)).max() <= 50 + 1e-9

    def test_ud_instances_embed_exactly(self):
        # Unit-disk graphs at desk scale should come back with no discrepancies.
        hits = 0
        for seed in range(4):
            g, _ = random_ud_graph(6, seed=seed, radius=10, box=22)
            reg = embed(g, RunConfig(register_radius=10.0, embed_iterations=1500, embed_restarts=3), seed=seed)
            if audit(g, reg, 10.0).is_exact_ud:
                hits += 1
        assert hits >= 3

    def test_default_params_exact_on_random_ud_graphs(self):
        # The batch stops at the first zero-loss restart, whose layout is exact.
        # Radius and box are `generate_dataset`'s defaults.
        rng = np.random.default_rng(42)
        for i in range(28):
            n = 6 + i % 7
            g, _ = random_ud_graph(n, seed=int(rng.integers(1e6)), radius=10, box=40)
            reg = embed(g, RunConfig(register_radius=10.0), seed=int(rng.integers(1e6)))
            assert audit(g, reg, 10.0).is_exact_ud, (n, i)

    def test_star_gets_fewest_discrepancies_among_restarts(self):
        # K_{1,7} is no unit-disk graph: at most five points within the radius
        # of a hub can be pairwise farther apart than the radius.
        star = Graph.from_edges(8, [(0, v) for v in range(1, 8)])
        config = RunConfig()
        reg = embed(star, config, seed=3)
        assert reg == embed(star, config, seed=3)
        keys = []
        for raw in _descend(star, config, 3):
            rep = audit(star, register_from(_project(raw)), config.register_radius)
            keys.append((len(rep.missing_edges) + len(rep.extra_edges), len(rep.extra_edges)))
        rep = audit(star, reg, config.register_radius)
        assert (len(rep.missing_edges) + len(rep.extra_edges), len(rep.extra_edges)) == min(keys)
        assert min(keys)[0] > 0

    def test_stalled_descent_stops_before_the_cap(self):
        # A hub of 7 leaves has no exact layout at 6 um: its leaves would need
        # pairwise distances over 6 um within 6 um of the hub. The best loss
        # stalls long before 3000 iterations, so a larger cap changes nothing.
        star = Graph.from_edges(8, [(0, v) for v in range(1, 8)])
        capped = RunConfig(embed_iterations=3000)
        loose = RunConfig(embed_iterations=20000)
        reg = embed(star, capped, seed=3)
        assert not audit(star, reg, capped.register_radius).is_exact_ud
        assert reg == embed(star, loose, seed=3)


class TestEmbedParams:
    """The layout's settings in `RunConfig`: `embed_iterations`,
    `embed_restarts` and `register_radius`."""

    @pytest.mark.parametrize("name", ["iterations", "restarts"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_count_below_one_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"embed_{name} must be >= 1"):
            RunConfig(**{f"embed_{name}": value})

    @pytest.mark.parametrize("value, reason", [
        (0.0, "positive"), (-5.0, "positive"), (math.nan, "finite"), (math.inf, "finite")])
    def test_radius_must_be_positive_and_finite(self, value, reason):
        with pytest.raises(ValueError, match=f"register_radius must be {reason}"):
            RunConfig(register_radius=value)

    def test_restarts_above_bound_rejected(self):
        # Only the config is built: no descent runs.
        with pytest.raises(ValueError, match=f"embed_restarts is {MAX_EMBED_RESTARTS + 1}, above"):
            RunConfig(embed_restarts=MAX_EMBED_RESTARTS + 1)

    def test_range_edges_accepted(self):
        # One restart of one iteration still lays out a register that
        # `Register` accepts, at any positive radius.
        for radius in (1e-3, 1e3):
            config = RunConfig(register_radius=radius, embed_iterations=1, embed_restarts=1)
            assert embed(complete(4), config).n == 4
