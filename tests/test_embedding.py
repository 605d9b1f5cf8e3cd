import math

import numpy as np
import pytest

import qcbp.embedding
from qcbp.embedding import (
    UD_RADIUS_UM,
    EmbeddingError,
    Register,
    _descend,
    _project,
    audit,
    embed,
)
from qcbp.graphs import Graph, pairwise_distances, random_ud_graph

from builders import complete, quick_layout, wide_layout


@pytest.fixture
def fast(monkeypatch) -> None:
    """A 10 um layout of 2 restarts of at most 600 iterations."""
    quick_layout(monkeypatch, iterations=600, restarts=2)
    wide_layout(monkeypatch)


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

    def test_register_size_must_match_the_graph(self):
        with pytest.raises(ValueError, match="register has 2 atoms for a 3-vertex graph"):
            audit(complete(3), register_from([(0, 0), (5, 0)]), ud_radius=10)

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
    def test_single_vertex(self, fast):
        reg = embed(Graph.from_edges(1, []), seed=0)
        assert reg.n == 1

    def test_k2_edge_length_window(self, fast):
        reg = embed(complete(2), seed=0)
        d = float(np.hypot(*(np.subtract(reg.positions[0], reg.positions[1]))))
        assert 4.0 - 1e-9 <= d <= 10.0 + 1e-6

    def test_k5_audit_consistent_with_distances(self, fast):
        reg = embed(complete(5), seed=1)
        rep = audit(complete(5), reg, ud_radius=10)
        dist = pairwise_distances(reg.as_array())
        all_within = all(
            dist[u, v] <= 10 for u in range(5) for v in range(u + 1, 5)
        )
        assert rep.is_exact_ud == all_within

    def test_deterministic(self, fast):
        g, _ = random_ud_graph(7, seed=2, radius=10, box=25)
        assert embed(g, seed=5) == embed(g, seed=5)

    def test_hard_constraints_hold(self, fast):
        rng = np.random.default_rng(41)
        for _ in range(6):
            n = int(rng.integers(2, 10))
            g, _ = random_ud_graph(n, seed=int(rng.integers(1e6)), radius=10, box=30)
            reg = embed(g, seed=int(rng.integers(1e6)))
            dist = pairwise_distances(reg.as_array())
            np.fill_diagonal(dist, np.inf)
            assert dist.min() >= 4.0 - 1e-9
            centroid = reg.as_array().mean(axis=0)
            assert np.sqrt(((reg.as_array() - centroid) ** 2).sum(axis=1)).max() <= 50 + 1e-9

    def test_ud_instances_embed_exactly(self, monkeypatch):
        # Unit-disk graphs at desk scale should come back with no discrepancies.
        quick_layout(monkeypatch, iterations=1500, restarts=3)
        wide_layout(monkeypatch)
        hits = 0
        for seed in range(4):
            g, _ = random_ud_graph(6, seed=seed, radius=10, box=22)
            reg = embed(g, seed=seed)
            if audit(g, reg, 10.0).is_exact_ud:
                hits += 1
        assert hits >= 3

    def test_default_params_exact_on_random_ud_graphs(self, monkeypatch):
        # The batch stops at the first zero-loss restart, whose layout is exact.
        # Radius and box are `generate_dataset`'s defaults.
        wide_layout(monkeypatch)
        rng = np.random.default_rng(42)
        for i in range(28):
            n = 6 + i % 7
            g, _ = random_ud_graph(n, seed=int(rng.integers(1e6)), radius=10, box=40)
            reg = embed(g, seed=int(rng.integers(1e6)))
            assert audit(g, reg, 10.0).is_exact_ud, (n, i)

    def test_star_gets_fewest_discrepancies_among_restarts(self):
        # K_{1,7} is no unit-disk graph: at most five points within the radius
        # of a hub can be pairwise farther apart than the radius.
        star = Graph.from_edges(8, [(0, v) for v in range(1, 8)])
        reg = embed(star, seed=3)
        assert reg == embed(star, seed=3)
        keys = []
        for raw in _descend(star, 3):
            rep = audit(star, register_from(_project(raw)), UD_RADIUS_UM)
            keys.append((len(rep.missing_edges) + len(rep.extra_edges), len(rep.extra_edges)))
        rep = audit(star, reg, UD_RADIUS_UM)
        assert (len(rep.missing_edges) + len(rep.extra_edges), len(rep.extra_edges)) == min(keys)
        assert min(keys)[0] > 0

    def test_ranking_stops_at_the_first_exact_restart(self, monkeypatch):
        # No later restart ranks before one with no missing or extra edge, so
        # an exact restart 0 is the only one projected and audited.
        g, _ = random_ud_graph(6, seed=1, radius=6, box=15)
        first = register_from(_project(_descend(g, 1)[0]))
        assert audit(g, first, UD_RADIUS_UM).is_exact_ud
        audits = []
        real_audit = qcbp.embedding.audit
        monkeypatch.setattr(qcbp.embedding, "audit", lambda *args: audits.append(args) or real_audit(*args))
        assert embed(g, seed=1) == first
        assert len(audits) == 1

    def test_stalled_descent_stops_before_the_cap(self, monkeypatch):
        # A hub of 7 leaves has no exact layout at 6 um: its leaves would need
        # pairwise distances over 6 um within 6 um of the hub. The best loss
        # stalls long before 3000 iterations, so a larger cap changes nothing.
        star = Graph.from_edges(8, [(0, v) for v in range(1, 8)])
        assert qcbp.embedding.EMBED_ITERATIONS == 3000
        reg = embed(star, seed=3)
        assert not audit(star, reg, UD_RADIUS_UM).is_exact_ud
        monkeypatch.setattr(qcbp.embedding, "EMBED_ITERATIONS", 20000)
        assert reg == embed(star, seed=3)

    def test_every_restart_infeasible(self, monkeypatch, fast):
        def infeasible(pos):
            raise EmbeddingError("coincident atoms cannot be separated by rescaling")

        monkeypatch.setattr(qcbp.embedding, "_project", infeasible)
        with pytest.raises(EmbeddingError, match="all 2 restarts infeasible: coincident atoms"):
            embed(complete(3), seed=0)


class TestEmbedParams:
    """The layout at the descent's least budget."""

    def test_range_edges_accepted(self, monkeypatch):
        # One restart of one iteration still lays out a register that
        # `Register` accepts, at any positive radius.
        quick_layout(monkeypatch, iterations=1, restarts=1)
        for radius in (1e-3, 1e3):
            wide_layout(monkeypatch, radius)
            assert embed(complete(4)).n == 4
