from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import qcbp.pricing
from qcbp.bnp import solve_qcbp
from qcbp.config import RunConfig
from qcbp.emulator import MAX_QUBITS
from qcbp.hcg import run_hcg
from qcbp.graphs import Graph, iter_bits, mask_of, random_ud_graph, restrict_mask
from qcbp.pricing import (
    IMPROVE_EPS,
    PricingEngine,
    PricingStats,
    clique_cover_weight,
    exact_mwis,
    greedy_columns,
    reduced_cost,
)
from qcbp.rmp import ColumnPool

from builders import complete, cycle, path3, quick_layout, random_graph, wide_layout
from oracles import brute_mwis, is_maximal_independent


@pytest.fixture
def fast(monkeypatch) -> RunConfig:
    """An emulated sampler of 100 shots at a 2e-3 us step, laid out against a
    10 um unit disk."""
    wide_layout(monkeypatch)
    return RunConfig(sampler="emulated_qaa", shots=100, seed=1, dt=2e-3)


class TestReducedCost:
    def test_unit_duals_pair(self):
        assert reduced_cost(mask_of([0, 1]), np.array([1.0, 1.0])) == pytest.approx(-1.0)

    def test_empty_set(self):
        assert reduced_cost(0, np.array([0.5])) == pytest.approx(1.0)

    def test_path3_endpoints(self):
        rc = reduced_cost(mask_of([0, 2]), np.array([0.6, 0.3, 0.6]))
        assert rc == pytest.approx(-0.2)


class TestExactMwis:
    def test_path3_unit_weights(self):
        assert exact_mwis(path3(), [1.0, 1.0, 1.0]) == mask_of([0, 2])

    def test_single_vertex(self):
        assert exact_mwis(Graph.from_edges(1, []), [5.0]) == 1

    def test_triangle_picks_heaviest(self):
        assert exact_mwis(complete(3), [0.2, 0.9, 0.5]) == mask_of([1])

    def test_nonpositive_weights_excluded(self):
        g = Graph.from_edges(3, [])
        assert exact_mwis(g, [1.0, -2.0, 0.0]) == mask_of([0])

    def test_all_nonpositive_returns_empty(self):
        assert exact_mwis(path3(), [-1.0, 0.0, -0.5]) == 0

    def test_tie_breaks_to_smallest_mask(self):
        assert exact_mwis(complete(3), [1.0, 1.0, 1.0]) == mask_of([0])

    def test_matches_enumeration(self):
        rng = np.random.default_rng(60)
        for _ in range(120):
            n = int(rng.integers(2, 13))
            g = random_graph(n, rng.uniform(0.1, 0.9), rng)
            w = rng.uniform(-0.2, 1.2, size=n)
            value, _ = brute_mwis(g, w)
            got = exact_mwis(g, w)
            assert g.is_independent(got)
            assert sum(w[v] for v in iter_bits(got)) == pytest.approx(value, abs=1e-9)

    def test_best_set_matches_enumeration_on_tied_weights(self):
        # Quarter weights sum exactly, so equal-weight sets are common and the
        # mask tie-break is exercised.
        rng = np.random.default_rng(64)
        for k in range(200):
            n = int(rng.integers(2, 13))
            g = random_graph(n, rng.uniform(0.1, 0.9), rng)
            w = rng.integers(-2, 6, size=n) / 4.0 if k % 2 else rng.uniform(-0.3, 1.3, size=n)
            assert exact_mwis(g, w) == brute_mwis(g, w)[1]


class TestCliqueCover:
    def test_bounds_the_heaviest_set(self):
        rng = np.random.default_rng(66)
        for k in range(150):
            n = int(rng.integers(1, 13))
            g = random_graph(n, rng.uniform(0.1, 0.9), rng)
            w = rng.uniform(0.0, 1.2, size=n)
            w[rng.random(n) < 0.2] = 0.0
            if k % 3 == 0:
                w = np.round(w * 4) / 4  # ties between weights
            cover = clique_cover_weight(g, w.tolist())
            assert brute_mwis(g, w)[0] - 1e-12 <= cover <= w.sum() + 1e-12

    def test_exact_on_cliques_and_edgeless_graphs(self):
        assert clique_cover_weight(complete(4), [0.2, 0.9, 0.0, 0.5]) == 0.9
        assert clique_cover_weight(Graph.from_edges(3, []), [0.5, 0.0, 0.25]) == 0.75

    def test_odd_hole_is_loose(self):
        # C5's cliques are its edges: three of them cover it, and its
        # heaviest independent sets are pairs
        assert clique_cover_weight(cycle(5), [0.5] * 5) == 1.5


class TestGreedyColumns:
    def test_matches_enumeration(self):
        # Every set is independent, maximal within `positive`, improving and
        # listed once; on at most 3 vertices every such set is listed.
        # Grown from given seeds, every set also contains one of them.
        rng = np.random.default_rng(66)
        small = seeded = 0
        for k in range(300):
            n = int(rng.integers(1, 10))
            g = random_graph(n, rng.uniform(0.1, 0.9), rng)
            positive = int(rng.integers(1, 1 << n))
            w = rng.integers(1, 5, size=n) / 4.0 if k % 2 else rng.uniform(0.05, 1.0, size=n)
            duals = np.where((positive >> np.arange(n)) & 1, w, 0.0)
            subsets = [s for s in range(1, 1 << n) if s & ~positive == 0 and g.is_independent(s)]
            cols = greedy_columns(g, positive, duals)
            assert len(set(cols)) == len(cols)
            for mask in cols:
                assert mask & ~positive == 0 and g.is_independent(mask)
                assert all(g.adj[v] & mask for v in iter_bits(positive & ~mask))
                assert reduced_cost(mask, duals) < -IMPROVE_EPS
            if positive.bit_count() <= 3:
                small += 1
                assert set(cols) == {
                    s for s in subsets
                    if all(g.adj[v] & s for v in iter_bits(positive & ~s))
                    and reduced_cost(s, duals) < -IMPROVE_EPS}
            # Seeded: every set grows from one of the given independent sets.
            seeds = [s for s in subsets if rng.random() < 0.3]
            cols = greedy_columns(g, positive, duals, seeds)
            assert len(set(cols)) == len(cols)
            for mask in cols:
                assert any(s & mask == s for s in seeds) and g.is_independent(mask)
                assert all(g.adj[v] & mask for v in iter_bits(positive & ~mask))
                assert reduced_cost(mask, duals) < -IMPROVE_EPS
            seeded += len(cols)
        assert small > 50 and seeded > 50

    def test_unseeded_output_includes_the_coloring_classes(self):
        # The first-fit coloring of `positive` in falling dual order (lower
        # index on ties), built here one vertex at a time: its classes
        # partition `positive`, and each one grown to a maximal set that is
        # improving is returned.
        rng = np.random.default_rng(67)
        offered = 0
        for _ in range(300):
            n = int(rng.integers(2, 13))
            g = random_graph(n, rng.uniform(0.1, 0.7), rng)
            positive = int(rng.integers(1, 1 << n))
            duals = np.where((positive >> np.arange(n)) & 1, rng.uniform(0.05, 1.0, size=n), 0.0)
            order = sorted(iter_bits(positive), key=lambda v: (-duals[v], v))
            classes: list[int] = []
            for v in order:
                fits = [i for i, c in enumerate(classes) if not any(g.adj[v] >> u & 1 for u in iter_bits(c))]
                if fits:
                    classes[fits[0]] |= 1 << v
                else:
                    classes.append(1 << v)
            assert sum(classes) == positive
            grown = []
            for c in classes:
                for v in order:
                    if g.is_independent(c | 1 << v):
                        c |= 1 << v
                grown.append(c)
            cols = greedy_columns(g, positive, duals)
            assert len(set(cols)) == len(cols)
            for mask in cols:
                assert mask & ~positive == 0 and g.is_independent(mask)
                assert all(g.adj[v] & mask for v in iter_bits(positive & ~mask))
            improving = {c for c in grown if reduced_cost(c, duals) < -IMPROVE_EPS}
            assert improving <= set(cols)
            offered += len(improving)
        assert offered > 100


def soundness_check(engine: PricingEngine, g: Graph, duals: np.ndarray, pool: ColumnPool):
    cols, stats = engine.sample_columns(g, g.full_mask, duals, pool.samples)
    assert len(set(cols)) == len(cols)
    for mask in cols:
        assert g.is_independent(mask)
        assert reduced_cost(mask, duals) < -IMPROVE_EPS
        assert mask not in pool.columns
        assert is_maximal_independent(g, mask)
    # a classical draw is maximal already, so the extension adds nothing
    assert stats.improving == stats.maximal == len(cols)
    # a mask with no edge draws nothing: its only maximal set needs no draw
    assert stats.shots == (engine.config.shots if g.edge_count else 0)
    return cols


class TestClassicalSampler:
    def test_soundness_bulk(self):
        rng = np.random.default_rng(61)
        cfg = RunConfig(sampler="classical_stochastic", shots=30, seed=0)
        for _ in range(150):
            n = int(rng.integers(2, 11))
            g = random_graph(n, rng.uniform(0.1, 0.8), rng)
            duals = rng.uniform(0.01, 1.5, size=n)
            pool = ColumnPool()
            soundness_check(PricingEngine(cfg), g, duals, pool)

    def test_deterministic(self):
        g = random_graph(8, 0.4, np.random.default_rng(62))
        duals = np.full(8, 0.9)
        out = []
        for _ in range(2):
            engine = PricingEngine(RunConfig(sampler="classical_stochastic", shots=40, seed=3))
            cols, _ = engine.sample_columns(g, g.full_mask, duals, {})
            out.append(cols)
        assert out[0] == out[1]

    def test_shot_accounting(self):
        g = random_graph(6, 0.4, np.random.default_rng(63))
        engine = PricingEngine(RunConfig(sampler="classical_stochastic", shots=25, seed=0))
        samples: dict[int, None] = {}
        _, first = engine.sample_columns(g, g.full_mask, np.full(6, 0.8), samples)
        # at duals of 0.15 no set of at most 6 vertices improves, so the memory
        # gives nothing and the pass draws again
        _, second = engine.sample_columns(g, g.full_mask, np.full(6, 0.15), samples)
        assert (first.shots, second.shots) == (25, 25)


class TestEmulatedSampler:
    def test_soundness_and_translation(self, monkeypatch, fast):
        quick_layout(monkeypatch)
        g, _ = random_ud_graph(7, seed=8, radius=10, box=25)
        sub_mask = mask_of([0, 2, 3, 4, 6])
        sub = g.induced_subgraph(sub_mask)
        duals = np.full(g.n, 0.9)
        pool = ColumnPool()
        engine = PricingEngine(fast)
        cols, stats = engine.sample_columns(g, sub_mask, duals, pool.samples)
        assert stats.shots == 100
        assert cols and stats.maximal <= stats.improving == len(cols)
        for mask in cols:
            assert mask & ~sub_mask == 0  # root mask stays inside the subproblem
            assert is_maximal_independent(sub, restrict_mask(mask, sub_mask))
            assert reduced_cost(mask, duals) < -IMPROVE_EPS
            assert mask not in pool.columns

    def test_extend_to_maximal_flag(self, monkeypatch):
        # Extension to a maximal set is no longer optional: on the full graph
        # every emulated column is a maximal independent set.
        quick_layout(monkeypatch)
        wide_layout(monkeypatch)
        g, _ = random_ud_graph(6, seed=10, radius=10, box=22)
        cfg = RunConfig(sampler="emulated_qaa", shots=80, seed=2, dt=2e-3)
        engine = PricingEngine(cfg)
        cols, _ = engine.sample_columns(g, g.full_mask, np.full(6, 0.9), {})
        assert cols and all(is_maximal_independent(g, mask) for mask in cols)

    def test_draw_reads_the_layout_radius_at_call_time(self, monkeypatch, fast):
        # `wide_layout` patches qcbp.embedding alone; the draw's audit sees it
        radii = []
        real_audit = qcbp.pricing.audit
        monkeypatch.setattr(qcbp.pricing, "audit", lambda g, reg, r: radii.append(r) or real_audit(g, reg, r))
        quick_layout(monkeypatch)
        PricingEngine(fast).sample_columns(cycle(5), 0b11111, [0.5] * 5, {})
        assert radii == [10.0]


class TestSampleMemory:
    def test_recalled_columns_are_sound_and_draw_nothing(self, monkeypatch, fast):
        evolved = []
        real_evolve = qcbp.pricing.evolve

        def counting(*args):
            evolved.append(args)
            return real_evolve(*args)

        monkeypatch.setattr(qcbp.pricing, "evolve", counting)
        g, _ = random_ud_graph(7, seed=8, radius=10, box=25)
        samples: dict[int, None] = {}
        engine = PricingEngine(fast)
        # At duals of 0.45 only sets of 3 or more improve; the drawn pairs are
        # remembered all the same.
        cols, first = engine.sample_columns(g, g.full_mask, np.full(g.n, 0.45), samples)
        assert first.shots == 100 and len(evolved) == 1
        assert len(samples) > len(cols)

        # At the next round's duals the pairs improve too, and come back from
        # the memory. The dual-positive mask leaves vertex 0 out, so a pair
        # such as {2, 4} is maximal there, while the first round extended it
        # to {0, 2, 4}.
        positive = mask_of([1, 2, 3, 4, 5, 6])
        duals = np.where([(positive >> v) & 1 for v in range(g.n)], 0.9, 0.0)
        cols, stats = engine.sample_columns(g, positive, duals, samples)
        assert mask_of([2, 4]) in cols and len(evolved) == 1
        assert (stats.shots, stats.distinct_bitstrings, stats.improving) == (0, 0, len(cols))
        assert len(set(cols)) == len(cols)
        sub = g.induced_subgraph(positive)
        for mask in cols:
            assert mask & ~positive == 0
            assert is_maximal_independent(sub, restrict_mask(mask, positive))
            assert reduced_cost(mask, duals) < -IMPROVE_EPS

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_maximal_count_does_not_depend_on_candidate_order(self, order, fast):
        # Without vertex 0, the remembered {0, 4} is recalled as {4}, which
        # extends to {2, 4}; the remembered {2, 4} is that column as drawn.
        # Either order logs one column, and it counts as maximal.
        g, _ = random_ud_graph(7, seed=8, radius=10, box=25)
        remembered = [mask_of([0, 4]), mask_of([2, 4])]
        samples = {remembered[i]: None for i in order}
        positive = mask_of([1, 2, 3, 4, 5, 6])
        duals = np.where([(positive >> v) & 1 for v in range(g.n)], 0.9, 0.0)
        cols, stats = PricingEngine(fast).sample_columns(g, positive, duals, samples)
        assert cols == [mask_of([2, 4])]
        assert (stats.shots, stats.improving, stats.maximal) == (0, 1, 1)

    def test_every_column_is_maximal_within_the_positive_mask(self):
        # Rounds of a column generation on random graphs: each round prices a
        # random dual-positive mask, so sets drawn on one mask come back cut
        # down to another, where many are not maximal. Recalled or drawn,
        # every column is extended within the mask. The memory answers most
        # rounds, so it takes 60 graphs to draw in more than 50.
        rng = np.random.default_rng(65)
        cfg = RunConfig(sampler="classical_stochastic", shots=30, seed=0)
        recalled = drawn = not_maximal = 0
        for _ in range(60):
            n = int(rng.integers(4, 11))
            g = random_graph(n, rng.uniform(0.1, 0.6), rng)
            engine, samples = PricingEngine(cfg), {}
            positive = g.full_mask
            for _ in range(4):
                duals = np.where([(positive >> v) & 1 for v in range(n)], rng.uniform(0.3, 1.0, n), 0.0)
                sub = g.induced_subgraph(positive)
                memory = {mask & positive for mask in samples}
                cols, stats = engine.sample_columns(g, positive, duals, samples)
                assert len(set(cols)) == len(cols) == stats.improving
                for mask in cols:
                    assert mask & ~positive == 0
                    assert is_maximal_independent(sub, restrict_mask(mask, positive))
                    assert reduced_cost(mask, duals) < -IMPROVE_EPS
                assert stats.maximal <= stats.improving
                if stats.shots:  # a classical draw is maximal on its own mask
                    assert stats.maximal == stats.improving
                    drawn += 1
                else:
                    recalled += 1
                    not_maximal += sum(not is_maximal_independent(sub, restrict_mask(mask, positive))
                                       for mask in memory if g.is_independent(mask))
                positive = int(rng.integers(1, 1 << n)) | 0b11
        assert recalled > 50 and drawn > 50 and not_maximal > 20

    def test_memory_is_per_solve(self):
        # The same graph solved twice on one engine: each solve's first
        # sampler call draws, since its pool starts with an empty memory, and
        # each solve later answers some round from its memory.
        engine = PricingEngine(RunConfig(sampler="classical_stochastic", shots=20, seed=0))
        g = random_graph(12, 0.3, np.random.default_rng(64))
        for _ in range(2):
            log = solve_qcbp(g, engine=engine).pricing_log
            assert log[0].shots == 20
            assert any(row.shots == 0 for row in log)


class TestUnlinkedVertices:
    """A dual-positive vertex with no dual-positive neighbour is in every
    maximal set within the mask: it gets no atom, and every draw holds it."""

    def test_register_holds_the_linked_vertices(self, monkeypatch, fast):
        graphs, registers = [], []
        real_embed, real_evolve = qcbp.pricing.embed, qcbp.pricing.evolve

        def embedding(sub, *args, **kwargs):
            graphs.append(sub)
            return real_embed(sub, *args, **kwargs)

        def evolving(reg, *args):
            registers.append(reg)
            return real_evolve(reg, *args)

        monkeypatch.setattr(qcbp.pricing, "embed", embedding)
        monkeypatch.setattr(qcbp.pricing, "evolve", evolving)
        # A 4-cycle, two isolated vertices, and vertex 6, whose only neighbour
        # (vertex 7) is outside the mask.
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (6, 7)])
        positive = mask_of(range(7))
        duals = np.where([(positive >> v) & 1 for v in range(g.n)], 0.3, 0.0)
        cols, stats = PricingEngine(fast).sample_columns(g, positive, duals, {})
        assert g.linked(positive) == mask_of(range(4))
        assert graphs == [g.induced_subgraph(mask_of(range(4)))] and len(registers[0].positions) == 4
        assert (stats.n_sub, stats.shots) == (7, 100)
        # at 0.3 a set improves only with four or more vertices: the two
        # independent pairs of the cycle, with the three unlinked vertices
        assert sorted(cols) == [mask_of([0, 2, 4, 5, 6]), mask_of([1, 3, 4, 5, 6])]

    @pytest.mark.parametrize("sampler", ["classical_stochastic", "emulated_qaa"])
    def test_every_draw_holds_the_unlinked_vertices(self, sampler, fast):
        rng = np.random.default_rng(70)
        cfg = replace(fast, sampler=sampler, shots=30)
        unlinked_draws = 0
        for _ in range(12):
            n = int(rng.integers(5, 9))
            g = random_graph(n, rng.uniform(0.1, 0.5), rng)
            engine, samples = PricingEngine(cfg), {}
            for _ in range(3):
                positive = int(rng.integers(1, 1 << n))
                unlinked = positive & ~g.linked(positive)
                duals = np.where([(positive >> v) & 1 for v in range(n)], rng.uniform(0.05, 0.4, n), 0.0)
                before = set(samples)
                cols, stats = engine.sample_columns(g, positive, duals, samples)
                drawn = set(samples) - before
                assert all(mask & unlinked == unlinked for mask in drawn)
                assert all(mask & unlinked == unlinked for mask in cols)
                unlinked_draws += bool(stats.shots and unlinked)
        assert unlinked_draws > 5

    @pytest.mark.parametrize("sampler", ["classical_stochastic", "emulated_qaa"])
    def test_an_edgeless_mask_draws_nothing(self, monkeypatch, sampler):
        def refuse(*args, **kwargs):
            raise AssertionError("an edgeless mask reached the register")

        monkeypatch.setattr(qcbp.pricing, "embed", refuse)
        monkeypatch.setattr(qcbp.pricing, "evolve", refuse)
        g = Graph.from_edges(5, [])
        engine = PricingEngine(RunConfig(sampler=sampler, shots=30))
        cols, stats = engine.sample_columns(g, g.full_mask, np.full(5, 0.9), {}, iteration=2)
        assert (cols, stats) == ([], PricingStats(2, 5, 0, 0, 0, 0))
        pool = ColumnPool()
        res = run_hcg(g, g.full_mask, pool, engine)
        # the greedy prices the whole mask; the later rounds' masks have no edge either
        assert res.pricing_log[0] == PricingStats(1, 5, 0, 0, 0, 0)
        assert all(row.shots == 0 for row in res.pricing_log)
        assert pool.columns[0] == g.full_mask and res.certified and res.lp_bound == pytest.approx(1.0)


class TestDualForms:
    def test_list_and_array_duals_price_alike(self):
        # The master's duals reach the pricers as a list of floats; the
        # public pricers take an ndarray too and must answer the same.
        rng = np.random.default_rng(69)
        cfg = RunConfig(sampler="classical_stochastic", shots=30, seed=5)
        drawn = recalled = 0
        for _ in range(60):
            n = int(rng.integers(2, 12))
            g = random_graph(n, rng.uniform(0.1, 0.7), rng)
            masks = [g.full_mask] + [int(rng.integers(1, 1 << n)) for _ in range(3)]
            arrays = [np.where((m >> np.arange(n)) & 1, rng.uniform(0.05, 1.0, size=n), 0.0) for m in masks]
            for positive, array in zip(masks, arrays):
                mask = int(rng.integers(0, 1 << n))
                assert reduced_cost(mask, array.tolist()) == reduced_cost(mask, array)
                assert greedy_columns(g, positive, array.tolist()) == greedy_columns(g, positive, array)
                assert exact_mwis(g, array.tolist()) == exact_mwis(g, array)
            # Rounds of a column generation, each pricing another
            # dual-positive mask, so some rounds are recalled.
            rounds = []
            for as_list in (True, False):
                engine, samples = PricingEngine(cfg), {}
                rounds.append([])
                for k, (positive, array) in enumerate(zip(masks, arrays)):
                    duals = array.tolist() if as_list else array
                    cols, stats = engine.sample_columns(g, positive, duals, samples, iteration=k)
                    rounds[-1].append((cols, stats))
            assert rounds[0] == rounds[1]
            drawn += sum(stats.shots > 0 for _, stats in rounds[0])
            recalled += sum(stats.shots == 0 and stats.improving > 0 for _, stats in rounds[0])
        assert drawn > 60 and recalled > 20

class TestEmulationCap:
    # The cap counts atoms, the linked vertices: one vertex with no edge
    # brings MAX_QUBITS + 1 vertices under it.
    @pytest.mark.parametrize("n, draws, isolated", [
        (MAX_QUBITS, True, 0), (MAX_QUBITS + 1, False, 0), (MAX_QUBITS + 1, True, 1)],
        ids=[f"{MAX_QUBITS}-True", f"{MAX_QUBITS + 1}-False", f"{MAX_QUBITS + 1}-one-unlinked-True"])
    def test_no_draw_above_the_cap(self, monkeypatch, n, draws, isolated):
        class Drew(Exception):
            pass

        def embed(*args, **kwargs):
            raise Drew

        monkeypatch.setattr(qcbp.pricing, "embed", embed)
        g = Graph.from_edges(n, random_graph(n - isolated, 0.3, np.random.default_rng(n)).edges())
        assert g.linked(g.full_mask).bit_count() == n - isolated
        engine = PricingEngine()
        if draws:
            with pytest.raises(Drew):
                engine.sample_columns(g, g.full_mask, np.full(n, 0.9), {}, iteration=3)
        else:
            cols, stats = engine.sample_columns(g, g.full_mask, np.full(n, 0.9), {}, iteration=3)
            assert (cols, stats) == ([], PricingStats(3, n, 0, 0, 0, 0))

    def test_exact_pricer_answers_above_the_cap(self):
        res = solve_qcbp(complete(MAX_QUBITS + 1), engine=PricingEngine())
        assert (res.chi_hat, res.proven_optimal, res.stats.shots_total) == (MAX_QUBITS + 1, True, 0)
        assert res.pricing_log and all(row.n_sub > MAX_QUBITS for row in res.pricing_log)


class TestConfig:
    @pytest.mark.parametrize("name", ["sampler", "seed", "shots"], ids=["kind", "seed", "shots"])
    def test_fields_cannot_be_assigned(self, name):
        # the engine's sampler kind, seed and shot count are fixed once it is built
        cfg = PricingEngine(RunConfig()).config
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))

    def test_exact_kind_has_no_sampling_path(self):
        engine = PricingEngine(RunConfig(sampler="exact_pricer"))
        with pytest.raises(ValueError, match="exact_pricer"):
            engine.sample_columns(path3(), path3().full_mask, np.ones(3), {})
