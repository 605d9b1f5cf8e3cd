import functools
import itertools
import operator
from dataclasses import replace

import numpy as np
import pytest

import qcbp.bnp
import qcbp.hcg
import qcbp.rmp

from qcbp.bnp import (
    BBNode,
    Coloring,
    branch,
    maximal_sets_containing,
    node_lb,
    primal_heuristic,
    solve_qcbp,
)
from qcbp.bounds import spectral_lb
from qcbp.chromatic import exact_chromatic_number
from qcbp.config import RunConfig
from qcbp.graphs import Graph, expand_mask, flip_random_pairs, iter_bits, mask_of, random_ud_graph, restrict_mask
from qcbp.hcg import HcgResult, run_hcg
from qcbp.pricing import IMPROVE_EPS, PricingEngine

from builders import complete, cycle, exact_engine, join, myciel, path3, random_graph, stochastic_engine
from oracles import is_maximal_independent


class TestPrimalHeuristic:
    def test_triangle_with_singletons(self):
        coloring = primal_heuristic(0b111, [1, 2, 4], 1)
        assert coloring.colors_used == 3

    def test_path3_uses_endpoint_pair(self):
        coloring = primal_heuristic(0b111, [1, 2, 4, mask_of([0, 2])], 1)
        assert coloring.colors_used == 2
        assert mask_of([0, 2]) in coloring.classes

    def test_edgeless_with_full_set(self):
        g = Graph.from_edges(4, [])
        coloring = primal_heuristic(g.full_mask, [1, 2, 4, 8, g.full_mask], 1)
        assert coloring.colors_used == 1

    def test_uncovered_vertex(self):
        # no column cut to the residual {0, 1, 2} holds vertex 1
        with pytest.raises(ValueError, match="no column contains vertex 1"):
            primal_heuristic(0b111, [0b101, 0b1000], 3)

    def test_coloring_always_feasible(self):
        rng = np.random.default_rng(80)
        for _ in range(40):
            g = random_graph(int(rng.integers(2, 11)), rng.uniform(0.1, 0.8), rng)
            pool = [1 << v for v in range(g.n)]
            pool += [s for s in range(1, 1 << g.n) if g.is_independent(s) and rng.random() < 0.1]
            coloring = primal_heuristic(g.full_mask, pool, int(rng.integers(1, 5)))
            coloring.validate(g, g.full_mask)

    def test_residual_coloring_matches_the_induced_graph_heuristic(self):
        rng = np.random.default_rng(90)
        for _ in range(60):
            g = random_graph(int(rng.integers(2, 11)), rng.uniform(0.1, 0.8), rng)
            residual = int(rng.integers(1, 1 << g.n))
            pool = [1 << v for v in range(g.n)]
            pool += [s for s in range(1, 1 << g.n) if g.is_independent(s) and rng.random() < 0.1]
            k = int(rng.integers(1, 5))
            coloring = primal_heuristic(residual, pool, k)
            coloring.validate(g, residual)
            sub = g.induced_subgraph(residual)
            local = primal_heuristic(sub.full_mask, {restrict_mask(m, residual) for m in pool} - {0}, k)
            assert coloring.colors_used == local.colors_used
            assert coloring.classes == tuple(expand_mask(c, residual) for c in local.classes)

    def test_within_k_exactly_when_the_columns_allow(self, monkeypatch):
        # Against the fewest columns that cover the residual, by brute force,
        # with the step cap out of reach: never below that, and within k
        # exactly when k columns can cover the residual. (Beyond k the first
        # descent is kept, which may use more than the fewest.)
        monkeypatch.setattr(qcbp.bnp, "COVER_STEP_CAP", 10**9)
        rng = np.random.default_rng(93)
        within = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            g = random_graph(n, rng.uniform(0.1, 0.7), rng)
            columns = [1 << v for v in range(n)]
            for _ in range(int(rng.integers(0, 12))):
                mask = 0
                for v in rng.permutation(n):
                    if not g.adj[v] & mask and rng.random() < 0.7:
                        mask |= 1 << int(v)
                columns.append(mask)
            residual = int(rng.integers(1, 1 << n))
            k = int(rng.integers(1, 5))
            cut = sorted({m & residual for m in columns} - {0})
            opt = next(r for r in range(1, n + 1) for combo in itertools.combinations(cut, r)
                       if functools.reduce(operator.or_, combo) == residual)
            coloring = primal_heuristic(residual, columns, k)
            coloring.validate(g, residual)
            assert opt <= coloring.colors_used
            assert (coloring.colors_used <= k) == (opt <= k)
            within += opt <= k
        assert 50 < within < 250

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_finds_a_planted_cover(self, k, monkeypatch):
        # k color classes of 5 vertices each, edges only between classes, and
        # decoy independent sets that cut across the classes. On some of the
        # instances the first descent (all that a step cap of 0 leaves) takes
        # decoys and misses a k-cover, so the search after it must find one.
        rng = np.random.default_rng(94 + k)
        cap = qcbp.bnp.COVER_STEP_CAP
        missed = 0
        for _ in range(12):
            n = 5 * k
            color = rng.permutation(np.arange(n) % k)
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if color[u] != color[v] and rng.random() < 0.5])
            classes = [mask_of(np.flatnonzero(color == c).tolist()) for c in range(k)]
            decoys = []
            for _ in range(30):
                mask = 0
                for v in rng.permutation(n):
                    if not g.adj[v] & mask:
                        mask |= 1 << int(v)
                decoys.append(mask)
            columns = [1 << v for v in range(n)] + decoys + classes
            monkeypatch.setattr(qcbp.bnp, "COVER_STEP_CAP", 0)
            missed += primal_heuristic(g.full_mask, columns, k).colors_used > k
            monkeypatch.setattr(qcbp.bnp, "COVER_STEP_CAP", cap)
            coloring = primal_heuristic(g.full_mask, columns, k)
            coloring.validate(g, g.full_mask)
            assert coloring.colors_used <= k
        assert missed >= 3

    def test_step_cap_still_gives_a_coloring(self, monkeypatch):
        # The first descent takes the widest column, {0, 2, 5, 8}, and needs 4
        # classes; the planted 3-cover {0, 2, 7}, {4, 5, 6}, {1, 3, 8} takes
        # more than one branching after it.
        g = Graph.from_edges(9, [(0, 3), (0, 4), (0, 6), (1, 2), (1, 5), (1, 6), (1, 7), (2, 3),
                                 (2, 4), (2, 6), (3, 5), (4, 8), (5, 7), (6, 7), (6, 8), (7, 8)])
        columns = [1 << v for v in range(9)] + [
            mask_of(c) for c in ([1, 3, 4], [3, 4, 6], [3, 4, 7], [0, 2, 5, 8],
                                 [0, 2, 7], [4, 5, 6], [1, 3, 8])]
        assert primal_heuristic(g.full_mask, columns, 3).colors_used == 3
        monkeypatch.setattr(qcbp.bnp, "COVER_STEP_CAP", 1)
        coloring = primal_heuristic(g.full_mask, columns, 3)
        coloring.validate(g, g.full_mask)
        assert coloring.colors_used == 4


class TestColoring:
    def test_validate_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            Coloring(classes=(0b011, 0b110)).validate(Graph.from_edges(3, []), 0b111)

    def test_validate_dependent_class(self):
        with pytest.raises(ValueError, match="independent"):
            Coloring(classes=(0b011, 0b100)).validate(path3(), 0b111)

    def test_validate_cover(self):
        with pytest.raises(ValueError, match="cover"):
            Coloring(classes=(0b001,)).validate(path3(), 0b111)

    def test_validate_empty_class(self):
        # padding a coloring with empty classes would inflate its color count
        with pytest.raises(ValueError, match="color class is empty"):
            Coloring(classes=(0b101, 0b010, 0)).validate(path3(), 0b111)


class TestBranch:
    def test_empty_residual(self):
        with pytest.raises(ValueError, match="cannot branch on an empty residual"):
            branch(path3(), BBNode(residual_root=0, fixed_classes=(0b101, 0b010)), [])

    def test_triangle_children(self):
        # Every vertex has degree 2, so v = 0, whose only maximal set is {0}.
        g = complete(3)
        node = BBNode(residual_root=g.full_mask, fixed_classes=())
        children = branch(g, node, [1, 2, 4])
        assert [c.fixed_classes for c in children] == [(1,)]
        assert children[0].residual_root == mask_of([1, 2])
        assert children[0].depth == 1

    def test_path3_only_maximal_columns_branch(self):
        # v = 1 (degree 2); the pooled {0, 2} holds no v, so no child fixes it.
        g = path3()
        node = BBNode(residual_root=g.full_mask, fixed_classes=())
        children = branch(g, node, [mask_of([0, 2]), 2, 1, 4])
        assert [c.residual_root for c in children] == [mask_of([0, 2])]

    def test_no_maximal_candidates(self):
        # The pool holds no maximal set; branching does not depend on it.
        g = Graph.from_edges(4, [])
        node = BBNode(residual_root=g.full_mask, fixed_classes=())
        children = branch(g, node, [1, 2, 4, 8])
        assert [c.fixed_classes for c in children] == [(g.full_mask,)]
        assert children[0].residual_root == 0

    def test_pooled_sets_first_then_size_then_mask(self):
        # Path 0-1-2-3-4-5: v = 1, non-neighbours 3-4-5 give {1,3,5} and {1,4}.
        g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        node = BBNode(residual_root=g.full_mask, fixed_classes=())
        assert [c.fixed_classes[-1] for c in branch(g, node, [1 << v for v in range(6)])] == [
            mask_of([1, 3, 5]), mask_of([1, 4])]
        # Residual 0-1-2-3-4 gives {1,3} and {1,4}; a pooled column counts
        # through its restriction to the residual.
        node = BBNode(residual_root=mask_of(range(5)), fixed_classes=(1 << 5,))
        assert [c.fixed_classes[-1] for c in branch(g, node, [])] == [
            mask_of([1, 3]), mask_of([1, 4])]
        assert [c.fixed_classes[-1] for c in branch(g, node, [mask_of([1, 4, 5])])] == [
            mask_of([1, 4]), mask_of([1, 3])]

    def test_maximal_sets_containing_matches_brute_force(self):
        rng = np.random.default_rng(89)
        for _ in range(150):
            g = random_graph(int(rng.integers(1, 11)), rng.uniform(0.0, 0.9), rng)
            maximal = [s for s in range(1, 1 << g.n) if is_maximal_independent(g, s)]
            for v in range(g.n):
                assert sorted(maximal_sets_containing(g, v, g.full_mask)) == [
                    s for s in maximal if s >> v & 1]

    def test_children_are_the_maximal_sets_through_the_top_vertex(self):
        rng = np.random.default_rng(88)
        for _ in range(60):
            g = random_graph(int(rng.integers(1, 11)), rng.uniform(0.0, 0.9), rng)
            residual = int(rng.integers(1, 1 << g.n))
            res = g.induced_subgraph(residual)
            v = max(range(res.n), key=lambda u: (res.degree(u), -u))
            brute = [s for s in range(1, 1 << res.n) if s >> v & 1 and is_maximal_independent(res, s)]
            children = branch(g, BBNode(residual_root=residual, fixed_classes=()), [])
            assert sorted(restrict_mask(c.fixed_classes[-1], residual) for c in children) == brute
            assert all(c.residual_root == residual & ~c.fixed_classes[-1] for c in children)


class TestNodeBounds:
    # a node's bound before its LP is solved: depth plus the ceiling of the
    # residual's spectral bound; then the LP value's ceiling, never lower
    def test_rmp_term_ceiling(self):
        spectral = node_lb(0, spectral_lb(path3()), 1)
        assert spectral == 2 and node_lb(0, 2.0, spectral) == 2

    def test_depth_plus_edgeless(self):
        spectral = node_lb(1, spectral_lb(Graph.from_edges(3, [])), 1)
        assert spectral == 2 and node_lb(1, 1.0, spectral) == 2

    def test_k4_bound(self):
        spectral = node_lb(0, spectral_lb(complete(4)), 1)
        assert spectral == 4 and node_lb(0, 4.0, spectral) == 4

    def test_score(self, monkeypatch):
        # The search is depth-first in branching order, so the node explored
        # after the root is the root's first child in `branch` order.
        explored, branchings = [], []
        real_run_hcg, real_branch = qcbp.bnp.run_hcg, qcbp.bnp.branch

        def recording_run_hcg(*args):
            explored.append(args[1])
            return real_run_hcg(*args)

        def recording_branch(*args):
            branchings.append(real_branch(*args))
            return branchings[-1]

        monkeypatch.setattr(qcbp.bnp, "run_hcg", recording_run_hcg)
        monkeypatch.setattr(qcbp.bnp, "branch", recording_branch)
        solve_qcbp(myciel(4), engine=exact_engine())
        assert explored[0] == myciel(4).full_mask
        assert explored[1] == branchings[0][0].residual_root


class TestSolve:
    def test_k4_proven_at_root(self):
        res = solve_qcbp(complete(4), engine=exact_engine())
        assert res.chi_hat == 4 and res.proven_optimal
        assert res.stats.nodes_explored == 1

    def test_edgeless(self):
        res = solve_qcbp(Graph.from_edges(5, []), engine=exact_engine())
        assert res.chi_hat == 1 and res.proven_optimal

    def test_c5(self):
        res = solve_qcbp(cycle(5), engine=exact_engine())
        assert res.chi_hat == 3 and res.proven_optimal

    def test_single_vertex(self):
        res = solve_qcbp(Graph.from_edges(1, []), engine=exact_engine())
        assert res.chi_hat == 1 and res.proven_optimal

    def test_exact_pricing_proves_small_instances(self):
        rng = np.random.default_rng(81)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            g = random_graph(n, rng.uniform(0.1, 0.8), rng)
            res = solve_qcbp(g, engine=exact_engine())
            assert res.proven_optimal
            assert res.chi_hat == exact_chromatic_number(g)
            res.coloring.validate(g, g.full_mask)

    def test_proven_implies_exact_with_stochastic_sampler(self):
        rng = np.random.default_rng(82)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            g = random_graph(n, rng.uniform(0.1, 0.7), rng)
            res = solve_qcbp(g, engine=stochastic_engine(int(rng.integers(1 << 20))))
            res.coloring.validate(g, g.full_mask)
            assert res.chi_hat >= exact_chromatic_number(g)
            if res.proven_optimal:
                assert res.chi_hat == exact_chromatic_number(g)

    def test_node_counters_balance(self):
        rng = np.random.default_rng(83)
        for _ in range(15):
            g = random_graph(9, rng.uniform(0.2, 0.6), rng)
            res = solve_qcbp(g, engine=exact_engine())
            s = res.stats
            # every generated node was explored, pruned, or is still open
            assert s.nodes_generated == s.nodes_explored + s.nodes_pruned + s.nodes_open
            assert s.nodes_open >= 0

    def test_ub_never_below_root_lb(self):
        rng = np.random.default_rng(84)
        for _ in range(10):
            g = random_graph(8, 0.5, rng)
            res = solve_qcbp(g, engine=exact_engine())
            assert res.chi_hat >= res.root_lb

    def test_node_budget_flags_unproven(self):
        rng = np.random.default_rng(85)
        for _ in range(20):
            g = random_graph(10, 0.45, rng)
            res = solve_qcbp(g, engine=exact_engine(node_budget=2))
            res.coloring.validate(g, g.full_mask)
            if res.proven_optimal:
                assert res.chi_hat == exact_chromatic_number(g)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_capped_column_generation_keeps_the_root_bound_sound(self, cap):
        rng = np.random.default_rng(87)
        for k in range(30):
            g = random_graph(int(rng.integers(5, 11)), rng.uniform(0.2, 0.7), rng)
            engine = PricingEngine(RunConfig(sampler="classical_stochastic", shots=5, seed=k,
                                             hcg_max_iterations=cap))
            # a root bound above chi would raise here: the heuristic beats it
            res = solve_qcbp(g, engine=engine)
            assert res.root_lb <= exact_chromatic_number(g)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_proof_means_optimal_when_the_sampler_misses_optimal_classes(self, cap):
        # Branching only on pooled maximal sets gave 5 wrong proofs here, e.g.
        # instance 40 at cap 1 (n = 7, chi 2, "proven" at 3): its pool held no
        # optimal class, so every child was pruned.
        rng = np.random.default_rng(2)
        for k in range(150):
            g = random_graph(int(rng.integers(5, 11)), rng.uniform(0.2, 0.7), rng)
            engine = PricingEngine(RunConfig(sampler="classical_stochastic", shots=5, seed=k,
                                             hcg_max_iterations=cap))
            res = solve_qcbp(g, engine=engine)
            res.coloring.validate(g, g.full_mask)
            if res.proven_optimal:
                assert res.chi_hat == exact_chromatic_number(g), f"instance {k}"

    def test_gnp_instance_proven_at_its_chromatic_number(self):
        # G(20, 0.3) drawn as the gnp_exact benchmark draws seed 11, instance 4:
        # every node's LP was certified, yet it was "proven" at 5 with chi = 4.
        rng = np.random.default_rng([11, 20, 4])
        g = Graph.from_edges(20, [(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.3])
        res = solve_qcbp(g, engine=exact_engine())
        res.coloring.validate(g, g.full_mask)
        assert res.proven_optimal
        assert res.chi_hat == exact_chromatic_number(g) == 4

    def test_myciel4_is_proven_at_five_by_branching(self):
        # Above the DSATUR oracle's size, so chi = 5 comes from the Mycielski
        # construction; the root LP (3.245) leaves a gap that only the search
        # closes.
        g = myciel(4)
        assert (g.n, g.edge_count) == (23, 71)
        res = solve_qcbp(g, engine=exact_engine())
        res.coloring.validate(g, g.full_mask)
        assert res.proven_optimal and res.chi_hat == 5
        assert abs(res.lp_root - 3.2448) < 1e-4 and res.root_lb == 4
        assert res.stats.nodes_explored == 17

    def test_no_proof_above_the_chromatic_number_on_gnp(self):
        rng = np.random.default_rng(95)
        for _ in range(40):
            g = random_graph(20, 0.3, rng)
            res = solve_qcbp(g, engine=exact_engine())
            res.coloring.validate(g, g.full_mask)
            chi = exact_chromatic_number(g)
            assert res.chi_hat >= chi
            assert not res.proven_optimal or res.chi_hat == chi

    @pytest.mark.parametrize("seed, k", [(1, 61), (203, 68)])
    def test_gnp_instance_certifies_every_node(self, seed, k):
        # Drawn as the gnp_exact benchmark draws them. With one exact column
        # per round, column generation hit its 50-round cap on a node of each,
        # which was then bounded by Farley's bound.
        rng = np.random.default_rng([seed, 20, k])
        g = Graph.from_edges(20, [(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.3])
        res = solve_qcbp(g, engine=exact_engine())
        res.coloring.validate(g, g.full_mask)
        assert res.proven_optimal
        assert res.chi_hat == exact_chromatic_number(g)
        assert res.stats.uncertified_nodes == 0

    def test_capped_runs_are_counted_uncertified(self):
        g = random_graph(9, 0.4, np.random.default_rng(88))
        res = solve_qcbp(g, engine=exact_engine(hcg_max_iterations=1))
        assert 0 < res.stats.uncertified_nodes <= res.stats.nodes_explored

    def test_pool_is_a_packed_array_of_distinct_masks(self):
        # Nothing checks a priced column against the pool: it is improving by
        # more than IMPROVE_EPS, and a solved master prices every column it
        # holds at -OPT_TOL or above, so it is new. myciel4 branches, so its
        # pool feeds masters below the root.
        assert IMPROVE_EPS > qcbp.rmp.OPT_TOL
        cases = [
            (random_graph(10, 0.4, np.random.default_rng(89)), exact_engine()),
            (myciel(4), stochastic_engine()),
            (random_ud_graph(8, 3)[0], PricingEngine()),
        ]
        for g, engine in cases:
            res = solve_qcbp(g, engine=engine)
            assert res.pool.typecode == "Q" and res.pool.itemsize == 8
            assert res.pool and not any(m.bit_count() == 1 for m in res.pool)
            assert len(set(res.pool)) == len(res.pool)
            assert all(g.is_independent(m) for m in res.pool)
        assert res.pricing_log and res.stats.shots_total > 0  # the emulated sampler drew

    def test_unproven_reason(self):
        # Groetzsch graph: chi 4 above its LP bound 2.9, so the root must branch
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
        edges += [(10, 5 + i) for i in range(5)]
        g = Graph.from_edges(11, edges)
        res = solve_qcbp(g, engine=exact_engine(node_budget=1))
        assert not res.proven_optimal and res.stats.unproven_reason == "budget"
        res = solve_qcbp(g, engine=exact_engine())
        assert res.proven_optimal and res.chi_hat == 4 and res.stats.unproven_reason == ""

    def test_children_are_bounded_when_popped(self, monkeypatch):
        # Bounds and the heuristic run for popped nodes only: spectral_lb
        # before each run_hcg and primal_heuristic once after it, all three on
        # the same residual, and nothing for the children still on the stack
        # at the end.
        events: list[tuple[str, int]] = []

        def counting(name, fn, mask_of_args):
            def wrapped(*args):
                events.append((name, mask_of_args(args)))
                return fn(*args)
            return wrapped

        for name, pick in (("spectral_lb", lambda a: a[1]), ("run_hcg", lambda a: a[1]),
                           ("primal_heuristic", lambda a: a[0])):
            monkeypatch.setattr(qcbp.bnp, name, counting(name, getattr(qcbp.bnp, name), pick))
        # myciel4 has a root gap (LP 3.245, chromatic number 5); the budget
        # stops the search after 5 explored nodes, 18 pruned and 17 still open
        res = solve_qcbp(myciel(4), engine=exact_engine(node_budget=40))
        s = res.stats
        names = [name for name, _ in events]
        assert names.count("run_hcg") == names.count("primal_heuristic") == s.nodes_explored > 1
        for i, (name, mask) in enumerate(events):
            if name == "run_hcg":
                assert events[i - 1] == ("spectral_lb", mask)
                assert events[i + 1] == ("primal_heuristic", mask)
        assert s.nodes_open > 0
        assert names.count("spectral_lb") <= s.nodes_generated - s.nodes_open

    def test_heuristic_runs_only_below_the_incumbent(self, monkeypatch):
        # After a node's LP bound is set, the heuristic runs with k = node.lb -
        # depth if node.lb is below the incumbent, and not at all otherwise,
        # since no coloring of the node could then be accepted. The events
        # replay the incumbent: each heuristic coloring, and each child that
        # its fixed classes color.
        events: list[tuple] = []
        real_node_lb, real_heuristic, real_branch = qcbp.bnp.node_lb, qcbp.bnp.primal_heuristic, qcbp.bnp.branch
        real_run_hcg = qcbp.bnp.run_hcg

        def recording_node_lb(depth, bound, lb):
            events.append(("node_lb", depth, real_node_lb(depth, bound, lb)))
            return events[-1][2]

        def recording_heuristic(residual, columns, k):
            coloring = real_heuristic(residual, columns, k)
            events.append(("heuristic", k, coloring.colors_used))
            return coloring

        def recording_branch(*args):
            children = real_branch(*args)
            events.append(("branch", [c.depth for c in children if c.residual_root == 0]))
            return children

        def recording_run_hcg(*args):
            events.append(("run_hcg",))
            return real_run_hcg(*args)

        monkeypatch.setattr(qcbp.bnp, "node_lb", recording_node_lb)
        monkeypatch.setattr(qcbp.bnp, "primal_heuristic", recording_heuristic)
        monkeypatch.setattr(qcbp.bnp, "branch", recording_branch)
        monkeypatch.setattr(qcbp.bnp, "run_hcg", recording_run_hcg)

        def check(g: Graph) -> list[int]:
            events.clear()
            res = solve_qcbp(g, engine=exact_engine())
            ub, ks, lp = g.n + 1, [], None  # lp: (depth, bound) of a node whose LP was just solved
            for i, event in enumerate(events):
                if event[0] == "node_lb" and events[i - 1] == ("run_hcg",):
                    lp = event[1:]
                    continue
                if event[0] == "heuristic":
                    depth, lb = lp
                    assert lb < ub and event[1] == lb - depth
                    ks.append(event[1])
                    ub = min(ub, depth + event[2])
                elif lp is not None:
                    assert lp[1] >= ub  # the node was closed without a call
                if event[0] == "branch":
                    ub = min([ub] + event[1])
                lp = None
            assert lp is None or lp[1] >= ub
            assert ub == res.chi_hat and res.proven_optimal
            return ks

        # C5+C5: chromatic number 6 and root LP 5; the root's call finds a
        # 6-coloring, and its two explored children reach 6 on their LP bound
        assert check(join(cycle(5), cycle(5))) == [5]
        assert events.count(("run_hcg",)) == 3
        # calls below the root: 7 of 11 explored nodes, and 17 of 17 on
        # myciel4, whose every node stays below the incumbent
        assert len(check(join(cycle(5), cycle(5), cycle(5)))) == 7
        assert len(check(myciel(4))) == 17
        check(join(myciel(3), cycle(5)))

    def test_solves_sharing_an_engine_report_their_own_work(self, monkeypatch):
        # The engine's seed stream carries on across solves, but each solve's
        # shots and exact-pricer calls are its own. An exact call runs for
        # each clique cover too loose to certify its round, as C5's is at its
        # final duals (0.5 each, a cover of 1.5).
        exact_calls, loose_covers = [], []
        real_exact_mwis, real_cover = qcbp.hcg.exact_mwis, qcbp.hcg.clique_cover_weight

        def counting(*args):
            exact_calls.append(args)
            return real_exact_mwis(*args)

        def cover_counting(*args):
            weight = real_cover(*args)
            if weight > 1.0 + IMPROVE_EPS:
                loose_covers.append(args)
            return weight

        monkeypatch.setattr(qcbp.hcg, "exact_mwis", counting)
        monkeypatch.setattr(qcbp.hcg, "clique_cover_weight", cover_counting)
        rng = np.random.default_rng([1, 20, 111])  # explores 3 nodes after the two C5 solves
        gnp = Graph.from_edges(20, [(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.3])
        engine = PricingEngine(RunConfig(sampler="classical_stochastic", shots=50, seed=0))
        for g in (cycle(5), cycle(5), gnp):
            exact_calls.clear()
            loose_covers.clear()
            res = solve_qcbp(g, engine=engine)
            assert res.stats.shots_total == sum(row.shots for row in res.pricing_log) > 0
            assert res.stats.exact_pricer_calls == len(exact_calls) == len(loose_covers)
            if g.n == 5:
                assert exact_calls
        assert res.stats.nodes_explored > 1

    def test_heuristic_and_branching_read_the_node_columns(self, monkeypatch):
        # Both get the node's master columns: inside its residual, no repeats.
        seen: list[tuple[int, list[int]]] = []

        def recording(fn, residual_of, columns_of):
            def wrapped(*args):
                seen.append((residual_of(args), list(columns_of(args))))
                return fn(*args)
            return wrapped

        monkeypatch.setattr(qcbp.bnp, "primal_heuristic",
                            recording(qcbp.bnp.primal_heuristic, lambda a: a[0], lambda a: a[1]))
        monkeypatch.setattr(qcbp.bnp, "branch",
                            recording(qcbp.bnp.branch, lambda a: a[1].residual_root, lambda a: a[2]))
        res = solve_qcbp(myciel(4), engine=exact_engine())  # explores 17 nodes
        assert len(seen) > res.stats.nodes_explored > 1
        for residual, columns in seen:
            assert all(0 < m and m & ~residual == 0 for m in columns)
            assert len(set(columns)) == len(columns)
            assert set(columns) >= {1 << v for v in iter_bits(residual)}

    def test_node_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="node_budget"):
            RunConfig(node_budget=0)

    def test_engine_defaults_to_one_built_from_the_config(self):
        g = myciel(3)
        res = solve_qcbp(g, RunConfig(sampler="classical_stochastic", shots=5, seed=2))
        assert res.pricing_log and {row.shots for row in res.pricing_log} <= {0, 5}
        engine = PricingEngine(RunConfig(sampler="classical_stochastic", shots=5, seed=2))
        assert res.pool == solve_qcbp(g, engine=engine).pool

    def test_search_and_column_generation_read_the_engines_config(self, monkeypatch):
        # myciel4 needs 118 nodes to prove; the engine's budget stops it at 2
        res = solve_qcbp(myciel(4), engine=exact_engine(node_budget=2))
        assert res.stats.nodes_generated == 2 and res.stats.unproven_reason == "budget"
        runs = []

        def recording(*args):
            runs.append(run_hcg(*args))
            return runs[-1]

        monkeypatch.setattr(qcbp.bnp, "run_hcg", recording)
        res = solve_qcbp(myciel(4), engine=exact_engine(node_budget=5, hcg_max_iterations=1))
        assert runs and all(run.iterations == 1 for run in runs)
        assert res.stats.uncertified_nodes > 0

    def test_config_beside_an_engine_must_match_it_but_for_the_seed(self):
        with pytest.raises(ValueError, match=r"in sampler$"):
            solve_qcbp(cycle(5), RunConfig(sampler="exact_pricer"), engine=PricingEngine())
        with pytest.raises(ValueError, match=r"in shots, node_budget$"):
            solve_qcbp(cycle(5), RunConfig(sampler="exact_pricer", shots=7, node_budget=2),
                       engine=exact_engine())
        # the benchmark harness passes a seed-0 config beside a seeded engine
        res = solve_qcbp(cycle(5), RunConfig(sampler="exact_pricer"), engine=exact_engine(seed=9))
        assert res.proven_optimal and res.chi_hat == 3

    def test_emulated_sampler_end_to_end(self):
        g, _ = random_ud_graph(7, seed=13, radius=10, box=25)
        cfg = RunConfig(
            sampler="emulated_qaa", shots=120, seed=6,
            register_radius=10.0, embed_iterations=800, embed_restarts=2, dt=2e-3,
        )
        res = solve_qcbp(g, engine=PricingEngine(cfg))
        res.coloring.validate(g, g.full_mask)
        assert res.chi_hat == exact_chromatic_number(g)
        assert res.stats.shots_total > 0

    def test_small_rounds_draw_nothing(self, monkeypatch):
        # Rounds of at most CLASSICAL_PRICING_MAX dual-positive vertices go to
        # the greedy pricer and write no pricing row.
        sizes = []
        real_greedy = qcbp.hcg.greedy_columns

        def recording(root, positive, duals):
            sizes.append(positive.bit_count())
            return real_greedy(root, positive, duals)

        monkeypatch.setattr(qcbp.hcg, "greedy_columns", recording)
        g, _ = random_ud_graph(7, seed=13, radius=10, box=25)
        cfg = RunConfig(
            sampler="emulated_qaa", shots=120, seed=6,
            register_radius=10.0, embed_iterations=800, embed_restarts=2, dt=2e-3,
        )
        res = solve_qcbp(g, engine=PricingEngine(cfg))
        assert min(sizes) <= qcbp.hcg.CLASSICAL_PRICING_MAX == 3
        assert res.pricing_log and all(row.n_sub > 3 for row in res.pricing_log)

    def test_perturbed_instances_still_solve(self):
        rng = np.random.default_rng(86)
        for seed in range(8):
            g, _ = random_ud_graph(8, seed=seed, radius=10, box=30)
            h = flip_random_pairs(g, seed=seed + 50)
            res = solve_qcbp(h, engine=stochastic_engine(seed))
            res.coloring.validate(h, h.full_mask)
            assert res.chi_hat >= exact_chromatic_number(h)


class TestWeakBoundSearch:
    """With the LP bound reported as 0 and the spectral bound as 1, nodes are
    pruned only by depth + 1 >= ub, so the search goes deep and meets the same
    residual along several paths. Each path explores it, and the search must
    still end sound: a valid coloring, every node counted once, and a proof
    only at the chromatic number."""

    @pytest.fixture
    def weak_bounds(self, monkeypatch):
        real_run_hcg = qcbp.bnp.run_hcg
        monkeypatch.setattr(qcbp.bnp, "run_hcg", lambda *args: replace(real_run_hcg(*args), lp_bound=0.0))
        monkeypatch.setattr(qcbp.bnp, "spectral_lb", lambda g, keep: 1.0)
        depths: dict[int, set[int]] = {}
        real_branch = qcbp.bnp.branch

        def recording_branch(*args):
            children = real_branch(*args)
            for c in children:
                depths.setdefault(c.residual_root, set()).add(c.depth)
            return children

        monkeypatch.setattr(qcbp.bnp, "branch", recording_branch)
        return depths

    @staticmethod
    def check(g: Graph) -> None:
        res = solve_qcbp(g, engine=exact_engine())
        res.coloring.validate(g, g.full_mask)
        s = res.stats
        assert s.nodes_generated == s.nodes_explored + s.nodes_pruned + s.nodes_open
        if res.proven_optimal:
            assert res.chi_hat == exact_chromatic_number(g)

    def test_residual_met_again_deeper(self, weak_bounds):
        g = Graph.from_edges(9, [
            (0, 2), (1, 6), (1, 7), (2, 4), (2, 5), (2, 7), (2, 8), (3, 4), (3, 6), (3, 7),
            (3, 8), (4, 5), (4, 6), (4, 8), (5, 6), (5, 7), (5, 8), (6, 7), (6, 8)])
        assert exact_chromatic_number(g) == 4
        self.check(g)
        assert any(len(d) > 1 for r, d in weak_bounds.items() if r)

    def test_shallower_path_explores_a_residual_again(self, weak_bounds, monkeypatch):
        # Pricing nothing leaves only singletons to the heuristic, and a seeded
        # random search order explores one residual along more than one path.
        explored = []

        def no_pricing(root, keep, pool, engine):
            explored.append(keep)
            return HcgResult(lp_bound=0.0, iterations=0, certified=False,
                             columns=[1 << v for v in iter_bits(keep)])

        order = np.random.default_rng(0)
        monkeypatch.setattr(qcbp.bnp, "run_hcg", no_pricing)
        real_branch = qcbp.bnp.branch
        monkeypatch.setattr(qcbp.bnp, "branch",
                            lambda *args: sorted(real_branch(*args), key=lambda c: order.random()))
        g = Graph.from_edges(8, [
            (0, 2), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 5), (1, 6), (1, 7),
            (2, 4), (2, 5), (2, 6), (3, 4), (4, 7), (5, 6), (5, 7)])
        res = solve_qcbp(g, engine=exact_engine())
        assert len(explored) > len(set(explored))
        assert res.proven_optimal and res.chi_hat == exact_chromatic_number(g) == 4
        s = res.stats
        assert s.nodes_generated == s.nodes_explored + s.nodes_pruned + s.nodes_open

    def test_random_graphs(self, weak_bounds):
        rng = np.random.default_rng(91)
        for _ in range(100):
            self.check(random_graph(int(rng.integers(1, 11)), rng.uniform(0.1, 0.8), rng))
