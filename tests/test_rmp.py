import numpy as np
import pytest

from qcbp.bnp import solve_qcbp
from qcbp.graphs import Graph, iter_bits, mask_of, restrict_mask
from qcbp import rmp
from qcbp.rmp import RmpModel, _factor, _simplex, solve_rmp

from builders import exact_engine, path3, random_graph
from oracles import all_independent_sets, lp_oracle


def random_independent_set(g: Graph, within: int, rng: np.random.Generator) -> int:
    """A random subset of `within`, thinned greedily to an independent set."""
    s = 0
    for v in iter_bits(int(rng.integers(1 << g.n)) & within):
        if not g.adj[v] & s:
            s |= 1 << v
    return s


def first_restrictions(masks: list[int], keep: int) -> list[int]:
    """The nonzero restrictions to keep, each at its first occurrence."""
    out: list[int] = []
    for s in masks:
        if s & keep and s & keep not in out:
            out.append(s & keep)
    return out


@pytest.fixture
def inversions(monkeypatch) -> list[int]:
    """Grows by one at each np.linalg.inv call."""
    calls: list[int] = []
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: calls.append(1) or real_inv(m))
    return calls


class TestModelConstruction:
    def test_init_path3_singletons(self):
        model = RmpModel(path3(), 0b111)
        assert model.masks == [1, 2, 4]

    def test_init_k1(self):
        model = RmpModel(Graph.from_edges(1, []), 1)
        assert model.masks == [1]

    def test_initial_model_objective_is_n(self):
        model = RmpModel(path3(), 0b111)
        sol = solve_rmp(model)
        assert abs(sol.objective - 3) < 1e-9
        assert np.allclose(sol.duals, 1.0, atol=1e-9)

    def test_add_column(self):
        model = RmpModel(path3(), 0b111)
        assert model.add([mask_of([0, 2])]) == 1
        assert len(model.masks) == 4

    def test_duplicate_skipped(self):
        model = RmpModel(path3(), 0b111)
        model.add([mask_of([0, 2])])
        assert model.add([mask_of([0, 2])]) == 0

    def test_dependent_set_rejected(self):
        model = RmpModel(path3(), 0b111)
        with pytest.raises(ValueError, match="independent"):
            model.add([mask_of([0, 1])])

    def test_pooled_master_equals_the_column_by_column_model(self):
        # Built independently of the model's writer: the singletons, then each
        # pooled mask cut down to keep, first occurrences in order, and the
        # matrix written one bit at a time.
        rng = np.random.default_rng(35)
        for _ in range(100):
            g = random_graph(int(rng.integers(1, 13)), rng.uniform(0.1, 0.8), rng)
            keep = int(rng.integers(1, 1 << g.n))
            pool = [random_independent_set(g, g.full_mask, rng) for _ in range(int(rng.integers(0, 40)))]
            # masks disjoint from keep, and masks that differ from earlier ones only outside it
            outside = g.full_mask & ~keep
            pool += [random_independent_set(g, outside, rng) for _ in range(3)]
            for s in pool[:5]:
                t = s | random_independent_set(g, outside, rng)
                if g.is_independent(t):
                    pool.append(t)
            rng.shuffle(pool)
            if rng.random() < 0.5:
                pool = [1 << v for v in range(g.n)] + pool
            split = int(rng.integers(0, len(pool) + 1))
            model = RmpModel(g, keep, pool[:split])
            added = model.add(pool[split:])

            rows = list(iter_bits(keep))
            singletons = [1 << v for v in rows]
            masks = first_restrictions(singletons + pool, keep)
            a = np.zeros((len(rows), len(masks)))
            for j, mask in enumerate(masks):
                for v in iter_bits(mask):
                    a[rows.index(v), j] = 1.0
            assert model.masks == masks
            assert all(type(m) is int for m in model.masks)
            assert np.array_equal(model._a, a)
            assert added == len(masks) - len(first_restrictions(singletons + pool[:split], keep))
            sub = g.induced_subgraph(keep)
            oracle = lp_oracle(sub, [restrict_mask(m, keep) for m in masks])
            assert abs(solve_rmp(model).objective - oracle) < 1e-6


class TestSolve:
    def test_path3_with_endpoint_pair(self):
        model = RmpModel(path3(), 0b111)
        model.add([mask_of([0, 2])])
        sol = solve_rmp(model)
        assert abs(sol.objective - 2.0) < 1e-9
        assert abs(sol.lam[3] - 1.0) < 1e-9  # the {0,2} column
        assert abs(sol.lam[1] - 1.0) < 1e-9  # the {1} singleton

    def test_edgeless_with_full_set(self):
        g = Graph.from_edges(4, [])
        model = RmpModel(g, g.full_mask)
        model.add([g.full_mask])
        sol = solve_rmp(model)
        assert abs(sol.objective - 1.0) < 1e-9

    def test_bland_rule_keeps_the_solves(self, monkeypatch):
        # At a limit of 1 the first degenerate pivot of a call switches it to
        # Bland's rule. Solves of G(20, 0.3) graphs, drawn as the gnp_exact
        # benchmark draws them, keep their chi-hat, proof and root LP value.
        graphs = []
        for k in range(20):
            rng = np.random.default_rng([1, 20, k])
            graphs.append(Graph.from_edges(
                20, [(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.3]))

        def outcomes():
            return [(r.chi_hat, r.proven_optimal, r.lp_root)
                    for r in (solve_qcbp(g, engine=exact_engine()) for g in graphs)]

        dantzig = outcomes()
        monkeypatch.setattr(rmp, "DEGENERATE_PIVOT_LIMIT", 1)
        bland = outcomes()
        assert [o[:2] for o in bland] == [o[:2] for o in dantzig]
        assert [o[2] for o in bland] == pytest.approx([o[2] for o in dantzig], abs=1e-9)

    def test_objective_never_increases_with_columns(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            g = random_graph(7, 0.4, rng)
            model = RmpModel(g, g.full_mask)
            prev = solve_rmp(model).objective
            for s in all_independent_sets(g):
                if s.bit_count() > 1 and rng.random() < 0.3:
                    model.add([s])
                    obj = solve_rmp(model).objective
                    assert obj <= prev + 1e-9
                    prev = obj

    def test_invariants_on_random_models(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            g = random_graph(int(rng.integers(2, 9)), rng.uniform(0.1, 0.8), rng)
            model = RmpModel(g, g.full_mask)
            extra = [s for s in all_independent_sets(g) if s.bit_count() > 1 and rng.random() < 0.4]
            model.add(extra)
            sol = solve_rmp(model)
            a = np.zeros((g.n, len(model.masks)))
            for j, mask in enumerate(model.masks):
                for v in iter_bits(mask):
                    a[v, j] = 1.0
            assert np.abs(a @ sol.lam - 1.0).max() < 1e-9
            assert abs(sol.objective - sol.duals.sum()) < 1e-7
            assert (a.T @ sol.duals).max() <= 1.0 + 1e-7
            assert sol.lam.min() >= 0.0

    def test_full_pool_matches_highs_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            g = random_graph(int(rng.integers(2, 11)), rng.uniform(0.1, 0.8), rng)
            model = RmpModel(g, g.full_mask)
            model.add([s for s in all_independent_sets(g) if s.bit_count() > 1])
            sol = solve_rmp(model)
            assert abs(sol.objective - lp_oracle(g, model.masks)) < 1e-6

    def test_warm_restart_matches_cold_solve(self):
        # Each re-solve restarts from the previous optimal basis; a fresh model
        # holding the same columns starts from the singletons.
        rng = np.random.default_rng(33)
        for _ in range(60):
            g = random_graph(int(rng.integers(2, 11)), rng.uniform(0.1, 0.8), rng)
            extra = [s for s in all_independent_sets(g) if s.bit_count() > 1]
            rng.shuffle(extra)
            warm = RmpModel(g, g.full_mask)
            solve_rmp(warm)
            for batch in np.array_split(np.array(extra, dtype=object), 4):
                warm.add(list(batch))
                got = solve_rmp(warm).objective
                cold = RmpModel(g, g.full_mask)
                cold.add(warm.masks)
                assert abs(got - solve_rmp(cold).objective) < 1e-9

    def test_rank_one_updates_match_highs_and_a_cold_solve(self, inversions):
        # A cold solve over every independent set of a 12-vertex graph runs
        # about 10-25 pivots, so some of these refactor the tableau after
        # REFACTOR_PIVOTS rank-one updates; every solve takes one inverse for
        # its starting tableau, and all the other pivots are rank-one updates.
        rng = np.random.default_rng(34)
        refactored = 0
        for _ in range(12):
            g = random_graph(12, rng.uniform(0.15, 0.5), rng)
            extra = [s for s in all_independent_sets(g) if s.bit_count() > 1]
            cold = RmpModel(g, g.full_mask)
            cold.add(extra)
            inversions.clear()
            objective = solve_rmp(cold).objective
            refactored += len(inversions) > 1
            assert abs(objective - lp_oracle(g, cold.masks)) < 1e-6
            warm = RmpModel(g, g.full_mask)
            warm.add(extra[::2])
            solve_rmp(warm)
            warm.add(extra)
            assert sorted(warm.masks) == sorted(cold.masks)
            assert abs(solve_rmp(warm).objective - objective) < 1e-9
        assert refactored > 0

    def test_tableau_carried_over_many_rounds_does_not_drift(self, monkeypatch):
        # One model re-solved over rounds of a few new columns each, as column
        # generation does: every round matches HiGHS and a cold solve, and the
        # tableau at each solve's end, after its rank-one updates, matches a
        # fresh factor of its basis. Smaller sets come first, so that later
        # rounds keep improving the master and pivoting: 11-16 of each
        # graph's 40 rounds pivot.
        ends: list[tuple[np.ndarray, ...]] = []

        def simplex(a, tableau, basis):
            start = basis.copy()
            _simplex(a, tableau, basis)
            ends.append((a, tableau.copy(), start, basis.copy()))

        monkeypatch.setattr(rmp, "_simplex", simplex)
        rng = np.random.default_rng(37)
        for _ in range(4):
            g = random_graph(12, rng.uniform(0.15, 0.4), rng)
            extra = [s for s in all_independent_sets(g) if s.bit_count() > 1]
            rng.shuffle(extra)
            extra.sort(key=int.bit_count)
            model = RmpModel(g, g.full_mask)
            solve_rmp(model)
            pivoted = 0
            for batch in np.array_split(np.array(extra, dtype=object), 40):
                model.add(list(batch))
                ends.clear()
                got = solve_rmp(model).objective
                (a, tableau, start, basis), = ends
                pivoted += not np.array_equal(start, basis)
                assert np.array_equal(basis, model._basis)
                assert np.abs(tableau - _factor(a, basis)).max() < 1e-9
                cold = RmpModel(g, g.full_mask)
                cold.add(model.masks)
                assert abs(got - solve_rmp(cold).objective) < 1e-9
                assert abs(got - lp_oracle(g, model.masks)) < 1e-9
            assert pivoted >= 10

    def test_a_solve_depends_only_on_its_columns_and_basis(self):
        # A model solved round by round, and a second model built with the
        # same masks and handed the first one's basis, take the same last
        # batch and solve it bitwise alike: no state but the columns and the
        # basis carries from one solve to the next.
        rng = np.random.default_rng(40)
        for _ in range(10):
            g = random_graph(11, rng.uniform(0.15, 0.4), rng)
            extra = [s for s in all_independent_sets(g) if s.bit_count() > 1]
            rng.shuffle(extra)
            extra.sort(key=int.bit_count)
            *rounds, last = np.array_split(np.array(extra, dtype=object), 12)
            model = RmpModel(g, g.full_mask)
            solve_rmp(model)
            for batch in rounds:
                model.add(list(batch))
                solve_rmp(model)
            fresh = RmpModel(g, g.full_mask, model.masks)
            assert fresh.masks == model.masks
            fresh._basis[:] = model._basis
            model.add(list(last))
            fresh.add(list(last))
            sol, fresh_sol = solve_rmp(model), solve_rmp(fresh)
            assert np.array_equal(sol.lam, fresh_sol.lam)
            assert np.array_equal(sol.duals, fresh_sol.duals)
            assert sol.objective == fresh_sol.objective

    def test_matrix_holds_one_column_per_mask(self):
        g = Graph.from_edges(10, [])
        model = RmpModel(g, g.full_mask)
        assert model.add([s for s in range(1, 1 << g.n) if s.bit_count() == 2]) == 45
        assert len(model.masks) == 10 + 45
        assert model._a.shape == (10, 55)
        assert abs(solve_rmp(model).objective - 5.0) < 1e-9

    @pytest.mark.parametrize("keep", [0, 0b1000])
    def test_keep_outside_the_graph_rejected(self, keep):
        with pytest.raises(ValueError, match="not a nonempty vertex mask"):
            RmpModel(path3(), keep)

    def test_singletons_alone_solve_at_the_size_of_keep(self):
        # A model built with no pool holds its singletons and starts from them.
        g = random_graph(9, 0.4, np.random.default_rng(39))
        keep = 0b110110110
        model = RmpModel(g, keep)
        assert model.masks == [1 << v for v in iter_bits(keep)]
        sol = solve_rmp(model)
        assert sol.objective == keep.bit_count()
        assert sol.duals.tolist() == [float(keep >> v & 1) for v in range(g.n)]

    def test_leaving_row_tie_goes_to_the_smallest_basis_index(self):
        # Row 0 holds column 1 and row 1 holds column 0; column 2 enters with
        # equal ratios in both rows, and row 1 leaves because its column is 0.
        a = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        basis = np.array([1, 0], dtype=np.intp)
        tableau = _factor(a, basis)
        _simplex(a, tableau, basis)
        assert basis.tolist() == [1, 2]
        # the primal values, then the duals off the unit columns 1 and 0
        assert np.allclose(tableau[1:, 0], [0.0, 1.0])
        assert np.allclose(1.0 - tableau[0, [2, 1]], [1.0, 0.0])
        assert np.allclose(tableau, _factor(a, basis))


class TestSubproblemMaster:
    def test_root_mask_master_equals_induced_master(self):
        # Rows follow the vertices of `keep` by rank; with its lowest vertex
        # above 0, a row indexed by vertex number lands on the wrong row or
        # outside the matrix.
        rng = np.random.default_rng(34)
        for _ in range(60):
            g = random_graph(int(rng.integers(3, 11)), rng.uniform(0.1, 0.8), rng)
            keep = int(rng.integers(1, 1 << g.n)) & ~1
            keep = keep or 1 << (g.n - 1)
            columns = [s for s in all_independent_sets(g) if rng.random() < 0.3]
            model = RmpModel(g, keep)
            model.add(columns)
            sub = g.induced_subgraph(keep)
            local = RmpModel(sub, sub.full_mask)
            local.add([restrict_mask(s, keep) for s in columns])
            assert [restrict_mask(m, keep) for m in model.masks] == local.masks
            sol, local_sol = solve_rmp(model), solve_rmp(local)
            assert sol.objective == local_sol.objective
            assert sol.duals.shape == (g.n,)
            assert np.array_equal(sol.duals[list(iter_bits(keep))], local_sol.duals)
            assert not sol.duals[[v for v in range(g.n) if not keep >> v & 1]].any()
