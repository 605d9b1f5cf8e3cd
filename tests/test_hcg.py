from dataclasses import replace

import numpy as np
import pytest

import qcbp.hcg
from qcbp.config import RunConfig
from qcbp.graphs import Graph, expand_mask, iter_bits, random_ud_graph
from qcbp.hcg import run_hcg
from qcbp.pricing import IMPROVE_EPS, PricingEngine
from qcbp.rmp import ColumnPool

from builders import complete, cycle, exact_engine, random_graph, stochastic_engine
from oracles import all_independent_sets, lp_oracle


def run_root(g: Graph, engine: PricingEngine, pool: ColumnPool | None = None):
    pool = ColumnPool() if pool is None else pool
    return run_hcg(g, g.full_mask, pool, engine)


@pytest.fixture
def covers(monkeypatch):
    """Counts the clique covers that certified a round ("tight") and those
    that weighed above 1 + IMPROVE_EPS and so sent it to the exact pricer
    ("loose")."""
    counts = {"tight": 0, "loose": 0}
    real_cover = qcbp.hcg.clique_cover_weight

    def counting(*args):
        weight = real_cover(*args)
        counts["loose" if weight > 1.0 + IMPROVE_EPS else "tight"] += 1
        return weight

    monkeypatch.setattr(qcbp.hcg, "clique_cover_weight", counting)
    return counts


@pytest.fixture
def exact_calls(monkeypatch):
    """The weights of every exact pricer call the run made."""
    calls = []
    real_exact_mwis = qcbp.hcg.exact_mwis

    def counting(g, weights):
        calls.append(weights)
        return real_exact_mwis(g, weights)

    monkeypatch.setattr(qcbp.hcg, "exact_mwis", counting)
    return calls


@pytest.fixture
def masters(monkeypatch):
    """Every master solution the runs computed, the last one last."""
    solutions = []
    real_solve_rmp = qcbp.hcg.solve_rmp

    def recording(model):
        solutions.append(real_solve_rmp(model))
        return solutions[-1]

    monkeypatch.setattr(qcbp.hcg, "solve_rmp", recording)
    return solutions


class TestSmallGraphs:
    def test_edgeless_terminates_at_one(self):
        g = Graph.from_edges(4, [])
        pool = ColumnPool()
        res = run_root(g, exact_engine(), pool)
        assert res.certified
        assert res.lp_bound == pytest.approx(1.0, abs=1e-9)
        assert g.full_mask in pool.columns

    def test_triangle_stays_at_three(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        res = run_root(g, exact_engine())
        assert res.certified
        assert res.lp_bound == pytest.approx(3.0, abs=1e-9)

    def test_path3_reaches_two(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        res = run_root(g, exact_engine())
        assert res.certified
        assert res.lp_bound == pytest.approx(2.0, abs=1e-9)

    def test_single_vertex(self, exact_calls):
        # the clique cover {0} weighs 1 and certifies the first round
        res = run_root(Graph.from_edges(1, []), exact_engine())
        assert res.certified and res.lp_bound == pytest.approx(1.0)
        assert res.exact_calls == len(exact_calls) == 0


    def test_rising_master_objective_raises(self, monkeypatch):
        # the master's objective can only fall as columns are added
        solutions = []
        real_solve_rmp = qcbp.hcg.solve_rmp

        def rising(model):
            sol = real_solve_rmp(model)
            if solutions:
                sol = replace(sol, objective=solutions[0].objective + 1.0)
            solutions.append(sol)
            return sol

        monkeypatch.setattr(qcbp.hcg, "solve_rmp", rising)
        with pytest.raises(RuntimeError, match="master objective increased 5.0 -> 6.0"):
            run_root(cycle(5), exact_engine())


class TestCertificates:
    def test_certified_bound_matches_full_lp(self):
        rng = np.random.default_rng(70)
        for engine_maker in (exact_engine, stochastic_engine):
            for _ in range(12):
                n = int(rng.integers(3, 13))
                g = random_graph(n, rng.uniform(0.15, 0.7), rng)
                res = run_root(g, engine_maker())
                assert res.certified
                assert res.lp_bound == pytest.approx(lp_oracle(g, all_independent_sets(g)), abs=1e-6)

    def test_certified_bound_is_farleys_and_never_above_the_full_lp(self, masters):
        # The pricer certifies max weight <= 1 + 1e-6 only, so the master's
        # objective may sit above the LP; Farley's bound may not.
        rng = np.random.default_rng(77)
        for engine_maker in (exact_engine, stochastic_engine):
            for _ in range(15):
                g = random_graph(int(rng.integers(1, 13)), rng.uniform(0.1, 0.8), rng)
                res = run_root(g, engine_maker())
                assert res.certified
                lp = lp_oracle(g, all_independent_sets(g))
                assert lp - 1e-6 <= res.lp_bound <= lp + 1e-9
                assert res.lp_bound <= masters[-1].objective + 1e-12

    def test_certificate_means_no_improving_set(self, masters):
        rng = np.random.default_rng(71)
        for _ in range(10):
            g = random_graph(8, 0.4, rng)
            res = run_root(g, stochastic_engine(int(rng.integers(1 << 20))))
            assert res.certified
            duals = masters[-1].duals
            best = max(
                (sum(duals[v] for v in iter_bits(s)) for s in range(1, 1 << g.n) if g.is_independent(s)),
            )
            assert best <= 1 + 1e-6

    def test_exact_calls_on_certificate(self, covers):
        # An exact call runs only when the clique cover is too loose to
        # certify; on an odd hole it always is at the final duals.
        rng = np.random.default_rng(72)
        graphs = [(random_graph(7, 0.5, rng), False) for _ in range(10)] + [(cycle(5), True), (cycle(7), True)]
        for g, odd_hole in graphs:
            covers.update(tight=0, loose=0)
            res = run_root(g, stochastic_engine(int(rng.integers(1 << 20))))
            assert res.certified
            assert res.exact_calls == covers["loose"]
            if odd_hole:
                assert res.exact_calls >= 1 and covers["tight"] == 0

    def test_clique_certifies_by_the_cover(self, exact_calls):
        res = run_root(complete(4), exact_engine())
        assert res.certified and res.lp_bound == pytest.approx(4.0, abs=1e-9)
        assert res.exact_calls == len(exact_calls) == 0

    def test_odd_hole_reaches_the_exact_pricer(self, exact_calls):
        # At C5's final duals (0.5 each) the cover weighs 1.5, so only the
        # exact pricer can certify
        res = run_root(cycle(5), exact_engine())
        assert res.certified and res.lp_bound == pytest.approx(2.5, abs=1e-9)
        assert res.exact_calls == len(exact_calls) >= 1

    def test_cover_certified_bound_stays_within_the_lp(self, covers):
        rng = np.random.default_rng(78)
        by_cover = 0
        for engine_maker in (exact_engine, stochastic_engine):
            for _ in range(15):
                g = random_graph(int(rng.integers(1, 12)), rng.uniform(0.1, 0.8), rng)
                covers.update(tight=0, loose=0)
                res = run_root(g, engine_maker())
                assert res.certified
                if covers["tight"]:
                    by_cover += 1
                    lp = lp_oracle(g, all_independent_sets(g))
                    assert lp - 1e-6 <= res.lp_bound <= lp + 1e-9
        assert by_cover > 0


@pytest.fixture
def greedy_answers(monkeypatch):
    """Counts the rounds the greedy pricer answered, so no exact call ran."""
    answered = [0]
    real_greedy = qcbp.hcg.greedy_columns

    def counting(*args):
        found = real_greedy(*args)
        answered[0] += bool(found)
        return found

    monkeypatch.setattr(qcbp.hcg, "greedy_columns", counting)
    return answered


class TestAccounting:
    def test_shots_match_log(self):
        rng = np.random.default_rng(73)
        g = random_graph(9, 0.4, rng)
        engine = stochastic_engine(5)
        res = run_root(g, engine)
        # A row is a draw at the configured shots or a recall from the sample
        # memory, which draws nothing.
        assert all((row.shots == engine.config.shots and row.distinct_bitstrings > 0)
                   or row.shots == row.distinct_bitstrings == 0 for row in res.pricing_log)
        assert 1 <= len(res.pricing_log) <= res.iterations

    def test_exact_pricer_mode_uses_no_shots(self, greedy_answers, covers):
        # Every round the greedy leaves goes to the clique cover; only the
        # loose covers reach the exact pricer.
        g = random_graph(8, 0.4, np.random.default_rng(74))
        res = run_root(g, exact_engine())
        assert res.pricing_log == []
        assert greedy_answers[0] > 0
        assert covers["tight"] + covers["loose"] == res.iterations - greedy_answers[0]
        assert res.exact_calls == covers["loose"]

    def test_iteration_cap_flags_uncertified(self):
        g = random_graph(9, 0.35, np.random.default_rng(75))
        pool = ColumnPool()
        res = run_hcg(g, g.full_mask, pool, exact_engine(hcg_max_iterations=1))
        assert not res.certified or res.iterations <= 1

    def test_capped_bound_stays_below_the_lp(self, greedy_answers):
        # An unfinished master's objective is an upper bound on the LP; the
        # capped run must report a lower one (Farley's).
        rng = np.random.default_rng(76)
        capped = 0
        for cap in (1, 2):
            for _ in range(8):
                g = random_graph(int(rng.integers(5, 10)), rng.uniform(0.2, 0.7), rng)
                greedy_answers[0] = 0
                res = run_hcg(g, g.full_mask, ColumnPool(), exact_engine(hcg_max_iterations=cap))
                assert res.lp_bound <= lp_oracle(g, all_independent_sets(g)) + 1e-9
                if not res.certified:
                    capped += 1
                    # the bound's own exact MWIS call is counted
                    assert res.exact_calls == res.iterations - greedy_answers[0] + 1
        assert capped > 0

    def test_greedy_answers_the_first_round(self):
        # Round 1 prices the singleton basis (every dual 1). The greedy grows
        # the full set from every vertex, so it enters once and no exact call
        # runs but the capped run's bound call.
        g = Graph.from_edges(4, [])
        pool = ColumnPool()
        res = run_hcg(g, g.full_mask, pool, exact_engine(hcg_max_iterations=1))
        assert res.iterations == 1 and res.exact_calls == 1
        assert pool.columns == [0b1111]

    def test_caps_below_one_rejected(self):
        with pytest.raises(ValueError, match="hcg_max_iterations must be >= 1"):
            RunConfig(hcg_max_iterations=0)


class TestSubproblemIndexing:
    def test_columns_translate_to_root(self):
        g, _ = random_ud_graph(9, seed=11, radius=10, box=30)
        keep = 0b101110110
        pool = ColumnPool()
        res = run_hcg(g, keep, pool, exact_engine())
        assert res.certified
        priced = [mask for mask in pool.columns if mask.bit_count() > 1]
        assert priced
        for mask in priced:
            assert mask & ~keep == 0
            assert g.is_independent(mask)


    @pytest.mark.parametrize("make_engine", [exact_engine, stochastic_engine])
    def test_root_masks_match_a_run_on_the_induced_subgraph(self, make_engine):
        rng = np.random.default_rng(77)
        for _ in range(12):
            g = random_graph(int(rng.integers(4, 11)), rng.uniform(0.2, 0.7), rng)
            keep = (int(rng.integers(1, 1 << g.n)) & ~1) or 1 << (g.n - 1)
            sub = g.induced_subgraph(keep)
            pool, local_pool = ColumnPool(), ColumnPool()
            res = run_hcg(g, keep, pool, make_engine())
            local = run_hcg(sub, sub.full_mask, local_pool, make_engine())
            assert (res.lp_bound, res.iterations, res.certified, res.exact_calls) == (
                local.lp_bound, local.iterations, local.certified, local.exact_calls)
            assert res.pricing_log == local.pricing_log
            assert [m for m in pool.columns if m & keep == m] == [expand_mask(m, keep) for m in local_pool.columns]
            assert res.columns == [expand_mask(m, keep) for m in local.columns]


class TestEmulatedEndToEnd:
    def test_ud_instance_certifies(self, covers):
        g, _ = random_ud_graph(6, seed=12, radius=10, box=22)
        cfg = RunConfig(
            sampler="emulated_qaa", shots=120, seed=4,
            register_radius=10.0, embed_iterations=800, embed_restarts=2, dt=2e-3,
        )
        res = run_root(g, PricingEngine(cfg))
        assert res.certified
        assert res.lp_bound == pytest.approx(lp_oracle(g, all_independent_sets(g)), abs=1e-6)
        assert res.exact_calls == covers["loose"]
        assert sum(row.shots for row in res.pricing_log) > 0
