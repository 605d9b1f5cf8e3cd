import pytest

import qcbp.bench
import qcbp.cli
from qcbp.bench import BenchRecord, PricingRow, records_to_csv
from qcbp.cli import main
from qcbp.graphs import Graph


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--ns", "5,6", "--per-n", "2", "--seed", "7"]) == 0
    return out


class TestGen:
    def test_writes_dataset(self, dataset):
        assert (dataset / "manifest.csv").exists()
        assert len(list(dataset.glob("*.dimacs"))) == 4

    def test_only_given_flags_reach_the_generator(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qcbp.cli, "generate_dataset", lambda out, **kw: calls.append((out, kw)) or [])
        assert main(["gen", "--out", "d", "--ns", "5,6", "--ud-fraction", "0.25"]) == 0
        assert main(["gen", "--out", "e"]) == 0
        assert calls == [("d", {"ns": (5, 6), "ud_fraction": 0.25}), ("e", {})]

    def test_two_vertex_perturbed_instances(self, tmp_path, capsys):
        # Each draws up to 3 flips on a graph with one vertex pair.
        out = tmp_path / "out"
        assert main(["gen", "--out", str(out), "--ns", "2", "--per-n", "3", "--ud-fraction", "0"]) == 0
        assert "wrote 3 instances (0 unit-disk)" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, reason", [
        ("--per-n", "0", "per_n must be >= 1"),
        ("--ud-fraction", "3", "ud_fraction must lie in [0, 1]"),
        ("--ns", "5,5", "ns must not repeat a size"),
        ("--ns", "0", "n must be >= 1"),
        ("--box", "0", "box must be positive"),
        ("--box", "inf", "box must be positive"),
        ("--radius", "nan", "radius must be positive"),
        ("--seed", "-1", "seed must be >= 0"),
    ])
    def test_bad_values_exit_2(self, tmp_path, capsys, flag, value, reason):
        assert main(["gen", "--out", str(tmp_path / "out"), flag, value]) == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSolve:
    def test_chi_exact_prints_the_oracle(self, tmp_path, capsys):
        graph = tmp_path / "k4.dimacs"
        g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        graph.write_text(g.to_dimacs())
        assert main(["solve", str(graph), "--sampler", "exact_pricer", "--chi-exact"]) == 0
        out = capsys.readouterr().out
        assert "colors=4" in out and "chi_exact=4" in out

    def test_stochastic_with_pricing_log(self, tmp_path, capsys):
        graph = tmp_path / "p4.dimacs"
        graph.write_text(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]).to_dimacs())
        log = tmp_path / "pricing.csv"
        code = main([
            "solve", str(graph), "--sampler", "classical_stochastic",
            "--shots", "20", "--pricing-log", str(log),
        ])
        assert code == 0
        assert "colors=2" in capsys.readouterr().out
        lines = log.read_text().splitlines()
        assert lines[0] == "instance,iteration,n_sub,shots,distinct_bitstrings,improving,maximal"
        assert len(lines) > 1 and all(line.startswith("p4,") for line in lines[1:])

    def test_budget_stop_prints_its_reason(self, tmp_path, capsys):
        # Groetzsch graph: chi 4 above its LP bound 2.9, so one node cannot prove it
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
        edges += [(10, 5 + i) for i in range(5)]
        graph = tmp_path / "groetzsch.dimacs"
        graph.write_text(Graph.from_edges(11, edges).to_dimacs())
        assert main(["solve", str(graph), "--node-budget", "1", "--sampler", "exact_pricer"]) == 0
        out = capsys.readouterr().out
        assert "proven_optimal=false" in out and "unproven_reason=budget" in out
        assert "exact_calls=" in out and "ilp_calls" not in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        graph = tmp_path / "p3.dimacs"
        graph.write_text(Graph.from_edges(3, [(0, 1), (1, 2)]).to_dimacs())
        conf = tmp_path / "run.conf"
        conf.write_text("sampler = classical_stochastic\nshots = 11\n")
        assert main(["solve", str(graph), "--config", str(conf), "--sampler", "exact_pricer"]) == 0
        out = capsys.readouterr().out
        assert "sampler=exact_pricer" in out and "shots=0" in out

    def test_count_below_one_errors(self, tmp_path, capsys):
        graph = tmp_path / "p3.dimacs"
        graph.write_text(Graph.from_edges(3, [(0, 1), (1, 2)]).to_dimacs())
        assert main(["solve", str(graph), "--hcg-max-iterations", "0"]) == 2
        assert "error: hcg_max_iterations must be >= 1" in capsys.readouterr().err

    def test_zero_embed_restarts_errors(self, tmp_path, capsys):
        graph = tmp_path / "p3.dimacs"
        graph.write_text(Graph.from_edges(3, [(0, 1), (1, 2)]).to_dimacs())
        assert main(["solve", str(graph), "--embed-restarts", "0"]) == 2
        assert "error: embed_restarts must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
    def test_bad_register_radius_errors(self, tmp_path, capsys, value):
        graph = tmp_path / "p3.dimacs"
        graph.write_text(Graph.from_edges(3, [(0, 1), (1, 2)]).to_dimacs())
        assert main(["solve", str(graph), "--register-radius", value]) == 2
        assert "error: register_radius must be" in capsys.readouterr().err

    def test_negative_seed_errors(self, tmp_path, capsys):
        graph = tmp_path / "p3.dimacs"
        graph.write_text(Graph.from_edges(3, [(0, 1), (1, 2)]).to_dimacs())
        assert main(["solve", str(graph), "--seed", "-1"]) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_instance_name_that_would_split_the_pricing_log_errors(self, tmp_path, capsys):
        # `report` splits each row at its commas, so the stem "c5,x" would
        # read as two fields; the solve writes no log instead
        graph, log = tmp_path / "c5,x.dimacs", tmp_path / "pricing.csv"
        graph.write_text(Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]).to_dimacs())
        assert main(["solve", str(graph), "--sampler", "classical_stochastic",
                     "--pricing-log", str(log)]) == 2
        captured = capsys.readouterr()
        assert "error: CSV value 'c5,x' holds a comma or a line break" in captured.err
        assert captured.out == "" and not log.exists()

    def test_instance_name_is_checked_before_a_solve_that_logs_no_row(self, tmp_path, capsys):
        # the exact pricer writes no pricing row, so the name is checked up front
        graph, log = tmp_path / "c5,x.dimacs", tmp_path / "pricing.csv"
        graph.write_text(Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]).to_dimacs())
        assert main(["solve", str(graph), "--sampler", "exact_pricer", "--pricing-log", str(log)]) == 2
        captured = capsys.readouterr()
        assert "error: CSV value 'c5,x' holds a comma or a line break" in captured.err
        assert captured.out == "" and not log.exists()

    def test_chi_exact_above_the_oracle_cap_errors_before_the_solve(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(qcbp.cli, "solve_qcbp", lambda *args, **kwargs: pytest.fail("solved"))
        graph = tmp_path / "e21.dimacs"
        graph.write_text(Graph.from_edges(21, []).to_dimacs())
        assert main(["solve", str(graph), "--sampler", "exact_pricer", "--chi-exact"]) == 2
        captured = capsys.readouterr()
        assert "error: exact oracle capped at 20 vertices, got 21" in captured.err
        assert captured.out == ""

    def test_bad_number_names_its_flag(self, tmp_path, capsys):
        graph = tmp_path / "p3.dimacs"
        graph.write_text(Graph.from_edges(3, [(0, 1), (1, 2)]).to_dimacs())
        assert main(["solve", str(graph), "--shots", "abc"]) == 2
        assert "config key 'shots': invalid literal for int()" in capsys.readouterr().err

    def test_repeated_config_key_errors(self, tmp_path, capsys):
        graph = tmp_path / "p3.dimacs"
        graph.write_text(Graph.from_edges(3, [(0, 1), (1, 2)]).to_dimacs())
        conf = tmp_path / "run.conf"
        conf.write_text("shots = 5\nshots = 7\n")
        assert main(["solve", str(graph), "--config", str(conf)]) == 2
        assert "config line 2: key 'shots' repeats line 1" in capsys.readouterr().err

    def test_non_integer_edge_endpoint_names_its_line(self, tmp_path, capsys):
        graph = tmp_path / "bad.dimacs"
        graph.write_text("p edge 3 2\ne 1 2\ne 2 x\n")
        assert main(["solve", str(graph)]) == 2
        assert "error: line 3: malformed edge line 'e 2 x'" in capsys.readouterr().err

    def test_missing_file_errors(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.dimacs")]) == 2
        assert "error:" in capsys.readouterr().err


class TestBenchReport:
    def test_bench_then_report(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "bench", "--dataset", str(dataset), "--out", str(out),
            "--sampler", "classical_stochastic", "--shots", "20",
        ])
        assert code == 0
        assert (out / "records.csv").exists()
        capsys.readouterr()
        code = main(["report", "--records", str(out / "records.csv"),
                     "--pricing-log", str(out / "pricing_log.csv")])
        assert code == 0
        assert "optimality rate" in capsys.readouterr().out

    def test_report_reads_a_solve_pricing_log(self, dataset, tmp_path, capsys):
        out, log = tmp_path / "out", tmp_path / "solve_log.csv"
        assert main(["bench", "--dataset", str(dataset), "--out", str(out),
                     "--sampler", "classical_stochastic", "--shots", "20"]) == 0
        assert main(["solve", str(dataset / "n06_ud_00.dimacs"), "--sampler", "classical_stochastic",
                     "--shots", "20", "--pricing-log", str(log)]) == 0
        capsys.readouterr()
        assert main(["report", "--records", str(out / "records.csv"), "--pricing-log", str(log)]) == 0
        assert "sampler quality by subproblem size" in capsys.readouterr().out

    def test_negative_seed_errors(self, dataset, tmp_path, capsys):
        code = main(["bench", "--dataset", str(dataset), "--out", str(tmp_path / "o"),
                     "--seed", "-3", "--sampler", "exact_pricer"])
        assert code == 2
        assert "error: seed must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_sampler_errors(self, dataset, tmp_path, capsys):
        code = main(["bench", "--dataset", str(dataset), "--out", str(tmp_path / "o"),
                     "--sampler", "quantum"])
        assert code == 2
        assert "error: unknown sampler kind 'quantum'" in capsys.readouterr().err

    def test_instance_above_the_oracle_cap_errors_before_any_solve(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        assert main(["gen", "--out", str(data), "--ns", "8,21", "--per-n", "2"]) == 0
        monkeypatch.setattr(qcbp.bench, "solve_qcbp", lambda *args, **kwargs: pytest.fail("solved"))
        code = main(["bench", "--dataset", str(data), "--out", str(tmp_path / "o"),
                     "--sampler", "exact_pricer"])
        assert code == 2
        assert "error: exact oracle capped at 20 vertices, got 21" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestMalformedRows:
    """A malformed CSV row exits 2 naming its file line (the header is line 1),
    the field counts, or the column whose value does not parse."""

    RECORD = "x,5,true,2,3,0.5,false,100,4,2,1,2,0,,12.5"
    PRICING = "x,1,5,200,7,3,2"

    @pytest.mark.parametrize("target, row, reason", [
        ("records", RECORD.rpartition(",")[0], "line 3: expected 15 fields, found 14"),
        ("records", RECORD + ",7", "line 3: expected 15 fields, found 16"),
        ("records", RECORD.replace("true", "ture"),
         "line 3: column 'is_ud': expected a boolean (true or false), got 'ture'"),
        ("pricing_log", PRICING.rpartition(",")[0], "line 3: expected 7 fields, found 6"),
        ("pricing_log", PRICING + ",1", "line 3: expected 7 fields, found 8"),
        ("pricing_log", PRICING.replace("200", "many"), "line 3: column 'shots': invalid literal"),
    ])
    def test_report_names_the_line(self, tmp_path, capsys, target, row, reason):
        files = {"records": (BenchRecord, [self.RECORD]), "pricing_log": (PricingRow, [self.PRICING])}
        files[target][1].append(row)
        for name, (cls, rows) in files.items():
            (tmp_path / f"{name}.csv").write_text(records_to_csv([], cls) + "".join(r + "\n" for r in rows))
        assert main(["report", "--records", str(tmp_path / "records.csv"),
                     "--pricing-log", str(tmp_path / "pricing_log.csv")]) == 2
        assert f"error: {reason}" in capsys.readouterr().err

    def test_bench_names_the_manifest_line(self, dataset, tmp_path, capsys):
        manifest = dataset / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[2] = lines[2].rpartition(",")[0]
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["bench", "--dataset", str(dataset), "--out", str(tmp_path / "o"),
                     "--sampler", "exact_pricer"]) == 2
        assert "error: line 3: expected 6 fields, found 5" in capsys.readouterr().err
