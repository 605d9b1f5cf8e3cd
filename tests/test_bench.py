import itertools
import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import qcbp.pricing
from qcbp.bench import (
    BenchRecord,
    InstanceRecord,
    PositionRecord,
    PricingRow,
    RunConfig,
    generate_dataset,
    make_run_config,
    parse_config_file,
    parse_csv,
    pricing_rows,
    records_to_csv,
    run_benchmark,
    summarize,
)
from qcbp.config import MAX_STEPS, PULSE_DURATION_US
from qcbp.graphs import parse_dimacs, pairwise_distances
from qcbp.pricing import PricingEngine, PricingStats

from builders import cycle


def read_positions(path) -> np.ndarray:
    """The x, y columns of a positions CSV, rows in vertex order."""
    records = parse_csv(PositionRecord, path.read_text())
    assert [r.vertex for r in records] == list(range(len(records)))
    return np.array([(r.x_um, r.y_um) for r in records])


# One out-of-range value per RunConfig field.
BAD_VALUES = {"sampler": "hardware", "shots": 0, "seed": -1, "node_budget": 0, "dt": 0.0}


def counter_clock():
    ticker = itertools.count()
    return lambda: float(next(ticker))


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.sampler == "emulated_qaa"
        assert (cfg.shots, cfg.seed, cfg.node_budget, cfg.dt) == (200, 0, 1000, 1 / 300)

    def test_every_field_has_a_checked_range(self):
        assert BAD_VALUES.keys() == {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("name", list(BAD_VALUES))
    def test_range_error_names_its_field(self, name):
        with pytest.raises(ValueError, match=rf"\b{name}\b") as err:
            RunConfig(**{name: BAD_VALUES[name]})
        if name == "seed":  # numpy's seed streams take no negative entry, so it is refused here
            assert str(err.value) == "seed must be >= 0, got -1"

    @pytest.mark.parametrize("name, value", [
        ("shots", 2.5), ("seed", 1.5), ("node_budget", 1.5), ("shots", True), ("seed", np.float64(2.0)),
        ("dt", "0.1"),
    ])
    def test_wrong_type_names_its_field(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an? (integer|real number), got "):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [("dt", 10**400)])
    def test_int_beyond_float_range_names_its_field(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got an integer of 1329 bits$"):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("shots", np.int64(7)), ("seed", np.uint8(3)), ("node_budget", np.int32(5)),
        ("dt", 1),
    ])
    def test_numpy_integers_and_ints_for_float_fields_accepted(self, name, value):
        assert getattr(RunConfig(**{name: value}), name) == value

    def test_sampler_and_solver_config_are_the_config(self):
        cfg = RunConfig(shots=7)
        assert cfg.sampler_config() is cfg and cfg.solver_config() is cfg
        assert cfg.sampler_config(seed=5) == replace(cfg, seed=5)

    def test_every_layer_reads_the_engines_config(self, monkeypatch):
        # The layout and the pulse take no config; a draw that fell back to
        # RunConfig() would evolve at a time step or sample a shot count the
        # run did not ask for.
        received: dict[str, list] = {}

        def recording(name, real):
            def record(*args):
                received.setdefault(name, []).append(args)
                return real(*args)
            return record

        for name in ("evolve", "sample"):
            monkeypatch.setattr(qcbp.pricing, name, recording(name, getattr(qcbp.pricing, name)))
        cfg = RunConfig(shots=7, seed=3, dt=2e-3)
        _, stats = PricingEngine(cfg).sample_columns(cycle(5), 0b11111, [0.5] * 5, {})
        assert stats.shots == 7
        assert len(received["evolve"]) == 1 and received["evolve"][0][2] is cfg
        assert [args[1] for args in received["sample"]] == [7]

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_fields_cannot_be_assigned(self, name):
        # a field set after construction would skip the checks made there
        cfg = RunConfig()
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))

    def test_bad_sampler(self):
        with pytest.raises(ValueError, match="sampler"):
            RunConfig(sampler="hardware")

    def test_config_file_parsing(self):
        settings = parse_config_file("sampler = exact_pricer\n# comment\nshots=50\n\ndt = 0.002\n")
        cfg = make_run_config(settings)
        assert cfg.sampler == "exact_pricer" and cfg.shots == 50 and cfg.dt == 0.002

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            make_run_config({"qubits": "3"})

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file("just words\n")

    def test_repeated_key_rejected_with_both_lines(self):
        with pytest.raises(ValueError, match="config line 4: key 'shots' repeats line 1"):
            parse_config_file("shots=5\nseed = 2\n# shots=6\nshots = 7\n")

    @pytest.mark.parametrize("key, value", [
        ("shots", "abc"), ("node_budget", "1.5"), ("dt", "fast"),
    ])
    def test_coercion_failure_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}': .*{value}"):
            make_run_config({key: value})

    @pytest.mark.parametrize("key", ["node_budget", "shots"])
    def test_counts_below_one_rejected(self, key):
        with pytest.raises(ValueError, match=">= 1"):
            make_run_config({key: "0"})

    @pytest.mark.parametrize("key, value", [("dt", "nan"), ("dt", "inf")])
    def test_nonfinite_emulator_knobs_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            make_run_config({key: value})

    @pytest.mark.parametrize("dt, reason", [
        (0.0, "dt must be positive"),
        (-1e-3, "dt must be positive"),
        (math.nan, "dt must be finite"),
        (math.inf, "dt must be finite"),
        (1e-9, f"^dt makes 3000000000 steps of the 3.0 us pulse, above {MAX_STEPS}: evolve's per-step"),
        (PULSE_DURATION_US / (MAX_STEPS + 1), f"^dt makes 100001 steps of the 3.0 us pulse, above {MAX_STEPS}"),
        (5e-324, f"^dt makes inf steps of the 3.0 us pulse, above {MAX_STEPS}"),  # its step count overflows
    ], ids=["zero", "negative", "nan", "inf", "1e-9", "one-step-over", "subnormal"])
    def test_dt_out_of_range_rejected(self, dt, reason):
        with pytest.raises(ValueError, match=reason):
            RunConfig(dt=dt)

    def test_dt_of_max_steps_accepted(self):
        # A pulse of MAX_STEPS steps is in range (built, never evolved here).
        RunConfig(dt=PULSE_DURATION_US / MAX_STEPS)


class TestDataset:
    def test_counts_and_flags(self, tmp_path):
        records = generate_dataset(tmp_path, ns=(5, 6), per_n=4, ud_fraction=0.5, seed=1)
        assert len(records) == 8
        assert sum(r.is_ud for r in records) == 4
        manifest = parse_csv(InstanceRecord, (tmp_path / "manifest.csv").read_text())
        assert manifest == records

    def test_files_parse_back(self, tmp_path):
        records = generate_dataset(tmp_path, ns=(6,), per_n=2, seed=2)
        for rec in records:
            g = parse_dimacs((tmp_path / rec.graph_file).read_text())
            assert g.n == rec.n
            pos = read_positions(tmp_path / rec.positions_file)
            assert len(pos) == rec.n

    def test_ud_flag_truthful(self, tmp_path):
        records = generate_dataset(tmp_path, ns=(7,), per_n=4, ud_fraction=0.5, seed=3, radius=10)
        for rec in records:
            g = parse_dimacs((tmp_path / rec.graph_file).read_text())
            dist = pairwise_distances(read_positions(tmp_path / rec.positions_file))
            matches = all(
                bool(g.adj[u] >> v & 1) == (dist[u, v] <= 10)
                for u in range(g.n)
                for v in range(u + 1, g.n)
            )
            assert matches == rec.is_ud

    def test_per_n_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="per_n must be >= 1"):
            generate_dataset(tmp_path / "out", per_n=0)
        assert not (tmp_path / "out").exists()

    def test_repeated_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ns must not repeat a size"):
            generate_dataset(tmp_path / "out", ns=(5, 5), per_n=1)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("options, reason", [
        ({"ns": (5, 0)}, "n must be >= 1"),
        ({"radius": -1.0}, "radius must be positive"),
        ({"box": 1.0}, "could not place"),
        ({"box": 0.0}, "box must be positive"),
        ({"box": math.inf}, "box must be positive"),
        ({"radius": math.nan}, "radius must be positive"),
        ({"box": 10**400}, "box must be positive"),
    ])
    def test_bad_instance_parameters_write_nothing(self, tmp_path, options, reason):
        with pytest.raises((ValueError, RuntimeError), match=reason):
            generate_dataset(tmp_path / "out", **options)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
    def test_ud_fraction_outside_unit_interval_rejected(self, tmp_path, value):
        with pytest.raises(ValueError, match=r"ud_fraction must lie in \[0, 1\]"):
            generate_dataset(tmp_path / "out", ud_fraction=value)
        assert not (tmp_path / "out").exists()

    def test_regeneration_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(a, ns=(5, 6), per_n=3, seed=4)
        generate_dataset(b, ns=(5, 6), per_n=3, seed=4)
        for path_a in sorted(a.iterdir()):
            assert path_a.read_bytes() == (b / path_a.name).read_bytes()


class TestBenchmark:
    @pytest.fixture()
    def small_dataset(self, tmp_path):
        generate_dataset(tmp_path, ns=(5, 6), per_n=2, ud_fraction=0.5, seed=5)
        return tmp_path

    def test_exact_pricer_gap_zero(self, small_dataset):
        cfg = RunConfig(sampler="exact_pricer")
        records, rows = run_benchmark(small_dataset, cfg, clock=counter_clock())
        assert all(r.gap == 0.0 and r.proven for r in records)
        assert all(r.shots == 0 for r in records) and rows == []

    def test_qcbp_mode_stochastic(self, small_dataset, tmp_path):
        out = tmp_path / "out"
        cfg = RunConfig(sampler="classical_stochastic", shots=30, seed=1)
        records, pricing = run_benchmark(small_dataset, cfg, out_dir=out, clock=counter_clock())
        assert all(r.chi_hat >= r.chi_exact for r in records)
        assert (out / "records.csv").exists()
        assert (out / "pricing_log.csv").exists()
        assert (out / "summary.txt").exists()
        parsed = parse_csv(BenchRecord, (out / "records.csv").read_text())
        assert parsed == records

    def test_node_budget_one_is_root_only(self, small_dataset):
        # the paper's HCG baseline: root column generation plus the primal heuristic
        cfg = RunConfig(sampler="classical_stochastic", shots=30, seed=2, node_budget=1)
        records, _ = run_benchmark(small_dataset, cfg, clock=counter_clock())
        assert all(r.nodes_generated == 1 and r.nodes_explored == 1 for r in records)
        assert all(r.chi_hat >= r.chi_exact for r in records)

    def test_deterministic_with_fixed_clock(self, small_dataset):
        cfg = RunConfig(sampler="classical_stochastic", shots=25, seed=3)
        rec_a, rows_a = run_benchmark(small_dataset, cfg, clock=counter_clock())
        rec_b, rows_b = run_benchmark(small_dataset, cfg, clock=counter_clock())
        assert records_to_csv(rec_a, BenchRecord) == records_to_csv(rec_b, BenchRecord)
        assert rows_a == rows_b

    def test_csv_headers_pinned(self, small_dataset, tmp_path):
        out = tmp_path / "out"
        run_benchmark(small_dataset, RunConfig(sampler="exact_pricer"), out_dir=out, clock=counter_clock())
        records_header = ("instance,n,is_ud,chi_exact,chi_hat,gap,proven,shots,"
                          "nodes_generated,nodes_explored,nodes_pruned,exact_calls,uncertified_nodes,"
                          "unproven_reason,wall_ms")
        manifest_header = "instance,n,is_ud,seed,graph_file,positions_file"
        pricing_header = "instance,iteration,n_sub,shots,distinct_bitstrings,improving,maximal"
        assert tuple(records_to_csv([], cls) for cls in (BenchRecord, InstanceRecord, PricingRow)) == (
            records_header + "\n", manifest_header + "\n", pricing_header + "\n")
        assert (out / "records.csv").read_text().splitlines()[0] == records_header
        assert (small_dataset / "manifest.csv").read_text().splitlines()[0] == manifest_header
        assert (out / "pricing_log.csv").read_text() == pricing_header + "\n"

    def test_csv_round_trip(self):
        unproven = BenchRecord("x", 5, True, 2, 3, 0.5, False, 100, 4, 2, 1, 2, 1, "budget", 12.5)
        proven = replace(unproven, proven=True, uncertified_nodes=0, unproven_reason="")
        assert records_to_csv([unproven, proven], BenchRecord).splitlines()[1:] == [
            "x,5,true,2,3,0.5,false,100,4,2,1,2,1,budget,12.5", "x,5,true,2,3,0.5,true,100,4,2,1,2,0,,12.5"]
        assert parse_csv(BenchRecord, records_to_csv([unproven, proven], BenchRecord)) == [unproven, proven]
        with pytest.raises(ValueError):
            parse_csv(BenchRecord, records_to_csv([unproven], BenchRecord).replace("12.5", "12.5,7"))
        flipped = replace(unproven, is_ud=False, proven=True)
        assert parse_csv(BenchRecord, records_to_csv([flipped], BenchRecord)) == [flipped]

    def test_pricing_rows_round_trip(self, small_dataset):
        _, rows = run_benchmark(small_dataset, RunConfig(sampler="classical_stochastic", shots=25, seed=4),
                                clock=counter_clock())
        assert rows and all(isinstance(row, PricingRow) for row in rows)
        assert parse_csv(PricingRow, records_to_csv(rows, PricingRow)) == rows

    def test_pricing_row_is_the_instance_then_the_stats(self):
        assert tuple(f.name for f in fields(PricingRow)) == ("instance", *(f.name for f in fields(PricingStats)))
        assert pricing_rows("x", [PricingStats(1, 5, 10, 3, 1, 1)]) == [PricingRow("x", 1, 5, 10, 3, 1, 1)]

    @pytest.mark.parametrize("name", ["c5,x", "a\nb", "a\r", "a\x0bb", "a\u2028b"])
    def test_string_that_would_split_a_row_rejected(self, name):
        # `parse_csv` splits rows at commas and lines as `str.splitlines` does
        with pytest.raises(ValueError, match="holds a comma or a line break"):
            records_to_csv([BenchRecord(name, 5, True, 2, 3, 0.5, True, 100, 4, 2, 1, 2, 0, "", 1.0)], BenchRecord)
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            records_to_csv(pricing_rows(name, [PricingStats(1, 5, 10, 3, 1, 1)]), PricingRow)

    @pytest.mark.parametrize("value", ["ture", "", "2", "y", "TRUE", "1", "yes"])
    def test_unknown_csv_boolean_rejected(self, value):
        row = f"x,5,{value},2,3,0.5,false,100,4,2,1,2,0,,12.5"
        with pytest.raises(ValueError, match=f"expected a boolean \\(true or false\\), got {value!r}"):
            parse_csv(BenchRecord, records_to_csv([], BenchRecord) + row + "\n")

    def test_summary_sections(self, small_dataset):
        records, pricing = run_benchmark(
            small_dataset, RunConfig(sampler="classical_stochastic", shots=25, seed=4),
            clock=counter_clock(),
        )
        text = summarize(records, pricing)
        assert "optimality rate" in text
        assert "mean relative gap" in text
        assert "exact-pricer calls" in text

    def test_sampler_quality_sums_the_pricing_rows(self, small_dataset):
        records, pricing = run_benchmark(
            small_dataset, RunConfig(sampler="classical_stochastic", shots=25, seed=4),
            clock=counter_clock(),
        )
        distinct: dict[int, int] = {}
        improving: dict[int, int] = {}
        recalled = 0
        for row in pricing:
            if row.shots == 0:  # answered from the sample memory: no draw to rate
                recalled += 1
                continue
            distinct[row.n_sub] = distinct.get(row.n_sub, 0) + row.distinct_bitstrings
            improving[row.n_sub] = improving.get(row.n_sub, 0) + row.improving
        assert recalled > 0
        table = summarize(records, pricing).split("== sampler quality by subproblem size")[1]
        shown = {int(n): (float(i), int(d)) for n, i, d in
                 re.findall(r"n_sub=\s*(\d+)\s+improving=(\S+) .*\(distinct=(\d+)\)", table)}
        assert len(shown) > 1
        assert shown == {n: (float(f"{improving[n] / d:.3f}"), d) for n, d in distinct.items() if d}
