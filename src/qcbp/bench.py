"""Benchmark harness: dataset generation, solver runs, metrics, CSV reports.

Every instance is solved by `solve_qcbp`; the paper's HCG baseline (root
column generation plus the primal heuristic) is the same run with
`node_budget = 1`. Every record also carries the exact chromatic number from
the reference backtracking oracle, so optimality rates and gaps come straight
off the CSV, whose columns are the fields of `BenchRecord`.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bnp import solve_qcbp
from .chromatic import exact_coloring
from .config import RunConfig
from .graphs import flip_random_pairs, parse_dimacs, positions_to_csv, random_ud_graph
from .pricing import PricingEngine, PricingStats


def parse_config_file(text: str) -> dict[str, str]:
    """Flat key=value lines, each key once; '#' starts a comment."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in line_of:
            raise ValueError(f"config line {lineno}: key {key!r} repeats line {line_of[key]}")
        out[key], line_of[key] = value, lineno
    return out


def _coerce(ftype: str, value: str) -> object:
    """Parse a config or CSV string by its dataclass field type; a CSV boolean
    is `true` or `false`, as `_format` writes it."""
    if ftype == "bool":
        if value not in ("true", "false"):
            raise ValueError(f"expected a boolean (true or false), got {value!r}")
        return value == "true"
    if ftype == "int":
        return int(value)
    if ftype == "float":
        return float(value)
    return value


def _format(value: object) -> str:
    """A CSV field; a string that would split its row or its line (as
    `parse_rows` splits them) raises a ValueError naming it."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, str) and ("," in value or "".join(value.splitlines()) != value):
        raise ValueError(f"CSV value {value!r} holds a comma or a line break")
    return repr(value) if isinstance(value, float) else str(value)


def csv_header(cls: type) -> str:
    return ",".join(f.name for f in fields(cls))


def to_csv_row(record: object) -> str:
    return ",".join(_format(getattr(record, f.name)) for f in fields(record))


def parse_row(cls: type, line: str) -> object:
    """One record of dataclass `cls` from a CSV row in `csv_header(cls)` order;
    a value that does not parse raises a ValueError naming its column."""
    values = []
    for f, value in zip(fields(cls), line.split(","), strict=True):
        try:
            values.append(_coerce(f.type, value))
        except ValueError as exc:
            raise ValueError(f"column {f.name!r}: {exc}") from None
    return cls(*values)


def parse_rows(header: str, text: str, parse) -> list:
    """`parse` of each row of CSV text headed by `header`. A row whose field
    count is not the header's, or that `parse` rejects, raises a ValueError
    naming its file line (the header is line 1)."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"malformed CSV header, expected {header!r}")
    parsed = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            if line.count(",") != header.count(","):
                raise ValueError(f"expected {header.count(',') + 1} fields, found {line.count(',') + 1}")
            parsed.append(parse(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return parsed


def parse_csv(cls: type, text: str) -> list:
    """Records of dataclass `cls` from CSV text headed by `csv_header(cls)`."""
    return parse_rows(csv_header(cls), text, lambda line: parse_row(cls, line))


def make_run_config(settings: dict[str, str]) -> RunConfig:
    """Build a RunConfig from string settings, coercing by field type."""
    known = {f.name: f.type for f in fields(RunConfig)}
    values: dict[str, object] = {}
    for key, value in settings.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        try:
            values[key] = _coerce(known[key], value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return RunConfig(**values)


@dataclass(frozen=True)
class InstanceRecord:
    instance: str
    n: int
    is_ud: bool
    seed: int
    graph_file: str
    positions_file: str


def generate_dataset(
    out_dir: str | Path,
    ns: tuple[int, ...] = (8, 9, 10, 11, 12),
    per_n: int = 12,
    ud_fraction: float = 0.5,
    seed: int = 0,
    radius: float = 10.0,
    box: float = 40.0,
) -> list[InstanceRecord]:
    """Write DIMACS graphs, position CSVs, and a manifest; deterministic per seed.

    The first round(per_n * ud_fraction) instances of each size keep their
    unit-disk structure; the rest get 1-3 adjacency flips (non-UD). Every
    instance is built before anything is written, so a rejected argument
    leaves no directory and no partial dataset.
    """
    if per_n < 1:
        raise ValueError(f"per_n must be >= 1, got {per_n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= ud_fraction <= 1:
        raise ValueError(f"ud_fraction must lie in [0, 1], got {ud_fraction!r}")
    if len(set(ns)) != len(ns):
        raise ValueError(f"ns must not repeat a size (each names its instances), got {tuple(ns)}")
    records: list[InstanceRecord] = []
    files: dict[str, str] = {}
    n_ud = round(per_n * ud_fraction)
    for n in ns:
        for i in range(per_n):
            inst_seed = seed * 1_000_000 + n * 1_000 + i
            g, pos = random_ud_graph(n, inst_seed, radius=radius, box=box)
            is_ud = i < n_ud
            if not is_ud:
                g = flip_random_pairs(g, seed=inst_seed + 500_000)
            name = f"n{n:02d}_{'ud' if is_ud else 'nud'}_{i:02d}"
            graph_file = f"{name}.dimacs"
            positions_file = f"{name}_positions.csv"
            files[graph_file] = g.to_dimacs()
            files[positions_file] = positions_to_csv(pos)
            records.append(InstanceRecord(name, n, is_ud, inst_seed, graph_file, positions_file))
    files["manifest.csv"] = records_to_csv(records, InstanceRecord)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for file_name, text in files.items():
        (out / file_name).write_text(text)
    return records


@dataclass(frozen=True)
class BenchRecord:
    instance: str
    n: int
    is_ud: bool
    chi_exact: int
    chi_hat: int
    gap: float
    proven: bool
    shots: int
    nodes_generated: int
    nodes_explored: int
    nodes_pruned: int
    exact_calls: int
    uncertified_nodes: int
    unproven_reason: str
    wall_ms: float


PRICING_HEADER = "instance," + csv_header(PricingStats)


def pricing_log_csv(log: list[tuple[str, PricingStats]]) -> str:
    """Pricing-log rows, each tagged with its instance, as `PRICING_HEADER` CSV."""
    rows = (f"{_format(instance)},{to_csv_row(row)}" for instance, row in log)
    return "\n".join([PRICING_HEADER, *rows]) + "\n"


def run_benchmark(
    dataset_dir: str | Path,
    config: RunConfig,
    out_dir: str | Path | None = None,
    clock=time.perf_counter,
) -> tuple[list[BenchRecord], list[tuple[str, PricingStats]]]:
    """Solve every manifest instance; returns the records and the pricing-log
    rows, each with its instance's name.

    With a deterministic clock and fixed seeds the CSV outputs are
    byte-identical across runs (single worker).
    """
    dataset = Path(dataset_dir)
    manifest = parse_csv(InstanceRecord, (dataset / "manifest.csv").read_text())
    records: list[BenchRecord] = []
    pricing: list[tuple[str, PricingStats]] = []
    graphs = [parse_dimacs((dataset / inst.graph_file).read_text()) for inst in manifest]
    chis = [exact_coloring(g)[0] for g in graphs]  # the oracle's vertex cap fails before any solve
    for idx, (inst, g, chi_exact) in enumerate(zip(manifest, graphs, chis)):
        # a fresh engine per instance, its seed stream keyed by the instance index
        engine_seed = int(np.random.default_rng([config.seed, idx]).integers(1 << 31))
        res = solve_qcbp(g, engine=PricingEngine(replace(config, seed=engine_seed)), clock=clock)
        res.coloring.validate(g, g.full_mask)
        chi_hat, stats = res.coloring.colors_used, res.stats
        if chi_hat < chi_exact:
            raise RuntimeError(f"{inst.instance}: reported {chi_hat} colors below chi={chi_exact}")
        records.append(BenchRecord(
            instance=inst.instance, n=inst.n, is_ud=inst.is_ud,
            chi_exact=chi_exact, chi_hat=chi_hat,
            gap=(chi_hat - chi_exact) / chi_exact,
            proven=res.proven_optimal, shots=stats.shots_total,
            nodes_generated=stats.nodes_generated,
            nodes_explored=stats.nodes_explored,
            nodes_pruned=stats.nodes_pruned,
            exact_calls=stats.exact_pricer_calls, uncertified_nodes=stats.uncertified_nodes,
            unproven_reason=stats.unproven_reason, wall_ms=stats.wall_seconds * 1e3,
        ))
        pricing.extend((inst.instance, row) for row in res.pricing_log)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "records.csv").write_text(records_to_csv(records))
        (out / "pricing_log.csv").write_text(pricing_log_csv(pricing))
        (out / "summary.txt").write_text(summarize(records, [row for _, row in pricing]))
    return records, pricing


def records_to_csv(records: list, cls: type = BenchRecord) -> str:
    return "\n".join([csv_header(cls), *map(to_csv_row, records)]) + "\n"


def _rate(records: list[BenchRecord]) -> float:
    return sum(r.chi_hat == r.chi_exact for r in records) / len(records)


def summarize(records: list[BenchRecord], pricing: list[PricingStats]) -> str:
    """Aggregate tables: optimality by UD flag, gap by n, shot and node
    distributions, median exact-pricer calls, and sampler quality by n_sub."""
    if not records:
        return "no records\n"
    lines: list[str] = []
    ns = sorted({r.n for r in records})

    lines.append("== optimality rate ==")
    for flag in (True, False):
        grp = [r for r in records if r.is_ud == flag]
        if grp:
            lines.append(f"unit_disk={str(flag).lower():5s} rate={_rate(grp):.3f}  ({len(grp)} instances)")
    lines.append(f"total            rate={_rate(records):.3f}  ({len(records)} instances)")

    lines.append("")
    lines.append("== mean relative gap by n ==")
    for n in ns:
        grp = [r.gap for r in records if r.n == n]
        lines.append(f"n={n:2d}  mean_gap={statistics.mean(grp):.3f}  max_gap={max(grp):.3f}")

    lines.append("")
    lines.append("== shots by n (min/median/max) ==")
    for n in ns:
        grp = sorted(r.shots for r in records if r.n == n)
        lines.append(f"n={n:2d}  {grp[0]} / {statistics.median(grp):.0f} / {grp[-1]}")

    lines.append("")
    lines.append("== nodes by n (median generated/explored/pruned) ==")
    for n in ns:
        grp = [r for r in records if r.n == n]
        lines.append(
            f"n={n:2d}  {statistics.median([r.nodes_generated for r in grp]):.1f} / "
            f"{statistics.median([r.nodes_explored for r in grp]):.1f} / "
            f"{statistics.median([r.nodes_pruned for r in grp]):.1f}"
        )

    lines.append("")
    lines.append("== median exact-pricer calls by n and unit-disk flag ==")
    for flag in (True, False):
        cells = []
        for n in ns:
            grp = [r.exact_calls for r in records if r.n == n and r.is_ud == flag]
            cells.append(f"n={n}:{statistics.median(grp):.1f}" if grp else f"n={n}:-")
        lines.append(f"unit_disk={str(flag).lower():5s}  " + "  ".join(cells))

    by_sub: dict[int, list[PricingStats]] = {}
    for stats in pricing:
        if stats.shots:  # a round answered from the sample memory drew nothing to rate
            by_sub.setdefault(stats.n_sub, []).append(stats)
    if by_sub:
        lines.append("")
        lines.append("== sampler quality by subproblem size (improving / maximal fraction of distinct) ==")
        for n_sub in sorted(by_sub):
            distinct = sum(s.distinct_bitstrings for s in by_sub[n_sub])
            improving = sum(s.improving for s in by_sub[n_sub])
            maximal = sum(s.maximal for s in by_sub[n_sub])
            if distinct:
                lines.append(
                    f"n_sub={n_sub:2d}  improving={improving / distinct:.3f}  "
                    f"maximal={maximal / distinct:.3f}  (distinct={distinct})"
                )
    return "\n".join(lines) + "\n"
