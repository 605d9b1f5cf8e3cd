"""Command-line entry point: dataset generation, single solves, benchmarks, reports."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .bench import (
    BenchRecord,
    PricingRow,
    RunConfig,
    _format,
    generate_dataset,
    make_run_config,
    parse_config_file,
    parse_csv,
    pricing_rows,
    records_to_csv,
    run_benchmark,
    summarize,
)
from .bnp import solve_qcbp
from .chromatic import exact_chromatic_number
from .graphs import parse_dimacs

_CONFIG_FLAGS = [f.name for f in fields(RunConfig)]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None, metavar=f.type.upper())


def _build_config(args: argparse.Namespace) -> RunConfig:
    settings: dict[str, str] = {}
    if getattr(args, "config", None):
        settings.update(parse_config_file(Path(args.config).read_text()))
    for name in _CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = str(value)
    return make_run_config(settings)


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _cmd_gen(args: argparse.Namespace) -> int:
    # only the flags given reach generate_dataset, which holds the defaults
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    records = generate_dataset(args.out, **options)
    n_ud = sum(r.is_ud for r in records)
    print(f"wrote {len(records)} instances ({n_ud} unit-disk) to {args.out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _build_config(args)
    g = parse_dimacs(Path(args.graph).read_text())
    # the output options fail here, not after the solve: the oracle's vertex
    # cap, a graph file stem (the log's instance name) that would split a row,
    # and a log path in a missing directory
    chi_exact = exact_chromatic_number(g) if args.chi_exact else None
    instance = _format(Path(args.graph).stem) if args.pricing_log else None
    if args.pricing_log and not Path(args.pricing_log).parent.is_dir():
        raise ValueError(f"no directory {Path(args.pricing_log).parent} for the pricing log")
    res = solve_qcbp(g, config)
    stats = res.stats
    print(f"instance: {args.graph}")
    print(f"sampler={config.sampler}")
    print(f"colors={res.chi_hat} proven_optimal={str(res.proven_optimal).lower()}")
    print(f"shots={stats.shots_total} exact_calls={stats.exact_pricer_calls} "
          f"nodes={stats.nodes_generated}/{stats.nodes_explored}/{stats.nodes_pruned} "
          f"(generated/explored/pruned) uncertified_nodes={stats.uncertified_nodes} "
          f"unproven_reason={stats.unproven_reason or '-'} "
          f"wall_ms={stats.wall_seconds * 1e3:.1f}")
    if args.chi_exact:
        print(f"chi_exact={chi_exact}")
    if args.pricing_log:
        Path(args.pricing_log).write_text(records_to_csv(pricing_rows(instance, res.pricing_log), PricingRow))
        print(f"pricing log written to {args.pricing_log}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _build_config(args)
    records, pricing = run_benchmark(args.dataset, config, out_dir=args.out)
    print(summarize(records, pricing))
    print(f"records written to {Path(args.out) / 'records.csv'}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records = parse_csv(BenchRecord, Path(args.records).read_text())
    pricing = parse_csv(PricingRow, Path(args.pricing_log).read_text()) if args.pricing_log else []
    print(summarize(records, pricing), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcbp",
        description="Branch-and-price vertex coloring with an emulated neutral-atom pricing sampler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark dataset", argument_default=argparse.SUPPRESS)
    gen.add_argument("--out", required=True)
    gen.add_argument("--ns", type=_sizes, help="comma-separated instance sizes")
    gen.add_argument("--per-n", type=int)
    gen.add_argument("--ud-fraction", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--radius", type=float)
    gen.add_argument("--box", type=float)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve a single DIMACS instance")
    solve.add_argument("graph")
    solve.add_argument("--chi-exact", action="store_true", help="also print the oracle chromatic number")
    solve.add_argument("--pricing-log", help="write the per-iteration pricing log CSV here")
    _add_config_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run the benchmark sweep over a dataset")
    bench.add_argument("--dataset", required=True)
    bench.add_argument("--out", required=True)
    _add_config_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    report = sub.add_parser("report", help="summarize a benchmark records CSV")
    report.add_argument("--records", required=True)
    report.add_argument("--pricing-log")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
