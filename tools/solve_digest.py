"""One SHA-256 over every solve of a benchmark workload, to show that a change
keeps the solver's results.

    python3 tools/solve_digest.py --workload gnp_exact --seed 1,11 [--tree PATH]

Imports `qcbp` from PATH/src and the workloads and solve loop from
PATH/benchmark (PATH defaults to this repository), so running it once on a
checkout of the parent commit and once here compares the two. Each instance is
solved as `benchmark/run.py` solves it: with the workload's sampler at
`RunConfig` defaults and the engine seed taken from the instance index.
`--seed` takes one workload seed or a comma-separated list, and one digest line
is printed per seed.

The digest covers, per solve in order: chi-hat, the proof flag, the root LP
value (as `float.hex`), the color classes, the column pool in discovery
order, every `SearchStats` field except `wall_seconds`, and the pricing log.
Nothing is written under PATH; `ud_qaa` writes its dataset to a temporary
directory.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from dataclasses import astuple, fields
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def solve_fields(outcome) -> tuple:
    r = outcome.result
    if r is None:
        return (outcome.instance, outcome.failure)
    stats = tuple(getattr(r.stats, f.name) for f in fields(r.stats) if f.name != "wall_seconds")
    return (outcome.instance, r.chi_hat, r.proven_optimal, float.hex(r.lp_root),
            r.coloring.classes, tuple(r.pool), stats, tuple(astuple(row) for row in r.pricing_log))


def seed_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="root of the qcbp source tree to solve with")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=seed_list, required=True,
                    help="a workload seed, or a comma-separated list of them")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    if not (tree / "src" / "qcbp" / "__init__.py").is_file() or not (tree / "benchmark").is_dir():
        print(f"error: {tree} holds no qcbp sources and benchmark", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, as in benchmark/run.py.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmark")]

    from harness import solve
    from qcbp.bench import RunConfig
    from qcbp.chromatic import exact_coloring
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    config = RunConfig(sampler=workload.sampler)
    for seed in args.seed:
        digest = hashlib.sha256()
        with tempfile.TemporaryDirectory() as tmp:
            instances = workload.make(seed, Path(tmp))
        for i, inst in enumerate(instances):
            chi = exact_coloring(inst.graph)[0]
            digest.update(repr(solve_fields(solve(inst.name, inst.graph, chi, i, config))).encode())
        print(f"{digest.hexdigest()}  {workload.name} seed {seed} ({len(instances)} solves)",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
