"""qcbp benchmark: one workload per process, single-threaded.

    python3 benchmark/run.py --workload ud_qaa --seed 1 --seconds 40 --trace 0

Run from the root of a qcbp source tree; the package is imported from its
`src/`. With `--trace 0` the last stdout line is a JSON object holding every
end-to-end metric of `BENCHMARK.json`; with `--trace 1` it holds the per-layer
metrics of one traced pass, and the spans are written to `.bench_work/`.
Everything printed before that line is a human-readable report.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# Set-up is short, so its own speed reading takes a larger share of reference work.
SETUP_REFERENCE_SHARE = 0.15
# A process imports only once, so set-up times the imports in fresh interpreters.
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import numpy, harness, spans, workloads, qcbp.bench, qcbp.chromatic; "
                "print(time.perf_counter() - t)")
# K2 touches every solver layer (one embed, evolve, sample, RMP, MWIS) cheaply.
WARMUP_EDGES = ((0, 1),)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure further passes over the instances while they fit in this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_seconds() -> float:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(HERE)))}
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                           text=True, check=True, timeout=120)
    return float(probe.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qcbp" / "__init__.py").is_file():
        print(f"error: no qcbp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so pin it before the import.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import numpy as np

    from harness import FAILURE_CLASSES, SpeedMeter, end_to_end, failure_counts, solve, solve_s_p50
    from qcbp.bench import RunConfig
    from qcbp.chromatic import exact_coloring
    from qcbp.graphs import Graph
    from spans import Tracer, layer_metrics, self_times
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"# qcbp benchmark  workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# python {platform.python_version()}  numpy {np.__version__}  "
          f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})  "
          + "  ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))

    tracer = Tracer()
    span = tracer.span if args.trace else (lambda name: nullcontext())
    config = RunConfig(sampler=workload.sampler)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)

    # Set-up, repeated: imports, instances, their exact chromatic numbers, a
    # warm-up solve. Reference work follows every timed piece of work; see
    # harness.SpeedMeter. Set-up and sweep each get their own speed reading.
    setup_meter = SpeedMeter(SETUP_REFERENCE_SHARE)
    imports, repeats = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        setup_meter.follow(imports[-1])
        t = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            instances = workload.make(args.seed, Path(tmp), span)
        with span("chromatic.exact_coloring"):
            chis = [exact_coloring(inst.graph)[0] for inst in instances]
        solve("warmup", Graph.from_edges(2, WARMUP_EDGES), 2, 0, config)
        repeats.append(time.perf_counter() - t)
        setup_meter.follow(repeats[-1])
    import_s = statistics.median(imports)
    setup_s = (import_s + statistics.median(repeats)) * setup_meter.scale
    meter = SpeedMeter()

    def sweep():
        out = []
        for i, (inst, chi) in enumerate(zip(instances, chis)):
            tracer.solve = i
            out.append(solve(inst.name, inst.graph, chi, i, config, span))
            meter.follow(out[-1].seconds)
        return out

    passes = []
    t_measure = time.perf_counter()
    if args.trace:
        with tracer:
            passes.append(sweep())
    else:
        while True:
            t = time.perf_counter()
            passes.append(sweep())
            pass_s = time.perf_counter() - t
            if time.perf_counter() - t_measure + pass_s > args.seconds:
                break
    outcomes = [o for p in passes for o in p]
    failures = failure_counts(outcomes)
    failed = sum(failures.values())
    returned = [o.result for o in outcomes if o.result is not None]
    scale = meter.scale

    print(f"# {len(instances)} instances x {len(passes)} passes = {len(outcomes)} solves; "
          f"set-up repeated {SETUP_REPEATS}x (median {statistics.median(repeats):.3f} s "
          f"+ imports {import_s:.3f} s)")
    print(f"# speed scale {scale:.4f} over the sweep ({meter.calls} reference calls, "
          f"{meter.seconds:.3f} s), {setup_meter.scale:.4f} over set-up ({setup_meter.calls} calls); "
          f"raw sweep {statistics.median(sum(o.seconds for o in p) for p in passes):.3f} s, "
          f"raw set-up {import_s + statistics.median(repeats):.3f} s")
    print(f"# fail_rate = {failed}/{len(outcomes)} = {failed / len(outcomes):.4f}  ("
          + ", ".join(f"{c} {failures[c]}" for c in FAILURE_CLASSES) + ")")
    print("# instance        chi chi_hat proven  nodes  exact  shots  seconds  failure")
    for o in passes[0]:
        r = o.result
        cells = (f"{r.chi_hat:7d} {str(r.proven_optimal):6s} {r.stats.nodes_explored:6d} "
                 f"{r.stats.exact_pricer_calls:6d} {r.stats.shots_total:6d}" if r else f"{'-':>37s}")
        print(f"# {o.instance:15s} {o.chi:3d} {cells} {o.seconds:8.3f}  {o.failure or ''}")
    n_returned = max(1, len(returned))
    print(f"# shots_per_solve = {sum(r.stats.shots_total for r in returned) / n_returned:.1f} shots  "
          f"exact_calls_per_solve = {sum(r.stats.exact_pricer_calls for r in returned) / n_returned:.3f} calls")

    if args.trace:
        values = layer_metrics(tracer.spans, [o.result for o in passes[0] if o.result], SETUP_REPEATS)
        declared = spec["per_layer"]
        spans_file = work_root / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        print(f"# {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
        self_by_name: dict[str, float] = {}
        for s, t in zip(tracer.spans, self_times(tracer.spans)):
            if s.solve is not None:
                self_by_name[s.name] = self_by_name.get(s.name, 0.0) + t
        sweep_s = values["trace.sweep_s"]
        values["trace.sweep_s"] *= scale
        print("# self time by span, share of traced sweep_s:")
        for name, t in sorted(self_by_name.items(), key=lambda kv: -kv[1]):
            print(f"#   {name:34s} {t:10.3f} s  {t / sweep_s:6.1%}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = end_to_end(passes, setup_s, peak_rss_mb, scale)
        declared = spec["end_to_end"]
        print(f"# solve_s_p50 = {solve_s_p50(passes) * scale:.4f} s over {len(instances)} instances "
              "(each the median of its passes)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for m in declared:
        print(f"{m['name']:36s} {values[m['name']]:>14.6g} {m['unit']:10s} ({m['better']} is better)")
    # Correct means every returned coloring is valid and none claims fewer
    # colors than chi; raised solves and unsound optimality proofs are
    # counted as failed operations instead.
    correct = not any(o.failure in ("invalid_coloring", "below_chi") for o in outcomes)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
