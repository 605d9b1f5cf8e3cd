"""Node counts and times of the branch-and-bound search on four graph sets,
to compare a change to the search with its parent.

    python3 tools/search_sweep.py [--set g40,gaps,myciel4,joins] [--per-graph] [--tree PATH]

Imports `qcbp` from PATH/src (PATH defaults to this repository), so running it
once on a checkout of the parent commit and once here compares the two. Every
graph is solved by `solve_qcbp` with the `exact_pricer` sampler at `RunConfig`
defaults. The sets:

- `g40`: 30 G(40, 0.3) graphs; graph k draws its edges in i < j order from
  `default_rng([1, 40, k])`, as `benchmark/workloads.py` draws G(20, 0.3).
- `gaps`: the 18 G(40, 0.3) graphs, drawn the same way, whose chromatic
  number 6 is above the ceiling 5 of their fractional chromatic number:
  seed 2 with k = 1, 5, 22, 42, 50, 51, 57, 64, 75, 99 and seed 3 with
  k = 6, 11, 32, 35, 54, 57, 60, 96. It takes about 45 s on one core.
- `myciel4`: the Mycielski graph of K2 after three steps (23 vertices,
  chromatic number 5, root LP bound 3.245).
- `joins`: eight joins, in which every vertex of a part is linked to every
  vertex of the other parts: C5+C5, C5+C7, C5+C5+C5, P+C5, myciel3+C5, P+P,
  C7+C7+C5 and C5+C5+C5+C5, where Cn is the n-cycle, P the Petersen graph and
  myciel3 the Mycielski graph of K2 after two steps. The chromatic number of
  a join is the sum of its parts'.

Per set it prints the explored and generated nodes, the exact pricer calls,
the number of proven solves, the sum of chi-hat and the seconds; with
`--per-graph` also one line per graph. Nothing is written under PATH.
"""

import argparse
import os
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
GAP_GRAPHS = ((2, (1, 5, 22, 42, 50, 51, 57, 64, 75, 99)), (3, (6, 11, 32, 35, 54, 57, 60, 96)))
SETS = ("g40", "gaps", "myciel4", "joins")


def gnp(seed: int, k: int, n: int = 40, p: float = 0.3):
    import numpy as np
    from qcbp.graphs import Graph

    rng = np.random.default_rng([seed, n, k])
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def myciel(k: int):
    """K2 after k - 1 Mycielski steps: each keeps the graph on 0..n-1, adds a
    shadow n + v joined to v's neighbours, and one vertex joined to every
    shadow."""
    from qcbp.graphs import Graph, iter_bits

    g = Graph.from_edges(2, [(0, 1)])
    for _ in range(k - 1):
        n = g.n
        edges = [(u, v) for u in range(n) for v in iter_bits(g.adj[u])]
        edges = [(u, v) for u, v in edges if u < v] + [(u, n + v) for u, v in edges]
        g = Graph.from_edges(2 * n + 1, edges + [(n + v, 2 * n) for v in range(n)])
    return g


def cycle(n: int):
    from qcbp.graphs import Graph

    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    """The outer 5-cycle 0..4, spokes i to 5 + i, and the inner pentagram."""
    from qcbp.graphs import Graph

    return Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def join(*parts):
    """The parts side by side, each vertex linked to every vertex of the other
    parts."""
    from qcbp.graphs import Graph, iter_bits

    edges, offset = [], 0
    for h in parts:
        edges += [(offset + u, offset + v) for u in range(h.n) for v in iter_bits(h.adj[u]) if u < v]
        edges += [(u, offset + v) for u in range(offset) for v in range(h.n)]
        offset += h.n
    return Graph.from_edges(offset, edges)


def graphs(name: str) -> list:
    """(label, graph) pairs of the named set."""
    if name == "g40":
        return [(f"seed 1 k {k}", gnp(1, k)) for k in range(30)]
    if name == "gaps":
        return [(f"seed {seed} k {k}", gnp(seed, k)) for seed, ks in GAP_GRAPHS for k in ks]
    if name == "myciel4":
        return [("myciel4", myciel(4))]
    c5, c7, p = cycle(5), cycle(7), petersen()
    return [("C5+C5", join(c5, c5)), ("C5+C7", join(c5, c7)), ("C5+C5+C5", join(c5, c5, c5)),
            ("P+C5", join(p, c5)), ("myciel3+C5", join(myciel(3), c5)), ("P+P", join(p, p)),
            ("C7+C7+C5", join(c7, c7, c5)), ("C5+C5+C5+C5", join(c5, c5, c5, c5))]


def set_list(text: str) -> list[str]:
    names = text.split(",")
    unknown = sorted(set(names) - set(SETS))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown set {', '.join(unknown)}; choose from {', '.join(SETS)}")
    return names


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="root of the qcbp source tree to solve with")
    ap.add_argument("--set", type=set_list, default=list(SETS),
                    help=f"comma-separated sets to solve (default {','.join(SETS)})")
    ap.add_argument("--per-graph", action="store_true", help="also print one line per graph")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    if not (tree / "src" / "qcbp" / "__init__.py").is_file():
        print(f"error: {tree} holds no qcbp sources", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, as in benchmark/run.py.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
    sys.path.insert(0, str(tree / "src"))

    from qcbp.bnp import solve_qcbp
    from qcbp.config import RunConfig

    config = RunConfig(sampler="exact_pricer")
    for name in args.set:
        explored = generated = exact = proven = chi_sum = 0
        seconds = 0.0
        instances = graphs(name)
        for label, g in instances:
            t0 = time.perf_counter()
            r = solve_qcbp(g, config)
            dt = time.perf_counter() - t0
            s = r.stats
            explored += s.nodes_explored
            generated += s.nodes_generated
            exact += s.exact_pricer_calls
            proven += r.proven_optimal
            chi_sum += r.chi_hat
            seconds += dt
            if args.per_graph:
                print(f"  {name} {label}: chi-hat {r.chi_hat} proven {r.proven_optimal} "
                      f"explored {s.nodes_explored} generated {s.nodes_generated} "
                      f"exact {s.exact_pricer_calls} {dt:.2f} s", flush=True)
        print(f"{name}: {len(instances)} graphs, explored {explored}, generated {generated}, "
              f"exact calls {exact}, proven {proven}, chi-hat sum {chi_sum}, {seconds:.1f} s",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
