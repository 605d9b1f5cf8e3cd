"""Solve loop, per-solve correctness check and end-to-end metrics.

Closed loop with one client: instances are solved one after another, each with
a fresh `PricingEngine`, as `qcbp.bench.solve_instance` does. Unlike
`qcbp.bench.run_benchmark`, a bad solve does not abort the run; it is counted
under one failure class and the sweep goes on.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from qcbp.bench import RunConfig
from qcbp.bnp import SolveResult, solve_qcbp
from qcbp.graphs import Graph
from qcbp.pricing import PricingEngine

# Seconds of reference work run per second of measured work (by default), and
# the time one `reference_work()` call takes at the reference speed that
# normalised seconds are quoted in (a typical speed of a shared 2-CPU x86-64 VM).
REFERENCE_SHARE = 0.03
REFERENCE_WORK_S = 0.0027
_REFERENCE_MATRIX = np.random.default_rng(0).random((12, 12))

# The first class that applies is the one counted, so a solve fails once.
FAILURE_CLASSES = ("raised", "invalid_coloring", "below_chi", "unsound_proof")


@dataclass
class Outcome:
    instance: str
    chi: int
    seconds: float
    result: SolveResult | None
    failure: str | None


def reference_work() -> float:
    """A fixed mix of interpreter work and small numpy operations, like the
    solver's inner loops. It is the benchmark's own code, so no change to qcbp
    moves it."""
    a = _REFERENCE_MATRIX.copy()
    acc = 0.0
    for r in range(300):
        p = r % 11
        c, s = math.cos(r), math.sin(r)
        col_p, col_q = c * a[:, p] - s * a[:, p + 1], s * a[:, p] + c * a[:, p + 1]
        a[:, p], a[:, p + 1] = col_p, col_q
        acc += float(a[p, p + 1])
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + sum(counts.values())


class SpeedMeter:
    """The machine's speed over a run, from reference work interleaved with
    the measured work.

    The host is shared, and its speed drifts by a fifth and more over tens of
    seconds, in CPU time as much as in wall time. The same drift slows the
    reference work run right after each piece of measured work, so `scale`
    turns measured seconds into seconds at the fixed reference speed.
    """

    def __init__(self, share: float = REFERENCE_SHARE) -> None:
        self.share = share
        self.seconds = 0.0
        self.calls = 0
        reference_work()  # untimed: a first call runs cold

    def follow(self, work_s: float) -> None:
        """Run reference work for `share` of `work_s`, at least once."""
        spent = 0.0
        while spent < self.share * work_s or not spent:
            t = time.perf_counter()
            reference_work()
            spent += time.perf_counter() - t
            self.calls += 1
        self.seconds += spent

    @property
    def scale(self) -> float:
        return REFERENCE_WORK_S * self.calls / self.seconds


def check(g: Graph, chi: int, result: SolveResult) -> str | None:
    """Failure class of a solve that returned, or None when it is sound."""
    try:
        result.coloring.validate(g, g.full_mask)
    except ValueError:
        return "invalid_coloring"
    if result.chi_hat != result.coloring.colors_used:
        return "invalid_coloring"
    if result.chi_hat < chi:
        return "below_chi"
    if result.proven_optimal and result.chi_hat != chi:
        return "unsound_proof"
    return None


def solve(name: str, g: Graph, chi: int, index: int, config: RunConfig,
          span=lambda name: nullcontext()) -> Outcome:
    """One timed solve; the engine seed comes from the instance index, as in
    `qcbp.bench.run_benchmark`."""
    seed = int(np.random.default_rng([config.seed, index]).integers(1 << 31))
    engine = PricingEngine(config.sampler_config(seed=seed))
    t0 = time.perf_counter()
    try:
        with span("bnp.solve_qcbp"):
            result = solve_qcbp(g, config.solver_config(), engine=engine)
    except Exception:  # a raising solve is a counted failure; the sweep goes on
        seconds = time.perf_counter() - t0
        print(f"# {name}: solve raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return Outcome(name, chi, seconds, None, "raised")
    seconds = time.perf_counter() - t0
    return Outcome(name, chi, seconds, result, check(g, chi, result))


def end_to_end(passes: list[list[Outcome]], setup_s: float, peak_rss_mb: float,
               scale: float = 1.0) -> dict[str, float]:
    """Timings are medians over passes of the same instances, times the
    `SpeedMeter` scale; the quality and cost shares count every solve of every
    pass."""
    outcomes = [o for p in passes for o in p]
    returned = [o.result for o in outcomes if o.result is not None]
    return {
        "sweep_s": statistics.median(sum(o.seconds for o in p) for p in passes) * scale,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "optimal_rate": sum(o.failure not in ("raised", "invalid_coloring") and o.result.chi_hat == o.chi
                            for o in outcomes) / len(outcomes),
        "proven_rate": sum(r.proven_optimal for r in returned) / len(outcomes),
        "pass_rate": sum(o.failure is None for o in outcomes) / len(outcomes),
        "exact_calls_per_node": sum(r.stats.exact_pricer_calls for r in returned)
        / max(1, sum(r.stats.nodes_explored for r in returned)),
    }


def solve_s_p50(passes: list[list[Outcome]]) -> float:
    """Median over instances of each instance's median solve time."""
    return statistics.median(statistics.median(p[i].seconds for p in passes)
                             for i in range(len(passes[0])))


def failure_counts(outcomes: list[Outcome]) -> dict[str, int]:
    return {c: sum(o.failure == c for o in outcomes) for c in FAILURE_CLASSES}
