"""Hybrid column generation: alternate master solves with sampler pricing.

Each round solves the restricted master, restricts the subproblem to vertices
with positive duals, and asks the sampler for improving columns. When the
sampler comes back empty, the exact MWIS safeguard either certifies that no
improving column exists, which makes the final master objective the true LP
bound, or supplies up to one column per master row: the heaviest set first,
then the other improving sets its search built. A run cut off by its
iteration cap reports Farley's bound instead: the restricted master's
objective is then an upper bound on the LP, not a lower one. Columns are only
appended within a run, so each re-solve restarts from the last optimal basis.

A subproblem is the root graph and the mask of its vertices, the search
node's residual; the master, the exact pricer and the pool see no other
numbering. The dual-positive part of that mask is the sampler's seed key in
`qcbp.pricing`. The search runs column generation once per explored node; it
meets a mask again only when a shallower path reaches a residual that was
already explored (the depth rule in `qcbp.bnp`), and that second run starts
from every column the first one pooled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, iter_bits, mask_of, require_positive
from .pricing import DUAL_POS_EPS, IMPROVE_EPS, PricingEngine, PricingStats, exact_mwis
from .rmp import ColumnPool, RmpSolution, add_columns, init_rmp, solve_rmp


@dataclass(frozen=True)
class HcgCaps:
    max_iterations: int = 50

    def __post_init__(self) -> None:
        require_positive(self, "max_iterations")


@dataclass
class HcgResult:
    rmp: RmpSolution
    lp_bound: float
    iterations: int
    certified: bool
    pricing_log: list[PricingStats] = field(default_factory=list)


def run_hcg(
    root: Graph,
    keep: int,
    pool: ColumnPool,
    engine: PricingEngine,
    caps: HcgCaps | None = None,
) -> HcgResult:
    """Column generation on the subproblem that `root` induces on `keep`,
    until certified or capped.

    Every column, pooled or new, is a root-graph mask; the master cuts each
    one down to `keep` and holds its own singletons, so it stays feasible.
    New columns go into the shared pool as found.
    """
    caps = caps or HcgCaps()
    model = init_rmp(root, keep)
    add_columns(model, pool)

    log: list[PricingStats] = []
    certified = False

    sol = solve_rmp(model)
    prev_obj = sol.objective
    iterations = 0
    for iteration in range(1, caps.max_iterations + 1):
        iterations = iteration
        duals = sol.duals
        positive = mask_of(v for v in iter_bits(keep) if duals[v] > DUAL_POS_EPS)
        if positive == 0:
            # Unreachable for a feasible master (the duals sum to the
            # objective, which is at least 1), kept as a safe exit.
            certified = True
            break

        found: list[int] = []
        if engine.kind != "exact_pricer" and positive.bit_count() >= 2:
            columns, stats = engine.sample_columns(root, positive, duals, pool, iteration=iteration)
            log.append(stats)
            found = [col.mask for col in columns]
        if not found:
            best = exact_mwis(root, [d if d > DUAL_POS_EPS else 0.0 for d in duals], found)
            engine.exact_pricer_calls += 1
            if sum(float(duals[v]) for v in iter_bits(best)) <= 1.0 + IMPROVE_EPS:
                certified = True
                break
        for mask in found:
            pool.add(mask)
            model.add(mask)
        sol = solve_rmp(model)
        if sol.objective > prev_obj + 1e-9:
            raise RuntimeError(
                f"master objective increased {prev_obj} -> {sol.objective} after adding columns"
            )
        prev_obj = sol.objective

    lp_bound = sol.objective
    if not certified:
        # Farley: the clipped duals scaled by the heaviest independent set
        # under them are dual feasible, so this is a valid LP lower bound.
        best = exact_mwis(root, sol.duals)
        engine.exact_pricer_calls += 1
        heaviest = sum(float(sol.duals[v]) for v in iter_bits(best))
        lp_bound = sum(max(float(p), 0.0) for p in sol.duals) / max(1.0, heaviest)

    return HcgResult(rmp=sol, lp_bound=lp_bound, iterations=iterations,
                     certified=certified, pricing_log=log)
