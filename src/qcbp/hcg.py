"""Hybrid column generation: alternate master solves with sampler pricing.

Each round solves the restricted master, restricts the subproblem to vertices
with positive duals, and asks the sampler for improving columns. When the
sampler comes back empty, the exact MWIS safeguard either certifies that no
improving column exists, which makes the final master objective the true LP
bound, or supplies up to one column per master row: the heaviest set first,
then the other improving sets its search built. A run cut off by its
iteration cap reports Farley's bound instead: the restricted master's
objective is then an upper bound on the LP, not a lower one. Columns are only ever appended to the
master within a run, so each re-solve restarts from the previous optimal basis.

A subproblem is named by the mask of its vertices in the root graph: the
search node's residual. The same mask is the sampler's seed key in
`qcbp.pricing`. The search runs column generation once per explored node; it
meets a mask again only when a shallower path reaches a residual that was
already explored (the depth rule in `qcbp.bnp`), and that second run starts
from every column the first one pooled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, expand_mask, iter_bits, mask_of, require_positive, restrict_mask
from .pricing import DUAL_POS_EPS, IMPROVE_EPS, PricingEngine, PricingStats, exact_mwis
from .rmp import ColumnPool, RmpSolution, init_rmp, solve_rmp


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

    The master works in the subproblem's own indexing; every new column goes
    into the shared pool in root indexing, and the pooled columns enter the
    master restricted to `keep`. Singletons are injected so the master stays
    feasible.
    """
    caps = caps or HcgCaps()
    graph = root.induced_subgraph(keep)
    model = init_rmp(graph)
    for v in iter_bits(keep):
        pool.add(1 << v)
    for root_mask in pool:
        local = restrict_mask(root_mask, keep)
        if local:
            model.add(local)

    log: list[PricingStats] = []
    certified = False

    sol = solve_rmp(model)
    prev_obj = sol.objective
    iterations = 0
    for iteration in range(1, caps.max_iterations + 1):
        iterations = iteration
        duals = sol.duals
        positive = mask_of(v for v in range(graph.n) if duals[v] > DUAL_POS_EPS)
        if positive == 0:
            # Unreachable for a feasible master (the duals sum to the
            # objective, which is at least 1), kept as a safe exit.
            certified = True
            break
        sub = graph.induced_subgraph(positive)
        sub_root = expand_mask(positive, keep)
        w = duals[list(iter_bits(positive))]

        found: list[int] = []
        if engine.kind != "exact_pricer" and sub.n >= 2:
            columns, stats = engine.sample_columns(sub, sub_root, w, pool, iteration=iteration)
            log.append(stats)
            found = [col.mask for col in columns]
        if not found:
            improving: list[int] = []
            best_local = exact_mwis(sub, w, improving)
            engine.exact_pricer_calls += 1
            if sum(float(w[v]) for v in iter_bits(best_local)) <= 1.0 + IMPROVE_EPS:
                certified = True
                break
            found = [expand_mask(local, sub_root) for local in improving]
        for root_mask in found:
            pool.add(root_mask)
            model.add(restrict_mask(root_mask, keep))
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
        best = exact_mwis(graph, sol.duals)
        engine.exact_pricer_calls += 1
        heaviest = sum(float(sol.duals[v]) for v in iter_bits(best))
        lp_bound = sum(max(float(p), 0.0) for p in sol.duals) / max(1.0, heaviest)

    return HcgResult(rmp=sol, lp_bound=lp_bound, iterations=iterations,
                     certified=certified, pricing_log=log)
