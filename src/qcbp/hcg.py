"""Hybrid column generation: alternate master solves with sampler pricing.

Each round solves the restricted master, restricts the subproblem to vertices
with positive duals, and asks the sampler for improving columns. When the
sampler comes back empty, the exact MWIS safeguard either supplies the column
the sampler missed or certifies that none exists, which makes the final master
objective the true LP bound. A run cut off by its iteration cap reports
Farley's bound instead: the restricted master's objective is then an upper
bound on the LP, not a lower one. Columns are only ever appended to the
master within a run, so each re-solve restarts from the previous optimal basis.
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
    pool: ColumnPool
    rmp: RmpSolution
    lp_bound: float
    iterations: int
    shots_used: int
    exact_pricer_calls: int
    new_sets_per_iteration: list[int]
    certified: bool
    pricing_log: list[PricingStats] = field(default_factory=list)


def run_hcg(
    graph: Graph,
    sub_to_root: tuple[int, ...],
    pool: ColumnPool,
    engine: PricingEngine,
    caps: HcgCaps | None = None,
) -> HcgResult:
    """Column generation on one (sub)problem until certified or capped.

    `graph` is the subproblem in local indexing and `sub_to_root` maps its
    vertices to the root graph; new columns are pushed into the shared pool
    in root indexing. Singletons are injected so the master stays feasible.
    """
    caps = caps or HcgCaps()
    root_to_local = {r: i for i, r in enumerate(sub_to_root)}

    model = init_rmp(graph)
    for v in range(graph.n):
        pool.add(1 << sub_to_root[v])
    for root_mask in pool:
        local = restrict_mask(root_mask, root_to_local)
        if local:
            model.add(local)

    shots_before = engine.shots_used
    exact_before = engine.exact_pricer_calls
    new_per_iter: list[int] = []
    log: list[PricingStats] = []
    certified = False

    sol = solve_rmp(model)
    prev_obj = sol.objective
    iterations = 0
    for iteration in range(1, caps.max_iterations + 1):
        iterations = iteration
        duals = sol.duals
        keep = mask_of(v for v in range(graph.n) if duals[v] > DUAL_POS_EPS)
        if keep == 0:
            # Unreachable for a feasible master (the duals sum to the
            # objective, which is at least 1), kept as a safe exit.
            certified = True
            new_per_iter.append(0)
            break
        sub, old_to_new = graph.induced_subgraph(keep)
        local_order = sorted(old_to_new)
        psub_to_root = tuple(sub_to_root[v] for v in local_order)
        w = duals[local_order]

        added = 0
        if engine.kind != "exact_pricer" and sub.n >= 2:
            columns, stats = engine.sample_columns(sub, psub_to_root, w, pool, iteration=iteration)
            log.append(stats)
            for col in columns:
                pool.add(col.mask)
                model.add(restrict_mask(col.mask, root_to_local))
                added += 1
        if added == 0:
            best_local = exact_mwis(sub, w)
            engine.exact_pricer_calls += 1
            value = sum(float(w[v]) for v in iter_bits(best_local))
            if value > 1.0 + IMPROVE_EPS:
                root_mask = expand_mask(best_local, psub_to_root)
                pool.add(root_mask)
                model.add(restrict_mask(root_mask, root_to_local))
                added = 1
            else:
                certified = True
        new_per_iter.append(added)
        if certified:
            break
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

    return HcgResult(
        pool=pool,
        rmp=sol,
        lp_bound=lp_bound,
        iterations=iterations,
        shots_used=engine.shots_used - shots_before,
        exact_pricer_calls=engine.exact_pricer_calls - exact_before,
        new_sets_per_iteration=new_per_iter,
        certified=certified,
        pricing_log=log,
    )
