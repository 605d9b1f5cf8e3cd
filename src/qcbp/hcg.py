"""Hybrid column generation: alternate master solves with sampler pricing.

Each round solves the restricted master, takes its duals as Python floats
once, and prices the vertices with positive duals (see `qcbp.pricing`): the
sampler when more than CLASSICAL_PRICING_MAX remain (a smaller round logs no
row), then the unseeded greedy. When neither finds a column, a clique cover
certifies that no improving column exists; only when the cover weighs more
than 1 + IMPROVE_EPS does the exact MWIS safeguard run, which certifies the
round or supplies the heaviest set. Columns are only appended within a run,
so each re-solve restarts from the last optimal basis.

A run that has not certified after its engine's `hcg_max_iterations` pricing
rounds stops capped. Every run reports Farley's bound: the clipped duals' sum
over an upper bound on the weight of every independent set under them. The
master's objective is not a certified bound. A capped run's is an upper bound
on the LP, and a certificate only shows that no set weighs more than
1 + IMPROVE_EPS. A certified run takes that weight from its certificate, the
cover's sum or the exact call's set; a capped run makes one more exact call.

A subproblem is the root graph and the mask of its vertices, the search
node's residual; the master, the exact pricer and the pool see no other
numbering. The dual-positive part of that mask is the sampler's seed key in
`qcbp.pricing`. The search runs column generation once per explored node; it
meets a mask again when two branches leave the same residual, and the later
run starts from every column the earlier one pooled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, iter_bits, mask_of, mask_sum
from .pricing import (DUAL_POS_EPS, IMPROVE_EPS, PricingEngine, PricingStats,
                      clique_cover_weight, exact_mwis, greedy_columns)
from .rmp import ColumnPool, RmpModel, solve_rmp

CLASSICAL_PRICING_MAX = 3  # dual-positive vertices the greedy prices alone: it lists every maximal set


@dataclass
class HcgResult:
    """What one run did at its node.

    `iterations` counts pricing rounds and `certified` says whether a clique
    cover or the exact pricer closed the run; `pricing_log` has a row per
    sampler call and `exact_calls` counts the exact pricer's calls, the capped
    run's bound call included, so a certified run that reports none was
    certified by the cover. `columns` are the master's masks: the residual's
    singletons, then the pool cut down to the residual and deduplicated, then
    the columns priced at this node.
    """

    lp_bound: float
    iterations: int
    certified: bool
    pricing_log: list[PricingStats] = field(default_factory=list)
    exact_calls: int = 0
    columns: list[int] = field(default_factory=list)


def run_hcg(
    root: Graph,
    keep: int,
    pool: ColumnPool,
    engine: PricingEngine,
) -> HcgResult:
    """Column generation on the subproblem that `root` induces on `keep`,
    until certified or after `engine.config.hcg_max_iterations` pricing rounds.

    Every column, pooled or new, is a root-graph mask; the master cuts each
    one down to `keep` and holds its own singletons, so it stays feasible.
    Priced columns are appended to `pool.columns` unchecked: each lies within
    `keep` and improves, so it is not in the master, which holds every pooled
    column within `keep`. The result reports the run's own work and the
    master's columns; the engine keeps no tally.
    """
    model = RmpModel(root, keep, pool.columns)

    log: list[PricingStats] = []
    exact_calls = 0
    certified = False
    heaviest = 0.0  # the certificate's bound on every independent set's weight

    sol = solve_rmp(model)
    duals = sol.duals.tolist()
    prev_obj = sol.objective
    iterations = 0
    for iteration in range(1, engine.config.hcg_max_iterations + 1):
        iterations = iteration
        positive = mask_of(v for v in iter_bits(keep) if duals[v] > DUAL_POS_EPS)
        found: list[int] = []
        if engine.config.sampler != "exact_pricer" and positive.bit_count() > CLASSICAL_PRICING_MAX:
            found, stats = engine.sample_columns(root, positive, duals, pool.samples, iteration=iteration)
            log.append(stats)
        if not found:
            found = greedy_columns(root, positive, duals)
        if not found:
            clipped = [d if d > DUAL_POS_EPS else 0.0 for d in duals]
            heaviest = clique_cover_weight(root, clipped)
            if heaviest > 1.0 + IMPROVE_EPS:
                best = exact_mwis(root, clipped)
                exact_calls += 1
                heaviest = mask_sum(best, duals)
            if heaviest <= 1.0 + IMPROVE_EPS:
                certified = True
                break
            found = [best]
        pool.columns += found
        model.add(found)
        sol = solve_rmp(model)
        duals = sol.duals.tolist()
        if sol.objective > prev_obj + 1e-9:
            raise RuntimeError(
                f"master objective increased {prev_obj} -> {sol.objective} after adding columns"
            )
        prev_obj = sol.objective

    if certified:
        # The certificate priced the duals at most DUAL_POS_EPS as 0, so
        # they add at most their sum to any set.
        heaviest += sum(d for d in duals if 0.0 < d <= DUAL_POS_EPS)
    else:
        heaviest = mask_sum(exact_mwis(root, duals), duals)
        exact_calls += 1
    # Farley: the clipped duals scaled down by a bound on every independent
    # set's weight under them are dual feasible, so this is a valid LP lower bound.
    lp_bound = sum(max(d, 0.0) for d in duals) / max(1.0, heaviest)

    return HcgResult(lp_bound=lp_bound, iterations=iterations, certified=certified,
                     pricing_log=log, exact_calls=exact_calls, columns=model.masks)
