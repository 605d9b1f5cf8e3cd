"""Branch-and-bound around column generation: branching on maximal sets,
bounding with master-LP and spectral lower bounds, and a greedy primal
heuristic that recombines pooled columns into feasible colorings.

A node branches on its residual's highest-degree vertex v: one child fixes
each maximal independent set that contains v, with the sets the pool already
holds first. The children cover every coloring of the residual whatever the
sampler returned, so an exhausted search is a proof.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Iterable

from .bounds import CEIL_TOL, SpectralBounds, spectral_lb
from .graphs import Graph, expand_mask, iter_bits, require_positive, restrict_mask
from .hcg import HcgCaps, run_hcg
from .pricing import PricingEngine, PricingStats
from .rmp import ColumnPool


@dataclass(frozen=True)
class Coloring:
    """Disjoint independent classes covering the colored vertex set."""

    classes: tuple[int, ...]

    @property
    def colors_used(self) -> int:
        return len(self.classes)

    def validate(self, g: Graph, cover: int) -> None:
        union = 0
        for cls in self.classes:
            if cls & union:
                raise ValueError("color classes overlap")
            if not g.is_independent(cls):
                raise ValueError("color class is not independent")
            union |= cls
        if union != cover:
            raise ValueError("color classes do not cover the vertex set")


@dataclass
class BBNode:
    residual_root: int
    depth: int
    fixed_classes: tuple[int, ...]
    lb: int = 1
    local_ub: int = 0
    score: float = 0.0
    order: int = 0
    stale: bool = False
    closed: bool = False
    res_graph: Graph | None = None
    res_old_to_new: dict[int, int] | None = None
    spectral: SpectralBounds | None = None


@dataclass
class SearchStats:
    nodes_generated: int = 0
    nodes_explored: int = 0
    nodes_pruned: int = 0
    nodes_open: int = 0
    shots_total: int = 0
    exact_pricer_calls: int = 0
    wall_seconds: float = 0.0


@dataclass
class SolveResult:
    coloring: Coloring
    chi_hat: int
    proven_optimal: bool
    lp_root: float
    root_lb: int
    stats: SearchStats
    pool: tuple[int, ...]  # every column mask discovered, in discovery order
    pricing_log: list[PricingStats] = field(default_factory=list)


@dataclass(frozen=True)
class SolverConfig:
    node_budget: int = 1000
    hcg: HcgCaps = field(default_factory=HcgCaps)

    def __post_init__(self) -> None:
        require_positive(self, "node_budget")


def primal_heuristic(res_graph: Graph, pool_masks: list[int]) -> Coloring:
    """Greedy coloring from pooled sets: repeatedly color the highest-degree
    uncolored vertex with the pooled set that still covers the most.

    Ties go to the lowest vertex index and the smallest set bitmask. The
    singletons in the pool guarantee progress.
    """
    order = sorted(range(res_graph.n), key=lambda v: (-res_graph.degree(v), v))
    uncolored = res_graph.full_mask
    classes: list[int] = []
    while uncolored:
        v = next(u for u in order if (uncolored >> u) & 1)
        best: int | None = None
        for mask in pool_masks:
            if not (mask >> v) & 1:
                continue
            surviving = mask & uncolored
            if best is None or (surviving.bit_count(), -surviving) > (best.bit_count(), -best):
                best = surviving
        if best is None:
            raise ValueError(f"pool is missing a set containing vertex {v}")
        classes.append(best)
        uncolored ^= best
    return Coloring(classes=tuple(classes))


def node_lb(depth: int, lp_bound: float, spectral: SpectralBounds) -> int:
    """Colors fixed so far plus the tightest residual bound; the LP value
    enters through its ceiling since the chromatic number is integral."""
    return depth + max(math.ceil(lp_bound - CEIL_TOL), spectral.combined_lb)


def node_score(local_ub: int, residual_edge_count: int) -> float:
    return float(local_ub * residual_edge_count)


def maximal_sets_containing(g: Graph, v: int) -> list[int]:
    """Every maximal independent set of g that contains v.

    These are v plus the maximal independent sets of the subgraph on v's
    non-neighbours, enumerated as maximal cliques of the complement by
    Bron-Kerbosch with pivoting, in bitmask form.
    """
    non_adj = [g.full_mask & ~(g.adj[u] | 1 << u) for u in range(g.n)]
    found: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            found.append(r)
            return
        pivot = max(iter_bits(p | x), key=lambda u: (p & non_adj[u]).bit_count())
        for u in iter_bits(p & ~non_adj[pivot]):
            expand(r | 1 << u, p & non_adj[u], x & non_adj[u])
            p &= ~(1 << u)
            x |= 1 << u

    expand(1 << v, non_adj[v], 0)
    return found


def branch(root_graph: Graph, node: BBNode, pool_masks: Iterable[int]) -> list[BBNode]:
    """One child per maximal independent set of the residual that contains
    its highest-degree vertex v (lowest index on ties).

    The class holding v in any coloring extends to one of these sets, so the
    children cover every coloring of the residual. Sets that a pooled column
    restricts to come first, so the sampler steers the search; then larger
    sets, then smaller masks. Distinct sets leave distinct residuals.
    """
    if node.residual_root == 0:
        raise ValueError("cannot branch on an empty residual")
    res_graph, old_to_new = node.res_graph, node.res_old_to_new
    if res_graph is None or old_to_new is None:
        res_graph, old_to_new = root_graph.induced_subgraph(node.residual_root)
    new_to_old = tuple(sorted(old_to_new))

    v = max(range(res_graph.n), key=lambda u: (res_graph.degree(u), -u))
    pooled = {m & node.residual_root for m in pool_masks}
    fixed_sets = [expand_mask(local, new_to_old) for local in maximal_sets_containing(res_graph, v)]
    fixed_sets.sort(key=lambda m: (m not in pooled, -m.bit_count(), m))
    return [
        BBNode(
            residual_root=node.residual_root & ~fixed,
            depth=node.depth + 1,
            fixed_classes=node.fixed_classes + (fixed,),
        )
        for fixed in fixed_sets
    ]


def _restricted_pool(pool: ColumnPool, old_to_new: dict[int, int]) -> list[int]:
    masks = {restrict_mask(m, old_to_new) for m in pool}
    masks.discard(0)
    return sorted(masks)


def solve_qcbp(
    g: Graph,
    config: SolverConfig | None = None,
    engine: PricingEngine | None = None,
    clock=time.perf_counter,
) -> SolveResult:
    """Full solve: certified column generation at every explored node, greedy
    incumbents from the shared pool, best-score-first search with bound and
    redundancy pruning."""
    config = config or SolverConfig()
    engine = engine or PricingEngine()
    t_start = clock()

    pool = ColumnPool.with_singletons(g)
    identity = tuple(range(g.n))
    root_hcg = run_hcg(g, identity, pool, engine, config.hcg)
    pricing_log = list(root_hcg.pricing_log)
    root_spectral = spectral_lb(g)
    root_lb = node_lb(0, root_hcg.lp_bound, root_spectral)

    incumbent = primal_heuristic(g, list(pool))
    incumbent.validate(g, g.full_mask)
    ub = incumbent.colors_used

    stats = SearchStats(nodes_generated=1, nodes_explored=1)
    if ub < root_lb:
        raise RuntimeError(f"heuristic coloring ({ub}) beat the root lower bound ({root_lb})")

    visited: dict[int, BBNode] = {}
    explored_keys: set[int] = set()
    heap: list[tuple[float, int, BBNode]] = []
    order_counter = 0
    unsound_closure = False
    budget_hit = False

    root_node = BBNode(residual_root=g.full_mask, depth=0, fixed_classes=(),
                       lb=root_lb, res_graph=g, res_old_to_new={v: v for v in range(g.n)},
                       spectral=root_spectral)
    root_node.closed = True
    visited[g.full_mask] = root_node
    explored_keys.add(g.full_mask)

    def try_incumbent(classes: tuple[int, ...], extra: Coloring | None,
                      new_to_old: tuple[int, ...] | None) -> None:
        nonlocal incumbent, ub
        full = list(classes)
        if extra is not None and new_to_old is not None:
            full.extend(expand_mask(c, new_to_old) for c in extra.classes)
        if len(full) < ub:
            cand = Coloring(classes=tuple(full))
            cand.validate(g, g.full_mask)
            incumbent, ub = cand, len(full)

    def enqueue_children(parent: BBNode) -> None:
        nonlocal unsound_closure, budget_hit
        for child in branch(g, parent, pool):
            if child.residual_root == 0:
                stats.nodes_generated += 1
                stats.nodes_pruned += 1
                try_incumbent(child.fixed_classes, None, None)
                continue
            existing = visited.get(child.residual_root)
            if existing is not None:
                if child.depth < existing.depth:
                    if existing.closed:
                        # The shallower path to this residual cannot be re-explored
                        # without breaking once-only processing; optimality claims
                        # are withdrawn instead.
                        unsound_closure = True
                    else:
                        existing.stale = True
                        visited[child.residual_root] = child
                        _enrich_and_push(child, parent)
                # Otherwise the recorded node covers this subtree at least as shallowly.
                continue
            if stats.nodes_generated >= config.node_budget:
                budget_hit = True
                break
            visited[child.residual_root] = child
            _enrich_and_push(child, parent)

    def _enrich_and_push(child: BBNode, parent: BBNode) -> None:
        nonlocal order_counter
        child.res_graph, child.res_old_to_new = g.induced_subgraph(child.residual_root)
        child.spectral = spectral_lb(child.res_graph)
        # the parent's refined bound covers the whole subtree, so it transfers
        child.lb = max(child.depth + child.spectral.combined_lb, parent.lb)
        local_pool = _restricted_pool(pool, child.res_old_to_new)
        child.local_ub = primal_heuristic(child.res_graph, local_pool).colors_used
        child.score = node_score(child.local_ub, child.res_graph.edge_count)
        order_counter += 1
        child.order = order_counter
        stats.nodes_generated += 1
        heapq.heappush(heap, (-child.score, child.order, child))

    if ub > root_lb:
        enqueue_children(root_node)

    while heap and ub > root_lb and not budget_hit:
        _, _, node = heapq.heappop(heap)
        if node.stale:
            node.closed = True
            stats.nodes_pruned += 1
            continue
        if node.lb >= ub:
            node.closed = True
            stats.nodes_pruned += 1
            continue
        assert node.residual_root not in explored_keys, "residual explored twice"
        explored_keys.add(node.residual_root)
        stats.nodes_explored += 1
        node.closed = True

        new_to_old = tuple(sorted(node.res_old_to_new))
        hcg_res = run_hcg(node.res_graph, new_to_old, pool, engine, config.hcg)
        pricing_log.extend(hcg_res.pricing_log)
        node.lb = max(node.lb, node_lb(node.depth, hcg_res.lp_bound, node.spectral))

        local_pool = _restricted_pool(pool, node.res_old_to_new)
        heur = primal_heuristic(node.res_graph, local_pool)
        try_incumbent(node.fixed_classes, heur, new_to_old)

        if node.lb >= ub:
            continue
        enqueue_children(node)

    open_nodes = [n for _, _, n in heap if not n.stale and not n.closed]
    stats.nodes_pruned += sum(1 for _, _, n in heap if n.stale and not n.closed)
    stats.nodes_open = len(open_nodes)
    min_open_lb = min((n.lb for n in open_nodes), default=None)
    if min_open_lb is None:
        global_lb = max(root_lb, ub)
    else:
        global_lb = max(root_lb, min(min_open_lb, ub))
    proven = ub == global_lb
    if (unsound_closure or budget_hit) and ub != root_lb:
        proven = False

    stats.shots_total = engine.shots_used
    stats.exact_pricer_calls = engine.exact_pricer_calls
    stats.wall_seconds = clock() - t_start
    return SolveResult(
        coloring=incumbent,
        chi_hat=ub,
        proven_optimal=proven,
        lp_root=root_hcg.lp_bound,
        root_lb=root_lb,
        stats=stats,
        pool=tuple(pool),
        pricing_log=pricing_log,
    )
