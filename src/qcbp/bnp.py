"""Branch-and-bound around column generation: branching on maximal sets,
bounding with master-LP and spectral lower bounds, and a primal heuristic
that recombines a node's columns into colorings.

A node's work comes back in the result of its column generation: the search
adds up the pricing log and the exact pricer's calls from it, and hands its
columns (the residual's singletons, the pool cut down to the residual, and
the sets priced at the node) to the primal heuristic and to branching. The
heuristic is a search over covers by those columns: its first descent is a
greedy coloring, and while that needs more colors than the node's bound
allows, it searches on for a coloring at that bound. It only offers
incumbents, so proofs are unchanged.

A node branches on its residual's highest-degree vertex v: one child fixes
each maximal independent set that contains v, with the sets among the node's
columns first. The children cover every coloring of the residual whatever
the sampler returned, so an exhausted search is a proof.

A child is cheap to queue: it keeps its parent's bound, and its score is
the parent's heuristic color count times the child's residual edge count, the
larger first. It is bounded when popped, by the spectral bounds of its
residual, and pruned on them before column generation runs; the primal
heuristic runs once per explored node, after column generation.

The root is a node like any other, and every node names its residual by its
vertex mask in the root graph; its depth is the number of classes it has
fixed. Different branches can leave the same residual, and the shallower path
to it needs fewer colors, so one dict keeps the least depth each residual was
queued at: a child at that depth or deeper is dropped, a queued node that a
shallower one has since replaced is pruned when popped, and a residual
reached again by a shallower path is explored again even if it was explored
before.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array
from dataclasses import dataclass, field, fields
from typing import Iterable

from .bounds import CEIL_TOL, spectral_lb
from .config import RunConfig
from .graphs import Graph, iter_bits
from .hcg import run_hcg
from .pricing import PricingEngine, PricingStats
from .rmp import ColumnPool

COVER_STEP_CAP = 2000  # branchings of the primal heuristic after its first descent


@dataclass(frozen=True, slots=True)
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
    residual_root: int  # the vertices still to color, in root indexing
    fixed_classes: tuple[int, ...]
    lb: int = 1

    @property
    def depth(self) -> int:
        return len(self.fixed_classes)


@dataclass(slots=True)
class SearchStats:
    nodes_generated: int = 0
    nodes_explored: int = 0
    nodes_pruned: int = 0
    nodes_open: int = 0
    shots_total: int = 0
    exact_pricer_calls: int = 0
    uncertified_nodes: int = 0  # HCG runs stopped at the cap
    unproven_reason: str = ""  # "budget" when the node budget stopped the search unproven
    wall_seconds: float = 0.0


@dataclass(slots=True)
class SolveResult:
    coloring: Coloring
    chi_hat: int
    proven_optimal: bool
    lp_root: float
    root_lb: int
    stats: SearchStats
    pool: array  # typecode "Q": every priced column mask, in discovery order
    pricing_log: list[PricingStats] = field(default_factory=list)


def primal_heuristic(residual: int, columns: Iterable[int], k: int) -> Coloring:
    """A coloring of `residual` by the columns cut down to it, overlaps going
    to the first chosen: one with at most k classes if the search finds one.

    Only the cut columns that no other one contains are used. The search
    branches on the uncovered vertex with the fewest covering columns (lowest
    index on ties), trying the columns that cover the most first (then smaller
    masks). Its first descent is a greedy coloring, kept whatever its size.
    After it, a column is tried only while the rest, none wider than the
    widest, could still cover what is left within k classes, and the search
    stops at the first such cover or after COVER_STEP_CAP more branchings.
    The singletons among the columns guarantee a coloring.
    """
    cut = sorted({m & residual for m in columns} - {0}, key=lambda m: (-m.bit_count(), m))
    covering: dict[int, list[int]] = {1 << v: [] for v in iter_bits(residual)}  # by vertex bit
    for m in cut:  # a superset of m sorts before it, so it is already listed
        for o in covering[m & -m]:
            if o & m == m:
                break
        else:
            for v in iter_bits(m):
                covering[1 << v].append(m)
    order = sorted(covering, key=lambda b: (len(covering[b]), b))
    if order and not covering[order[0]]:
        raise ValueError(f"no column contains vertex {order[0].bit_length() - 1}")
    widest = cut[0].bit_count() if cut else 0
    best: tuple[int, ...] = ()
    steps = 0

    def search(uncovered: int, chosen: tuple[int, ...]) -> bool:
        """Whether the search stops here: at a cover within k, or at the cap."""
        nonlocal best, steps
        if uncovered == 0:
            best = chosen  # the first descent's, or one within k
            return len(chosen) <= k
        if best:
            if steps == COVER_STEP_CAP:
                return True
            steps += 1
        b = next(b for b in order if uncovered & b)
        room = (k - len(chosen) - 1) * widest  # what the columns after this one can cover
        for left, m in sorted(((uncovered & ~m).bit_count(), m) for m in covering[b]):
            if best and left > room:
                break  # and so for every later column, which leaves as much or more
            if search(uncovered & ~m, chosen + (m & uncovered,)):
                return True
        return False

    search(residual, ())
    return Coloring(classes=best)


def node_lb(depth: int, lp_bound: float, lb: int) -> int:
    """A node's bound once its master LP is solved: the colors fixed so far
    plus the LP value's ceiling (the chromatic number is integral), never
    below the bound `lb` the node already had."""
    return max(lb, depth + math.ceil(lp_bound - CEIL_TOL))


def node_score(local_ub: int, residual_edge_count: int) -> float:
    return float(local_ub * residual_edge_count)


def maximal_sets_containing(g: Graph, v: int, keep: int) -> list[int]:
    """Every maximal independent set of g's subgraph on `keep` that contains v.

    These are v plus the maximal independent sets on v's non-neighbours in
    `keep`, enumerated as maximal cliques of the complement by Bron-Kerbosch
    with pivoting, in bitmask form.
    """
    non_adj = {u: keep & ~(g.adj[u] | 1 << u) for u in iter_bits(keep)}
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


def branch(root_graph: Graph, node: BBNode, columns: Iterable[int]) -> list[BBNode]:
    """One child per maximal independent set of the residual that contains
    its highest-degree vertex v (lowest index on ties).

    The class holding v in any coloring extends to one of these sets, so the
    children cover every coloring of the residual. Sets that one of the
    node's `columns` restricts to come first, so the sampler steers the
    search; then larger sets, then smaller masks. Distinct sets leave distinct residuals. Each
    child starts from its parent's bound, which covers the whole subtree.
    """
    residual = node.residual_root
    if residual == 0:
        raise ValueError("cannot branch on an empty residual")
    v = max(iter_bits(residual), key=lambda u: ((root_graph.adj[u] & residual).bit_count(), -u))
    pooled = {m & residual for m in columns}
    fixed_sets = maximal_sets_containing(root_graph, v, residual)
    fixed_sets.sort(key=lambda m: (m not in pooled, -m.bit_count(), m))
    return [
        BBNode(
            residual_root=residual & ~fixed,
            fixed_classes=node.fixed_classes + (fixed,),
            lb=node.lb,
        )
        for fixed in fixed_sets
    ]


def solve_qcbp(
    g: Graph,
    config: RunConfig | None = None,
    engine: PricingEngine | None = None,
    clock=time.perf_counter,
) -> SolveResult:
    """Full solve: certified column generation at every explored node,
    incumbents from each node's columns, best-score-first search with bound
    pruning. The module docstring gives the rules for queueing, bounding and
    revisiting a residual.

    Every setting comes from `engine.config`; without an engine one is built
    from `config`. A `config` given beside an engine must equal its config in
    every field but `seed`, since the engine's seed stream is its own."""
    engine = engine or PricingEngine(config)
    if config is not None:
        differ = [f.name for f in fields(RunConfig)
                  if f.name != "seed" and getattr(config, f.name) != getattr(engine.config, f.name)]
        if differ:
            raise ValueError(f"config differs from engine.config in {', '.join(differ)}")
    config = engine.config
    t_start = clock()

    pool = ColumnPool()
    pricing_log: list[PricingStats] = []
    stats = SearchStats()
    incumbent = Coloring(classes=())
    ub = g.n + 1  # every coloring beats it, so the root's heuristic sets the incumbent
    root_lb, lp_root = 0, 0.0
    best_depth: dict[int, int] = {}  # residual -> least depth it was queued at
    heap: list[tuple[float, int, BBNode]] = []
    budget_hit = False

    def push(node: BBNode, local_ub: int) -> None:
        residual = node.residual_root
        edges = sum((g.adj[v] & residual).bit_count() for v in iter_bits(residual)) // 2
        best_depth[residual] = node.depth
        stats.nodes_generated += 1
        heapq.heappush(heap, (-node_score(local_ub, edges), stats.nodes_generated, node))

    def try_incumbent(classes: tuple[int, ...]) -> None:
        nonlocal incumbent, ub
        if len(classes) < ub:
            candidate = Coloring(classes=classes)
            candidate.validate(g, g.full_mask)
            incumbent, ub = candidate, len(classes)

    push(BBNode(residual_root=g.full_mask, fixed_classes=()), g.n)  # alone, any score
    while heap and ub > root_lb and not budget_hit:
        _, _, node = heapq.heappop(heap)
        if node.depth > best_depth[node.residual_root] or node.lb >= ub:
            stats.nodes_pruned += 1
            continue
        spectral = spectral_lb(g.induced_subgraph(node.residual_root)).combined_lb
        node.lb = max(node.lb, node.depth + spectral)
        if node.lb >= ub:
            stats.nodes_pruned += 1
            continue
        stats.nodes_explored += 1

        hcg_res = run_hcg(g, node.residual_root, pool, engine)
        pricing_log.extend(hcg_res.pricing_log)
        stats.exact_pricer_calls += hcg_res.exact_calls
        stats.uncertified_nodes += not hcg_res.certified
        node.lb = node_lb(node.depth, hcg_res.lp_bound, node.lb)
        # a coloring in k = node.lb - depth classes would beat the incumbent; at
        # node.lb >= ub none can, and k = the residual's size ends the first descent
        k = node.lb - node.depth if node.lb < ub else node.residual_root.bit_count()
        local = primal_heuristic(node.residual_root, hcg_res.columns, k)
        try_incumbent(node.fixed_classes + local.classes)
        if node.depth == 0:
            root_lb, lp_root = node.lb, hcg_res.lp_bound
            if ub < root_lb:
                raise RuntimeError(f"heuristic coloring ({ub}) beat the root lower bound ({root_lb})")

        if node.lb >= ub:
            continue
        for child in branch(g, node, hcg_res.columns):
            residual = child.residual_root
            if residual == 0:
                stats.nodes_generated += 1
                stats.nodes_pruned += 1
                try_incumbent(child.fixed_classes)
            elif best_depth.get(residual, child.depth + 1) > child.depth:
                if stats.nodes_generated >= config.node_budget:
                    budget_hit = True
                    break
                push(child, local.colors_used)

    # the loop stops early only at the root bound or at the budget
    proven = not budget_hit or ub == root_lb
    stats.unproven_reason = "" if proven else "budget"
    # a queued node whose residual was queued again shallower is pruned, not open
    stats.nodes_open = sum(n.depth == best_depth[n.residual_root] for _, _, n in heap)
    stats.nodes_pruned += len(heap) - stats.nodes_open
    stats.shots_total = sum(row.shots for row in pricing_log)
    stats.wall_seconds = clock() - t_start
    return SolveResult(
        coloring=incumbent,
        chi_hat=ub,
        proven_optimal=proven,
        lp_root=lp_root,
        root_lb=root_lb,
        stats=stats,
        pool=array("Q", pool.columns),
        pricing_log=pricing_log,
    )
