"""Exact chromatic number by DSATUR-ordered backtracking.

Desk-scale reference oracle: a greedy clique seeds the lower bound, a greedy
largest-first coloring seeds the upper bound, then saturation-ordered
branch-and-bound closes the gap. New colors are only opened in canonical
order, which prunes color permutations.
"""

from __future__ import annotations

from .graphs import Graph, iter_bits

ORACLE_VERTEX_CAP = 20


def greedy_coloring(g: Graph) -> list[int]:
    """Largest-first greedy coloring; colors are 0-based."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors = [-1] * g.n
    for v in order:
        taken = {colors[u] for u in iter_bits(g.adj[v]) if colors[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def greedy_clique(g: Graph) -> int:
    """Bitmask of a maximal clique grown greedily from the highest-degree vertex."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique = 0
    for v in order:
        if (g.adj[v] & clique) == clique:
            clique |= 1 << v
    return clique


def exact_coloring(g: Graph) -> tuple[int, list[int]]:
    """Exact chromatic number and one optimal color assignment (0-based)."""
    if g.n > ORACLE_VERTEX_CAP:
        raise ValueError(f"exact oracle capped at {ORACLE_VERTEX_CAP} vertices, got {g.n}")

    best_assign = greedy_coloring(g)
    best = max(best_assign) + 1
    clique = greedy_clique(g)

    colors = [-1] * g.n
    neighbor_colors = [set() for _ in range(g.n)]
    n = g.n

    def select_vertex() -> int:
        cand, best_sat, best_deg = -1, -1, -1
        for v in range(n):
            if colors[v] < 0:
                sat = len(neighbor_colors[v])
                deg = g.degree(v)
                if sat > best_sat or (sat == best_sat and deg > best_deg):
                    cand, best_sat, best_deg = v, sat, deg
        return cand

    def assign(v: int, c: int) -> list[int]:
        colors[v] = c
        touched = []
        for u in iter_bits(g.adj[v]):
            if colors[u] < 0 and c not in neighbor_colors[u]:
                neighbor_colors[u].add(c)
                touched.append(u)
        return touched

    def unassign(v: int, c: int, touched: list[int]) -> None:
        for u in touched:
            neighbor_colors[u].remove(c)
        colors[v] = -1

    def backtrack(colored: int, used: int) -> None:
        nonlocal best, best_assign
        if used >= best:
            return
        if colored == n:
            best = used
            best_assign = colors[:]
            return
        v = select_vertex()
        for c in range(used):
            if c in neighbor_colors[v]:
                continue
            touched = assign(v, c)
            backtrack(colored + 1, used)
            unassign(v, c, touched)
        if used + 1 < best:
            touched = assign(v, used)
            backtrack(colored + 1, used + 1)
            unassign(v, used, touched)

    # Pre-color the greedy clique: its vertices need pairwise-distinct colors
    # anyway. When the greedy coloring uses no more colors, the search stops at once.
    colored = 0
    for i, v in enumerate(iter_bits(clique)):
        assign(v, i)
        colored += 1
    backtrack(colored, colored)
    return best, best_assign


def exact_chromatic_number(g: Graph) -> int:
    return exact_coloring(g)[0]
