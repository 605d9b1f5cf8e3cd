"""Bitset graph core: per-mask primitives, DIMACS I/O, unit-disk instance generation.

Vertices are integers 0..n-1 and every vertex set is a plain int bitmask,
so n is capped at 64. Graphs are immutable after construction. A subgraph is
named by the root-graph mask of the vertices it keeps, and the solver passes
that mask around rather than a renumbered graph: columns, duals, the master's
rows, the spectrum and the sampler's filter all stay in root numbering, and
each fact about a mask is computed in one place here. Only the sampler's atom
register numbers vertices 0..k-1; it builds an `induced_subgraph` on the
mask's `linked` vertices, and `expand_mask` carries a drawn bitstring back to
the root.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

MAX_VERTICES = 64
MIN_SPACING_UM = 4.0  # the hardware's least atom spacing: instance points and registers keep it


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_sum(mask: int, values) -> float:
    """The sum of values[v] over the vertices v of mask, in increasing vertex order."""
    total = 0.0
    while mask:
        low = mask & -mask
        total += values[low.bit_length() - 1]
        mask ^= low
    return total


def restrict_mask(mask: int, keep: int) -> int:
    """Move each bit of mask that lies in keep to its rank in keep, dropping the rest."""
    out = 0
    for v in iter_bits(mask & keep):
        out |= 1 << (keep & ((1 << v) - 1)).bit_count()
    return out


def expand_mask(local: int, keep: int) -> int:
    """Inverse of restrict_mask: bit i of local goes to the i-th lowest bit of keep."""
    out = 0
    while local:
        low = keep & -keep
        if local & 1:
            out |= low
        keep ^= low
        local >>= 1
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over 0..n-1 with per-vertex adjacency bitmasks."""

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex index out of range: edge ({u}, {v}) with n={n}")
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n=n, adj=tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return self.edges_within(self.full_mask)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1)):
                yield u, u + 1 + v

    def edges_within(self, keep: int) -> int:
        """The number of edges with both endpoints in keep."""
        return sum((self.adj[v] & keep).bit_count() for v in iter_bits(keep)) // 2

    def linked(self, keep: int) -> int:
        """The vertices of keep with a neighbour in keep; the rest of keep is
        in every maximal independent set within keep."""
        return sum(1 << v for v in iter_bits(keep) if self.adj[v] & keep)

    def adjacency_matrix(self, keep: int | None = None) -> np.ndarray:
        """The 0/1 float adjacency matrix of the subgraph on keep (default: every
        vertex), rows and columns in increasing vertex order."""
        keep = self.full_mask if keep is None else keep
        if keep == 0:
            raise ValueError("cannot build an adjacency matrix on an empty vertex set")
        rows = np.array(list(iter_bits(keep)), np.uint64)
        return ((np.array(self.adj, np.uint64)[rows, None] >> rows) & 1).astype(float)

    def grow(self, mask: int, order: Iterable[int]) -> int:
        """mask plus each vertex of order, taken in turn, that has no neighbour
        in the set grown so far."""
        for v in order:
            if not self.adj[v] & mask:
                mask |= 1 << v
        return mask

    def is_independent(self, s: int) -> bool:
        """True iff no edge of the graph has both endpoints in s."""
        rest = s
        while rest:
            low = rest & -rest
            if self.adj[low.bit_length() - 1] & s:
                return False
            rest ^= low
        return True

    def induced_subgraph(self, keep: int) -> "Graph":
        """Induced subgraph on the kept vertices, renumbered in increasing order
        (vertex v becomes its rank in keep, as in restrict_mask)."""
        if keep == 0:
            raise ValueError("cannot induce a subgraph on an empty vertex set")
        adj = tuple(restrict_mask(self.adj[v], keep) for v in iter_bits(keep))
        return Graph(n=len(adj), adj=adj)

    def to_dimacs(self) -> str:
        lines = [f"p edge {self.n} {self.edge_count}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in self.edges())
        return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS edge-format graph (1-based vertices, re-indexed to 0-based)."""
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate problem header")
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed header {line!r}") from None
            if not 1 <= n <= MAX_VERTICES:
                raise ValueError(f"line {lineno}: vertex count {n} outside [1, {MAX_VERTICES}]")
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge before problem header")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed edge line {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"line {lineno}: vertex index out of range in {line!r}")
            if u == v:
                raise ValueError(f"line {lineno}: self-loop on vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ValueError("missing problem header")
    return Graph.from_edges(n, edges)


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    d = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((d * d).sum(axis=2))


def random_ud_graph(
    n: int,
    seed: int,
    radius: float = 10.0,
    box: float = 40.0,
) -> tuple[Graph, np.ndarray]:
    """Sample n points uniformly in a box (rejection sampling for >= MIN_SPACING_UM)
    and return the unit-disk graph at the given radius plus the positions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # `<= float max` refuses NaN, inf and an int past the float range alike.
    if not 0 < radius <= sys.float_info.max:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    if not 0 < box <= sys.float_info.max:
        raise ValueError(f"box must be positive and finite, got {box!r}")
    rng = np.random.default_rng(seed)
    for _ in range(50):
        pts: list[np.ndarray] = []
        ok = True
        for _ in range(n):
            for _ in range(400):
                p = rng.uniform(0.0, box, size=2)
                if all(float(np.hypot(*(p - q))) >= MIN_SPACING_UM for q in pts):
                    pts.append(p)
                    break
            else:
                ok = False
                break
        if ok:
            positions = np.array(pts)
            dist = pairwise_distances(positions)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if dist[u, v] <= radius
            ]
            return Graph.from_edges(n, edges), positions
    raise RuntimeError(f"could not place {n} points with spacing {MIN_SPACING_UM} in a {box}x{box} box")


def flip_random_pairs(g: Graph, seed: int) -> Graph:
    """Toggle the adjacency of k random vertex pairs, k uniform in {1, 2, 3}
    and capped at the n(n-1)/2 pairs there are.

    Used to derive non-unit-disk instances from unit-disk ones. A graph with a
    single vertex has no pairs, so an equal graph comes back.
    """
    rng = np.random.default_rng(seed)
    k = min(int(rng.integers(1, 4)), g.n * (g.n - 1) // 2)
    edges = set(g.edges())
    flipped: set[tuple[int, int]] = set()
    while len(flipped) < k:
        u = int(rng.integers(0, g.n))
        v = int(rng.integers(0, g.n - 1))
        if v >= u:
            v += 1
        pair = (min(u, v), max(u, v))
        if pair in flipped:
            continue
        flipped.add(pair)
        if pair in edges:
            edges.remove(pair)
        else:
            edges.add(pair)
    return Graph.from_edges(g.n, edges)
