"""Pricing for column generation: find independent sets whose dual weight beats 1.

The greedy pricer, `greedy_columns`, grows each seed to a maximal set within
the dual-positive mask in falling dual order and keeps it if it is then
improving. An improving set is new, since a solved master prices every
column it holds above -1e-7, so no pricer sees the master or the pool. The
sampler pass, `PricingEngine.sample_columns`, seeds the greedy with the
solve's sample memory and draws only when that finds nothing; it has one
exit and logs one `PricingStats` row. A draw holds an atom only for each
*linked* dual-positive vertex, one with a dual-positive neighbour: the others
are in every maximal set within the mask, so they are added to every drawn
set, and a mask with no edge draws nothing. The embed seed comes from the
dual-positive mask and the evolution is deterministic, so a revisited
subgraph gets the same final state again without a cache. Unseeded, the
greedy starts from the classes of a greedy coloring of the dual-positive
vertices and from each of them. When no pricer
finds a column, `clique_cover_weight` bounds every independent set's weight
by a greedy clique cover, and a bound of at most 1 + IMPROVE_EPS certifies
termination; only a looser cover leaves the round to a branch-and-bound MWIS,
the exact safeguard, which certifies termination or returns the heaviest set.
Everything is priced in root numbering against root-indexed duals, a list or
an array; only the register renumbers vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import RunConfig
from .embedding import audit, embed
from .emulator import MAX_QUBITS, build_adiabatic_pulse, evolve, sample
from .graphs import Graph, expand_mask, iter_bits, mask_of, mask_sum

# Must stay above the master's optimality tolerance (1e-7): at a solved master,
# every column already in the model satisfies dual feasibility to that tolerance,
# so nothing already priced in can come back looking improving, and no pricer
# checks for it.
IMPROVE_EPS = 1e-6
DUAL_POS_EPS = 1e-6


def reduced_cost(mask: int, duals: Sequence[float]) -> float:
    """1 - sum of duals over the set; improving iff below -IMPROVE_EPS."""
    return 1.0 - mask_sum(mask, duals)


def greedy_columns(
    g: Graph, positive: int, duals: Sequence[float], seeds: Iterable[int] | None = None,
) -> list[int]:
    """The distinct improving sets among the maximal sets within `positive`
    grown from each seed (an independent set within `positive`) by adding
    the vertices of `positive` in falling dual order (lower index on ties).
    Each added dual is positive, so growing only lowers the reduced cost.
    The seeds default to the classes of the greedy coloring of `positive` in
    that order, which together partition it, then its single vertices in that
    order; on at most 3 vertices the single vertices reach every maximal set,
    so an empty answer means none improves."""
    order = sorted(iter_bits(positive), key=lambda v: (-duals[v], v))
    if seeds is None:
        classes: list[int] = []
        for v in order:
            i = next((i for i, c in enumerate(classes) if not g.adj[v] & c), len(classes))
            if i == len(classes):
                classes.append(0)
            classes[i] |= 1 << v
        seeds = classes + [1 << v for v in order]
    grown = dict.fromkeys(g.grow(mask, order) for mask in seeds)
    return [m for m in grown if reduced_cost(m, duals) < -IMPROVE_EPS]


def clique_cover_weight(g: Graph, weights: Sequence[float]) -> float:
    """An upper bound on the weight of every independent set: the vertices of
    positive weight, taken in falling weight order (lower index on ties), each
    join the first clique they are adjacent to in full, and the bound is the sum
    of each clique's heaviest weight. An independent set meets a clique at most
    once, so it weighs no more than that sum."""
    cliques: list[int] = []
    total = 0.0
    for v in sorted((v for v in range(g.n) if weights[v] > 0.0), key=lambda v: (-weights[v], v)):
        i = next((i for i, c in enumerate(cliques) if not c & ~g.adj[v]), len(cliques))
        if i == len(cliques):
            cliques.append(0)
            total += weights[v]  # a clique's first vertex is its heaviest
        cliques[i] |= 1 << v
    return total


def exact_mwis(g: Graph, weights) -> int:
    """Independent set maximizing the weight sum, by branch-and-bound.

    Vertices with non-positive weight are dropped up front (they never help).
    Branching follows descending weight with the remaining-weight-sum bound.
    Equal-weight optima resolve to the smallest bitmask value.
    """
    w = [float(x) for x in weights]
    order = sorted((v for v in range(g.n) if w[v] > 0.0), key=lambda v: (-w[v], v))
    # Per branching position: the vertex's bit, weight and closed neighbourhood.
    branch = [(1 << v, w[v], g.adj[v] | (1 << v)) for v in order]
    depth = len(branch)
    best_w = 0.0
    best_mask = 0

    def descend(pos: int, cand: int, cur_w: float, cur_mask: int, rem: float) -> None:
        nonlocal best_w, best_mask
        if cur_w > best_w + 1e-12 or (cur_w > best_w - 1e-12 and cur_mask < best_mask):
            best_w, best_mask = cur_w, cur_mask
        if cur_w + rem < best_w - 1e-12:
            return
        while pos < depth and not cand & branch[pos][0]:
            pos += 1
        if pos == depth:
            return
        bit, w_v, closed = branch[pos]
        removed = closed & cand
        descend(pos + 1, cand & ~removed, cur_w + w_v, cur_mask | bit, rem - mask_sum(removed, w))
        descend(pos + 1, cand & ~bit, cur_w, cur_mask, rem - w_v)

    cand0 = mask_of(order)
    descend(0, cand0, 0.0, 0, mask_sum(cand0, w))
    return best_mask


@dataclass(frozen=True)
class PricingStats:
    """One row of the per-iteration pricing log."""

    iteration: int
    n_sub: int
    shots: int
    distinct_bitstrings: int
    improving: int
    maximal: int  # columns that are among the seeds, maximal before growing


class PricingEngine:
    """Holds the run's configuration and the seed stream of its draws.

    Each draw takes the next seed of the stream, which carries on across
    solves that share the engine. The engine keeps no tallies: a sampling
    pass reports its shots in its `PricingStats` row.
    """

    def __init__(self, config: RunConfig | None = None) -> None:
        self.config = config or RunConfig()
        self._draws = 0

    def _next_seed(self) -> list[int]:
        self._draws += 1
        return [self.config.seed, self._draws]

    def _draw_bitstrings(self, sub: Graph, key: int, weights: list[float]) -> list[int]:
        """The distinct bitstrings of one draw on `sub`, in increasing order."""
        if self.config.sampler == "emulated_qaa":
            reg = embed(sub, self.config, seed=int(np.random.default_rng(
                [self.config.seed, key & 0xFFFFFFFF, key >> 32]).integers(1 << 31)))
            report = audit(sub, reg, self.config.register_radius)
            pulse = build_adiabatic_pulse(report, self.config)
            amplitudes = evolve(reg, pulse, self.config)
            seed = int(np.random.default_rng(self._next_seed()).integers(1 << 31))
            return list(sample(amplitudes, self.config.shots, seed))
        # classical_stochastic: weighted random greedy maximal sets
        rng = np.random.default_rng(self._next_seed())
        drawn: set[int] = set()
        w = np.maximum(np.asarray(weights, dtype=float), 1e-9)
        for _ in range(self.config.shots):
            keys = rng.random(sub.n) ** (1.0 / w)
            chosen = sub.grow(0, sorted(range(sub.n), key=lambda i: -keys[i]))
            drawn.add(chosen)
        return sorted(drawn)

    def sample_columns(
        self,
        root: Graph,
        positive: int,
        duals: Sequence[float],
        samples: dict[int, None],
        iteration: int = 0,
    ) -> tuple[list[int], PricingStats]:
        """Sampler pricing pass over the subproblem that `root` induces on the
        dual-positive mask `positive` (`duals` holds one value per root vertex).

        The pass first grows the solve's sample memory, `samples`: every
        independent set this solve has drawn, cut down to `positive`. Only
        when none of those gives a column does it draw again, on the subgraph
        induced by the `linked` vertices of `positive`; each drawn set gets
        the rest of `positive`, and the independent ones are stored in
        `samples` and grown in their place. Nothing is drawn on a mask with
        no edge, whose one maximal set the unseeded greedy prices, nor by the
        emulated sampler on more than MAX_QUBITS linked vertices (atoms): the
        pass then returns no columns, and the classical pricers answer the
        round. A pass that draws nothing logs 0 shots and 0 distinct
        bitstrings; `n_sub` counts all of `positive` either way.
        Every returned column is a root mask, independent and maximal within
        `positive`, with reduced cost below -1e-6, re-checked here no matter
        what the sampler produced; so it is new to the master that gave the
        duals.
        """
        if self.config.sampler == "exact_pricer":
            raise ValueError("exact_pricer has no sampling path; call exact_mwis instead")
        n_sub = positive.bit_count()
        seeds = dict.fromkeys(mask & positive for mask in samples)
        columns = greedy_columns(root, positive, duals, seeds)
        shots = distinct = 0
        linked = root.linked(positive)
        if not columns and linked and (self.config.sampler != "emulated_qaa" or linked.bit_count() <= MAX_QUBITS):
            sub = root.induced_subgraph(linked)
            w = [duals[v] for v in iter_bits(linked)]
            drawn = [expand_mask(local, linked) | positive & ~linked
                     for local in self._draw_bitstrings(sub, positive, w)]
            seeds = dict.fromkeys(mask for mask in drawn if root.is_independent(mask))
            samples.update(seeds)
            columns = greedy_columns(root, positive, duals, seeds)
            shots, distinct = self.config.shots, len(drawn)
        maximal = sum(m in seeds for m in columns)
        return columns, PricingStats(iteration, n_sub, shots, distinct, len(columns), maximal)
