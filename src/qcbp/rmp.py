"""Restricted master problem: the set-partitioning LP over a column pool.

The model is min sum(lambda) subject to one equality row per vertex of the
subproblem's root-graph mask `keep`, in increasing order (each vertex covered
exactly once), and lambda >= 0. Columns are independent sets, given as root
masks and cut down to `keep`; duals come back one per root vertex, 0 outside
`keep`. The model keeps its 0/1 constraint matrix and the last optimal
basis. One writer turns masks into matrix columns, a batch at a time in one
array operation: the singletons and the pool when the model is built, then
each round's priced columns. The first solve starts from the singleton
columns, which are always present, so no phase-1 is needed. Later solves
restart from the previous optimal basis: columns are only ever appended, so
that basis stays primal feasible. Duals come straight from the optimal basis,
whose inverse each pivot updates rather than recomputes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .graphs import Graph, iter_bits

FEAS_TOL = 1e-9
OPT_TOL = 1e-7
PIVOT_TOL = 1e-10
DEGENERATE_PIVOT_LIMIT = 500
MAX_PIVOTS = 20_000
# Each eta update carries the inverse's rounding error forward, and can grow it
# on an ill-conditioned basis, so the inverse is rebuilt from the basis columns
# this often. On G(20, 0.3) masters the drift stays near 1e-14 after 40 updates,
# far under the exit checks' tolerances (1e-9 feasibility, 1e-7 duality), and a
# warm solve takes about 10 pivots, so the rebuild seldom runs there.
REFACTOR_PIVOTS = 16


class RmpError(RuntimeError):
    """Numerical failure inside the simplex; never patched silently."""


class ColumnPool:
    """Insertion-ordered, duplicate-free set of root-graph column masks.

    A solve's pool also carries its sample memory, `samples`: every
    independent set the sampler has drawn in this solve, as a root mask in
    first-seen order, whether or not it became a column. Iteration and
    membership cover the columns only.
    """

    def __init__(self) -> None:
        self._masks: dict[int, None] = {}
        self.samples: dict[int, None] = {}

    def __contains__(self, mask: int) -> bool:
        return mask in self._masks

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator[int]:
        return iter(self._masks)

    def add(self, mask: int) -> bool:
        if mask in self._masks or mask == 0:
            return False
        self._masks[mask] = None
        return True

    @classmethod
    def with_singletons(cls, g: Graph) -> "ColumnPool":
        pool = cls()
        for v in range(g.n):
            pool.add(1 << v)
        return pool


@dataclass
class RmpModel:
    """Column pool of the subproblem on `keep`, as root masks cut down to it,
    with its constraint matrix (one column per mask, one row per vertex of
    `keep`) and the last optimal basis (None until the first solve)."""

    graph: Graph
    keep: int
    masks: list[int] = field(default_factory=list)
    _a: np.ndarray = field(init=False, repr=False)
    _basis: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not 0 < self.keep <= self.graph.full_mask:
            raise ValueError(f"keep {self.keep:#x} is not a nonempty vertex mask of the graph")
        self._a = np.zeros((self.keep.bit_count(), 0))

    def add(self, masks: Iterable[int]) -> int:
        """Append independent sets as columns, skipping duplicates; returns the
        number added."""
        masks = list(masks)
        for mask in masks:
            if not self.graph.is_independent(mask & self.keep):
                raise ValueError(f"column {mask:#x} is not an independent set (pricing bug)")
        return self._write(masks)

    def _write(self, masks: Iterable[int]) -> int:
        """Append the masks cut down to `keep` as matrix columns, dropping zeros
        and masks already present (a repeat keeps its first position); returns
        the number appended."""
        held = set(self.masks)
        new = [m for m in dict.fromkeys(mask & self.keep for mask in masks) if m and m not in held]
        rows = np.fromiter(iter_bits(self.keep), np.uint64)
        columns = (np.array(new, np.uint64) >> rows[:, None]) & 1
        self._a = np.concatenate([self._a, columns], axis=1, dtype=float)
        self.masks += new
        return len(new)


@dataclass(frozen=True)
class RmpSolution:
    lam: np.ndarray       # one value per model column, >= 0
    duals: np.ndarray     # one value per root vertex, 0 outside the model's `keep`
    objective: float


def init_rmp(g: Graph, keep: int | None = None, pool: Iterable[int] = ()) -> RmpModel:
    """Model of the subproblem on `keep` (all of g by default): its singleton
    columns (always feasible), then the pooled masks cut down to `keep`.

    Zero and repeated restrictions are dropped, and first occurrences keep
    their pool order. Pooled masks are independent sets, and so are their
    restrictions, so they are not checked again.
    """
    model = RmpModel(graph=g, keep=g.full_mask if keep is None else keep)
    model._write(chain((1 << v for v in iter_bits(model.keep)), pool))
    return model


def _revised_simplex(a: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize 1'x subject to a x = 1, x >= 0 from a feasible starting basis.

    Dantzig pricing with a switch to Bland's rule after a run of degenerate
    pivots, which guarantees termination. Costs and right-hand side are all
    ones, so the basis inverse gives the primal values (its row sums), the
    duals (its column sums) and the entering direction. The inverse is taken
    once and then carried across each pivot by a rank-one eta update, with a
    fresh inverse every REFACTOR_PIVOTS pivots. `basis` (column indices, one
    per row) is updated in place; among tied leaving rows, the one whose
    basic column has the smallest index leaves.
    """
    degenerate = 0
    bland = False
    inv = _basis_inverse(a, basis)
    for pivot in range(1, MAX_PIVOTS + 1):
        x_b = inv.sum(axis=1)
        y = inv.sum(axis=0)
        reduced = 1.0 - y @ a
        reduced[basis] = 0.0
        if bland:
            improving = (reduced < -OPT_TOL).nonzero()[0]
            if improving.size == 0:
                return x_b, y
            enter = int(improving[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -OPT_TOL:
                return x_b, y
        direction = inv @ a[:, enter]
        positive = (direction > PIVOT_TOL).nonzero()[0]
        if positive.size == 0:
            raise RmpError("unbounded direction in a bounded LP (numerical failure)")
        ratios = x_b[positive] / direction[positive]
        theta = ratios.min()
        ties = positive[ratios <= theta + 1e-12]
        leave = int(ties[basis[ties].argmin()])
        if theta < 1e-12:
            degenerate += 1
            if degenerate >= DEGENERATE_PIVOT_LIMIT:
                bland = True
        else:
            degenerate = 0
        basis[leave] = enter
        if pivot % REFACTOR_PIVOTS == 0:
            inv = _basis_inverse(a, basis)
        else:
            # The new inverse is E @ inv for the eta matrix E that maps
            # `direction` to the unit vector of row `leave`.
            pivot_row = inv[leave] / direction[leave]
            inv -= direction[:, None] * pivot_row
            inv[leave] = pivot_row
    raise RmpError("simplex pivot limit reached")


def _basis_inverse(a: np.ndarray, basis: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(a[:, basis])
    except np.linalg.LinAlgError as exc:
        raise RmpError("singular basis") from exc


def solve_rmp(model: RmpModel) -> RmpSolution:
    """Optimal basic solution and duals of the current model, from the last
    optimal basis or, on the first solve, from the singleton basis.

    Feasibility, strong duality, and pool dual-feasibility are re-checked on
    the way out; violations raise RmpError rather than being patched.
    """
    if model._basis is None:
        singleton_pos = {mask: j for j, mask in enumerate(model.masks) if mask.bit_count() == 1}
        if len(singleton_pos) < model.keep.bit_count():
            raise RmpError("model is missing singleton columns (infeasible start)")
        basis = np.array([singleton_pos[1 << v] for v in iter_bits(model.keep)], dtype=np.intp)
    else:
        basis = model._basis.copy()

    a = model._a
    x_b, y = _revised_simplex(a, basis)

    lam = np.zeros(a.shape[1])
    lam[basis] = x_b
    if lam.min() < -1e-7:
        raise RmpError(f"negative basic variable {lam.min():.3e}")
    lam = np.maximum(lam, 0.0)
    objective = float(lam.sum())

    residual = np.abs(a @ lam - 1.0).max()
    if residual > FEAS_TOL:
        raise RmpError(f"primal feasibility residual {residual:.3e}")
    if abs(objective - float(y.sum())) > 1e-7:
        raise RmpError("strong duality violated at reported optimum")
    slack = (y @ a - 1.0).max()
    if slack > OPT_TOL:
        raise RmpError(f"dual infeasibility {slack:.3e} over the pool")
    model._basis = basis
    duals = np.zeros(model.graph.n)
    duals[list(iter_bits(model.keep))] = y
    return RmpSolution(lam=lam, duals=duals, objective=objective)
