"""Restricted master problem: the set-partitioning LP over a column pool.

The model is min sum(lambda) subject to one equality row per vertex
(each vertex covered exactly once) and lambda >= 0. Columns are independent
sets. The n singleton columns are always present, so the identity basis is a
feasible simplex start and no phase-1 is needed. Duals come straight from
the optimal basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, iter_bits

FEAS_TOL = 1e-9
OPT_TOL = 1e-7
PIVOT_TOL = 1e-10
DEGENERATE_PIVOT_LIMIT = 500
MAX_PIVOTS = 20_000


class RmpError(RuntimeError):
    """Numerical failure inside the simplex; never patched silently."""


@dataclass(frozen=True, slots=True)
class Column:
    """An independent set in root-graph indexing plus discovery bookkeeping."""

    mask: int
    discovered_reduced_cost: float
    is_maximal: bool
    origin: str  # singleton | quantum | exact_pricer


class ColumnPool:
    """Ordered, duplicate-free collection of root-graph columns."""

    def __init__(self) -> None:
        self._by_mask: dict[int, Column] = {}

    def __contains__(self, mask: int) -> bool:
        return mask in self._by_mask

    def __len__(self) -> int:
        return len(self._by_mask)

    @property
    def columns(self) -> list[Column]:
        return list(self._by_mask.values())

    def masks(self) -> list[int]:
        return list(self._by_mask)

    def add(self, column: Column) -> bool:
        if column.mask in self._by_mask or column.mask == 0:
            return False
        self._by_mask[column.mask] = column
        return True

    @classmethod
    def with_singletons(cls, g: Graph) -> "ColumnPool":
        pool = cls()
        for v in range(g.n):
            pool.add(Column(mask=1 << v, discovered_reduced_cost=0.0, is_maximal=False, origin="singleton"))
        return pool


@dataclass
class RmpModel:
    """Column pool of one subproblem, as local bitmasks over `graph`."""

    graph: Graph
    masks: list[int] = field(default_factory=list)
    _seen: set[int] = field(default_factory=set)

    def add(self, mask: int) -> bool:
        if mask in self._seen or mask == 0:
            return False
        if not self.graph.is_independent(mask):
            raise ValueError(f"column {mask:#x} is not an independent set (pricing bug)")
        self.masks.append(mask)
        self._seen.add(mask)
        return True


@dataclass(frozen=True)
class RmpSolution:
    lam: np.ndarray       # one value per model column, >= 0
    duals: np.ndarray     # one value per vertex
    objective: float


def init_rmp(g: Graph) -> RmpModel:
    """Model seeded with the n singleton columns (always feasible)."""
    model = RmpModel(graph=g)
    for v in range(g.n):
        model.add(1 << v)
    return model


def add_columns(model: RmpModel, masks: list[int]) -> int:
    """Insert independent sets, skipping duplicates; returns the number added."""
    return sum(1 for m in masks if model.add(m))


def _constraint_matrix(model: RmpModel) -> np.ndarray:
    n = model.graph.n
    a = np.zeros((n, len(model.masks)))
    for j, mask in enumerate(model.masks):
        for v in iter_bits(mask):
            a[v, j] = 1.0
    return a


def _revised_simplex(a: np.ndarray, basis: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Minimize 1'x subject to a x = 1, x >= 0 from a feasible starting basis.

    Dantzig pricing with a switch to Bland's rule after a run of degenerate
    pivots, which guarantees termination.
    """
    n, m = a.shape
    b = np.ones(n)
    c = np.ones(m)
    degenerate = 0
    bland = False
    for _ in range(MAX_PIVOTS):
        basis_mat = a[:, basis]
        try:
            x_b = np.linalg.solve(basis_mat, b)
            y = np.linalg.solve(basis_mat.T, c[basis])
        except np.linalg.LinAlgError as exc:
            raise RmpError("singular basis") from exc
        reduced = c - a.T @ y
        reduced[basis] = 0.0
        if bland:
            improving = np.flatnonzero(reduced < -OPT_TOL)
            if improving.size == 0:
                return x_b, y
            enter = int(improving[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -OPT_TOL:
                return x_b, y
        direction = np.linalg.solve(basis_mat, a[:, enter])
        positive = np.flatnonzero(direction > PIVOT_TOL)
        if positive.size == 0:
            raise RmpError("unbounded direction in a bounded LP (numerical failure)")
        ratios = x_b[positive] / direction[positive]
        theta = ratios.min()
        ties = positive[np.flatnonzero(ratios <= theta + 1e-12)]
        leave = int(min(ties, key=lambda i: basis[i]))
        if theta < 1e-12:
            degenerate += 1
            if degenerate >= DEGENERATE_PIVOT_LIMIT:
                bland = True
        else:
            degenerate = 0
        basis[leave] = enter
    raise RmpError("simplex pivot limit reached")


def solve_rmp(model: RmpModel) -> RmpSolution:
    """Optimal basic solution and duals of the current model.

    Feasibility, strong duality, and pool dual-feasibility are re-checked on
    the way out; violations raise RmpError rather than being patched.
    """
    n = model.graph.n
    singleton_pos = {mask: j for j, mask in enumerate(model.masks) if mask.bit_count() == 1}
    if len(singleton_pos) < n:
        raise RmpError("model is missing singleton columns (infeasible start)")
    basis = [singleton_pos[1 << v] for v in range(n)]

    a = _constraint_matrix(model)
    x_b, duals = _revised_simplex(a, basis)

    lam = np.zeros(len(model.masks))
    lam[basis] = x_b
    if lam.min() < -1e-7:
        raise RmpError(f"negative basic variable {lam.min():.3e}")
    lam = np.maximum(lam, 0.0)
    objective = float(lam.sum())

    residual = np.abs(a @ lam - 1.0).max()
    if residual > FEAS_TOL:
        raise RmpError(f"primal feasibility residual {residual:.3e}")
    if abs(objective - float(duals.sum())) > 1e-7:
        raise RmpError("strong duality violated at reported optimum")
    slack = (a.T @ duals - 1.0).max()
    if slack > OPT_TOL:
        raise RmpError(f"dual infeasibility {slack:.3e} over the pool")
    return RmpSolution(lam=lam, duals=duals, objective=objective)


def to_lp_text(model: RmpModel) -> str:
    """Model dump in LP text format, for cross-checks with external solvers."""
    cols = [f"l{j}" for j in range(len(model.masks))]
    lines = ["Minimize", " obj: " + " + ".join(cols), "Subject To"]
    for v in range(model.graph.n):
        terms = [cols[j] for j, mask in enumerate(model.masks) if mask >> v & 1]
        lines.append(f" cover_{v}: " + " + ".join(terms) + " = 1")
    lines.append("Bounds")
    lines.extend(f" 0 <= {name}" for name in cols)
    lines.append("End")
    return "\n".join(lines) + "\n"
