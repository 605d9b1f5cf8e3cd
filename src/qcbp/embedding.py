"""Atom layout for a target graph and the audit of the layout it actually encodes.

A register is found by momentum gradient descent directly on the 2n coordinates,
minimizing squared hinge penalties for: adjacent pairs farther than the
unit-disk radius, non-adjacent pairs closer than it, any pair closer than the
hardware minimum spacing, and points outside the register disk. The hardware
limits, the loss weights, the descent schedule (first step, its decay,
momentum) and the stall rule are module constants; `RunConfig` sets the
unit-disk radius, the iteration budget and the restart count. The restarts
descend as one batch. It stops once a restart reaches zero loss (an exact
layout), or once the batch's best loss has fallen by less than STALL_DROP over
the last STALL_WINDOW iterations, so a graph with no exact layout stops when
its descent stalls and the iteration budget is only a cap. The audit then
compares the unit-disk graph of the layout against the target graph and
extracts the distance bounds that `build_adiabatic_pulse` needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .graphs import MIN_SPACING_UM, Graph, pairwise_distances

REGISTER_RADIUS_UM = 50.0
# Loss weights of the edge, non-edge, spacing and register-disk hinges.
W_EDGE, W_NONEDGE, W_SPACING, W_RADIUS = 1.0, 1.0, 4.0, 1.0
# Descent schedule: the first move per atom (um), its decay per iteration, and
# the momentum.
STEP_UM, STEP_DECAY, MOMENTUM = 0.5, 0.999, 0.9
# Stall rule, tuned against that schedule: every STALL_WINDOW iterations the
# batch's best loss must have fallen by STALL_DROP (a share) since the last
# check, or the descent stops. Over the 470 layouts that the ud_qaa benchmark
# sets of seeds 1-10 ask for, the rule cuts no exact layout (the slowest takes
# 335 iterations), and it stops the 7 inexact ones after 200 to 400.
STALL_WINDOW, STALL_DROP = 100, 0.05


class EmbeddingError(RuntimeError):
    """Hard hardware constraints could not be met; reported, never hidden."""


@dataclass(frozen=True)
class Register:
    """Immutable 2D atom coordinates in micrometers.

    Enforces on construction: at least one atom, finite coordinates, pairwise
    spacing of at least 4 um and every atom within 50 um of the centroid.
    """

    positions: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.positions:
            raise EmbeddingError("a register needs at least one atom")
        pos = self.as_array()
        for i, (x, y) in enumerate(pos.tolist()):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise EmbeddingError(f"atom {i} has a non-finite coordinate ({x!r}, {y!r})")
        if len(pos) >= 2:
            d = pairwise_distances(pos)
            np.fill_diagonal(d, np.inf)
            if d.min() < MIN_SPACING_UM - 1e-9:
                raise EmbeddingError(f"atom spacing {d.min():.3f} um below {MIN_SPACING_UM} um")
        centroid = pos.mean(axis=0)
        radius = np.sqrt(((pos - centroid) ** 2).sum(axis=1)).max()
        if radius > REGISTER_RADIUS_UM + 1e-9:
            raise EmbeddingError(f"atom {radius:.3f} um from centroid exceeds {REGISTER_RADIUS_UM} um")

    @property
    def n(self) -> int:
        return len(self.positions)

    def as_array(self) -> np.ndarray:
        return np.array(self.positions, dtype=float).reshape(self.n, 2)


@dataclass(frozen=True)
class EmbeddingReport:
    """How faithfully a register's unit-disk graph reproduces the target graph."""

    is_exact_ud: bool
    missing_edges: tuple[tuple[int, int], ...]  # in target, absent from the layout
    extra_edges: tuple[tuple[int, int], ...]    # in the layout, absent from target
    r_max: float | None                         # max distance over target edges
    r_min_gap: float | None                     # min distance over target non-edges (R_min)


def audit(g: Graph, reg: Register, ud_radius: float) -> EmbeddingReport:
    """Compare the target graph with the unit-disk graph the register encodes."""
    if reg.n != g.n:
        raise ValueError(f"register has {reg.n} atoms for a {g.n}-vertex graph")
    u, v = np.triu_indices(g.n, k=1)  # every pair u < v, in row order
    d = pairwise_distances(reg.as_array())[u, v]
    edge = g.adjacency_matrix()[u, v] > 0
    within = d <= ud_radius
    missing = tuple(zip(u[edge & ~within].tolist(), v[edge & ~within].tolist()))
    extra = tuple(zip(u[~edge & within].tolist(), v[~edge & within].tolist()))
    return EmbeddingReport(
        is_exact_ud=not missing and not extra,
        missing_edges=missing,
        extra_edges=extra,
        r_max=float(d[edge].max()) if edge.any() else None,
        r_min_gap=float(d[~edge].min()) if not edge.all() else None,
    )


def _descend(g: Graph, config: RunConfig, seed: int) -> np.ndarray:
    """All restarts as one (R, n, 2) batch; restart r starts from
    default_rng([seed, r]). Stops at the first iteration where some restart has
    zero loss, whose layout is then exact, at the first stalled check of the
    batch's best loss (see STALL_WINDOW), or after `config.embed_iterations`."""
    n = g.n
    edge_mask = g.adjacency_matrix() > 0
    nonedge_mask = ~edge_mask
    np.fill_diagonal(nonedge_mask, False)
    eye = np.eye(n, dtype=bool)

    init_radius = max(6.0, 2.5 * math.sqrt(n))
    rngs = [np.random.default_rng([seed, r]) for r in range(config.embed_restarts)]
    pos = np.stack([rng.uniform(-init_radius, init_radius, size=(n, 2)) for rng in rngs])
    vel = np.zeros_like(pos)
    step = STEP_UM
    checked_loss = math.inf
    for it in range(config.embed_iterations):
        diff = pos[:, :, None, :] - pos[:, None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=3))
        dist[:, eye] = 1.0
        too_far = np.maximum(dist - config.register_radius, 0.0) * edge_mask
        too_near = np.maximum(config.register_radius - dist, 0.0) * nonedge_mask
        pair_close = np.maximum(MIN_SPACING_UM - dist, 0.0)
        pair_close[:, eye] = 0.0
        # k[r, i, j] scales the unit vector (p_i - p_j)/d in the loss gradient.
        k = 2.0 * (W_EDGE * too_far - W_NONEDGE * too_near - W_SPACING * pair_close)
        grad = (k[..., None] * diff / dist[..., None]).sum(axis=2)
        offset = pos - pos.mean(axis=1, keepdims=True)
        r = np.sqrt((offset * offset).sum(axis=2))
        outside = np.maximum(r - REGISTER_RADIUS_UM, 0.0)
        safe_r = np.where(r > 1e-12, r, 1.0)
        grad += 2.0 * W_RADIUS * (outside / safe_r)[..., None] * offset
        # Every hinge term is zero: momentum would only move a finished layout on.
        if not grad.any(axis=(1, 2)).all():
            break
        if it % STALL_WINDOW == 0:
            # Each pair appears twice in the (n, n) hinges, each atom once.
            pairs = (W_EDGE * too_far**2 + W_NONEDGE * too_near**2
                     + W_SPACING * pair_close**2).sum(axis=(1, 2))
            loss = float((pairs / 2.0 + W_RADIUS * (outside**2).sum(axis=1)).min())
            if loss > (1.0 - STALL_DROP) * checked_loss:
                break
            checked_loss = loss
        # Per-atom normalized descent keeps each move at the um scale of the
        # step, which the hinge losses need to stay stable.
        gnorm = np.sqrt((grad * grad).sum(axis=2, keepdims=True))
        vel = MOMENTUM * vel - step * grad / np.maximum(gnorm, 1e-9)
        pos = pos + vel
        step *= STEP_DECAY
    return pos


def _project(pos: np.ndarray) -> np.ndarray:
    """Rescale around the centroid so both hard constraints hold exactly."""
    pos = pos - pos.mean(axis=0)
    d = pairwise_distances(pos)
    np.fill_diagonal(d, np.inf)
    min_d = float(d.min())
    max_r = float(np.sqrt((pos * pos).sum(axis=1)).max())
    if min_d <= 1e-9:
        raise EmbeddingError("coincident atoms cannot be separated by rescaling")
    scale_lo = MIN_SPACING_UM / min_d
    scale_hi = REGISTER_RADIUS_UM / max_r if max_r > 1e-12 else np.inf
    if scale_lo > scale_hi * (1 + 1e-12):
        raise EmbeddingError(
            f"spacing needs scale >= {scale_lo:.3f} but register radius allows <= {scale_hi:.3f}"
        )
    scale = min(max(1.0, scale_lo), scale_hi)
    return pos * scale


def embed(g: Graph, config: RunConfig, seed: int = 0) -> Register:
    """Best register over the configured restarts.

    The restarts descend as one batch that ends as soon as one of them reaches
    zero loss or the batch's best loss stalls, so `config.embed_iterations`
    is only a cap.
    Restarts are ranked by audited edge discrepancies: fewest missing+extra
    first, then fewest extra (extra edges only shrink the sampled family,
    which keeps pricing sound), then restart order.
    """
    best: tuple[tuple[int, int, int], Register] | None = None
    last_error: EmbeddingError | None = None
    for restart, raw in enumerate(_descend(g, config, seed)):
        try:
            pos = _project(raw)
            reg = Register(positions=tuple((float(x), float(y)) for x, y in pos))
        except EmbeddingError as exc:
            last_error = exc
            continue
        rep = audit(g, reg, config.register_radius)
        key = (len(rep.missing_edges) + len(rep.extra_edges), len(rep.extra_edges), restart)
        if best is None or key < best[0]:
            best = (key, reg)
    if best is None:
        raise EmbeddingError(f"all {config.embed_restarts} restarts infeasible: {last_error}")
    return best[1]
