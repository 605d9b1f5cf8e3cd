"""Spectral lower bounds on the chromatic number of a graph.

Three eigenvalue bounds are combined: the ratio bound 1 + l_max/|l_min|,
the inertial bound 1 + max(n+/n-, n-/n+), and n/(n - l_max). Each is valid
for every simple graph, so their ceiled maximum is a sound pruning bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

EIG_ZERO_TOL = 1e-8
CEIL_TOL = 1e-6


@dataclass(frozen=True)
class SpectralBounds:
    hoffman: float
    elphick_wocjan: float
    edwards_elphick: float
    combined_lb: int


def spectral_lb(g: Graph, keep: int | None = None) -> SpectralBounds:
    """Evaluate the three spectral bounds of g's subgraph on `keep` (default:
    every vertex) and their combined integer ceiling.

    Degenerate spectra (edgeless graphs, one-signed inertia) fall back to the
    trivial bound 1 so every field stays a valid lower bound; n/(n - l_max)
    needs no fallback, since l_max <= n - 1 and l_max = 0 gives exactly 1.
    """
    eig = np.linalg.eigvalsh(g.adjacency_matrix(keep))
    n = len(eig)
    l_min, l_max = float(eig[0]), float(eig[-1])

    if l_min < -EIG_ZERO_TOL:
        hoffman = 1.0 + l_max / abs(l_min)
    else:
        hoffman = 1.0
    n_pos = int((eig > EIG_ZERO_TOL).sum())
    n_neg = int((eig < -EIG_ZERO_TOL).sum())
    if n_pos and n_neg:
        elphick_wocjan = 1.0 + max(n_pos / n_neg, n_neg / n_pos)
    else:
        elphick_wocjan = 1.0
    edwards_elphick = n / (n - l_max)

    combined = max(
        1,
        math.ceil(hoffman - CEIL_TOL),
        math.ceil(elphick_wocjan - CEIL_TOL),
        math.ceil(edwards_elphick - CEIL_TOL),
    )
    return SpectralBounds(
        hoffman=hoffman,
        elphick_wocjan=elphick_wocjan,
        edwards_elphick=edwards_elphick,
        combined_lb=combined,
    )
