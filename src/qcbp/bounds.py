"""A spectral lower bound on the chromatic number of a graph.

Hoffman's ratio bound 1 + l_max/|l_min| holds for every simple graph with an
edge, so its ceiling is a sound pruning bound; an edgeless graph gets 1.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph

EIG_ZERO_TOL = 1e-8
CEIL_TOL = 1e-6


def spectral_lb(g: Graph, keep: int | None = None) -> float:
    """Hoffman's ratio bound 1 + l_max/|l_min| on the chromatic number of g's
    subgraph on `keep` (default: every vertex); 1.0 when it has no edge, since
    then l_min = 0."""
    eig = np.linalg.eigvalsh(g.adjacency_matrix(keep))
    l_min, l_max = float(eig[0]), float(eig[-1])
    return 1.0 + l_max / abs(l_min) if l_min < -EIG_ZERO_TOL else 1.0
