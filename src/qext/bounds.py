"""Closed-form bound formulas and graph-dependent upper bounds on the Q-index.

The edge-count bounds (kopylov_i/ii, ore_edge_threshold) are exact
integers, so comparisons against integer edge counts stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Graph, _unpack


@dataclass(frozen=True)
class BoundValue:
    name: str
    value: float
    relation: str  # "upper_bound_on_q", the one relation every bound here has


def merris_bound(g: Graph) -> BoundValue:
    """max over u of d_u + (sum of neighbor degrees)/d_u, skipping d_u = 0.

    Upper bound on q; equality on connected graphs exactly for regular or
    semiregular bipartite graphs.
    """
    if g.m == 0:
        raise ValueError("merris bound undefined for edgeless graphs")
    deg = np.array(g.degrees, dtype=np.int64)
    sums = _unpack(g.rows, g.n) @ deg  # neighbor degree sums, exact integers
    live = deg > 0
    best = (deg[live] + sums[live] / deg[live]).max()
    return BoundValue("merris", float(best), "upper_bound_on_q")


def das_bound(g: Graph) -> BoundValue:
    """2m/(n-1) + n - 2; equality exactly for complete graphs, stars, and a
    complete graph plus one isolated vertex."""
    if g.n < 2:
        raise ValueError(f"das bound needs n >= 2, got n={g.n}")
    value = 2 * g.m / (g.n - 1) + g.n - 2
    return BoundValue("das", value, "upper_bound_on_q")


def edge_degree_bound(g: Graph) -> BoundValue:
    """max of d_u + d_v over edges (u, v)."""
    if g.m == 0:
        raise ValueError("edge-degree bound undefined for edgeless graphs")
    deg = np.array(g.degrees, dtype=np.int64)
    best = (_unpack(g.rows, g.n) * (deg[:, None] + deg)).max()
    return BoundValue("edge_degree", float(best), "upper_bound_on_q")


def closed_form_snk(n: int, k: int) -> float:
    """Exact Q-index of the k-dominating split graph on n vertices."""
    if not 1 <= k < n:
        raise ValueError(f"closed_form_snk requires 1 <= k < n, got n={n}, k={k}")
    # the larger root of x^2 - 2hx + 2k(k-1), h = (n+2k-2)/2, scaled by h so
    # that no square leaves float range before q does
    h = (n + 2 * k - 2) / 2
    return h * (1 + math.sqrt(1 - 2 * k * (k - 1) / h / h))


def prop1_sandwich(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Lower/upper envelope around q of the split-graph family, exactly:
    n+2k-2 - 2(k^2-k)/(n+2k-3)  and  n+2k-2 - 2(k^2-k)/(n+2k+2)."""
    if k < 1 or n <= k:
        raise ValueError(f"sandwich requires 1 <= k < n, got n={n}, k={k}")
    a = n + 2 * k - 2
    spread = 2 * (k * k - k)
    return (a - Fraction(spread, n + 2 * k - 3), a - Fraction(spread, n + 2 * k + 2))


def kopylov_i_value(n: int, k: int) -> int:
    """Edge maximum for connected graphs of order n with no path on 2k+2
    vertices (n >= 2k+2)."""
    if k < 1:
        raise ValueError(f"kopylov_i requires k >= 1, got {k}")
    return max(k * n - k * (k + 1) // 2, math.comb(2 * k, 2) + (n - 2 * k))


def kopylov_ii_value(n: int, k: int) -> int:
    """Edge maximum for connected graphs of order n with no path on 2k+3
    vertices (n >= 2k+3)."""
    if k < 1:
        raise ValueError(f"kopylov_ii requires k >= 1, got {k}")
    return max(
        k * n - k * (k + 1) // 2 + 1,
        math.comb(2 * k + 1, 2) + (n - 2 * k - 1),
    )


def ore_edge_threshold(n: int) -> int:
    """Edge count that forces a Hamiltonian cycle when strictly exceeded."""
    if n < 1:
        raise ValueError(f"ore threshold requires n >= 1, got {n}")
    return math.comb(n - 1, 2) + 1

