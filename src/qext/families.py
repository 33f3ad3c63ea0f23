"""Generators for the named graph families, with fixed vertex labeling.

Labeling contracts (stable across runs, so witnesses are reproducible):

* ``s_nk(n, k)``: vertices 0..k-1 form the dominating clique, k..n-1 the
  independent set.
* ``s_nk_plus(n, k)``: same, plus the single extra edge (k, k+1).
* ``kite_pendant(k)``: clique on 0..2k-1; vertex 2k is the pendant,
  attached to vertex 0.
* ``windmill(k, copies)``: vertex 0 is the shared hub; copy i occupies
  vertices 1 + i(k-1) .. i(k-1) + k - 1.
* ``corollary1(k, p)``: vertex 0 is the apex joined to everything; then p
  blocks of order 2k, then one clique of order 2k+1.
* ``lemma2_exception(k, copies)``: ``copies`` disjoint cliques of order 2k,
  then one kite_pendant(k) block; the pendant v is the last vertex.
"""

from __future__ import annotations

from .graph import Graph, _check_order, build_graph, disjoint_union, join


def complete(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ 1 << u for u in range(n)))


def edgeless(n: int) -> Graph:
    return build_graph(n)


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle requires n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"star requires n >= 1, got {n}")
    return build_graph(n, [(0, i) for i in range(1, n)])


def s_nk(n: int, k: int) -> Graph:
    """Join of a k-clique with an independent set of n-k vertices."""
    if not 1 <= k < n:
        raise ValueError(f"s_nk requires n > k >= 1, got n={n}, k={k}")
    return join(complete(k), edgeless(n - k))


def s_nk_plus(n: int, k: int) -> Graph:
    """s_nk plus one edge inside the independent set, between k and k+1."""
    if not 1 <= k < n:
        raise ValueError(f"s_nk_plus requires n > k >= 1, got n={n}, k={k}")
    if n < k + 2:
        raise ValueError(f"s_nk_plus requires n >= k + 2, got n={n}, k={k}")
    return s_nk(n, k).with_edge(k, k + 1)


def kite_pendant(k: int) -> Graph:
    """Clique of order 2k with a pendant vertex attached to vertex 0."""
    if k < 1:
        raise ValueError(f"kite_pendant requires k >= 1, got {k}")
    edges = list(complete(2 * k).edges()) + [(0, 2 * k)]
    return build_graph(2 * k + 1, edges)


def windmill(k: int, copies: int) -> Graph:
    """``copies`` cliques of order k sharing the single hub vertex 0."""
    if k < 2:
        raise ValueError(f"windmill requires k >= 2, got k={k}")
    if copies < 0:
        raise ValueError(f"windmill requires copies >= 0, got {copies}")
    n = copies * (k - 1) + 1
    edges = []
    for c in range(copies):
        block = [0] + list(range(1 + c * (k - 1), 1 + (c + 1) * (k - 1)))
        edges.extend(
            (block[i], block[j]) for i in range(k) for j in range(i + 1, k)
        )
    return build_graph(n, edges)


def corollary1_graph(k: int, p: int) -> Graph:
    """Apex vertex joined to p disjoint 2k-cliques plus one (2k+1)-clique.

    Order is 2(p+1)k + 2.
    """
    if k < 2:
        raise ValueError(f"corollary1 requires k >= 2, got k={k}")
    if p < 0:
        raise ValueError(f"corollary1 requires p >= 0, got p={p}")
    body = disjoint_union([complete(2 * k) for _ in range(p)] + [complete(2 * k + 1)])
    return join(complete(1), body)


def lemma2_exception(k: int, copies: int) -> Graph:
    """Disjoint 2k-cliques plus one pendant-clique block; v is the last vertex."""
    if k < 1:
        raise ValueError(f"lemma2_exception requires k >= 1, got k={k}")
    if copies < 0:
        raise ValueError(f"lemma2_exception requires copies >= 0, got {copies}")
    parts = [complete(2 * k) for _ in range(copies)] + [kite_pendant(k)]
    return disjoint_union(parts)


_FAMILIES = {
    "s_nk": (s_nk, ("n", "k")),
    "s_nk_plus": (s_nk_plus, ("n", "k")),
    "windmill": (windmill, ("k", "copies")),
    "kite_pendant": (kite_pendant, ("k",)),
    "corollary1": (corollary1_graph, ("k", "p")),
    "lemma2_exception": (lemma2_exception, ("k", "copies")),
    "complete": (complete, ("n",)),
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "star": (star, ("n",)),
    "edgeless": (edgeless, ("n",)),
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))


def build_construction(family: str, params: dict[str, int]) -> Graph:
    """Build the named family member; rejects unknown families and bad params."""
    try:
        fn, names = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILY_NAMES)}") from None
    missing = [p for p in names if p not in params]
    if missing:
        raise ValueError(f"family {family!r} missing parameters {missing}")
    extra = [p for p in params if p not in names]
    if extra:
        raise ValueError(f"family {family!r} got unexpected parameters {extra}")
    return fn(**{p: params[p] for p in names})
