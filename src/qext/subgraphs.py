"""Exact search for paths and cycles of prescribed order.

"Order" always counts vertices: a path of order k has k vertices and k-1
edges, a cycle of order k has k vertices and k edges.  Absence answers are
exact; running out of node budget raises :class:`SearchBudgetExceeded`,
which is distinct from absence.

One engine, :func:`_first_path`, one loop over a stack, builds every
witness at every order: it returns the first simple path from a given start
whose interior lies in one bitmask and whose last vertex lies in another.
A constrained path, a cycle of given length (anchored at its smallest
vertex) and a cycle through a vertex pair, an edge or not, are each a
choice of those masks.  Starts, anchors and steps are tried in ascending
index, so witnesses are deterministic.  The last vertex is picked straight
from the end mask, and the one before it only among the vertices ``near``
the end mask (with a neighbour in it): any other second-to-last vertex
heads a dead subtree, so the cut keeps the first witness.  The node budget
counts only the vertices this search places; the look-ahead places fewer,
so a given budget reaches at least as far as a search without it.  Every
witness is re-checked by an independent validator before it is returned.

Graphs with at most 8 vertices also get a path table, from a Held–Karp
subset DP run in numpy over a batch of graphs of one order (one batch per
suite chunk and order), whose word format only this module reads: the
suite asks :func:`_table_paths` for a path with both ends in a vertex set
and :func:`_table_cycles` for a long cycle.  No witness is built from it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .graph import Graph, _bits, _check_pair

DEFAULT_NODE_BUDGET = 10**8

_TABLE_MAX = 8  # graphs up to this order get a path table (2^n subsets, 8-bit masks)


class SearchBudgetExceeded(RuntimeError):
    """Node expansion cap hit before the search space was exhausted."""


def is_path_witness(g: Graph, vertices: tuple[int, ...]) -> bool:
    """Distinct vertices with consecutive adjacency."""
    n, rows = g.n, g.rows
    seen = 0
    allowed = -1  # the first vertex may be any vertex
    for v in vertices:
        if not 0 <= v < n or seen >> v & 1 or not allowed >> v & 1:
            return False
        seen |= 1 << v
        allowed = rows[v]
    return True


def is_cycle_witness(g: Graph, vertices: tuple[int, ...]) -> bool:
    """Valid path that also closes up, with at least 3 vertices."""
    if len(vertices) < 3:
        return False
    return is_path_witness(g, vertices) and g.has_edge(vertices[-1], vertices[0])


def _check_witness(ok: bool, kind: str, vertices: tuple[int, ...]) -> None:
    if not ok:
        raise RuntimeError(f"internal error: invalid {kind} witness {vertices}")


@lru_cache(maxsize=None)
def _table_index(n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """For order n, built on first use: the subsets of each size, ascending,
    and for each vertex set A its ordered pairs (u, v) as bits 8u + v."""
    layers = [np.array([s for s in range(1 << n) if s.bit_count() == r]) for r in range(n + 1)]
    inside = np.array([sum(a << 8 * u for u in _bits(a)) for a in range(1 << n)], dtype=np.uint64)
    return layers, inside


def _held_karp(rows_list: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    """The path tables ``pairs`` [G, n+1] of graphs of one order n <= 8:
    Held–Karp over the subsets S, one size at a time, in numpy over every
    graph at once, keeping only the previous size's layer.  ``layer[S, v, g]``
    masks the u such that some path of graph g on S runs from u to v; their
    union over S of size r is ``pairs[g, r]``, bits 8u + v of a uint64."""
    layers = _table_index(n)[0]
    count = len(rows_list)
    rows = np.array(rows_list, dtype=np.uint8).reshape(count, n).T  # [v, g]
    # [v, w, g]: 0xFF where vw is an edge of graph g, else 0
    edge = np.uint8(0) - np.unpackbits(rows[:, None], axis=1, bitorder="little")[:, :n]
    ends = np.zeros((count, n + 1, 8), dtype=np.uint8)  # [g, r, v], v padded to 8
    for r in range(1, n + 1):
        subsets = layers[r]
        layer = np.zeros((len(subsets), n, count), dtype=np.uint8)
        for v in range(n):
            at = np.flatnonzero(subsets >> v & 1)
            if r == 1:
                layer[at, v] = 1 << v
                continue
            # a path on S ending at v is one on S - v ending at a neighbour of v
            before = last[np.searchsorted(layers[r - 1], subsets[at] ^ 1 << v)]
            layer[at, v] = np.bitwise_or.reduce(before & edge[v], axis=1)
        ends[:, r, :n] = np.bitwise_or.reduce(layer, axis=0).T
        last = layer
    return ends.view("<u8")[..., 0]


def _table_paths(pairs: np.ndarray, order: int, ends: np.ndarray) -> np.ndarray:
    """Per graph of ``pairs`` (from ``_held_karp``) and vertex-set mask in
    ``ends`` ([G, S], [G, n] or [1, 1]): whether a path on ``order`` vertices
    has both ends in the set; all false above n."""
    if order >= pairs.shape[1]:
        return np.zeros(np.broadcast_shapes(ends.shape, (len(pairs), 1)), dtype=bool)
    return pairs[:, order, None] & _table_index(pairs.shape[1] - 1)[1][ends] != 0


def _table_cycles(pairs: np.ndarray, rows_list: Sequence[tuple[int, ...]], order: int) -> np.ndarray:
    """Per graph of ``pairs``, whose rows are ``rows_list``: whether a cycle
    (a path with adjacent ends) on at least ``order`` >= 3 vertices exists."""
    rows = np.array(rows_list, dtype=np.uint64).reshape(len(pairs), -1)
    edges = np.bitwise_or.reduce(rows << np.arange(0, 8 * rows.shape[1], 8, dtype=np.uint64), axis=1)
    return (pairs[:, order:] & edges[:, None] != 0).any(1)


def _near(rows: tuple[int, ...], last: int) -> int:
    """The vertices with a neighbour in the bitmask ``last``."""
    near = 0
    for x in _bits(last):
        near |= rows[x]
    return near


def _first_path(
    rows: tuple[int, ...],
    start: int,
    order: int,
    inner: int,
    last: int,
    near: int,
    budget: list,
) -> tuple[int, ...] | None:
    """First path on ``order`` vertices from ``start`` in ascending DFS order.

    Interior vertices lie in the bitmask ``inner`` and the last vertex in
    ``last``; the start is the caller's choice and is not checked.
    ``near`` is ``_near(rows, last)`` (-1 for orders up to 2, which never
    read it), the look-ahead: the second-to-last vertex is taken only from
    it, since a vertex outside can never be followed by an end vertex, so
    only dead subtrees are cut and the first path found is unchanged.
    ``budget`` is a ``[nodes_left, message]`` pair shared by the caller's
    searches: each vertex placed, the start included, costs one node, checked
    before it is placed (the look-ahead places fewer than a plain DFS would),
    and :class:`SearchBudgetExceeded` carries the message.  One loop: ``nxt``
    masks the untried candidates for the next vertex (at first the start),
    and ``stack`` the untried siblings of each vertex on the path, pushed on
    descent and popped on backtrack.
    """
    path: list[int] = []
    stack: list[int] = []
    nxt, visited, remaining, left = 1 << start, 0, order - 1, budget[0]
    while True:
        if nxt:
            if left <= 0:
                raise SearchBudgetExceeded(budget[1])
            left -= 1
            low = nxt & -nxt
            nxt ^= low
            v = low.bit_length() - 1
            seen = visited | low
            if remaining > 2:
                after = rows[v] & inner & ~seen
            elif remaining == 2:
                after = rows[v] & inner & near & ~seen
            elif remaining == 1:  # the lowest of these ends the path
                after = rows[v] & last & ~seen
            else:
                budget[0] = left
                return (*path, v)
            if after:  # descend; a vertex with nothing after it is never pushed
                stack.append(nxt)
                path.append(v)
                visited, remaining, nxt = seen, remaining - 1, after
        elif stack:
            nxt, remaining = stack.pop(), remaining + 1
            visited ^= 1 << path.pop()
        else:
            budget[0] = left
            return None


def find_constrained_path(
    g: Graph,
    order: int,
    ends_mask: int = -1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, ...] | None:
    """First simple path on ``order`` vertices with both ends in the bitmask
    ``ends_mask`` (-1: anywhere; bits at or above n are ignored).

    Returns the vertex sequence or None for exact absence.  A path of
    order 1 is a single vertex, which must lie in the mask as both ends.
    Every start in the mask is tried, ascending.
    """
    if order < 1:
        raise ValueError(f"path order must be >= 1, got {order}")
    n, rows = g.n, g.rows
    if order > n:
        return None
    ends = ends_mask & ((1 << n) - 1)
    budget = [node_budget, f"path search exceeded node budget {node_budget}"]
    near = _near(rows, ends) if order > 2 else -1
    for start in _bits(ends):
        witness = _first_path(rows, start, order, -1, ends, near, budget)
        if witness is not None:
            _check_witness(
                is_path_witness(g, witness)
                and len(witness) == order
                and ends >> witness[0] & 1
                and ends >> witness[-1] & 1,
                "path",
                witness,
            )
            return witness
    return None


def find_cycle_of_length(
    g: Graph,
    length: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, ...] | None:
    """First cycle with ``length`` vertices, anchored at its minimum vertex;
    every anchor is tried, ascending."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    n, rows = g.n, g.rows
    if length > n:
        return None
    budget = [node_budget, f"cycle search exceeded node budget {node_budget}"]
    for anchor in range(n):
        # every cycle is found from its smallest vertex; larger ones only
        above = ~((1 << (anchor + 1)) - 1)
        last = above & rows[anchor]
        witness = _first_path(rows, anchor, length, above, last, _near(rows, last), budget)
        if witness is not None:
            _check_witness(
                is_cycle_witness(g, witness) and len(witness) == length,
                "cycle",
                witness,
            )
            return witness
    return None


def find_cycle_through_edge(
    g: Graph,
    length: int,
    u: int,
    v: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, ...] | None:
    """First cycle of ``length`` vertices through (u, v) in g + uv, edge of g
    or not: the first u..v path on ``length`` vertices, which never uses the
    pair uv itself, so g answers without a graph with the edge built."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    _check_pair(g.n, u, v)
    if length > g.n:
        return None
    budget = [node_budget, f"cycle search exceeded node budget {node_budget}"]
    witness = _first_path(g.rows, u, length, ~(1 << v), 1 << v, g.rows[v], budget)
    if witness is not None:
        _check_witness(
            is_path_witness(g, witness)
            and len(witness) == length
            and witness[0] == u
            and witness[-1] == v,
            "cycle",
            witness,
        )
    return witness
