"""Exact search for paths and cycles of prescribed order.

"Order" always counts vertices: a path of order k has k vertices and k-1
edges, a cycle of order k has k vertices and k edges.  Absence answers are
exact; running out of node budget raises :class:`SearchBudgetExceeded`,
which is distinct from absence.

Graphs on at most ``_TABLE_MAX`` = 8 vertices get a path table from a
Held–Karp subset DP run in numpy over a batch of graphs of one order (one
batch per suite chunk and order; a single graph is a batch of one, cached by
its rows).  A table holds, for each order r and start u, the mask of
vertices that end a path on r vertices from u; for each length l, the mask
of vertices that are the smallest of some l-cycle; and ``spans[r]``, whose
bit A says that some path on r vertices has both ends in the vertex set A.
On these graphs absence is read off the table, and a search runs only from
the first start or anchor the table proves, never stepping to a vertex with
no path of the remaining order into the end mask.  Larger graphs, and
cycles through a given edge, use the backtracking search alone.

:func:`_table_queries` answers presence without a witness on table
graphs: one lookup in ``spans`` or ``cycles``, with no node spent.

One engine, :func:`_first_path`, builds every witness: it returns the first
simple path from a given start whose interior lies in one bitmask and
whose last vertex lies in another.  A constrained path, a cycle of given
length (anchored at its smallest vertex) and a cycle through an edge are
each a choice of those masks.  Vertices are tried in ascending index, so
witnesses are deterministic and the same with or without the table.  The
last vertex is picked straight from the end mask.  The node budget counts
only the vertices this search places, so an absence the table proves costs
nothing, and a given budget reaches at least as far as a search that also
visits dead-end leaves.  Every witness is re-checked by an independent
validator before it is returned.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, NamedTuple, Sequence

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


class _PathTable(NamedTuple):
    ends: bytes  # [8r + u]: vertices that end a path on r vertices from u
    cycles: Sequence[int]  # [l]: vertices that are the smallest of some l-cycle
    spans: Sequence[int]  # [r]: bit A set when some path on r vertices has both ends in A


@lru_cache(maxsize=None)
def _table_index(n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """For order n, built on first use: the subsets of each size, ascending,
    and for each vertex set A its ordered pairs (u, v) as bits 8u + v."""
    layers = [np.array([s for s in range(1 << n) if s.bit_count() == r]) for r in range(n + 1)]
    inside = [sum(a << 8 * u for u in _bits(a)) for a in range(1 << n)]
    return layers, np.array(inside, dtype="<u8")


def _path_tables(rows_list: Sequence[tuple[int, ...]]) -> list[_PathTable | None]:
    """The path table of each graph with at most ``_TABLE_MAX`` vertices
    (None for larger ones), built in one batch per order."""
    tables: dict[int, _PathTable] = {}
    for n in sorted({len(rows) for rows in rows_list if len(rows) <= _TABLE_MAX}):
        where = [i for i, rows in enumerate(rows_list) if len(rows) == n]
        tables.update(zip(where, _held_karp([rows_list[i] for i in where], n)))
    return [tables.get(i) for i in range(len(rows_list))]


def _held_karp(rows_list: Sequence[tuple[int, ...]], n: int) -> list[_PathTable]:
    """The path tables of graphs of one order n <= ``_TABLE_MAX``: Held–Karp
    over the subsets S, one size at a time, in numpy over every graph at once,
    keeping only the previous size's layer.  ``layer[S, v, g]`` masks the u
    such that some path of graph g on the vertex set S runs from u to v, so
    (paths being undirected) the ends of those paths from v."""
    layers, inside = _table_index(n)
    count = len(rows_list)
    rows = np.array(rows_list, dtype=np.uint8).reshape(count, n).T  # [v, g]
    # [v, w, g]: 0xFF where vw is an edge of graph g, else 0
    edge = np.uint8(0) - np.unpackbits(rows[:, None], axis=1, bitorder="little")[:, :n]
    ends = np.zeros((count, n + 1, 8), dtype=np.uint8)  # [g, r, u], u padded to 8
    cycles = np.zeros((n + 1, count), dtype=np.uint8)
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
            if r > 2:  # a cycle: a path on S from its smallest vertex v back to a neighbour
                low = at[subsets[at] & (1 << v) - 1 == 0]
                cycles[r] |= np.any(layer[low, v] & rows[v] != 0, axis=0).astype(np.uint8) << v
        ends[:, r, :n] = np.bitwise_or.reduce(layer, axis=0).T
        last = layer
    pairs = ends.view("<u8")[..., 0]  # [g, r]: bit 8u + v set for a u..v path on r vertices
    width = ((1 << n) + 7) // 8
    spans = np.empty((count, n + 1, width), dtype=np.uint8)
    for r in range(n + 1):
        spans[:, r] = np.packbits(pairs[:, r, None] & inside != 0, axis=1, bitorder="little")
    data, step = spans.tobytes(), (n + 1) * width
    spans_of = [
        [int.from_bytes(data[at : at + width], "little") for at in range(start, start + step, width)]
        for start in range(0, count * step, step)
    ]
    data, step = ends.tobytes(), 8 * (n + 1)
    ends_of = [data[start : start + step] for start in range(0, count * step, step)]
    return list(map(_PathTable, ends_of, cycles.T.tolist(), spans_of))


@lru_cache(maxsize=8)
def _path_table(rows: tuple[int, ...]) -> _PathTable:
    """The path table of one graph with at most ``_TABLE_MAX`` vertices."""
    return _held_karp([rows], len(rows))[0]


def _first_path(
    rows: tuple[int, ...],
    start: int,
    order: int,
    inner: int,
    last: int,
    budget: list,
    reach: bytes | None = None,
) -> tuple[int, ...] | None:
    """First path on ``order`` vertices from ``start`` in ascending DFS order.

    Interior vertices lie in the bitmask ``inner`` and the last vertex in
    ``last``; the start is the caller's choice and is not checked.
    ``budget`` is a ``[nodes_left, message]`` pair shared by the caller's
    searches: each vertex placed on the path costs one node, and
    :class:`SearchBudgetExceeded` carries the message.  Given a path
    table's ``ends``, the search skips every step to a vertex from which
    no path of the remaining order reaches ``last``; such a step can never
    succeed, so the first path found is the same.
    """
    path: list[int] = []

    def extend(v: int, visited: int, remaining: int) -> bool:
        if budget[0] <= 0:
            raise SearchBudgetExceeded(budget[1])
        budget[0] -= 1
        path.append(v)
        if remaining == 0:
            return True
        if remaining == 1:
            ends = rows[v] & last & ~visited
            nxt = ends & -ends  # only the first vertex that can end the path
        else:
            nxt = rows[v] & inner & ~visited
        for w in _bits(nxt):
            if reach is not None and not reach[8 * remaining + w] & last:
                continue
            if extend(w, visited | (1 << w), remaining - 1):
                return True
        path.pop()
        return False

    return tuple(path) if extend(start, 1 << start, order - 1) else None


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
    On a table graph the search runs only from the first start the table
    proves.
    """
    if order < 1:
        raise ValueError(f"path order must be >= 1, got {order}")
    n, rows = g.n, g.rows
    if order > n:
        return None
    ends = ends_mask & ((1 << n) - 1)
    budget = [node_budget, f"path search exceeded node budget {node_budget}"]
    starts, reach = _bits(ends), None
    if n <= _TABLE_MAX:
        reach = _path_table(rows).ends
        starts = [start for start in _bits(ends) if reach[8 * order + start] & ends][:1]
    for start in starts:
        witness = _first_path(rows, start, order, -1, ends, budget, reach)
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


def _table_queries(n: int, table: _PathTable) -> tuple[Callable[..., Any], Callable[..., Any]]:
    """Presence read off a path table, shaped as :func:`find_constrained_path`
    and :func:`find_cycle_of_length` without their node budget: one bit of
    ``spans`` or ``cycles``, truthy exactly when they return a witness."""
    full, spans, cycles = (1 << n) - 1, table.spans, table.cycles
    return (
        lambda g, order, ends_mask: order <= n and spans[order] >> (ends_mask & full) & 1,
        lambda g, length: length <= n and cycles[length] != 0,
    )


def find_cycle_of_length(
    g: Graph,
    length: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, ...] | None:
    """First cycle with ``length`` vertices, anchored at its minimum vertex."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    n, rows = g.n, g.rows
    if length > n:
        return None
    budget = [node_budget, f"cycle search exceeded node budget {node_budget}"]
    anchors, reach = range(n), None
    if n <= _TABLE_MAX:
        table = _path_table(rows)
        anchors, reach = list(_bits(table.cycles[length]))[:1], table.ends
    for anchor in anchors:
        # every cycle is found from its smallest vertex; larger ones only
        above = ~((1 << (anchor + 1)) - 1)
        witness = _first_path(rows, anchor, length, above, above & rows[anchor], budget, reach)
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
    """First cycle of ``length`` vertices that uses the edge (u, v)."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    _check_pair(g.n, u, v)
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    if length > g.n:
        return None
    budget = [node_budget, f"cycle search exceeded node budget {node_budget}"]
    # a cycle through (u, v) is a u..v path on `length` vertices plus that edge
    witness = _first_path(g.rows, u, length, ~(1 << v), 1 << v, budget)
    if witness is not None:
        _check_witness(
            is_cycle_witness(g, witness)
            and len(witness) == length
            and witness[0] == u
            and witness[-1] == v,
            "cycle",
            witness,
        )
    return witness
