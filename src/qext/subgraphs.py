"""Exact search for paths and cycles of prescribed order.

"Order" always counts vertices: a path of order k has k vertices and k-1
edges, a cycle of order k has k vertices and k edges.  Absence answers are
exact; running out of node budget raises :class:`SearchBudgetExceeded`,
which is distinct from absence.

Graphs on at most ``_TABLE_MAX`` = 8 vertices get a path table, built once
per graph by a Held–Karp subset DP over the bitset rows and kept in a small
cache keyed by the rows.  For each order r and start u it holds the mask of
vertices that end a path on r vertices from u, and for each length l the
mask of vertices that are the smallest vertex of some l-cycle.  On these
graphs absence is read off the table, and a search runs only from the first
start or anchor the table proves, never stepping to a vertex with no path of
the remaining order into the end mask.  Larger graphs, and cycles through
a given edge, use the backtracking search alone.

:func:`has_path` and :func:`has_cycle` answer presence without a witness:
on table graphs straight from the table, with no node spent, and above it
by the same search as the witness builders.

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
from typing import NamedTuple, Sequence

from .graph import Graph, _bits, _check_pair

DEFAULT_NODE_BUDGET = 10**8

_TABLE_MAX = 8  # graphs up to this order get a path table (2^n subsets)
_BITS = tuple(tuple(_bits(mask)) for mask in range(1 << _TABLE_MAX))  # set bits of each mask


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
    ends: tuple[tuple[int, ...], ...]  # [r][u]: vertices that end a path on r vertices from u
    cycles: tuple[int, ...]  # [l]: vertices that are the smallest of some l-cycle


@lru_cache(maxsize=8)
def _path_table(rows: tuple[int, ...]) -> _PathTable:
    """Held–Karp over the subsets S of a graph with at most ``_TABLE_MAX``
    vertices: ``tails[S][v]`` is the mask of vertices u such that some path
    with vertex set S runs from u to v.  Paths are undirected, so it is
    also the mask of the ends of those paths from v."""
    n = len(rows)
    tails: list[list[int] | None] = [None] * (1 << n)
    ends = [[0] * n for _ in range(n + 1)]
    cycles = [0] * (n + 1)
    for v in range(n):
        tails[1 << v] = [1 << v if w == v else 0 for w in range(n)]
        ends[1][v] = 1 << v
    for s in range(3, 1 << n):
        members = _BITS[s]
        order = len(members)
        if order < 2:
            continue
        here = [0] * n
        for v in members:
            before = tails[s ^ (1 << v)]
            if before is not None:  # some path spans the rest
                starts = 0
                for w in _BITS[rows[v] & s]:
                    starts |= before[w]
                here[v] = starts
                ends[order][v] |= starts
        if any(here):
            tails[s] = here
            low = members[0]
            # a path through S from S's smallest vertex back to a neighbour
            if order > 2 and here[low] & rows[low]:
                cycles[order] |= 1 << low
    return _PathTable(tuple(map(tuple, ends)), tuple(cycles))


def _first_path(
    rows: tuple[int, ...],
    start: int,
    order: int,
    inner: int,
    last: int,
    budget: list,
    reach: Sequence[Sequence[int]] | None = None,
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
            if reach is not None and not reach[remaining][w] & last:
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
    """
    ends = ends_mask & ((1 << g.n) - 1)
    witness = _path_search(g, order, ends, node_budget)
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


def has_path(
    g: Graph, order: int, ends_mask: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> bool:
    """Whether some simple path on ``order`` vertices has both ends in the
    bitmask ``ends_mask`` (-1: anywhere); no witness is built."""
    n = g.n
    ends = ends_mask & ((1 << n) - 1)
    if n <= _TABLE_MAX and 1 <= order <= n:
        return _table_start(g.rows, order, ends) is not None
    return _path_search(g, order, ends, node_budget) is not None


def _path_search(g: Graph, order: int, ends: int, node_budget: int) -> tuple[int, ...] | None:
    """First path on ``order`` vertices from a start in ``ends`` to an end in
    ``ends``, unvalidated.  On a table graph the search runs only from the
    first start the table proves."""
    if order < 1:
        raise ValueError(f"path order must be >= 1, got {order}")
    n, rows = g.n, g.rows
    if order > n:
        return None
    budget = [node_budget, f"path search exceeded node budget {node_budget}"]
    if n <= _TABLE_MAX:
        start = _table_start(rows, order, ends)
        if start is None:
            return None
        return _first_path(rows, start, order, -1, ends, budget, _path_table(rows).ends)
    for start in _bits(ends):
        witness = _first_path(rows, start, order, -1, ends, budget)
        if witness is not None:
            return witness
    return None


def _table_start(rows: tuple[int, ...], order: int, ends: int) -> int | None:
    """The first vertex of ``ends`` that starts a path on ``order`` vertices
    ending in ``ends``, read off the path table; None when there is none."""
    reach = _path_table(rows).ends[order]
    for start in _BITS[ends]:
        if reach[start] & ends:
            return start
    return None


def find_cycle_of_length(
    g: Graph,
    length: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, ...] | None:
    """First cycle with ``length`` vertices, anchored at its minimum vertex."""
    witness = _cycle_search(g, length, node_budget)
    if witness is not None:
        _check_witness(
            is_cycle_witness(g, witness) and len(witness) == length,
            "cycle",
            witness,
        )
    return witness


def has_cycle(g: Graph, length: int, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Whether some cycle has ``length`` vertices; no witness is built."""
    n = g.n
    if n <= _TABLE_MAX and 3 <= length <= n:
        return _path_table(g.rows).cycles[length] != 0
    return _cycle_search(g, length, node_budget) is not None


def _cycle_search(g: Graph, length: int, node_budget: int) -> tuple[int, ...] | None:
    """First cycle on ``length`` vertices from its smallest vertex, unvalidated."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    n = g.n
    if length > n:
        return None
    rows = g.rows
    budget = [node_budget, f"cycle search exceeded node budget {node_budget}"]
    anchors, reach = range(n), None
    if n <= _TABLE_MAX:
        table = _path_table(rows)
        anchors, reach = _BITS[table.cycles[length]][:1], table.ends
    for anchor in anchors:
        # every cycle is found from its smallest vertex; larger ones only
        above = ~((1 << (anchor + 1)) - 1)
        witness = _first_path(rows, anchor, length, above, above & rows[anchor], budget, reach)
        if witness is not None:
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
