"""Exact backtracking search for paths and cycles of prescribed order.

"Order" always counts vertices: a path of order k has k vertices and k-1
edges, a cycle of order k has k vertices and k edges.  Absence answers are
exact (full backtracking within the node budget); running out of budget
raises :class:`SearchBudgetExceeded`, which is distinct from absence.

One engine, :func:`_first_path`, does every search: it returns the first
simple path from a given start whose interior lies in one bitmask and
whose last vertex lies in another.  A constrained path, a cycle of given
length (anchored at its smallest vertex) and a cycle through an edge are
each a choice of those masks.  Vertices are tried in ascending index, so
witnesses are deterministic.  The last vertex is picked straight from the
end mask, so the node budget counts only vertices that can still end the
path and a given budget reaches at least as far as a search that also
visits dead-end leaves.  Every positive answer is re-checked by an
independent validator before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, _bits, mask_of

DEFAULT_NODE_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    """Node expansion cap hit before the search space was exhausted."""


@dataclass(frozen=True)
class EndpointConstraint:
    """Endpoint restriction for path searches.

    Both endpoints must lie in ``members`` and outside ``avoid`` (bitmasks);
    an avoided vertex may still appear in the interior.
    """

    members: int = -1
    avoid: int = 0

    @classmethod
    def none(cls) -> "EndpointConstraint":
        return cls()

    @classmethod
    def ends_in(cls, vertices: Iterable[int]) -> "EndpointConstraint":
        mask = mask_of(vertices)
        if mask == 0:
            raise ValueError("ends_in constraint requires a nonempty vertex set")
        return cls(members=mask)

    @classmethod
    def ends_avoid(cls, vertex: int) -> "EndpointConstraint":
        return cls(avoid=1 << vertex)

    def mask(self, n: int) -> int:
        """Allowed endpoints among the vertices 0..n-1."""
        return self.members & ~self.avoid & ((1 << n) - 1)


UNCONSTRAINED = EndpointConstraint.none()


def is_path_witness(g: Graph, vertices: tuple[int, ...]) -> bool:
    """Distinct vertices with consecutive adjacency."""
    if len(set(vertices)) != len(vertices):
        return False
    if any(not 0 <= v < g.n for v in vertices):
        return False
    return all(g.has_edge(a, b) for a, b in zip(vertices, vertices[1:]))


def is_cycle_witness(g: Graph, vertices: tuple[int, ...]) -> bool:
    """Valid path that also closes up, with at least 3 vertices."""
    if len(vertices) < 3:
        return False
    return is_path_witness(g, vertices) and g.has_edge(vertices[-1], vertices[0])


def _check_witness(ok: bool, kind: str, vertices: tuple[int, ...]) -> None:
    if not ok:
        raise RuntimeError(f"internal error: invalid {kind} witness {vertices}")


def _first_path(
    rows: tuple[int, ...],
    start: int,
    order: int,
    inner: int,
    last: int,
    budget: list,
) -> tuple[int, ...] | None:
    """First path on ``order`` vertices from ``start`` in ascending DFS order.

    Interior vertices lie in the bitmask ``inner`` and the last vertex in
    ``last``; the start is the caller's choice and is not checked.
    ``budget`` is a ``[nodes_left, message]`` pair shared by the caller's
    searches: each vertex placed on the path costs one node, and
    :class:`SearchBudgetExceeded` carries the message.
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
            if extend(w, visited | (1 << w), remaining - 1):
                return True
        path.pop()
        return False

    return tuple(path) if extend(start, 1 << start, order - 1) else None


def find_constrained_path(
    g: Graph,
    order: int,
    constraint: EndpointConstraint = UNCONSTRAINED,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, ...] | None:
    """First simple path with ``order`` vertices satisfying the constraint.

    Returns the vertex sequence or None for exact absence.  A path of
    order 1 is a single vertex, which must satisfy the constraint as both
    endpoints.
    """
    if order < 1:
        raise ValueError(f"path order must be >= 1, got {order}")
    n = g.n
    if order > n:
        return None
    ends = constraint.mask(n)
    budget = [node_budget, f"path search exceeded node budget {node_budget}"]
    for start in _bits(ends):
        witness = _first_path(g.rows, start, order, -1, ends, budget)
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
    """First cycle with ``length`` vertices, anchored at its minimum vertex."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    n = g.n
    if length > n:
        return None
    rows = g.rows
    budget = [node_budget, f"cycle search exceeded node budget {node_budget}"]
    for anchor in range(n):
        # every cycle is found from its smallest vertex; larger ones only
        above = ~((1 << (anchor + 1)) - 1)
        witness = _first_path(rows, anchor, length, above, above & rows[anchor], budget)
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


def is_hamiltonian(
    g: Graph,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, ...] | None:
    """Spanning cycle witness or exact absence; requires n >= 3."""
    if g.n < 3:
        raise ValueError(f"Hamiltonian cycles need n >= 3, got n={g.n}")
    return find_cycle_of_length(g, g.n, node_budget=node_budget)


def has_cycle_longer_than(
    g: Graph,
    length: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[int, ...] | None:
    """Witness for any cycle with more than ``length`` vertices, or None."""
    for l in range(max(length + 1, 3), g.n + 1):
        witness = find_cycle_of_length(g, l, node_budget=node_budget)
        if witness is not None:
            return witness
    return None
