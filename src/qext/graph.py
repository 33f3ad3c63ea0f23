"""Immutable simple undirected graphs over dense vertex indices 0..n-1.

Adjacency is kept as one packed bit row (a Python int) per vertex, which
makes neighborhood intersections, component sweeps and edge counting a
handful of integer operations.  Graphs never mutate: ``with_edge`` and
``without_edge`` build a new instance that shares every unchanged row, so
values are safe to pass between threads or worker processes.  Dense 0/1
matrices come from ``_unpack`` and go back through ``_pack``: numpy bit packing.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

MAX_VERTICES = 512


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph with bitset adjacency rows.

    ``rows[u]`` holds the neighborhood of ``u`` as a bitmask; the relation
    is symmetric and irreflexive by construction.  ``m`` is the edge count
    and ``degrees[u]`` the vertex degree.  Treat instances as immutable.
    """

    __slots__ = ("n", "rows", "degrees", "m")

    def __init__(self, n: int, rows: tuple[int, ...]):
        self.n = n
        self.rows = rows
        self.degrees = tuple(r.bit_count() for r in rows)
        self.m = sum(self.degrees) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, u: int) -> Iterator[int]:
        return _bits(self.rows[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as pairs (u, v) with u < v, lexicographic order."""
        for u in range(self.n):
            upper = self.rows[u] >> (u + 1) << (u + 1)
            for v in _bits(upper):
                yield (u, v)

    def with_edge(self, u: int, v: int) -> "Graph":
        _check_pair(self.n, u, v)
        if self.has_edge(u, v):
            return self
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        _check_pair(self.n, u, v)
        if not self.has_edge(u, v):
            return self
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced by ``vertices``, relabeled to 0..k-1 in sorted order."""
        verts = sorted(set(vertices))
        for v in verts:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range for n={self.n}")
        index = {v: i for i, v in enumerate(verts)}
        rows = [0] * len(verts)
        for v in verts:
            for w in _bits(self.rows[v]):
                if w in index:
                    rows[index[v]] |= 1 << index[w]
        return Graph(len(verts), tuple(rows))

    def adjacency_matrix(self) -> np.ndarray:
        """Fresh, writable float64 0/1 matrix; callers may write into it."""
        return _unpack(self.rows, self.n).astype(np.float64)


def _unpack(rows: tuple[int, ...], n: int) -> np.ndarray:
    """Bit rows as a len(rows) x n ``uint8`` 0/1 matrix: bit v of rows[u] at [u, v]."""
    width = (n + 7) // 8
    data = b"".join(r.to_bytes(width, "little") for r in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :n]


def _pack(adj: np.ndarray) -> tuple[int, ...]:
    """Inverse of ``_unpack``: one int per row of a 0/1 matrix."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return tuple(int.from_bytes(row, "little") for row in packed)


def _check_pair(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"self-loop ({u}, {u}) not allowed")


def _check_order(n: int) -> None:
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds limit {MAX_VERTICES}")


def build_graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Build a graph on n vertices from unordered index pairs.

    Duplicate pairs are deduplicated silently; out-of-range indices and
    self-loops are rejected with a diagnostic.
    """
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        _check_pair(n, u, v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Graph join: disjoint union plus all edges between the two parts.

    Vertices of ``g`` keep their labels; vertices of ``h`` are shifted up
    by ``g.n``.
    """
    gn, hn = g.n, h.n
    if gn + hn > MAX_VERTICES:
        raise ValueError(f"join order {gn + hn} exceeds limit {MAX_VERTICES}")
    g_mask = (1 << gn) - 1
    h_mask = ((1 << hn) - 1) << gn
    rows = [g.rows[u] | h_mask for u in range(gn)]
    rows += [(h.rows[v] << gn) | g_mask for v in range(hn)]
    return Graph(gn + hn, tuple(rows))


def disjoint_union(parts: Iterable[Graph]) -> Graph:
    """Disjoint union; part i is shifted by the total order of parts before it."""
    rows: list[int] = []
    offset = 0
    for part in parts:
        rows.extend(part.rows[v] << offset for v in range(part.n))
        offset += part.n
    if offset > MAX_VERTICES:
        raise ValueError(f"union order {offset} exceeds limit {MAX_VERTICES}")
    return Graph(offset, tuple(rows))


def _closure(rows: tuple[int, ...], start: int) -> int:
    """Bitmask of the connected component containing ``start``."""
    visited = 1 << start
    frontier = visited
    while frontier:
        grown = 0
        for v in _bits(frontier):
            grown |= rows[v]
        frontier = grown & ~visited
        visited |= frontier
    return visited


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    out: list[tuple[int, ...]] = []
    seen = 0
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = _closure(g.rows, v)
        seen |= comp
        out.append(tuple(_bits(comp)))
    return out


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return _closure(g.rows, 0) == (1 << g.n) - 1


def edges_within(g: Graph, mask: int) -> int:
    """Number of edges with both endpoints inside the bitmask ``mask``."""
    return sum((g.rows[v] & mask).bit_count() for v in _bits(mask)) // 2


def edges_between(g: Graph, mask_a: int, mask_b: int) -> int:
    """Number of edges joining the disjoint bitmasks ``mask_a`` and ``mask_b``."""
    if mask_a & mask_b:
        raise ValueError("vertex sets overlap")
    return sum((g.rows[v] & mask_b).bit_count() for v in _bits(mask_a))


def mask_of(vertices: Iterable[int]) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def bipartition(g: Graph) -> tuple[int, int] | None:
    """Two-coloring as bitmasks (side of vertex 0 first per component), or None."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for w in _bits(g.rows[v]):
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side_a = mask_of(v for v in range(g.n) if color[v] == 0)
    return side_a, ((1 << g.n) - 1) & ~side_a


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def is_regular(g: Graph) -> bool:
    return g.n == 0 or len(set(g.degrees)) == 1


def is_semiregular_bipartite(g: Graph) -> bool:
    """Bipartite with constant degree on each side of some 2-coloring."""
    parts = bipartition(g)
    if parts is None:
        return False
    side_a, side_b = parts
    deg_a = {g.degrees[v] for v in _bits(side_a)}
    deg_b = {g.degrees[v] for v in _bits(side_b)}
    return len(deg_a) <= 1 and len(deg_b) <= 1


def is_complete(g: Graph) -> bool:
    return all(d == g.n - 1 for d in g.degrees)


def is_star(g: Graph) -> bool:
    """K_{1,n-1} for n >= 2 (one center adjacent to all, leaves of degree 1)."""
    if g.n < 2 or g.m != g.n - 1:
        return False
    return max(g.degrees) == g.n - 1


def blocks(g: Graph) -> list[tuple[int, ...]]:
    """Biconnected blocks as sorted vertex tuples (bridges are 2-vertex blocks).

    Isolated vertices belong to no block.  Iterative lowpoint DFS, so safe
    for the full 512-vertex range.
    """
    n = g.n
    disc = [0] * n
    low = [0] * n
    timer = 1
    edge_stack: list[tuple[int, int]] = []
    out: list[tuple[int, ...]] = []

    for root in range(n):
        if disc[root]:
            continue
        # stack entries: (vertex, parent, iterator over neighbors)
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, g.neighbors(root))]
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if not disc[w]:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, g.neighbors(w)))
                    advanced = True
                    break
                if w != parent and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    # retreating over a block boundary: pop up to edge (pv, v)
                    members: set[int] = set()
                    while edge_stack:
                        a, b = edge_stack.pop()
                        members.update((a, b))
                        if (a, b) == (pv, v):
                            break
                    out.append(tuple(sorted(members)))
    return sorted(out)
