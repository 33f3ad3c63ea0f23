"""Immutable simple undirected graphs over dense vertex indices 0..n-1.

Adjacency is kept as one packed bit row (a Python int) per vertex, which
makes neighborhood intersections, component sweeps and edge counting a
handful of integer operations.  Graphs never mutate: ``with_edge`` builds
a new instance that shares every unchanged row, so values are safe to pass
between threads or worker processes; it takes the parent's degrees and
edge count plus one at each end instead of recounting every row.  Dense
0/1 matrices come from ``_unpack`` and go back through ``_pack``: numpy bit
packing.
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
        # a list is built faster than a generator is drained; map(int.bit_count, ...) would reject numpy ints
        self.degrees = tuple([r.bit_count() for r in rows])
        self.m = sum(self.degrees) >> 1

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
        rows, degrees = list(self.rows), list(self.degrees)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        degrees[u] += 1
        degrees[v] += 1
        g = object.__new__(Graph)
        g.n, g.rows, g.degrees, g.m = self.n, tuple(rows), tuple(degrees), self.m + 1
        return g

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


def _twins(rows: np.ndarray) -> np.ndarray:
    """Twin classes of stacked bit rows [..., n]: bit w of entry u says u and
    w have equal open or equal closed neighborhoods (u is its own twin)."""
    bit = 1 << np.arange(rows.shape[-1])
    closed = rows | bit
    same = (rows[..., :, None] == rows[..., None, :]) | (closed[..., :, None] == closed[..., None, :])
    return same @ bit


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


def mask_of(vertices: Iterable[int]) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


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
