"""Canonical forms, isomorph-free enumeration of small graphs, and graph6 I/O.

The canonical code is the exact lexicographic minimum, over all n! vertex
relabelings, of the upper-triangle adjacency bit string in row-major pair
order, read as an integer with the pair (0,1) as its MSB.  It is found by a
branch-and-bound over ordered partitions (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998; McKay & Piperno, "Practical graph
isomorphism II", J. Symb. Comp. 60, 2014), one level at a time for a whole
batch of graphs in numpy.

Positions 0, 1, ... are filled in order.  A search node is an ordered
partition kept by position: each cell sits where its run starts, and the
next vertex comes from the cell at the first free position.  Placing v
writes, for each cell after it of size s holding a neighbors of v, the bits
0^(s-a) 1^a: rows compare as neighbor counts, packed 4 bits per position
into a key.  Each cell then splits in place, non-neighbors of v first.  Of
all (node, candidate) pairs of one level, those with their graph's least key
survive: they wrote the same prefix, so they share cell sizes and starts,
and any code under a larger row exceeds the minimum.  Three cuts are exact
too.  Position 0 tries only least-degree vertices and keys none: the key
would be the degree, so all of them tie.  A vertex with a lower twin (equal
open or closed neighborhood) in its cell is not tried: swapping them is an
automorphism that fixes the partition.  Each placed vertex splits every
cell, so both members of a 2-cell left at n - 2 look alike to all of them:
either order spells one code, so none is tried.

The catalogue grows by canonical augmentation (``_nonisomorphic_codes``) and
stays arrays: one sorted, read-only ``uint64`` array of codes per order,
decoded by ``_rows``; only ``enumerate_nonisomorphic`` builds ``Graph``s.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .graph import Graph, _pack, _twins, _unpack

CANONICAL_MAX = 10
ENUMERATE_MAX = 8
_POP = np.array([x.bit_count() for x in range(1 << CANONICAL_MAX)], dtype=np.uint8)  # row popcounts
_ROWS_CHUNK = 1024  # graphs labelled at once; the n = 9 build peaks at 42.5 MB RSS
_PARENTS_CHUNK = 64  # parents augmented at once: about 950 children per labelling at n = 8


def _candidates(rows, twins, graph, cells, depth):
    """(node, vertex) pairs tried at ``depth``: see the module docstring."""
    bit = np.int16(1) << np.arange(rows.shape[1], dtype=np.int16)
    first = cells[:, depth, None]
    if depth == 0:  # the key would be the degree
        deg = _POP[rows[graph]]
        first = (deg == deg.min(1, keepdims=True)) @ bit[:, None]
    return np.nonzero((first & bit != 0) & (twins[graph] & first & bit - 1 == 0))


def _level(rows, twins, graph, cells, depth):
    """Place vertex ``depth`` in each node: node i searches ``graph[i]``
    (nondecreasing) with ``cells[i, s]`` the cell starting at s, else 0."""
    n = rows.shape[1]
    bit = np.int16(1) << np.arange(n, dtype=np.int16)
    node, v = _candidates(rows, twins, graph, cells, depth)
    g, nb, parts = graph[node], rows[graph[node], v], cells[node]
    parts[:, depth + 1] |= parts[:, depth] ^ bit[v]  # the rest of the first cell
    parts[:, depth] = bit[v]
    if depth:  # at position 0 every candidate has the least degree: all tie
        key = _POP[parts[:, depth + 1 :] & nb[:, None]] @ 16 ** np.arange(n - depth - 2, -1, -1)
        low = np.full(len(rows), 16**n)
        np.minimum.at(low, g, key)
        keep = np.flatnonzero(key == low[g])  # exact: see the module docstring
        g, nb, parts = g[keep], nb[keep], parts[keep]
    near = parts & nb[:, None]  # every cell splits, a placed singleton onto itself
    parts &= ~nb[:, None]  # non-neighbors keep the cell's start, neighbors follow them
    i, s = np.nonzero(near)
    parts[i, s + _POP[parts[i, s]]] |= near[i, s]
    return g, parts


def _min_codes(rows: np.ndarray) -> np.ndarray:
    """Canonical codes (``uint64``) of the graphs with bit rows ``rows`` [m, n]."""
    m, n = rows.shape
    codes = np.zeros(m, dtype=np.uint64)
    iu, ju = np.triu_indices(n, 1)
    weight = np.uint64(1) << np.arange(len(iu) - 1, -1, -1, dtype=np.uint64)
    for at in range(0, m if n > 1 else 0, _ROWS_CHUNK):  # below 2 vertices every code is 0
        chunk = rows[at : at + _ROWS_CHUNK].astype(np.int16)
        graph, cells, twins = np.arange(len(chunk)), np.zeros_like(chunk), _twins(chunk)
        cells[:, 0] = (1 << n) - 1
        for depth in range(n - 2):
            graph, cells = _level(chunk, twins, graph, cells, depth)
        leaf = cells[np.diff(graph, prepend=-1) > 0]  # each graph's first leaf
        leaf[:, n - 1] |= leaf[:, n - 2] & leaf[:, n - 2] - 1  # a last 2-cell's high bit goes last
        leaf[:, n - 2] &= -leaf[:, n - 2]
        order = _POP[leaf - 1]
        placed = chunk[np.arange(len(chunk))[:, None], order]
        codes[at : at + len(chunk)] = (placed[:, iu] >> order[:, ju] & 1).astype(np.uint64) @ weight
    return codes


@lru_cache(maxsize=16384)
def canonical_code(g: Graph) -> int:
    """Minimum upper-triangle bit string over all relabelings, as an integer.

    MSB is the pair (0,1), then (0,2), ... in row-major pair order.  Exact
    for n <= CANONICAL_MAX by the partition branch-and-bound above.
    """
    if g.n > CANONICAL_MAX:
        raise ValueError(f"canonical form limited to n <= {CANONICAL_MAX}, got {g.n}")
    return int(_min_codes(np.array([g.rows], dtype=np.int64))[0])


def _rows(n: int, codes: np.ndarray) -> np.ndarray:
    """Bit rows [len(codes), n] (``int64``) of row-major ``uint64`` codes, n <= CANONICAL_MAX."""
    rows = np.zeros((len(codes), n), dtype=np.int64)
    iu, ju = np.triu_indices(n, 1)
    for shift, (u, v) in enumerate(zip(iu[::-1].tolist(), ju[::-1].tolist())):  # the pair (0, 1) is the MSB
        bit = (codes >> shift & 1).astype(np.int64)
        rows[:, u] |= bit << v
        rows[:, v] |= bit << u
    return rows


@lru_cache(maxsize=None)
def _nonisomorphic_codes(n: int) -> np.ndarray:
    """The canonical codes on n vertices, ascending, in a read-only ``uint64`` array.

    Each class on n-1 vertices gets a new vertex joined to a mask.  A mask
    must take the lowest vertices of each twin class (equal open or closed
    neighborhoods; no vertex has both kinds of twin): twin swaps are parent
    automorphisms, so each orbit keeps one mask.  The new vertex must lead
    in (degree, neighbor degree sum, neighbor squared degree sum): the key
    is invariant, so deleting a key-maximal vertex of any graph leaves a
    parent class that regrows it."""
    if n == 1:
        return np.frombuffer(bytes(8), dtype=np.uint64)  # the one code, 0, read-only like the rest
    bit = 1 << np.arange(n - 1)
    masks = np.arange(1 << (n - 1))  # the new vertex's neighbors
    degree = _POP[masks]
    parents = _rows(n - 1, _nonisomorphic_codes(n - 1))
    found = []
    for at in range(0, len(parents), _PARENTS_CHUNK):
        rows = parents[at : at + _PARENTS_CHUNK]
        deg = _POP[rows]
        # level[p, d]: parent p's degree-d vertices; joined to a new degree-d vertex, they outgrow it
        level = (deg[:, None, :] == np.arange(n)[:, None]) @ bit
        keep = (degree >= deg.max(1)[:, None]) & (level[:, degree] & masks == 0)
        # one mask per twin-swap orbit: each chosen vertex's lower twins are chosen
        for w, lower in enumerate((_twins(rows) & bit - 1).T):
            keep &= (masks & bit[w] == 0) | (lower[:, None] & ~masks == 0)
        p, mask = np.nonzero(keep)
        child = np.concatenate((rows[p] | np.where(mask[:, None] & bit, 1 << n - 1, 0), mask[:, None]), 1)
        # no vertex may beat the new one (last) in (degree, the sum, then
        # the square sum (below 2^10), of its neighbors' degrees)
        deg = _POP[child].astype(np.int64)
        weight = deg << 10 | deg**2
        key = deg << 20 | sum((child >> w & 1) * weight[:, w, None] for w in range(n))
        found.append(_min_codes(child[key[:, :-1].max(1) <= key[:, -1]]))
    codes = np.sort(np.concatenate(found))  # then drop repeats: np.unique costs lazy imports
    codes = codes[np.insert(codes[1:] != codes[:-1], 0, True)]
    codes.flags.writeable = False  # every caller shares the cached array
    return codes


def enumerate_nonisomorphic(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class on n vertices, in increasing
    code order, each labelled so that its row-major upper-triangle bit string
    is its canonical code (see ``_nonisomorphic_codes``)."""
    if not 1 <= n <= ENUMERATE_MAX:
        raise ValueError(f"native enumeration supports 1 <= n <= {ENUMERATE_MAX}, got {n}")
    for row in zip(*_rows(n, _nonisomorphic_codes(n)).T.tolist()):  # no list per row: less peak RSS
        yield Graph(n, row)


# --- graph6 ----------------------------------------------------------------

GRAPH6_MAX = 62


def write_graph6(g: Graph) -> str:
    """Encode as a graph6 line body: order byte, then 6-bit groups of the
    upper-triangle bits in column order a(0,1); a(0,2), a(1,2); a(0,3), ...
    """
    n = g.n
    if n > GRAPH6_MAX:
        raise ValueError(f"graph6 single-byte header supports n <= {GRAPH6_MAX}, got {n}")
    # the lower triangle in row-major order is the upper one in column order
    bits = _unpack(g.rows, n)[np.tri(n, k=-1, dtype=bool)]
    bits = np.concatenate((bits, np.zeros(-len(bits) % 6, dtype=np.uint8)))
    groups = np.packbits(bits.reshape(-1, 6), axis=1) >> 2
    return chr(n + 63) + (groups + 63).tobytes().decode("ascii")


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 token; strict about header, length and padding."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueError("graph6 data is not ASCII") from exc
    if not text:
        raise ValueError("empty graph6 string")
    for ch in text:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"graph6 character {ch!r} outside 63..126")
    n = ord(text[0]) - 63
    if n > GRAPH6_MAX:
        raise ValueError("multi-byte graph6 order headers are not supported")
    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    payload = text[1:]
    if len(payload) != want:
        raise ValueError(f"graph6 payload for n={n} must be {want} bytes, got {len(payload)}")
    groups = np.frombuffer(payload.encode("ascii"), dtype=np.uint8) - 63
    bits = np.unpackbits(groups[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise ValueError("graph6 padding bits must be zero")
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[np.tri(n, k=-1, dtype=bool)] = bits[:nbits]
    return Graph(n, _pack(adj | adj.T))


def read_graph6_lines(text: str) -> list[Graph]:
    """Parse one graph per non-empty line."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            out.append(parse_graph6(token))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return out
