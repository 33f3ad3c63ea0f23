"""Canonical forms, isomorph-free enumeration of small graphs, and graph6 I/O.

The canonical code is the exact lexicographic minimum, over all n! vertex
relabelings, of the upper-triangle adjacency bit string in row-major pair
order, read as an integer with the pair (0,1) as its MSB.  It is found by a
branch-and-bound over the bitset rows rather than a scan of the relabelings
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998;
McKay & Piperno, "Practical graph isomorphism II", J. Symb. Comp. 60, 2014).

Positions 0, 1, ... are filled in order.  The vertices still to place carry
an ordered partition whose cells occupy consecutive runs of positions, so
the vertex at the next position comes from the first cell.  Placing v there
writes, for each cell (first the rest of the first cell, then the later
cells in order) of size s holding a neighbors of v, the bits 0^(s-a) 1^a;
candidate rows thus compare as their neighbor-count tuples.  Only minimal
candidates are expanded, each cell is split into the non-neighbors of v
followed by its neighbors, and a branch is cut as soon as its code prefix
exceeds the best one found.  Among tied candidates only one vertex per twin
class (N(u) - {v} = N(v) - {u}) is expanded: swapping two twins is an
automorphism that fixes the partition.

The catalogue grows by canonical augmentation with two prunes: one mask per
orbit of the parent's twin swaps (automorphisms), and a new vertex that
maximizes an isomorphism-invariant degree key (every graph has one).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .graph import Graph, _bits, _check_order, _pack, _unpack

CANONICAL_MAX = 10
ENUMERATE_MAX = 8


def _min_code(rows: tuple[int, ...]) -> int:
    """Canonical code of the graph with bitset adjacency ``rows``; uncached."""
    n = len(rows)
    if n <= 1:
        return 0
    best = 1 << n * (n - 1) // 2  # above every code until the first leaf

    def expand(depth: int, cells: list[int], prefix: int) -> None:
        nonlocal best
        width = n - 1 - depth  # bits in the row of this position
        first, later = cells[0], cells[1:]
        low_key = 1 << 4 * len(cells)  # above every key
        tied: list[int] = []
        rest = first
        while rest:
            bit = rest & -rest
            rest ^= bit
            nb = rows[bit.bit_length() - 1]
            key = (nb & (first ^ bit)).bit_count()  # 4-bit counts (n - 1 < 16)
            for c in later:
                key = key << 4 | (nb & c).bit_count()
            if key < low_key:
                low_key, tied = key, [bit]
            elif key == low_key:
                tied.append(bit)
        row = 0
        for i, c in enumerate(cells):  # key field i: the count in cell i
            row = row << c.bit_count() | ((1 << (low_key >> 4 * (len(later) - i) & 15)) - 1)
        prefix = prefix << width | row
        remaining = width * (width - 1) // 2  # bits in the rows after this one
        if prefix > best >> remaining:
            return
        if width == 1:
            if prefix < best:
                best = prefix
            return
        # twins share an open (non-adjacent) or a closed (adjacent)
        # neighborhood; no open neighborhood equals a closed one
        seen: set[int] = set()
        for bit in tied:
            nb = rows[bit.bit_length() - 1]
            if nb in seen or nb | bit in seen:
                continue
            seen.update((nb, nb | bit))
            refined = []
            for c in [first ^ bit] + later:
                out = c & ~nb
                if out:
                    refined.append(out)
                if c & nb:
                    refined.append(c & nb)
            expand(depth + 1, refined, prefix)

    expand(0, [(1 << n) - 1], 0)
    return best


@lru_cache(maxsize=16384)
def canonical_code(g: Graph) -> int:
    """Minimum upper-triangle bit string over all relabelings, as an integer.

    MSB is the pair (0,1), then (0,2), ... in row-major pair order.  Exact
    for n <= CANONICAL_MAX by the partition branch-and-bound above.
    """
    if g.n > CANONICAL_MAX:
        raise ValueError(f"canonical form limited to n <= {CANONICAL_MAX}, got {g.n}")
    return _min_code(g.rows)


def canonical_form(g: Graph) -> bytes:
    """Order byte followed by the canonical bit string packed MSB-first."""
    n = g.n
    code = canonical_code(g)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 7) // 8
    packed = (code << (8 * nbytes - nbits)).to_bytes(nbytes, "big") if nbytes else b""
    return bytes([n]) + packed


def graph_from_code(n: int, code: int) -> Graph:
    """Rebuild the graph whose row-major upper-triangle bit string is ``code``."""
    _check_order(n)
    rows = [0] * n
    pos = n * (n - 1) // 2
    for u in range(n):
        for v in range(u + 1, n):
            pos -= 1
            if code >> pos & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


@lru_cache(maxsize=None)
def _nonisomorphic_codes(n: int) -> tuple[int, ...]:
    if n == 1:
        return (0,)
    new = 1 << (n - 1)
    seen: set[int] = set()
    for pcode in _nonisomorphic_codes(n - 1):
        parent = graph_from_code(n - 1, pcode)
        top = max(parent.degrees)
        # level[d]: the degree-d vertices, which joined to a new vertex of
        # degree d would outgrow it
        level = [sum(1 << u for u, du in enumerate(parent.degrees) if du == d) for d in range(n)]
        # twin classes, by open (r) and closed (r | 1 << u) neighborhood
        groups: dict[int, int] = {}
        for u, r in enumerate(parent.rows):
            for nbhd in (r, r | 1 << u):
                groups[nbhd] = groups.get(nbhd, 0) | 1 << u
        twins = [t for t in groups.values() if t & (t - 1)]
        for mask in range(new):
            d = mask.bit_count()
            if d < top or mask & level[d]:
                continue
            # one mask per twin-swap orbit: no chosen twin above an unchosen one
            if any(mask & t > ((rest := t & ~mask) & -rest or t) for t in twins):
                continue
            rows = tuple(r | new if mask >> u & 1 else r for u, r in enumerate(parent.rows)) + (mask,)
            # no vertex of degree d may beat the new one (last) in the sum,
            # then the square sum (below 2^10), of its neighbors' degrees
            ties = level[d] & ~mask | level[d - 1] & mask
            if ties:
                deg = [r.bit_count() for r in rows]
                keys = [sum(deg[w] << 10 | deg[w] ** 2 for w in _bits(rows[u])) for u in _bits(ties | new)]
                if max(keys[:-1]) > keys[-1]:
                    continue
            # uncached: the children would flood canonical_code's cache
            seen.add(_min_code(rows))
    return tuple(sorted(seen))


def enumerate_nonisomorphic(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class on n vertices, canonical order.

    Each class on n-1 vertices gets a new vertex joined to a mask.  A mask
    must take the lowest vertices of each twin class (equal open or closed
    neighborhoods; no vertex has both kinds of twin): twin swaps are parent
    automorphisms, so each orbit keeps one mask.  The new vertex must lead
    in (degree, neighbor degree sum, neighbor squared degree sum): the key
    is invariant, so deleting a key-maximal vertex of any graph leaves a
    parent class that regrows it.  Canonical codes deduplicate the kept
    children, yielded as ``graph_from_code`` in increasing code order.
    """
    if not 1 <= n <= ENUMERATE_MAX:
        raise ValueError(f"native enumeration supports 1 <= n <= {ENUMERATE_MAX}, got {n}")
    for code in _nonisomorphic_codes(n):
        yield graph_from_code(n, code)


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
