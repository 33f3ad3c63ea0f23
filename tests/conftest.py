import itertools
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from qext.graph import Graph, build_graph
from qext.subgraphs import _table_cycles, _table_paths


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def graph_from_code(n: int, code: int) -> Graph:
    """The graph whose row-major upper-triangle bit string is ``code``, with
    the pair (0,1) as its MSB: the layout of ``canonical_code``."""
    pairs = list(itertools.combinations(range(n), 2))  # (0,1), (0,2), ..., row-major
    if not 0 <= code < 1 << len(pairs):
        raise ValueError(f"code {code} out of range for n={n}: need 0 <= code < 2^{len(pairs)}")
    return build_graph(n, [pair for i, pair in enumerate(reversed(pairs)) if code >> i & 1])


def table_presence(g: Graph, pairs):
    """Presence read off g's path table ``pairs`` (its row of ``_held_karp``)
    by the suite's readers, as (path, cycle): a path on ``order`` vertices
    with both ends in the bitmask ``ends``, and a cycle on at least
    ``length`` >= 3 vertices; both False above n."""
    table = np.asarray(pairs).reshape(1, g.n + 1)
    return (
        lambda order, ends=-1: bool(_table_paths(table, order, np.full((1, 1), ends & (1 << g.n) - 1))[0, 0]),
        lambda length: bool(_table_cycles(table, length)[0]),
    )


@st.composite
def graphs(draw, max_n: int) -> Graph:
    """Graphs of order 0..max_n: ``random_graph`` at a drawn density and seed."""
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    return random_graph(n, p, random.Random(draw(st.integers(0, 2**32 - 1))))


@pytest.fixture
def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return build_graph(10, outer + spokes + inner)


# --- oracles for the tests: edge removal and the bounds' equality cases --------


def without_edge(g: Graph, u: int, v: int) -> Graph:
    return build_graph(g.n, [e for e in g.edges() if e != (min(u, v), max(u, v))])


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
            for w in g.neighbors(v):
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side_a = sum(1 << v for v in range(g.n) if color[v] == 0)
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
    return all(
        len({g.degrees[v] for v in range(g.n) if side >> v & 1}) <= 1 for side in parts
    )


def is_complete(g: Graph) -> bool:
    return all(d == g.n - 1 for d in g.degrees)


def is_star(g: Graph) -> bool:
    """K_{1,n-1} for n >= 2 (one center adjacent to all, leaves of degree 1)."""
    if g.n < 2 or g.m != g.n - 1:
        return False
    return max(g.degrees) == g.n - 1
