import random

import pytest
from hypothesis import strategies as st

from qext.graph import Graph, build_graph


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


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
