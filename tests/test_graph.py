import random

import numpy as np
import pytest
from hypothesis import given, settings

from qext.families import complete, cycle, edgeless, path, star
from qext.graph import (
    MAX_VERTICES,
    _pack,
    _unpack,
    blocks,
    build_graph,
    components,
    disjoint_union,
    edges_between,
    is_bipartite,
    is_complete,
    is_connected,
    is_regular,
    is_semiregular_bipartite,
    is_star,
    join,
    mask_of,
)

from conftest import graphs, random_graph

# orders on both sides of each byte boundary of a packed row, up to the limit
BYTE_EDGES = (0, 1, 7, 8, 9, 15, 16, 17, 62, 63, 64, 65, 127, 128, 129, 511, 512)


def loop_adjacency_matrix(g):
    """Slow oracle: the dense matrix filled one edge at a time."""
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u in range(g.n):
        for v in g.neighbors(u):
            a[u, v] = 1.0
    return a


def test_build_graph_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.m == 2
    assert g.degrees == (1, 2, 1)


def test_build_graph_complete():
    g = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert all(d == 3 for d in g.degrees)
    assert g.m == 6


def test_build_graph_edgeless():
    g = build_graph(5, [])
    assert g.m == 0 and g.n == 5


def test_build_graph_deduplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="exceeds limit"):
        build_graph(MAX_VERTICES + 1, [])


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng.randrange(1, 20), 0.4, rng)
        assert sum(g.degrees) == 2 * g.m


def test_join_split_graph():
    g = join(complete(2), edgeless(3))
    assert g.n == 5
    assert g.m == 1 + 0 + 2 * 3
    # dominating pair keeps labels 0..1
    assert g.degrees[0] == g.degrees[1] == 4
    assert sorted(g.edges()) == [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
    ]


def test_join_wheel_and_single_edge():
    wheel = join(complete(1), cycle(4))
    assert wheel.n == 5 and wheel.m == 8
    assert join(edgeless(1), edgeless(1)).m == 1


def test_join_edge_count_formula_random():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng.randrange(1, 9), rng.random(), rng)
        h = random_graph(rng.randrange(1, 9), rng.random(), rng)
        joined = join(g, h)
        assert joined.m == g.m + h.m + g.n * h.n


def test_disjoint_union():
    two_k4 = disjoint_union([complete(4), complete(4)])
    assert two_k4.n == 8 and two_k4.m == 12
    assert len(components(two_k4)) == 2
    assert disjoint_union([path(3)]) == path(3)
    g = disjoint_union([complete(3), edgeless(2)])
    assert g.n == 5 and g.m == 3 and len(components(g)) == 3


def test_components_order_and_partition():
    g = disjoint_union([complete(3), complete(2)])
    assert components(g) == [(0, 1, 2), (3, 4)]
    assert components(cycle(5)) == [(0, 1, 2, 3, 4)]
    assert components(edgeless(4)) == [(0,), (1,), (2,), (3,)]
    rng = random.Random(23)
    for _ in range(50):
        g = random_graph(rng.randrange(1, 15), 0.2, rng)
        comps = sorted(v for comp in components(g) for v in comp)
        assert comps == list(range(g.n))
        for comp in components(g):
            sub = g.induced(comp)
            assert is_connected(sub)
            others = mask_of(set(range(g.n)) - set(comp))
            assert edges_between(g, mask_of(comp), others) == 0


def test_graphs_are_immutable_under_toggles():
    g = path(4)
    h = g.with_edge(0, 3)
    assert g.m == 3 and h.m == 4
    assert not g.has_edge(0, 3) and h.has_edge(0, 3)
    assert h.without_edge(0, 3) == g
    assert g.without_edge(0, 1).m == 2 and g.m == 3


def test_induced_relabels_in_sorted_order():
    g = build_graph(5, [(0, 2), (2, 4), (0, 4), (1, 3)])
    sub = g.induced([0, 2, 4])
    assert sub.n == 3 and sub.m == 3 and is_complete(sub)


def test_predicates():
    assert is_regular(cycle(5)) and not is_regular(path(3))
    assert is_bipartite(path(4)) and not is_bipartite(cycle(5))
    assert is_semiregular_bipartite(star(5))
    assert is_semiregular_bipartite(path(3))
    assert not is_semiregular_bipartite(path(4))
    assert is_complete(complete(6)) and not is_complete(star(4))
    assert is_star(star(7)) and is_star(complete(2)) and not is_star(path(4))


def test_blocks_small_cases():
    # two triangles sharing a vertex: two blocks
    bowtie = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert blocks(bowtie) == [(0, 1, 2), (2, 3, 4)]
    assert blocks(path(4)) == [(0, 1), (1, 2), (2, 3)]
    assert blocks(cycle(5)) == [(0, 1, 2, 3, 4)]
    assert blocks(edgeless(3)) == []


def test_blocks_match_reference_on_random_graphs():
    # independent reference: a block is a maximal set where removing any
    # single vertex keeps the rest connected (checked by brute force)
    rng = random.Random(5)
    for _ in range(80):
        g = random_graph(rng.randrange(2, 9), 0.35, rng)
        for blk in blocks(g):
            sub = g.induced(blk)
            assert is_connected(sub)
            if sub.n > 2:
                for drop in range(sub.n):
                    rest = sub.induced([v for v in range(sub.n) if v != drop])
                    assert is_connected(rest)
        # every edge belongs to exactly one block
        edge_cover = [
            frozenset((u, v))
            for blk in blocks(g)
            for u, v in g.induced(blk).edges()
        ]
        assert len(edge_cover) == g.m


@pytest.mark.parametrize("n", BYTE_EDGES)
def test_adjacency_matrix_matches_loop_at_byte_widths(n):
    rng = random.Random(n)
    for g in (complete(n), edgeless(n), random_graph(n, 0.3, rng)):
        assert np.array_equal(g.adjacency_matrix(), loop_adjacency_matrix(g))


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=140))
def test_adjacency_matrix_matches_loop(g):
    assert np.array_equal(g.adjacency_matrix(), loop_adjacency_matrix(g))


def test_adjacency_matrix_is_a_fresh_writable_float_array():
    # signless_laplacian writes its diagonal into this array
    for n in (9, 64):
        g = cycle(n)
        a = g.adjacency_matrix()
        assert a.dtype == np.float64 and a.shape == (n, n)
        assert a.flags.c_contiguous and a.flags.writeable
        a[:] = 7.0
        assert np.array_equal(g.adjacency_matrix(), loop_adjacency_matrix(g))


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=140))
def test_pack_inverts_unpack(g):
    bits = _unpack(g.rows, g.n)
    assert bits.dtype == np.uint8 and bits.shape == (g.n, g.n)
    assert _pack(bits) == g.rows
