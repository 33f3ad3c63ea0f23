import decimal
import math
import random
from fractions import Fraction

import pytest

from qext.bounds import (
    BoundValue,
    closed_form_snk,
    das_bound,
    edge_degree_bound,
    kopylov_i_value,
    kopylov_ii_value,
    merris_bound,
    ore_edge_threshold,
    prop1_sandwich,
)
from qext.enumeration import enumerate_nonisomorphic
from qext.families import complete, cycle, edgeless, path, s_nk, star
from qext.graph import disjoint_union, is_connected
from qext.spectral import q_index

from conftest import is_complete, is_regular, is_semiregular_bipartite, is_star, random_graph


def loop_merris(g):
    """Slow oracle: the Merris maximum, one vertex and one neighbor at a time."""
    return max(
        g.degrees[u] + sum(g.degrees[v] for v in g.neighbors(u)) / g.degrees[u]
        for u in range(g.n)
        if g.degrees[u] > 0
    )


def loop_edge_degree(g):
    """Slow oracle: the edge-degree maximum over the edge list."""
    return float(max(g.degrees[u] + g.degrees[v] for u, v in g.edges()))


def test_merris_examples():
    assert merris_bound(cycle(5)).value == pytest.approx(4.0)
    assert merris_bound(path(3)).value == pytest.approx(3.0)
    assert merris_bound(star(4)).value == pytest.approx(4.0)
    with pytest.raises(ValueError):
        merris_bound(edgeless(3))


def test_das_examples():
    assert das_bound(complete(4)).value == pytest.approx(6.0)
    assert das_bound(star(5)).value == pytest.approx(5.0)
    assert das_bound(cycle(5)).value == pytest.approx(5.5)
    with pytest.raises(ValueError):
        das_bound(complete(1))


def test_edge_degree_examples():
    assert edge_degree_bound(cycle(5)).value == 4
    assert edge_degree_bound(star(5)).value == 5
    assert edge_degree_bound(s_nk(10, 2)).value == 18
    with pytest.raises(ValueError):
        edge_degree_bound(edgeless(2))


def test_bounds_match_loop_oracles():
    rng = random.Random(17)
    small = [g for n in range(1, 8) for g in enumerate_nonisomorphic(n)]
    large = [random_graph(rng.randrange(2, 513), rng.random(), rng) for _ in range(40)]
    for g in small + large + [complete(512), s_nk(512, 5)]:
        if g.m == 0:
            continue
        for bound, oracle in ((merris_bound, loop_merris), (edge_degree_bound, loop_edge_degree)):
            value = bound(g).value
            assert type(value) is float and repr(value) == repr(oracle(g))


def test_bound_errors_keep_their_messages():
    with pytest.raises(ValueError, match="merris bound undefined for edgeless graphs"):
        merris_bound(edgeless(3))
    with pytest.raises(ValueError, match="edge-degree bound undefined for edgeless graphs"):
        edge_degree_bound(edgeless(0))
    with pytest.raises(ValueError, match="das bound needs n >= 2, got n=1"):
        das_bound(complete(1))


def test_bounds_dominate_q_enumerated():
    for n in range(2, 7):
        for g in enumerate_nonisomorphic(n):
            if g.m == 0:
                continue
            q = q_index(g).q
            assert q <= merris_bound(g).value + 1e-10
            assert q <= das_bound(g).value + 1e-10
            assert q <= edge_degree_bound(g).value + 1e-10
            assert q <= 2 * max(g.degrees) + 1e-10


def test_merris_equality_iff_regular_or_semiregular_bipartite():
    for n in range(2, 7):
        for g in enumerate_nonisomorphic(n):
            if g.m == 0 or not is_connected(g):
                continue
            equality = abs(q_index(g).q - merris_bound(g).value) <= 1e-9
            expected = is_regular(g) or is_semiregular_bipartite(g)
            assert equality == expected, list(g.edges())


def test_das_equality_iff_named_family():
    for n in range(2, 7):
        for g in enumerate_nonisomorphic(n):
            equality = abs(q_index(g).q - das_bound(g).value) <= 1e-9
            isolated = [v for v in range(g.n) if g.degrees[v] == 0]
            complete_plus_isolated = bool(isolated) and is_complete(
                g.induced([v for v in range(g.n) if v != isolated[0]])
            )
            expected = is_complete(g) or is_star(g) or complete_plus_isolated
            assert equality == expected, list(g.edges())


def test_closed_form_snk():
    assert closed_form_snk(10, 2) == pytest.approx(11.65685425, abs=5e-9)
    for n in range(2, 30):
        assert closed_form_snk(n, 1) == pytest.approx(n)
    with pytest.raises(ValueError):
        closed_form_snk(5, 5)


def test_closed_form_snk_is_accurate_past_squared_float_range():
    for n, k in [(10**200, 2), (10**200, 20), (10**300, 20)]:
        assert closed_form_snk(n, k) == pytest.approx(float(n), rel=1e-15)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for k in range(1, 21):
            for n in range(k + 1, 3000, 37):
                a = decimal.Decimal(n + 2 * k - 2)
                exact = (a + (a * a - 8 * (k * k - k)).sqrt()) / 2
                assert abs(decimal.Decimal(closed_form_snk(n, k)) - exact) <= exact * 3 / 2**53


def test_prop1_sandwich_values():
    low, high = prop1_sandwich(25, 2)
    assert (low, high) == (27 - Fraction(4, 26), 27 - Fraction(4, 31))
    assert low == pytest.approx(27 - 4 / 26)
    assert high == pytest.approx(27 - 4 / 31)
    assert low == pytest.approx(26.84615385, abs=5e-9)
    assert high == pytest.approx(26.87096774, abs=5e-9)


def test_prop1_sandwich_brackets_closed_form():
    for k in (2, 3, 4):
        for n in range(5 * k * k + 1, 201):
            low, _ = prop1_sandwich(n, k)
            value = closed_form_snk(n, k)
            assert low < value < n + 2 * k - 2


def test_kopylov_values():
    assert kopylov_ii_value(9, 2) == max(2 * 9 - 3 + 1, math.comb(5, 2) + 4) == 16
    assert kopylov_i_value(9, 2) == max(15, math.comb(4, 2) + 5) == 15
    assert kopylov_i_value(6, 1) == max(5, 1 + 4) == 5


def test_ore_threshold():
    assert ore_edge_threshold(5) == math.comb(4, 2) + 1 == 7
    assert ore_edge_threshold(3) == 2


def test_egp_equality_instance():
    # nine edges over three disjoint triangles attains the path-free maximum
    g = disjoint_union([complete(3)] * 3)
    assert g.m == 2 * 9 / 2  # the egp bound k*n/2 at n = 9, k = 2


def test_bound_value_shape():
    b = merris_bound(cycle(4))
    assert isinstance(b, BoundValue)
    assert b.relation == "upper_bound_on_q"
