import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qext import subgraphs
from qext.enumeration import enumerate_nonisomorphic
from qext.families import complete, cycle, kite_pendant, path, s_nk, star
from qext.graph import _bits, build_graph, disjoint_union
from qext.subgraphs import (
    SearchBudgetExceeded,
    find_constrained_path,
    find_cycle_of_length,
    find_cycle_through_edge,
    is_cycle_witness,
    is_path_witness,
)

from conftest import random_graph


def brute_path_exists(g, order, endpoint_ok):
    if order > g.n:
        return False
    for seq in permutations(range(g.n), order):
        if not (endpoint_ok(seq[0]) and endpoint_ok(seq[-1])):
            continue
        if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
            return True
    return False


def brute_cycle_exists(g, length):
    if length > g.n:
        return False
    for seq in permutations(range(g.n), length):
        if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])) and g.has_edge(
            seq[-1], seq[0]
        ):
            return True
    return False


# --- slow oracle: the three separate DFS routines the engine replaced ----------
# Each returns (witness or None, nodes visited).  Vertices are tried in
# ascending index and every leaf is visited, so the engine must return the
# same witness and never need more nodes.


def slow_constrained_path(g, order, endpoint_ok):
    path, nodes = [], [0]

    def dfs(v, visited, remaining):
        nodes[0] += 1
        path.append(v)
        if remaining == 0:
            if endpoint_ok(v):
                return True
            path.pop()
            return False
        for w in _bits(g.rows[v] & ~visited):
            if dfs(w, visited | (1 << w), remaining - 1):
                return True
        path.pop()
        return False

    if order <= g.n:
        for start in range(g.n):
            if endpoint_ok(start) and dfs(start, 1 << start, order - 1):
                return tuple(path), nodes[0]
    return None, nodes[0]


def slow_cycle_of_length(g, length):
    path, nodes = [], [0]

    def dfs(v, visited, remaining, anchor, above):
        nodes[0] += 1
        path.append(v)
        if remaining == 0:
            if g.rows[v] >> anchor & 1:
                return True
            path.pop()
            return False
        for w in _bits(g.rows[v] & above & ~visited):
            if dfs(w, visited | (1 << w), remaining - 1, anchor, above):
                return True
        path.pop()
        return False

    if length <= g.n:
        for anchor in range(g.n):
            above = ~((1 << (anchor + 1)) - 1)
            path.clear()
            if dfs(anchor, 1 << anchor, length - 1, anchor, above):
                return tuple(path), nodes[0]
    return None, nodes[0]


def slow_cycle_through_edge(g, length, u, v):
    path, nodes = [], [0]

    def dfs(w, visited, remaining):
        nodes[0] += 1
        path.append(w)
        if remaining == 0:
            if w == v:
                return True
            path.pop()
            return False
        if w == v:
            path.pop()
            return False
        for x in _bits(g.rows[w] & ~visited):
            if dfs(x, visited | (1 << x), remaining - 1):
                return True
        path.pop()
        return False

    if length <= g.n and dfs(u, 1 << u, length - 1):
        return tuple(path), nodes[0]
    return None, nodes[0]


def constraint_cases(n, masks):
    """(ends mask, predicate) pairs: anywhere, avoid each v, the given masks."""
    yield -1, lambda x: True
    for v in range(n):
        yield ~(1 << v), lambda x, v=v: x != v
    for mask in masks:
        yield mask, lambda x, mask=mask: mask >> x & 1


def assert_engine_matches_oracle(g, masks):
    """Same witness as the slow oracle, within the oracle's node count."""
    for order in range(1, g.n + 1):
        for ends, ok in constraint_cases(g.n, masks):
            expect, nodes = slow_constrained_path(g, order, ok)
            assert find_constrained_path(g, order, ends) == expect
            assert find_constrained_path(g, order, ends, nodes) == expect
    for length in range(3, g.n + 1):
        expect, nodes = slow_cycle_of_length(g, length)
        assert find_cycle_of_length(g, length) == expect
        assert find_cycle_of_length(g, length, nodes) == expect
        for a, b in g.edges():
            for u, v in ((a, b), (b, a)):
                expect, nodes = slow_cycle_through_edge(g, length, u, v)
                assert find_cycle_through_edge(g, length, u, v) == expect
                assert find_cycle_through_edge(g, length, u, v, nodes) == expect


# --- path table against the DFS-only oracle -----------------------------------
# Graphs with n <= subgraphs._TABLE_MAX answer from the path table, larger
# ones search alone; the slow oracle above searches from every start or
# anchor on both sides.


@st.composite
def graphs_up_to_9(draw):
    n = draw(st.sampled_from(range(1, 10)))
    density = draw(st.sampled_from([0.25, 0.5, 0.75]))
    return random_graph(n, density, draw(st.randoms(use_true_random=False)))


@settings(max_examples=150, deadline=None)
@given(graphs_up_to_9(), st.integers(1, 511), st.integers(0, 8))
def test_table_witnesses_match_dfs_from_every_start(g, members, avoided):
    n = g.n
    members &= (1 << n) - 1
    cases = [(-1, lambda x: True)]
    if members:
        cases.append((members, lambda x: members >> x & 1))
    v = avoided % n
    cases.append((~(1 << v), lambda x: x != v))
    for order in range(1, n + 1):
        for ends, ok in cases:
            expect, _ = slow_constrained_path(g, order, ok)
            assert find_constrained_path(g, order, ends) == expect
            if expect is None and n <= subgraphs._TABLE_MAX:
                assert find_constrained_path(g, order, ends, node_budget=1) is None
    for length in range(3, n + 1):
        expect, _ = slow_cycle_of_length(g, length)
        assert find_cycle_of_length(g, length) == expect
        if expect is None and n <= subgraphs._TABLE_MAX:
            assert find_cycle_of_length(g, length, node_budget=1) is None


# --- batched path tables against the per-graph loop ----------------------------


def loop_path_table(rows):
    """The per-graph Held–Karp loop that ``_held_karp`` replaced: ``tails[S][v]``
    is the mask of vertices u such that some path with vertex set S runs from
    u to v.  Returns (ends, cycles) as tuples of tuples and a tuple."""
    n = len(rows)
    tails = [None] * (1 << n)
    ends = [[0] * n for _ in range(n + 1)]
    cycles = [0] * (n + 1)
    for v in range(n):
        tails[1 << v] = [1 << v if w == v else 0 for w in range(n)]
        ends[1][v] = 1 << v
    for s in range(3, 1 << n):
        members = list(_bits(s))
        order = len(members)
        if order < 2:
            continue
        here = [0] * n
        for v in members:
            before = tails[s ^ (1 << v)]
            if before is not None:
                starts = 0
                for w in _bits(rows[v] & s):
                    starts |= before[w]
                here[v] = starts
                ends[order][v] |= starts
        if any(here):
            tails[s] = here
            low = members[0]
            if order > 2 and here[low] & rows[low]:
                cycles[order] |= 1 << low
    return tuple(map(tuple, ends)), tuple(cycles)


def assert_tables_match_loop(graphs):
    """One ``_path_tables`` call over all of ``graphs``, checked graph by graph."""
    tables = subgraphs._path_tables([g.rows for g in graphs])
    assert len(tables) == len(graphs)
    for g, table in zip(graphs, tables):
        if g.n > subgraphs._TABLE_MAX:
            assert table is None
            continue
        ends, cycles = loop_path_table(g.rows)
        assert tuple(tuple(table.ends[8 * r : 8 * r + g.n]) for r in range(g.n + 1)) == ends
        assert tuple(table.cycles) == cycles
        assert len(table.spans) == g.n + 1


def test_batched_tables_match_loop_every_graph_up_to_7():
    # one mixed-order batch: n = 0, every graph with n <= 7, and one n = 9 graph
    graphs = [build_graph(0)] + [g for n in range(1, 8) for g in enumerate_nonisomorphic(n)]
    assert_tables_match_loop(graphs[::-1] + [complete(9)])


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.builds(random_graph, st.just(8), st.sampled_from([0.2, 0.4, 0.6, 0.8]), st.randoms()),
        min_size=1,
        max_size=4,
    )
)
def test_batched_tables_match_loop_n8(graphs):
    assert_tables_match_loop(graphs)


def brute_spans(g):
    """spans[r] by brute force: the end pairs of every path on r vertices,
    then for each vertex set A whether some pair lies inside A."""
    spans = [0] * (g.n + 1)
    for order in range(1, g.n + 1):
        pairs = {
            1 << seq[0] | 1 << seq[-1]
            for seq in permutations(range(g.n), order)
            if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))
        }
        for a in range(1 << g.n):
            if any(pair & a == pair for pair in pairs):
                spans[order] |= 1 << a
    return spans


def test_spans_match_brute_force_for_every_end_mask():
    rng = random.Random(88)
    graphs = [build_graph(0)] + [g for n in range(1, 7) for g in enumerate_nonisomorphic(n)]
    graphs += [random_graph(n, p, rng) for n in (7, 8) for p in (0.3, 0.6)]
    for g, table in zip(graphs, subgraphs._path_tables([g.rows for g in graphs])):
        assert list(table.spans) == brute_spans(g)


def test_table_proves_absence_without_a_node():
    # n = 8, within the table: no Hamiltonian path or cycle, no node spent
    g = disjoint_union([complete(4), complete(4)])
    assert find_constrained_path(g, 5, node_budget=0) is None
    for length in range(5, 9):
        assert find_cycle_of_length(g, length, node_budget=0) is None
    # n = 9, above it: the same absence is a search and the budget runs out
    h = disjoint_union([complete(4), complete(5)])
    with pytest.raises(SearchBudgetExceeded):
        find_constrained_path(h, 6, node_budget=1)


def test_presence_spends_no_node_on_table_graphs():
    # the suite reads presence on n = 8 off the path table, with no search
    g = complete(8)
    path_bit, cycle_bit = subgraphs._table_queries(8, subgraphs._path_tables([g.rows])[0])
    assert path_bit(g, 8, -1) and cycle_bit(g, 8)
    assert not path_bit(g, 9, -1) and not cycle_bit(g, 9)
    assert not path_bit(g, 2, 1)  # both ends in {0}: only order 1 fits
    assert path_bit(g, 1, 1) and not path_bit(g, 1, 0)
    with pytest.raises(ValueError, match="path order"):
        find_constrained_path(g, 0, -1)
    with pytest.raises(ValueError, match="cycle length"):
        find_cycle_of_length(g, 2)


def test_budgets_hold_on_table_graphs():
    # K_7 has a path table, but a witness is still a search that spends one
    # node per vertex placed: 6 nodes cannot place 7 vertices, even right
    # after a call that found the path, and 7 nodes can
    g = complete(7)
    assert find_constrained_path(g, 7) == tuple(range(7))
    with pytest.raises(SearchBudgetExceeded):
        find_constrained_path(g, 7, node_budget=6)
    assert find_constrained_path(g, 7, node_budget=7) == tuple(range(7))
    # the end mask picks the path: (0, ..., 6) already ends in the even
    # vertices, while ends {0, 1} take the first path from 0 that ends at 1
    assert find_constrained_path(g, 7, 0b1010101) == (0, 1, 2, 3, 4, 5, 6)
    assert find_constrained_path(g, 7, 0b11) == (0, 2, 3, 4, 5, 6, 1)


def test_ends_mask_contract(petersen):
    # an empty mask admits no path and costs no node; bits at or above n
    # are ignored, so a mask with extra high bits finds the same witness
    for g in (s_nk(8, 2), petersen):  # a table graph and a search graph
        n = g.n
        found = 0
        for order in range(1, n + 1):
            assert find_constrained_path(g, order, 0, node_budget=0) is None
            for mask in (0b101, 0b110010, (1 << n) - 1):
                expect = find_constrained_path(g, order, mask)
                found += expect is not None
                for high in (mask | 1 << n | 1 << (n + 7), mask | -1 << n):
                    assert find_constrained_path(g, order, high) == expect
        assert found


def test_engine_matches_slow_oracle_all_graphs_small():
    # every graph with n <= 6, every ends_in vertex set
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            assert_engine_matches_oracle(g, range(1, 1 << n))


def test_engine_matches_slow_oracle_random():
    rng = random.Random(2024)
    for n in range(7, 13):
        for _ in range(6):
            g = random_graph(n, rng.uniform(0.2, 0.8), rng)
            masks = [rng.randrange(1, 1 << n) for _ in range(3)]
            assert_engine_matches_oracle(g, masks)


def test_relabelled_witnesses_match_slow_oracle():
    # labelled copies exercise orderings the canonical catalogue never shows
    rng = random.Random(6)
    for _ in range(40):
        g = random_graph(7, 0.5, rng)
        perm = list(range(7))
        rng.shuffle(perm)
        h = build_graph(7, [(perm[u], perm[v]) for u, v in g.edges()])
        assert_engine_matches_oracle(h, [rng.randrange(1, 1 << 7)])


def test_path_examples():
    assert find_constrained_path(cycle(5), 5) is not None
    assert find_constrained_path(star(4), 4) is None
    witness = find_constrained_path(s_nk(10, 2), 5)
    assert witness is not None and len(witness) == 5
    kite = kite_pendant(2)
    assert find_constrained_path(kite, 5, ~(1 << 4)) is None


def test_cycle_examples(petersen):
    assert find_cycle_of_length(complete(4), 4) is not None
    assert find_cycle_of_length(s_nk(10, 2), 5) is None
    assert find_cycle_of_length(petersen, 3) is None
    assert find_cycle_of_length(petersen, 4) is None
    assert find_cycle_of_length(petersen, 5) is not None


def test_hamiltonian_examples():
    assert find_cycle_of_length(cycle(6), 6) is not None
    assert find_cycle_of_length(star(5), 5) is None
    with pytest.raises(ValueError):
        find_cycle_of_length(complete(2), 2)


def test_every_dense_five_vertex_graph_has_a_spanning_cycle():
    # all 45 labeled graphs on 5 vertices with 8 edges
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    count = 0
    for drop_a in range(len(pairs)):
        for drop_b in range(drop_a + 1, len(pairs)):
            edges = [p for i, p in enumerate(pairs) if i not in (drop_a, drop_b)]
            assert find_cycle_of_length(build_graph(5, edges), 5) is not None
            count += 1
    assert count == 45


def test_oracle_agreement_all_graphs_small():
    # exhaustive brute-force oracle on every graph with n <= 6:
    # unconstrained plus both constraint modes, all orders and lengths
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            for order in range(1, n + 1):
                assert (
                    find_constrained_path(g, order) is not None
                ) == brute_path_exists(g, order, lambda v: True)
                for v in range(n):
                    got = find_constrained_path(g, order, ~(1 << v))
                    assert (got is not None) == brute_path_exists(
                        g, order, lambda x: x != v
                    )
                for mask in range(1, 1 << n):
                    got = find_constrained_path(g, order, mask)
                    assert (got is not None) == brute_path_exists(
                        g, order, lambda x: mask >> x & 1
                    )
            for length in range(3, n + 1):
                assert (find_cycle_of_length(g, length) is not None) == (
                    brute_cycle_exists(g, length)
                )


def test_oracle_agreement_sampled_n7():
    # full n=7 coverage of every mode is out of test budget; exhaustive
    # checking stops at n=6 and n=7 gets a seeded sample of all three modes
    rng = random.Random(77)
    graphs = list(enumerate_nonisomorphic(7))
    for g in rng.sample(graphs, 60):
        for order in (3, 5, 7):
            assert (
                find_constrained_path(g, order) is not None
            ) == brute_path_exists(g, order, lambda v: True)
            v = rng.randrange(7)
            got = find_constrained_path(g, order, ~(1 << v))
            assert (got is not None) == brute_path_exists(g, order, lambda x: x != v)
            mask = rng.randrange(1, 1 << 7)
            got = find_constrained_path(g, order, mask)
            assert (got is not None) == brute_path_exists(
                g, order, lambda x: mask >> x & 1
            )
        for length in (4, 6, 7):
            assert (find_cycle_of_length(g, length) is not None) == (
                brute_cycle_exists(g, length)
            )


def test_cycle_through_edge():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng.randrange(3, 8), 0.5, rng)
        edges = list(g.edges())
        if not edges:
            continue
        u, v = edges[rng.randrange(len(edges))]
        for length in range(3, g.n + 1):
            got = find_cycle_through_edge(g, length, u, v)
            expect = any(
                all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))
                for seq in permutations(range(g.n), length)
                if seq[0] == u and seq[-1] == v
            )
            assert (got is not None) == expect
            if got is not None:
                assert got[0] == u and got[-1] == v
    with pytest.raises(ValueError, match="not an edge"):
        find_cycle_through_edge(path(3), 3, 0, 2)


def test_path_monotonicity():
    for n in range(2, 7):
        for g in enumerate_nonisomorphic(n):
            for order in range(2, n + 1):
                if find_constrained_path(g, order) is not None:
                    assert find_constrained_path(g, order - 1) is not None


def test_witnesses_are_validated():
    g = cycle(6)
    witness = find_cycle_of_length(g, 6)
    assert is_cycle_witness(g, witness)
    pw = find_constrained_path(g, 4)
    assert is_path_witness(g, pw)
    assert not is_path_witness(g, (0, 2))
    assert not is_cycle_witness(g, (0, 1, 2))


def test_budget_exhaustion_is_distinct_from_absence():
    g = complete(7)
    with pytest.raises(SearchBudgetExceeded):
        find_constrained_path(g, 7, node_budget=3)
    with pytest.raises(SearchBudgetExceeded):
        find_cycle_of_length(g, 7, node_budget=3)


def test_argument_validation():
    with pytest.raises(ValueError):
        find_constrained_path(path(3), 0)
    with pytest.raises(ValueError):
        find_cycle_of_length(path(3), 2)
    for u, v in ((5, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="out of range"):
            find_cycle_through_edge(cycle(5), 3, u, v)


def test_has_cycle_longer_than():
    # C_5 has a cycle longer than 4 and only the one of length 5;
    # P_6 has no cycle at all
    assert find_cycle_of_length(cycle(5), 5) is not None
    assert all(find_cycle_of_length(cycle(5), l) is None for l in range(3, 5))
    assert all(find_cycle_of_length(path(6), l) is None for l in range(3, 7))
