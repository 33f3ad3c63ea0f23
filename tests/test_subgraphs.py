import hashlib
import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qext import search, subgraphs
from qext.enumeration import enumerate_nonisomorphic
from qext.families import complete, cycle, kite_pendant, path, s_nk, star
from qext.graph import _bits, build_graph, disjoint_union
from qext.subgraphs import (
    DEFAULT_NODE_BUDGET,
    SearchBudgetExceeded,
    find_constrained_path,
    find_cycle_of_length,
    find_cycle_through_edge,
    is_cycle_witness,
    is_path_witness,
)

from conftest import random_graph, table_presence


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


# --- witnesses against the DFS-only oracle -------------------------------------
# Witnesses come from one plain DFS at every order, below and above the
# path table's n <= 8; the slow oracle above searches from every start or
# anchor as well.


@st.composite
def graphs_up_to_9(draw):
    n = draw(st.sampled_from(range(1, 10)))
    density = draw(st.sampled_from([0.25, 0.5, 0.75]))
    return random_graph(n, density, draw(st.randoms(use_true_random=False)))


@settings(max_examples=150, deadline=None)
@given(graphs_up_to_9(), st.integers(1, 511), st.integers(0, 8))
def test_witnesses_match_dfs_from_every_start(g, members, avoided):
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
    for length in range(3, n + 1):
        expect, _ = slow_cycle_of_length(g, length)
        assert find_cycle_of_length(g, length) == expect


# --- the look-ahead against the unpruned engine --------------------------------


def unpruned_first_path(rows, start, order, inner, last, budget):
    """``_first_path`` before the look-ahead: any second-to-last vertex is
    placed, whether or not it has a neighbour in ``last``."""
    path = []

    def extend(v, visited, remaining):
        if budget[0] <= 0:
            raise SearchBudgetExceeded(budget[1])
        budget[0] -= 1
        path.append(v)
        if remaining == 0:
            return True
        if remaining == 1:
            ends = rows[v] & last & ~visited
            nxt = ends & -ends
        else:
            nxt = rows[v] & inner & ~visited
        for w in _bits(nxt):
            if extend(w, visited | (1 << w), remaining - 1):
                return True
        path.pop()
        return False

    return tuple(path) if extend(start, 1 << start, order - 1) else None


def engine_calls(g, shape, *args):
    """The ``(start, inner, last)`` calls of one query, in the order the
    public searches make them; the first witness ends the query."""
    n, rows = g.n, g.rows
    if shape == "path":
        ends = args[0] & ((1 << n) - 1)
        return [(start, -1, ends) for start in _bits(ends)]
    if shape == "cycle":  # from each anchor a, through the vertices above it (-2 << a)
        return [(a, -2 << a, -2 << a & rows[a]) for a in range(n)]
    u, v = args
    return [(u, ~(1 << v), 1 << v)]


def run_query(g, order, calls, pruned):
    """First witness and nodes placed by one query on either engine."""
    budget, witness = [10**9, "unbounded"], None
    for start, inner, last in calls:
        if pruned:
            near = subgraphs._near(g.rows, last) if order > 2 else -1
            witness = subgraphs._first_path(g.rows, start, order, inner, last, near, budget)
        else:
            witness = unpruned_first_path(g.rows, start, order, inner, last, budget)
        if witness is not None:
            break
    return witness, 10**9 - budget[0]


def assert_lookahead_exact(g, shape, order, *args):
    """Same witness as the unpruned engine, from no more nodes, and the
    public search returns it; gives both node counts."""
    calls = engine_calls(g, shape, *args)
    expect, before = run_query(g, order, calls, pruned=False)
    witness, after = run_query(g, order, calls, pruned=True)
    assert witness == expect and after <= before
    if shape == "path":
        assert find_constrained_path(g, order, *args) == expect
    elif shape == "cycle":
        assert find_cycle_of_length(g, order) == expect
    else:
        assert find_cycle_through_edge(g, order, *args) == expect
    return before, after


@st.composite
def graphs_up_to_14(draw):
    n = draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    return random_graph(n, density, draw(st.randoms(use_true_random=False)))


# one fixed example set: on some random draws an absence search runs for minutes
@settings(max_examples=80, deadline=None, derandomize=True)
@given(graphs_up_to_14(), st.lists(st.integers(-1, (1 << 14) - 1), min_size=1, max_size=3))
def test_lookahead_keeps_witnesses_and_saves_nodes(g, masks):
    n = g.n
    for order in range(1, n + 1):
        for ends in masks:
            assert_lookahead_exact(g, "path", order, ends)
    for length in range(3, n + 1):
        assert_lookahead_exact(g, "cycle", length)
        for u in range(n):  # every ordered pair, edge or not
            for v in range(n):
                if u != v:
                    assert_lookahead_exact(g, "edge", length, u, v)


def test_lookahead_halves_the_search_nodes(monkeypatch):
    # every cycle-through-edge query that growth makes over the restarts at
    # the bench's orders n = 10, 16 and 24 with C5 forbidden: the same
    # answers from at most half the nodes (about 0.31 of them; n = 16 alone
    # needs about 0.55)
    nodes = [0, 0]

    def traced(g, length, u, v, node_budget):
        before, after = assert_lookahead_exact(g, "edge", length, u, v)
        nodes[0] += before
        nodes[1] += after
        return find_cycle_through_edge(g, length, u, v, node_budget)

    monkeypatch.setattr(search, "find_cycle_through_edge", traced)
    for n in (10, 16, 24):
        for restart in range(8):
            search._restart_worker((restart, n, (5,), 400, 0, None, DEFAULT_NODE_BUDGET))
    assert 0 < 2 * nodes[1] <= nodes[0]


# --- the loop engine against the recursive one --------------------------------


def recursive_first_path(rows, start, order, inner, last, near, budget):
    """The reference engine: ``_first_path`` as a recursive DFS, one call
    per placed vertex, with the same order, look-ahead and node
    accounting."""
    path = []

    def extend(v, visited, remaining):
        if budget[0] <= 0:
            raise SearchBudgetExceeded(budget[1])
        budget[0] -= 1
        path.append(v)
        if remaining == 0:
            return True
        if remaining == 1:
            ends = rows[v] & last & ~visited
            nxt = ends & -ends
        elif remaining == 2:
            nxt = rows[v] & inner & near & ~visited
        else:
            nxt = rows[v] & inner & ~visited
        while nxt:
            low = nxt & -nxt
            nxt ^= low
            if extend(low.bit_length() - 1, visited | low, remaining - 1):
                return True
        path.pop()
        return False

    return tuple(path) if extend(start, 1 << start, order - 1) else None


PROBE_CAP = 5000  # nodes; a query that needs more is compared at this cap only


def capped_query(engine, rows, order, calls, cap):
    """First witness of ``calls`` on one engine and the nodes it placed from
    a shared budget of ``cap``; ``SearchBudgetExceeded`` for the witness
    when the budget runs out."""
    budget = [cap, "capped"]
    witness = None
    try:
        for start, inner, last in calls:
            near = subgraphs._near(rows, last) if order > 2 else -1
            witness = engine(rows, start, order, inner, last, near, budget)
            if witness is not None:
                break
    except SearchBudgetExceeded:
        return SearchBudgetExceeded, cap
    return witness, cap - budget[0]


def assert_engines_agree(g, order, calls, rng):
    """Equal witness and nodes on both engines, and both run out of budget
    at every sampled cap below the nodes used and at none at or above it:
    each cap below 16, the two caps around the nodes used and 8 more drawn
    below it.  Gives the witness and the nodes, or None past ``PROBE_CAP``."""
    expect = capped_query(recursive_first_path, g.rows, order, calls, PROBE_CAP)
    assert capped_query(subgraphs._first_path, g.rows, order, calls, PROBE_CAP) == expect
    witness, nodes = expect
    if witness is SearchBudgetExceeded:
        return None
    caps = {*range(min(nodes, 16)), nodes - 1, nodes, nodes + 1}
    caps |= {rng.randrange(nodes) for _ in range(8)} if nodes else set()
    for cap in caps - {-1}:
        outcome = (SearchBudgetExceeded, cap) if cap < nodes else expect
        for engine in (recursive_first_path, subgraphs._first_path):
            assert capped_query(engine, g.rows, order, calls, cap) == outcome
    return expect


@settings(max_examples=200, deadline=None)
@given(
    graphs_up_to_14(),
    st.randoms(use_true_random=False),
    st.one_of(st.just(-1), st.integers(0, (1 << 14) - 1)),
    st.integers(0, (1 << 14) - 1),
)
def test_loop_engine_matches_the_recursive_engine(g, rng, inner, last):
    n = g.n
    last &= (1 << n) - 1  # the callers' end masks hold vertices only
    order = rng.randint((n + 1) // 2, n)  # longer paths search deeper
    assert_engines_agree(g, order, [(rng.randrange(n), inner, last)], rng)
    ends = rng.choice([-1, last])
    shapes = [("path", order, ends)]
    if n >= 3:
        shapes.append(("cycle", rng.randint(max(3, order), n)))
        shapes.append(("edge", rng.randint(max(3, order), n), *rng.sample(range(n), 2)))
    for shape, order, *args in shapes:
        agreed = assert_engines_agree(g, order, engine_calls(g, shape, *args), rng)
        if agreed is None:
            continue
        witness, nodes = agreed
        if shape == "path":
            public = lambda budget: find_constrained_path(g, order, ends, budget)
        elif shape == "cycle":
            public = lambda budget: find_cycle_of_length(g, order, budget)
        else:
            public = lambda budget: find_cycle_through_edge(g, order, *args, budget)
        assert public(nodes) == witness
        if nodes:
            with pytest.raises(SearchBudgetExceeded):
                public(nodes - 1)


# The first answer of every path and cycle query over the n <= 7 catalogue:
# per graph, each path order with ends anywhere, in {0, 2} and off vertex 0,
# then each cycle length; repr per answer, one per line.
WITNESSES_N7 = (31397, "0a15c83287fe95d13e9eabba9e78d19b1da80adc85357fce3dbead97394ff699")


def witness_answers(orders):
    for n in orders:
        for g in enumerate_nonisomorphic(n):
            for order in range(1, n + 1):
                for ends in (-1, 0b101, ~1):
                    yield find_constrained_path(g, order, ends)
            for length in range(3, n + 1):
                yield find_cycle_of_length(g, length)


def test_witnesses_pinned_over_the_n7_catalogue():
    answers = [repr(w) for w in witness_answers(range(1, 8))]
    digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
    assert (len(answers), digest) == WITNESSES_N7


def test_witnesses_build_no_path_table(monkeypatch):
    # the path table answers the suite's presence queries only: no witness
    # search builds one, on any graph
    def no_table(rows_list, n):
        raise AssertionError("a witness search built a path table")

    monkeypatch.setattr(subgraphs, "_held_karp", no_table)
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            assert_engine_matches_oracle(g, [0b101])


# --- batched path tables against the per-graph loop ----------------------------


def loop_path_table(rows):
    """The per-graph Held–Karp loop that ``_held_karp`` replaced: ``tails[S][v]``
    is the mask of vertices u such that some path with vertex set S runs from
    u to v.  Returns (ends, cycles): ``ends[r][u]`` masks the vertices that
    end a path on r vertices from u, ``cycles[l]`` the smallest vertices of
    l-cycles."""
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


def path_tables(graphs):
    """Each graph's row of one ``_held_karp`` batch per order."""
    tables = {}
    for n in sorted({g.n for g in graphs}):
        at = [i for i, g in enumerate(graphs) if g.n == n]
        tables.update(zip(at, subgraphs._held_karp([graphs[i].rows for i in at], n)))
    return [tables[i] for i in range(len(graphs))]


def assert_tables_match_loop(graphs):
    """One ``_held_karp`` batch per order over ``graphs``, checked graph by
    graph: the end pairs against the loop's, and the cycle query (a cycle
    on at least l vertices) against the loop's cycle masks."""
    for g, table in zip(graphs, path_tables(graphs)):
        ends, cycles = loop_path_table(g.rows)
        assert table.tolist() == pairs_from_ends(ends)
        cycle_query = table_presence(g, table)[1]
        assert [cycle_query(length) for length in range(3, g.n + 2)] == [
            any(cycles[length:]) for length in range(3, g.n + 2)
        ]


def pairs_from_ends(ends):
    """pairs[r]: bit 8u + v set when v ends a path on r vertices from u."""
    return [sum(mask << 8 * u for u, mask in enumerate(row)) for row in ends]


def test_batched_tables_match_loop_every_graph_up_to_7():
    # n = 0 and every graph with n <= 7, in mixed order
    graphs = [build_graph(0)] + [g for n in range(1, 8) for g in enumerate_nonisomorphic(n)]
    assert_tables_match_loop(graphs[::-1])


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
    # the path query, for every order r and every end set A, against the
    # brute-force spans
    rng = random.Random(88)
    graphs = [build_graph(0)] + [g for n in range(1, 7) for g in enumerate_nonisomorphic(n)]
    graphs += [random_graph(n, p, rng) for n in (7, 8) for p in (0.3, 0.6)]
    for g, table in zip(graphs, path_tables(graphs)):
        path_query = table_presence(g, table)[0]
        spans = [
            sum(path_query(order, a) << a for a in range(1 << g.n))
            for order in range(g.n + 1)
        ]
        assert spans == brute_spans(g)


def test_cycle_query_matches_the_search_up_to_7():
    # on every graph with n <= 7, one batch per order: the table's cycle
    # query at each l in 3..n+1 is true exactly when find_cycle_of_length
    # returns a witness at some length l..n, a cycle on at least l vertices;
    # at n = 1 and 2, length 3 is asked too and is false, and the 1-vertex
    # table has no two-vertex layer to read
    for n in range(1, 8):
        graphs = list(enumerate_nonisomorphic(n))
        pairs = subgraphs._held_karp([g.rows for g in graphs], n)
        found = [[find_cycle_of_length(g, m) is not None for m in range(3, n + 1)] for g in graphs]
        for length in range(3, max(n, 2) + 2):
            assert subgraphs._table_cycles(pairs, length).tolist() == [any(f[length - 3 :]) for f in found]


def test_table_words_hold_the_top_pair_bit_of_k8():
    # K_8's pairs[1] sets bit 63 = 8*7 + 7, the top bit of the table's
    # uint64 words, which hold pair bit 8u + v only while _TABLE_MAX <= 8
    # (ROADMAP item 7 step 1: above, the words need limbs); as int64 the
    # same words overflow, and K_8 then fails here loudly
    top = 8 * (subgraphs._TABLE_MAX - 1) + subgraphs._TABLE_MAX - 1
    assert top < 64, f"pair bit {top} does not fit the table's uint64 words"
    k8 = complete(8)
    pairs = subgraphs._held_karp([k8.rows], 8)
    assert int(pairs[0, 1]) >> 63 == 1
    # a path on one vertex with both ends in {7} is that bit alone
    assert subgraphs._table_paths(pairs, 1, np.array([[1 << 7]])).tolist() == [[True]]
    assert subgraphs._table_cycles(pairs, 8).tolist() == [True]
    with pytest.raises(OverflowError):
        np.array(pairs.tolist(), dtype=np.int64)


def test_absence_is_a_search_at_every_order():
    # n = 8, within the path table's orders, and n = 9, above them: proving
    # that no path on 5 or 6 vertices exists is a search, and one node runs out
    g = disjoint_union([complete(4), complete(4)])
    assert find_constrained_path(g, 5) is None
    with pytest.raises(SearchBudgetExceeded):
        find_constrained_path(g, 5, node_budget=1)
    for length in range(5, 9):
        assert find_cycle_of_length(g, length) is None
        with pytest.raises(SearchBudgetExceeded):
            find_cycle_of_length(g, length, node_budget=1)
    h = disjoint_union([complete(4), complete(5)])
    with pytest.raises(SearchBudgetExceeded):
        find_constrained_path(h, 6, node_budget=1)


def test_presence_spends_no_node_on_table_graphs():
    # presence on n = 8 is read off the path table, with no search
    g = complete(8)
    path_bit, cycle_bit = table_presence(g, subgraphs._held_karp([g.rows], 8)[0])
    assert path_bit(8) and cycle_bit(8)
    assert not path_bit(9) and not cycle_bit(9)
    assert not path_bit(2, 1)  # both ends in {0}: only order 1 fits
    assert path_bit(1, 1) and not path_bit(1, 0)
    with pytest.raises(ValueError, match="path order"):
        find_constrained_path(g, 0, -1)
    with pytest.raises(ValueError, match="cycle length"):
        find_cycle_of_length(g, 2)


def test_budgets_hold_on_table_graphs():
    # a witness is a search that spends one node per vertex placed: 6 nodes
    # cannot place 7 vertices, even right after a call that found the path,
    # and 7 nodes can
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
    for g in (s_nk(8, 2), petersen):  # n = 8 and n = 10
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
    # an edge or a non-edge of g alike: a cycle through uv in g + uv
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng.randrange(3, 8), 0.5, rng)
        u, v = rng.sample(range(g.n), 2)
        closed = g.with_edge(u, v)
        for length in range(3, g.n + 1):
            got = find_cycle_through_edge(g, length, u, v)
            expect = any(
                all(closed.has_edge(a, b) for a, b in zip(seq, seq[1:]))
                for seq in permutations(range(g.n), length)
                if seq[0] == u and seq[-1] == v
            )
            assert (got is not None) == expect
            if got is not None:
                assert got[0] == u and got[-1] == v and is_cycle_witness(closed, got)
                assert got == find_cycle_through_edge(closed, length, u, v)
    assert find_cycle_through_edge(path(3), 3, 0, 2) == (0, 1, 2)


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
