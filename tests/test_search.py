import concurrent.futures
import hashlib
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qext import search
from qext.bounds import closed_form_snk
from qext.enumeration import (
    _min_codes,
    canonical_code,
    enumerate_nonisomorphic,
    write_graph6,
)
from qext.families import complete, cycle, edgeless, path, s_nk, s_nk_plus, star
from qext.graph import Graph, build_graph, disjoint_union
from qext.search import is_feasible, maximize_q_forbidden_cycles
from qext.spectral import q_index
from qext.subgraphs import DEFAULT_NODE_BUDGET, SearchBudgetExceeded, find_cycle_through_edge
from qext.verify import run_suite

from conftest import graph_from_code, without_edge


def exhaustive_best(n, forbidden):
    return max(
        q_index(g).q for g in enumerate_nonisomorphic(n) if is_feasible(g, forbidden)
    )


@pytest.mark.parametrize("forbidden", [{3}, {5}])
def test_matches_exhaustive_oracle_n6(forbidden):
    oracle = exhaustive_best(6, forbidden)
    result = maximize_q_forbidden_cycles(6, forbidden, budget=150, restarts=12, seed=0)
    assert result.feasible
    assert result.q_interval[1] >= oracle - 1e-8
    assert result.q_interval[0] <= oracle + 1e-8


def test_seeded_run_never_loses_the_seed():
    seed_graph = s_nk(10, 2)
    result = maximize_q_forbidden_cycles(
        10, {5}, budget=200, restarts=3, seed=1, seed_graph=seed_graph
    )
    assert result.q_interval[1] >= closed_form_snk(10, 2) - 1e-8
    assert is_feasible(result.best, {5})


def test_seeded_run_with_plus_family():
    seed_graph = s_nk_plus(12, 2)
    target = q_index(seed_graph).q
    result = maximize_q_forbidden_cycles(
        12, {6}, budget=150, restarts=2, seed=0, seed_graph=seed_graph
    )
    assert result.q_interval[1] >= target - 1e-8


def test_determinism():
    first = maximize_q_forbidden_cycles(6, {3}, budget=80, restarts=4, seed=5)
    second = maximize_q_forbidden_cycles(6, {3}, budget=80, restarts=4, seed=5)
    assert first == second


def test_jobs_do_not_change_the_result():
    # restarts take their seed graph and hand back their results as Graph objects
    for n, seed_graph in [(6, None), (9, path(9))]:
        kwargs = dict(budget=60, restarts=4, seed=2, seed_graph=seed_graph)
        serial = maximize_q_forbidden_cycles(n, {4}, **kwargs)
        parallel = maximize_q_forbidden_cycles(n, {4}, jobs=2, **kwargs)
        assert serial == parallel


def test_pools_never_ask_for_more_workers_than_payloads(monkeypatch):
    # a pool may fork all its workers at the first submit, so each caller
    # caps it at its work: the suite's 3 chunks (n = 1, 2, 3) and the 2
    # restarts; the fake pool records the request and maps serially
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    def both(jobs):
        return (run_suite(["egp"], n_max=3, k_range=[1], jobs=jobs),
                maximize_q_forbidden_cycles(10, {5}, restarts=2, jobs=jobs))

    serial = both(1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert both(64) == serial
    assert asked == [3, 2]


def test_matched_family_tag():
    # no addition to the split graph stays feasible, so the seed survives
    result = maximize_q_forbidden_cycles(
        10, {5}, budget=1, restarts=1, seed=0, seed_graph=s_nk(10, 2)
    )
    assert result.matched_family == "s_nk"
    assert result.best == s_nk(10, 2)


def test_matched_family_tag_is_exact_up_to_order_8():
    # the tag names a family exactly when the graph is isomorphic to one of
    # its members: s_nk(n, k) for k <= n - 2 (k = n - 1 is complete) and
    # s_nk_plus(n, k) for k <= n - 3 (at k = n - 2 it is complete too)
    tags = Counter()
    for n in range(1, 9):
        members = {canonical_code(s_nk(n, k)): "s_nk" for k in range(1, n - 1)}
        members.update({canonical_code(s_nk_plus(n, k)): "s_nk_plus" for k in range(1, n - 2)})
        catalogue = list(enumerate_nonisomorphic(n))
        codes = _min_codes(np.array([g.rows for g in catalogue], dtype=np.int64)).tolist()
        for g, code in zip(catalogue, codes):
            tag = search._match_family(g)
            assert tag == members.get(code)
            tags[tag] += 1
    assert tags == Counter({None: 13_562, "s_nk": 21, "s_nk_plus": 15})


def test_interval_width_bounded_by_residual():
    result = maximize_q_forbidden_cycles(6, {3}, budget=30, restarts=2, seed=0)
    r = q_index(result.best)
    width = result.q_interval[1] - result.q_interval[0]
    assert width <= 2 * r.residual + 1e-15


def test_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n >= 3"):
        maximize_q_forbidden_cycles(2, {3})
    with pytest.raises(ValueError, match="forbidden lengths"):
        maximize_q_forbidden_cycles(6, set())
    with pytest.raises(ValueError, match="forbidden lengths"):
        maximize_q_forbidden_cycles(6, {2})
    with pytest.raises(ValueError, match="forbidden cycle"):
        maximize_q_forbidden_cycles(4, {3}, seed_graph=complete(4))
    with pytest.raises(ValueError, match="order"):
        maximize_q_forbidden_cycles(6, {3}, seed_graph=complete(4))
    for seed_graph in (edgeless(8), disjoint_union([path(4), path(4)])):
        with pytest.raises(ValueError, match="connected"):
            maximize_q_forbidden_cycles(8, {3}, seed_graph=seed_graph)


def test_result_record():
    result = maximize_q_forbidden_cycles(6, {3}, budget=20, restarts=2, seed=0)
    record = result.as_record()
    assert record["kind"] == "search"
    assert record["feasible"] is True
    assert isinstance(record["near_ties"], list)


def addition_allowed(g, u, v, forbidden, node_budget):
    # whether g + uv has no cycle of a forbidden length through uv, asked of
    # g itself (with or without that edge) as u..v paths of those orders
    for length in forbidden:
        if length <= g.n and find_cycle_through_edge(g, length, u, v, node_budget=node_budget):
            return False
    return True


def reference_grow(g, pairs, forbidden, node_budget):
    # growth as one immutable Graph per kept edge: each pair not yet an
    # edge or blocked is asked of the current graph, and kept by with_edge
    blocked = set()
    added = 0
    for u, v in pairs:
        if (u, v) in blocked or g.has_edge(u, v):
            continue
        if addition_allowed(g, u, v, forbidden, node_budget):
            g, added = g.with_edge(u, v), added + 1
        else:
            blocked.add((u, v))
    return g, added


def _slow_climb(start, forbidden, budget, rng, node_budget):
    # reference climb: toggles both ways and evaluates every feasible move
    n = start.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    current = start
    current_q = q_index(current).q
    accepted = 0
    for _ in range(budget):
        u, v = pairs[rng.randrange(len(pairs))]
        if current.has_edge(u, v):
            candidate = without_edge(current, u, v)
        else:
            candidate = current.with_edge(u, v)
            if not addition_allowed(candidate, u, v, forbidden, node_budget):
                continue
        candidate_q = q_index(candidate).q
        if candidate_q > current_q:
            current, current_q = candidate, candidate_q
            accepted += 1
    return current, accepted


@pytest.mark.parametrize("forbidden", [{3}, {4}, {5}, {3, 5}])
@pytest.mark.parametrize("n", [*range(6, 17), 24])
def test_climb_matches_slow_climb_from_random_starts(n, forbidden):
    # a random restart returns its maximal start without climbing; the
    # reference climb, which also tries removals, improves on it nowhere
    forbidden = frozenset(forbidden)
    for index in range(3):
        payload = (index, n, tuple(forbidden), 120, 0, None, DEFAULT_NODE_BUDGET)
        start, accepted = search._restart_worker(payload)
        assert accepted == 0 and is_feasible(start, forbidden)
        slow = _slow_climb(start, forbidden, 120, random.Random(index), DEFAULT_NODE_BUDGET)
        assert slow == (start, 0)


@pytest.mark.parametrize(
    "seed_graph, forbidden",
    [
        (star(10), {4}),
        (s_nk_plus(16, 2), {7}),
        (star(24), {4, 5}),
        (path(9), {4}),
        (path(11), {5}),
        (path(12), {3, 5}),
        (cycle(8), {3}),
        (cycle(10), {5}),
        (cycle(12), {4}),
    ],
)
def test_climb_matches_slow_climb_from_seed_graphs(seed_graph, forbidden):
    # from a connected seed, restart 0 keeps exactly the moves that the
    # q-comparing reference climb, which also tries removals, accepts
    forbidden = frozenset(forbidden)
    for seed in range(3):
        payload = (0, seed_graph.n, tuple(forbidden), 200, seed, seed_graph, DEFAULT_NODE_BUDGET)
        grown = search._restart_worker(payload)
        slow = _slow_climb(seed_graph, forbidden, 200, random.Random(seed), DEFAULT_NODE_BUDGET)
        assert grown == slow
        assert grown[1] > 0


def _accept_all_climb(start, forbidden, budget, rng, node_budget):
    # reference climb: draws pairs as restart 0 does and accepts every
    # feasible non-edge without computing q
    n = start.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    current, accepted = start, 0
    for _ in range(budget):
        u, v = pairs[rng.randrange(len(pairs))]
        if current.has_edge(u, v):
            continue
        candidate = current.with_edge(u, v)
        if addition_allowed(candidate, u, v, forbidden, node_budget):
            current, accepted = candidate, accepted + 1
    return current, accepted


@pytest.mark.parametrize("forbidden", [{3}, {4}, {5}, {6}, {3, 5}, {4, 5}])
def test_climb_from_connected_seed_accepts_every_feasible_addition(forbidden):
    # adding an edge to a connected graph strictly raises q (Perron-Frobenius),
    # so from a connected seed restart 0 keeps every feasible addition
    forbidden = frozenset(forbidden)
    accepted = 0
    for n in range(6, 31):
        for seed_graph in (path(n), cycle(n), star(n), s_nk(n, 2)):
            if not is_feasible(seed_graph, forbidden):
                continue
            for seed in (0, 1):
                payload = (0, n, tuple(forbidden), 60, seed, seed_graph, DEFAULT_NODE_BUDGET)
                grown = search._restart_worker(payload)
                reference = _accept_all_climb(
                    seed_graph, forbidden, 60, random.Random(seed), DEFAULT_NODE_BUDGET
                )
                assert grown == reference
                accepted += grown[1]
    assert accepted > 0


@pytest.mark.parametrize("n", [10, 16, 24])
def test_climb_from_maximal_start_evaluates_nothing(monkeypatch, n):
    # no restart computes q: only the merge does, once per restart
    calls = Counter()
    original = search.q_index

    def counted(*args, **kwargs):
        calls["q_index"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(search, "q_index", counted)
    for index in range(3):  # restart 0 too, when no seed graph is given
        payload = (index, n, (5,), 400, n, None, DEFAULT_NODE_BUDGET)
        _, accepted = search._restart_worker(payload)
        assert accepted == 0
    seeded = (0, n, (5,), 400, n, path(n), DEFAULT_NODE_BUDGET)
    _, accepted = search._restart_worker(seeded)
    assert accepted > 0
    assert calls == Counter()
    maximize_q_forbidden_cycles(n, {5}, budget=400, restarts=3, seed=n, seed_graph=path(n))
    assert calls["q_index"] == 3


def test_tie_break_labels_the_tied_graphs_in_one_batch(monkeypatch):
    # the first graph with the largest canonical code wins, as max over
    # one canonical_code per graph picks it; repeated rows are labelled once
    rng = random.Random(7)
    batches = []
    original = search._min_codes

    def counted(rows):
        batches.append(len(rows))
        return original(rows)

    monkeypatch.setattr(search, "_min_codes", counted)
    for n in (4, 7, 10):
        catalogue = list(enumerate_nonisomorphic(min(n, 6)))
        for _ in range(20):
            graphs = []
            for g in rng.sample(catalogue, 4):
                g = disjoint_union([g, edgeless(n - g.n)])
                perm = list(range(n))
                rng.shuffle(perm)
                graphs += [g, build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])]
            graphs += rng.sample(graphs, 3)
            expect = max(range(len(graphs)), key=lambda i: canonical_code(graphs[i]))
            batches.clear()
            assert search._tie_break(graphs) == expect
            assert batches == [len({g.rows for g in graphs})]
    # above CANONICAL_MAX the graph6 string decides, with no labelling
    big = [cycle(11), path(11), cycle(11), star(11)]
    batches.clear()
    expect = max(range(4), key=lambda i: search.write_graph6(big[i]))
    assert search._tie_break(big) == expect and batches == []


def test_climb_searches_each_blocked_pair_once(monkeypatch):
    found = Counter()
    original = search.find_cycle_through_edge

    def recording(g, length, u, v, **kwargs):
        witness = original(g, length, u, v, **kwargs)
        if witness is not None:
            found[u, v] += 1
        return witness

    monkeypatch.setattr(search, "find_cycle_through_edge", recording)
    payload = (0, 12, (3, 5), 400, 0, path(12), DEFAULT_NODE_BUDGET)
    _, accepted = search._restart_worker(payload)
    assert accepted > 0 and found
    assert max(found.values()) == 1


def test_growth_builds_one_graph_per_restart(monkeypatch):
    # a random restart asks its rows about every pair, once and while the
    # pair is not an edge, and builds one graph, when growth ends
    built, asked = Counter(), Counter()
    init, original = Graph.__init__, search.find_cycle_through_edge

    def counted_init(g, n, rows):
        built["Graph"] += 1
        init(g, n, rows)

    def recording(g, length, u, v, **kwargs):
        assert not g.rows[u] >> v & 1
        asked[u, v] += 1
        return original(g, length, u, v, **kwargs)

    start = edgeless(24)
    monkeypatch.setattr(search, "edgeless", lambda n: start)
    monkeypatch.setattr(Graph, "__init__", counted_init)
    monkeypatch.setattr(search, "find_cycle_through_edge", recording)
    grown, _ = search._restart_worker((0, 24, (5,), 400, 0, None, DEFAULT_NODE_BUDGET))
    assert built["Graph"] == 1 and 0 < grown.m < len(asked)
    assert len(asked) == 24 * 23 // 2 and set(asked.values()) == {1}


@st.composite
def growth_cases(draw):
    # a start (edgeless, or a random connected seed), forbidden lengths from
    # 3..n, and pairs either shuffled once or drawn with repeats
    n = draw(st.integers(3, 14))
    rng = draw(st.randoms(use_true_random=False))
    forbidden = frozenset(rng.sample(range(3, n + 1), rng.randint(1, n - 2)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if draw(st.booleans()):
        start = edgeless(n)
    else:
        order = list(range(n))
        rng.shuffle(order)
        tree = [(order[rng.randrange(i)], order[i]) for i in range(1, n)]
        density = draw(st.sampled_from([0.0, 0.1, 0.3]))
        extra = [p for p in pairs if rng.random() < density]
        start = build_graph(n, [(min(e), max(e)) for e in tree] + extra)
    if draw(st.booleans()):
        rng.shuffle(pairs)
    else:
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(rng.randint(1, 3 * len(pairs)))]
    return start, pairs, forbidden


@settings(max_examples=150, deadline=None)
@given(growth_cases())
def test_grow_matches_growth_by_with_edge(case):
    # rows grown in place give the graph, and the count, that one immutable
    # graph per kept edge gives
    start, pairs, forbidden = case
    grown, added = search._grow(start, pairs, forbidden, DEFAULT_NODE_BUDGET)
    reference, expected = reference_grow(start, pairs, forbidden, DEFAULT_NODE_BUDGET)
    assert (grown.rows, added) == (reference.rows, expected)
    assert grown == reference and grown.degrees == reference.degrees and grown.m == reference.m


def test_grow_overrun_raises_the_query_budget_message():
    # every query has its own node budget, and an overrun leaves _grow
    # with the finder's message
    pairs = [(0, 2), (1, 3)]
    with pytest.raises(SearchBudgetExceeded, match="^cycle search exceeded node budget 1$"):
        search._grow(path(6), pairs, frozenset({4}), 1)
    with pytest.raises(SearchBudgetExceeded, match="^cycle search exceeded node budget 1$"):
        reference_grow(path(6), pairs, frozenset({4}), 1)


# graph6 of every restart's result, one per line: restarts 0..7 at seed 0
# and budget 400 over n in {10, 12, 16, 24} and four forbidden sets, then
# seeds 0..3 of restart 0 grown from star(24) with {4, 5} and from
# s_nk_plus(16, 2) with {7}, each followed by its accepted count
RESTARTS = (136, "1a9008a2d5b77bc6b78e9c1c6b7a95e29362b954d8fc82660723ff94afa2b6d4")


def test_restart_results_pinned():
    lines = []
    for n in (10, 12, 16, 24):
        for forbidden in ((4,), (5,), (6,), (3, 5)):
            for index in range(8):
                payload = (index, n, forbidden, 400, 0, None, DEFAULT_NODE_BUDGET)
                lines.append(write_graph6(search._restart_worker(payload)[0]))
    for seed_graph, forbidden in ((star(24), (4, 5)), (s_nk_plus(16, 2), (7,))):
        for seed in range(4):
            payload = (0, seed_graph.n, forbidden, 400, seed, seed_graph, DEFAULT_NODE_BUDGET)
            grown, accepted = search._restart_worker(payload)
            lines.append(f"{write_graph6(grown)} {accepted}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == RESTARTS


@st.composite
def graphs_up_to_12(draw):
    n = draw(st.integers(3, 12))
    full = (1 << n * (n - 1) // 2) - 1
    a, b = draw(st.integers(0, full)), draw(st.integers(0, full))
    mask = draw(st.sampled_from([a & b, a, a | b]))  # sparse, even, dense
    return graph_from_code(n, mask)


@settings(max_examples=80, deadline=None)
@given(graphs_up_to_12(), st.randoms(use_true_random=False))
def test_removal_never_raises_q(g, rng):
    edges = list(g.edges())
    if not edges:
        return
    u, v = rng.choice(edges)
    before = q_index(g, method="dense").q
    after = q_index(without_edge(g, u, v), method="dense").q
    assert after <= before + 1e-9


@settings(max_examples=80, deadline=None)
@given(graphs_up_to_12(), st.randoms(use_true_random=False), st.integers(3, 12))
def test_blocked_pair_stays_blocked_after_an_addition(g, rng, length):
    length = min(length, g.n)
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    if not non_edges:
        return
    f = rng.choice(non_edges)
    bigger = g.with_edge(*f)

    def blocked(h, u, v):
        return find_cycle_through_edge(h.with_edge(u, v), length, u, v) is not None

    for u, v in non_edges:
        if (u, v) != f and blocked(g, u, v):
            assert blocked(bigger, u, v)


@settings(max_examples=80, deadline=None)
@given(graphs_up_to_12(), st.randoms(use_true_random=False))
def test_addition_allowed_asks_the_graph_without_the_pair(g, rng):
    # a cycle through uv in g + uv is a u..v path of g that never uses uv,
    # so g answers as g + uv does, whether or not g has that edge
    u, v = rng.sample(range(g.n), 2)
    forbidden = frozenset(rng.sample(range(3, g.n + 1), rng.randint(1, g.n - 2)))
    allowed = addition_allowed(g, u, v, forbidden, DEFAULT_NODE_BUDGET)
    assert allowed == addition_allowed(g.with_edge(u, v), u, v, forbidden, DEFAULT_NODE_BUDGET)
