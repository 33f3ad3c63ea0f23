import json
import random
import re
from contextlib import ExitStack
from pathlib import Path
from typing import Iterable
from unittest import mock

import pytest

from qext import subgraphs, verify
from qext.enumeration import canonical_code, enumerate_nonisomorphic
from qext.families import (
    complete,
    cycle,
    kite_pendant,
    lemma2_exception,
    path,
    s_nk,
    star,
    windmill,
)
from qext.graph import build_graph, components, disjoint_union, is_connected
from qext.verify import (
    _STATEMENTS,
    STATEMENTS,
    SUITE_STATEMENTS,
    check_statement,
    is_disjoint_cliques,
    matches_lemma2_exception,
    prop1_sandwich_check,
    run_suite,
    theorem1_construction_probe,
)

from conftest import random_graph


# --- single-statement examples ------------------------------------------------


def test_egp_equality_on_disjoint_triangles():
    g = disjoint_union([complete(3)] * 3)
    outcome = check_statement("egp", g, k=2)
    assert outcome.status == "equality_case"
    assert outcome.lhs == 9 and outcome.rhs == 9


def test_egp_unmet_when_path_exists():
    outcome = check_statement("egp", path(5), k=2)
    assert outcome.status == "precondition_unmet"
    assert outcome.witness is not None


def test_egc_tree_and_cactus_equalities():
    # every tree attains the k=2 bound; triangle cacti attain k=3
    assert check_statement("egc", path(4), k=2).status == "equality_case"
    assert check_statement("egc", star(6), k=2).status == "equality_case"
    chain = build_graph(
        7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)]
    )
    outcome = check_statement("egc", chain, k=3)
    assert outcome.status == "equality_case"
    assert "single hub" not in outcome.note
    hub = check_statement("egc", windmill(3, 3), k=3)
    assert hub.status == "equality_case" and "single hub" in hub.note


def test_lemma1_example():
    g = disjoint_union([cycle(4), complete(3)])
    outcome = check_statement("lemma1", g, k=2)
    assert outcome.status == "holds"


def test_lemma2_exceptional_example():
    g = disjoint_union([complete(4), kite_pendant(2)])
    outcome = check_statement("lemma2", g, k=2, v=8)
    assert outcome.status == "holds"
    assert outcome.lhs == 25 and outcome.rhs == 24
    assert "exceptional" in outcome.note


def test_lemma2_pendant_must_be_v():
    # same graph, but v inside the clique: hypothesis fails instead
    g = disjoint_union([complete(4), kite_pendant(2)])
    outcome = check_statement("lemma2", g, k=2, v=4)
    assert outcome.status == "precondition_unmet"


# --- structure matchers -------------------------------------------------------
# Orders on both sides of 10, where clique shapes were once matched by
# canonical code below and structurally above.


def without_edge(g, u, v):
    return build_graph(g.n, [e for e in g.edges() if e != (min(u, v), max(u, v))])


@pytest.mark.parametrize("size", [1, 2, 3, 5, 9, 10, 11, 12, 14])
def test_disjoint_cliques_matcher(size):
    for copies in (0, 1, 3):
        g = disjoint_union([complete(size)] * copies)
        assert is_disjoint_cliques(g, size)
        if copies:
            assert not is_disjoint_cliques(g, size - 1)
            assert not is_disjoint_cliques(g, size + 1)
    if size >= 2:
        g = disjoint_union([complete(size), complete(size)])
        assert not is_disjoint_cliques(without_edge(g, 0, size - 1), size)
        mixed = disjoint_union([complete(size), complete(size - 1)])
        assert not is_disjoint_cliques(mixed, size)
    if size >= 3:
        assert not is_disjoint_cliques(path(size), size)
        assert not is_disjoint_cliques(star(size), size)
    if size >= 4:
        assert not is_disjoint_cliques(cycle(size), size)


@pytest.mark.parametrize("k", range(1, 8))
def test_lemma2_exception_matcher(k):
    for copies in (0, 1, 2):
        g = lemma2_exception(k, copies)
        v = g.n - 1
        assert matches_lemma2_exception(g, k, v)
        assert not matches_lemma2_exception(g, k + 1, v)
        if k > 1:
            assert not matches_lemma2_exception(g, k - 1, v)
        # v must be the pendant: clique vertices have degree >= 2k-1
        for w in range(g.n - 1):
            expect = k == 1 and w == g.n - 2  # the other end of P3
            assert matches_lemma2_exception(g, k, w) == expect
        # one clique edge missing, or an extra edge at the pendant
        assert not matches_lemma2_exception(without_edge(g, v - 1, v - 2), k, v)
        extra = build_graph(g.n, list(g.edges()) + [(v - 1, v)])
        assert not matches_lemma2_exception(extra, k, v)
    # k = 1: the pendant clique is P3, whose two ends both have degree 1
    assert matches_lemma2_exception(path(3), 1, 0)
    assert matches_lemma2_exception(star(3), 1, 2)
    if k > 1:
        assert not matches_lemma2_exception(path(2 * k + 1), k, 0)
        assert not matches_lemma2_exception(star(2 * k + 1), k, 1)
        kite_and_path = disjoint_union([path(2 * k), kite_pendant(k)])
        assert not matches_lemma2_exception(kite_and_path, k, 4 * k)


def test_matchers_agree_with_isomorphism_small():
    # against canonical codes on every graph with n <= 7
    def isomorphic(g, comp, ref):
        return canonical_code(g.induced(comp)) == canonical_code(ref)

    for n in range(1, 8):
        for g in enumerate_nonisomorphic(n):
            comps = components(g)
            for size in range(1, n + 1):
                expect = all(isomorphic(g, c, complete(size)) for c in comps)
                assert is_disjoint_cliques(g, size) == expect
            for k in range(1, 4):
                for v in range(n):
                    expect = g.degrees[v] == 1 and all(
                        isomorphic(g, c, kite_pendant(k) if v in c else complete(2 * k))
                        for c in comps
                    )
                    assert matches_lemma2_exception(g, k, v) == expect


def test_ni_triangle_example():
    outcome = check_statement("ni", complete(3), k=1, a=[0, 1])
    assert outcome.status == "holds"
    assert outcome.lhs == 4 and outcome.rhs == 3
    assert outcome.witness == (0, 2, 1)


def test_ni_partition_validation():
    with pytest.raises(ValueError, match="partition"):
        check_statement("ni", complete(3), k=1, a=[0], b=[1])


def test_ore_checker():
    dense = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    dense = dense.without_edge(0, 1).without_edge(2, 3)
    assert dense.m == 8
    outcome = check_statement("ore", dense)
    assert outcome.status == "holds" and outcome.witness is not None
    sparse = check_statement("ore", cycle(5))
    assert sparse.status == "precondition_unmet"


def test_kopylov_checkers():
    g = s_nk(8, 1)  # star-like split graph: connected, no long paths
    outcome = check_statement("kopylov_i", g, k=1)
    assert outcome.status in ("holds", "equality_case")
    assert check_statement("kopylov_i", cycle(4), k=1).status == "precondition_unmet"
    disconnected = disjoint_union([complete(3), complete(3)])
    assert (
        check_statement("kopylov_i", disconnected, k=1).status
        == "precondition_unmet"
    )


def test_cor1_instance():
    outcome = check_statement("cor1", k=2, p=5)
    assert outcome.status == "holds"
    assert outcome.rhs == 28.0 and outcome.lhs < 28
    small = check_statement("cor1", k=2, p=2)
    assert small.status == "precondition_unmet"


def test_cor2_checker():
    # split graph with one dominator removed keeps components small
    g = s_nk(30, 2)
    outcome = check_statement("cor2", g, k=2, w=0)
    assert outcome.status in ("holds", "precondition_unmet")
    # hub removal from a star leaves singletons: hypothesis holds, q small
    hub = check_statement("cor2", star(30), k=2, w=0)
    assert hub.status == "holds"


def test_theorem1_checker_statuses():
    probe = check_statement("theorem1", complete(30), k=2)
    assert probe.status == "holds"
    low_q = check_statement("theorem1", path(30), k=2)
    assert low_q.status == "precondition_unmet"
    small = check_statement("theorem1", complete(10), k=2)
    assert small.status == "precondition_unmet"
    cor = check_statement("theorem1_corollary", complete(30), k=2)
    assert cor.status == "holds"


def test_theorem1_construction_probe():
    assert theorem1_construction_probe(25, 2).status == "holds"
    assert theorem1_construction_probe(26, 2).status == "holds"
    assert theorem1_construction_probe(10, 2).status == "precondition_unmet"


def test_theorem1_order_hypothesis_is_n_above_5k2():
    # the paper states n > 5k^2, so 20 is the largest order excluded at k = 2
    assert theorem1_construction_probe(21, 2).status == "holds"
    assert check_statement("theorem1", complete(21), k=2).status == "holds"
    assert check_statement("theorem1_corollary", complete(21), k=2).status == "holds"
    assert [o.status for o in prop1_sandwich_check(21, 2)] == ["holds"] * 3
    unmet = theorem1_construction_probe(20, 2)
    assert (unmet.status, unmet.note) == ("precondition_unmet", "order 20 <= 20")
    assert check_statement("theorem1", complete(20), k=2).status == "precondition_unmet"
    assert prop1_sandwich_check(20, 2)[0].status == "precondition_unmet"
    assert theorem1_construction_probe(46, 3).status == "holds"
    assert theorem1_construction_probe(45, 3).status == "precondition_unmet"


def test_prop1_sandwich_check():
    outcomes = prop1_sandwich_check(25, 2)
    assert [o.status for o in outcomes] == ["holds"] * 3
    unmet = prop1_sandwich_check(10, 2)
    assert len(unmet) == 1 and unmet[0].status == "precondition_unmet"


def test_unknown_statement_and_missing_params():
    with pytest.raises(ValueError, match="unknown statement"):
        check_statement("nosuch", complete(3))
    with pytest.raises(ValueError, match="missing parameter"):
        check_statement("lemma2", complete(3), k=1)
    with pytest.raises(ValueError, match="requires a graph"):
        check_statement("egp", k=1)


# --- equality classification against independent predicates -------------------


def test_egc_equality_set_matches_arithmetic():
    # under the hypothesis, equality_case must fire exactly on 2m = k(n-1)
    for k in (2, 3):
        for n in range(1, 8):
            for g in enumerate_nonisomorphic(n):
                outcome = check_statement("egc", g, k=k)
                if outcome.status == "precondition_unmet":
                    continue
                expects_equality = 2 * g.m == k * (g.n - 1)
                assert (outcome.status == "equality_case") == expects_equality
                if expects_equality:
                    assert is_connected(g)


def test_egp_equality_set_matches_arithmetic():
    for k in (1, 2, 3):
        for n in range(1, 8):
            for g in enumerate_nonisomorphic(n):
                outcome = check_statement("egp", g, k=k)
                if outcome.status == "precondition_unmet":
                    continue
                assert (outcome.status == "equality_case") == (2 * g.m == k * g.n)


# --- suites --------------------------------------------------------------------


def test_suite_zero_violated_small():
    report = run_suite(["egp", "egc"], n_max=6, k_range=[1, 2, 3])
    assert report.violated == 0
    assert report.counts_consistent()
    report = run_suite(["lemma1"], n_max=7, k_range=[2])
    assert report.violated == 0


def test_suite_ore_dense_instances():
    report = run_suite(["ore"], n_max=5, k_range=[1])
    assert report.violated == 0
    # every 5-vertex instance above the threshold was actually checked
    assert report.by_statement["ore"]["holds"] > 0


def test_suite_jobs_merge_is_deterministic():
    # every statement; n = 7 samples ni's vertex sets with a per-graph seed,
    # which must not depend on how the graphs are split into chunks
    serial = run_suite(SUITE_STATEMENTS, n_max=7, k_range=[1, 2, 3])
    parallel = run_suite(SUITE_STATEMENTS, n_max=7, k_range=[1, 2, 3], jobs=2)
    assert serial == parallel


def test_suite_builds_one_table_batch_per_chunk_and_order(monkeypatch):
    # the path tables of a chunk are built in one batch per order, never
    # one graph at a time
    batches = []
    build = subgraphs._held_karp

    def counted(rows_list, n):
        batches.append((n, len(rows_list)))
        return build(rows_list, n)

    def per_graph(rows):
        raise AssertionError("run_suite built a path table for one graph")

    monkeypatch.setattr(subgraphs, "_held_karp", counted)
    monkeypatch.setattr(subgraphs, "_path_table", per_graph)
    report = run_suite(["egp", "egc", "ni"], n_max=7, k_range=[2])
    assert report.violated == 0
    orders = [g.n for n in range(1, 8) for g in enumerate_nonisomorphic(n)]
    size = verify._CHUNK_SIZE
    chunks = [orders[i : i + size] for i in range(0, len(orders), size)]
    assert batches == [(n, chunk.count(n)) for chunk in chunks for n in sorted(set(chunk))]
    assert len(batches) == 11 and sum(count for _, count in batches) == len(orders) == 1252


def test_egc_is_unmet_on_the_empty_graph():
    # the bound k(n-1)/2 assumes a vertex: at n = 0 it would read 0 > -k/2
    empty = build_graph(0)
    outcome = check_statement("egc", empty, k=2)
    assert (outcome.status, outcome.note) == ("precondition_unmet", "order 0")
    report = run_suite(["egc"], corpus=[empty], k_range=[2, 3])
    assert report.by_statement["egc"]["precondition_unmet"] == 2
    assert report.violated == 0


def test_suite_corpus_input():
    graphs = [complete(4), cycle(5), star(6)]
    report = run_suite(["egp"], corpus=graphs, k_range=[1, 2])
    assert report.instances == 6
    assert report.violated == 0


def test_suite_argument_validation():
    with pytest.raises(ValueError, match="unknown suite statement 'cor1'; choose from "):
        run_suite(["cor1"], n_max=4)
    with pytest.raises(ValueError, match="n_max"):
        run_suite(["egp"])
    with pytest.raises(ValueError, match="native enumeration"):
        run_suite(["egp"], n_max=12)


def test_suite_statement_without_admissible_k_is_rejected():
    # a statement whose least k lies above every given k would run no instances
    with pytest.raises(ValueError, match=r"statement 'ni' needs some k >= 1, got k in \[0\]"):
        run_suite(["ni"], n_max=3, k_range=[0])
    with pytest.raises(ValueError, match=r"statement 'egc' needs some k >= 2, got k in \[1\]"):
        run_suite(["egp", "egc"], n_max=5, k_range=[1])
    with pytest.raises(ValueError, match="'cor2' needs some k >= 2"):
        run_suite(["ore", "cor2"], corpus=[complete(3)], k_range=[])
    # one admissible k is enough; ore takes no k at all
    assert run_suite(["egc"], n_max=4, k_range=[1, 2]).instances > 0
    assert run_suite(["ore"], n_max=4, k_range=[]).instances > 0


def test_suite_counts_a_repeated_statement_once():
    # like a repeated k, a repeated statement adds no instances
    once = run_suite(["egp"], n_max=4, k_range=[1])
    assert once.instances == 18
    assert run_suite(["egp", "egp"], n_max=4, k_range=[1]) == once
    assert run_suite(["egp"], n_max=4, k_range=[1, 1]) == once
    mixed = run_suite(["lemma1", "egp", "lemma1", "egp"], n_max=4, k_range=[1, 2])
    assert mixed.statements == ("lemma1", "egp")
    assert list(mixed.by_statement) == ["lemma1", "egp"]
    assert mixed == run_suite(["lemma1", "egp"], n_max=4, k_range=[1, 2])


# records of the full suite at n <= 7, written from the commit before the
# path table, with the DFS alone; n = 7 is where ni samples its vertex sets
SUITE_N7 = Path(__file__).parent / "fixtures" / "suite_n7.json"


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_n7_records_are_golden(seed):
    record = run_suite(SUITE_STATEMENTS, n_max=7, k_range=(1, 2, 3), seed=seed).as_record()
    assert json.loads(json.dumps(record)) == json.loads(SUITE_N7.read_text())[str(seed)]


def test_checkers_are_deterministic():
    g = disjoint_union([complete(4), kite_pendant(2)])
    first = check_statement("lemma2", g, k=2, v=8)
    second = check_statement("lemma2", g, k=2, v=8)
    assert first == second
    r1 = run_suite(["ni"], n_max=5, k_range=[1], seed=3)
    r2 = run_suite(["ni"], n_max=5, k_range=[1], seed=3)
    assert r1 == r2


# --- lemma3 randomized invariant ----------------------------------------------


def random_sparse_graph(m, max_edges, rng):
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    count = rng.randrange(0, min(max_edges, len(pairs)) + 1)
    return build_graph(m, rng.sample(pairs, count))


@pytest.mark.parametrize("k,p", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_lemma3_random_instances(k, p):
    rng = random.Random(1000 * k + p)
    for _ in range(100):
        m = max(1, 6 * k + 13 - 2 * k * p) + rng.randrange(0, 4)
        # e(h) <= k(m-1) keeps the hypothesis satisfied via the 2m/(n-1)+n-2
        # upper bound on q
        h = random_sparse_graph(m, k * (m - 1), rng)
        w = rng.randrange(m)
        f_size = 2 * k * p
        attachment = [a for a in range(f_size) if rng.random() < 0.3]
        outcome = check_statement(
            "lemma3", k=k, p=p, h=h, w=w, attachment=attachment
        )
        assert outcome.status == "holds", outcome


def test_lemma3_small_order_is_unmet():
    outcome = check_statement("lemma3", k=2, p=1, h=complete(3), w=0)
    assert outcome.status == "precondition_unmet"


def test_lemma3_rejects_malformed():
    with pytest.raises(ValueError, match="blocks"):
        check_statement(
            "lemma3", k=2, p=2, h=complete(21), w=0, f_blocks=[complete(4)]
        )
    with pytest.raises(ValueError, match="out of range"):
        check_statement("lemma3", k=2, p=1, h=complete(21), w=25)


def test_outcome_record_shape():
    outcome = check_statement("egp", complete(3), k=2)
    record = outcome.as_record()
    assert record["kind"] == "check"
    assert set(record) == {
        "kind", "statement", "status", "lhs", "rhs", "witness", "note",
    }


# --- the statement table --------------------------------------------------------


def _valid_params(statement):
    """A graph and the non-k parameters that make ``statement`` well posed."""
    extra = {
        "ni": {"a": [0, 1]},
        "lemma2": {"v": 0},
        "cor2": {"w": 0},
        "lemma3": {"h": complete(3), "p": 1},
        "cor1": {"p": 1},
    }.get(statement, {})
    return complete(6), extra


def test_statement_table_orders_and_suite_subset():
    assert tuple(_STATEMENTS) == STATEMENTS
    assert SUITE_STATEMENTS == (
        "egp", "egc", "kopylov_i", "kopylov_ii", "ore", "ni", "lemma1", "lemma2",
        "cor2", "theorem1", "theorem1_corollary",
    )
    assert STATEMENTS == SUITE_STATEMENTS + ("lemma3", "cor1")
    with_instances = tuple(s for s, spec in _STATEMENTS.items() if spec.suite)
    assert with_instances == SUITE_STATEMENTS


@pytest.mark.parametrize("statement", STATEMENTS)
def test_minimum_k_is_rejected_one_below(statement):
    g, extra = _valid_params(statement)
    least = _STATEMENTS[statement].min_k
    if least is None:
        # ore takes no k, so any k passes through unread
        assert check_statement(statement, g, k=-7, **extra).statement == statement
        return
    message = f"parameter k must be >= {least}, got {least - 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_statement(statement, g, k=least - 1, **extra)
    assert check_statement(statement, g, k=least, **extra).statement == statement


# --- the per-instance suite loop the sweeps replace ------------------------------
# One params dict and one check_statement call per instance, as run_suite ran
# before each statement got a per-graph sweep; the sweeps must tally the same
# statuses and report the same violations in the same order.


def _no_params(*_):
    return [{}]


def _k_only(g, ks, *_):
    return [{"k": k} for k in ks]


def _each_vertex(name):
    def instances(g, ks, *_):
        return [{"k": k, name: v} for k in ks for v in range(g.n)]

    return instances


def _ni_partitions(g, ks, graph_index, seed, ni_sample):
    n = g.n
    if n <= 6:
        masks: Iterable[int] = range(1 << n)
    else:
        rng = random.Random(seed * 1_000_003 + graph_index)
        masks = sorted(rng.sample(range(1 << n), min(ni_sample, 1 << n)))
    sets = [[v for v in range(n) if mask >> v & 1] for mask in masks]
    return [{"k": k, "a": a} for k in ks for a in sets]


REFERENCE_INSTANCES = {
    "egp": _k_only,
    "egc": _k_only,
    "kopylov_i": _k_only,
    "kopylov_ii": _k_only,
    "ore": _no_params,
    "ni": _ni_partitions,
    "lemma1": _k_only,
    "lemma2": _each_vertex("v"),
    "cor2": _each_vertex("w"),
    "theorem1": _k_only,
    "theorem1_corollary": _k_only,
}


def _instances_for(g, graph_index, statement, k_range, seed, ni_sample):
    least = _STATEMENTS[statement].min_k
    ks = k_range if least is None else [k for k in k_range if k >= least]
    return REFERENCE_INSTANCES[statement](g, ks, graph_index, seed, ni_sample)


def reference_suite(statements, graphs, k_range, seed=0, ni_sample=50):
    """(by_statement, violating) of the per-instance loop."""
    ks = sorted(set(k_range))
    by_statement = {s: dict.fromkeys(verify._STATUSES, 0) for s in statements}
    violating = []
    for index, g in enumerate(graphs):
        for statement in statements:
            for params in _instances_for(g, index, statement, ks, seed, ni_sample):
                outcome = check_statement(statement, g, **params)
                by_statement[statement][outcome.status] += 1
                if outcome.status == "violated":
                    violating.append({
                        "statement": statement, "graph6": verify._graph_token(g),
                        "params": params, "lhs": outcome.lhs, "rhs": outcome.rhs,
                    })
    return by_statement, violating


def assert_sweeps_match_reference(graphs, k_range, seed=0):
    report = run_suite(SUITE_STATEMENTS, corpus=graphs, k_range=k_range, seed=seed)
    by_statement, violating = reference_suite(SUITE_STATEMENTS, graphs, k_range, seed)
    assert report.by_statement == by_statement
    # the same params, in the same order, with lhs and rhs of the same type
    assert len(report.violating) == len(violating)
    for got, expect in zip(report.violating, violating):
        assert json.dumps(got) == json.dumps(expect)
    return report


def test_sweeps_match_per_instance_checks_small():
    graphs = [g for n in range(1, 7) for g in enumerate_nonisomorphic(n)]
    assert_sweeps_match_reference(graphs, (1, 2, 3, 4))


def test_sweeps_match_per_instance_checks_across_the_table_cutoff():
    # n = 9 and 10 answer presence by search rather than from the path table;
    # K_22 meets theorem1's hypothesis and the star cor2's order hypothesis
    rng = random.Random(17)
    graphs = [random_graph(n, p, rng) for n in range(7, 11) for p in (0.2, 0.45, 0.7)]
    report = assert_sweeps_match_reference(graphs + [complete(22), star(26)], (1, 2, 3), seed=5)
    assert report.by_statement["theorem1"]["holds"] == 1
    assert report.by_statement["cor2"]["holds"] == 26


def test_sweeps_match_per_instance_checks_when_nothing_is_found():
    # with every search finding nothing, hypotheses hold and bounds break,
    # so violations (their params, order, lhs and rhs) are compared
    witnesses = ("find_constrained_path", "find_cycle_of_length")
    graphs = [g for n in range(1, 7) for g in enumerate_nonisomorphic(n)] + [complete(22)]
    with ExitStack() as stack:
        for name in witnesses:
            stack.enter_context(mock.patch.object(verify, name, lambda *a, **kw: None))
        # with no path tables, the suite asks the stubbed searches on every graph
        stack.enter_context(mock.patch.object(verify, "_path_tables", lambda rows: [None] * len(rows)))
        report = assert_sweeps_match_reference(graphs, (1, 2, 3))
    assert {v["statement"] for v in report.violating} == {
        "egp", "egc", "kopylov_i", "kopylov_ii", "ore", "ni", "lemma1", "lemma2",
        "theorem1", "theorem1_corollary",
    }


def test_suite_builds_witnesses_only_above_the_table(monkeypatch):
    # graphs up to 8 vertices answer from their path table; larger ones ask
    # the same witness searches as check_statement, which count each call
    orders = []
    for name in ("find_constrained_path", "find_cycle_of_length"):
        def counted(g, *args, search=getattr(verify, name)):
            orders.append(g.n)
            return search(g, *args)

        monkeypatch.setattr(verify, name, counted)
    graphs = [cycle(5), path(8), complete(8), path(10), cycle(11), complete(22)]
    report = run_suite(SUITE_STATEMENTS, corpus=graphs, k_range=(1, 2, 3))
    assert report.violated == 0
    assert set(orders) == {10, 11, 22}


@pytest.mark.parametrize("statement", SUITE_STATEMENTS)
def test_suite_instances_respect_the_table(statement, monkeypatch):
    # run_suite drops each k below the statement's least k and runs the rest;
    # ore takes no k and runs once per graph whatever k_range holds
    graphs = [complete(1), cycle(5), path(7), complete(8)]
    monkeypatch.setattr(verify, "_NI_SAMPLE", 6)
    report = run_suite([statement], corpus=graphs, k_range=(-1, 0, 1, 2, 3), seed=4)
    least = _STATEMENTS[statement].min_k
    admissible = (0,) if least is None else range(least, 4)
    by_statement, violating = reference_suite([statement], graphs, admissible, 4, 6)
    assert report.by_statement == by_statement
    assert report.violating == violating
    if least is None:
        assert report.instances == len(graphs)
