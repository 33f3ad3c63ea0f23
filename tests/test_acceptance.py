"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line (the print only runs after all of the
criterion's assertions hold).
"""

import random
import time

from qext.bounds import (
    closed_form_snk,
    das_bound,
    edge_degree_bound,
    merris_bound,
    prop1_sandwich,
)
from qext.enumeration import enumerate_nonisomorphic, parse_graph6, write_graph6
from qext.families import s_nk, s_nk_plus
from qext.graph import is_connected
from qext.search import is_feasible, maximize_q_forbidden_cycles
from qext.spectral import certified_compare, q_index
from qext.subgraphs import find_cycle_of_length
from qext.verify import check_statement, run_suite, theorem1_construction_probe

from conftest import is_complete, is_regular, is_semiregular_bipartite, is_star, random_graph


def _done(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_criterion_1_prop1_sandwich_desk_scale():
    started = time.perf_counter()
    anchors = {(25, 2): (26.846154, 26.851030, 26.870968)}
    for n, k in [(25, 2), (50, 3)]:
        lower, upper = prop1_sandwich(n, k)
        rs = q_index(s_nk(n, k))
        rsp = q_index(s_nk_plus(n, k))
        assert rs.residual <= 1e-9 and rsp.residual <= 1e-9
        assert rs.q - lower > 10 * rs.residual
        assert rsp.q - rs.q > 10 * (rs.residual + rsp.residual)
        assert upper - rsp.q > 10 * rsp.residual
        if (n, k) in anchors:
            low_a, q_a, up_a = anchors[(n, k)]
            assert abs(lower - low_a) < 1e-6
            assert abs(rs.q - q_a) < 1e-6
            assert abs(upper - up_a) < 1e-6
            assert low_a < rs.q < rsp.q < up_a
    _done("criterion 1 (sandwich at (25,2) and (50,3))", started, 1.0)


def test_criterion_2_closed_form_vs_eigensolver():
    started = time.perf_counter()
    for k in (2, 3, 4):
        for n in range(k + 1, 41):
            assert abs(q_index(s_nk(n, k)).q - closed_form_snk(n, k)) <= 1e-8
    _done("criterion 2 (closed form vs eigensolver, k<=4, n<=40)", started, 10.0)


def test_criterion_3_corollary1_instance():
    started = time.perf_counter()
    from qext.families import corollary1_graph

    g = corollary1_graph(2, 5)
    assert g.n == 26
    result = q_index(g)
    assert certified_compare(result, 28.0).verdict == "lt"
    outcome = check_statement("cor1", k=2, p=5)
    assert outcome.status == "holds"
    _done("criterion 3 (apex-over-cliques instance below 28)", started, 1.0)


def test_criterion_4_exhaustive_suite_n7():
    started = time.perf_counter()
    report = run_suite(
        ["egp", "egc", "kopylov_i", "kopylov_ii", "ore", "lemma1", "lemma2", "ni"],
        n_max=7,
        k_range=[1, 2, 3],
        jobs=1,
    )
    assert report.violated == 0, report.violating[:5]
    assert report.indeterminate == 0
    assert report.counts_consistent()
    # equality cases occur and their structure checks were enforced (any
    # structural mismatch would have been counted as violated)
    assert report.by_statement["egp"]["equality_case"] > 0
    assert report.by_statement["egc"]["equality_case"] > 0
    _done(
        f"criterion 4 (exhaustive suite n<=7, {report.instances} instances)",
        started,
        300.0,
    )


def test_criterion_5_bound_dominance_and_equality_sets():
    started = time.perf_counter()
    for n in range(2, 8):
        for g in enumerate_nonisomorphic(n):
            if g.m == 0:
                continue
            q = q_index(g).q
            merris = merris_bound(g).value
            das = das_bound(g).value
            edge = edge_degree_bound(g).value
            assert q <= merris + 1e-9
            assert q <= das + 1e-9
            assert q <= edge + 1e-9
            if is_connected(g):
                merris_eq = abs(q - merris) <= 1e-9
                assert merris_eq == (is_regular(g) or is_semiregular_bipartite(g))
                das_eq = abs(q - das) <= 1e-9
                assert das_eq == (is_complete(g) or is_star(g))
    _done("criterion 5 (bound dominance + equality sets, n<=7)", started, 120.0)


def test_criterion_6_split_family_cycle_spectrum():
    started = time.perf_counter()
    for k in (2, 3):
        for n in range(2 * k + 2, 13):
            g = s_nk(n, k)
            for l in range(3, n + 1):
                found = find_cycle_of_length(g, l) is not None
                assert found == (l <= 2 * k), (n, k, l)
    _done("criterion 6 (cycle spectrum of the split family)", started, 60.0)


def test_criterion_7_edge_addition_monotonicity():
    started = time.perf_counter()
    rng = random.Random(2024)
    done = 0
    while done < 1000:
        n = rng.randrange(2, 31)
        g = random_graph(n, rng.random(), rng)
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        u, v = non_edges[rng.randrange(len(non_edges))]
        assert q_index(g.with_edge(u, v)).q >= q_index(g).q - 1e-9
        done += 1
    _done("criterion 7 (edge-addition monotonicity, 1000 pairs)", started, 30.0)


def test_criterion_8_search_oracle_agreement():
    started = time.perf_counter()
    for forbidden in ({3}, {5}):
        oracle = max(
            q_index(g).q
            for g in enumerate_nonisomorphic(6)
            if is_feasible(g, forbidden)
        )
        result = maximize_q_forbidden_cycles(
            6, forbidden, budget=150, restarts=12, seed=0
        )
        assert result.feasible
        best_q = (result.q_interval[0] + result.q_interval[1]) / 2
        assert abs(best_q - oracle) <= 1e-8
    seeded = maximize_q_forbidden_cycles(
        10, {5}, budget=300, restarts=4, seed=0, seed_graph=s_nk(10, 2)
    )
    assert seeded.feasible
    assert is_feasible(seeded.best, {5})
    assert seeded.q_interval[1] >= closed_form_snk(10, 2) - 1e-8
    assert seeded.q_interval[1] >= 11.65685425 - 5e-9
    _done("criterion 8 (search vs exhaustive oracle; seeded n=10)", started, 120.0)


def test_criterion_9_enumeration_and_serialization():
    started = time.perf_counter()
    for n, want in [(4, 11), (5, 34), (6, 156), (7, 1044)]:
        graphs = list(enumerate_nonisomorphic(n))
        assert len(graphs) == want
        for g in graphs:
            token = write_graph6(g)
            assert parse_graph6(token) == g
            assert write_graph6(parse_graph6(token)) == token
    _done("criterion 9 (enumeration counts + graph6 round trip)", started, 120.0)


def test_theorem1_probes_and_bookkeeping():
    # desk-scale coverage of the main threshold statement
    started = time.perf_counter()
    assert theorem1_construction_probe(25, 2).status == "holds"
    assert theorem1_construction_probe(26, 2).status == "holds"
    assert theorem1_construction_probe(10, 2).status == "precondition_unmet"
    _done("theorem1 probes at (25,2), (26,2); bookkeeping at (10,2)", started, 30.0)
