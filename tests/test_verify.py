import dataclasses
import json
import random
import re
from collections import Counter
from contextlib import ExitStack
from fractions import Fraction
from pathlib import Path
from typing import Iterable
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qext import graph, spectral, verify
from qext.bounds import closed_form_snk, prop1_sandwich
from qext.enumeration import _min_codes, canonical_code, enumerate_nonisomorphic, write_graph6
from qext.families import (
    complete,
    cycle,
    edgeless,
    kite_pendant,
    lemma2_exception,
    path,
    s_nk,
    s_nk_plus,
    star,
    windmill,
)
from qext.graph import build_graph, components, disjoint_union, is_connected, join
from qext.spectral import certified_compare, q_index
from qext.subgraphs import SearchBudgetExceeded, find_constrained_path, find_cycle_of_length
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

from conftest import graphs, random_graph, without_edge


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
    # against canonical codes on every graph with n <= 7; the components
    # are labelled in one batch per order
    catalogue = [g for n in range(1, 8) for g in enumerate_nonisomorphic(n)]
    parts = {g.induced(c) for g in catalogue for c in components(g)}
    codes = {}
    for n in range(1, 8):
        batch = [h for h in parts if h.n == n]
        rows = np.array([h.rows for h in batch], dtype=np.int64).reshape(-1, n)
        codes.update(zip(batch, _min_codes(rows).tolist()))

    def isomorphic(g, comp, ref):
        return codes[g.induced(comp)] == canonical_code(ref)

    for g in catalogue:
        n = g.n
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ni_lhs_counts_the_edges_at_a(data):
    # 2e(A) + e(A,B) counted edge by edge, independently of the rule's degree sum
    g = data.draw(graphs(12))
    a = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    k = data.draw(st.integers(1, 3))
    outcome = check_statement("ni", g, k=k, a=sorted(a))
    assert outcome.lhs == sum((u in a) + (v in a) for u, v in g.edges())
    assert outcome.rhs == (2 * k - 1) * len(a) + k * (g.n - len(a))
    assert (outcome.status == "precondition_unmet") == (outcome.lhs <= outcome.rhs)


def test_ni_partition_validation():
    with pytest.raises(ValueError, match="partition"):
        check_statement("ni", complete(3), k=1, a=[0], b=[1])


def test_ore_checker():
    dense = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    dense = without_edge(without_edge(dense, 0, 1), 2, 3)
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


def test_exact_threshold_agrees_with_dense_q_through_order_8():
    # every graph with 3 <= n <= 8 against n+2k-2 for k = 2, 3: the exact
    # verdict agrees with dense q off the ties, and the ties are exact
    verdicts = Counter()
    for n in range(3, 9):
        for g in enumerate_nonisomorphic(n):
            q = float(np.linalg.eigvalsh(spectral.signless_laplacian(g))[-1])
            for k in (2, 3):
                t = n + 2 * k - 2
                verdict = verify._threshold(g, t)[1]
                verdicts[verdict] += 1
                if abs(q - t) > 1e-6:
                    assert verdict == ("lt" if q < t else "gt"), (k, list(g.edges()))
                elif verdict == "eq":
                    assert abs(q - t) <= 1e-9
    assert sum(verdicts.values()) == 27_190
    assert verdicts["eq"] == 28 and verdicts["indeterminate"] == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(9, 64), st.floats(0.05, 0.95), st.integers(0, 2**32), st.integers(-2, 2))
def test_exact_threshold_decides_every_graph_up_to_64_vertices(n, p, seed, d):
    g = random_graph(n, p, random.Random(seed))
    q = float(np.linalg.eigvalsh(spectral.signless_laplacian(g))[-1])
    t = Fraction(round(q * 1000) + d, 1000)
    reported, verdict = verify._threshold(g, t)
    assert abs(reported - q) <= 1e-9 * max(1.0, q)
    if abs(q - t) > 1e-6:
        assert verdict == ("lt" if q < t else "gt")
    assert verdict != "indeterminate"


@pytest.mark.parametrize("n,k,j", [(40, 2, 13), (46, 3, 23)])
def test_theorem1_holds_where_q_ties_the_threshold(n, k, j):
    # pd(n, k, j) = K_k joined to a star on j+1 vertices plus independent
    # vertices has q = n+2k-2 exactly; its float q lies just above
    g = join(complete(k), disjoint_union([star(j + 1), edgeless(n - k - j - 1)]))
    assert verify._threshold(g, n + 2 * k - 2)[1] == "eq"
    for statement in ("theorem1", "theorem1_corollary"):
        assert check_statement(statement, g, k=k).status == "holds"


def test_threshold_refines_the_graph_once_above_64_vertices():
    # q_index's quotient and certified_compare's exact sign share one
    # colour refinement of the graph
    spectral._equitable_cells.cache_clear()
    assert verify._threshold(complete(100), 200)[1] == "lt"
    info = spectral._equitable_cells.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
    assert (unmet.status, unmet.lhs, unmet.rhs, unmet.note) == ("precondition_unmet", 20, 21, "order 20 < 21")
    assert check_statement("theorem1", complete(20), k=2).status == "precondition_unmet"
    assert prop1_sandwich_check(20, 2)[0].status == "precondition_unmet"
    assert theorem1_construction_probe(46, 3).status == "holds"
    assert theorem1_construction_probe(45, 3).status == "precondition_unmet"


def test_prop1_sandwich_check():
    outcomes = prop1_sandwich_check(25, 2)
    assert [o.status for o in outcomes] == ["holds"] * 3
    unmet = prop1_sandwich_check(10, 2)
    assert len(unmet) == 1 and unmet[0].status == "precondition_unmet"
    with pytest.raises(ValueError, match="requires k >= 2"):
        prop1_sandwich_check(25, 1)


# --- Proposition 1 and the probe, against the built graphs -------------------


def _built_chain(n, k):
    """The oracle for prop1_sandwich_check from the built graphs: q_index of
    s_nk and s_nk_plus, each threshold link decided by certified_compare
    (exact on their integer quotients, at the envelope's exact value) and
    the middle link by the two residual intervals; statuses with (lhs, rhs)
    per link."""
    lower, upper = prop1_sandwich(n, k)
    rs, rsp = q_index(s_nk(n, k)), q_index(s_nk_plus(n, k))
    at_lower = certified_compare(rs, lower).verdict
    at_upper = certified_compare(rsp, upper).verdict
    if rs.q + rs.residual < rsp.q - rsp.residual:
        between = "holds"
    else:
        between = "violated" if rs.q - rs.residual > rsp.q + rsp.residual else "indeterminate"
    above = {"lt": "violated", "eq": "violated", "gt": "holds"}
    below = {"lt": "holds", "eq": "violated", "gt": "violated"}
    return [
        (above.get(at_lower, "indeterminate"), float(lower), rs.q),
        (between, rs.q, rsp.q),
        (below.get(at_upper, "indeterminate"), rsp.q, float(upper)),
    ]


def _built_probe(n, k):
    """The oracle for theorem1_construction_probe from the built graphs:
    each against n+2k-2 by certified_compare; status, the worst q and the
    note."""
    threshold = n + 2 * k - 2
    worst = 0.0
    for label, g in (("s_nk", s_nk(n, k)), ("s_nk_plus", s_nk_plus(n, k))):
        result = q_index(g)
        worst = max(worst, result.q)
        verdict = certified_compare(result, threshold).verdict
        if verdict in ("eq", "gt"):
            return "violated", result.q, f"{label} reaches the threshold"
        if verdict == "indeterminate":
            return "indeterminate", result.q, f"{label} not certifiable"
    return "holds", worst, "candidates below threshold; complete graph pancyclic to 2k+2"


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_split_checks_match_the_built_graphs(data):
    k = data.draw(st.integers(2, 7))
    n = data.draw(st.integers(5 * k * k + 1, 512))
    exact = prop1_sandwich_check(n, k)
    oracle = _built_chain(n, k)
    assert [o.status for o in exact] == [status for status, _, _ in oracle]
    for outcome, (_, lhs, rhs) in zip(exact, oracle):
        assert _close(outcome.lhs, lhs) and _close(outcome.rhs, rhs), (outcome, lhs, rhs)
    probe = theorem1_construction_probe(n, k)
    status, lhs, note = _built_probe(n, k)
    assert (probe.status, probe.note) == (status, note)
    assert _close(probe.lhs, lhs) and probe.rhs == n + 2 * k - 2


@pytest.mark.parametrize("k", range(2, 21))
def test_exact_split_checks_hold_at_the_order_limit_and_at_a_million(k):
    for n in (5 * k * k + 1, 10**6):
        assert [o.status for o in prop1_sandwich_check(n, k)] == ["holds"] * 3
        probe = theorem1_construction_probe(n, k)
        assert probe.status == "holds" and probe.rhs == n + 2 * k - 2


@pytest.mark.parametrize("k", range(2, 11))
def test_sylvester_rejects_false_thresholds_for_s_nk_plus(k):
    # q(s_nk_plus) is above the lower envelope, which sits below q(s_nk),
    # and above a - 1; it is below the upper envelope and below a
    for n in (5 * k * k + 1, 5 * k * k + 37, 10**6):
        r = n - k - 2
        b, sizes = [[n + k - 2, 2, r], [k, k + 2, 0], [k, 0, k]], [k, 2, r]
        a = n + 2 * k - 2
        lower, upper = prop1_sandwich(n, k)
        assert lower == a - Fraction(2 * k * (k - 1), n + 2 * k - 3)
        assert spectral._quotient_sign(b, sizes, lower) == 1
        assert spectral._quotient_sign(b, sizes, a - 1) == 1
        assert spectral._quotient_sign(b, sizes, upper) == -1
        assert spectral._quotient_sign(b, sizes, a) == -1


def test_snk_quotient_sign_is_exact_at_ties():
    # K_3 = s_nk(3, 2) meets the lower envelope: q = 4 = 5 - 4/4
    def sign(n, k, t):
        return spectral._quotient_sign(*verify._split_quotients(n, k)[0], t)

    assert prop1_sandwich(3, 2)[0] == 4 and sign(3, 2, Fraction(4)) == 0
    for n in range(2, 40):  # s_nk(n, 1) is the star, with q = n
        assert [sign(n, 1, t) for t in (n - 1, n, n + 1)] == [1, 0, -1]
        assert sign(n, 1, Fraction(n * 10**12 - 1, 10**12)) == 1
    for k in (2, 3, 4):
        for n in range(k + 1, 60):
            q = closed_form_snk(n, k)
            for t in (Fraction(round(q * 1000) + d, 1000) for d in (-2, 2)):
                assert sign(n, k, t) == (1 if q > t else -1)


def test_exact_split_checks_build_no_graph_and_call_no_q_index(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built or q_index ran")

    monkeypatch.setattr(graph.Graph, "__init__", refuse)
    monkeypatch.setattr(verify, "q_index", refuse)
    monkeypatch.setattr(spectral, "q_index", refuse)
    for n, k in [(21, 2), (25, 2), (509, 2), (600, 2), (10**6, 20)]:
        assert [o.status for o in prop1_sandwich_check(n, k)] == ["holds"] * 3
        assert theorem1_construction_probe(n, k).status == "holds"


def test_exact_split_checks_report_a_failed_link(monkeypatch):
    # no true statement reaches these branches, so the exact test is patched
    # on one quotient: s_nk's has 2 cells, s_nk_plus's 3
    chain, probe = prop1_sandwich_check(25, 2), theorem1_construction_probe(25, 2)
    q, q_plus = chain[1].lhs, chain[1].rhs
    exact = verify._quotient_sign

    def patched(cells, sign):
        return lambda b, sizes, t: sign if len(b) == cells else exact(b, sizes, t)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_quotient_sign", patched(2, 0))  # q(s_nk) ties t
        assert [o.status for o in prop1_sandwich_check(25, 2)] == ["violated", "holds", "holds"]
        tied = theorem1_construction_probe(25, 2)
        assert (tied.status, tied.lhs, tied.note) == ("violated", q, "s_nk reaches the threshold")
    monkeypatch.setattr(verify, "_quotient_sign", patched(3, 1))  # q(s_nk_plus) is above t
    assert [o.status for o in prop1_sandwich_check(25, 2)] == ["holds", "holds", "violated"]
    above = theorem1_construction_probe(25, 2)
    assert (above.status, above.lhs, above.note) == ("violated", q_plus, "s_nk_plus reaches the threshold")
    assert probe.lhs == q_plus and probe.status == "holds"


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
    # every statement; n = 7 samples ni's vertex sets, translated per graph,
    # which must not depend on how the graphs are split into chunks
    serial = run_suite(SUITE_STATEMENTS, n_max=7, k_range=[1, 2, 3])
    parallel = run_suite(SUITE_STATEMENTS, n_max=7, k_range=[1, 2, 3], jobs=2)
    assert serial == parallel


def test_mixed_order_reports_do_not_depend_on_jobs_or_chunk_size(monkeypatch):
    # run_suite draws each graph's ni translate in corpus order before it
    # cuts the chunks, so orders interleaved across chunk borders give the
    # same records whatever the chunk size and the worker count
    rng = random.Random(23)
    corpus = [random_graph(n, 0.5, rng) for n in (8, 3, 7, 10, 7, 6, 8, 9, 0, 7, 8)]
    records = []
    for size, jobs in ((256, 1), (1, 1), (1, 2), (3, 2)):
        monkeypatch.setattr(verify, "_CHUNK_SIZE", size)
        report = run_suite(SUITE_STATEMENTS, corpus=corpus, k_range=(1, 2), seed=11, jobs=jobs)
        records.append(report.as_record())
    assert records[1:] == records[:1] * 3


@settings(max_examples=60, deadline=None)
@given(st.lists(graphs(max_n=11), min_size=1, max_size=5), st.integers(-2**40, 2**40), st.integers(1, 300))
def test_ni_sets_are_a_full_or_sampled_set_of_distinct_masks(corpus, seed, ni_sample):
    # with no path table every set reaches the rule, one graph after
    # another: min(S, 2^n) distinct masks of n bits, ascending, and every
    # mask through 6 vertices or once S >= 2^n; each graph gets one rule
    # Graph, so a run of calls on one Graph is one corpus position
    calls = []

    def counted(statement, g, k, a, find):
        calls.append((g, a))
        return verify.CheckOutcome(statement, "precondition_unmet", 0.0, 0.0)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.dict(_STATEMENTS, {"ni": _STATEMENTS["ni"]._replace(rule=counted)}))
        stack.enter_context(mock.patch.object(verify, "_NI_SAMPLE", ni_sample))
        stack.enter_context(mock.patch.object(verify, "_TABLE_MAX", -1))
        run_suite(["ni"], corpus=corpus, k_range=[1], seed=seed)
    runs = []
    for h, a in calls:
        if not runs or runs[-1][0] is not h:
            runs.append((h, []))
        runs[-1][1].append(a)
    assert [h.rows for h, _ in runs] == [g.rows for g in corpus]
    for g, (_, sets) in zip(corpus, runs):
        assert sets == sorted(set(sets)) and all(0 <= a < 1 << g.n for a in sets)
        assert len(sets) == (1 << g.n if g.n <= 6 else min(ni_sample, 1 << g.n))
        if g.n <= 6 or ni_sample >= 1 << g.n:
            assert sets == list(range(1 << g.n))


def test_ni_draw_tells_a_seed_from_its_negation():
    # random.Random(3) and random.Random(-3) draw alike; ni's seeds must not
    corpus = [complete(8), path(7), cycle(9)]
    orders = [g.n for g in corpus]
    (bases, flips), (negated, negated_flips) = verify._ni_draw(orders, 3), verify._ni_draw(orders, -3)
    assert all(bases[n] != negated[n] for n in (7, 8, 9)) and flips != negated_flips
    assert reference_ni_masks(corpus, 3) != reference_ni_masks(corpus, -3)


def test_ni_draws_its_sets_above_62_vertices(monkeypatch):
    # range(1 << n) is too long to sample from once n >= 63: the base is
    # then _NI_SAMPLE distinct n-bit masks from the same per-order generator
    sets = []

    def counted(statement, g, k, a, find, rule=_STATEMENTS["ni"].rule):
        sets.append(a)
        return rule(statement, g, k, a, find)

    monkeypatch.setitem(_STATEMENTS, "ni", _STATEMENTS["ni"]._replace(rule=counted))
    for n in (62, 63, 64):
        sets.clear()
        report = run_suite(["ni"], corpus=[edgeless(n)], k_range=[1])
        assert report.instances == report.precondition_unmet == verify._NI_SAMPLE == 50
        assert sets == sorted(set(sets)) and len(sets) == 50 and all(0 <= a < 1 << n for a in sets)


def test_suite_builds_one_table_batch_per_chunk_and_order(monkeypatch):
    # every chunk holds one order, and its path tables are built in one
    # batch, never one graph at a time
    batches = []
    build = verify._held_karp

    def counted(rows_list, n):
        batches.append((n, len(rows_list)))
        return build(rows_list, n)

    monkeypatch.setattr(verify, "_held_karp", counted)
    report = run_suite(["egp", "egc", "ni"], n_max=7, k_range=[2])
    assert report.violated == 0
    orders = [g.n for n in range(1, 8) for g in enumerate_nonisomorphic(n)]
    assert batches == [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)] + [(7, 256)] * 4 + [(7, 20)]
    assert len(batches) == 11 and sum(count for _, count in batches) == len(orders) == 1252


def test_suite_chunks_are_runs_of_one_order(monkeypatch):
    # a chunk ends where the order changes: interleaved orders give one
    # table batch per run, and each payload carries its order, its graphs'
    # rows, its order's ni base and the flips _ni_draw drew at those corpus
    # positions
    rng = random.Random(31)
    corpus = [random_graph(n, 0.5, rng) for n in (8, 3, 8, 8, 9, 7, 7)]
    batches, payloads = [], []
    build, run = verify._held_karp, verify._run_chunk
    monkeypatch.setattr(
        verify, "_held_karp", lambda rows_list, n: batches.append((n, len(rows_list))) or build(rows_list, n)
    )
    monkeypatch.setattr(verify, "_run_chunk", lambda payload: payloads.append(payload) or run(payload))
    run_suite(["egp", "ni", "lemma2"], corpus=corpus, k_range=(1, 2), seed=5)
    assert batches == [(8, 1), (3, 1), (8, 2), (7, 2)]
    bases, flips = verify._ni_draw([g.n for g in corpus], 5)
    at = 0
    for n, rows, _, _, base, chunk_flips in payloads:
        chunk = corpus[at : at + len(rows)]
        assert {g.n for g in chunk} == {n} and base == bases[n]
        assert rows == [g.rows for g in chunk] and chunk_flips == flips[at : at + len(rows)]
        at += len(rows)
    assert len(payloads) == 5 and at == len(corpus)


def test_statements_with_no_opening_get_the_witness_searches_on_table_graphs(monkeypatch):
    # theorem1 has no _Opening, so on a table graph its rule must search for
    # its cycles, never take _ABSENT's "not found"; its least order, 21 at
    # k = 2, is lowered here to reach a rule on a table graph at all
    monkeypatch.setattr(verify, "_least_order", lambda stmt, k: 0)
    report = run_suite(["theorem1"], corpus=[complete(8)], k_range=[2])
    assert check_statement("theorem1", complete(8), k=2).status == "holds"
    assert report.by_statement["theorem1"]["holds"] == report.instances == 1


def test_egc_is_unmet_on_the_empty_graph():
    # the bound k(n-1)/2 assumes a vertex: at n = 0 it would read 0 > -k/2
    empty = build_graph(0)
    outcome = check_statement("egc", empty, k=2)
    assert (outcome.status, outcome.note) == ("precondition_unmet", "order 0 < 1")
    report = run_suite(["egc"], corpus=[empty], k_range=[2, 3])
    assert report.by_statement["egc"]["precondition_unmet"] == 2
    assert report.violated == 0


def test_suite_corpus_input():
    graphs = [complete(4), cycle(5), star(6)]
    report = run_suite(["egp"], corpus=graphs, k_range=[1, 2])
    assert report.instances == 6
    assert report.violated == 0


def test_a_budget_overrun_is_one_indeterminate_instance(monkeypatch):
    # above the path table every open instance goes to its rule; the path
    # search of one of them overruns its budget, and the report still
    # counts every instance, that one as indeterminate
    corpus, statements, ks = [s_nk(12, 2), path(10), cycle(11)], ("egp", "kopylov_i", "lemma2"), (1, 2, 3)
    full = run_suite(statements, corpus=corpus, k_range=ks)
    calls, search_path = [], verify.find_constrained_path

    def overrun_once(*args, **kwargs):
        calls.append(args[0].n)
        if len(calls) == 5:
            raise SearchBudgetExceeded("path search exceeded node budget 5")
        return search_path(*args, **kwargs)

    monkeypatch.setattr(verify, "find_constrained_path", overrun_once)
    report = run_suite(statements, corpus=corpus, k_range=ks)
    assert len(calls) > 5 and full.indeterminate == 0
    assert (report.instances, report.indeterminate, report.violated) == (full.instances, 1, 0)
    moved = {(s, status): report.by_statement[s][status] - full.by_statement[s][status]
             for s in statements for status in verify._STATUSES
             if report.by_statement[s][status] != full.by_statement[s][status]}
    assert sorted(moved.values()) == [-1, 1] and len({s for s, _ in moved}) == 1
    assert 1 in [moved.get((s, "indeterminate")) for s in statements]


def test_suite_rejects_n_max_with_a_corpus():
    # a corpus replaces the enumeration, so an n_max beside it would be
    # ignored, yet recorded in the report's parameters
    with pytest.raises(ValueError, match="give n_max or corpus, not both"):
        run_suite(["egp"], n_max=3, corpus=[complete(4)])


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


# records of the full suite at n <= 7, written with the path tables stubbed
# out (the DFS alone), which gives the same records as the tables; n = 7 is
# where ni samples its vertex sets
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


def reference_ni_masks(graphs, seed, ni_sample=50):
    """ni's sets of each graph, written from the definition: every set
    through 6 vertices; above, one sample T_n of ni_sample masks per order,
    seeded by "ni {seed} {n}", each graph's sets the sorted XOR of T_n with
    an n-bit mask drawn per graph, in order, from one "ni {seed}" stream."""
    flips = random.Random(f"ni {seed}")
    masks = []
    for g in graphs:
        n, flip = g.n, flips.getrandbits(g.n)
        if n <= 6:
            base: Iterable[int] = range(1 << n)
        else:
            base = random.Random(f"ni {seed} {n}").sample(range(1 << n), min(ni_sample, 1 << n))
        masks.append(sorted(a ^ flip for a in base))
    return masks


def _ni_partitions(g, ks, masks):
    sets = [[v for v in range(g.n) if mask >> v & 1] for mask in masks]
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


def _instances_for(g, ni_masks, statement, k_range):
    least = _STATEMENTS[statement].min_k
    ks = k_range if least is None else [k for k in k_range if k >= least]
    return REFERENCE_INSTANCES[statement](g, ks, ni_masks)


def reference_suite(statements, graphs, k_range, seed=0, ni_sample=50):
    """(by_statement, violating) of the per-instance loop."""
    ks = sorted(set(k_range))
    by_statement = {s: dict.fromkeys(verify._STATUSES, 0) for s in statements}
    violating = []
    for g, ni_masks in zip(graphs, reference_ni_masks(graphs, seed, ni_sample)):
        for statement in statements:
            for params in _instances_for(g, ni_masks, statement, ks):
                outcome = check_statement(statement, g, **params)
                by_statement[statement][outcome.status] += 1
                if outcome.status == "violated":
                    violating.append({
                        "statement": statement, "graph6": write_graph6(g),
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
    # complete graphs sit on each side of theorem1's n > 5k^2 and stars on
    # each side of cor2's n >= 6k+13, for k = 2 and 3, where the suite counts
    # the instances below the least order without a rule call
    rng = random.Random(17)
    graphs = [random_graph(n, p, rng) for n in range(7, 11) for p in (0.2, 0.45, 0.7)]
    boundary = [complete(n) for n in (20, 21, 22, 45, 46)] + [star(n) for n in (24, 25, 26, 30, 31)]
    report = assert_sweeps_match_reference(graphs + boundary, (1, 2, 3), seed=5)
    # k = 2 on K_21, K_22, K_45 and K_46; k = 3 on K_46
    assert report.by_statement["theorem1"]["holds"] == 5
    # one per w: k = 2 on the stars on 25, 26, 30 and 31 vertices; k = 3 on 31
    assert report.by_statement["cor2"]["holds"] == 25 + 26 + 30 + 2 * 31


def test_sweeps_match_per_instance_checks_when_nothing_is_found():
    # with every search finding nothing, hypotheses hold and bounds break,
    # so violations (their params, order, lhs and rhs) are compared
    witnesses = ("find_constrained_path", "find_cycle_of_length")
    graphs = [g for n in range(1, 7) for g in enumerate_nonisomorphic(n)] + [complete(22)]
    with ExitStack() as stack:
        for name in witnesses:
            stack.enter_context(mock.patch.object(verify, name, lambda *a, **kw: None))
        # with no path tables, the suite asks the stubbed searches on every graph
        stack.enter_context(mock.patch.object(verify, "_TABLE_MAX", -1))
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
    # each instance above the table runs its rule once, repeating no search:
    # 353 path and 41 cycle searches, as when every instance ran its rule
    assert len(orders) == 353 + 41


def test_suite_calls_a_rule_only_where_the_verdict_is_open(monkeypatch):
    # below the least order (theorem1's n > 5k^2, cor2's n >= 6k+13,
    # kopylov's n >= 2k+2 or 2k+3 and ore's n >= 3), and where a statement's
    # _Opening fixes its verdict (ni's or ore's hypothesis, or one path-table
    # bit), the suite counts the instance without calling its rule; every
    # rule call it makes on these table graphs gets the search that finds
    # nothing, and gives the outcome, witness aside, of the witness searches
    calls = Counter()
    differ = []
    witnesses = verify._Search(find_constrained_path, find_cycle_of_length)
    for name, spec in _STATEMENTS.items():
        def counted(statement, g, k, x, find, rule=spec.rule):
            calls[statement] += 1
            outcome = rule(statement, g, k, x, find)
            searched = rule(statement, g, k, x, witnesses)
            if dataclasses.replace(outcome, witness=None) != dataclasses.replace(searched, witness=None):
                differ.append((outcome, searched))
            return outcome

        monkeypatch.setitem(_STATEMENTS, name, spec._replace(rule=counted))
    report = run_suite(SUITE_STATEMENTS, n_max=7, k_range=(1, 2, 3), seed=0)
    assert differ == []
    assert report.as_record() == json.loads(SUITE_N7.read_text())["0"]
    assert {s: calls[s] for s in SUITE_STATEMENTS} == {
        "egp": 192, "egc": 247, "kopylov_i": 249, "kopylov_ii": 407, "ore": 0, "ni": 0,
        "lemma1": 652, "lemma2": 4449, "cor2": 0, "theorem1": 0, "theorem1_corollary": 0,
    }
    # 20,437 when only ni and lemma2 were batched; 111,603 with a rule call per instance
    assert sum(calls.values()) == 6196


def test_n8_suite_builds_a_graph_only_for_a_rule_call(monkeypatch):
    # the catalogue reaches the rules as rows: of the 13,598 graphs with
    # n <= 8, only the 3,086 that get a rule call become a Graph, once each
    built = Counter()
    init = graph.Graph.__init__

    def counted_init(self, n, rows):
        built[n, rows] += 1
        init(self, n, rows)

    calls = _count_rule_calls(monkeypatch, SUITE_STATEMENTS)
    monkeypatch.setattr(graph.Graph, "__init__", counted_init)
    run_suite(SUITE_STATEMENTS, n_max=8, k_range=(1, 2, 3))
    assert len(calls) == 18_043
    assert set(built) == {(g.n, g.rows) for _, g, _ in calls}
    assert sum(built.values()) == len(built) == 3_086


def _count_rule_calls(monkeypatch, names):
    calls = []
    for name in names:
        def counted(*args, rule=_STATEMENTS[name].rule):
            calls.append(args[:3])
            return rule(*args)

        monkeypatch.setitem(_STATEMENTS, name, _STATEMENTS[name]._replace(rule=counted))
    return calls


def test_table_batch_and_rule_differ_only_in_the_note(monkeypatch):
    # check_statement finds P6 + K1 disconnected before it looks for the path
    # on 2k+2 = 6 vertices, and the suite reads that path's table bit: both
    # count it unmet, and the suite calls no rule; ore on K6 holds from its
    # Hamiltonian bit, with no rule call either
    calls = _count_rule_calls(monkeypatch, ["kopylov_i", "ore"])
    cases = [
        ("kopylov_i", disjoint_union([path(6), path(1)]), 2, "precondition_unmet", "not connected"),
        ("ore", complete(6), None, "holds", ""),
    ]
    for statement, g, k, status, note in cases:
        report = run_suite([statement], corpus=[g], k_range=[k or 1])
        assert calls == []
        outcome = check_statement(statement, g, k=k)
        assert (outcome.status, outcome.note, len(calls)) == (status, note, 1)
        calls.clear()
        assert report.by_statement[statement] == {**dict.fromkeys(verify._STATUSES, 0), status: 1}


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=10), st.sampled_from(SUITE_STATEMENTS), st.integers(0, 3), st.data())
def test_order_gate_decides_below_the_least_order_without_a_rule(g, statement, k, data):
    # below the least order, check_statement returns (n, least order,
    # "order n < least") and calls no rule, and neither does the suite on
    # the one-graph corpus; from the least order on, check_statement calls it
    spec = _STATEMENTS[statement]
    assume(spec.min_k is None or k >= spec.min_k)
    assume(spec.param not in ("v", "w") or g.n > 0)
    params = {} if spec.min_k is None else {"k": k}
    if spec.param == "a":
        mask = data.draw(st.integers(0, (1 << g.n) - 1))
        params["a"] = [v for v in range(g.n) if mask >> v & 1]
    elif spec.param:
        params[spec.param] = data.draw(st.integers(0, g.n - 1))
    least = verify._least_order(statement, params.get("k"))
    calls = []

    def counted(*args):
        calls.append(args)
        return spec.rule(*args)

    with mock.patch.dict(_STATEMENTS, {statement: spec._replace(rule=counted)}):
        outcome = check_statement(statement, g, **params)
        checked = len(calls)
        report = run_suite([statement], corpus=[g], k_range=[k])
    got = (outcome.status, outcome.lhs, outcome.rhs, outcome.note)
    if g.n < least:
        assert got == ("precondition_unmet", g.n, least, f"order {g.n} < {least}")
        assert calls == []
        assert report.precondition_unmet == report.instances == (g.n if spec.param else 1)
    else:
        assert outcome.note != f"order {g.n} < {least}" and checked == 1


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


@settings(max_examples=100, deadline=None)
@given(
    st.lists(graphs(max_n=8) | st.builds(lambda a, b: disjoint_union([a, b]), graphs(4), graphs(4)), max_size=6),
    st.lists(st.sampled_from(SUITE_STATEMENTS), min_size=1, unique=True),
    st.lists(st.integers(-1, 4), max_size=3),
    st.integers(2, 4),
    st.integers(0, 2**16),
    st.integers(1, 8),
)
def test_table_decisions_match_the_rule_on_every_instance(corpus, statements, ks, k_needed, seed, ni_sample):
    # what the suite decides in numpy on table graphs (ni's and ore's
    # hypotheses and each statement's opening presence bit) must give the
    # report that calling each rule with a witness search gives, for any
    # statements in any order; disjoint unions bring disconnected graphs
    # with long paths, where Kopylov's rule is unmet for another reason;
    # k <= 0 is dropped in both runs
    k_range = ks + [k_needed]
    with mock.patch.object(verify, "_NI_SAMPLE", ni_sample):
        batched = run_suite(statements, corpus=corpus, k_range=k_range, seed=seed)
        with mock.patch.object(verify, "_TABLE_MAX", -1):
            searched = run_suite(statements, corpus=corpus, k_range=k_range, seed=seed)
    assert batched.as_record() == searched.as_record()


def test_table_batch_reads_the_top_bit_of_the_pair_words(monkeypatch):
    # K_8's table sets the top bit of its words (checked against the
    # readers in test_subgraphs): the suite decides every opening there and
    # gives the report of the witness searches
    k8 = complete(8)
    calls = _count_rule_calls(monkeypatch, SUITE_STATEMENTS)
    batched = run_suite(SUITE_STATEMENTS, corpus=[k8], k_range=(1, 2, 3))
    assert calls == []  # every opening path and cycle is there, or the order too small
    with mock.patch.object(verify, "_TABLE_MAX", -1):
        searched = run_suite(SUITE_STATEMENTS, corpus=[k8], k_range=(1, 2, 3))
    assert batched.as_record() == searched.as_record()
    assert batched.by_statement["ore"]["holds"] == 1


def test_zeroed_tables_send_every_open_instance_to_the_rule(monkeypatch):
    # with every table pair zeroed no path exists: each met ni set and each
    # lemma2 vertex reaches its rule and is violated there (on these complete
    # graphs n > 2k, so 2e - d_v > (2k-1)(n-1)), in the order graph,
    # statement, k, then ascending set or vertex
    calls = Counter()
    for name in ("ni", "lemma2"):
        def counted(statement, *args, rule=_STATEMENTS[name].rule):
            calls[statement] += 1
            return rule(statement, *args)

        monkeypatch.setitem(_STATEMENTS, name, _STATEMENTS[name]._replace(rule=counted))
    monkeypatch.setattr(verify, "_held_karp", lambda rows_list, n: np.zeros((len(rows_list), n + 1), np.uint64))
    corpus = [complete(5), complete(6), complete(8)]
    report = run_suite(["ni", "lemma2"], corpus=corpus, k_range=(0, 1, 2), seed=3)
    expected = []
    for g, masks in zip(corpus, reference_ni_masks(corpus, 3, verify._NI_SAMPLE)):
        for k in (1, 2):
            for a in masks:
                size = a.bit_count()
                if (g.n - 1) * size > (2 * k - 1) * size + k * (g.n - size):
                    expected.append(("ni", g.n, {"k": k, "a": [v for v in range(g.n) if a >> v & 1]}))
        for k in (1, 2):
            expected += [("lemma2", g.n, {"k": k, "v": v}) for v in range(g.n)]
    order_of = {write_graph6(g): g.n for g in corpus}
    got = [(v["statement"], order_of[v["graph6"]], v["params"]) for v in report.violating]
    assert got == expected
    assert calls["lemma2"] == 2 * (5 + 6 + 8)
    assert calls["ni"] == report.by_statement["ni"]["violated"] == len(expected) - calls["lemma2"]
    assert report.by_statement["lemma2"]["violated"] == calls["lemma2"]
    assert report.violated == len(expected) == 244
