import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qext import spectral
from qext.enumeration import enumerate_nonisomorphic
from qext.families import (
    complete,
    corollary1_graph,
    cycle,
    edgeless,
    path,
    s_nk,
    s_nk_plus,
    star,
    windmill,
)
from qext.graph import build_graph, components, disjoint_union
from qext.spectral import (
    Comparison,
    ConvergenceError,
    SpectralResult,
    certified_compare,
    q_index,
    signless_laplacian,
)

from conftest import graph_from_code, is_bipartite, is_regular, random_graph


def test_signless_laplacian_examples():
    assert signless_laplacian(complete(2)).tolist() == [[1, 1], [1, 1]]
    assert signless_laplacian(path(3)).tolist() == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    assert signless_laplacian(edgeless(3)).tolist() == [[0] * 3] * 3
    with pytest.raises(ValueError):
        signless_laplacian(build_graph(0))


def test_signless_laplacian_row_sums():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng.randrange(1, 12), 0.4, rng)
        sums = signless_laplacian(g).sum(axis=1)
        assert np.allclose(sums, [2 * d for d in g.degrees])


@pytest.mark.parametrize("method", ["dense", "power"])
def test_q_index_anchors(method):
    assert abs(q_index(complete(4), method=method).q - 6.0) < 1e-9
    assert abs(q_index(path(3), method=method).q - 3.0) < 1e-9
    got = q_index(s_nk(10, 2), method=method).q
    assert abs(got - (12 + math.sqrt(128)) / 2) < 1e-9


def test_q_index_result_invariants():
    rng = random.Random(9)
    for _ in range(40):
        g = random_graph(rng.randrange(1, 16), 0.4, rng)
        for method in ("dense", "power"):
            r = q_index(g, method=method)
            assert abs(np.linalg.norm(r.vector) - 1.0) <= 1e-12
            assert r.q >= -1e-12
            assert r.residual <= 1e-10 * max(1.0, r.q)
            assert r.method == method


def test_q_index_rejects_bad_input():
    with pytest.raises(ValueError):
        q_index(build_graph(0))
    with pytest.raises(ValueError):
        q_index(path(3), method="nosuch")


def test_power_budget_exhaustion_carries_best_estimate():
    with pytest.raises(ConvergenceError) as info:
        q_index(path(5), method="power", max_iterations=1)
    best = info.value.best
    assert isinstance(best, SpectralResult)
    assert best.iterations == 1 and best.residual > 0


def test_power_matches_dense_on_enumerated_graphs(monkeypatch):
    monkeypatch.setattr(spectral, "_TOL", 1e-11)  # power stops a decade tighter
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            qp = q_index(g, method="power").q
            qd = q_index(g, method="dense").q
            assert abs(qp - qd) <= 1e-9


def test_eigenvector_nonnegative_on_connected_graphs():
    rng = random.Random(17)
    trials = 0
    while trials < 25:
        g = random_graph(rng.randrange(2, 12), 0.5, rng)
        if len(components(g)) != 1:
            continue
        trials += 1
        for method in ("dense", "power"):
            r = q_index(g, method=method)
            assert (r.vector >= -1e-12).all()


def test_regular_graph_value():
    for g, d in [(cycle(5), 2), (complete(4), 3), (cycle(6), 2)]:
        assert is_regular(g)
        assert abs(q_index(g).q - 2 * d) <= 1e-9


def test_bipartite_upper_bound():
    for g in (path(5), cycle(6), star(7), s_nk(6, 1)):
        assert is_bipartite(g)
        assert q_index(g).q <= g.n + 1e-9


def test_rayleigh_lower_bound_enumerated():
    # all-ones Rayleigh quotient: q >= 4m/n
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            assert q_index(g).q >= 4 * g.m / g.n - 1e-9


def test_disconnected_is_max_over_components():
    rng = random.Random(31)
    for _ in range(30):
        parts = [
            random_graph(rng.randrange(1, 7), 0.5, rng)
            for _ in range(rng.randrange(2, 4))
        ]
        g = disjoint_union(parts)
        expect = max(q_index(p).q for p in parts)
        assert abs(q_index(g).q - expect) <= 1e-9


def test_edge_addition_monotonicity_sample():
    rng = random.Random(41)
    done = 0
    while done < 100:
        g = random_graph(rng.randrange(2, 15), 0.4, rng)
        non_edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        u, v = non_edges[rng.randrange(len(non_edges))]
        assert q_index(g.with_edge(u, v)).q >= q_index(g).q - 1e-9
        done += 1


def test_certified_compare():
    r = q_index(complete(4))
    assert r.graph == complete(4)
    assert certified_compare(r, 5.0).verdict == "gt"
    assert certified_compare(r, 7.0).verdict == "lt"
    assert certified_compare(r, 5.0).margin == pytest.approx(1.0)
    # the threshold is read at its exact value: q(K_4) = 6 exactly
    for tie in (6, 6.0, Fraction(6), np.int64(6), np.float64(6)):
        assert certified_compare(r, tie).verdict == "eq"
    assert certified_compare(r, math.inf).verdict == "lt"
    assert certified_compare(r, -math.inf).verdict == "gt"
    assert certified_compare(r, Fraction(6 * 10**20 + 1, 10**20)).verdict == "lt"
    assert certified_compare(r, Fraction(6 * 10**20 - 1, 10**20)).verdict == "gt"
    # a result with no graph, as built by hand, takes the residual interval
    synthetic = SpectralResult(26.851030, np.ones(1), 1e-9, 1, "power")
    assert synthetic.graph is None
    comparison = certified_compare(synthetic, 26.851030)
    assert comparison == Comparison("indeterminate", 0.0)
    assert certified_compare(synthetic, 26.85).verdict == "gt"
    assert certified_compare(synthetic, 26.86).verdict == "lt"
    exact = SpectralResult(6.0, np.ones(1), 0.0, 0, "stub")
    assert certified_compare(exact, 6).verdict == "eq"
    assert certified_compare(exact, 6.0 - 1e-15).verdict == "gt"


def test_certified_compare_above_64_cells_uses_the_residual():
    g = random_graph(100, 0.3, random.Random(100))
    assert spectral._equitable_cells(g) is None
    r = q_index(g)
    assert r.graph is g and r.residual > 0
    assert certified_compare(r, r.q - 1e-6).verdict == "gt"
    assert certified_compare(r, r.q + 1e-6).verdict == "lt"
    assert certified_compare(r, r.q).verdict == "indeterminate"


# --- equitable quotient (auto above DENSE_MAX) ---------------------------------


@st.composite
def graphs_up_to_12(draw):
    n = draw(st.integers(1, 12))
    full = (1 << n * (n - 1) // 2) - 1
    a, b = draw(st.integers(0, full)), draw(st.integers(0, full))
    return graph_from_code(n, draw(st.sampled_from([a & b, a, a | b])))


@settings(max_examples=200, deadline=None)
@given(graphs_up_to_12())
def test_refined_partition_is_equitable(g):
    cells = spectral._equitable_cells(g)
    assert sum(c.bit_count() for c in cells) == g.n
    assert sum(cells) == (1 << g.n) - 1  # disjoint and covering
    for c in cells:
        members = [v for v in range(g.n) if c >> v & 1]
        assert len({g.degrees[v] for v in members}) == 1
        for d in cells:
            assert len({(g.rows[v] & d).bit_count() for v in members}) == 1


def test_quotient_matches_dense_on_enumerated_graphs():
    for n in range(1, 8):
        for g in enumerate_nonisomorphic(n):
            r = spectral._quotient(g, signless_laplacian(g))
            assert r.method == "quotient" and r.iterations == 0
            assert abs(r.q - q_index(g, method="dense").q) <= 1e-9
            assert abs(np.linalg.norm(r.vector) - 1.0) <= 1e-12
            assert r.residual <= 1e-10 * max(1.0, r.q)


def _integer_quotient(g):
    """The equitable quotient of g in integers, with its cell sizes."""
    cells = spectral._equitable_cells(g)
    return spectral._quotient_matrix(g, cells), [c.bit_count() for c in cells]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quotient_sign_matches_dense_eigenvalues(data):
    n = data.draw(st.integers(1, 7))
    g = graph_from_code(n, data.draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
    b, sizes = _integer_quotient(g)
    q = float(np.linalg.eigvalsh(signless_laplacian(g))[-1])
    scale = data.draw(st.sampled_from([1, 3, 1000, 10**6]))
    t = Fraction(round(q * scale) + data.draw(st.integers(-2, 2)), scale)
    if abs(q - t) > 1e-9:
        assert spectral._quotient_sign(b, sizes, t) == (1 if q > t else -1)
    if n >= 3:  # exact ties, where no float gap can decide
        for tied, value in ((complete(n), 2 * n - 2), (cycle(n), 4)):
            assert spectral._quotient_sign(*_integer_quotient(tied), value) == 0


def _integer_matrix(rows, n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=rows, max_size=rows)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quotient_sign_on_symmetric_integer_matrices(data):
    # with unit cells, b is any symmetric integer matrix.  N = A^T A is
    # positive semidefinite, and singular when A has fewer rows than
    # columns or a zero column; then b = tI - N has top eigenvalue t
    # exactly, and the elimination meets zero rows at any position.  Every
    # other b = tI - N, and b = tI - (C + C^T), is compared with dense
    # eigenvalues
    n, t = data.draw(st.integers(1, 6)), data.draw(st.integers(-5, 5))
    a = np.array(data.draw(_integer_matrix(data.draw(st.integers(1, n)), n)))
    c = np.array(data.draw(_integer_matrix(n, n)))
    singular = a.shape[0] < n or not a.any(axis=0).all()
    for nn, tie in ((a.T @ a, singular), (c + c.T, False)):
        b = (t * np.eye(n, dtype=int) - nn).tolist()
        sign = spectral._quotient_sign(b, [1] * n, t)
        top = float(np.linalg.eigvalsh(np.array(b, dtype=float))[-1])
        if tie:
            assert sign == 0
        elif abs(top - t) > 1e-9:
            assert sign == (1 if top > t else -1)


def test_quotient_sign_decides_exactly():
    for n in range(1, 8):
        for g in enumerate_nonisomorphic(n):
            b, sizes = _integer_quotient(g)
            q = q_index(g, method="dense").q
            for t in (Fraction(round(q * 1000) + d, 1000) for d in (-2, 2)):
                assert spectral._quotient_sign(b, sizes, t) == (1 if q > t else -1)
    for n in range(3, 120):  # exact ties, where a float residual cannot decide
        for g, q in ((complete(n), 2 * n - 2), (cycle(n), 4)):
            b, sizes = _integer_quotient(g)
            assert spectral._quotient_sign(b, sizes, q) == 0
            assert spectral._quotient_sign(b, sizes, q + Fraction(1, 10**15)) == -1
            assert spectral._quotient_sign(b, sizes, q - Fraction(1, 10**15)) == 1


def _snk_closed_form(n, k):
    s = n + 2 * k - 2
    return 0.5 * (s + math.sqrt(s * s - 8 * (k * k - k)))


@pytest.mark.parametrize("n", [65, 100, 257, 512])
def test_auto_uses_the_quotient_on_structured_families(n):
    graphs = [complete(n), cycle(n), s_nk(n, 2), s_nk(n, 5), s_nk_plus(n, 3)]
    graphs += [windmill(3, (n - 1) // 2), corollary1_graph(2, min((n - 2) // 4, 126))]
    for g in graphs:
        assert g.n > spectral.DENSE_MAX
        r = q_index(g)
        assert r.method == "quotient" and r.iterations == 0
        assert r.residual <= 1e-10 * max(1.0, r.q)
        assert (r.vector >= 0).all()
    for k in (2, 5):
        assert abs(q_index(s_nk(n, k)).q - _snk_closed_form(n, k)) <= 1e-8


def test_exact_q_of_complete_graphs_and_cycles_compares_eq():
    # one cell each, so the comparison is exact whichever engine ran; the
    # residual interval alone calls dense q(K_82) = 161.99999999999994,
    # residual 3.5e-14, "lt" against 162
    for n in range(3, 513):
        assert certified_compare(q_index(complete(n)), 2 * n - 2).verdict == "eq"
        assert certified_compare(q_index(cycle(n)), 4).verdict == "eq"
    for n in range(65, 200):
        assert certified_compare(q_index(complete(n), method="dense"), 2 * n - 2).verdict == "eq"


def test_large_probes_run_without_power_iteration(monkeypatch):
    # the probes decide on the quotients and build no graph; the q they
    # report is what the quotient engine gives for the built graphs
    from qext.verify import prop1_sandwich_check, theorem1_construction_probe

    def refuse(*args, **kwargs):
        raise AssertionError("power iteration ran")

    monkeypatch.setattr(spectral, "_power", refuse)
    lower, between, upper = prop1_sandwich_check(509, 2)
    assert [o.status for o in (lower, between, upper)] == ["holds"] * 3
    assert abs(between.lhs - q_index(s_nk(509, 2)).q) <= 1e-9 * between.lhs
    assert abs(between.rhs - q_index(s_nk_plus(509, 2)).q) <= 1e-9 * between.rhs
    assert theorem1_construction_probe(509, 2).status == "holds"


def test_many_cells_fall_back_to_dense():
    rng = random.Random(100)
    g = random_graph(100, 0.3, rng)
    assert len(components(g)) == 1
    assert spectral._equitable_cells(g) is None
    r = q_index(g)
    assert r.method == "dense"
    assert r.q == q_index(g, method="dense").q


def test_quotient_missing_tol_falls_back_to_dense(monkeypatch):
    monkeypatch.setattr(spectral, "_TOL", 1e-18)  # below any float residual
    g = s_nk(100, 2)
    with pytest.raises(ConvergenceError) as info:
        q_index(g)
    assert info.value.best.method == "dense" and info.value.best.graph is g


def _union_of_near_twins():
    # H and H plus its first non-edge: refinement ends above 64 cells, and
    # power iteration stalls on the two nearly equal top eigenvalues
    h = random_graph(100, 0.3, random.Random(5))
    u, v = next((u, v) for u in range(100) for v in range(u + 1, 100) if not h.has_edge(u, v))
    return disjoint_union([h, h.with_edge(u, v)])


def test_auto_never_runs_power_iteration(monkeypatch):
    from qext.verify import check_statement

    def refuse(*args, **kwargs):
        raise AssertionError("power iteration ran")

    monkeypatch.setattr(spectral, "_power", refuse)
    union = _union_of_near_twins()
    graphs = [random_graph(n, 0.3, random.Random(n)) for n in (65, 128, 200)] + [union]
    for g in graphs:
        assert spectral._equitable_cells(g) is None
        r = q_index(g)
        assert r.method == "dense"
        assert r.residual <= 1e-12 * max(1.0, r.q)
        assert certified_compare(r, r.q * (1 - 1e-11)).verdict == "gt"
        assert certified_compare(r, r.q * (1 + 1e-11)).verdict == "lt"
    outcome = check_statement("theorem1", union, k=2)
    assert outcome.status == "precondition_unmet" and outcome.note == "q below the threshold"
