import math

import pytest

from qext.bounds import closed_form_snk
from qext.enumeration import canonical_code
from qext.families import (
    build_construction,
    complete,
    corollary1_graph,
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
from qext.graph import MAX_VERTICES, build_graph, components
from qext.spectral import q_index
from qext.subgraphs import find_cycle_of_length
from qext.verify import check_statement

from conftest import is_star


def test_s_nk_star_case():
    g = s_nk(5, 1)
    assert is_star(g) and g.m == 4 and g.degrees[0] == 4


def test_s_nk_cycles_and_edges():
    g = s_nk(10, 2)
    assert g.m == 1 + 2 * 8 == 17
    assert find_cycle_of_length(g, 4) is not None
    assert find_cycle_of_length(g, 5) is None


def test_s_nk_plus_cycles_and_edges():
    g = s_nk_plus(10, 2)
    assert g.m == 18
    assert g.has_edge(2, 3)  # the extra edge joins vertices k and k+1
    assert find_cycle_of_length(g, 5) is not None
    assert find_cycle_of_length(g, 7) is None


def test_edge_count_formulas():
    for n in range(2, 21):
        for k in range(1, n):
            assert s_nk(n, k).m == math.comb(k, 2) + k * (n - k)
            if n >= k + 2:
                assert s_nk_plus(n, k).m == s_nk(n, k).m + 1


def test_s_nk_cycle_spectrum_exhaustive():
    # nothing longer than 2k; for l <= 2k a cycle needs only n >= l, and in
    # particular always exists once n >= k + ceil(l/2)
    for k in (1, 2, 3):
        for n in range(k + 1, 13):
            g = s_nk(n, k)
            for l in range(3, n + 1):
                found = find_cycle_of_length(g, l) is not None
                if l > 2 * k:
                    assert not found, (n, k, l)
                else:
                    assert found == (n >= l), (n, k, l)
                    if n >= k + math.ceil(l / 2):
                        assert found, (n, k, l)


def test_q_matches_closed_form():
    for k in (2, 3, 4):
        for n in range(k + 1, 26):
            assert abs(q_index(s_nk(n, k)).q - closed_form_snk(n, k)) <= 1e-8


def test_kite_pendant():
    g = kite_pendant(2)
    assert g.n == 5 and g.m == math.comb(4, 2) + 1 == 7
    assert g.degrees[4] == 1 and g.has_edge(0, 4)


def test_corollary1_graph():
    g = corollary1_graph(2, 5)
    assert g.n == 26 == 2 * 6 * 2 + 2
    assert g.m == 5 * math.comb(4, 2) + math.comb(5, 2) + 25 == 65
    assert g.degrees[0] == 25  # apex


def test_windmill():
    g = windmill(2, 4)
    assert g.n == 5 and g.m == 4
    assert canonical_code(g) == canonical_code(star(5))
    tri = windmill(3, 3)
    assert tri.n == 7 and tri.m == 9 and tri.degrees[0] == 6


def test_windmill_meets_cycle_bound_equality():
    for k, copies in [(2, 4), (3, 2), (3, 3), (4, 2)]:
        outcome = check_statement("egc", windmill(k, copies), k=k)
        assert outcome.status == "equality_case", (k, copies, outcome)


def test_lemma2_exception_family():
    for k in (1, 2, 3):
        for copies in (0, 1, 2):
            g = lemma2_exception(k, copies)
            v = g.n - 1
            assert g.degrees[v] == 1
            comps = components(g)
            assert len(comps) == copies + 1
            outcome = check_statement("lemma2", g, k=k, v=v)
            assert outcome.status == "holds", (k, copies, outcome)
            assert "exceptional" in outcome.note
            # the bound itself is exceeded, which is why the family matters
            assert outcome.lhs > outcome.rhs


def test_generic_families():
    assert complete(4).m == 6
    assert path(4).m == 3
    assert cycle(4).m == 4
    assert star(4).m == 3
    assert edgeless(4).m == 0
    with pytest.raises(ValueError):
        cycle(2)


def edge_list_complete(n):
    """Slow oracle: K_n from all C(n,2) pairs through ``build_graph``."""
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_complete_matches_edge_list_build():
    for n in [*range(71), MAX_VERTICES]:
        g, want = complete(n), edge_list_complete(n)
        assert g == want and g.degrees == want.degrees and g.m == want.m
    for n in (-1, MAX_VERTICES + 1):
        with pytest.raises(ValueError) as got:
            complete(n)
        with pytest.raises(ValueError) as expected:
            edge_list_complete(n)
        assert str(got.value) == str(expected.value)


def test_constraint_violations_name_the_parameter():
    with pytest.raises(ValueError, match="s_nk requires"):
        s_nk(3, 3)
    with pytest.raises(ValueError, match="n >= k \\+ 2"):
        s_nk_plus(2, 1)
    with pytest.raises(ValueError, match="windmill requires"):
        windmill(1, 3)
    with pytest.raises(ValueError, match="corollary1 requires"):
        corollary1_graph(1, 2)
    with pytest.raises(ValueError, match="lemma2_exception requires"):
        lemma2_exception(0, 1)


def test_build_construction_dispatch():
    assert build_construction("s_nk_plus", {"n": 10, "k": 2}) == s_nk_plus(10, 2)
    assert build_construction("complete", {"n": 5}) == complete(5)
    with pytest.raises(ValueError, match="unknown family"):
        build_construction("frucht", {})
    with pytest.raises(ValueError, match="missing parameters"):
        build_construction("s_nk", {"n": 5})
    with pytest.raises(ValueError, match="unexpected parameters"):
        build_construction("complete", {"n": 5, "k": 2})
