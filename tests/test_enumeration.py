import collections
import hashlib
import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qext import enumeration
from qext.enumeration import (
    CANONICAL_MAX,
    canonical_code,
    enumerate_nonisomorphic,
    parse_graph6,
    read_graph6_lines,
    write_graph6,
)
from qext.families import complete, cycle, edgeless, path, star
from qext.graph import _twins, build_graph, disjoint_union, join

from conftest import graph_from_code, graphs, random_graph, without_edge

N8_CODES_SHA256 = "dcadbe6e773ef71781b0e6950c99589d3cdc1a8af2898923c1962081365e38b6"


def relabel(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def row_major_code(g):
    """The graph's own upper-triangle bit string, pair (0,1) as the MSB."""
    code = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            code = code << 1 | g.has_edge(u, v)
    return code


def brute_code(g):
    """Independent oracle: minimum row-major code over all n! relabelings."""
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]

    def code(perm):
        out = 0
        for i, j in pairs:
            out = out << 1 | (g.rows[perm[i]] >> perm[j] & 1)
        return out

    return min(map(code, itertools.permutations(range(g.n))))


def label(graphs):
    """Canonical codes of graphs on one order, labelled in one batch."""
    return enumeration._min_codes(np.array([g.rows for g in graphs], dtype=np.int64)).tolist()


def brute_codes_all_labeled(n):
    """Independent oracle: canonical-dedup every labeled graph on n vertices."""
    every = enumeration._rows(n, np.arange(1 << n * (n - 1) // 2, dtype=np.uint64))
    return set(enumeration._min_codes(every).tolist())


def test_canonical_form_relabel_invariance_examples():
    p = build_graph(3, [(0, 1), (1, 2)])
    q = build_graph(3, [(1, 0), (0, 2)])
    assert canonical_code(p) == canonical_code(q)
    assert canonical_code(complete(3)) != canonical_code(p)
    with pytest.raises(ValueError, match="limited to"):
        canonical_code(complete(11))


def test_canonical_form_distinct_count_n4():
    forms = {canonical_code(graph_from_code(4, mask)) for mask in range(64)}
    assert len(forms) == 11


def test_canonical_form_random_relabelings():
    rng = random.Random(2)
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            relabelled = []
            for _ in range(100):
                perm = list(range(n))
                rng.shuffle(perm)
                relabelled.append(relabel(g, perm))
            assert set(label(relabelled)) == {canonical_code(g)}


def test_canonical_code_matches_brute_force_small_catalogue():
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            assert canonical_code(g) == brute_code(g)


@pytest.mark.parametrize("n, samples", [(7, 25), (8, 4)])
def test_canonical_code_matches_brute_force_relabeled(n, samples):
    rng = random.Random(n)
    catalogue = list(enumerate_nonisomorphic(n))
    for g in rng.sample(catalogue, samples):
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_code(h) == brute_code(h)


def test_enumeration_counts():
    for n, want in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044), (8, 12346)]:
        assert sum(1 for _ in enumerate_nonisomorphic(n)) == want
    codes = "\n".join(str(row_major_code(g)) for g in enumerate_nonisomorphic(8))
    assert hashlib.sha256(codes.encode()).hexdigest() == N8_CODES_SHA256
    with pytest.raises(ValueError):
        list(enumerate_nonisomorphic(9))
    with pytest.raises(ValueError):
        list(enumerate_nonisomorphic(0))


@pytest.fixture
def cold_catalogue():
    enumeration._nonisomorphic_codes.cache_clear()
    yield
    enumeration._nonisomorphic_codes.cache_clear()


def test_augmentation_prunes_cut_canonical_labelling(monkeypatch, cold_catalogue):
    # twin-orbit and invariant pruning hand 1,428 children to the labelling
    # at n = 7; without either prune there are 2,690
    rows = collections.Counter()
    min_codes = enumeration._min_codes

    def counted(batch):
        rows[batch.shape[1]] += len(batch)
        return min_codes(batch)

    monkeypatch.setattr(enumeration, "_min_codes", counted)
    assert len(enumeration._nonisomorphic_codes(7)) == 1044
    assert rows[7] == 1428


def test_prefix_prune_bounds_the_search_tree(monkeypatch):
    # exactly 8,257 search nodes over the n = 7 catalogue; 11,578 when each
    # node keeps its own least keys instead of its graph's
    catalogue = list(enumerate_nonisomorphic(7))
    level = enumeration._level
    nodes = 0

    def counted(rows, twins, graph, *state):
        nonlocal nodes
        nodes += len(graph)
        return level(rows, twins, graph, *state)

    monkeypatch.setattr(enumeration, "_level", counted)
    label(catalogue)
    assert nodes == 8_257


def test_cold_catalogue_walks_a_fixed_search_tree(monkeypatch, cold_catalogue):
    # search nodes, and the candidates tried in them, per order of the
    # children labelled by the n <= 8 build; no level runs below 3 vertices.
    # Position 0 keys none of its 29,745 candidates (they all tie on the
    # degree), so 307,951 of the 337,696 are keyed
    nodes, keyed = collections.Counter(), collections.Counter()
    level, candidates = enumeration._level, enumeration._candidates

    def counted(rows, twins, graph, *state):
        nodes[rows.shape[1]] += len(graph)
        return level(rows, twins, graph, *state)

    def counted_candidates(rows, *state):
        node, v = candidates(rows, *state)
        keyed[rows.shape[1]] += len(node)
        return node, v

    monkeypatch.setattr(enumeration, "_level", counted)
    monkeypatch.setattr(enumeration, "_candidates", counted_candidates)
    assert len(enumeration._nonisomorphic_codes(8)) == 12346
    assert nodes == {3: 4, 4: 25, 5: 155, 6: 1231, 7: 11_505, 8: 153_566}
    assert keyed == {3: 4, 4: 32, 5: 225, 6: 2004, 7: 21_117, 8: 314_314}


def test_position_0_tries_the_least_degree_vertices_with_no_lower_twin():
    # _level keys no pair at depth 0: each pair _candidates yields there must
    # already have its graph's least degree, the key it skips
    rng = random.Random(11)
    for n in range(1, 8):
        graphs = []
        for g in enumerate_nonisomorphic(n):
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(relabel(g, perm))
        rows = np.array([g.rows for g in graphs], dtype=np.int16)
        cells = np.zeros_like(rows)
        cells[:, 0] = (1 << n) - 1
        node, v = enumeration._candidates(rows, _twins(rows), np.arange(len(rows)), cells, 0)
        want = []
        for i, g in enumerate(graphs):
            for u in range(n):
                lower_twin = any(
                    g.rows[w] == g.rows[u] or g.rows[w] | 1 << w == g.rows[u] | 1 << u for w in range(u)
                )
                if g.degrees[u] == min(g.degrees) and not lower_twin:
                    want.append((i, u))
        assert list(zip(node.tolist(), v.tolist())) == want


def test_batches_label_each_graph_as_alone():
    # a shuffled batch of relabelled graphs that straddles a chunk boundary
    rng = random.Random(5)
    catalogue = list(enumerate_nonisomorphic(6))
    batch = []
    for _ in range(enumeration._ROWS_CHUNK + 40):
        perm = list(range(6))
        rng.shuffle(perm)
        batch.append(relabel(rng.choice(catalogue), perm))
    assert label(batch) == [label([g])[0] for g in batch]


def test_enumeration_matches_labeled_dedup_oracle():
    for n in range(1, 7):
        ours = {canonical_code(g) for g in enumerate_nonisomorphic(n)}
        assert ours == brute_codes_all_labeled(n)


def test_catalogue_codes_are_a_read_only_increasing_uint64_array():
    # every caller shares the cached array, so no caller may write to it
    for n in range(1, 9):
        codes = enumeration._nonisomorphic_codes(n)
        assert codes.dtype == np.uint64 and (codes[1:] > codes[:-1]).all()
        with pytest.raises(ValueError):
            codes[0] = 1


@settings(max_examples=60, deadline=None)
@given(st.integers(9, 10), st.lists(st.integers(0, 2**32 - 1), max_size=8), st.sampled_from([0.05, 0.5, 0.95]))
def test_rows_decode_36_and_45_bit_codes(n, seeds, p):
    # the n = 10 build decodes its n = 9 parents; K_n sets the top pair bit
    batch = [random_graph(n, p, random.Random(seed)) for seed in seeds] + [complete(n)]
    codes = np.array([row_major_code(g) for g in batch], dtype=np.uint64)
    assert enumeration._rows(n, codes).tolist() == [list(g.rows) for g in batch]


def test_enumeration_is_canonical_and_sorted():
    for n in (4, 5, 6):
        codes = [canonical_code(g) for g in enumerate_nonisomorphic(n)]
        assert codes == sorted(codes)
        for g, code in zip(enumerate_nonisomorphic(n), codes):
            # emitted representative is its own canonical labeling
            rebuilt = graph_from_code(n, code)
            assert rebuilt == g


def reference_min_code(rows):
    """The partition branch-and-bound with candidate keys as count lists."""
    n = len(rows)
    if n <= 1:
        return 0
    best = 1 << n * (n - 1) // 2

    def expand(depth, cells, prefix):
        nonlocal best
        width = n - 1 - depth
        first, later = cells[0], cells[1:]
        low_key, tied = [], []
        rest = first
        while rest:
            bit = rest & -rest
            rest ^= bit
            nb = rows[bit.bit_length() - 1]
            key = [(nb & (first ^ bit)).bit_count()]
            key += [(nb & c).bit_count() for c in later]
            if not tied or key < low_key:
                low_key, tied = key, [bit]
            elif key == low_key:
                tied.append(bit)
        row = (1 << low_key[0]) - 1
        for c, a in zip(later, low_key[1:]):
            row = row << c.bit_count() | ((1 << a) - 1)
        prefix = prefix << width | row
        if prefix > best >> width * (width - 1) // 2:
            return
        if width == 1:
            best = min(best, prefix)
            return
        seen = set()
        for bit in tied:
            nb = rows[bit.bit_length() - 1]
            if nb in seen or nb | bit in seen:
                continue
            seen.update((nb, nb | bit))
            refined = []
            for c in [first ^ bit] + later:
                refined += [part for part in (c & ~nb, c & nb) if part]
            expand(depth + 1, refined, prefix)

    expand(0, [(1 << n) - 1], 0)
    return best


def test_packed_keys_fit_their_fields():
    # _min_codes packs neighbor counts (at most n - 1) into 4 bits each, and
    # the augmentation packs a sum of squared degrees (at most (n - 1)^3)
    # below bit 10
    assert CANONICAL_MAX < 16
    assert (CANONICAL_MAX - 1) ** 3 < 1 << 10


@st.composite
def graphs_2_10(draw):
    n = draw(st.integers(2, 10))
    full = (1 << n * (n - 1) // 2) - 1
    a, b, c = (draw(st.integers(0, full)) for _ in range(3))
    # sparse, even, dense, complement of sparse, complete: dense rows put
    # counts near n - 1 into the later fields of a key
    mask = draw(st.sampled_from([a & b & c, a, a | b, full ^ (a & b & c), full]))
    return draw(st.sampled_from([graph_from_code(n, mask), star(n)]))


@settings(max_examples=150, deadline=None)
@given(graphs_2_10())
@example(complete(10))
@example(without_edge(complete(10), 0, 1))
@example(star(10))
@example(edgeless(2))  # the last two positions are one cell ...
@example(complete(2))
@example(edgeless(10))
@example(disjoint_union([complete(2), edgeless(1)]))  # ... here a pendant pair
@example(star(3))  # ... or two singletons
def test_packed_key_matches_list_key(g):
    assert label([g]) == [reference_min_code(g.rows)]


@pytest.mark.parametrize(
    "g, one_cell",
    [
        (edgeless(2), True),
        (complete(2), True),
        (edgeless(10), True),
        (disjoint_union([complete(2), edgeless(1)]), True),
        (star(3), False),
    ],
)
def test_examples_end_in_both_last_shapes(g, one_cell):
    # the search stops before position n - 2, which then holds one 2-cell
    # (split by _min_codes, low vertex first) or two singletons
    rows = np.array([g.rows], dtype=np.int16)
    graph, cells = np.arange(1), np.zeros_like(rows)
    cells[:, 0] = (1 << g.n) - 1
    for depth in range(g.n - 2):
        graph, cells = enumeration._level(rows, _twins(rows), graph, cells, depth)
    assert (cells[0, g.n - 1] == 0) == one_cell


@st.composite
def graphs_9_10(draw):
    n = draw(st.integers(9, 10))
    full = (1 << n * (n - 1) // 2) - 1
    a, b = draw(st.integers(0, full)), draw(st.integers(0, full))
    mask = draw(st.sampled_from([a & b, a, a | b]))  # sparse, even, dense
    return graph_from_code(n, mask)


@settings(max_examples=60, deadline=None)
@given(graphs_9_10(), st.randoms(use_true_random=False))
def test_canonical_code_properties_n9_n10(g, rng):
    code = canonical_code(g)
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_code(relabel(g, perm)) == code
    rebuilt = graph_from_code(g.n, code)
    assert canonical_code(rebuilt) == code
    assert code <= row_major_code(g)
    assert sorted(rebuilt.degrees) == sorted(g.degrees)


def test_canonical_code_worst_cases_n10(petersen):
    cases = {
        "E10": edgeless(10),
        "K10": complete(10),
        "5K2": disjoint_union([complete(2)] * 5),  # pairs {0,1}, {2,3}, ...
        "co-5K2": build_graph(10, [(u, v) for u in range(10) for v in range(u + 1, 10) if v != u ^ 1]),
        "Petersen": petersen,
        "C10": cycle(10),
        "K5,5": join(edgeless(5), edgeless(5)),
        "2C5": disjoint_union([cycle(5), cycle(5)]),
    }
    uncached = canonical_code.__wrapped__
    for name, g in cases.items():
        start = time.perf_counter()
        code = uncached(g)
        took = time.perf_counter() - start
        assert took < 0.2, f"{name}: canonical code took {took:.3f} s"
        assert code <= row_major_code(g)
        assert uncached(graph_from_code(10, code)) == code
    assert uncached(cases["E10"]) == 0
    assert uncached(cases["K10"]) == (1 << 45) - 1


def test_graph_from_code_checks_order():
    assert graph_from_code(3, 0b101) == build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="nonnegative"):
        graph_from_code(-1, 0)
    with pytest.raises(ValueError, match="exceeds limit"):
        graph_from_code(513, 0)


def test_graph_from_code_round_trips_past_64_vertices():
    # from 64 vertices on a row holds more bits than a machine word; the
    # decoder works on Python ints, so codes round-trip at any order
    g = graph_from_code(70, (1 << 70 * 69 // 2) - 1)
    assert g == complete(70)
    assert g.m == 2415 and set(g.degrees) == {69}
    rng = random.Random(70)
    for n in (62, 63, 64, 70, 130):
        code = rng.getrandbits(n * (n - 1) // 2)
        assert row_major_code(graph_from_code(n, code)) == code


def test_graph_from_code_rejects_codes_out_of_range():
    assert graph_from_code(3, 7) == complete(3)
    assert graph_from_code(0, 0) == build_graph(0)
    for n, code in [(3, 1 << 3), (3, 1 << 10), (3, -1), (1, 1), (0, -1)]:
        with pytest.raises(ValueError, match="out of range"):
            graph_from_code(n, code)


def test_graph6_anchors():
    assert parse_graph6("Bw") == complete(3)
    assert parse_graph6("C~") == complete(4)
    assert write_graph6(path(3)) == "Bg"
    assert write_graph6(complete(3)) == "Bw"
    assert write_graph6(complete(4)) == "C~"


def test_graph6_round_trip_enumerated():
    for n in range(1, 8):
        for g in enumerate_nonisomorphic(n):
            token = write_graph6(g)
            assert parse_graph6(token) == g
            assert write_graph6(parse_graph6(token)) == token


def test_graph6_round_trip_larger_random():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randrange(1, 63)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        g = build_graph(n, edges)
        assert parse_graph6(write_graph6(g)) == g


def loop_write_graph6(g):
    """Slow oracle: graph6 written one pair and one 6-bit group at a time."""
    bits = [1 if g.has_edge(i, j) else 0 for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(g.n + 63)]
    for pos in range(0, len(bits), 6):
        group = 0
        for b in bits[pos : pos + 6]:
            group = group << 1 | b
        chars.append(chr(group + 63))
    return "".join(chars)


def loop_parse_graph6(text):
    """Slow oracle: the strict parser that built an edge list."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueError("graph6 data is not ASCII") from exc
    if not text:
        raise ValueError("empty graph6 string")
    for ch in text:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"graph6 character {ch!r} outside 63..126")
    n = ord(text[0]) - 63
    if n > 62:
        raise ValueError("multi-byte graph6 order headers are not supported")
    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    if len(text) - 1 != want:
        raise ValueError(f"graph6 payload for n={n} must be {want} bytes, got {len(text) - 1}")
    bits = [ord(ch) - 63 >> k & 1 for ch in text[1:] for k in range(5, -1, -1)]
    if any(bits[nbits:]):
        raise ValueError("graph6 padding bits must be zero")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return build_graph(n, [pair for pair, bit in zip(pairs, bits) if bit])


def test_graph6_matches_loop_oracle_on_every_small_graph():
    for n in range(6):
        for code in range(1 << n * (n - 1) // 2):
            g = graph_from_code(n, code)
            token = write_graph6(g)
            assert token == loop_write_graph6(g)
            assert parse_graph6(token) == loop_parse_graph6(token) == g


def test_graph6_matches_loop_oracle_on_random_graphs():
    rng = random.Random(13)
    for n in [*range(63), *(rng.randrange(63) for _ in range(140))]:
        g = random_graph(n, rng.choice([0.05, 0.3, 0.7, 1.0]), rng)
        token = write_graph6(g)
        assert token == loop_write_graph6(g)
        assert parse_graph6(token) == loop_parse_graph6(token) == g


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=62))
def test_graph6_round_trip_property(g):
    assert parse_graph6(write_graph6(g)) == g


@pytest.mark.parametrize(
    "token, message",
    [
        ("", "empty"),
        ("B\x1f", "outside 63..126"),
        ("B\xff", "outside 63..126"),
        (b"B\xff", "not ASCII"),
        ("~??", "multi-byte"),
        ("C~~", "payload"),
        ("E", "payload"),
        ("Bx", "padding"),
        ("D~~", "padding"),
    ],
)
def test_graph6_errors_match_loop_oracle(token, message):
    with pytest.raises(ValueError, match=message) as got:
        parse_graph6(token)
    with pytest.raises(ValueError) as expected:
        loop_parse_graph6(token)
    assert str(got.value) == str(expected.value)


def test_graph6_rejects_malformed():
    with pytest.raises(ValueError, match="empty"):
        parse_graph6("")
    with pytest.raises(ValueError, match="outside 63..126"):
        parse_graph6("B\x1f")
    with pytest.raises(ValueError, match="payload"):
        parse_graph6("C~~")
    with pytest.raises(ValueError, match="payload"):
        parse_graph6("E")
    with pytest.raises(ValueError, match="multi-byte"):
        parse_graph6("~??")
    with pytest.raises(ValueError, match="padding"):
        parse_graph6("Bx")  # stray bit beyond the 3 pair positions
    with pytest.raises(ValueError, match="n <= 62"):
        write_graph6(build_graph(63))


def test_read_graph6_lines():
    graphs = read_graph6_lines("Bw\n\nC~\n")
    assert graphs == [complete(3), complete(4)]
    with pytest.raises(ValueError, match="line 2"):
        read_graph6_lines("Bw\nzz\n")


def test_star_and_complete_have_expected_codes():
    # stars minimize to the lexicographically-last hub labeling; cliques are
    # all-ones strings
    assert canonical_code(complete(4)) == (1 << 6) - 1
    assert canonical_code(star(3)) == canonical_code(path(3))
