"""Mechanical checkers turning bound statements into pass/fail verdicts.

Each statement is decided by one rule, which evaluates it on a concrete
instance and reports holds / equality_case / violated / precondition_unmet /
indeterminate with the numeric pair behind the verdict and, where
applicable, a structural witness.  Hypothesis failures are always reported
as precondition_unmet, never silently as holds.  Below a statement's least
order, ``_order_unmet`` alone decides, with n and that order as lhs and rhs,
and no rule runs.  A graph's spectral threshold is decided by
``spectral.certified_compare`` on auto ``q_index`` (quotient or dense, never
power), exactly at 64 cells or fewer; only above that may the verdict be
indeterminate.  Proposition 1 and the construction probe build no graph:
they take ``spectral._quotient_sign``, the exact sign of q - t, on the split
graphs' quotients built from (n, k).  ``_STATEMENTS`` declares each
statement once: its rule, the least k it accepts, its own parameter, whether
it runs in suites and its opening question.  The same rule serves
``check_statement``, which hands it searches that build witnesses, and
``run_suite``, which keeps only the status, lhs and rhs.  A suite calls no
rule where the verdict is fixed before a search: below the least order and,
on graphs up to 8 vertices, where the hypothesis or the one path-table bit
of the statement's ``_Opening`` fixes it (all but cor2 and theorem1's),
decided in numpy by ``_run_chunk`` per chunk of one order, statement and k,
through the table's two readers in ``subgraphs``.  An instance that table
bit leaves open gets ``_ABSENT``, a search that finds nothing; every other
instance goes to the rule with the witness searches.  Graphs, from the
catalogue or a corpus, travel as bit rows; only a rule call builds a
``Graph``.  ni's vertex set A is its bitmask throughout.

Statement tags
--------------
egp          no path on k+2 vertices  =>  e <= kn/2 (equality: disjoint
             (k+1)-cliques)
egc          no cycle on more than k vertices  =>  e <= k(n-1)/2 (equality:
             connected, every biconnected block a k-clique)
kopylov_i    connected, n >= 2k+2, no path on 2k+2 vertices => edge bound
kopylov_ii   connected, n >= 2k+3, no path on 2k+3 vertices => edge bound
ore          n >= 3, e > C(n-1,2)+1  =>  Hamiltonian cycle
ni           partition (A,B): 2e(A)+e(A,B) > (2k-1)|A|+k|B|  =>  path on
             2k+1 vertices with both endpoints in A
lemma1       no path on 2k+1 vertices  =>  every component H has order 2k
             or e(H) <= (k-1) v(H)
lemma2       no path on 2k+1 vertices avoiding v at both ends  =>
             2e - d_v <= (2k-1)(n-1), unless the clique-plus-pendant family
lemma3       block/pendant assembly: q(H) small  =>  q(G) <= n+2k-2
cor1         apex over cliques: q < n+2k-2 (strict, certified)
cor2         components of G-w small  =>  q < n+2k-2 (strict, certified)
theorem1     q >= n+2k-2 with n > 5k^2  =>  cycles on 2k+1 and 2k+2 vertices
theorem1_corollary   same hypothesis  =>  cycles of every order 3..2k+2
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .bounds import closed_form_snk, kopylov_i_value, kopylov_ii_value, ore_edge_threshold, prop1_sandwich
from .enumeration import ENUMERATE_MAX, _POP, _nonisomorphic_codes, _rows, write_graph6
from .families import complete, corollary1_graph
from .graph import (
    Graph,
    _bits,
    blocks,
    build_graph,
    components,
    disjoint_union,
    edges_within,
    is_connected,
    mask_of,
)
from .report import record
from .spectral import _quotient_sign, _quotient_top, certified_compare, q_index
from .subgraphs import _TABLE_MAX, _held_karp, _table_cycles, _table_paths, find_constrained_path, find_cycle_of_length

HOLDS = "holds"
EQUALITY = "equality_case"
VIOLATED = "violated"
UNMET = "precondition_unmet"
INDETERMINATE = "indeterminate"

_STATUSES = (HOLDS, EQUALITY, VIOLATED, UNMET, INDETERMINATE)
_CHUNK_SIZE = 256  # most graphs per _run_chunk call, all of one order, tabled in one batch
_NI_SAMPLE = 50  # ni's vertex sets sampled per suite graph above 6 vertices


@dataclass
class CheckOutcome:
    statement: str
    status: str
    lhs: float
    rhs: float
    witness: tuple | None = None
    note: str = ""

    def as_record(self) -> dict[str, Any]:
        return record("check", self)


@dataclass
class SuiteReport:
    statements: tuple[str, ...]
    instances: int
    holds: int
    equality: int
    violated: int
    precondition_unmet: int
    indeterminate: int
    violating: list[dict[str, Any]] = field(default_factory=list)
    by_statement: dict[str, dict[str, int]] = field(default_factory=dict)

    def counts_consistent(self) -> bool:
        total = (
            self.holds
            + self.equality
            + self.violated
            + self.precondition_unmet
            + self.indeterminate
        )
        return total == self.instances

    def as_record(self) -> dict[str, Any]:
        return record("suite", self, equality_case=self.equality)


# --- structure matchers ------------------------------------------------------


def _is_clique(g: Graph, vertices: Sequence[int], size: int) -> bool:
    """The given vertices are exactly ``size`` many and pairwise adjacent."""
    return (
        len(vertices) == size
        and edges_within(g, mask_of(vertices)) == size * (size - 1) // 2
    )


def is_disjoint_cliques(g: Graph, size: int) -> bool:
    """Every component a clique of the given order."""
    return all(_is_clique(g, comp, size) for comp in components(g))


def is_complete_block_graph(g: Graph, k: int) -> bool:
    """Connected with every biconnected block a clique of order k.

    This is the exact equality family of the forbidden-long-cycle edge
    bound; single-hub assemblies (windmills) are the special case where all
    blocks share one vertex.
    """
    if g.n == 0 or not is_connected(g):
        return False
    return all(_is_clique(g, blk, k) for blk in blocks(g))


def has_single_hub(g: Graph) -> bool:
    """All blocks share one common vertex (trivially true for <= 1 block)."""
    blks = blocks(g)
    return len(blks) <= 1 or len(set.intersection(*map(set, blks))) == 1


def matches_lemma2_exception(g: Graph, k: int, v: int) -> bool:
    """Several 2k-cliques plus one pendant-clique block with v as the pendant.

    v has degree 1, v's component minus v is a 2k-clique, and every other
    component is a 2k-clique.
    """
    if g.degrees[v] != 1:
        return False
    return all(
        _is_clique(g, [w for w in comp if w != v], 2 * k) for comp in components(g)
    )


# --- rules -------------------------------------------------------------------
# One rule per statement: rule(stmt, g, k, x, find) -> CheckOutcome.
# x is the instance's own parameter: lemma2's v, cor2's w, the mask of ni's
# vertex set A, check_statement's params for lemma3 and cor1 (which build
# their own graph), and None otherwise.  check_statement has already checked
# k, g and n's least order, which lemma3 and cor1 check once they know n.


class _Search(NamedTuple):
    """How a rule asks its questions: a path on ``order`` vertices with both
    ends in ``ends_mask``, and a cycle on ``length`` vertices, each within
    the default node budget.  Either the witness builders
    find_constrained_path and find_cycle_of_length (a witness or None), or,
    for a suite instance its path table left open, ``_ABSENT``; a rule reads
    only whether the answer is truthy, and keeps it as the witness."""

    path: Callable[[Graph, int, int], Any]  # (g, order, ends_mask)
    cycle: Callable[[Graph, int], Any]  # (g, length)


# Only an instance whose _Opening the path table has answered absent gets
# _ABSENT: its rule asks only that question (for egc, every longer cycle
# too).  A statement with no _Opening gets the witness searches everywhere.
_ABSENT = _Search(lambda g, order, ends_mask: None, lambda g, length: None)


def _least_order(stmt: str, k: int | None) -> int:
    """The least order n the statement's hypothesis admits (0: any), as the
    paper states: n >= 6k+13 for Lemma 3 and Corollaries 1 and 2, n > 5k^2
    for Theorem 1, its corollary, Proposition 1 and the construction probe,
    the forbidden path's order, 2k+2 or 2k+3, for Kopylov's bounds, n >= 3
    for Ore's theorem and one vertex for egc's bound k(n-1)/2."""
    if stmt in ("ore", "egc"):
        return 3 if stmt == "ore" else 1
    if stmt in ("kopylov_i", "kopylov_ii"):
        return 2 * k + (2 if stmt == "kopylov_i" else 3)
    if stmt in ("lemma3", "cor1", "cor2"):
        return 6 * k + 13
    if stmt in ("theorem1", "theorem1_corollary", "prop1", "theorem1_construction_probe"):
        return 5 * k * k + 1
    return 0


def _order_unmet(stmt: str, n: int, k: int | None) -> CheckOutcome | None:
    """precondition_unmet, with lhs n and rhs the least order, below the
    statement's least order; the only producer of that verdict."""
    least = _least_order(stmt, k)
    if n >= least:
        return None
    return CheckOutcome(stmt, UNMET, float(n), float(least), None, f"order {n} < {least}")


def _components_off_2k(g: Graph, k: int) -> list[tuple[tuple[int, ...], float, float]]:
    """(vertices, e(H), (k-1)v(H)) for each component H of g whose order is
    not 2k: Lemma 1 and Corollary 2 bound e(H) by (k-1)v(H) on these."""
    return [
        (comp, float(edges_within(g, mask_of(comp))), float((k - 1) * len(comp)))
        for comp in components(g)
        if len(comp) != 2 * k
    ]


def _threshold(g: Graph, t: float | Fraction) -> tuple[float, str]:
    """q(g) and certified_compare's verdict against t at its exact value:
    "lt", "eq", "gt", or "indeterminate" only above 64 cells."""
    result = q_index(g)
    return result.q, certified_compare(result, t).verdict


def _bound(
    stmt: str, lhs: float, rhs: float, at_equality: str = "", above: str = ""
) -> CheckOutcome:
    """Verdict on the bound lhs <= rhs once its hypothesis holds: holds
    below it, equality_case at it, violated above it."""
    if lhs < rhs:
        return CheckOutcome(stmt, HOLDS, lhs, rhs)
    if lhs == rhs:
        return CheckOutcome(stmt, EQUALITY, lhs, rhs, None, at_equality)
    return CheckOutcome(stmt, VIOLATED, lhs, rhs, None, above)


def _egp(stmt: str, g: Graph, k: int, x: None, find: _Search) -> CheckOutcome:
    lhs, rhs = g.m, k * g.n / 2
    witness = find.path(g, k + 2, -1)
    if witness:
        return CheckOutcome(stmt, UNMET, lhs, rhs, witness, f"contains a path on {k + 2} vertices")
    if 2 * g.m == k * g.n and not is_disjoint_cliques(g, k + 1):
        return CheckOutcome(
            stmt, VIOLATED, lhs, rhs, None, "equality without the disjoint-clique structure"
        )
    return _bound(stmt, lhs, rhs, "disjoint cliques")


def _egc(stmt: str, g: Graph, k: int, x: None, find: _Search) -> CheckOutcome:
    lhs, rhs = g.m, k * (g.n - 1) / 2
    for length in range(max(k + 1, 3), g.n + 1):
        witness = find.cycle(g, length)
        if witness:
            return CheckOutcome(
                stmt, UNMET, lhs, rhs, witness, f"contains a cycle on {length} > {k} vertices"
            )
    if 2 * g.m != k * (g.n - 1):
        return _bound(stmt, lhs, rhs)
    if not is_complete_block_graph(g, k):
        return CheckOutcome(
            stmt, VIOLATED, lhs, rhs, None, "equality without the clique-block structure"
        )
    hub = ", single hub" if has_single_hub(g) else ""
    return CheckOutcome(stmt, EQUALITY, lhs, rhs, None, "clique blocks" + hub)


def _kopylov(stmt: str, g: Graph, k: int, x: None, find: _Search) -> CheckOutcome:
    order = _least_order(stmt, k)  # the forbidden path's order
    rhs = float((kopylov_i_value if stmt == "kopylov_i" else kopylov_ii_value)(g.n, k))
    if not is_connected(g):
        return CheckOutcome(stmt, UNMET, g.m, rhs, None, "not connected")
    witness = find.path(g, order, -1)
    if witness:
        return CheckOutcome(stmt, UNMET, g.m, rhs, witness, f"contains a path on {order} vertices")
    return _bound(stmt, g.m, rhs)


def _ore(stmt: str, g: Graph, k: None, x: None, find: _Search) -> CheckOutcome:
    threshold = float(ore_edge_threshold(g.n))
    if g.m <= threshold:
        return CheckOutcome(stmt, UNMET, g.m, threshold, None, "edge count not above threshold")
    witness = find.cycle(g, g.n)
    if witness:
        return CheckOutcome(stmt, HOLDS, g.m, threshold, witness)
    return CheckOutcome(stmt, VIOLATED, g.m, threshold, None, "no Hamiltonian cycle")


def _ni_rhs(n: int, k: int, size: int) -> int:
    """(2k-1)|A| + k|B| for a set A of ``size`` vertices."""
    return (2 * k - 1) * size + k * (n - size)


def _ni(stmt: str, g: Graph, k: int, a: int, find: _Search) -> CheckOutcome:
    # Σ_v |N(v) ∩ A| counts each edge at its ends in A: 2e(A)+e(A,B)
    lhs = sum((row & a).bit_count() for row in g.rows)
    rhs = _ni_rhs(g.n, k, a.bit_count())
    if lhs <= rhs:
        return CheckOutcome(stmt, UNMET, lhs, rhs, None, "weighted edge count not above threshold")
    witness = find.path(g, 2 * k + 1, a)
    if witness:
        return CheckOutcome(stmt, HOLDS, lhs, rhs, witness)
    note = f"no path on {2 * k + 1} vertices with both ends in A"
    return CheckOutcome(stmt, VIOLATED, lhs, rhs, None, note)


def _lemma1(stmt: str, g: Graph, k: int, x: None, find: _Search) -> CheckOutcome:
    witness = find.path(g, 2 * k + 1, -1)
    if witness:
        return CheckOutcome(
            stmt, UNMET, 0.0, 0.0, witness, f"contains a path on {2 * k + 1} vertices"
        )
    rows = _components_off_2k(g, k)
    for comp, lhs, rhs in rows:
        if lhs > rhs:
            note = f"component of order {len(comp)} with {int(lhs)} edges"
            return CheckOutcome(stmt, VIOLATED, lhs, rhs, comp, note)
    if not rows:
        return CheckOutcome(stmt, HOLDS, 0.0, 0.0, None, "all components have order 2k")
    _, lhs, rhs = max(rows, key=lambda row: row[1] - row[2])
    return CheckOutcome(stmt, HOLDS, lhs, rhs)


def _lemma2(stmt: str, g: Graph, k: int, v: int, find: _Search) -> CheckOutcome:
    witness = find.path(g, 2 * k + 1, ~(1 << v))
    if witness:
        note = f"contains a path on {2 * k + 1} vertices avoiding v at both ends"
        return CheckOutcome(stmt, UNMET, 0.0, 0.0, witness, note)
    lhs = float(2 * g.m - g.degrees[v])
    rhs = float((2 * k - 1) * (g.n - 1))
    if lhs > rhs and matches_lemma2_exception(g, k, v):
        return CheckOutcome(stmt, HOLDS, lhs, rhs, None, "exceptional clique-plus-pendant family")
    return _bound(stmt, lhs, rhs, above="bound exceeded outside the exceptional family")


def _lemma3(
    stmt: str, g_unused: None, k: int, params: dict[str, Any], find: _Search
) -> CheckOutcome:
    if "h" not in params or "p" not in params:
        raise ValueError("lemma3 requires parameters 'h' (graph) and 'p'")
    h: Graph = params["h"]
    p = int(params["p"])
    if p < 0:
        raise ValueError(f"parameter p must be >= 0, got {p}")
    w = int(params.get("w", 0))
    if not 0 <= w < h.n:
        raise ValueError(f"attachment vertex w={w} out of range for h")
    attachment = sorted(set(int(a) for a in params.get("attachment", ())))
    f_blocks: Sequence[Graph] = params.get("f_blocks") or [complete(2 * k) for _ in range(p)]
    if len(f_blocks) != p:
        raise ValueError(f"expected {p} blocks of order {2 * k}, got {len(f_blocks)}")
    for block in f_blocks:
        if block.n != 2 * k:
            raise ValueError(f"every block must have order {2 * k}, got {block.n}")
    n = 2 * k * p + h.n
    for a in attachment:
        if not 0 <= a < 2 * k * p:
            raise ValueError(f"attachment index {a} outside the block range")
    if unmet := _order_unmet(stmt, n, k):
        return unmet
    threshold_g = float(n + 2 * k - 2)
    bound_h = h.n + 2 * k - 2 + Fraction(6 * p * k, n + 3)
    q, hypothesis = _threshold(h, bound_h)
    threshold_h = float(bound_h)
    if hypothesis == "indeterminate":
        return CheckOutcome(stmt, INDETERMINATE, q, threshold_h, None, "hypothesis not certifiable")
    if hypothesis == "gt":
        return CheckOutcome(stmt, UNMET, q, threshold_h, None, "hypothesis bound on q(h) fails")
    base = disjoint_union(list(f_blocks) + [h])
    edges = list(base.edges()) + [(a, 2 * k * p + w) for a in attachment]
    q, conclusion = _threshold(build_graph(n, edges), threshold_g)
    if conclusion == "lt":
        return CheckOutcome(stmt, HOLDS, q, threshold_g)
    if conclusion == "indeterminate":
        return CheckOutcome(stmt, INDETERMINATE, q, threshold_g, None, "conclusion not certifiable")
    if conclusion == "eq":
        note = "equality" + (", hypothesis also at equality" if hypothesis == "eq" else "")
        return CheckOutcome(stmt, EQUALITY, q, threshold_g, None, note)
    return CheckOutcome(stmt, VIOLATED, q, threshold_g)


def _q_strictly_below(stmt: str, g: Graph, k: int) -> CheckOutcome:
    """The corollaries' conclusion q(g) < n+2k-2, certified."""
    threshold = float(g.n + 2 * k - 2)
    q, verdict = _threshold(g, threshold)
    if verdict == "lt":
        return CheckOutcome(stmt, HOLDS, q, threshold)
    if verdict == "indeterminate":
        return CheckOutcome(stmt, INDETERMINATE, q, threshold, None, "not certifiable")
    return CheckOutcome(stmt, VIOLATED, q, threshold)


def _cor1(stmt: str, g_unused: None, k: int, params: dict[str, Any], find: _Search) -> CheckOutcome:
    if "p" not in params:
        raise ValueError("missing parameter 'p'")
    g = corollary1_graph(k, int(params["p"]))
    return _order_unmet(stmt, g.n, k) or _q_strictly_below(stmt, g, k)


def _cor2(stmt: str, g: Graph, k: int, w: int, find: _Search) -> CheckOutcome:
    rest = [v for v in range(g.n) if v != w]
    for comp, lhs, rhs in _components_off_2k(g.induced(rest), k):
        if lhs > rhs:
            note = "component condition on G - w fails"
            return CheckOutcome(stmt, UNMET, lhs, rhs, tuple(rest[v] for v in comp), note)
    return _q_strictly_below(stmt, g, k)


def _theorem1(stmt: str, g: Graph, k: int, x: None, find: _Search) -> CheckOutcome:
    # theorem1 asks for cycles on 2k+1 and 2k+2 vertices, its corollary for
    # every order 3..2k+2
    threshold = float(g.n + 2 * k - 2)
    q, verdict = _threshold(g, threshold)
    if verdict == "lt":
        return CheckOutcome(stmt, UNMET, q, threshold, None, "q below the threshold")
    if verdict == "indeterminate":
        return CheckOutcome(stmt, INDETERMINATE, q, threshold, None, "hypothesis not certifiable")
    lengths = range(3, 2 * k + 3) if stmt == "theorem1_corollary" else (2 * k + 1, 2 * k + 2)
    first = None
    for length in lengths:
        witness = find.cycle(g, length)
        if not witness:
            note = f"no cycle on {length} vertices"
            return CheckOutcome(stmt, VIOLATED, q, threshold, None, note)
        first = first or witness
    return CheckOutcome(stmt, HOLDS, q, threshold, first)


class _Opening(NamedTuple):
    """A rule's first question on order n, which one path-table bit answers;
    that path or cycle proves the statement where ``rhs`` is set, else leaves it unmet."""

    cycle: bool  # a cycle on at least order(n, k) vertices, else a path on order(n, k) ending in x's set
    order: Callable[[int, Any], int]
    rhs: Callable[[int, Any, int], Any] | None = None  # ni and ore first need lhs > rhs(n, k, |A|)


class _Statement(NamedTuple):
    rule: Callable[..., CheckOutcome]
    min_k: int | None
    param: str | None
    suite: bool
    opens: _Opening | None = None


# Every statement, declared once, in STATEMENTS order: its rule, the least k
# it accepts (None: it takes no k), the name of its own parameter x (None: it
# has none), whether it runs in suites (lemma3 and cor1 build their own graph
# from their params, so run in none) and the suite's table-answered question.
_STATEMENTS: dict[str, _Statement] = {
    "egp": _Statement(_egp, 1, None, True, _Opening(False, lambda n, k: k + 2)),
    "egc": _Statement(_egc, 2, None, True, _Opening(True, lambda n, k: max(k + 1, 3))),
    "kopylov_i": _Statement(_kopylov, 1, None, True, _Opening(False, lambda n, k: 2 * k + 2)),
    "kopylov_ii": _Statement(_kopylov, 1, None, True, _Opening(False, lambda n, k: 2 * k + 3)),
    "ore": _Statement(_ore, None, None, True,
                      _Opening(True, lambda n, k: n, lambda n, *_: ore_edge_threshold(n))),
    "ni": _Statement(_ni, 1, "a", True, _Opening(False, lambda n, k: 2 * k + 1, _ni_rhs)),
    "lemma1": _Statement(_lemma1, 1, None, True, _Opening(False, lambda n, k: 2 * k + 1)),
    "lemma2": _Statement(_lemma2, 1, "v", True, _Opening(False, lambda n, k: 2 * k + 1)),
    "cor2": _Statement(_cor2, 2, "w", True),
    "theorem1": _Statement(_theorem1, 2, None, True),
    "theorem1_corollary": _Statement(_theorem1, 2, None, True),
    "lemma3": _Statement(_lemma3, 2, None, False),
    "cor1": _Statement(_cor1, 2, None, False),
}

STATEMENTS = tuple(_STATEMENTS)
SUITE_STATEMENTS = tuple(s for s, spec in _STATEMENTS.items() if spec.suite)


def _param(name: str | None, g: Graph, params: dict[str, Any]) -> Any:
    """The instance's own parameter x read from check_statement's params: a
    vertex for "v" and "w", the mask of ni's vertex set A for "a"."""
    if name is None:
        return None
    if name not in params:
        what = " (vertex set A of the partition)" if name == "a" else ""
        raise ValueError(f"missing parameter '{name}'{what}")
    if name != "a":
        v = int(params[name])
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {name}={v} out of range")
        return v
    a_vertices = sorted(set(map(int, params["a"])))
    for v in a_vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"partition vertex {v} out of range")
    if params.get("b") is not None:
        b_vertices = sorted(set(int(v) for v in params["b"]))
        if sorted(a_vertices + b_vertices) != list(range(g.n)):
            raise ValueError("(a, b) must partition the vertex set")
    return mask_of(a_vertices)


def check_statement(statement: str, g: Graph | None = None, **params: Any) -> CheckOutcome:
    """Evaluate one statement on one instance.

    ``lemma3`` and ``cor1`` build their own graph from parameters and ignore
    ``g``; every other statement requires it, and runs no rule below its least
    order (``_order_unmet``).  ``k`` is checked here against the statement's
    minimum in ``_STATEMENTS``.  Parameters a statement does not read are
    ignored, not rejected: ``ore`` ignores ``k``, and a stray ``tol`` or
    ``node_budget`` is ignored too, since no verdict takes a tolerance and
    every search runs within ``subgraphs.DEFAULT_NODE_BUDGET``.
    """
    spec = _STATEMENTS.get(statement)
    if spec is None:
        raise ValueError(
            f"unknown statement {statement!r}; known: {', '.join(sorted(_STATEMENTS))}"
        )
    if spec.suite and g is None:
        raise ValueError(f"statement {statement!r} requires a graph")
    k = None
    if spec.min_k is not None:
        if "k" not in params:
            raise ValueError("missing parameter 'k'")
        k = int(params["k"])
        if k < spec.min_k:
            raise ValueError(f"parameter k must be >= {spec.min_k}, got {k}")
    x = _param(spec.param, g, params) if spec.suite else params
    if spec.suite and (unmet := _order_unmet(statement, g.n, k)):
        return unmet
    find = _Search(find_constrained_path, find_cycle_of_length)
    return spec.rule(statement, g, k, x, find)


def _split_quotients(n: int, k: int) -> tuple[tuple[list, list], tuple[list, list]]:
    """The equitable quotients (b, sizes) of s_nk over its clique (k
    vertices) and the rest, and of s_nk_plus over its clique, the edge pair
    (2) and the rest."""
    r = n - k - 2
    return (([[n + k - 2, n - k], [k, k]], [k, n - k]),
            ([[n + k - 2, 2, r], [k, k + 2, 0], [k, 0, k]], [k, 2, r]))


def prop1_sandwich_check(n: int, k: int) -> list[CheckOutcome]:
    """Exact check of the strict chain
    lower(n,k) < q(s_nk) < q(s_nk_plus) < upper(n,k), with no graph built;
    the middle link holds by Perron-Frobenius, as its note says, so its
    printed floats may meet or cross once the gap, about 4k/n^2, falls
    below their spacing (n >= 10^6).

    Returns one outcome per strict inequality, or ``_order_unmet``'s single
    outcome when n <= 5k^2; raises ValueError when k < 2, as the probe does.
    """
    if k < 2:
        raise ValueError(f"prop1 requires k >= 2, got {k}")
    if unmet := _order_unmet("prop1", n, k):
        return [unmet]
    lower, upper = prop1_sandwich(n, k)
    snk, plus = _split_quotients(n, k)
    q, q_plus = closed_form_snk(n, k), _quotient_top(*plus)[0]
    above_lower = _quotient_sign(*snk, lower) > 0
    below_upper = _quotient_sign(*plus, upper) < 0
    between = "Perron-Frobenius: s_nk_plus is the connected s_nk plus one edge"
    return [
        CheckOutcome("prop1_lower", HOLDS if above_lower else VIOLATED, float(lower), q),
        CheckOutcome("prop1_between", HOLDS, q, q_plus, None, between),
        CheckOutcome("prop1_upper", HOLDS if below_upper else VIOLATED, q_plus, float(upper)),
    ]


def theorem1_construction_probe(n: int, k: int) -> CheckOutcome:
    """Check the threshold's consistency on the extremal candidates.

    Decides exactly, with no graph built, that both split-graph candidates
    stay strictly below n+2k-2.  The complete graph needs no check: once
    n > 5k^2, its Q-index 2n-2 clears n+2k-2 and it has cycles of every
    order 3..n, which covers 3..2k+2.
    """
    stmt = "theorem1_construction_probe"
    if k < 2:
        raise ValueError(f"probe requires k >= 2, got {k}")
    if unmet := _order_unmet(stmt, n, k):
        return unmet
    threshold = n + 2 * k - 2
    rhs = float(threshold)
    snk, plus = _split_quotients(n, k)
    q, q_plus = closed_form_snk(n, k), _quotient_top(*plus)[0]
    if _quotient_sign(*snk, threshold) >= 0:
        return CheckOutcome(stmt, VIOLATED, q, rhs, None, "s_nk reaches the threshold")
    if _quotient_sign(*plus, threshold) >= 0:
        return CheckOutcome(stmt, VIOLATED, q_plus, rhs, None, "s_nk_plus reaches the threshold")
    return CheckOutcome(
        stmt, HOLDS, max(q, q_plus), rhs, None, "candidates below threshold; complete graph pancyclic to 2k+2"
    )


# --- suites ------------------------------------------------------------------


def _graph_token(g: Graph) -> str:
    try:
        return write_graph6(g)
    except ValueError:
        return repr(g)


def _tallies(statements: Sequence[str]) -> dict[str, dict[str, int]]:
    return {s: dict.fromkeys(_STATUSES, 0) for s in statements}


def _ni_draw(orders: Sequence[int], seed: int) -> tuple[dict[int, list[int]], list[int]]:
    """Graph i, of order n = orders[i], has ni sets sorted(a ^ flips[i] for a in bases[n]):
    bases[n] is every mask through 6 vertices and above, ``_NI_SAMPLE`` drawn once per
    order; flips[i] is an n-bit mask drawn in catalogue order.  A fixed XOR permutes the
    subsets, so each graph's sets are a uniform sample.  String seeds tell 3 from -3.
    Above 62 vertices, where range(1 << n) is too long to sample, the same
    generator draws n-bit masks until it has that many distinct ones."""
    bases = {}
    for n in set(orders):
        base_rng, size = random.Random(f"ni {seed} {n}"), 1 << n if n <= 6 else min(_NI_SAMPLE, 1 << n)
        if 1 << n <= sys.maxsize:
            bases[n] = sorted(base_rng.sample(range(1 << n), size))
            continue
        masks: set[int] = set()
        while len(masks) < size:
            masks.add(base_rng.getrandbits(n))
        bases[n] = sorted(masks)
    rng = random.Random(f"ni {seed}")
    return bases, [rng.getrandbits(n) for n in orders]


def _run_chunk(payload: tuple) -> tuple[dict[str, dict[str, int]], list[dict[str, Any]]]:
    """Every instance of every statement on one chunk, decided per
    (statement, k) for the whole chunk at once: its graphs, all of order n,
    come as ``Graph.rows`` tuples.  Below the least order each graph counts
    one unmet instance, or n for lemma2 and cor2.  On table graphs, whose
    rows become one [G, n] array, each ``_Opening`` is decided in numpy
    (ni's sets are ``base`` XOR each graph's flip, from ``_ni_draw``); only
    the instances it leaves open reach the rule, with ``_ABSENT``, and the
    rest the witness searches.  Rules run graph by graph, on one ``Graph``
    per graph with a rule call, then statement, k and x ascending.  Only
    the status is tallied, so where Kopylov's rule would first find the
    graph disconnected, its path's presence gives the same unmet count."""
    n, rows, statements, k_range, base, flips = payload
    if n <= _TABLE_MAX:
        bit_rows = np.array(rows, dtype=np.int64).reshape(len(rows), n)
        pairs, degrees = _held_karp(bit_rows, n), _POP[bit_rows].astype(np.int64)
    tallies = _tallies(statements)
    # read from the module at call time, so that stubs and tracers see each call
    witnesses = _Search(find_constrained_path, find_cycle_of_length)
    calls: list[tuple] = []  # (offset, statement, k, x, find) for each rule call
    for statement in statements:
        _, least, param, _, opens = _STATEMENTS[statement]
        counts = tallies[statement]
        ks = (None,) if least is None else [k for k in k_range if k >= least]
        open_ks = [k for k in ks if n >= _least_order(statement, k)]
        counts[UNMET] += (len(ks) - len(open_ks)) * len(rows) * (n if param else 1)
        if not open_ks:
            continue
        if n > _TABLE_MAX or opens is None:
            every = ([sorted(a ^ flip for a in base) for flip in flips] if param == "a"
                     else [range(n) if param else (None,)] * len(rows))
            calls += [(offset, statement, k, x, witnesses)
                      for k in open_ks for offset, xs in enumerate(every) for x in xs]
            continue
        if param == "a":  # [G, S]: each graph's translate of the base sets, their degree sums and sizes
            member = np.arange(1 << n) >> np.arange(n)[:, None] & 1  # [v, a]: v in the set a
            xs = ends = np.sort(np.array(base) ^ np.array(flips)[:, None], 1)
            lhs, size = np.take_along_axis(degrees @ member, xs, 1), member.sum(0)[xs]
        elif param == "v":  # [G, n]: lemma2's ends are every vertex but v
            xs = np.broadcast_to(np.arange(n), (len(rows), n))
            ends = (1 << n) - 1 ^ 1 << xs
        else:  # [G, 1]: one instance, ends anywhere
            xs, ends, size = np.full((len(rows), 1), None), np.full((1, 1), (1 << n) - 1), n
            lhs = degrees.sum(1, keepdims=True) // 2
        for k in open_ks:
            met = lhs > opens.rhs(n, k, size) if opens.rhs else np.ones(xs.shape, bool)
            order = opens.order(n, k)
            held = _table_cycles(pairs, order)[:, None] if opens.cycle else _table_paths(pairs, order, ends)
            counts[UNMET] += int(np.count_nonzero(~met))
            counts[HOLDS if opens.rhs else UNMET] += int(np.count_nonzero(met & held))
            rest = met & ~held
            calls += [(offset, statement, k, x, _ABSENT)
                      for offset, x in zip(np.nonzero(rest)[0].tolist(), xs[rest].tolist())]
    violating: list[dict[str, Any]] = []
    graphs = {offset: Graph(n, rows[offset]) for offset in {call[0] for call in calls}}
    for offset, statement, k, x, find in sorted(calls, key=lambda call: call[0]):
        g, spec = graphs[offset], _STATEMENTS[statement]
        outcome = spec.rule(statement, g, k, x, find)
        tallies[statement][outcome.status] += 1
        if outcome.status != VIOLATED:
            continue
        params: dict[str, Any] = {} if k is None else {"k": k}
        if spec.param:
            params[spec.param] = list(_bits(x)) if spec.param == "a" else x
        violating.append(
            {
                "statement": statement,
                "graph6": _graph_token(g),
                "params": params,
                "lhs": outcome.lhs,
                "rhs": outcome.rhs,
            }
        )
    return tallies, violating


def run_suite(
    statements: Sequence[str],
    n_max: int | None = None,
    k_range: Sequence[int] = (1, 2, 3),
    corpus: Sequence[Graph] | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> SuiteReport:
    """Apply statements to every enumerated (or supplied) graph instance.

    Without a corpus, graphs are the exhaustive isomorph-free catalog for
    every order 1..n_max.  ``seed`` seeds ni's vertex sets above 6 vertices,
    ``_NI_SAMPLE`` per graph (every set below): ``_ni_draw`` takes one sample
    per order and XORs it with a mask drawn per graph in catalogue order, so
    the report is the same for any worker count and chunk size.  A statement
    or k given twice runs once, in the order of its first occurrence.
    """
    statements = tuple(dict.fromkeys(statements))
    for statement in statements:
        if statement not in SUITE_STATEMENTS:
            raise ValueError(
                f"unknown suite statement {statement!r}; choose from "
                f"{', '.join(SUITE_STATEMENTS)}"
            )
    ks = sorted(set(int(k) for k in k_range))
    for statement in statements:
        least = _STATEMENTS[statement].min_k
        if least is not None and not any(k >= least for k in ks):
            raise ValueError(
                f"suite statement {statement!r} needs some k >= {least}, got k in {ks}"
            )
    if corpus is not None:
        if n_max is not None:
            raise ValueError("give n_max or corpus, not both")
        rows = [g.rows for g in corpus]
    else:
        if n_max is None:
            raise ValueError("n_max is required when no corpus is given")
        if not 1 <= n_max <= ENUMERATE_MAX:
            raise ValueError(f"native enumeration needs 1 <= n_max <= {ENUMERATE_MAX}, got {n_max}")
        rows = [row for n in range(1, n_max + 1) for row in zip(*_rows(n, _nonisomorphic_codes(n)).T.tolist())]
    orders = [len(row) for row in rows]  # a graph's rows tuple has one entry per vertex
    bases, flips = _ni_draw(orders, seed) if "ni" in statements else ({}, [])
    # chunks [i, j): runs of one order, cut every _CHUNK_SIZE graphs
    cuts = [0, *(i for i in range(1, len(orders)) if orders[i] != orders[i - 1]), len(orders)]
    spans = [(i, min(i + _CHUNK_SIZE, end))
             for start, end in zip(cuts, cuts[1:]) for i in range(start, end, _CHUNK_SIZE)]
    payloads = [(orders[i], rows[i:j], statements, tuple(ks), bases.get(orders[i]), flips[i:j]) for i, j in spans]
    if jobs > 1 and len(payloads) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            partials = list(pool.map(_run_chunk, payloads))
    else:
        partials = [_run_chunk(p) for p in payloads]

    by_statement = _tallies(statements)
    violating: list[dict[str, Any]] = []
    for tallies, chunk_violating in partials:
        for statement, counts in tallies.items():
            for status, count in counts.items():
                by_statement[statement][status] += count
        violating.extend(chunk_violating)
    totals = {status: sum(c[status] for c in by_statement.values()) for status in _STATUSES}
    return SuiteReport(
        statements=statements,
        instances=sum(totals.values()),
        holds=totals[HOLDS],
        equality=totals[EQUALITY],
        violated=totals[VIOLATED],
        precondition_unmet=totals[UNMET],
        indeterminate=totals[INDETERMINATE],
        violating=violating,
        by_statement=by_statement,
    )
