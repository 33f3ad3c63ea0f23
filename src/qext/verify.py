"""Mechanical checkers turning bound statements into pass/fail verdicts.

Each checker evaluates one statement on a concrete instance and reports
holds / equality_case / violated / precondition_unmet / indeterminate with
the numeric pair behind the verdict and, where applicable, a structural
witness.  Hypothesis failures are always reported as precondition_unmet,
never silently as holds; spectral thresholds go through certified
comparisons and may come back indeterminate.  ``_STATEMENTS`` declares
each statement once: its checker, the least k it accepts and its suite
sweep, which tallies all of the statement's instances on one graph from
presence queries, building no witness; every spectral threshold is decided
by ``_threshold``.

Statement tags
--------------
egp          no path on k+2 vertices  =>  e <= kn/2 (equality: disjoint
             (k+1)-cliques)
egc          no cycle on more than k vertices  =>  e <= k(n-1)/2 (equality:
             connected, every biconnected block a k-clique)
kopylov_i    connected, n >= 2k+2, no path on 2k+2 vertices => edge bound
kopylov_ii   connected, n >= 2k+3, no path on 2k+3 vertices => edge bound
ore          e > C(n-1,2)+1  =>  Hamiltonian cycle
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
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .bounds import kopylov_i_value, kopylov_ii_value, ore_edge_threshold, prop1_sandwich
from .enumeration import enumerate_nonisomorphic, write_graph6
from .families import complete, corollary1_graph, s_nk, s_nk_plus
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
from .spectral import certified_compare, q_index
from .subgraphs import (
    DEFAULT_NODE_BUDGET,
    EndpointConstraint,
    find_constrained_path,
    find_cycle_of_length,
    has_cycle,
    has_cycle_longer,
    has_cycle_longer_than,
    has_path,
    is_hamiltonian,
)

HOLDS = "holds"
EQUALITY = "equality_case"
VIOLATED = "violated"
UNMET = "precondition_unmet"
INDETERMINATE = "indeterminate"

SPECTRAL_EQ_TOL = 1e-9
_TOL = 1e-10  # default q_index tolerance of every spectral check
_STATUSES = (HOLDS, EQUALITY, VIOLATED, UNMET, INDETERMINATE)


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
    if len(blks) <= 1:
        return True
    common = set(blks[0])
    for blk in blks[1:]:
        common &= set(blk)
    return len(common) == 1


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


# --- individual checkers -----------------------------------------------------
# Each takes (statement, g, k, params, node_budget); check_statement has
# already checked k against the statement's minimum and that g is given.
# What a checker shares with its suite sweep (its hypothesis, sides and
# status rule) sits in the helpers beside it.  The checker hands them the
# witness it searched for; the sweep asks has_path / has_cycle instead and
# hands them nothing when the answer is no.


def _tol(params: dict[str, Any]) -> float:
    return float(params.get("tol", _TOL))


def _order_limit(k: int) -> int:
    """Theorem 1 and Proposition 1 assume n > 5k^2, as the paper states."""
    return 5 * k * k


def _order_unmet(stmt: str, n: int, k: int) -> CheckOutcome | None:
    """Lemma 3 and Corollaries 1 and 2 assume n >= 6k+13."""
    least = 6 * k + 13
    if n >= least:
        return None
    return CheckOutcome(stmt, UNMET, 0.0, float(n + 2 * k - 2), None, f"order {n} < {least}")


def _components_off_2k(g: Graph, k: int) -> list[tuple[tuple[int, ...], float, float]]:
    """(vertices, e(H), (k-1)v(H)) for each component H of g whose order is
    not 2k: Lemma 1 and Corollary 2 bound e(H) by (k-1)v(H) on these."""
    return [
        (comp, float(edges_within(g, mask_of(comp))), float((k - 1) * len(comp)))
        for comp in components(g)
        if len(comp) != 2 * k
    ]


def _threshold(g: Graph, threshold: float, tol: float) -> tuple[float, str]:
    """q(g) and its certified verdict against ``threshold``: "lt", "eq"
    (at or above it by at most SPECTRAL_EQ_TOL), "gt" or "indeterminate"."""
    result = q_index(g, tol=tol)
    cmp = certified_compare(result, threshold)
    if cmp.verdict == "ge":
        return result.q, "eq" if cmp.margin <= SPECTRAL_EQ_TOL else "gt"
    return result.q, cmp.verdict


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


def _egp_outcome(stmt: str, g: Graph, k: int, witness: tuple | None = None) -> CheckOutcome:
    """egp given the path on k+2 vertices found, if any."""
    lhs, rhs = g.m, k * g.n / 2
    if witness is not None:
        return CheckOutcome(stmt, UNMET, lhs, rhs, witness, f"contains a path on {k + 2} vertices")
    if 2 * g.m == k * g.n and not is_disjoint_cliques(g, k + 1):
        return CheckOutcome(
            stmt, VIOLATED, lhs, rhs, None, "equality without the disjoint-clique structure"
        )
    return _bound(stmt, lhs, rhs, "disjoint cliques")


def _check_egp(stmt: str, g: Graph, k: int, params: dict[str, Any], budget: int) -> CheckOutcome:
    return _egp_outcome(stmt, g, k, find_constrained_path(g, k + 2, node_budget=budget))


def _egc_outcome(stmt: str, g: Graph, k: int, witness: tuple | None = None) -> CheckOutcome:
    """egc given the cycle on more than k vertices found, if any."""
    lhs, rhs = g.m, k * (g.n - 1) / 2
    if witness is not None:
        return CheckOutcome(
            stmt, UNMET, lhs, rhs, witness, f"contains a cycle on {len(witness)} > {k} vertices"
        )
    if 2 * g.m != k * (g.n - 1):
        return _bound(stmt, lhs, rhs)
    if not is_complete_block_graph(g, k):
        return CheckOutcome(
            stmt, VIOLATED, lhs, rhs, None, "equality without the clique-block structure"
        )
    hub = ", single hub" if has_single_hub(g) else ""
    return CheckOutcome(stmt, EQUALITY, lhs, rhs, None, "clique blocks" + hub)


def _check_egc(stmt: str, g: Graph, k: int, params: dict[str, Any], budget: int) -> CheckOutcome:
    return _egc_outcome(stmt, g, k, has_cycle_longer_than(g, k, node_budget=budget))


def _kopylov_hypothesis(stmt: str, g: Graph, k: int) -> tuple[int, float, str]:
    """The order of the forbidden path, the edge bound, and the note of the
    hypothesis that fails before any search ("" when none does)."""
    # kopylov_i forbids paths on 2k+2 vertices, kopylov_ii on 2k+3; each
    # needs at least that many vertices
    if stmt == "kopylov_i":
        order, bound = 2 * k + 2, kopylov_i_value(g.n, k)
    else:
        order, bound = 2 * k + 3, kopylov_ii_value(g.n, k)
    if not is_connected(g):
        return order, float(bound), "not connected"
    return order, float(bound), f"order {g.n} < {order}" if g.n < order else ""


def _check_kopylov(
    stmt: str, g: Graph, k: int, params: dict[str, Any], budget: int
) -> CheckOutcome:
    order, rhs, unmet = _kopylov_hypothesis(stmt, g, k)
    if unmet:
        return CheckOutcome(stmt, UNMET, g.m, rhs, None, unmet)
    witness = find_constrained_path(g, order, node_budget=budget)
    if witness is not None:
        return CheckOutcome(stmt, UNMET, g.m, rhs, witness, f"contains a path on {order} vertices")
    return _bound(stmt, g.m, rhs)


def _ore_hypothesis(stmt: str, g: Graph) -> tuple[float, CheckOutcome | None]:
    """Ore's edge threshold, and the outcome when g does not exceed it."""
    if g.n < 3:
        return 0.0, CheckOutcome(stmt, UNMET, g.m, 0.0, None, "order < 3")
    threshold = float(ore_edge_threshold(g.n))
    if g.m <= threshold:
        return threshold, CheckOutcome(
            stmt, UNMET, g.m, threshold, None, "edge count not above threshold"
        )
    return threshold, None


def _ore_status(found: object) -> str:
    """ore's status once g has more edges than the threshold: holds exactly
    when a Hamiltonian cycle was found."""
    return HOLDS if found else VIOLATED


def _check_ore(stmt: str, g: Graph, k: None, params: dict[str, Any], budget: int) -> CheckOutcome:
    threshold, unmet = _ore_hypothesis(stmt, g)
    if unmet:
        return unmet
    witness = is_hamiltonian(g, node_budget=budget)
    status = _ore_status(witness)
    note = "no Hamiltonian cycle" if status == VIOLATED else ""
    return CheckOutcome(stmt, status, g.m, threshold, witness, note)


def _ni_rhs(n: int, k: int, size_a: int) -> int:
    """(2k-1)|A| + k|B|; the left side 2e(A) + e(A,B) counts each edge at
    its ends in A, so it is the degree sum over A."""
    return (2 * k - 1) * size_a + k * (n - size_a)


def _ni_met(
    n: int, k: int, sets: Iterable[tuple[int, int, int]], search: Callable[[int], Any]
) -> Iterator[tuple[int, int, int, str, Any]]:
    """ni's status rule over vertex sets A, each given as (mask, degree sum,
    |A|).  A set is precondition_unmet unless its degree sum lhs exceeds
    rhs.  For each set where it does, in order, this yields (mask, lhs, rhs,
    status, found); the status is holds exactly when ``search(mask)`` finds
    a path on 2k+1 vertices with both ends in A, and violated otherwise."""
    rhs_of = [_ni_rhs(n, k, size) for size in range(n + 1)]
    for mask, lhs, size in sets:
        rhs = rhs_of[size]
        if lhs > rhs:
            found = search(mask)
            yield mask, lhs, rhs, (HOLDS if found else VIOLATED), found


def _check_ni(stmt: str, g: Graph, k: int, params: dict[str, Any], budget: int) -> CheckOutcome:
    if "a" not in params:
        raise ValueError("missing parameter 'a' (vertex set A of the partition)")
    a_vertices = sorted(set(map(int, params["a"])))
    lhs = a_mask = 0
    for v in a_vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"partition vertex {v} out of range")
        lhs += g.degrees[v]
        a_mask |= 1 << v
    if "b" in params and params["b"] is not None:
        b_vertices = sorted(set(int(v) for v in params["b"]))
        if sorted(a_vertices + b_vertices) != list(range(g.n)):
            raise ValueError("(a, b) must partition the vertex set")

    def search(mask: int) -> tuple[int, ...] | None:
        return find_constrained_path(
            g, 2 * k + 1, EndpointConstraint(members=mask), node_budget=budget
        )

    rhs = _ni_rhs(g.n, k, len(a_vertices))
    for _, _, _, status, witness in _ni_met(g.n, k, [(a_mask, lhs, len(a_vertices))], search):
        note = f"no path on {2 * k + 1} vertices with both ends in A" if status == VIOLATED else ""
        return CheckOutcome(stmt, status, lhs, rhs, witness, note)
    return CheckOutcome(stmt, UNMET, lhs, rhs, None, "weighted edge count not above threshold")


def _lemma1_outcome(stmt: str, g: Graph, k: int, witness: tuple | None = None) -> CheckOutcome:
    """lemma1 given the path on 2k+1 vertices found, if any."""
    if witness is not None:
        return CheckOutcome(
            stmt, UNMET, 0.0, 0.0, witness, f"contains a path on {2 * k + 1} vertices"
        )
    rows = _components_off_2k(g, k)
    for comp, lhs, rhs in rows:
        if lhs > rhs:
            return CheckOutcome(
                stmt,
                VIOLATED,
                lhs,
                rhs,
                comp,
                f"component of order {len(comp)} with {int(lhs)} edges",
            )
    if not rows:
        return CheckOutcome(stmt, HOLDS, 0.0, 0.0, None, "all components have order 2k")
    _, lhs, rhs = max(rows, key=lambda row: row[1] - row[2])
    return CheckOutcome(stmt, HOLDS, lhs, rhs)


def _check_lemma1(
    stmt: str, g: Graph, k: int, params: dict[str, Any], budget: int
) -> CheckOutcome:
    return _lemma1_outcome(stmt, g, k, find_constrained_path(g, 2 * k + 1, node_budget=budget))


def _lemma2_outcome(
    stmt: str, g: Graph, k: int, v: int, witness: tuple | None = None
) -> CheckOutcome:
    """lemma2 given the path on 2k+1 vertices avoiding v at both ends found,
    if any."""
    if witness is not None:
        return CheckOutcome(
            stmt,
            UNMET,
            0.0,
            0.0,
            witness,
            f"contains a path on {2 * k + 1} vertices avoiding v at both ends",
        )
    lhs = float(2 * g.m - g.degrees[v])
    rhs = float((2 * k - 1) * (g.n - 1))
    if lhs > rhs and matches_lemma2_exception(g, k, v):
        return CheckOutcome(stmt, HOLDS, lhs, rhs, None, "exceptional clique-plus-pendant family")
    return _bound(stmt, lhs, rhs, above="bound exceeded outside the exceptional family")


def _check_lemma2(stmt: str, g: Graph, k: int, params: dict[str, Any], budget: int) -> CheckOutcome:
    if "v" not in params:
        raise ValueError("missing parameter 'v'")
    v = int(params["v"])
    if not 0 <= v < g.n:
        raise ValueError(f"vertex v={v} out of range")
    witness = find_constrained_path(
        g, 2 * k + 1, EndpointConstraint.ends_avoid(v), node_budget=budget
    )
    return _lemma2_outcome(stmt, g, k, v, witness)


def _check_lemma3(
    stmt: str, g_unused: None, k: int, params: dict[str, Any], budget: int
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
    tol = _tol(params)
    n = 2 * k * p + h.n
    for a in attachment:
        if not 0 <= a < 2 * k * p:
            raise ValueError(f"attachment index {a} outside the block range")
    threshold_g = float(n + 2 * k - 2)
    unmet = _order_unmet(stmt, n, k)
    if unmet:
        return unmet
    threshold_h = h.n + 2 * k - 2 + 6.0 * p * k / (n + 3)
    q, hypothesis = _threshold(h, threshold_h, tol)
    if hypothesis == "indeterminate":
        return CheckOutcome(stmt, INDETERMINATE, q, threshold_h, None, "hypothesis not certifiable")
    if hypothesis == "gt":
        return CheckOutcome(stmt, UNMET, q, threshold_h, None, "hypothesis bound on q(h) fails")
    base = disjoint_union(list(f_blocks) + [h])
    edges = list(base.edges()) + [(a, 2 * k * p + w) for a in attachment]
    q, conclusion = _threshold(build_graph(n, edges), threshold_g, tol)
    if conclusion == "lt":
        return CheckOutcome(stmt, HOLDS, q, threshold_g)
    if conclusion == "indeterminate":
        return CheckOutcome(stmt, INDETERMINATE, q, threshold_g, None, "conclusion not certifiable")
    if conclusion == "eq":
        note = "equality" + (", hypothesis also at equality" if hypothesis == "eq" else "")
        return CheckOutcome(stmt, EQUALITY, q, threshold_g, None, note)
    return CheckOutcome(stmt, VIOLATED, q, threshold_g)


def _q_strictly_below(stmt: str, g: Graph, k: int, tol: float) -> CheckOutcome:
    """The corollaries' conclusion q(g) < n+2k-2, certified."""
    threshold = float(g.n + 2 * k - 2)
    q, verdict = _threshold(g, threshold, tol)
    if verdict == "lt":
        return CheckOutcome(stmt, HOLDS, q, threshold)
    if verdict == "indeterminate":
        return CheckOutcome(stmt, INDETERMINATE, q, threshold, None, "not certifiable")
    return CheckOutcome(stmt, VIOLATED, q, threshold)


def _check_cor1(
    stmt: str, g_unused: None, k: int, params: dict[str, Any], budget: int
) -> CheckOutcome:
    if "p" not in params:
        raise ValueError("missing parameter 'p'")
    p = int(params["p"])
    tol = _tol(params)
    g = corollary1_graph(k, p)
    return _order_unmet(stmt, g.n, k) or _q_strictly_below(stmt, g, k, tol)


def _cor2_outcome(stmt: str, g: Graph, k: int, w: int, tol: float) -> CheckOutcome:
    unmet = _order_unmet(stmt, g.n, k)
    if unmet:
        return unmet
    rest = [v for v in range(g.n) if v != w]
    for comp, lhs, rhs in _components_off_2k(g.induced(rest), k):
        if lhs > rhs:
            return CheckOutcome(
                stmt,
                UNMET,
                lhs,
                rhs,
                tuple(rest[v] for v in comp),
                "component condition on G - w fails",
            )
    return _q_strictly_below(stmt, g, k, tol)


def _check_cor2(stmt: str, g: Graph, k: int, params: dict[str, Any], budget: int) -> CheckOutcome:
    if "w" not in params:
        raise ValueError("missing parameter 'w'")
    w = int(params["w"])
    if not 0 <= w < g.n:
        raise ValueError(f"vertex w={w} out of range")
    return _cor2_outcome(stmt, g, k, w, _tol(params))


def _theorem1_hypothesis(stmt: str, g: Graph, k: int, tol: float) -> CheckOutcome:
    """The outcome when q >= n+2k-2 with n > 5k^2 fails or cannot be
    certified; otherwise a holds outcome for the cycles to decide."""
    n = g.n
    threshold = float(n + 2 * k - 2)
    if n <= _order_limit(k):
        return CheckOutcome(stmt, UNMET, 0.0, threshold, None, f"order {n} <= {_order_limit(k)}")
    q, verdict = _threshold(g, threshold, tol)
    if verdict == "lt":
        return CheckOutcome(stmt, UNMET, q, threshold, None, "q below the threshold")
    if verdict == "indeterminate":
        return CheckOutcome(stmt, INDETERMINATE, q, threshold, None, "hypothesis not certifiable")
    return CheckOutcome(stmt, HOLDS, q, threshold)


def _cycle_lengths(stmt: str, k: int) -> Sequence[int]:
    """theorem1 asks for cycles on 2k+1 and 2k+2 vertices, its corollary
    for every order 3..2k+2."""
    return range(3, 2 * k + 3) if stmt == "theorem1_corollary" else (2 * k + 1, 2 * k + 2)


def _check_theorem1(
    stmt: str, g: Graph, k: int, params: dict[str, Any], budget: int
) -> CheckOutcome:
    outcome = _theorem1_hypothesis(stmt, g, k, _tol(params))
    if outcome.status != HOLDS:
        return outcome
    witnesses = []
    for length in _cycle_lengths(stmt, k):
        witness = find_cycle_of_length(g, length, node_budget=budget)
        if witness is None:
            return replace(outcome, status=VIOLATED, note=f"no cycle on {length} vertices")
        witnesses.append(witness)
    return replace(outcome, witness=witnesses[0])


# --- suite sweeps ---------------------------------------------------------------
# Each tallies every suite instance of one statement on one graph into
# ``counts`` and yields (params, lhs, rhs) for each violated one, in
# instance order: k by k, and within a k vertex by vertex or set by set.
# Presence comes from has_path / has_cycle, which build no witness.  The
# per-instance rules that _each_k and _each_vertex run may return None for
# precondition_unmet, the common case, and return the outcome otherwise.

_Violation = tuple[dict[str, Any], float, float]
_Sweep = Callable[[str, Graph, Sequence[int], dict[str, int], int], Iterator[_Violation]]


def _each_k(rule: Callable[[str, Graph, int, int], CheckOutcome | None]) -> _Sweep:
    """The sweep over instances {"k": k} of rule(stmt, g, k, budget)."""

    def sweep(stmt, g, ks, counts, budget):
        for k in ks:
            outcome = rule(stmt, g, k, budget)
            status = UNMET if outcome is None else outcome.status
            counts[status] += 1
            if status == VIOLATED:
                yield {"k": k}, outcome.lhs, outcome.rhs

    return sweep


def _each_vertex(name: str, rule: Callable[..., CheckOutcome | None]) -> _Sweep:
    """The sweep over instances {"k": k, name: v} of rule(stmt, g, k, v, budget)."""

    def sweep(stmt, g, ks, counts, budget):
        for k in ks:
            for v in range(g.n):
                outcome = rule(stmt, g, k, v, budget)
                status = UNMET if outcome is None else outcome.status
                counts[status] += 1
                if status == VIOLATED:
                    yield {"k": k, name: v}, outcome.lhs, outcome.rhs

    return sweep


def _egp(stmt: str, g: Graph, k: int, budget: int) -> CheckOutcome | None:
    return None if has_path(g, k + 2, -1, budget) else _egp_outcome(stmt, g, k)


def _egc(stmt: str, g: Graph, k: int, budget: int) -> CheckOutcome | None:
    return None if has_cycle_longer(g, k, budget) else _egc_outcome(stmt, g, k)


def _kopylov(stmt: str, g: Graph, k: int, budget: int) -> CheckOutcome | None:
    order, rhs, unmet = _kopylov_hypothesis(stmt, g, k)
    if unmet or has_path(g, order, -1, budget):
        return None
    return _bound(stmt, g.m, rhs)


def _lemma1(stmt: str, g: Graph, k: int, budget: int) -> CheckOutcome | None:
    return None if has_path(g, 2 * k + 1, -1, budget) else _lemma1_outcome(stmt, g, k)


def _lemma2(stmt: str, g: Graph, k: int, v: int, budget: int) -> CheckOutcome | None:
    return None if has_path(g, 2 * k + 1, ~(1 << v), budget) else _lemma2_outcome(stmt, g, k, v)


def _cor2(stmt: str, g: Graph, k: int, w: int, budget: int) -> CheckOutcome:
    return _cor2_outcome(stmt, g, k, w, _TOL)


def _theorem1(stmt: str, g: Graph, k: int, budget: int) -> CheckOutcome:
    outcome = _theorem1_hypothesis(stmt, g, k, _TOL)
    if outcome.status != HOLDS or all(has_cycle(g, l, budget) for l in _cycle_lengths(stmt, k)):
        return outcome
    return replace(outcome, status=VIOLATED)


def _sweep_ore(stmt, g, ks, counts, budget):
    """The one instance {} of ore."""
    threshold, unmet = _ore_hypothesis(stmt, g)
    status = UNMET if unmet else _ore_status(has_cycle(g, g.n, budget))
    counts[status] += 1
    if status == VIOLATED:
        yield {}, g.m, threshold


def _ni_masks(n: int, rng_seed: int, ni_sample: int) -> Sequence[int]:
    """ni's vertex sets A, as masks: every set through 6 vertices; above, a
    sorted sample of ``ni_sample`` sets drawn by ``random.Random(rng_seed)``."""
    if n <= 6:
        return range(1 << n)
    rng = random.Random(rng_seed)
    return sorted(rng.sample(range(1 << n), min(ni_sample, 1 << n)))


def _sweep_ni(stmt, g, ks, counts, budget, masks):
    """Instances {"k": k, "a": A} for every vertex set A in ``masks``; the
    same sets for every k."""
    n, degrees = g.n, g.degrees
    sets = [(mask, sum(degrees[v] for v in _bits(mask)), mask.bit_count()) for mask in masks]
    for k in ks:
        met = 0
        search = partial(has_path, g, 2 * k + 1, node_budget=budget)
        for mask, lhs, rhs, status, _ in _ni_met(n, k, sets, search):
            met += 1
            counts[status] += 1
            if status == VIOLATED:
                yield {"k": k, "a": list(_bits(mask))}, lhs, rhs
        counts[UNMET] += len(sets) - met


class _Statement(NamedTuple):
    check: Callable[..., CheckOutcome]
    min_k: int | None
    sweep: Callable[..., Iterator[_Violation]] | None


# Every statement, declared once, in STATEMENTS order: its checker, the least
# k it accepts (None: it takes no k) and its suite sweep (None: the checker
# builds its own graph, so it takes no graph and runs in no suite).
_STATEMENTS: dict[str, _Statement] = {
    "egp": _Statement(_check_egp, 1, _each_k(_egp)),
    "egc": _Statement(_check_egc, 2, _each_k(_egc)),
    "kopylov_i": _Statement(_check_kopylov, 1, _each_k(_kopylov)),
    "kopylov_ii": _Statement(_check_kopylov, 1, _each_k(_kopylov)),
    "ore": _Statement(_check_ore, None, _sweep_ore),
    "ni": _Statement(_check_ni, 1, _sweep_ni),
    "lemma1": _Statement(_check_lemma1, 1, _each_k(_lemma1)),
    "lemma2": _Statement(_check_lemma2, 1, _each_vertex("v", _lemma2)),
    "cor2": _Statement(_check_cor2, 2, _each_vertex("w", _cor2)),
    "theorem1": _Statement(_check_theorem1, 2, _each_k(_theorem1)),
    "theorem1_corollary": _Statement(_check_theorem1, 2, _each_k(_theorem1)),
    "lemma3": _Statement(_check_lemma3, 2, None),
    "cor1": _Statement(_check_cor1, 2, None),
}

STATEMENTS = tuple(_STATEMENTS)
SUITE_STATEMENTS = tuple(s for s, spec in _STATEMENTS.items() if spec.sweep)


def check_statement(
    statement: str,
    g: Graph | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    **params: Any,
) -> CheckOutcome:
    """Evaluate one statement on one instance.

    ``lemma3`` and ``cor1`` build their own graph from parameters and ignore
    ``g``; every other statement requires it.  ``k`` is checked here against
    the statement's minimum in ``_STATEMENTS``.
    """
    spec = _STATEMENTS.get(statement)
    if spec is None:
        raise ValueError(
            f"unknown statement {statement!r}; known: {', '.join(sorted(_STATEMENTS))}"
        )
    if spec.sweep and g is None:
        raise ValueError(f"statement {statement!r} requires a graph")
    k = None
    if spec.min_k is not None:
        if "k" not in params:
            raise ValueError("missing parameter 'k'")
        k = int(params["k"])
        if k < spec.min_k:
            raise ValueError(f"parameter k must be >= {spec.min_k}, got {k}")
    return spec.check(statement, g, k, params, node_budget)


def prop1_sandwich_check(n: int, k: int, tol: float = _TOL) -> list[CheckOutcome]:
    """Certified check of the strict chain
    lower(n,k) < q(s_nk) < q(s_nk_plus) < upper(n,k).

    Returns one outcome per strict inequality, or a single
    precondition_unmet outcome when k < 2 or n <= 5k^2.
    """
    if k < 2 or n <= _order_limit(k):
        return [
            CheckOutcome(
                "prop1",
                UNMET,
                0.0,
                0.0,
                None,
                f"requires k >= 2 and n > 5k^2, got n={n}, k={k}",
            )
        ]
    lower, upper = prop1_sandwich(n, k)
    rs = q_index(s_nk(n, k), tol=tol)
    rsp = q_index(s_nk_plus(n, k), tol=tol)
    outcomes = []

    def strict(statement: str, lhs: float, lhs_err: float, rhs: float, rhs_err: float) -> CheckOutcome:
        # lhs < rhs, certified against both residuals
        if lhs + lhs_err < rhs - rhs_err:
            return CheckOutcome(statement, HOLDS, lhs, rhs)
        if lhs - lhs_err > rhs + rhs_err:
            return CheckOutcome(statement, VIOLATED, lhs, rhs)
        return CheckOutcome(statement, INDETERMINATE, lhs, rhs, None, "intervals overlap")

    outcomes.append(strict("prop1_lower", lower, 0.0, rs.q, rs.residual))
    outcomes.append(strict("prop1_between", rs.q, rs.residual, rsp.q, rsp.residual))
    outcomes.append(strict("prop1_upper", rsp.q, rsp.residual, upper, 0.0))
    return outcomes


def theorem1_construction_probe(n: int, k: int, tol: float = _TOL) -> CheckOutcome:
    """Check the threshold's consistency on the extremal candidates.

    Verifies (certified) that both split-graph candidates stay strictly
    below n+2k-2.  The complete graph needs no check: once n > 5k^2, its
    Q-index 2n-2 clears n+2k-2 and it has cycles of every order 3..n,
    which covers 3..2k+2.
    """
    stmt = "theorem1_construction_probe"
    if k < 2:
        raise ValueError(f"probe requires k >= 2, got {k}")
    threshold = float(n + 2 * k - 2)
    if n <= _order_limit(k):
        return CheckOutcome(
            stmt, UNMET, 0.0, threshold, None, f"order {n} <= {_order_limit(k)}"
        )
    worst_q = 0.0
    for label, graph in (("s_nk", s_nk(n, k)), ("s_nk_plus", s_nk_plus(n, k))):
        q, verdict = _threshold(graph, threshold, tol)
        worst_q = max(worst_q, q)
        if verdict == "indeterminate":
            return CheckOutcome(
                stmt, INDETERMINATE, q, threshold, None, f"{label} not certifiable"
            )
        if verdict != "lt":
            return CheckOutcome(
                stmt, VIOLATED, q, threshold, None, f"{label} reaches the threshold"
            )
    return CheckOutcome(
        stmt, HOLDS, worst_q, threshold, None, "candidates below threshold; complete graph pancyclic to 2k+2"
    )


# --- suites ------------------------------------------------------------------


def _graph_token(g: Graph) -> str:
    try:
        return write_graph6(g)
    except ValueError:
        return repr(g)


def _tallies(statements: Sequence[str]) -> dict[str, dict[str, int]]:
    return {s: dict.fromkeys(_STATUSES, 0) for s in statements}


def _run_chunk(payload: tuple) -> tuple[dict[str, dict[str, int]], list[dict[str, Any]]]:
    graphs, start_index, statements, k_range, seed, ni_sample, node_budget = payload
    tallies = _tallies(statements)
    violating: list[dict[str, Any]] = []
    sweeps = []
    for statement in statements:
        _, least, sweep = _STATEMENTS[statement]
        ks = k_range if least is None else [k for k in k_range if k >= least]
        sweeps.append((statement, sweep, ks, tallies[statement]))
    for offset, g in enumerate(graphs):
        for statement, sweep, ks, counts in sweeps:
            if sweep is _sweep_ni:  # the one sweep that samples, seeded per graph
                masks = _ni_masks(g.n, seed * 1_000_003 + start_index + offset, ni_sample)
                violations = _sweep_ni(statement, g, ks, counts, node_budget, masks)
            else:
                violations = sweep(statement, g, ks, counts, node_budget)
            for params, lhs, rhs in violations:
                violating.append(
                    {
                        "statement": statement,
                        "graph6": _graph_token(g),
                        "params": params,
                        "lhs": lhs,
                        "rhs": rhs,
                    }
                )
    return tallies, violating


def run_suite(
    statements: Sequence[str],
    n_max: int | None = None,
    k_range: Sequence[int] = (1, 2, 3),
    corpus: Sequence[Graph] | None = None,
    ni_sample: int = 50,
    seed: int = 0,
    jobs: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SuiteReport:
    """Apply statements to every enumerated (or supplied) graph instance.

    Without a corpus, graphs are the exhaustive isomorph-free catalog for
    every order 1..n_max.  Aggregation is deterministic in canonical order
    regardless of the worker count.  A statement or k given twice runs
    once, in the order of its first occurrence.
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
        graphs = list(corpus)
    else:
        if n_max is None:
            raise ValueError("n_max is required when no corpus is given")
        if not 1 <= n_max <= 8:
            raise ValueError(f"native enumeration needs 1 <= n_max <= 8, got {n_max}")
        graphs = [g for n in range(1, n_max + 1) for g in enumerate_nonisomorphic(n)]

    chunk_size = 32
    payloads = [
        (
            graphs[i : i + chunk_size],
            i,
            statements,
            tuple(ks),
            seed,
            ni_sample,
            node_budget,
        )
        for i in range(0, len(graphs), chunk_size)
    ]
    if jobs > 1 and len(payloads) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
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
