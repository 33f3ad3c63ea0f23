"""Mechanical checkers turning bound statements into pass/fail verdicts.

Each checker evaluates one statement on a concrete instance and reports
holds / equality_case / violated / precondition_unmet / indeterminate with
the numeric pair behind the verdict and, where applicable, a structural
witness.  Hypothesis failures are always reported as precondition_unmet,
never silently as holds; spectral thresholds go through certified
comparisons and may come back indeterminate.

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
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .bounds import kopylov_i_value, kopylov_ii_value, ore_edge_threshold
from .enumeration import enumerate_nonisomorphic, write_graph6
from .families import complete, corollary1_graph
from .graph import (
    Graph,
    blocks,
    build_graph,
    components,
    disjoint_union,
    edges_between,
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
    has_cycle_longer_than,
    is_hamiltonian,
)

HOLDS = "holds"
EQUALITY = "equality_case"
VIOLATED = "violated"
UNMET = "precondition_unmet"
INDETERMINATE = "indeterminate"

SPECTRAL_EQ_TOL = 1e-9

SUITE_STATEMENTS = (
    "egp",
    "egc",
    "kopylov_i",
    "kopylov_ii",
    "ore",
    "ni",
    "lemma1",
    "lemma2",
    "cor2",
    "theorem1",
    "theorem1_corollary",
)

STATEMENTS = SUITE_STATEMENTS + ("lemma3", "cor1")


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
    if g.n == 1:
        return True
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


def _order_limit(k: int) -> int:
    """Theorem 1 and Proposition 1 assume n > 5k^2, as the paper states."""
    return 5 * k * k


def _require_k(params: dict[str, Any], minimum: int) -> int:
    if "k" not in params:
        raise ValueError("missing parameter 'k'")
    k = int(params["k"])
    if k < minimum:
        raise ValueError(f"parameter k must be >= {minimum}, got {k}")
    return k


def _check_egp(g: Graph, params: dict[str, Any], budget: int) -> CheckOutcome:
    k = _require_k(params, 1)
    witness = find_constrained_path(g, k + 2, node_budget=budget)
    if witness is not None:
        return CheckOutcome(
            "egp", UNMET, g.m, k * g.n / 2, witness, f"contains a path on {k + 2} vertices"
        )
    lhs, rhs = g.m, k * g.n / 2
    if 2 * g.m < k * g.n:
        return CheckOutcome("egp", HOLDS, lhs, rhs)
    if 2 * g.m == k * g.n:
        if is_disjoint_cliques(g, k + 1):
            return CheckOutcome("egp", EQUALITY, lhs, rhs, None, "disjoint cliques")
        return CheckOutcome(
            "egp", VIOLATED, lhs, rhs, None, "equality without the disjoint-clique structure"
        )
    return CheckOutcome("egp", VIOLATED, lhs, rhs)


def _check_egc(g: Graph, params: dict[str, Any], budget: int) -> CheckOutcome:
    k = _require_k(params, 2)
    witness = has_cycle_longer_than(g, k, node_budget=budget)
    if witness is not None:
        return CheckOutcome(
            "egc",
            UNMET,
            g.m,
            k * (g.n - 1) / 2,
            witness,
            f"contains a cycle on {len(witness)} > {k} vertices",
        )
    lhs, rhs = g.m, k * (g.n - 1) / 2
    if 2 * g.m < k * (g.n - 1):
        return CheckOutcome("egc", HOLDS, lhs, rhs)
    if 2 * g.m == k * (g.n - 1):
        if is_complete_block_graph(g, k):
            note = "clique blocks"
            if has_single_hub(g):
                note += ", single hub"
            return CheckOutcome("egc", EQUALITY, lhs, rhs, None, note)
        return CheckOutcome(
            "egc", VIOLATED, lhs, rhs, None, "equality without the clique-block structure"
        )
    return CheckOutcome("egc", VIOLATED, lhs, rhs)


def _check_kopylov(
    g: Graph, params: dict[str, Any], budget: int, variant: str
) -> CheckOutcome:
    k = _require_k(params, 1)
    if variant == "kopylov_i":
        min_n, order, bound = 2 * k + 2, 2 * k + 2, kopylov_i_value(g.n, k)
    else:
        min_n, order, bound = 2 * k + 3, 2 * k + 3, kopylov_ii_value(g.n, k)
    if not is_connected(g):
        return CheckOutcome(variant, UNMET, g.m, float(bound), None, "not connected")
    if g.n < min_n:
        return CheckOutcome(
            variant, UNMET, g.m, float(bound), None, f"order {g.n} < {min_n}"
        )
    witness = find_constrained_path(g, order, node_budget=budget)
    if witness is not None:
        return CheckOutcome(
            variant,
            UNMET,
            g.m,
            float(bound),
            witness,
            f"contains a path on {order} vertices",
        )
    if g.m < bound:
        return CheckOutcome(variant, HOLDS, g.m, float(bound))
    if g.m == bound:
        return CheckOutcome(variant, EQUALITY, g.m, float(bound))
    return CheckOutcome(variant, VIOLATED, g.m, float(bound))


def _check_ore(g: Graph, params: dict[str, Any], budget: int) -> CheckOutcome:
    if g.n < 3:
        return CheckOutcome("ore", UNMET, g.m, 0.0, None, "order < 3")
    threshold = ore_edge_threshold(g.n)
    if g.m <= threshold:
        return CheckOutcome(
            "ore", UNMET, g.m, float(threshold), None, "edge count not above threshold"
        )
    witness = is_hamiltonian(g, node_budget=budget)
    if witness is not None:
        return CheckOutcome("ore", HOLDS, g.m, float(threshold), witness)
    return CheckOutcome("ore", VIOLATED, g.m, float(threshold), None, "no Hamiltonian cycle")


def _check_ni(g: Graph, params: dict[str, Any], budget: int) -> CheckOutcome:
    k = _require_k(params, 1)
    if "a" not in params:
        raise ValueError("missing parameter 'a' (vertex set A of the partition)")
    a_vertices = sorted(set(int(v) for v in params["a"]))
    for v in a_vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"partition vertex {v} out of range")
    if "b" in params and params["b"] is not None:
        b_vertices = sorted(set(int(v) for v in params["b"]))
        if sorted(a_vertices + b_vertices) != list(range(g.n)):
            raise ValueError("(a, b) must partition the vertex set")
    a_mask = mask_of(a_vertices)
    b_mask = ((1 << g.n) - 1) & ~a_mask
    size_a = len(a_vertices)
    size_b = g.n - size_a
    lhs = 2 * edges_within(g, a_mask) + edges_between(g, a_mask, b_mask)
    rhs = (2 * k - 1) * size_a + k * size_b
    if lhs <= rhs:
        return CheckOutcome("ni", UNMET, lhs, rhs, None, "weighted edge count not above threshold")
    witness = find_constrained_path(
        g, 2 * k + 1, EndpointConstraint.ends_in(a_vertices), node_budget=budget
    )
    if witness is not None:
        return CheckOutcome("ni", HOLDS, lhs, rhs, witness)
    return CheckOutcome(
        "ni", VIOLATED, lhs, rhs, None, f"no path on {2 * k + 1} vertices with both ends in A"
    )


def _check_lemma1(g: Graph, params: dict[str, Any], budget: int) -> CheckOutcome:
    k = _require_k(params, 1)
    witness = find_constrained_path(g, 2 * k + 1, node_budget=budget)
    if witness is not None:
        return CheckOutcome(
            "lemma1", UNMET, 0.0, 0.0, witness, f"contains a path on {2 * k + 1} vertices"
        )
    worst: tuple[float, float] = (0.0, 0.0)
    worst_gap = float("-inf")
    for comp in components(g):
        sub = g.induced(comp)
        if sub.n == 2 * k:
            continue
        lhs, rhs = float(sub.m), float((k - 1) * sub.n)
        if lhs > rhs:
            return CheckOutcome(
                "lemma1",
                VIOLATED,
                lhs,
                rhs,
                comp,
                f"component of order {sub.n} with {sub.m} edges",
            )
        if lhs - rhs > worst_gap:
            worst_gap = lhs - rhs
            worst = (lhs, rhs)
    if worst_gap == float("-inf"):
        return CheckOutcome("lemma1", HOLDS, 0.0, 0.0, None, "all components have order 2k")
    return CheckOutcome("lemma1", HOLDS, worst[0], worst[1])


def _check_lemma2(g: Graph, params: dict[str, Any], budget: int) -> CheckOutcome:
    k = _require_k(params, 1)
    if "v" not in params:
        raise ValueError("missing parameter 'v'")
    v = int(params["v"])
    if not 0 <= v < g.n:
        raise ValueError(f"vertex v={v} out of range")
    witness = find_constrained_path(
        g, 2 * k + 1, EndpointConstraint.ends_avoid(v), node_budget=budget
    )
    if witness is not None:
        return CheckOutcome(
            "lemma2",
            UNMET,
            0.0,
            0.0,
            witness,
            f"contains a path on {2 * k + 1} vertices avoiding v at both ends",
        )
    lhs = float(2 * g.m - g.degrees[v])
    rhs = float((2 * k - 1) * (g.n - 1))
    if lhs < rhs:
        return CheckOutcome("lemma2", HOLDS, lhs, rhs)
    if lhs == rhs:
        return CheckOutcome("lemma2", EQUALITY, lhs, rhs)
    if matches_lemma2_exception(g, k, v):
        return CheckOutcome(
            "lemma2", HOLDS, lhs, rhs, None, "exceptional clique-plus-pendant family"
        )
    return CheckOutcome(
        "lemma2", VIOLATED, lhs, rhs, None, "bound exceeded outside the exceptional family"
    )


def _check_lemma3(g_unused: Graph | None, params: dict[str, Any], budget: int) -> CheckOutcome:
    k = _require_k(params, 2)
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
    tol = float(params.get("tol", 1e-10))
    m = h.n
    n = 2 * k * p + m
    if m < 1:
        raise ValueError("h must be nonempty")
    for a in attachment:
        if not 0 <= a < 2 * k * p:
            raise ValueError(f"attachment index {a} outside the block range")
    threshold_g = float(n + 2 * k - 2)
    if n < 6 * k + 13:
        return CheckOutcome(
            "lemma3", UNMET, 0.0, threshold_g, None, f"order {n} < {6 * k + 13}"
        )
    threshold_h = m + 2 * k - 2 + 6.0 * p * k / (n + 3)
    rh = q_index(h, tol=tol)
    hyp = certified_compare(rh, threshold_h)
    hypothesis_equality = False
    if hyp.verdict == "indeterminate":
        return CheckOutcome(
            "lemma3", INDETERMINATE, rh.q, threshold_h, None, "hypothesis not certifiable"
        )
    if hyp.verdict == "ge":
        if hyp.margin <= SPECTRAL_EQ_TOL:
            hypothesis_equality = True
        else:
            return CheckOutcome(
                "lemma3", UNMET, rh.q, threshold_h, None, "hypothesis bound on q(h) fails"
            )
    w_global = 2 * k * p + w
    base = disjoint_union(list(f_blocks) + [h])
    edges = list(base.edges()) + [(a, w_global) for a in attachment]
    assembled = build_graph(n, edges)
    rg = q_index(assembled, tol=tol)
    conclusion = certified_compare(rg, threshold_g)
    if conclusion.verdict == "lt":
        return CheckOutcome("lemma3", HOLDS, rg.q, threshold_g)
    if conclusion.verdict == "indeterminate":
        return CheckOutcome(
            "lemma3", INDETERMINATE, rg.q, threshold_g, None, "conclusion not certifiable"
        )
    if conclusion.margin <= SPECTRAL_EQ_TOL:
        note = "equality" + (
            ", hypothesis also at equality" if hypothesis_equality else ""
        )
        return CheckOutcome("lemma3", EQUALITY, rg.q, threshold_g, None, note)
    return CheckOutcome("lemma3", VIOLATED, rg.q, threshold_g)


def _check_cor1(g_unused: Graph | None, params: dict[str, Any], budget: int) -> CheckOutcome:
    k = _require_k(params, 2)
    if "p" not in params:
        raise ValueError("missing parameter 'p'")
    p = int(params["p"])
    tol = float(params.get("tol", 1e-10))
    g = corollary1_graph(k, p)
    n = g.n
    threshold = float(n + 2 * k - 2)
    if n < 6 * k + 13:
        return CheckOutcome(
            "cor1", UNMET, 0.0, threshold, None, f"order {n} < {6 * k + 13}"
        )
    result = q_index(g, tol=tol)
    cmp = certified_compare(result, threshold)
    if cmp.verdict == "lt":
        return CheckOutcome("cor1", HOLDS, result.q, threshold)
    if cmp.verdict == "indeterminate":
        return CheckOutcome(
            "cor1", INDETERMINATE, result.q, threshold, None, "not certifiable"
        )
    return CheckOutcome("cor1", VIOLATED, result.q, threshold)


def _check_cor2(g: Graph, params: dict[str, Any], budget: int) -> CheckOutcome:
    k = _require_k(params, 2)
    if "w" not in params:
        raise ValueError("missing parameter 'w'")
    w = int(params["w"])
    if not 0 <= w < g.n:
        raise ValueError(f"vertex w={w} out of range")
    tol = float(params.get("tol", 1e-10))
    n = g.n
    threshold = float(n + 2 * k - 2)
    if n < 6 * k + 13:
        return CheckOutcome(
            "cor2", UNMET, 0.0, threshold, None, f"order {n} < {6 * k + 13}"
        )
    rest = [v for v in range(n) if v != w]
    reduced = g.induced(rest)
    for comp in components(reduced):
        sub = reduced.induced(comp)
        if sub.n == 2 * k:
            continue
        if sub.m > (k - 1) * sub.n:
            original = tuple(rest[v] for v in comp)
            return CheckOutcome(
                "cor2",
                UNMET,
                float(sub.m),
                float((k - 1) * sub.n),
                original,
                "component condition on G - w fails",
            )
    result = q_index(g, tol=tol)
    cmp = certified_compare(result, threshold)
    if cmp.verdict == "lt":
        return CheckOutcome("cor2", HOLDS, result.q, threshold)
    if cmp.verdict == "indeterminate":
        return CheckOutcome(
            "cor2", INDETERMINATE, result.q, threshold, None, "not certifiable"
        )
    return CheckOutcome("cor2", VIOLATED, result.q, threshold)


def _check_theorem1(
    g: Graph, params: dict[str, Any], budget: int, all_lengths: bool
) -> CheckOutcome:
    stmt = "theorem1_corollary" if all_lengths else "theorem1"
    k = _require_k(params, 2)
    tol = float(params.get("tol", 1e-10))
    n = g.n
    threshold = float(n + 2 * k - 2)
    if n <= _order_limit(k):
        return CheckOutcome(
            stmt, UNMET, 0.0, threshold, None, f"order {n} <= {_order_limit(k)}"
        )
    result = q_index(g, tol=tol)
    cmp = certified_compare(result, threshold)
    if cmp.verdict == "lt":
        return CheckOutcome(
            stmt, UNMET, result.q, threshold, None, "q below the threshold"
        )
    if cmp.verdict == "indeterminate":
        return CheckOutcome(
            stmt, INDETERMINATE, result.q, threshold, None, "hypothesis not certifiable"
        )
    lengths = range(3, 2 * k + 3) if all_lengths else (2 * k + 1, 2 * k + 2)
    first_witness: tuple[int, ...] | None = None
    for length in lengths:
        witness = find_cycle_of_length(g, length, node_budget=budget)
        if witness is None:
            return CheckOutcome(
                stmt, VIOLATED, result.q, threshold, None, f"no cycle on {length} vertices"
            )
        if first_witness is None:
            first_witness = witness
    return CheckOutcome(stmt, HOLDS, result.q, threshold, first_witness)


_CHECKERS = {
    "egp": _check_egp,
    "egc": _check_egc,
    "kopylov_i": lambda g, p, b: _check_kopylov(g, p, b, "kopylov_i"),
    "kopylov_ii": lambda g, p, b: _check_kopylov(g, p, b, "kopylov_ii"),
    "ore": _check_ore,
    "ni": _check_ni,
    "lemma1": _check_lemma1,
    "lemma2": _check_lemma2,
    "lemma3": _check_lemma3,
    "cor1": _check_cor1,
    "cor2": _check_cor2,
    "theorem1": lambda g, p, b: _check_theorem1(g, p, b, False),
    "theorem1_corollary": lambda g, p, b: _check_theorem1(g, p, b, True),
}


def check_statement(
    statement: str,
    g: Graph | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    **params: Any,
) -> CheckOutcome:
    """Evaluate one statement on one instance.

    ``lemma3`` and ``cor1`` build their own graph from parameters and ignore
    ``g``; every other statement requires it.
    """
    if statement not in _CHECKERS:
        raise ValueError(
            f"unknown statement {statement!r}; known: {', '.join(sorted(_CHECKERS))}"
        )
    if statement not in ("lemma3", "cor1") and g is None:
        raise ValueError(f"statement {statement!r} requires a graph")
    return _CHECKERS[statement](g, params, node_budget)


def prop1_sandwich_check(n: int, k: int, tol: float = 1e-10) -> list[CheckOutcome]:
    """Certified check of the strict chain
    lower(n,k) < q(s_nk) < q(s_nk_plus) < upper(n,k).

    Returns one outcome per strict inequality, or a single
    precondition_unmet outcome when k < 2 or n <= 5k^2.
    """
    from .bounds import prop1_sandwich
    from .families import s_nk, s_nk_plus

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


def theorem1_construction_probe(n: int, k: int, tol: float = 1e-10) -> CheckOutcome:
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
    from .families import s_nk, s_nk_plus

    worst_q = 0.0
    for label, graph in (("s_nk", s_nk(n, k)), ("s_nk_plus", s_nk_plus(n, k))):
        result = q_index(graph, tol=tol)
        worst_q = max(worst_q, result.q)
        cmp = certified_compare(result, threshold)
        if cmp.verdict == "indeterminate":
            return CheckOutcome(
                stmt, INDETERMINATE, result.q, threshold, None, f"{label} not certifiable"
            )
        if cmp.verdict == "ge":
            return CheckOutcome(
                stmt, VIOLATED, result.q, threshold, None, f"{label} reaches the threshold"
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


def _ni_masks(n: int, graph_index: int, seed: int, sample: int) -> list[int]:
    if n <= 6:
        return list(range(1 << n))
    rng = random.Random(seed * 1_000_003 + graph_index)
    return sorted(rng.sample(range(1 << n), min(sample, 1 << n)))


def _instances_for(
    g: Graph,
    graph_index: int,
    statement: str,
    k_range: Sequence[int],
    seed: int,
    ni_sample: int,
) -> Iterable[dict[str, Any]]:
    if statement == "ore":
        yield {}
        return
    for k in k_range:
        if statement in ("egc", "cor2", "theorem1", "theorem1_corollary") and k < 2:
            continue
        if k < 1:
            continue
        if statement == "lemma2":
            for v in range(g.n):
                yield {"k": k, "v": v}
        elif statement == "cor2":
            for w in range(g.n):
                yield {"k": k, "w": w}
        elif statement == "ni":
            for mask in _ni_masks(g.n, graph_index, seed, ni_sample):
                yield {"k": k, "a": [v for v in range(g.n) if mask >> v & 1]}
        else:
            yield {"k": k}


def _run_chunk(payload: tuple) -> tuple[dict[str, dict[str, int]], list[dict[str, Any]]]:
    graphs, start_index, statements, k_range, seed, ni_sample, node_budget = payload
    tallies: dict[str, dict[str, int]] = {
        s: {HOLDS: 0, EQUALITY: 0, VIOLATED: 0, UNMET: 0, INDETERMINATE: 0}
        for s in statements
    }
    violating: list[dict[str, Any]] = []
    for offset, g in enumerate(graphs):
        graph_index = start_index + offset
        for statement in statements:
            for params in _instances_for(g, graph_index, statement, k_range, seed, ni_sample):
                outcome = check_statement(statement, g, node_budget=node_budget, **params)
                tallies[statement][outcome.status] += 1
                if outcome.status == VIOLATED:
                    violating.append(
                        {
                            "statement": statement,
                            "graph6": _graph_token(g),
                            "params": {
                                key: value
                                for key, value in params.items()
                                if not isinstance(value, Graph)
                            },
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
    ni_sample: int = 50,
    seed: int = 0,
    jobs: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SuiteReport:
    """Apply statements to every enumerated (or supplied) graph instance.

    Without a corpus, graphs are the exhaustive isomorph-free catalog for
    every order 1..n_max.  Aggregation is deterministic in canonical order
    regardless of the worker count.
    """
    for statement in statements:
        if statement not in SUITE_STATEMENTS:
            raise ValueError(
                f"statement {statement!r} cannot run in a suite; allowed: "
                f"{', '.join(SUITE_STATEMENTS)}"
            )
    ks = sorted(set(int(k) for k in k_range))
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
            tuple(statements),
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

    by_statement: dict[str, dict[str, int]] = {
        s: {HOLDS: 0, EQUALITY: 0, VIOLATED: 0, UNMET: 0, INDETERMINATE: 0}
        for s in statements
    }
    violating: list[dict[str, Any]] = []
    for tallies, chunk_violating in partials:
        for statement, counts in tallies.items():
            for status, count in counts.items():
                by_statement[statement][status] += count
        violating.extend(chunk_violating)

    totals = {HOLDS: 0, EQUALITY: 0, VIOLATED: 0, UNMET: 0, INDETERMINATE: 0}
    for counts in by_statement.values():
        for status, count in counts.items():
            totals[status] += count
    return SuiteReport(
        statements=tuple(statements),
        instances=sum(totals.values()),
        holds=totals[HOLDS],
        equality=totals[EQUALITY],
        violated=totals[VIOLATED],
        precondition_unmet=totals[UNMET],
        indeterminate=totals[INDETERMINATE],
        violating=violating,
        by_statement={s: dict(c) for s, c in by_statement.items()},
    )
