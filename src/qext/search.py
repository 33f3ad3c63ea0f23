"""Stochastic maximization of the Q-index over graphs avoiding given cycle
lengths.

Random restarts, with a hill climb from a given seed graph.  Each restart
builds a random maximal feasible graph: it tries every vertex pair once,
in random order, and keeps the addition unless it closes a forbidden
cycle (only cycles through the new edge need searching).  The graph only
gains edges, so a cycle that blocks a pair persists, and every pair ends
up an edge or blocked.  A removal never raises the Q-index (Q(G-e) <=
Q(G) entrywise, hence q(G-e) <= q(G) by Perron-Frobenius), so no climb
could improve such a start, and none is run.  When a seed graph is given,
restart 0 climbs from it instead: it draws one vertex pair per budget
step, skips edges and pairs known to be blocked, and accepts a feasible
addition when it strictly raises the Q-index, computed by the same
dense engine that certifies the result.
Identical arguments always produce identical results: restart r uses the
derived seed ``seed + r`` and the merge orders candidates by value with a
canonical tiebreak, independent of completion order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable

from .enumeration import CANONICAL_MAX, GRAPH6_MAX, canonical_code, write_graph6
from .families import edgeless
from .graph import Graph
from .report import record
from .spectral import q_index
from .subgraphs import (
    DEFAULT_NODE_BUDGET,
    find_cycle_of_length,
    find_cycle_through_edge,
)

NEAR_TIE_TOL = 1e-6


@dataclass
class SearchResult:
    best: Graph
    q_interval: tuple[float, float]
    feasible: bool
    seed: int
    restarts: int
    accepted_moves: int
    matched_family: str | None
    near_ties: tuple[str, ...] = ()

    def as_record(self) -> dict[str, Any]:
        low, high = self.q_interval
        return record("search", self, graph6=write_graph6(self.best), q_low=low, q_high=high)


def is_feasible(g: Graph, forbidden: Iterable[int], node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Full from-scratch check: no cycle of any forbidden length."""
    return all(
        length > g.n or find_cycle_of_length(g, length, node_budget=node_budget) is None
        for length in sorted(set(forbidden))
    )


def _addition_allowed(
    g: Graph, u: int, v: int, forbidden: frozenset[int], node_budget: int
) -> bool:
    # only cycles through the toggled edge can be new
    for length in forbidden:
        if length <= g.n and find_cycle_through_edge(g, length, u, v, node_budget=node_budget):
            return False
    return True


def _random_feasible(
    n: int, forbidden: frozenset[int], rng: random.Random, node_budget: int
) -> Graph:
    """Random maximal feasible graph: every pair is tried once, in random order."""
    g = edgeless(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        candidate = g.with_edge(u, v)
        if _addition_allowed(candidate, u, v, forbidden, node_budget):
            g = candidate
    return g


def _climb(
    start: Graph,
    forbidden: frozenset[int],
    budget: int,
    rng: random.Random,
    node_budget: int,
) -> tuple[Graph, int]:
    """Accept feasible additions that strictly raise q.

    Drawn edges and blocked pairs are skipped; a pair found to close a
    forbidden cycle is blocked from then on.
    """
    n = start.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    blocked: set[tuple[int, int]] = set()
    current, current_q = start, q_index(start).q
    accepted = 0
    for _ in range(budget):
        u, v = pairs[rng.randrange(len(pairs))]
        # blocked is valid only while no removal is ever accepted: a swap move must clear it
        if (u, v) in blocked or current.has_edge(u, v):
            continue
        candidate = current.with_edge(u, v)
        if not _addition_allowed(candidate, u, v, forbidden, node_budget):
            blocked.add((u, v))
            continue
        candidate_q = q_index(candidate).q
        if candidate_q > current_q:
            current, current_q = candidate, candidate_q
            accepted += 1
    return current, accepted


def _restart_worker(payload: tuple) -> tuple[Graph, int]:
    index, n, forbidden, budget, seed, seed_graph, node_budget = payload
    rng = random.Random(seed + index)
    forbidden = frozenset(forbidden)
    if index == 0 and seed_graph is not None:
        return _climb(seed_graph, forbidden, budget, rng, node_budget)
    return _random_feasible(n, forbidden, rng, node_budget), 0


def _merge_key(g: Graph, value: float) -> tuple:
    if g.n <= CANONICAL_MAX:
        return (value, 0, canonical_code(g))
    return (value, 1, write_graph6(g))


def _match_family(g: Graph) -> str | None:
    """Exact structural match against the two split-graph families.

    A graph is s_nk iff its degree-(n-1) vertices leave an independent
    rest, and s_nk_plus iff the rest spans exactly one edge while still
    being dominated.
    """
    n = g.n
    dominators = [v for v in range(n) if g.degrees[v] == n - 1]
    k = len(dominators)
    if not 1 <= k < n:
        return None
    rest = [v for v in range(n) if g.degrees[v] < n - 1]
    inside = sum(1 for u in rest for v in rest if u < v and g.has_edge(u, v))
    if inside == 0:
        return "s_nk"
    if inside == 1 and all(g.degrees[v] in (k, k + 1) for v in rest):
        return "s_nk_plus"
    return None


def maximize_q_forbidden_cycles(
    n: int,
    forbidden: Iterable[int],
    budget: int = 400,
    restarts: int = 8,
    seed: int = 0,
    seed_graph: Graph | None = None,
    jobs: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Best graph found on n vertices with no cycle of a forbidden length.

    Every restart returns a random maximal feasible graph, except that
    restart 0 climbs from ``seed_graph`` when one is given.  ``budget``
    counts the vertex pairs that climb draws; a drawn pair that is already
    an edge or known to close a forbidden cycle is skipped without
    evaluation.  The seed graph must be feasible, and the result value
    never falls below the seed's.  The returned graph is re-verified
    feasible from scratch and its Q-index re-certified with the dense
    engine.
    """
    if n < 3:
        raise ValueError(f"search requires n >= 3, got {n}")
    if n > GRAPH6_MAX:  # the result record carries the graph as graph6
        raise ValueError(f"search requires n <= {GRAPH6_MAX}, got {n}")
    forbidden_set = frozenset(int(l) for l in forbidden)
    if not forbidden_set or min(forbidden_set) < 3:
        raise ValueError("forbidden lengths must be a nonempty set of integers >= 3")
    if budget < 1 or restarts < 1:
        raise ValueError("budget and restarts must be >= 1")
    if seed_graph is not None:
        if seed_graph.n != n:
            raise ValueError(f"seed graph has order {seed_graph.n}, expected {n}")
        if not is_feasible(seed_graph, forbidden_set, node_budget):
            raise ValueError("seed graph contains a forbidden cycle")

    payloads = [
        (r, n, tuple(sorted(forbidden_set)), budget, seed, seed_graph, node_budget)
        for r in range(restarts)
    ]
    if jobs > 1 and restarts > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_restart_worker, payloads))
    else:
        raw = [_restart_worker(p) for p in payloads]

    accepted_total = 0
    certified: list[tuple[Graph, float, float]] = []
    for g, accepted in raw:
        accepted_total += accepted
        result = q_index(g)
        certified.append((g, result.q, result.residual))

    best_q_value = max(value for _, value, _ in certified)
    tied = [item for item in certified if item[1] == best_q_value]
    if len({g.rows for g, _, _ in tied}) == 1:
        best_graph, best_q, best_residual = tied[0]
    else:
        best_graph, best_q, best_residual = max(
            tied, key=lambda item: _merge_key(item[0], item[1])
        )
    if not is_feasible(best_graph, forbidden_set, node_budget):
        raise RuntimeError("internal error: returned graph failed final feasibility check")
    near = sorted(
        {
            write_graph6(g)
            for g, value, _ in certified
            if abs(value - best_q) <= NEAR_TIE_TOL
        }
    )
    return SearchResult(
        best=best_graph,
        q_interval=(best_q - best_residual, best_q + best_residual),
        feasible=True,
        seed=seed,
        restarts=restarts,
        accepted_moves=accepted_total,
        matched_family=_match_family(best_graph),
        near_ties=tuple(near),
    )
