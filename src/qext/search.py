"""Stochastic maximization of the Q-index over graphs avoiding given cycle
lengths.

Every restart grows a graph one vertex pair at a time, keeping each
addition that closes no forbidden cycle: each pair asks the current graph
for a u..v path, and a graph with the edge is built only when it is kept.
The graph only gains edges, so a cycle that blocks a pair persists and the
pair is never searched again.  A random restart grows the edgeless graph
over every pair once, in random order, into a random maximal feasible
graph; a removal never raises the Q-index (Q(G-e) <= Q(G) entrywise, hence
q(G-e) <= q(G) by Perron-Frobenius), so no move could improve it.  When a
seed graph is given, restart 0 grows it instead over one randomly drawn
pair per budget step.  The seed must be connected, and adding an edge to a
connected graph strictly raises the Q-index (its Q is irreducible), so
every feasible drawn addition is kept and the Q-index is computed only
once per restart, when the results are merged.
Identical arguments always produce identical results: restart r uses the
derived seed ``seed + r`` and the merge orders candidates by value with a
canonical tiebreak, independent of completion order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from .enumeration import CANONICAL_MAX, GRAPH6_MAX, _min_codes, write_graph6
from .families import edgeless
from .graph import Graph, edges_within, is_connected
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
    """Whether g + uv has no cycle of a forbidden length through uv, asked of
    g itself (with or without that edge) as u..v paths of those orders."""
    for length in forbidden:
        if length <= g.n and find_cycle_through_edge(g, length, u, v, node_budget=node_budget):
            return False
    return True


def _grow(
    g: Graph, pairs: Iterable[tuple[int, int]], forbidden: frozenset[int], node_budget: int
) -> tuple[Graph, int]:
    """Add each pair in turn unless it is an edge or closes a forbidden cycle.

    The current graph answers for each pair, and a graph with the edge is
    built only for a kept pair; a blocked pair stays blocked.  Returns the
    grown graph and the number of edges added.
    """
    blocked: set[tuple[int, int]] = set()
    added = 0
    for u, v in pairs:
        if (u, v) in blocked or g.has_edge(u, v):
            continue
        if _addition_allowed(g, u, v, forbidden, node_budget):
            g, added = g.with_edge(u, v), added + 1
        else:
            blocked.add((u, v))
    return g, added


def _restart_worker(payload: tuple) -> tuple[Graph, int]:
    index, n, forbidden, budget, seed, seed_graph, node_budget = payload
    rng = random.Random(seed + index)
    forbidden = frozenset(forbidden)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if seed_graph is not None:
        draws = (pairs[rng.randrange(len(pairs))] for _ in range(budget))
        return _grow(seed_graph, draws, forbidden, node_budget)
    rng.shuffle(pairs)
    return _grow(edgeless(n), pairs, forbidden, node_budget)[0], 0


def _tie_break(graphs: list[Graph]) -> int:
    """Index of the first of equally valued graphs on one order with the
    largest canonical code, or graph6 string above ``CANONICAL_MAX``; the
    distinct graphs are labelled in one batch."""
    if graphs[0].n > CANONICAL_MAX:
        keys = [write_graph6(g) for g in graphs]
    else:
        distinct = list(dict.fromkeys(g.rows for g in graphs))
        codes = dict(zip(distinct, _min_codes(np.array(distinct, dtype=np.int64)).tolist()))
        keys = [codes[g.rows] for g in graphs]
    return max(range(len(graphs)), key=keys.__getitem__)


def _match_family(g: Graph) -> str | None:
    """Exact structural match against the two split-graph families.

    With k the number of degree-(n-1) vertices, 1 <= k < n, a graph is
    s_nk iff the rest is independent, and s_nk_plus iff the rest spans
    exactly one edge.
    """
    n = g.n
    rest = sum(1 << v for v in range(n) if g.degrees[v] < n - 1)
    if not 1 <= n - rest.bit_count() < n:
        return None
    return {0: "s_nk", 1: "s_nk_plus"}.get(edges_within(g, rest))


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
    restart 0 grows ``seed_graph`` when one is given.  ``budget`` counts
    the vertex pairs it draws, and it keeps every drawn pair that is not
    an edge and closes no forbidden cycle: each such addition strictly
    raises q, because the seed graph must be connected (a disconnected one
    is rejected).  The seed graph must also be feasible, and the result
    value never falls below the seed's.  The returned graph is re-verified
    feasible from scratch and its Q-index certified with the dense engine.
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
        if not is_connected(seed_graph):
            raise ValueError("seed graph must be connected")
        if not is_feasible(seed_graph, forbidden_set, node_budget):
            raise ValueError("seed graph contains a forbidden cycle")

    forbidden_key = tuple(sorted(forbidden_set))
    payloads = [
        (r, n, forbidden_key, budget, seed, seed_graph if r == 0 else None, node_budget)
        for r in range(restarts)
    ]
    if jobs > 1 and restarts > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, restarts)) as pool:
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
    pick = _tie_break([g for g, _, _ in tied]) if len({g.rows for g, _, _ in tied}) > 1 else 0
    best_graph, best_q, best_residual = tied[pick]
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
