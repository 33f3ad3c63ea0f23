"""Per-layer metrics of a traced repetition, named ``<module>.<function>.<quantity>``.

``PER_LAYER`` is the full list, in the order ``BENCHMARK.json`` names them;
every traced run reports all of them, with 0 where a workload never enters
the layer.  The comment above each group names the end-to-end metric the
group should move, and on which workload.
"""

from __future__ import annotations

from typing import Any

from spans import FAMILY_BUILDERS, SEARCHES, Tracer, op_seconds, span_table

SUITE_TAGS = (
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
SEARCH_ORDERS = (10, 16, 24)


def _spec() -> list[tuple[str, str, str]]:
    m: list[tuple[str, str, str]] = []

    def add(name: str, unit: str, better: str = "lower") -> None:
        m.append((name, unit, better))

    # enumeration: norm_wall_s and peak_rss_mb on catalog, norm_wall_s on search
    add("enumeration.enumerate_nonisomorphic.s", "s")
    add("enumeration.enumerate_nonisomorphic.n8_s", "s")
    add("enumeration.canonical_code.calls", "count")
    add("enumeration.canonical_code.s", "s")
    add("enumeration.canonical_code.max_ms", "ms")
    add("enumeration.read_graph6_lines.s", "s")
    add("enumeration.write_graph6.calls", "count")
    add("enumeration.write_graph6.s", "s")
    # subgraphs: norm_wall_s on suite and search
    for fn in SEARCHES:
        add(f"subgraphs.{fn}.calls", "count")
        add(f"subgraphs.{fn}.s", "s")
        add(f"subgraphs.{fn}.found_ratio", "ratio", "higher")
    for fn in ("has_cycle_longer_than", "is_hamiltonian"):
        add(f"subgraphs.{fn}.calls", "count")
        add(f"subgraphs.{fn}.s", "s")
    add("subgraphs.budget_exceeded", "count")
    # spectral: norm_wall_s and ok_ratio on probes, norm_wall_s on search
    for q in ("calls", "s", "dense_calls", "power_calls", "power_iterations", "convergence_errors"):
        add(f"spectral.q_index.{q}", "s" if q == "s" else "count")
    add("spectral.certified_compare.calls", "count")
    add("spectral.certified_compare.indeterminate", "count")
    # verify: norm_wall_s on suite
    add("verify.run_suite.s", "s")
    for tag in SUITE_TAGS:
        add(f"verify.check_statement.{tag}.calls", "count")
        add(f"verify.check_statement.{tag}.s", "s")
        add(f"verify.check_statement.{tag}.self_s", "s")
    add("verify.prop1_sandwich_check.s", "s")
    add("verify.theorem1_construction_probe.s", "s")
    # graph: norm_wall_s on suite (lemma1, egp, egc) and probes (dense build)
    for fn in ("induced", "components", "blocks"):
        add(f"graph.{fn}.calls", "count")
        add(f"graph.{fn}.s", "s")
    add("graph.adjacency_matrix.s", "s")
    # families: norm_wall_s on probes
    add("families.build.calls", "count")
    add("families.build.s", "s")
    # bounds: norm_wall_s on probes
    for fn in ("merris_bound", "das_bound", "edge_degree_bound"):
        add(f"bounds.{fn}.s", "s")
    # search: norm_wall_s on search, and how far the search stays from s_nk(n,2)
    for n in SEARCH_ORDERS:
        add(f"search.maximize_q_forbidden_cycles.n{n}_s", "s")
    add("search.maximize_q_forbidden_cycles.self_s", "s")
    add("search.accepted_moves", "count", "higher")
    add("search.accept_ratio", "ratio", "higher")
    add("search.is_feasible.calls", "count")
    add("search.is_feasible.s", "s")
    for n in SEARCH_ORDERS:
        add(f"search.gap.n{n}", "ratio")
    add("search.gap.mean", "ratio")
    # report: norm_wall_s on probes
    for fn in ("to_json", "write_csv", "parse_report"):
        add(f"report.{fn}.s", "s")
    # traced norm_wall_s over untraced norm_wall_s, minus 1
    add("trace.overhead_ratio", "ratio")
    return m


PER_LAYER = _spec()


def layer_metrics(tracer: Tracer, op_labels: list[str], child: dict[str, Any]) -> dict[str, float]:
    """Every PER_LAYER value except trace.overhead_ratio, which needs the
    untraced repetitions and is added by run.py."""
    table = span_table(tracer)
    counts = tracer.counts
    empty = {"calls": 0, "outer_calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0}

    def span(key: str) -> dict[str, float]:
        return table.get(key, empty)

    v: dict[str, float] = {}
    enum = "enumeration.enumerate_nonisomorphic"
    v[f"{enum}.s"] = span(enum)["s"]
    v[f"{enum}.n8_s"] = op_seconds(tracer, enum, op_labels).get("enumerate n=8", 0.0)
    code = span("enumeration.canonical_code")
    v["enumeration.canonical_code.calls"] = code["calls"]
    v["enumeration.canonical_code.s"] = code["s"]
    v["enumeration.canonical_code.max_ms"] = code["max_s"] * 1000.0
    v["enumeration.read_graph6_lines.s"] = span("enumeration.read_graph6_lines")["s"]
    v["enumeration.write_graph6.calls"] = span("enumeration.write_graph6")["calls"]
    v["enumeration.write_graph6.s"] = span("enumeration.write_graph6")["s"]

    for fn in SEARCHES:
        row = span(f"subgraphs.{fn}")
        v[f"subgraphs.{fn}.calls"] = row["calls"]
        v[f"subgraphs.{fn}.s"] = row["s"]
        found = counts[f"subgraphs.{fn}.found"]
        v[f"subgraphs.{fn}.found_ratio"] = found / row["calls"] if row["calls"] else 0.0
    for fn in ("has_cycle_longer_than", "is_hamiltonian"):
        v[f"subgraphs.{fn}.calls"] = span(f"subgraphs.{fn}")["calls"]
        v[f"subgraphs.{fn}.s"] = span(f"subgraphs.{fn}")["s"]
    v["subgraphs.budget_exceeded"] = counts["subgraphs.budget_exceeded"]

    q = span("spectral.q_index")
    v["spectral.q_index.calls"] = q["calls"]
    v["spectral.q_index.s"] = q["s"]
    for c in ("dense_calls", "power_calls", "power_iterations", "convergence_errors"):
        v[f"spectral.q_index.{c}"] = counts[f"spectral.q_index.{c}"]
    v["spectral.certified_compare.calls"] = span("spectral.certified_compare")["calls"]
    v["spectral.certified_compare.indeterminate"] = counts["spectral.certified_compare.indeterminate"]

    v["verify.run_suite.s"] = span("verify.run_suite")["s"]
    for tag in SUITE_TAGS:
        row = span(f"verify.check_statement.{tag}")
        v[f"verify.check_statement.{tag}.calls"] = row["calls"]
        v[f"verify.check_statement.{tag}.s"] = row["s"]
        v[f"verify.check_statement.{tag}.self_s"] = row["self_s"]
    v["verify.prop1_sandwich_check.s"] = span("verify.prop1_sandwich_check")["s"]
    v["verify.theorem1_construction_probe.s"] = span("verify.theorem1_construction_probe")["s"]

    for fn in ("induced", "components", "blocks"):
        v[f"graph.{fn}.calls"] = span(f"graph.{fn}")["calls"]
        v[f"graph.{fn}.s"] = span(f"graph.{fn}")["s"]
    v["graph.adjacency_matrix.s"] = span("graph.adjacency_matrix")["s"]

    builds = [span(f"families.{fn}") for fn in FAMILY_BUILDERS]
    v["families.build.calls"] = sum(b["outer_calls"] for b in builds)
    v["families.build.s"] = sum(b["s"] for b in builds)

    for fn in ("merris_bound", "das_bound", "edge_degree_bound"):
        v[f"bounds.{fn}.s"] = span(f"bounds.{fn}")["s"]

    search = "search.maximize_q_forbidden_cycles"
    per_op = op_seconds(tracer, search, op_labels)
    for n in SEARCH_ORDERS:
        v[f"{search}.n{n}_s"] = sum(s for label, s in per_op.items() if label.startswith(f"search n={n} "))
    v[f"{search}.self_s"] = span(search)["self_s"]
    tried = counts["search.moves_tried"]
    v["search.accepted_moves"] = counts["search.accepted_moves"]
    v["search.accept_ratio"] = counts["search.accepted_moves"] / tried if tried else 0.0
    v["search.is_feasible.calls"] = span("search.is_feasible")["calls"]
    v["search.is_feasible.s"] = span("search.is_feasible")["s"]
    gaps = child.get("gaps", {})
    for n in SEARCH_ORDERS:
        v[f"search.gap.n{n}"] = gaps.get(str(n), 0.0)
    v["search.gap.mean"] = sum(gaps.values()) / len(gaps) if gaps else 0.0

    for fn in ("to_json", "write_csv", "parse_report"):
        v[f"report.{fn}.s"] = span(f"report.{fn}")["s"]
    return {k: float(x) for k, x in v.items()}
