"""Self-tests of the benchmark harness: span arithmetic, failure counting, oracles.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import qext  # noqa: E402
from harness import (  # noqa: E402
    A000088,
    BUDGET,
    CONVERGENCE,
    OK,
    SUITE_INSTANCES,
    WORKLOADS,
    Catalog,
    Ops,
    Probes,
    Search,
    SpeedProbe,
    Suite,
    graph6,
    spectral_verdict,
)
from layers import PER_LAYER, SUITE_TAGS  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import Tracer, op_seconds, span_table  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SpanArithmetic(unittest.TestCase):
    def setUp(self) -> None:
        self.clock = FakeClock()
        self.tracer = Tracer(clock=self.clock)

    def test_self_time_subtracts_children(self) -> None:
        t, clock = self.tracer, self.clock
        ns: dict = {}

        def a():
            clock.now += 1
            ns["b"]()
            clock.now += 2
            ns["b"]()
            clock.now += 1

        def b():
            clock.now += 3
            ns["c"]()
            clock.now += 0.5

        def c():
            clock.now += 2

        for name, fn in (("a", a), ("b", b), ("c", c)):
            ns[name] = t.wrap(fn, name)
        ns["a"]()
        table = span_table(t)
        # c: 2 each; b: 3.5 + 2 each; a: 4 + 2 * 5.5
        self.assertEqual(table["c"], {"calls": 2, "outer_calls": 2, "s": 4.0, "self_s": 4.0, "max_s": 2.0})
        self.assertEqual(table["b"], {"calls": 2, "outer_calls": 2, "s": 11.0, "self_s": 7.0, "max_s": 5.5})
        self.assertEqual(table["a"], {"calls": 1, "outer_calls": 1, "s": 15.0, "self_s": 4.0, "max_s": 15.0})

    def test_recursion_counts_inclusive_time_once(self) -> None:
        t, clock = self.tracer, self.clock
        ns: dict = {}

        def r(depth):
            clock.now += 1
            if depth:
                ns["r"](depth - 1)

        ns["r"] = t.wrap(r, "r")
        ns["r"](2)
        row = span_table(t)["r"]
        self.assertEqual((row["calls"], row["outer_calls"], row["s"], row["self_s"]), (3, 1, 3.0, 3.0))

    def test_group_counts_nested_builders_once(self) -> None:
        t, clock = self.tracer, self.clock
        ns: dict = {}

        def inner():
            clock.now += 1

        def outer():
            clock.now += 1
            ns["inner"]()

        ns["inner"] = t.wrap(inner, "inner", group="build")
        ns["outer"] = t.wrap(outer, "outer", group="build")
        ns["outer"]()
        ns["inner"]()
        table = span_table(t)
        self.assertEqual(table["outer"]["outer_calls"] + table["inner"]["outer_calls"], 2)
        self.assertEqual(table["outer"]["s"] + table["inner"]["s"], 3.0)

    def test_generator_spans_cover_each_resume(self) -> None:
        t, clock = self.tracer, self.clock

        def gen(n):
            clock.now += 5  # work before the first item
            for i in range(n):
                clock.now += 1
                yield i

        traced = t.wrap(gen, "gen")

        def consume():
            items = []
            for x in traced(3):
                clock.now += 10  # the consumer's own work
                items.append(x)
            return items

        ops = Ops(t)
        items = ops.run("gen n=3", consume)
        self.assertEqual(items, [0, 1, 2])
        row = span_table(t)["gen"]
        # 4 resumes (the last one ends the generator); consumer time excluded
        self.assertEqual((row["calls"], row["s"]), (4, 8.0))
        self.assertEqual(op_seconds(t, "gen", ops.labels), {"gen n=3": 8.0})

    def test_install_wraps_imported_names_and_uninstall_restores(self) -> None:
        originals = (qext.verify.find_constrained_path, qext.search.find_cycle_through_edge, qext.q_index)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(qext.verify.find_constrained_path, originals[0])
            self.assertIsNot(qext.search.find_cycle_through_edge, originals[1])
            self.assertIsNot(qext.q_index, originals[2])
            self.assertIs(qext.spectral.q_index, qext.q_index)
            qext.check_statement("egp", qext.path(4), k=1)
            qext.complete(3).induced([0, 1])
        finally:
            tracer.uninstall()
        self.assertEqual(
            (qext.verify.find_constrained_path, qext.search.find_cycle_through_edge, qext.q_index), originals
        )
        table = span_table(tracer)
        self.assertEqual(table["verify.check_statement.egp"]["calls"], 1)
        self.assertGreaterEqual(table["subgraphs.find_constrained_path"]["calls"], 1)
        self.assertEqual(table["graph.induced"]["calls"], 1)


class FailureCounting(unittest.TestCase):
    def test_forced_convergence_error_counts_as_failing(self) -> None:
        ops = Ops()
        cmp, status = ops.run("C_150", spectral_verdict, qext.cycle(150), 4, method="power", max_iterations=10)
        ops.count(status)
        self.assertEqual(status, CONVERGENCE)
        _, status = ops.run("K_3", spectral_verdict, qext.complete(3), 1.0)
        ops.count(status)
        self.assertEqual(status, OK)
        self.assertEqual((ops.attempted, ops.failed, ops.fail_ratio), (2, 0, 0.5))

    def test_forced_budget_exhaustion_counts_as_failed(self) -> None:
        ops = Ops()
        answers = Search().body({"probes": [(10, 0)], "options": {"node_budget": 1}}, ops)
        self.assertEqual(answers["results"], [])
        self.assertEqual((ops.attempted, ops.failed, ops.fail_ratio), (1, 1, 1.0))
        self.assertEqual(dict(ops.not_ok), {BUDGET: 1})


class Oracles(unittest.TestCase):
    def test_catalog_rejects_wrong_counts_codes_and_digest(self) -> None:
        g = qext.build_graph(9, [(0, 1), (1, 2), (2, 8), (3, 8), (4, 5)])
        code = qext.canonical_code(g)
        good = {"counts": list(A000088), "n8_codes": [], "codes": [(9, g.rows, code)]}
        self.assertEqual([m for m in Catalog().check(good) if "digest" not in m], [])
        bad = dict(good, counts=[1, 2, 4, 11, 34, 156, 1044, 12345])
        self.assertTrue(any("A000088" in m for m in Catalog().check(bad)))
        bad = dict(good, codes=[(9, g.rows, code + 1)])
        self.assertTrue(any("relabelling minimum" in m for m in Catalog().check(bad)))
        self.assertTrue(any("digest" in m for m in Catalog().check(good)))

    def test_suite_rejects_wrong_totals(self) -> None:
        def report(**changes):
            fields = dict(statements=("egp",), instances=SUITE_INSTANCES, holds=SUITE_INSTANCES,
                          equality=0, violated=0, precondition_unmet=0, indeterminate=0)
            fields.update(changes)
            return {"report": qext.SuiteReport(**fields)}

        self.assertEqual(Suite().check(report()), [])
        self.assertTrue(Suite().check(report(instances=SUITE_INSTANCES - 1, holds=SUITE_INSTANCES - 1)))
        self.assertTrue(Suite().check(report(holds=SUITE_INSTANCES - 1, violated=1)))
        self.assertTrue(Suite().check(report(holds=SUITE_INSTANCES - 1)))

    def test_search_rejects_infeasible_graph_and_wrong_interval(self) -> None:
        result = qext.maximize_q_forbidden_cycles(7, {5}, budget=10, restarts=2, seed=0)
        self.assertEqual(Search().check({"results": [(7, 0, result)]}), [])
        with_c5 = qext.build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        bad = qext.SearchResult(**{**vars(result), "best": with_c5})
        self.assertTrue(any("5-cycle" in m for m in Search().check({"results": [(7, 0, bad)]})))
        low, high = result.q_interval
        bad = qext.SearchResult(**{**vars(result), "q_interval": (low + 0.5, high + 0.5)})
        self.assertTrue(any("misses" in m for m in Search().check({"results": [(7, 0, bad)]})))

    def test_probes_reject_each_corruption(self) -> None:
        chain = qext.prop1_sandwich_check(25, 2)
        probe = qext.theorem1_construction_probe(25, 2)
        g = qext.read_graph6_lines(graph6(5, [(0, 1), (1, 2), (2, 3)]))[0]
        token = qext.write_graph6(g)
        q = qext.q_index(g).q
        outcomes = [
            {"kind": "spectral", "graph6": token, "q": q, "residual": 0.0, "iterations": 0, "method": "dense"},
            {"kind": "bound", "graph6": token, "name": "das", "value": qext.das_bound(g).value,
             "relation": "upper_bound_on_q"},
        ]
        good = {"chains": [(25, 2, chain)], "probes": [(25, 2, probe)], "outcomes": outcomes,
                "json": "{}", "reparsed": "{}", "tight": [("K_5", "indeterminate"), ("C_5", "ge")]}
        self.assertEqual(Probes().check(good), [])

        broken = [qext.CheckOutcome("prop1_lower", "indeterminate", 0.0, 0.0)] + chain[1:]
        self.assertTrue(Probes().check(dict(good, chains=[(25, 2, broken)])))
        shifted = [qext.CheckOutcome("prop1_lower", "holds", chain[0].lhs, chain[0].rhs + 1e-6)] + chain[1:]
        self.assertTrue(any("closed form" in m for m in Probes().check(dict(good, chains=[(25, 2, shifted)]))))
        low_bound = [outcomes[0], dict(outcomes[1], value=q - 1e-6)]
        self.assertTrue(any("below q" in m for m in Probes().check(dict(good, outcomes=low_bound))))
        self.assertTrue(Probes().check(dict(good, reparsed="{ }")))
        self.assertTrue(any("tight" in m for m in Probes().check(dict(good, tight=[("C_5", "lt")]))))
        violated = qext.CheckOutcome("theorem1_construction_probe", "violated", 0.0, 0.0)
        self.assertTrue(Probes().check(dict(good, probes=[(25, 2, violated)])))


class MachineSpeed(unittest.TestCase):
    def test_probe_samples_inside_the_body_and_counts_its_own_time(self) -> None:
        import time

        probe = SpeedProbe()
        probe.anchor()
        probe.start()
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            pass
        probe.stop()
        self.assertEqual(len(probe.chunks), 8)
        self.assertGreaterEqual(len(probe.inside), 5)
        self.assertLess(probe.busy_s, 0.5)
        self.assertGreater(probe.scale, 0.0)


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self) -> None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], PER_LAYER)

    def test_layer_tags_are_the_suite_statements(self) -> None:
        self.assertEqual(SUITE_TAGS, qext.verify.SUITE_STATEMENTS)


if __name__ == "__main__":
    unittest.main()
