"""Golden outcomes of every statement checker, the sandwich check and the probe.

Three groups are pinned in ``tests/fixtures/verify_outcomes.json``:

- ``sweep``: every statement on every graph with n <= 6, k = 0..3, every
  vertex (and one out of range) for ``v``/``w`` and every vertex set ``A``
  for ``ni``.  It is stored as a per-(statement, status, note) tally plus
  a SHA-256 of the records; no spectral code runs at these orders, so the
  records hold no eigensolver output.
- ``cases``: named instances, one record list each.  They cover the
  spectral checkers on real graphs, every ``ValueError`` message, and the
  branches no true theorem reaches: the searches in ``verify`` are patched
  to find nothing, or ``verify.q_index`` is patched to return a chosen q
  and residual, with colour refinement patched to end above 64 cells so
  that the float path runs, and each threshold comes out below, tied,
  above or indeterminate.  The sandwich check and the probe decide in
  integers and never call ``q_index``, so no stub reaches them.
- Floats from the eigensolver are compared to 1e-9 relative, as in
  ``test_report_fixtures``; everything else must match exactly.

Regenerate with ``PYTHONPATH=src python tests/test_verify_golden.py``, only
when a verdict is meant to change, or only some entries by naming them,
each case by its name and the sweep as ``sweep``:
``... test_verify_golden.py sweep prop1/25_1``.  Entries not named are
kept byte for byte.
"""

import hashlib
import json
import sys
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qext import verify
from qext.enumeration import enumerate_nonisomorphic
from qext.families import complete, cycle, edgeless, kite_pendant, path, s_nk, star
from qext.graph import build_graph, disjoint_union, join
from qext.spectral import SpectralResult
from qext.verify import (
    SUITE_STATEMENTS,
    check_statement,
    prop1_sandwich_check,
    run_suite,
    theorem1_construction_probe,
)
from test_report_fixtures import _same

GOLDEN = Path(__file__).parent / "fixtures" / "verify_outcomes.json"

GRAPH_STATEMENTS = (
    "egp", "egc", "kopylov_i", "kopylov_ii", "ore", "ni", "lemma1", "lemma2",
    "cor2", "theorem1", "theorem1_corollary",
)


def _outcome(fn, *args, **kwargs) -> dict:
    try:
        result = fn(*args, **kwargs)
    except ValueError as exc:
        return {"error": str(exc)}
    if isinstance(result, list):
        return {"outcomes": [o.as_record() for o in result]}
    return result.as_record()


def _check(statement, g=None, **params):
    return lambda: _outcome(check_statement, statement, g, **params)


# --- sweep ---------------------------------------------------------------------


def _sweep_params(statement: str, n: int, k: int):
    if statement == "ore":
        yield {}
    elif statement in ("lemma2", "cor2"):
        key = "v" if statement == "lemma2" else "w"
        for vertex in range(n + 1):
            yield {"k": k, key: vertex}
    elif statement == "ni":
        for mask in range(1 << n):
            yield {"k": k, "a": [v for v in range(n) if mask >> v & 1]}
    else:
        yield {"k": k}


def _sweep() -> dict:
    tally: Counter = Counter()
    digest = hashlib.sha256()
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            for statement in GRAPH_STATEMENTS:
                for k in range(4):
                    if statement == "ore" and k:
                        continue
                    for params in _sweep_params(statement, n, k):
                        out = _outcome(check_statement, statement, g, **params)
                        key = out.get("error") or f"{out['status']}: {out['note']}"
                        tally[f"{statement} | {key}"] += 1
                        digest.update(json.dumps([params, out], sort_keys=True).encode())
    return {"sha256": digest.hexdigest(), "tally": dict(sorted(tally.items()))}


# --- patched searches and spectral results -------------------------------------


def _stub_q(values):
    """A q_index returning the given (q, residual) pairs in call order."""
    pending = list(values)

    def q_index(g, **_):
        q, residual = pending.pop(0)
        return SpectralResult(float(q), np.zeros(g.n), float(residual), 0, "stub")

    return q_index


def _patched(fn, q=None, finds_nothing=()):
    """Run ``fn`` with ``verify.q_index`` stubbed (its results carry no
    graph, so certified_compare decides them on the residual interval) and
    the named searches returning None.  run_suite answers from path
    tables where it has them, so a stubbed find_constrained_path also takes
    its tables away."""

    def run():
        with ExitStack() as stack:
            if q is not None:
                stack.enter_context(mock.patch.object(verify, "q_index", _stub_q(q)))
            for name in finds_nothing:
                stack.enter_context(
                    mock.patch.object(verify, name, lambda *a, **kw: None)
                )
            if "find_constrained_path" in finds_nothing:
                stack.enter_context(mock.patch.object(verify, "_TABLE_MAX", -1))
            return fn()

    return run


# threshold offsets: below, tied, above by 1 and by 5e-10 (above too: the
# float path calls only an exact tie "eq"), and a residual that straddles
# the threshold
SHIFTS = {"lt": (-1.0, 0.0), "tie": (0.0, 0.0), "gt": (1.0, 0.0),
          "near": (5e-10, 0.0), "ind": (0.0, 0.5)}


def _around(threshold, *shifts):
    return [(threshold + SHIFTS[s][0], SHIFTS[s][1]) for s in shifts]


def _lemma3_thresholds(k, p, m):
    n = 2 * k * p + m
    return m + 2 * k - 2 + 6.0 * p * k / (n + 3), float(n + 2 * k - 2)


def _cases() -> dict:
    cases = {}
    # graphs and parameters the suite never builds
    for label, g, k in [
        ("triangles", disjoint_union([complete(3)] * 3), 2),
        ("path5", path(5), 2),
        ("cycle7", cycle(7), 3),
        ("s_nk_8_1", s_nk(8, 1), 1),
        ("k8", complete(8), 3),
    ]:
        for statement in ("egp", "egc", "kopylov_i", "kopylov_ii", "lemma1"):
            cases[f"{statement}/{label}"] = _check(statement, g, k=k)
    cases["egp/k_as_text"] = _check("egp", complete(3), k="2")
    cases["ni/triangle"] = _check("ni", complete(3), k=1, a=[0, 1])
    cases["ni/with_b"] = _check("ni", complete(4), k=1, a=[0, 1], b=[2, 3])
    cases["lemma2/pendant"] = _check(
        "lemma2", disjoint_union([complete(4), kite_pendant(2)]), k=2, v=8)
    # errors
    cases["error/unknown"] = _check("nosuch", complete(3))
    cases["error/no_graph"] = _check("egp", k=1)
    cases["error/no_graph_ore"] = _check("ore")
    cases["error/no_k"] = _check("egp", complete(3))
    cases["error/no_k_lemma3"] = _check("lemma3", h=complete(3), p=1)
    for statement, low in [("lemma3", 1), ("cor1", 1), ("egc", 1), ("theorem1", 1)]:
        cases[f"error/{statement}_k_{low}"] = _check(statement, complete(30), k=low, p=1)
    cases["error/ni_no_a"] = _check("ni", complete(3), k=1)
    cases["error/ni_a_range"] = _check("ni", complete(3), k=1, a=[5])
    cases["error/ni_b"] = _check("ni", complete(3), k=1, a=[0], b=[1])
    cases["error/lemma2_no_v"] = _check("lemma2", complete(3), k=1)
    cases["error/lemma2_v_range"] = _check("lemma2", complete(3), k=1, v=-1)
    cases["error/lemma3_no_h"] = _check("lemma3", k=2, p=1)
    cases["error/lemma3_p"] = _check("lemma3", k=2, p=-1, h=complete(3))
    cases["error/lemma3_w"] = _check("lemma3", k=2, p=1, h=complete(21), w=25)
    cases["error/lemma3_blocks"] = _check(
        "lemma3", k=2, p=2, h=complete(21), f_blocks=[complete(4)])
    cases["error/lemma3_block_order"] = _check(
        "lemma3", k=2, p=1, h=complete(21), f_blocks=[complete(5)])
    cases["error/lemma3_empty_h"] = _check("lemma3", k=2, p=1, h=build_graph(0))
    cases["error/lemma3_attachment"] = _check(
        "lemma3", k=2, p=1, h=complete(21), attachment=[4])
    cases["error/cor1_no_p"] = _check("cor1", k=2)
    cases["error/cor2_no_w"] = _check("cor2", complete(3), k=2)
    cases["error/cor2_w_range"] = _check("cor2", complete(3), k=2, w=3)
    cases["error/probe_k"] = lambda: _outcome(theorem1_construction_probe, 25, 1)
    # spectral checkers on real graphs
    cases["cor1/5"] = _check("cor1", k=2, p=5)
    cases["cor1/2"] = _check("cor1", k=2, p=2)
    cases["cor1/k3"] = _check("cor1", k=3, p=4)
    cases["cor2/star"] = _check("cor2", star(30), k=2, w=0)
    cases["cor2/s_nk"] = _check("cor2", s_nk(30, 2), k=2, w=0)
    cases["cor2/s_nk_leaf"] = _check("cor2", s_nk(30, 2), k=2, w=29)
    cases["cor2/component"] = _check("cor2", complete(26), k=2, w=0)
    cases["cor2/clique_component"] = _check(
        "cor2", disjoint_union([complete(4), star(21)]), k=2, w=4)
    for label, g in [("k30", complete(30)), ("path30", path(30)), ("k10", complete(10)),
                     ("k21", complete(21)), ("k20", complete(20)), ("s_nk", s_nk(30, 2))]:
        for statement in ("theorem1", "theorem1_corollary"):
            cases[f"{statement}/{label}"] = _check(statement, g, k=2)
    # q ties n+2k-2 exactly: K_k joined to a star on j+1 vertices and n-k-j-1
    # independent vertices
    for statement, n, k, j in [("theorem1", 40, 2, 13), ("theorem1_corollary", 46, 3, 23)]:
        g = join(complete(k), disjoint_union([star(j + 1), edgeless(n - k - j - 1)]))
        cases[f"{statement}/pd_{n}_{k}_{j}"] = _check(statement, g, k=k)
    h = path(21)
    cases["lemma3/path21"] = _check("lemma3", k=2, p=1, h=h, w=0, attachment=[0, 1])
    cases["lemma3/graph_ignored"] = _check(
        "lemma3", complete(3), k=2, p=1, h=h, w=3, attachment=[2])
    cases["lemma3/f_blocks"] = _check(
        "lemma3", k=2, p=1, h=h, f_blocks=[cycle(4)], attachment=[0, 1, 2, 3])
    cases["lemma3/dense_h"] = _check("lemma3", k=2, p=1, h=complete(21))
    cases["lemma3/small"] = _check("lemma3", k=2, p=1, h=complete(3))
    cases["lemma3/k3"] = _check("lemma3", k=3, p=2, h=star(20), w=0, attachment=[0, 11])
    for n, k in [(25, 2), (26, 2), (10, 2), (21, 2), (20, 2), (46, 3), (45, 3), (130, 3),
                 (25, 1)]:
        cases[f"prop1/{n}_{k}"] = lambda n=n, k=k: _outcome(prop1_sandwich_check, n, k)
        if k >= 2:
            cases[f"probe/{n}_{k}"] = lambda n=n, k=k: _outcome(theorem1_construction_probe, n, k)
    # suites: every statement and k, sampled ni vertex sets, and violations
    cases["suite/n5"] = lambda: _outcome(
        run_suite, SUITE_STATEMENTS, n_max=5, k_range=(3, 0, 1, 2, 1), seed=1)
    cases["suite/ni_sampled"] = mock.patch.object(verify, "_NI_SAMPLE", 5)(lambda: _outcome(
        run_suite, ["ni"], corpus=[cycle(7), complete(8)], k_range=(1, 2), seed=3))
    cases["suite/violations"] = _patched(
        lambda: _outcome(run_suite, ["egp", "ni", "lemma2", "kopylov_i"], n_max=4,
                         k_range=(1, 2)),
        None, ("find_constrained_path",))
    # unreachable branches: searches that find nothing
    no_path = ("find_constrained_path",)
    for label, statement, g, params, nothing in [
        ("egp/above", "egp", complete(5), {"k": 1}, no_path),
        ("egp/equal_unstructured", "egp", cycle(4), {"k": 2}, no_path),
        ("egc/above", "egc", complete(5), {"k": 2}, ("find_cycle_of_length",)),
        ("egc/equal_unstructured", "egc", disjoint_union([complete(3), complete(1)]),
         {"k": 2}, ("find_cycle_of_length",)),
        ("kopylov_i/above", "kopylov_i", complete(8), {"k": 1}, no_path),
        ("kopylov_ii/above", "kopylov_ii", complete(8), {"k": 1}, no_path),
        ("ore/no_cycle", "ore", complete(5), {}, ("find_cycle_of_length",)),
        ("ni/no_path", "ni", complete(3), {"k": 1, "a": [0, 1]}, no_path),
        ("lemma1/above", "lemma1", complete(5), {"k": 1}, no_path),
        ("lemma2/above", "lemma2", complete(5), {"k": 1, "v": 0}, no_path),
        ("theorem1/no_cycle", "theorem1", complete(30), {"k": 2}, ("find_cycle_of_length",)),
    ]:
        cases[f"patched/{label}"] = _patched(_check(statement, g, **params), None, nothing)
    # unreachable branches: chosen q and residual around each threshold
    for shift in SHIFTS:
        cases[f"stub/cor1/{shift}"] = _patched(_check("cor1", k=2, p=5), _around(28.0, shift))
        cases[f"stub/cor2/{shift}"] = _patched(
            _check("cor2", star(30), k=2, w=0), _around(32.0, shift))
        for statement in ("theorem1", "theorem1_corollary"):
            for label, g in [("k30", complete(30)), ("path30", path(30))]:
                cases[f"stub/{statement}/{label}/{shift}"] = _patched(
                    _check(statement, g, k=2), _around(32.0, shift))
    hyp, con = _lemma3_thresholds(2, 1, 21)
    for first in SHIFTS:
        seconds = SHIFTS if first in ("lt", "tie", "near") else ("lt",)
        for second in seconds:
            values = _around(hyp, first) + _around(con, second)
            cases[f"stub/lemma3/{first}/{second}"] = _patched(
                _check("lemma3", k=2, p=1, h=path(21), w=0, attachment=[0, 1]), values)
    cases["stub/lemma3/hyp_margin_2e-9"] = _patched(
        _check("lemma3", k=2, p=1, h=path(21)), [(hyp + 2e-9, 0.0), (con - 1, 0.0)])
    cases["stub/lemma3/con_margin_2e-9"] = _patched(
        _check("lemma3", k=2, p=1, h=path(21)), [(hyp - 1, 0.0), (con + 2e-9, 0.0)])
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_case_names_match_fixture(golden):
    assert sorted(CASES) == sorted(golden["cases"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_outcome_matches_fixture(name, golden):
    got = json.loads(json.dumps(CASES[name]()))
    assert _same(got, golden["cases"][name]), (got, golden["cases"][name])


def test_sweep_matches_fixture(golden):
    got = _sweep()
    assert got["tally"] == golden["sweep"]["tally"]
    assert got["sha256"] == golden["sweep"]["sha256"]


if __name__ == "__main__":
    names = sys.argv[1:] or ["sweep", *CASES]
    unknown = [name for name in names if name != "sweep" and name not in CASES]
    if unknown:
        sys.exit(f"unknown case {', '.join(unknown)}; choose sweep or a case name, such as prop1/25_1")
    payload = json.loads(GOLDEN.read_text()) if sys.argv[1:] else {"cases": {}}
    for name in names:
        if name == "sweep":
            payload["sweep"] = _sweep()
        else:
            payload["cases"][name] = CASES[name]()
    GOLDEN.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
