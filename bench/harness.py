"""Workloads of the qext benchmark and the child process that runs one of them.

Each repetition runs in a fresh interpreter started by ``run.py``::

    python3 bench/harness.py --workload suite --seed 3 --mode timed --t0 <monotonic>

``--mode setup`` stops after building the inputs, ``timed`` runs the timed
body once, ``traced`` runs it once under the span tracer.  The child prints
one JSON object on stdout.  It checks every oracle after the timed body and
reports the failures instead of raising, so the parent decides the exit code.

Workloads see qext only through its public functions, looked up on the
``qext`` package at call time so that the tracer's wrappers are used.  The
inputs are made here from the seed; qext receives only the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import signal
import sys
import time
from collections import Counter
from typing import Any, Callable

from layers import SEARCH_ORDERS, layer_metrics
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")

# statuses a top-level operation can end in; all but "ok" count as failing
OK = "ok"
INDETERMINATE = "indeterminate"
CONVERGENCE = "convergence_error"
BUDGET = "budget_exceeded"


class Ops:
    """Times and classifies the top-level operations of one repetition."""

    def __init__(self, tracer: Any = None):
        self.tracer = tracer
        self.labels: list[str] = []
        self.seconds: list[float] = []
        self.attempted = 0
        self.failed = 0  # operations that ended without any answer
        self.not_ok: Counter[str] = Counter()

    def run(self, label: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        if self.tracer is not None:
            self.tracer.current_op = len(self.labels)
        self.labels.append(label)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.current_op = -1

    def count(self, status: str = OK, n: int = 1) -> None:
        self.attempted += n
        if status != OK:
            self.not_ok[status] += n

    @property
    def fail_ratio(self) -> float:
        return sum(self.not_ok.values()) / self.attempted if self.attempted else 0.0


def spectral_verdict(g: Any, threshold: float, **options: Any) -> tuple[Any, str]:
    """Certified comparison of q(g) against ``threshold``.

    A ConvergenceError still yields a verdict from the error's best
    estimate, as qext's own search does; the status records the error.
    ``options`` go to ``q_index``.
    """
    import qext

    try:
        result = qext.q_index(g, **options)
    except qext.ConvergenceError as exc:
        return qext.certified_compare(exc.best, threshold), CONVERGENCE
    cmp = qext.certified_compare(result, threshold)
    return cmp, INDETERMINATE if cmp.verdict == "indeterminate" else OK


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 token for n <= 62, written here so inputs do not depend on qext."""
    adj = set(edges) | {(v, u) for u, v in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = (int("".join(map(str, bits[p : p + 6])), 2) for p in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(g + 63) for g in groups)


def random_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return edges or [(0, 1)]


def row_major_code(n: int, rows: tuple[int, ...]) -> int:
    """Upper-triangle adjacency bits in row-major pair order, MSB first."""
    code = 0
    for u in range(n):
        for v in range(u + 1, n):
            code = code << 1 | (rows[u] >> v & 1)
    return code


def snk_closed_form(n: int, k: int) -> float:
    a = n + 2 * k - 2
    return 0.5 * (a + math.sqrt(a * a - 8 * (k * k - k)))


# --- machine speed ---------------------------------------------------------------

# This shared machine runs identical work 10-40 % slower or faster from second
# to second.  To keep that drift out of the gated time, a fixed chunk of
# pure-Python work is timed on a wall-clock timer inside the timed body, and
# the body's wall time is rescaled by the mean speed the chunks saw, relative
# to NOMINAL_CHUNK_S, the chunk's duration on an idle machine.  Chunks run
# right after set-up and after the body too: the first ones rescale the
# set-up time, and all set the body's scale when none ran inside it.
PROBE_PERIOD_S = 0.05
PROBE_ANCHORS = 8
NOMINAL_CHUNK_S = 0.003


def reference_chunk() -> int:
    """Fixed interpreter work (integer and list ops, as in qext's DFS code)."""
    table = list(range(64))
    x, acc = 1, 0
    for i in range(12500):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        j = x >> 26
        acc ^= table[j] << (i & 15)
        table[j] = acc & 0xFFFF
    return acc


class SpeedProbe:
    """Times ``reference_chunk`` around and, every PROBE_PERIOD_S, inside the body.

    ``busy_s`` is the time the chunks took inside the body, to be taken off
    its wall time; ``scale`` is the mean of NOMINAL_CHUNK_S over each chunk's
    time, and converts the rest to seconds at nominal speed.  Samples are
    evenly spaced in wall time, so their mean speed is the body's mean speed.
    """

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.inside: list[float] = []
        self._sampling = False

    def _sample(self, *_: Any) -> None:
        start = time.perf_counter()
        reference_chunk()
        took = time.perf_counter() - start
        (self.inside if self._sampling else self.chunks).append(took)

    def anchor(self) -> None:
        for _ in range(PROBE_ANCHORS):
            self._sample()

    def start(self) -> None:
        self._sampling = True
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sampling = False

    @property
    def busy_s(self) -> float:
        return sum(self.inside)

    @property
    def scale(self) -> float:
        samples = self.inside or self.chunks
        return sum(NOMINAL_CHUNK_S / took for took in samples) / len(samples)


# --- catalog -------------------------------------------------------------------

A000088 = (1, 2, 4, 11, 34, 156, 1044, 12346)
# sha256 of the n = 8 catalogue's codes, one decimal per line in yield order,
# as produced by the canonical labelling this benchmark was defined against
N8_CODES_SHA256 = "dcadbe6e773ef71781b0e6950c99589d3cdc1a8af2898923c1962081365e38b6"


def codes_digest(codes: list[int]) -> str:
    return hashlib.sha256("\n".join(map(str, codes)).encode()).hexdigest()


class Catalog:
    why = "enumeration alone: isomorph-free catalogue n<=8 from cold caches plus n=9,10 canonical codes; no DFS, no spectral"

    def inputs(self, seed: int) -> dict[str, Any]:
        import qext

        rng = random.Random(seed)
        orders = (9, 9, 9, 10)
        return {"graphs": [qext.build_graph(n, random_edges(n, 0.5, rng)) for n in orders]}

    def body(self, inputs: dict[str, Any], ops: Ops) -> dict[str, Any]:
        import qext

        catalogue = {}
        for n in range(1, 9):
            catalogue[n] = ops.run(f"enumerate n={n}", lambda n=n: list(qext.enumerate_nonisomorphic(n)))
            ops.count()
        codes = []
        for i, g in enumerate(inputs["graphs"]):
            codes.append(ops.run(f"canonical_code n={g.n} #{i}", qext.canonical_code, g))
            ops.count()
        return {
            "counts": [len(catalogue[n]) for n in range(1, 9)],
            "n8_codes": [row_major_code(8, g.rows) for g in catalogue[8]],
            "codes": [(g.n, g.rows, code) for g, code in zip(inputs["graphs"], codes)],
        }

    def check(self, answers: dict[str, Any]) -> list[str]:
        bad = []
        if tuple(answers["counts"]) != A000088:
            bad.append(f"class counts {answers['counts']} != A000088 {list(A000088)}")
        digest = codes_digest(answers["n8_codes"])
        if digest != N8_CODES_SHA256:
            bad.append(f"n=8 canonical code list digest {digest} changed")
        for n, rows, code in answers["codes"]:
            own = row_major_code(n, rows)
            relabelled = [0] * n
            pos = n * (n - 1) // 2 - 1
            for u in range(n):
                for v in range(u + 1, n):
                    if code >> pos & 1:
                        relabelled[u] += 1
                        relabelled[v] += 1
                    pos -= 1
            if code > own or sorted(relabelled) != sorted(r.bit_count() for r in rows):
                bad.append(f"canonical code {code} is not a relabelling minimum of the n={n} input")
        return bad


# --- suite ---------------------------------------------------------------------

SUITE_INSTANCES = 256633


class Suite:
    why = "all 11 suite statements over n<=7, k=1,2,3: many tiny path/cycle DFS calls in subgraphs and verify; spectral never runs"

    def inputs(self, seed: int) -> dict[str, Any]:
        from qext.verify import SUITE_STATEMENTS

        return {"statements": SUITE_STATEMENTS, "ni_seed": seed}

    def body(self, inputs: dict[str, Any], ops: Ops) -> dict[str, Any]:
        import qext

        report = ops.run(
            "run_suite n<=7",
            qext.run_suite,
            inputs["statements"],
            n_max=7,
            k_range=(1, 2, 3),
            seed=inputs["ni_seed"],
            jobs=1,
        )
        ops.count(OK, report.instances - report.indeterminate)
        ops.count(INDETERMINATE, report.indeterminate)
        return {"report": report}

    def check(self, answers: dict[str, Any]) -> list[str]:
        report = answers["report"]
        bad = []
        if report.instances != SUITE_INSTANCES:
            bad.append(f"suite ran {report.instances} instances, expected {SUITE_INSTANCES}")
        if report.violated != 0:
            bad.append(f"suite reports {report.violated} violations")
        if not report.counts_consistent():
            bad.append("suite status counts do not add up to its instances")
        return bad


# --- search --------------------------------------------------------------------

DEFAULT_SEARCH_SEED = 0


class Search:
    why = "hill-climb search at n=10,16,24 avoiding C5: cycle-through-edge DFS, small power iterations, n=10 canonical tie-break"

    def inputs(self, seed: int) -> dict[str, Any]:
        # the seed qext search uses without --seed, plus one from the run's seed
        seeds = (DEFAULT_SEARCH_SEED, seed + 1)
        return {"probes": [(n, s) for n in SEARCH_ORDERS for s in seeds], "options": {}}

    def body(self, inputs: dict[str, Any], ops: Ops) -> dict[str, Any]:
        import qext

        results = []
        for n, s in inputs["probes"]:
            try:
                result = ops.run(
                    f"search n={n} seed={s}",
                    qext.maximize_q_forbidden_cycles,
                    n,
                    {5},
                    seed=s,
                    **inputs["options"],
                )
            except qext.SearchBudgetExceeded:
                ops.count(BUDGET)
                ops.failed += 1
                continue
            ops.count()
            results.append((n, s, result))
        return {"results": results}

    def check(self, answers: dict[str, Any]) -> list[str]:
        import qext

        bad = []
        for n, s, result in answers["results"]:
            if not (result.feasible and qext.is_feasible(result.best, {5})):
                bad.append(f"search n={n} seed={s} returned a graph with a 5-cycle")
            fresh = qext.q_index(result.best).q
            low, high = result.q_interval
            if not low - 1e-9 <= fresh <= high + 1e-9:
                bad.append(f"search n={n} seed={s}: q_interval {result.q_interval} misses fresh q={fresh}")
        return bad

    @staticmethod
    def gaps(answers: dict[str, Any]) -> dict[int, float]:
        """Per order: (s_nk(n,2) - best q found) / s_nk(n,2)."""
        best: dict[int, float] = {}
        for n, _, result in answers["results"]:
            q = 0.5 * (result.q_interval[0] + result.q_interval[1])
            best[n] = max(best.get(n, 0.0), q)
        return {n: (snk_closed_form(n, 2) - q) / snk_closed_form(n, 2) for n, q in best.items()}


# --- probes --------------------------------------------------------------------

PROBE_KS = (2, 3, 4, 5)
PROBE_ORDERS = (64, 65, 128, 256, 512)  # both sides of qext.spectral.DENSE_MAX
CORPUS_SIZE = 150
# bands of 16 orders over 3..199, aligned so that 145 starts a band
TIGHT_BANDS = tuple((max(3, lo), min(199, lo + 15)) for lo in range(1, 200, 16))


class Probes:
    why = "spectral verdicts: prop1/theorem1 up to n=512 on both engines, bounds over a graph6 corpus, and a tight-threshold slice"

    def inputs(self, seed: int) -> dict[str, Any]:
        rng = random.Random(seed)
        grid = []
        for k in PROBE_KS:
            smallest = 6 * k * k + 1 + rng.randrange(4)
            grid.append((smallest, k))
            for base in PROBE_ORDERS:
                n = base if base in (64, 65) else base - rng.randrange(4)
                if n > smallest:
                    grid.append((n, k))
        corpus = []
        for _ in range(CORPUS_SIZE):
            n = rng.randint(4, 62)
            corpus.append(graph6(n, random_edges(n, rng.uniform(0.1, 0.9), rng)))
        tight = [rng.randint(lo, hi) for lo, hi in TIGHT_BANDS]
        return {"grid": grid, "corpus_text": "\n".join(corpus) + "\n", "tight": tight}

    def body(self, inputs: dict[str, Any], ops: Ops) -> dict[str, Any]:
        import qext

        chains, probes = [], []
        for n, k in inputs["grid"]:
            chain = ops.run(f"prop1 n={n} k={k}", qext.prop1_sandwich_check, n, k)
            ops.count(INDETERMINATE if any(o.status == "indeterminate" for o in chain) else OK)
            chains.append((n, k, chain))
            probe = ops.run(f"theorem1 n={n} k={k}", qext.theorem1_construction_probe, n, k)
            ops.count(INDETERMINATE if probe.status == "indeterminate" else OK)
            probes.append((n, k, probe))

        graphs = ops.run("read_graph6_lines", qext.read_graph6_lines, inputs["corpus_text"])
        ops.count()
        outcomes: list[dict[str, Any]] = []
        for i, g in enumerate(graphs):
            status = ops.run(f"bounds #{i}", _bounds_records, g, outcomes)
            ops.count(status)
        report = qext.RunReport(command="bounds", parameters={"file": "corpus.g6"}, outcomes=outcomes)
        text = ops.run("to_json", report.to_json)
        os.makedirs(OUT_DIR, exist_ok=True)
        csv_path = os.path.join(OUT_DIR, f"bounds-{os.getpid()}.csv")
        try:
            ops.run("write_csv", qext.write_csv, report, csv_path)
        finally:
            os.remove(csv_path)
        parsed = ops.run("parse_report", qext.parse_report, text)
        ops.count(n=3)

        tight = []
        for n in inputs["tight"]:
            for name, build, threshold in (("K", qext.complete, 2 * n - 2), ("C", qext.cycle, 4)):
                cmp, status = ops.run(f"tight {name}_{n}", lambda: spectral_verdict(build(n), threshold))
                ops.count(status)
                tight.append((f"{name}_{n}", cmp.verdict))
        return {
            "chains": chains,
            "probes": probes,
            "outcomes": outcomes,
            "json": text,
            "reparsed": parsed.to_json(),
            "tight": tight,
        }

    def check(self, answers: dict[str, Any]) -> list[str]:
        bad = []
        for n, k, chain in answers["chains"]:
            if [o.status for o in chain] != ["holds"] * 3:
                bad.append(f"prop1 n={n} k={k}: chain {[o.status for o in chain]}")
            q = chain[0].rhs  # q(s_nk) is the right side of the lower link
            if abs(q - snk_closed_form(n, k)) > 1e-8:
                bad.append(f"q(s_nk({n},{k}))={q!r} differs from the closed form")
        for n, k, probe in answers["probes"]:
            if probe.status == "violated":
                bad.append(f"theorem1 probe n={n} k={k} violated: {probe.note}")
        q_of: dict[str, float] = {}
        for record in answers["outcomes"]:
            if record["kind"] == "spectral":
                q_of[record["graph6"]] = record["q"]
            elif record["value"] is not None and q_of[record["graph6"]] > record["value"] + 1e-9:
                bad.append(f"{record['name']} bound {record['value']} below q={q_of[record['graph6']]} on {record['graph6']}")
        if answers["reparsed"] != answers["json"]:
            bad.append("bounds report does not survive to_json -> parse_report -> to_json")
        for name, verdict in answers["tight"]:
            if verdict == "lt":
                bad.append(f"tight slice {name}: q certified below its exact value")
        return bad


def _bounds_records(g: Any, outcomes: list[dict[str, Any]]) -> str:
    """q and the three upper bounds of one graph, recorded as ``qext bounds`` does."""
    import qext

    token = qext.write_graph6(g)
    try:
        result = qext.q_index(g)
    except qext.ConvergenceError as exc:
        result, status = exc.best, CONVERGENCE
    else:
        status = OK
    outcomes.append(
        {
            "kind": "spectral",
            "graph6": token,
            "q": result.q,
            "residual": result.residual,
            "iterations": result.iterations,
            "method": result.method,
        }
    )
    for fn in (qext.merris_bound, qext.das_bound, qext.edge_degree_bound):
        bound = fn(g)
        outcomes.append(
            {
                "kind": "bound",
                "graph6": token,
                "name": bound.name,
                "value": bound.value,
                "relation": bound.relation,
            }
        )
    return status


WORKLOADS: dict[str, Any] = {
    "catalog": Catalog(),
    "suite": Suite(),
    "search": Search(),
    "probes": Probes(),
}


# --- child entry point -----------------------------------------------------------


def run_child(workload: str, seed: int, mode: str, t0: float) -> dict[str, Any]:
    import qext  # noqa: F401  (import cost belongs to set-up)

    spec = WORKLOADS[workload]
    inputs = spec.inputs(seed)
    setup = time.monotonic() - t0
    probe = SpeedProbe()
    probe.anchor()
    out: dict[str, Any] = {"workload": workload, "seed": seed, "mode": mode,
                           "setup_raw_s": setup, "setup_s": setup * probe.scale}
    if mode == "setup":
        return out

    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    ops = Ops(tracer)
    # chunks inside a traced body would swell the spans they interrupt
    if tracer is None:
        probe.start()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        answers = spec.body(inputs, ops)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    finally:
        if tracer is None:
            probe.stop()
    if tracer is not None:
        tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.anchor()
    out["wall_s"] = wall - probe.busy_s
    out["cpu_s"] = cpu - probe.busy_s
    out["speed_scale"] = probe.scale
    out["probe_chunks"] = len(probe.inside)
    out["norm_wall_s"] = out["wall_s"] * probe.scale

    out.update(
        attempted=ops.attempted,
        failed=ops.failed,
        fail_ratio=ops.fail_ratio,
        not_ok=dict(ops.not_ok),
        oracle_failures=spec.check(answers),
        ops=[[label, s] for label, s in zip(ops.labels, ops.seconds)],
    )
    if workload == "search":
        out["gaps"] = {str(n): g for n, g in Search.gaps(answers).items()}
        out["accepted_moves"] = sum(r.accepted_moves for _, _, r in answers["results"])
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, ops.labels, out)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.npz"), ops.labels)
    return out


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    args = parser.parse_args(argv)
    result = run_child(args.workload, args.seed, args.mode, args.t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
