"""qext benchmark: one workload, one seed, printed as one JSON line.

    python3 bench/run.py --workload suite --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0

Every timed repetition runs in a fresh interpreter (qext keeps its
canonical-code and enumeration caches per process, so this is what a CLI
user pays), one child at a time, with ``jobs=1`` and BLAS pinned to one
thread.  Repetitions repeat until ``--seconds`` have passed (at least one).
Extra children that stop after building the inputs sample the set-up time.

With ``--trace 0`` the last line holds the end-to-end metrics, medians over
the repetitions; ``norm_wall_s`` and ``setup_s`` are the body's wall time and
the set-up time rescaled to a fixed machine speed by ``harness.SpeedProbe``.  With ``--trace 1`` one
more repetition runs under the span tracer and the last line holds the
per-layer metrics.  Every repetition
checks the workload's oracles; a wrong answer prints ``"correct": false``
and exits 1.  ``--workload all`` runs every workload and prints a table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import OUT_DIR, WORKLOADS  # noqa: E402
from layers import PER_LAYER  # noqa: E402

SETUP_SAMPLES = 5
MAX_REPS = 50
CHILD_TIMEOUT_S = 170.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "QEXT_JOBS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = (
    ("setup_s", "s"),
    ("norm_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def benchmark_spec() -> dict[str, Any]:
    """BENCHMARK.json: run length, workloads and metric bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class BenchError(RuntimeError):
    """A child failed to produce a result; the run prints none."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict[str, Any]:
    cmd = [sys.executable, os.path.join(HERE, "harness.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict[str, Any]:
    """What a result depends on besides the code under test."""
    probe = (
        "import ctypes, glob, os, numpy\n"
        "libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), '..', 'numpy.libs', '*openblas*'))\n"
        "n = 'unknown'\n"
        "for lib in libs:\n"
        "    f = getattr(ctypes.CDLL(lib), 'scipy_openblas_get_num_threads64_', None)\n"
        "    if f is not None:\n"
        "        f.restype = ctypes.c_int; n = f()\n"
        "print(numpy.__version__, n)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                         text=True, timeout=60)
    numpy_version, blas_threads = (out.stdout.split() + ["unknown", "unknown"])[:2]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qext")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "jobs": 1,
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    """Run the children of one workload and reduce them to one result."""
    deadline = time.monotonic() + 175.0
    setups = [run_child(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    reps: list[dict[str, Any]] = []
    began = time.monotonic()
    while not reps or (time.monotonic() - began < seconds and len(reps) < MAX_REPS):
        reps.append(run_child(workload, seed, "timed", deadline))
    traced = run_child(workload, seed, "traced", deadline) if trace else None

    every = reps + ([traced] if traced else [])
    problems = [p for r in every for p in r["oracle_failures"]]
    # the same seed must give the same answers on every repetition
    for key in ("attempted", "failed", "not_ok", "gaps", "accepted_moves"):
        if len({json.dumps(r.get(key), sort_keys=True) for r in every}) > 1:
            problems.append(f"repetitions disagree on {key}")
    norm_wall = statistics.median(r["norm_wall_s"] for r in reps)
    first = reps[0]
    summary = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + reps),
        "setup_raw_s": statistics.median(r["setup_raw_s"] for r in setups + reps),
        "norm_wall_s": norm_wall,
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "speed_scale": statistics.median(r["speed_scale"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_ratio": 1.0 - first["fail_ratio"],
        "fail_ratio": first["fail_ratio"],
    }
    if workload == "search":
        summary["search_gap"] = statistics.fmean(first["gaps"].values())
    layers = None
    if traced is not None:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["norm_wall_s"] / norm_wall - 1.0
    return {
        "workload": workload,
        "reps": len(reps),
        "setup_samples": len(setups) + len(reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "not_ok": first["not_ok"],
        "problems": problems,
        "summary": summary,
        "layers": layers,
        "ops": first["ops"],
        "rep_wall_s": [r["wall_s"] for r in reps],
        "rep_cpu_s": [r["cpu_s"] for r in reps],
        "rep_norm_wall_s": [r["norm_wall_s"] for r in reps],
        "rep_speed_scale": [r["speed_scale"] for r in reps],
    }


def result_line(m: dict[str, Any], trace: bool) -> dict[str, Any]:
    if trace:
        metrics = {name: {"value": m["layers"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": m["summary"][name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }


def report(m: dict[str, Any], env: dict[str, Any]) -> None:
    """Human-readable lines above the result line."""
    s = m["summary"]
    print(f"# {m['workload']}: {m['reps']} repetitions, {m['setup_samples']} set-up samples, "
          f"env {json.dumps(env, sort_keys=True)}")
    lines = [
        ("setup_s", s["setup_s"], f"s (raw {s['setup_raw_s']:.4g} s)"),
        ("norm_wall_s", s["norm_wall_s"], "s"),
        ("wall_s", s["wall_s"], f"s (speed_scale {s['speed_scale']:.4f})"),
        ("peak_rss_mb", s["peak_rss_mb"], "MB"),
        ("fail_ratio", s["fail_ratio"], f"ratio {json.dumps(m['not_ok'], sort_keys=True)}"),
    ]
    if "search_gap" in s:
        lines.append(("search_gap", s["search_gap"], "ratio"))
    for name, value, unit in lines:
        print(f"#   {name:12s} {value:.6g} {unit}")
    for problem in m["problems"]:
        print(f"# WRONG ANSWER: {problem}")


def save(m: dict[str, Any], env: dict[str, Any], seed: int, trace: bool) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{m['workload']}-{seed}-trace{int(trace)}.json")
    with open(path, "w") as handle:
        json.dump({"env": env, **m}, handle, indent=1, sort_keys=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if not os.path.isfile(os.path.join(ROOT, "src", "qext", "__init__.py")):
        print(f"error: no qext sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    results = {}
    try:
        for name in names:
            m = measure(name, args.seed, args.seconds, bool(args.trace))
            report(m, env)
            save(m, env, args.seed, bool(args.trace))
            results[name] = result_line(m, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
