"""Steadiness check: run workloads over several seeds and print each metric's spread.

    python3 bench/steady.py --workload probes --seeds 1-5
    python3 bench/steady.py --workload all --seeds 1-10 --out bench/out/steady.json
    python3 bench/steady.py --workload all --seeds 1 --trace 1 --out bench/out/steady.json

For every metric it prints the sample count, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  End-to-end
metrics are compared with a third of their bound in BENCHMARK.json; the
check does not apply to ``setup_s``.  Exits 1 if a run gave a wrong answer
or failed, 0 otherwise.  ``--out`` keeps the per-seed values and statistics,
with the environment, in the file's ``end_to_end`` or ``per_layer`` section.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import WORKLOADS  # noqa: E402
from run import benchmark_spec, environment  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def run_seeds(workload: str, seeds: list[int], seconds: int, trace: int) -> tuple[list[dict[str, Any]], bool]:
    results, ok = [], True
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        results.append({"seed": seed, **result})
        print(f"  {workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:6]), flush=True)
    return results, ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seeds", default="1-10", help="comma list of seeds or ranges, e.g. 1-5,9")
    parser.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write per-seed values and statistics as JSON")
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    limits = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summary: dict[str, Any] = {}
    all_ok = True
    for name in names:
        results, ok = run_seeds(name, parse_seeds(args.seeds), args.seconds, args.trace)
        all_ok = all_ok and ok
        if not results:
            continue
        stats = {}
        print(f"{name}: {'metric':45s} {'unit':6s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound/3")
        for metric, first in results[0]["metrics"].items():
            s = spread([r["metrics"][metric]["value"] for r in results])
            stats[metric] = {"unit": first["unit"], **s}
            bound = limits.get(metric) if not args.trace else None
            verdict = ""
            if bound is not None and metric != "setup_s":
                verdict = f"{bound / 3:.3f} {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"{name}: {metric:45s} {first['unit']:6s} {s['n']:3d} {s['median']:12.6g} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f}  {verdict}")
        summary[name] = {"seeds": [r["seed"] for r in results], "stats": stats,
                         "values": {m: [r["metrics"][m]["value"] for r in results] for m in stats}}
    if args.out:
        # end-to-end and per-layer runs fill separate sections of one file
        data: dict[str, Any] = {}
        if os.path.exists(args.out):
            with open(args.out) as handle:
                data = json.load(handle)
        env = environment(parse_seeds(args.seeds)[0])
        env.pop("seed")
        section = data.setdefault("per_layer" if args.trace else "end_to_end", {})
        section.update({name: {"seconds": args.seconds, "env": env, **s} for name, s in summary.items()})
        with open(args.out, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
