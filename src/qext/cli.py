"""Command-line surface: one subcommand per workbench artifact.

Exit codes: 0 all checks hold (vacuous preconditions allowed), 1 at least
one violation, 2 indeterminate outcomes present but nothing violated,
3 usage or runtime error.  ``--out`` writes the JSON run report and
``--csv`` a flat table; both are optional.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Sequence

from .bounds import das_bound, edge_degree_bound, merris_bound
from .enumeration import parse_graph6, read_graph6_lines, write_graph6
from .families import FAMILY_NAMES, build_construction
from .graph import Graph
from .report import RunReport, exit_code_for, record, write_csv
from .search import maximize_q_forbidden_cycles
from .spectral import ConvergenceError, q_index
from .subgraphs import SearchBudgetExceeded
from .verify import CheckOutcome, prop1_sandwich_check, run_suite, theorem1_construction_probe


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage()}")


def _jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="qext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--out", help="write the JSON run report to this path")
        p.add_argument("--csv", help="write a flat CSV of the outcomes to this path")

    p = sub.add_parser("qindex", parents=[], help="Q-index of graph6 inputs")
    p.add_argument("--graph6", action="append", help="a graph6 token; repeat for more")
    p.add_argument("--file", help="file with one graph6 token per line")
    add_common(p)

    p = sub.add_parser("construct", help="emit a named family as graph6")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--copies", type=int)
    add_common(p)

    p = sub.add_parser("bounds", help="evaluate q plus the upper bounds on inputs")
    p.add_argument("--graph6", action="append", help="a graph6 token; repeat for more")
    p.add_argument("--file", help="file with one graph6 token per line")
    add_common(p)

    p = sub.add_parser("prop1", help="exact sandwich check for the split family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)

    p = sub.add_parser("theorem1", help="construction probe at the q threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)

    p = sub.add_parser("suite", help="run statement checkers over enumerated graphs")
    p.add_argument("--statements", required=True, help="comma-separated tags")
    p.add_argument("--nmax", type=int, help="enumerate all graphs up to this order")
    p.add_argument("--k", default="1,2,3", help="comma-separated k values")
    p.add_argument("--corpus", help="graph6 file used instead of native enumeration")
    p.add_argument("--seed", type=int, default=0, help="seeds ni's sampled vertex sets above 6 vertices")
    p.add_argument("--jobs", type=_jobs, default=1)
    add_common(p)

    p = sub.add_parser("search", help="maximize q under forbidden cycle lengths")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid", required=True, help="comma-separated cycle lengths")
    p.add_argument("--budget", type=int, help="pairs drawn to grow the --seed-construction graph")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seed-construction", help="seed s_nk:k or s_nk_plus:k, e.g. s_nk:2")
    p.add_argument("--jobs", type=_jobs, default=1)
    add_common(p)

    return parser


def _input_graphs(args: argparse.Namespace) -> list[tuple[str, Graph]]:
    if args.graph6 and args.file:
        raise UsageError("give either --graph6 or --file, not both")
    if args.graph6:
        return [(token, parse_graph6(token)) for token in args.graph6]
    # read as ASCII, any other byte as U+FFFD, which the parser reports by line
    if args.file:
        with open(args.file, encoding="ascii", errors="replace") as handle:
            text = handle.read()
    elif sys.stdin.isatty():
        raise UsageError("no input: pass --graph6, --file, or pipe graph6 lines on stdin")
    else:
        text = sys.stdin.buffer.read().decode("ascii", errors="replace")
    # the stripped lines read_graph6_lines parses: strict graph6 has one token per graph
    graphs = read_graph6_lines(text)
    return list(zip([t for t in map(str.strip, text.splitlines()) if t], graphs))


def _cmd_qindex(args: argparse.Namespace) -> list[dict[str, Any]]:
    outcomes = []
    for token, g in _input_graphs(args):
        result = q_index(g)
        outcomes.append(record("spectral", result, graph6=token))
        print(f"{token} q={result.q:.12g} residual={result.residual:.3g} method={result.method}")
    return outcomes


def _cmd_construct(args: argparse.Namespace) -> list[dict[str, Any]]:
    params = {
        name: getattr(args, name)
        for name in ("n", "k", "p", "copies")
        if getattr(args, name) is not None
    }
    g = build_construction(args.family, params)
    token = write_graph6(g)
    print(token)
    return [record("construct", g, family=args.family, params=params, graph6=token)]


def _cmd_bounds(args: argparse.Namespace) -> list[dict[str, Any]]:
    outcomes: list[dict[str, Any]] = []
    for token, g in _input_graphs(args):
        result = q_index(g)
        outcomes.append(record("spectral", result, graph6=token))
        values = []
        for fn in (merris_bound, das_bound, edge_degree_bound):
            try:
                bound = fn(g)
            except ValueError as exc:
                name = fn.__name__.removesuffix("_bound")
                outcomes.append(
                    record("bound", graph6=token, name=name, value=None,
                           relation="upper_bound_on_q", note=str(exc))
                )
                values.append(f"{name}=undefined")
            else:
                outcomes.append(record("bound", bound, graph6=token))
                values.append(f"{bound.name}={bound.value:.12g}")
        print(f"{token} q={result.q:.12g} " + " ".join(values))
    return outcomes


def _print_checks(outcomes: list[CheckOutcome]) -> list[dict[str, Any]]:
    for outcome in outcomes:
        print(
            f"{outcome.statement}: {outcome.status}"
            f" (lhs={outcome.lhs:.10g}, rhs={outcome.rhs:.10g}) {outcome.note}".rstrip()
        )
    return [outcome.as_record() for outcome in outcomes]


def _cmd_prop1(args: argparse.Namespace) -> list[dict[str, Any]]:
    return _print_checks(prop1_sandwich_check(args.n, args.k))


def _cmd_theorem1(args: argparse.Namespace) -> list[dict[str, Any]]:
    return _print_checks([theorem1_construction_probe(args.n, args.k)])


def _cmd_suite(args: argparse.Namespace) -> list[dict[str, Any]]:
    statements = [s.strip() for s in args.statements.split(",") if s.strip()]
    if not statements:
        raise UsageError("--statements must name at least one tag")
    try:
        k_range = [int(tok) for tok in args.k.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --k list: {exc}") from None
    corpus = None
    if args.corpus:
        with open(args.corpus, encoding="ascii", errors="replace") as handle:
            corpus = read_graph6_lines(handle.read())
    elif args.nmax is None:
        raise UsageError("give --nmax or --corpus")
    report = run_suite(
        statements,
        n_max=args.nmax,
        k_range=k_range,
        corpus=corpus,
        seed=args.seed,
        jobs=args.jobs,
    )
    for statement, counts in report.by_statement.items():
        print(
            f"{statement}: holds={counts['holds']} equality={counts['equality_case']}"
            f" violated={counts['violated']} unmet={counts['precondition_unmet']}"
            f" indeterminate={counts['indeterminate']}"
        )
    print(
        f"total instances={report.instances} violated={report.violated}"
        f" indeterminate={report.indeterminate}"
    )
    return [report.as_record()]


def _parse_seed_construction(text: str, n: int) -> Graph:
    try:
        family, k_text = text.split(":", 1)
        k = int(k_text)
    except ValueError:
        raise UsageError("--seed-construction must look like s_nk:2") from None
    if family not in ("s_nk", "s_nk_plus"):
        raise UsageError(f"--seed-construction family must be s_nk or s_nk_plus, got {family!r}")
    return build_construction(family, {"n": n, "k": k})


def _cmd_search(args: argparse.Namespace) -> list[dict[str, Any]]:
    try:
        forbidden = {int(tok) for tok in args.forbid.split(",") if tok.strip()}
    except ValueError as exc:
        raise UsageError(f"bad --forbid list: {exc}") from None
    seed_graph, grow = None, {}
    if args.seed_construction:
        seed_graph = _parse_seed_construction(args.seed_construction, args.n)
    if args.budget is not None:
        if seed_graph is None:
            raise UsageError("--budget grows the seed graph: it needs --seed-construction")
        grow["budget"] = args.budget
    result = maximize_q_forbidden_cycles(
        args.n,
        forbidden,
        **grow,
        restarts=args.restarts,
        seed=args.seed,
        seed_graph=seed_graph,
        jobs=args.jobs,
    )
    outcome = result.as_record()
    print(outcome["graph6"])
    print(
        f"q in [{outcome['q_low']:.12g}, {outcome['q_high']:.12g}]"
        f" feasible={outcome['feasible']} accepted_moves={outcome['accepted_moves']}"
        f" matched_family={outcome['matched_family']}"
    )
    for token in outcome["near_ties"]:
        if token != outcome["graph6"]:
            print(f"near-tie {token}")
    return [outcome]


_COMMANDS = {
    "qindex": _cmd_qindex,
    "construct": _cmd_construct,
    "bounds": _cmd_bounds,
    "prop1": _cmd_prop1,
    "theorem1": _cmd_theorem1,
    "suite": _cmd_suite,
    "search": _cmd_search,
}


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        outcomes = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OverflowError, OSError, ConvergenceError, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started
    parameters = {
        # one --graph6 token is recorded as a plain string
        key: value[0] if key == "graph6" and len(value) == 1 else value
        for key, value in vars(args).items()
        if key not in ("command", "out", "csv") and value is not None
    }
    report = RunReport(
        command=args.command,
        parameters=parameters,
        outcomes=outcomes,
        elapsed_seconds=elapsed,
    )
    try:
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report.to_json())
        if args.csv:
            write_csv(report, args.csv)
    except OSError as exc:  # an unwritable report path is not a violation
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return exit_code_for(outcomes)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
