import json
import subprocess
import sys

import pytest

from qext import cli, search
from qext.cli import build_parser, run
from qext.enumeration import parse_graph6, write_graph6
from qext.families import edgeless, s_nk
from qext.report import _CSV_COLUMNS, _KINDS, RunReport, exit_code_for, parse_report, record
from qext.subgraphs import SearchBudgetExceeded


def test_qindex_graph6(capsys):
    assert run(["qindex", "--graph6", "C~"]) == 0
    out = capsys.readouterr().out
    assert "q=6" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["qindex", "--graph6", "C~"],
        ["bounds", "--graph6", "C~"],
        ["prop1", "--n", "25", "--k", "2"],
        ["theorem1", "--n", "25", "--k", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_tol_flag_is_a_usage_error(capsys, argv):
    # every certified verdict uses one fixed residual bound: --tol is not a flag
    assert run(argv + ["--tol", "1e-8"]) == 3
    captured = capsys.readouterr()
    assert "unrecognized arguments: --tol 1e-8" in captured.err and "usage: qext" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_qindex_file(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\nC~\n")
    assert run(["qindex", "--file", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and "q=4" in out[0] and "q=6" in out[1]


@pytest.mark.parametrize("command", ["qindex", "bounds"])
def test_file_input_reports_its_own_tokens_without_re_encoding(tmp_path, monkeypatch, capsys, command):
    # each graph is reported under its stripped input line; graph6 is strict,
    # so that is the token write_graph6 would give, and it is never called
    path = tmp_path / "graphs.g6"
    path.write_text("  Bw \n\nC~\n")

    def refuse(g):
        raise AssertionError("input graphs must not be re-encoded")

    monkeypatch.setattr(cli, "write_graph6", refuse)
    out_path = tmp_path / "report.json"
    assert run([command, "--file", str(path), "--out", str(out_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["Bw", "C~"]
    spectral = [r for r in parse_report(out_path.read_text()).outcomes if r["kind"] == "spectral"]
    assert [r["graph6"] for r in spectral] == ["Bw", "C~"]


@pytest.mark.parametrize("command", ["qindex", "bounds"])
def test_repeated_graph6_reports_every_token(tmp_path, capsys, command):
    out_path = tmp_path / "report.json"
    assert run([command, "--graph6", "D~{", "--graph6", "Cl", "--out", str(out_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["D~{", "Cl"]
    report = parse_report(out_path.read_text())
    assert report.parameters["graph6"] == ["D~{", "Cl"]
    spectral = [r for r in report.outcomes if r["kind"] == "spectral"]
    assert [r["graph6"] for r in spectral] == ["D~{", "Cl"]


def test_single_graph6_is_recorded_as_a_string(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert run(["qindex", "--graph6", "C~", "--out", str(out_path)]) == 0
    assert parse_report(out_path.read_text()).parameters["graph6"] == "C~"


def test_graph6_with_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\n")
    assert run(["qindex", "--graph6", "C~", "--graph6", "Bw", "--file", str(path)]) == 3
    assert "not both" in capsys.readouterr().err


def test_construct_round_trip(capsys):
    assert run(["construct", "--family", "s_nk", "--n", "10", "--k", "2"]) == 0
    token = capsys.readouterr().out.strip()
    assert parse_graph6(token) == s_nk(10, 2)


def test_construct_rejects_missing_params(capsys):
    assert run(["construct", "--family", "s_nk", "--n", "10"]) == 3


@pytest.mark.parametrize(
    "params, order",
    [
        (["--family", "s_nk", "--n", "600", "--k", "2"], 600),
        (["--family", "s_nk_plus", "--n", "600", "--k", "2"], 600),
        (["--family", "kite_pendant", "--k", "300"], 601),
        (["--family", "corollary1", "--k", "2", "--p", "200"], 806),
        (["--family", "windmill", "--k", "3", "--copies", "300"], 601),
        (["--family", "lemma2_exception", "--k", "2", "--copies", "200"], 805),
        (["--family", "path", "--n", "513"], 513),
        (["--family", "cycle", "--n", "513"], 513),
        (["--family", "star", "--n", "513"], 513),
    ],
    ids=lambda p: p[1] if isinstance(p, list) else None,
)
def test_construct_over_the_limit_names_the_requested_order(capsys, params, order):
    # each family checks its own total order before it builds any part
    assert run(["construct"] + params) == 3
    captured = capsys.readouterr()
    assert f"vertex count {order} exceeds limit 512" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_bounds_handles_edgeless(capsys):
    token = write_graph6(edgeless(3))
    assert run(["bounds", "--graph6", token]) == 0
    out = capsys.readouterr().out
    assert "merris=undefined" in out and "das=1" in out


def test_prop1_exit_zero(tmp_path, capsys):
    out_path = tmp_path / "prop1.json"
    assert run(["prop1", "--n", "25", "--k", "2", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("holds") == 3
    report = parse_report(out_path.read_text())
    assert [r["statement"] for r in report.outcomes] == [
        "prop1_lower", "prop1_between", "prop1_upper",
    ]


@pytest.mark.parametrize("command", ["prop1", "theorem1"])
def test_split_checks_take_orders_past_the_graph_cap(capsys, command):
    assert run([command, "--n", "600", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("holds") == (3 if command == "prop1" else 1)


@pytest.mark.parametrize("command", ["prop1", "theorem1"])
def test_split_checks_take_orders_whose_square_leaves_float_range(capsys, command):
    # q(s_nk) near 10^200 is a float, though (n+2k-2)^2 is not
    assert run([command, "--n", str(10**200), "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("holds") == (3 if command == "prop1" else 1)


@pytest.mark.parametrize("command", ["prop1", "theorem1"])
def test_split_checks_reject_orders_past_float_range(capsys, command):
    # the verdict is exact at any order, but lhs and rhs are floats
    assert run([command, "--n", str(10**400), "--k", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_theorem1_unmet_is_not_an_error(capsys):
    # prop1 prints the same order-unmet record as the theorem1 probe
    for command in ("prop1", "theorem1"):
        assert run([command, "--n", "10", "--k", "2"]) == 0
        assert "precondition_unmet (lhs=10, rhs=21) order 10 < 21" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["prop1", "theorem1"])
def test_split_checks_reject_k_below_2(capsys, command):
    assert run([command, "--n", "25", "--k", "1"]) == 3
    captured = capsys.readouterr()
    assert "requires k >= 2, got 1" in captured.err and captured.out == ""


def test_suite_writes_report_and_csv(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = run(
        [
            "suite",
            "--statements",
            "egp,egc,lemma1",
            "--nmax",
            "5",
            "--k",
            "1,2,3",
            "--out",
            str(out_path),
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    text = out_path.read_text()
    report = parse_report(text)
    assert report.to_json() == text  # byte-identical round trip
    assert report.command == "suite"
    (record,) = report.outcomes
    assert record["violated"] == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "kind,name,status,value,lhs,rhs,graph6,note"
    assert len(lines) == 2


def test_suite_with_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nC~\nDhc\n")
    assert (
        run(["suite", "--statements", "egp", "--corpus", str(corpus), "--k", "1,2"])
        == 0
    )


def test_suite_rejects_nmax_with_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\nC~\n")
    assert run(["suite", "--nmax", "3", "--corpus", str(corpus), "--statements", "egp"]) == 3
    err = capsys.readouterr().err
    assert "give n_max or corpus, not both" in err and "Traceback" not in err


def test_suite_egc_on_the_empty_graph_exits_zero(tmp_path, capsys):
    # "?" is the graph on no vertices; egc's bound does not apply to it
    corpus = tmp_path / "empty.g6"
    corpus.write_text("?\n")
    assert run(["suite", "--statements", "egc", "--corpus", str(corpus)]) == 0
    assert "egc: holds=0 equality=0 violated=0 unmet=2" in capsys.readouterr().out


def test_suite_rejects_unknown_statement(capsys):
    assert run(["suite", "--statements", "egp,cor1", "--nmax", "4"]) == 3
    assert "unknown suite statement 'cor1'" in capsys.readouterr().err


def test_search_budget_exceeded_is_a_runtime_error(monkeypatch, capsys):
    # exit 1 means "violation found"; running out of search budget is exit 3
    def exhausted(*args, **kwargs):
        raise SearchBudgetExceeded("path search exceeded node budget 5")

    monkeypatch.setattr(cli, "run_suite", exhausted)
    assert run(["suite", "--statements", "egp", "--nmax", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: path search exceeded node budget 5\n"
    assert captured.out == ""


def test_search_cli(tmp_path, capsys):
    out_path = tmp_path / "search.json"
    code = run(
        [
            "search",
            "--n",
            "10",
            "--forbid",
            "5",
            "--budget",
            "50",
            "--restarts",
            "2",
            "--seed",
            "0",
            "--seed-construction",
            "s_nk:2",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out.splitlines()
    graph = parse_graph6(stdout[0].strip())
    assert graph.n == 10
    report = parse_report(out_path.read_text())
    (record,) = report.outcomes
    assert record["feasible"] is True
    assert record["q_low"] >= 11.65685425 - 1e-6


def test_search_bad_seed_construction(capsys):
    assert run(["search", "--n", "10", "--forbid", "5", "--seed-construction", "x"]) == 3


@pytest.mark.parametrize("family", ["frucht", "complete", "windmill"])
def test_search_seed_family_must_take_n_and_k(family, capsys):
    # only s_nk and s_nk_plus are built from (n, k)
    assert run(["search", "--n", "10", "--forbid", "5", "--seed-construction", f"{family}:2"]) == 3
    captured = capsys.readouterr()
    assert f"family must be s_nk or s_nk_plus, got '{family}'" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_search_budget_without_seed_is_a_usage_error(monkeypatch, capsys):
    # random restarts try every pair once, so only a seed graph reads --budget
    def restart(payload):
        raise AssertionError("a restart ran")

    monkeypatch.setattr(search, "_restart_worker", restart)
    assert run(["search", "--n", "10", "--forbid", "5", "--budget", "100"]) == 3
    captured = capsys.readouterr()
    assert "--budget grows the seed graph: it needs --seed-construction" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_search_above_graph6_orders_fails_before_searching(monkeypatch, capsys):
    # the result record carries the graph as graph6, which stops at 62 vertices
    def restart(payload):
        raise AssertionError("a restart ran")

    monkeypatch.setattr(search, "_restart_worker", restart)
    assert run(["search", "--n", "63", "--forbid", "5"]) == 3
    assert "search requires n <= 62, got 63" in capsys.readouterr().err
    assert run(["search", "--n", "63", "--forbid", "5", "--seed-construction", "s_nk:2"]) == 3
    assert "search requires n <= 62, got 63" in capsys.readouterr().err


def test_jobs_below_one_is_a_usage_error(capsys):
    assert run(["search", "--n", "10", "--forbid", "5", "--jobs", "0"]) == 3
    assert "--jobs: must be >= 1, got 0" in capsys.readouterr().err
    assert run(["suite", "--statements", "egp", "--nmax", "4", "--jobs", "-1"]) == 3
    assert "usage:" in capsys.readouterr().err
    assert run(["search", "--n", "10", "--forbid", "5", "--jobs", "two"]) == 3
    assert "--jobs: not an integer: 'two'" in capsys.readouterr().err


def test_jobs_defaults_to_one_whatever_the_environment(monkeypatch):
    monkeypatch.setenv("QEXT_JOBS", "2")
    assert build_parser().parse_args(["search", "--n", "10", "--forbid", "5"]).jobs == 1
    assert build_parser().parse_args(["suite", "--statements", "egp"]).jobs == 1


def test_unknown_subcommand_and_flags(capsys):
    assert run(["nosuch"]) == 3
    assert run(["qindex", "--nosuch"]) == 3
    err = capsys.readouterr().err
    assert "usage" in err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def test_report_rejects_unknown_fields():
    report = RunReport("qindex", {}, [])
    data = json.loads(report.to_json())
    data["surprise"] = 1
    with pytest.raises(ValueError, match="mismatch"):
        parse_report(json.dumps(data))
    bad_record = {
        "command": "x",
        "parameters": {},
        "outcomes": [{"kind": "spectral", "graph6": "Bw", "q": 1.0}],
        "artifact_version": "0.1.0",
        "elapsed_seconds": 0.0,
    }
    with pytest.raises(ValueError, match="missing fields"):
        parse_report(json.dumps(bad_record))
    bad_record["outcomes"] = [{"kind": "mystery"}]
    with pytest.raises(ValueError, match="unknown outcome kind"):
        parse_report(json.dumps(bad_record))


def test_record_takes_given_fields_then_source_attributes():
    class Source:
        statement, status, lhs, rhs, note = "egp", "holds", 1.0, 2.0, ""
        witness = (0, 1)

    assert record("check", Source(), note="given") == {
        "kind": "check", "statement": "egp", "status": "holds", "lhs": 1.0, "rhs": 2.0,
        "witness": [0, 1], "note": "given",
    }
    bound = {"graph6": "@", "name": "das", "value": None, "relation": "upper_bound_on_q"}
    assert "note" not in record("bound", **bound)
    assert record("bound", **bound, note="n=1")["note"] == "n=1"
    with pytest.raises(ValueError, match="unknown fields"):
        record("spectral", graph6="@", params={})
    with pytest.raises(AttributeError):
        record("spectral", graph6="@")


def test_kinds_table_is_consistent():
    for fields, optional, columns in _KINDS.values():
        assert not set(fields) & set(optional)
        assert set(columns) <= set(_CSV_COLUMNS) - {"kind"}
        named = {c for c in columns.values() if isinstance(c, str)}
        assert named <= set(fields) | set(optional)


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_report_path_is_a_runtime_error(tmp_path, capsys, flag):
    # exit 1 means a violation: a report that cannot be written is exit 3
    target = tmp_path / "missing" / "x.json"
    assert run(["qindex", "--graph6", "C~", flag, str(target)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert "Traceback" not in err and not target.exists()


def test_exit_code_mapping():
    check = {"kind": "check", "status": "holds"}
    violated = {"kind": "check", "status": "violated"}
    indet = {"kind": "check", "status": "indeterminate"}
    suite_ok = {"kind": "suite", "violated": 0, "indeterminate": 0}
    suite_bad = {"kind": "suite", "violated": 2, "indeterminate": 0}
    assert exit_code_for([check, suite_ok]) == 0
    assert exit_code_for([check, indet]) == 2
    assert exit_code_for([check, indet, violated]) == 1
    assert exit_code_for([suite_bad]) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qext", "qindex", "--graph6", "Bw"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "q=4" in proc.stdout


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"Bw\n")))
    assert run(["qindex"]) == 0
    assert "q=4" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["file", "stdin", "corpus"])
def test_non_ascii_graph6_input_names_its_line(tmp_path, monkeypatch, capsys, source):
    import io

    data = b"A_\n\xff\n"
    path = tmp_path / "graphs.g6"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    argv = {
        "file": ["qindex", "--file", str(path)],
        "stdin": ["qindex"],
        "corpus": ["suite", "--statements", "egp", "--corpus", str(path)],
    }[source]
    assert run(argv) == 3
    assert "line 2: graph6 character" in capsys.readouterr().err
