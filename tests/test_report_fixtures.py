"""Golden ``--out`` JSON and ``--csv`` reports, one pair per CLI case.

Each case re-runs one ``qext`` command inside ``tests/fixtures/reports``
(so ``--file``/``--corpus`` paths in the recorded parameters match) and
compares its exit code and both reports with the checked-in files.
``elapsed_seconds`` is ignored.  Floats are compared to 1e-9 relative
(1e-9 absolute near zero, for residuals), because eigensolver output
varies with the BLAS build; everything else must match exactly.

Regenerate the fixtures with ``PYTHONPATH=src python tests/test_report_fixtures.py``,
or only some of them by naming their cases: ``... test_report_fixtures.py qindex bounds``.
"""

import csv
import json
import math
import os
import sys
from pathlib import Path

import pytest

from qext.cli import run

FIXTURES = Path(__file__).parent / "fixtures" / "reports"

ALL_STATEMENTS = (
    "egp,egc,kopylov_i,kopylov_ii,ore,ni,lemma1,lemma2,cor2,theorem1,theorem1_corollary"
)

# name -> (argv, exit code)
CASES = {
    "qindex": (["qindex", "--file", "corpus.g6"], 0),
    "bounds": (["bounds", "--file", "corpus.g6"], 0),
    "construct": (["construct", "--family", "s_nk", "--n", "10", "--k", "2"], 0),
    "prop1_holds": (["prop1", "--n", "25", "--k", "2"], 0),
    "prop1_unmet": (["prop1", "--n", "10", "--k", "2"], 0),
    "theorem1_holds": (["theorem1", "--n", "25", "--k", "2"], 0),
    "theorem1_unmet": (["theorem1", "--n", "10", "--k", "2"], 0),
    "suite": (["suite", "--statements", ALL_STATEMENTS, "--nmax", "6"], 0),
    "suite_corpus": (
        ["suite", "--statements", "egp,egc,kopylov_i,ore,ni,lemma1,lemma2",
         "--corpus", "corpus.g6", "--k", "1,2"],
        0,
    ),
    "search_seeded": (
        ["search", "--n", "10", "--forbid", "5", "--budget", "100", "--restarts", "3",
         "--seed-construction", "s_nk:2"],
        0,
    ),
    "search_forbid": (
        ["search", "--n", "10", "--forbid", "4,5", "--restarts", "3", "--seed", "1"],
        0,
    ),
}


def _run_case(name: str, out_dir: Path) -> tuple[int, dict, list[list[str]]]:
    argv, _ = CASES[name]
    json_path, csv_path = out_dir / f"{name}.json", out_dir / f"{name}.csv"
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        code = run(argv + ["--out", str(json_path), "--csv", str(csv_path)])
    finally:
        os.chdir(cwd)
    report = json.loads(json_path.read_text())
    report["elapsed_seconds"] = 0.0
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    return code, report, rows


def _cell(text: str):
    """A CSV cell as a float when it reads as a non-integer number."""
    try:
        int(text)
        return text
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _same(got, want) -> bool:
    if isinstance(want, float):
        return type(got) is float and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(want, dict):
        return (
            type(got) is dict
            and got.keys() == want.keys()
            and all(_same(got[key], want[key]) for key in want)
        )
    if isinstance(want, list):
        return type(got) is list and len(got) == len(want) and all(map(_same, got, want))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_fixture(name, tmp_path):
    code, report, rows = _run_case(name, tmp_path)
    assert code == CASES[name][1]
    want_report = json.loads((FIXTURES / f"{name}.json").read_text())
    assert _same(report, want_report), (report, want_report)
    with open(FIXTURES / f"{name}.csv", newline="") as handle:
        want_rows = list(csv.reader(handle))
    got = [[_cell(c) for c in row] for row in rows]
    want = [[_cell(c) for c in row] for row in want_rows]
    assert _same(got, want), (rows, want_rows)


def test_float_comparison_is_tolerant_only_for_floats():
    assert _same({"q": 4.0, "w": [1, "a"]}, {"q": 3.9999999999999987, "w": [1, "a"]})
    assert not _same({"q": 4.0}, {"q": 4.001})
    assert not _same([1], [1.0])
    assert not _same(["dense"], ["power"])
    assert _cell("3") == "3" and _cell("3.5") == 3.5 and _cell("s_nk") == "s_nk"


if __name__ == "__main__":
    cases = sys.argv[1:] or list(CASES)
    unknown = [case for case in cases if case not in CASES]
    if unknown:
        sys.exit(f"unknown case {', '.join(unknown)}; choose from {', '.join(CASES)}")
    for case in cases:
        _, report, _ = _run_case(case, FIXTURES)
        (FIXTURES / f"{case}.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
