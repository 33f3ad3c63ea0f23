"""Run reports: strict JSON schema, CSV flattening, exit-code policy.

A report serializes to a single JSON document with sorted keys, so
serialize -> parse -> serialize is byte-identical.  Unknown fields are
rejected on read, both at the top level and per outcome record.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from . import __version__

_TOP_KEYS = {"command", "parameters", "outcomes", "artifact_version", "elapsed_seconds"}

# One entry per outcome kind: its fields, the ones that may be left out, and
# its CSV columns.  A column is a field name or a function of the record;
# None (and a left-out field) is written as an empty cell.
class _Kind(NamedTuple):
    fields: tuple[str, ...]
    optional: tuple[str, ...]
    columns: dict[str, str | Callable[[dict[str, Any]], Any]]


_KINDS: dict[str, _Kind] = {
    "check": _Kind(
        ("statement", "status", "lhs", "rhs", "witness", "note"),
        (),
        {"name": "statement", "status": "status", "lhs": "lhs", "rhs": "rhs", "note": "note"},
    ),
    "spectral": _Kind(
        ("graph6", "q", "residual", "iterations", "method"),
        (),
        {"name": "method", "value": "q", "graph6": "graph6"},
    ),
    "bound": _Kind(
        ("graph6", "name", "value", "relation"),
        ("note",),
        {"name": "name", "value": "value", "graph6": "graph6", "note": "note"},
    ),
    "construct": _Kind(
        ("family", "params", "graph6", "n", "m"),
        (),
        {"name": "family", "value": "m", "graph6": "graph6"},
    ),
    "search": _Kind(
        ("graph6", "q_low", "q_high", "feasible", "seed", "restarts", "accepted_moves",
         "matched_family", "near_ties"),
        (),
        {
            "name": lambda r: "search",
            "status": lambda r: "feasible" if r["feasible"] else "infeasible",
            "value": "q_low",
            "graph6": "graph6",
            "note": "matched_family",
        },
    ),
    "suite": _Kind(
        ("statements", "instances", "holds", "equality_case", "violated",
         "precondition_unmet", "indeterminate", "violating", "by_statement"),
        (),
        {
            "name": lambda r: "suite",
            "status": lambda r: "violated" if r["violated"] else "ok",
            "value": "instances",
            "lhs": "violated",
            "rhs": "indeterminate",
            "note": lambda r: ",".join(r["statements"]),
        },
    ),
}


def record(kind: str, source: Any = None, **given: Any) -> dict[str, Any]:
    """The ``kind`` outcome record: each field from ``given``, else from the
    attribute of that name on ``source``; tuples become lists.  An optional
    field is written only when given."""
    spec = _KINDS[kind]
    unknown = given.keys() - set(spec.fields + spec.optional)
    if unknown:
        raise ValueError(f"{kind} record has unknown fields {sorted(unknown)}")
    out: dict[str, Any] = {"kind": kind}
    for name in spec.fields + tuple(n for n in spec.optional if n in given):
        value = given[name] if name in given else getattr(source, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


@dataclass
class RunReport:
    command: str
    parameters: dict[str, Any]
    outcomes: list[dict[str, Any]]
    artifact_version: str = __version__
    elapsed_seconds: float = 0.0

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "outcomes": self.outcomes,
            "artifact_version": self.artifact_version,
            "elapsed_seconds": self.elapsed_seconds,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def validate_outcome(record: dict[str, Any]) -> None:
    if not isinstance(record, dict):
        raise ValueError("outcome record must be an object")
    kind = record.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown outcome kind {kind!r}")
    fields, optional, _ = _KINDS[kind]
    keys = set(record) - {"kind"}
    missing = set(fields) - keys
    if missing:
        raise ValueError(f"{kind} record missing fields {sorted(missing)}")
    unknown = keys - set(fields) - set(optional)
    if unknown:
        raise ValueError(f"{kind} record has unknown fields {sorted(unknown)}")


def parse_report(text: str) -> RunReport:
    """Parse and validate a report document; unknown fields are an error."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("report must be a JSON object")
    keys = set(data)
    if keys != _TOP_KEYS:
        extra = sorted(keys - _TOP_KEYS)
        missing = sorted(_TOP_KEYS - keys)
        raise ValueError(f"report fields mismatch: extra {extra}, missing {missing}")
    if not isinstance(data["outcomes"], list):
        raise ValueError("outcomes must be a list")
    for record in data["outcomes"]:
        validate_outcome(record)
    return RunReport(
        command=data["command"],
        parameters=data["parameters"],
        outcomes=data["outcomes"],
        artifact_version=data["artifact_version"],
        elapsed_seconds=data["elapsed_seconds"],
    )


_CSV_COLUMNS = ("kind", "name", "status", "value", "lhs", "rhs", "graph6", "note")


def _flatten(record: dict[str, Any]) -> dict[str, Any]:
    columns = _KINDS[record["kind"]].columns
    row = {"kind": record["kind"]}
    for column, source in columns.items():
        row[column] = source(record) if callable(source) else record.get(source)
    return row


def write_csv(report: RunReport, path: str) -> None:
    """One flat row per outcome record."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for record in report.outcomes:
            writer.writerow(_flatten(record))


def exit_code_for(outcomes: list[dict[str, Any]]) -> int:
    """0: nothing violated or indeterminate; 1: violation; 2: indeterminate."""
    violated = False
    indeterminate = False
    for record in outcomes:
        if record.get("kind") == "check":
            violated = violated or record["status"] == "violated"
            indeterminate = indeterminate or record["status"] == "indeterminate"
        elif record.get("kind") == "suite":
            violated = violated or record["violated"] > 0
            indeterminate = indeterminate or record["indeterminate"] > 0
    if violated:
        return 1
    if indeterminate:
        return 2
    return 0
