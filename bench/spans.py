"""Span tracer that wraps qext's public functions from outside the package.

``Tracer.install()`` replaces every public function of the traced qext
modules with a wrapper that records one span per call: the span's key,
start, end, parent span and the top-level operation it belongs to.  qext
binds imported names at import time, so each wrapper is installed in every
qext module (and the package namespace) that holds the original object.
Spans stay in memory in flat arrays; ``layer_metrics`` turns them into the
per-layer metrics and ``dump`` writes them out once the run is over.

Self time is a span's duration minus the durations of its child spans.
Because calls nest on one thread, child spans never overlap, so that is the
part of the span's interval its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

import numpy as np

TRACED_MODULES = (
    "enumeration",
    "subgraphs",
    "spectral",
    "verify",
    "graph",
    "families",
    "bounds",
    "search",
    "report",
)

# public methods traced as layer functions: (module, class, method)
TRACED_METHODS = (
    ("graph", "Graph", "induced"),
    ("graph", "Graph", "adjacency_matrix"),
    ("report", "RunReport", "to_json"),
)

# builders reported together as families.build; nested builds count once
FAMILY_BUILDERS = ("s_nk", "s_nk_plus", "complete", "cycle", "corollary1_graph")

SEARCHES = ("find_constrained_path", "find_cycle_of_length", "find_cycle_through_edge")


def _is_traceable(obj: Any, module_name: str) -> bool:
    """A function (plain or lru_cache-wrapped) defined in ``module_name``."""
    traceable = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
    return traceable and obj.__module__ == module_name


class Tracer:
    """Records spans for wrapped calls; one instance per traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.key = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.current_op = -1
        self._stack: list[int] = []
        self._depth: defaultdict[int, int] = defaultdict(int)
        self._undo: list[tuple[Any, str, Any]] = []

    # --- span recording ---------------------------------------------------

    def key_id(self, name: str) -> int:
        kid = self._key_ids.get(name)
        if kid is None:
            kid = self._key_ids[name] = len(self.keys)
            self.keys.append(name)
        return kid

    def _open(self, kid: int, depth_id: int) -> int:
        idx = len(self.key)
        self.key.append(kid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        depth = self._depth[depth_id]
        self.outer.append(depth == 0)
        self._depth[depth_id] = depth + 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int, depth_id: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self._depth[depth_id] -= 1

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        label: Callable[..., str] | None = None,
        group: str | None = None,
        on_result: Callable[..., None] | None = None,
        on_error: Callable[..., None] | None = None,
    ) -> Callable:
        """Wrapper recording a span named ``name`` (or ``label(*args)``).

        ``group`` shares the outermost-call bookkeeping between several
        functions, so a builder calling another builder counts once.
        """
        kid = self.key_id(name)
        gid = self.key_id(group) if group else None
        counts = self.counts

        if inspect.isgeneratorfunction(fn):
            # a span per resume keeps spans nested inside the consumer's
            depth_id = gid if gid is not None else kid

            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any):
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._open(kid, depth_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx, depth_id)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            k = kid if label is None else self.key_id(label(*args, **kwargs))
            d = gid if gid is not None else k
            idx = self._open(k, d)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, d)
                if on_error is not None:
                    on_error(counts, exc)
                raise
            self._close(idx, d)
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        return traced

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the traced qext modules in place."""
        import qext

        replacements: dict[int, tuple[Any, Callable]] = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"qext.{short}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not _is_traceable(obj, module.__name__):
                    continue
                wrapper = self.wrap(obj, f"{short}.{attr}", **_hooks(short, attr, obj))
                replacements[id(obj)] = (obj, wrapper)
        modules = [qext] + [
            m for name, m in sys.modules.items() if name.startswith("qext.") and m is not None
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for short, cls_name, method in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"qext.{short}"), cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self.wrap(original, f"{short}.{method}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "key": np.frombuffer(self.key, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
        }

    def dump(self, path: str, op_labels: list[str]) -> None:
        """Write every span plus the key and operation names to ``path``."""
        np.savez_compressed(
            path,
            keys=np.array(self.keys, dtype=str),
            op_labels=np.array(op_labels, dtype=str),
            **self.arrays(),
        )


# --- per-function counters ----------------------------------------------------


def _hooks(module: str, name: str, fn: Callable) -> dict[str, Any]:
    if module == "families" and name in FAMILY_BUILDERS:
        return {"group": "families.build"}
    if (module, name) == ("verify", "check_statement"):
        return {"label": _statement_label}
    if (module, name) == ("spectral", "q_index"):
        return {"on_result": _q_index_result, "on_error": _q_index_error}
    if (module, name) == ("spectral", "certified_compare"):
        return {"on_result": _compare_result}
    if module == "subgraphs" and name in SEARCHES:
        return {"on_result": _found_counter(name), "on_error": _budget_counter}
    if (module, name) == ("search", "maximize_q_forbidden_cycles"):
        return {"on_result": _search_counter(inspect.signature(fn))}
    return {}


def _statement_label(statement: str, *args: Any, **kwargs: Any) -> str:
    return f"verify.check_statement.{statement}"


def _q_index_result(counts, args, kwargs, result) -> None:
    counts[f"spectral.q_index.{result.method}_calls"] += 1
    counts["spectral.q_index.power_iterations"] += result.iterations


def _q_index_error(counts, exc) -> None:
    from qext.spectral import ConvergenceError

    if isinstance(exc, ConvergenceError):
        counts["spectral.q_index.convergence_errors"] += 1
        counts[f"spectral.q_index.{exc.best.method}_calls"] += 1
        counts["spectral.q_index.power_iterations"] += exc.best.iterations


def _compare_result(counts, args, kwargs, result) -> None:
    if result.verdict == "indeterminate":
        counts["spectral.certified_compare.indeterminate"] += 1


def _found_counter(name: str):
    def hook(counts, args, kwargs, result) -> None:
        if result is not None:
            counts[f"subgraphs.{name}.found"] += 1

    return hook


def _budget_counter(counts, exc) -> None:
    from qext.subgraphs import SearchBudgetExceeded

    if isinstance(exc, SearchBudgetExceeded):
        counts["subgraphs.budget_exceeded"] += 1


def _search_counter(signature: inspect.Signature):
    def hook(counts, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["search.accepted_moves"] += result.accepted_moves
        counts["search.moves_tried"] += bound.arguments["budget"] * bound.arguments["restarts"]

    return hook


# --- per-layer metrics ----------------------------------------------------------


def span_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span key: calls, outermost calls, inclusive seconds of the
    outermost calls, self seconds and the longest single call."""
    a = tracer.arrays()
    nkeys = len(tracer.keys)
    dur = a["end"] - a["start"]
    nested = a["parent"] >= 0
    covered = np.bincount(
        a["parent"][nested], weights=dur[nested], minlength=len(dur)
    )
    self_time = dur - covered
    calls = np.bincount(a["key"], minlength=nkeys)
    outer_calls = np.bincount(a["key"], weights=a["outer"], minlength=nkeys)
    inclusive = np.bincount(a["key"], weights=dur * a["outer"], minlength=nkeys)
    selfs = np.bincount(a["key"], weights=self_time, minlength=nkeys)
    longest = np.zeros(nkeys)
    np.maximum.at(longest, a["key"], dur)
    return {
        name: {
            "calls": int(calls[i]),
            "outer_calls": int(outer_calls[i]),
            "s": float(inclusive[i]),
            "self_s": float(selfs[i]),
            "max_s": float(longest[i]),
        }
        for i, name in enumerate(tracer.keys)
    }


def op_seconds(tracer: Tracer, key: str, op_labels: list[str]) -> dict[str, float]:
    """Inclusive seconds of outermost ``key`` spans, per operation label."""
    a = tracer.arrays()
    kid = tracer._key_ids.get(key)
    out: defaultdict[str, float] = defaultdict(float)
    if kid is None:
        return out
    pick = (a["key"] == kid) & a["outer"] & (a["op"] >= 0)
    dur = a["end"][pick] - a["start"][pick]
    for op, d in zip(a["op"][pick].tolist(), dur.tolist()):
        out[op_labels[op]] += d
    return out
