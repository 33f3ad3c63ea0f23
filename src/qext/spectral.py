"""Signless Laplacian construction and certified computation of the Q-index.

Every estimate carries the graph it was computed for and an explicitly
computed residual ||Qx - qx||_2, at most 1e-10 * max(1, q), a constant
rather than a setting.  Auto mode has two engines: a dense symmetric
eigensolver, the default through 64 vertices, the fallback above them and
the cross-check oracle in tests; and the equitable-partition quotient,
taken above 64 vertices when colour refinement ends at 64 cells or fewer.
The quotient's spectrum holds every main eigenvalue of Q, and the Q-index
is one, since its Perron vector has a positive sum (Godsil & Royle,
*Algebraic Graph Theory*, ch. 9).  Power iteration runs only when asked
for by name.  :func:`certified_compare` is the package's one spectral
comparator: at 64 cells or fewer, ``_quotient_sign`` gives it the exact
sign of q minus a rational on the graph's integer quotient, ties included;
above that, or with no graph, the residual is an interval radius around q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graph import Graph, _bits

DENSE_MAX = 64
_TOL = 1e-10  # residual bound, relative to max(1, q), of every returned estimate


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Q-index estimate, unit eigenvector, certified residual and graph."""

    q: float
    vector: np.ndarray
    residual: float
    iterations: int
    method: str
    graph: Graph | None = None


@dataclass(frozen=True)
class Comparison:
    """Outcome of a certified threshold test; margin is q - threshold."""

    verdict: str  # "lt" | "eq" | "gt" (exact at <= 64 cells) | "indeterminate"
    margin: float


class ConvergenceError(RuntimeError):
    """Dense residual over the bound, or power's budget spent; carries ``best``."""

    def __init__(self, message: str, best: SpectralResult):
        super().__init__(message)
        self.best = best


def signless_laplacian(g: Graph) -> np.ndarray:
    """Degree diagonal plus adjacency; row sum at u equals 2 * degree(u)."""
    if g.n == 0:
        raise ValueError("signless Laplacian undefined for the empty graph")
    q = g.adjacency_matrix()
    q[np.diag_indices(g.n)] = g.degrees
    return q


def _start_vector(n: int) -> np.ndarray:
    """Power iteration's start, for method "power" alone: all-ones, perturbed per index, unit."""
    x = 1.0 + np.arange(n) / (10.0 * n)
    return x / np.linalg.norm(x)


def _power(g: Graph, q: np.ndarray, max_iterations: int) -> SpectralResult:
    """For ``method="power"`` only: auto never runs it, and outside the tests
    only the benchmark's self-test of a forced ``ConvergenceError`` calls it."""
    n = q.shape[0]
    x = _start_vector(n)
    rho = 0.0
    res = 0.0
    for it in range(1, max_iterations + 1):
        y = q @ x
        rho = float(x @ y)
        # y = 0 (edgeless graph) passes this test with rho = res = 0
        res = float(np.linalg.norm(y - rho * x))
        if res <= _TOL * max(1.0, rho):
            return SpectralResult(rho, x, res, it, "power", g)
        x = y / float(np.linalg.norm(y))
    raise ConvergenceError(
        f"power iteration did not reach tol={_TOL} in {max_iterations} iterations"
        f" (residual {res:.3e})",
        SpectralResult(rho, x, res, max_iterations, "power", g),
    )


def _dense(g: Graph, q: np.ndarray) -> SpectralResult:
    values, vectors = np.linalg.eigh(q)
    top = float(values[-1])
    x = vectors[:, -1]
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    res = float(np.linalg.norm(q @ x - top * x))
    return SpectralResult(top, x, res, 0, "dense", g)


@lru_cache(maxsize=1)  # q_index, then certified_compare, refine the same graph
def _equitable_cells(g: Graph) -> list[int] | None:
    """Cells (vertex bitmasks) of the coarsest equitable refinement of the
    degree partition, or None once it has more than DENSE_MAX cells."""
    keys: tuple | list = g.degrees
    count = 0
    while True:
        cells: dict = {}
        for v, key in enumerate(keys):
            cells[key] = cells.get(key, 0) | 1 << v
        if len(cells) > DENSE_MAX:
            return None
        if len(cells) == count:  # no cell split: every count tuple is uniform
            return list(cells.values())
        count = len(cells)
        # counts over these cells determine the counts over the coarser
        # cells before them, so each round refines the last
        masks = list(cells.values())
        keys = [tuple((row & c).bit_count() for c in masks) for row in g.rows]


def _quotient_matrix(g: Graph, cells: list[int]) -> list[list[int]]:
    """The equitable quotient of Q over ``cells``, in integers: row i holds
    the neighbours of a cell-i vertex in each cell, plus its degree."""
    b = [[(g.rows[(c & -c).bit_length() - 1] & d).bit_count() for d in cells] for c in cells]
    for i, row in enumerate(b):
        row[i] += sum(row)
    return b


def _quotient(g: Graph, mat: np.ndarray) -> SpectralResult | None:
    """Top eigenpair of Q from its equitable quotient, lifted to all of g."""
    cells = _equitable_cells(g)
    if cells is None:
        return None
    top, cell_values = _quotient_top(_quotient_matrix(g, cells), [c.bit_count() for c in cells])
    x = np.empty(g.n)
    for c, value in zip(cells, cell_values):
        x[list(_bits(c))] = value
    x /= np.linalg.norm(x)
    res = float(np.linalg.norm(mat @ x - top * x))
    return SpectralResult(top, x, res, 0, "quotient", g)


def _quotient_top(b: np.ndarray | list, sizes: list[int]) -> tuple[float, np.ndarray]:
    """Top eigenvalue of an equitable quotient b with the given cell sizes D,
    and its eigenvector, one value per cell: D^{1/2} B D^{-1/2} is symmetric."""
    root = np.sqrt(np.array(sizes, dtype=np.float64))
    values, vectors = np.linalg.eigh(root[:, None] * np.asarray(b, dtype=np.float64) / root[None, :])
    y = vectors[:, -1]
    if y[int(np.argmax(np.abs(y)))] < 0:
        y = -y
    return float(values[-1]), y / root


def _quotient_sign(b: list[list[int]], sizes: list[int], t: float | Fraction) -> int:
    """Sign of λmax(b) - t, exactly, for an integer equitable quotient b
    with cell sizes D and t = p/s at its exact value: M = p·D - s·D·B is
    congruent to s(t - D^{1/2} B D^{-1/2}), so q < t iff M is positive
    definite and q <= t iff it is semidefinite.  Fraction-free symmetric
    elimination (Bareiss) decides both; each pivot is a leading minor of M
    less its dropped rows, so every division is exact.  A negative pivot,
    or a zero one on a row not all zero, means q > t; an all-zero row is
    dropped and marks a tie."""
    p, s = t.as_integer_ratio()
    m = [[p * d * (i == j) - s * d * x for j, x in enumerate(row)]
         for i, (d, row) in enumerate(zip(sizes, b))]
    sign, previous = -1, 1
    while m:
        (pivot, *head), *m = m
        if pivot < 0 or pivot == 0 and any(head):
            return 1
        if pivot == 0:
            sign, m = 0, [row[1:] for row in m]
            continue
        m = [[(x * pivot - row[0] * y) // previous for x, y in zip(row[1:], head)] for row in m]
        previous = pivot
    return sign


def q_index(g: Graph, method: str = "auto", max_iterations: int | None = None) -> SpectralResult:
    """Largest signless-Laplacian eigenvalue with residual certificate.

    ``method`` is "auto", "dense", or "power".  Auto is dense for n <= 64;
    above that it returns the equitable quotient's top eigenpair (method
    "quotient", 0 iterations, residual against the full Q) when refinement
    ends at 64 cells or fewer and that residual is within 1e-10 * max(1, q),
    and is dense otherwise.  Dense, chosen or automatic, fails loudly with
    its estimate when its residual exceeds that bound.  Power iteration
    runs only for method "power", whose sole non-test caller is the
    benchmark self-test; ``max_iterations`` (default 100n + 10000) caps it
    alone, and it fails loudly with the best estimate when the cap runs out.
    """
    if g.n == 0:
        raise ValueError("Q-index undefined for the empty graph")
    mat = signless_laplacian(g)
    if method == "auto" and g.n > DENSE_MAX:
        result = _quotient(g, mat)
        if result is not None and result.residual <= _TOL * max(1.0, result.q):
            return result
    if method in ("auto", "dense"):
        result = _dense(g, mat)
        if result.residual > _TOL * max(1.0, result.q):
            raise ConvergenceError(
                f"dense solve residual {result.residual:.3e} exceeds tol={_TOL}",
                result,
            )
        return result
    if method == "power":
        cap = max_iterations if max_iterations is not None else 100 * g.n + 10000
        return _power(g, mat, cap)
    raise ValueError(f"unknown method {method!r}")


def certified_compare(result: SpectralResult, threshold: float | Fraction) -> Comparison:
    """Verdict "lt", "eq", "gt" or "indeterminate" on q against a threshold
    (int, float or Fraction); the margin is q - threshold in floats.  For a
    finite threshold and a graph that refines to 64 cells or fewer, it is
    the exact sign on the integer quotient, at the threshold's exact value.
    Otherwise the residual is a radius around q: "gt" ("eq" at a zero
    margin) or "lt" when the threshold lies outside that interval,
    "indeterminate" inside it."""
    margin = result.q - float(threshold)
    g = result.graph
    cells = _equitable_cells(g) if g is not None and np.isfinite(margin) else None
    if cells is not None:
        b, sizes = _quotient_matrix(g, cells), [c.bit_count() for c in cells]
        return Comparison(("lt", "eq", "gt")[_quotient_sign(b, sizes, Fraction(threshold)) + 1], margin)
    if result.q - result.residual >= float(threshold):
        return Comparison("eq" if margin == 0 else "gt", margin)
    if result.q + result.residual < float(threshold):
        return Comparison("lt", margin)
    return Comparison("indeterminate", margin)
