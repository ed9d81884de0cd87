"""The convex-combination family and certified maximization of its distance curve.

For two plane-valued vertex functions the scalar family is
``phi^t = (1-t)*phi1 + t*phi2`` and the target curve is
``g(t) = d_B(dgm_k(phi^t), dgm_k(psi^t))``.  The curve is Lipschitz with
constant ``L = max|phi1-phi2| + max|psi1-psi2|``, which turns interval
branch-and-bound into a certified global maximizer: an interval [l, r] can
never exceed ``g(m) + L*(r-l)/2`` at its midpoint m.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import BiFunction, VertexFunction
from .diagram import bottleneck_distance
from .persistence import lower_star_diagram

DEFAULT_EPS = 1e-3


@dataclass(frozen=True)
class CmdResult:
    """Outcome of a distance maximization over t in [0, 1].

    ``value`` is the best evaluated g, attained at ``argmax_t``; the true
    maximum is certified to be at most ``value + gap`` (for mode
    ``special-values`` with cross-checking, the gap is the branch-and-bound
    bound ``reference.value + reference.gap`` minus ``value``, floored at 0
    and flagged in ``note``).
    """

    value: float
    argmax_t: float
    gap: float
    evaluations: int
    mode: str
    trace: tuple[tuple[float, float], ...] = field(default=(), repr=False)
    note: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.argmax_t <= 1.0:
            raise ValueError("argmax_t outside [0, 1]")
        if self.gap < 0:
            raise ValueError("certificate gap must be nonnegative")

    def to_json(self) -> dict:
        obj = {
            "value": self.value,
            "argmax_t": self.argmax_t,
            "gap": self.gap,
            "mode": self.mode,
            "evaluations": self.evaluations,
            "trace": [{"t": t, "g": g} for t, g in self.trace],
        }
        if self.note is not None:
            obj["note"] = self.note
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "CmdResult":
        def num(x):
            return math.inf if x == "inf" else (-math.inf if x == "-inf" else float(x))

        return cls(
            value=num(obj["value"]),
            argmax_t=float(obj["argmax_t"]),
            gap=float(obj["gap"]),
            evaluations=int(obj["evaluations"]),
            mode=str(obj["mode"]),
            trace=tuple((float(row["t"]), num(row["g"])) for row in obj.get("trace", [])),
            note=obj.get("note"),
        )


@dataclass(frozen=True)
class SlicePoint:
    """Admissible slice parameters: direction weight a in (0,1) and offset b."""

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"slice parameter a={self.a} must lie strictly inside (0, 1)")


def convex_combination(f: BiFunction, t: float) -> VertexFunction:
    """Vertexwise (1-t)*phi1 + t*phi2; exact at the endpoints."""
    return VertexFunction(f.at(t))


def g_value(f: BiFunction, h: BiFunction, k: int, t: float) -> float:
    """Bottleneck distance between the degree-k diagrams of phi^t and psi^t."""
    d1 = lower_star_diagram(f.complex, f.at(t), k)
    d2 = lower_star_diagram(h.complex, h.at(t), k)
    return bottleneck_distance(d1, d2)


def lipschitz_constant(f: BiFunction, h: BiFunction) -> float:
    """Lipschitz bound on t -> g(t): max|phi1-phi2| plus max|psi1-psi2| over vertices."""
    lf = float(np.abs(f.phi1.values - f.phi2.values).max()) if len(f.phi1) else 0.0
    lh = float(np.abs(h.phi1.values - h.phi2.values).max()) if len(h.phi1) else 0.0
    return lf + lh


def cmd_maximize(f: BiFunction, h: BiFunction, k: int, eps: float = DEFAULT_EPS) -> CmdResult:
    """Certified maximum of g over [0, 1] by Lipschitz branch-and-bound.

    Intervals carry the upper bound g(midpoint) + L*(width)/2; the interval
    with the largest bound is split until the best evaluated value is within
    ``eps`` of the global bound.  Ties prefer smaller t, so the result is
    deterministic.  An infinite probe (mismatched essential classes) is
    returned immediately with a zero gap.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    L = lipschitz_constant(f, h)

    cache: dict[float, float] = {}
    trace: list[tuple[float, float]] = []

    def g(t: float) -> float:
        if t not in cache:
            cache[t] = g_value(f, h, k, t)
            trace.append((t, cache[t]))
        return cache[t]

    best_t, best = 0.0, g(0.0)

    def consider(t: float, value: float):
        nonlocal best, best_t
        if value > best or (value == best and t < best_t):
            best, best_t = value, t

    for t in (1.0, 0.5):
        consider(t, g(t))
    if math.isinf(best):
        return CmdResult(math.inf, best_t, 0.0, len(trace), "branch-and-bound", tuple(trace))
    if L == 0.0:  # g is constant: both families are single functions
        return CmdResult(best, best_t, 0.0, len(trace), "branch-and-bound", tuple(trace))

    # heap of (-upper_bound, l, r, g(mid)); lexicographic order resolves ties
    # toward smaller t
    heap = [(-(g(0.5) + L * 0.5), 0.0, 1.0, g(0.5))]
    gap = 0.0
    while heap:
        neg_ub, l, r, gm = heapq.heappop(heap)
        ub = -neg_ub
        if ub <= best + eps:
            gap = max(ub - best, 0.0)
            break
        for a, b in ((l, (l + r) / 2), ((l + r) / 2, r)):
            m = (a + b) / 2
            gm = g(m)
            consider(m, gm)
            if math.isinf(gm):
                return CmdResult(math.inf, m, 0.0, len(trace), "branch-and-bound", tuple(trace))
            heapq.heappush(heap, (-(gm + L * (b - a) / 2), a, b, gm))
    return CmdResult(best, best_t, gap, len(trace), "branch-and-bound", tuple(trace))


def grid_scan(f: BiFunction, h: BiFunction, k: int, n: int = 256) -> CmdResult:
    """Plain uniform sweep of g; certified only through the Lipschitz constant."""
    if n < 1:
        raise ValueError("grid needs at least one cell")
    L = lipschitz_constant(f, h)
    ts = np.linspace(0.0, 1.0, n + 1)
    trace = []
    best_t, best = 0.0, -math.inf
    for t in ts:
        gt = g_value(f, h, k, float(t))
        trace.append((float(t), gt))
        if gt > best:
            best, best_t = gt, float(t)
        if math.isinf(gt):
            return CmdResult(math.inf, float(t), 0.0, len(trace), "grid", tuple(trace))
    return CmdResult(best, best_t, L / (2 * n), len(trace), "grid", tuple(trace))


def slice_function(f: BiFunction, s: SlicePoint) -> VertexFunction:
    """Vertexwise slice min{a, 1-a} * max{(phi1 - b)/a, (phi2 + b)/(1 - a)}."""
    a, b = s.a, s.b
    scale = min(a, 1.0 - a)
    return VertexFunction(
        scale * np.maximum((f.phi1.values - b) / a, (f.phi2.values + b) / (1.0 - a))
    )


def slice_grid(n_a: int = 11, n_b: int = 11,
               a_range: tuple[float, float] = (0.1, 0.9),
               b_range: tuple[float, float] = (-1.0, 1.0)) -> list[SlicePoint]:
    """Rectangular grid of admissible slice parameters."""
    if n_a < 1 or n_b < 1:
        raise ValueError("grid needs at least one point per axis")
    avals = np.linspace(a_range[0], a_range[1], n_a)
    bvals = np.linspace(b_range[0], b_range[1], n_b)
    return [SlicePoint(float(a), float(b)) for a in avals for b in bvals]


def matching_distance_scan(f: BiFunction, h: BiFunction, k: int, grid) -> tuple[float, SlicePoint, list]:
    """Max over the grid of the slice bottleneck distances, with its witness.

    A sampled lower bound for the two-parameter matching distance; nothing
    here certifies the supremum.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("slice grid must be nonempty")
    best, witness = -math.inf, grid[0]
    trace = []
    for s in grid:
        d1 = lower_star_diagram(f.complex, slice_function(f, s).values, k)
        d2 = lower_star_diagram(h.complex, slice_function(h, s).values, k)
        v = bottleneck_distance(d1, d2)
        trace.append((s, v))
        if v > best:
            best, witness = v, s
    return best, witness, trace


def matching_distance_lower_bound(f: BiFunction, h: BiFunction, k: int, grid) -> float:
    """Sampled lower bound of the classical matching distance over slice points."""
    return matching_distance_scan(f, h, k, grid)[0]
