"""The convex-combination family and certified maximization of its distance curve.

For two plane-valued vertex functions the scalar family is
``phi^t = (1-t)*phi1 + t*phi2`` and the target curve is
``g(t) = d_B(dgm_k(phi^t), dgm_k(psi^t))``.  The curve is Lipschitz with
constant ``L = max|phi1-phi2| + max|psi1-psi2|``, which turns interval
branch-and-bound into a certified global maximizer through the
Piyavskii-Shubert envelope (Piyavskii 1972, Shubert 1972): for x in [l, r],

    g(x) <= min(g(l) + L*(x-l), g(r) + L*(r-x)).

The right-hand side rises with slope L from l and falls with slope L to r,
so it peaks where the two lines cross, at
``m = (l+r)/2 + (g(r) - g(l))/(2L)``, with value
``ub = (g(l) + g(r) + L*(r-l))/2``.  Since ``|g(r) - g(l)| <= L*(r-l)``,
the crossing lies in [l, r], so no value of g on [l, r] exceeds ``ub``.

``_Curve`` holds ``L``, the evaluated values, this branch-and-bound and the
one gap over the evaluated t, so :func:`cmd_maximize`, :func:`grid_scan` and
the special-value route of :mod:`cmdist.pareto` differ only in which t they
evaluate.
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
    maximum is certified to be at most ``value + gap``, where ``gap`` is the
    envelope bound of the module docstring over all ``evaluations`` t.
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
        if math.isnan(self.value) or not self.gap >= 0:
            raise ValueError(f"certificate needs a value and a gap >= 0, got {self.value}, {self.gap}")

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


class _Curve:
    """The curve g, evaluated at most once per t, with the best value so far.

    ``values`` keeps the evaluations in order, and ties for the best value
    go to the smaller t.  ``L`` is the Lipschitz constant of the envelope.
    """

    def __init__(self, f: BiFunction, h: BiFunction, k: int):
        self.f, self.h, self.k = f, h, k
        self.L = lipschitz_constant(f, h)
        self.values: dict[float, float] = {}
        self.best_t, self.best = 0.0, -math.inf

    def __call__(self, t: float) -> float:
        if t not in self.values:
            g = self.values[t] = g_value(self.f, self.h, self.k, t)
            if g > self.best or (g == self.best and t < self.best_t):
                self.best, self.best_t = g, t
        return self.values[t]

    def _bound(self, l: float, r: float) -> float:
        """Largest value the Lipschitz envelope of g(l) and g(r) allows on [l, r]."""
        return (self(l) + self(r) + self.L * (r - l)) / 2

    def _search(self, eps: float) -> None:
        """Branch-and-bound on the envelope from the cell [0, 1].

        Splits the cell of largest bound at the envelope's peak.  Stops once
        that bound is within ``eps`` of the best value, earlier evaluations
        included, or once that cell holds no float to split at.  Returns
        after g(0) when it is infinite.
        """
        if not eps > 0:  # NaN too: no bound ever closes within NaN
            raise ValueError("eps must be positive")
        if math.isinf(self(0.0)):
            return
        # heap of (-bound, l, r); lexicographic order resolves ties toward smaller t
        heap = [(-self._bound(0.0, 1.0), 0.0, 1.0)]
        while True:
            neg_ub, l, r = heapq.heappop(heap)
            if -neg_ub <= self.best + eps:
                return
            m = (l + r) / 2 + (self.values[r] - self.values[l]) / (2 * self.L)
            if not l < m < r:  # rounding pushed the peak onto an end
                m = (l + r) / 2
                if not l < m < r:  # [l, r] holds no float between its ends
                    return
            heapq.heappush(heap, (-self._bound(l, m), l, m))
            heapq.heappush(heap, (-self._bound(m, r), m, r))

    def scan(self, ts) -> None:
        """Evaluates g at each t in order, or at 0 alone when g(0) is infinite."""
        if not math.isinf(self(0.0)):
            for t in ts:
                self(t)

    def gap(self) -> float:
        """Largest envelope bound between consecutive evaluated t minus the best value, at least 0."""
        if math.isinf(self.best):
            return 0.0
        ts = sorted(self.values)
        bound = max(self._bound(l, r) for l, r in zip(ts, ts[1:]))
        return max(bound - self.best, 0.0)

    def result(self, mode: str, note: str | None = None) -> CmdResult:
        return CmdResult(self.best, self.best_t, self.gap(), len(self.values), mode,
                         tuple(self.values.items()), note)


def cmd_maximize(f: BiFunction, h: BiFunction, k: int, eps: float = DEFAULT_EPS) -> CmdResult:
    """Certified maximum of g over [0, 1] by Lipschitz branch-and-bound.

    Starts from g(0) and g(1), and splits the interval with the largest
    envelope bound of the module docstring at the envelope's peak, so the
    new value bounds both halves.  It stops once that bound is within
    ``eps`` of the best value, or once its interval holds no float to split
    at; the gap is that bound minus the best value.  Ties prefer smaller t.

    g is infinite exactly when the two diagrams differ in their numbers of
    essential classes.  Those are the Betti numbers of each complex,
    whatever the filtration, so g is infinite at every t or at none: every
    route returns an infinite g(0) at once, with a zero gap.
    """
    g = _Curve(f, h, k)
    g._search(eps)
    return g.result("branch-and-bound")


def grid_scan(f: BiFunction, h: BiFunction, k: int, n: int = 256) -> CmdResult:
    """Plain uniform sweep of g; certified through the envelope over its cells.

    The gap is the largest envelope bound of a cell, as in
    :func:`cmd_maximize`, minus the best value; it is at most ``L/(2n)``.
    """
    if n < 1:
        raise ValueError("grid needs at least one cell")
    g = _Curve(f, h, k)
    g.scan(np.linspace(0.0, 1.0, n + 1).tolist())
    return g.result("grid")


def slice_function(f: BiFunction, s: SlicePoint) -> VertexFunction:
    """Vertexwise slice min{a, 1-a} * max{(phi1 - b)/a, (phi2 + b)/(1 - a)}."""
    a, b = s.a, s.b
    scale = min(a, 1.0 - a)
    return VertexFunction(
        scale * np.maximum((f.phi1.values - b) / a, (f.phi2.values + b) / (1.0 - a))
    )


def slice_grid(n_a: int = 11, n_b: int = 11) -> list[SlicePoint]:
    """Rectangular grid of admissible slice parameters: a in [0.1, 0.9], b in [-1, 1]."""
    if n_a < 1 or n_b < 1:
        raise ValueError("grid needs at least one point per axis")
    avals = np.linspace(0.1, 0.9, n_a)
    bvals = np.linspace(-1.0, 1.0, n_b)
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

