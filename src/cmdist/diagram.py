"""Persistence diagrams, the extended point metric, and the bottleneck distance.

Points below the diagonal never occur; the diagonal itself is implicit with
infinite multiplicity and is represented by the :data:`DIAGONAL` sentinel in
point-level computations.  The bottleneck distance binary-searches the
sorted costs that some point-point or point-diagonal pair actually realizes,
and tests each threshold with SciPy's bipartite matching on the two sides
separately (Mendelsohn-Dulmage).  When one side has no finite points, every
finite point retires to the diagonal and the value is the largest half
persistence, in closed form; only a call with finite points on both sides
imports ``scipy.sparse.csgraph``.  The value is always a realized cost, so
results are exact in float arithmetic and the oracles must agree with no
tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

INF = math.inf


class _Diagonal:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<diagonal>"


DIAGONAL = _Diagonal()


@dataclass(frozen=True)
class DiagramPoint:
    """A birth-death pair strictly above the diagonal; death may be +inf."""

    birth: float
    death: float
    multiplicity: int = 1

    def __post_init__(self):
        if not math.isfinite(self.birth):
            raise ValueError("birth must be finite")
        if not self.birth < self.death:
            raise ValueError(f"need birth < death, got ({self.birth}, {self.death})")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")

    @property
    def is_essential(self) -> bool:
        return math.isinf(self.death)


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of diagram points of one homology degree."""

    degree: int
    points: tuple[DiagramPoint, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        merged: dict[tuple[float, float], int] = {}
        for p in self.points:
            key = (p.birth, p.death)
            merged[key] = merged.get(key, 0) + p.multiplicity
        pts = tuple(
            DiagramPoint(b, d, m) for (b, d), m in sorted(merged.items())
        )
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_pairs(cls, degree: int, pairs) -> "PersistenceDiagram":
        """Build from (birth, death) or (birth, death, multiplicity) tuples."""
        pts = []
        for pair in pairs:
            b, d = pair[0], pair[1]
            m = pair[2] if len(pair) > 2 else 1
            pts.append(DiagramPoint(float(b), float(d), int(m)))
        return cls(degree, tuple(pts))

    def expanded(self) -> list[tuple[float, float]]:
        """Points with multiplicity written out."""
        out: list[tuple[float, float]] = []
        for p in self.points:
            out.extend([(p.birth, p.death)] * p.multiplicity)
        return out

    def coordinates(self) -> list[float]:
        """All finite coordinates (births, and deaths when finite)."""
        out = []
        for p in self.points:
            out.append(p.birth)
            if not p.is_essential:
                out.append(p.death)
        return out

    def total_multiplicity(self) -> int:
        return sum(p.multiplicity for p in self.points)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "points": [
                {
                    "birth": p.birth,
                    "death": "inf" if p.is_essential else p.death,
                    "multiplicity": p.multiplicity,
                }
                for p in self.points
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PersistenceDiagram":
        pts = []
        for row in obj["points"]:
            death = row["death"]
            death = INF if death == "inf" else float(death)
            pts.append(DiagramPoint(float(row["birth"]), death, int(row.get("multiplicity", 1))))
        return cls(int(obj["degree"]), tuple(pts))


def _pair_cost(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Cost of matching two raw (birth, death) pairs."""
    pb, pd = p
    qb, qd = q
    p_inf, q_inf = math.isinf(pd), math.isinf(qd)
    if p_inf and q_inf:
        return abs(pb - qb)
    if p_inf or q_inf:
        return INF
    return min(max(abs(pb - qb), abs(pd - qd)), max((pd - pb) / 2, (qd - qb) / 2))


def _diagonal_cost(p: tuple[float, float]) -> float:
    b, d = p
    return INF if math.isinf(d) else (d - b) / 2


def point_distance(p, q) -> float:
    """Extended metric between diagram points; either argument may be DIAGONAL."""
    p_diag = p is DIAGONAL
    q_diag = q is DIAGONAL
    if p_diag and q_diag:
        return 0.0
    if p_diag:
        return _diagonal_cost((q.birth, q.death))
    if q_diag:
        return _diagonal_cost((p.birth, p.death))
    return _pair_cost((p.birth, p.death), (q.birth, q.death))


def candidate_costs(d1: PersistenceDiagram, d2: PersistenceDiagram) -> list[float]:
    """Sorted candidate values c*|w0 - w1|, c in {1/2, 1}, over all coordinates.

    The bottleneck distance of the pair is always an element of this list,
    or +inf.  :func:`bottleneck_distance` does not search this list, which
    holds O(N^2) values that no pair realizes; it searches the realized costs.
    """
    if d1.degree != d2.degree:
        raise ValueError(f"degree mismatch: {d1.degree} vs {d2.degree}")
    coords = d1.coordinates() + d2.coordinates()
    cands = {0.0}
    for w0, w1 in itertools.combinations(coords, 2):
        gap = abs(w0 - w1)
        cands.add(gap)
        cands.add(gap / 2)
    return sorted(cands)


def _split(diagram: PersistenceDiagram):
    finite, infinite = [], []
    for b, d in diagram.expanded():
        (infinite if math.isinf(d) else finite).append((b, d))
    return np.array(finite, dtype=np.float64).reshape(-1, 2), sorted(infinite)


def _realized_bottleneck(f1: np.ndarray, f2: np.ndarray) -> float:
    """Smallest realized cost at which the finite points admit a perfect matching.

    Costs are those of :func:`_pair_cost` and :func:`_diagonal_cost`, computed
    with the same float operations.  At ``lam``, points whose diagonal cost
    exceeds ``lam`` must be matched inside the graph ``{pair <= lam}``; by the
    Mendelsohn-Dulmage theorem one matching covers those of both diagrams iff
    one matching covers those of D1 and another those of D2.
    """
    if not len(f1) or not len(f2):  # every finite point, if any, retires to the diagonal
        rest = f1 if len(f1) else f2
        return float((rest[:, 1] - rest[:, 0]).max() / 2) if len(rest) else 0.0
    from scipy.sparse import csr_matrix  # loaded by the first two-sided call only
    from scipy.sparse.csgraph import maximum_bipartite_matching

    h1 = (f1[:, 1] - f1[:, 0]) / 2
    h2 = (f2[:, 1] - f2[:, 0]) / 2
    pair = np.minimum(
        np.maximum(np.abs(f1[:, None, 0] - f2[None, :, 0]), np.abs(f1[:, None, 1] - f2[None, :, 1])),
        np.maximum(h1[:, None], h2[None, :]),
    )
    costs = np.unique(np.concatenate([pair.ravel(), h1, h2]))

    def covered(graph: np.ndarray, perm_type: str) -> bool:
        return bool(np.all(maximum_bipartite_matching(csr_matrix(graph), perm_type=perm_type) >= 0))

    def feasible(lam: float) -> bool:
        allowed = pair <= lam
        return covered(allowed[h1 > lam], "column") and covered(allowed[:, h2 > lam], "row")

    lo, hi = 0, len(costs) - 1  # the largest cost retires every point to the diagonal
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(costs[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(costs[lo])


def bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Bottleneck distance: min over multiset bijections of the max point cost.

    Points may retire to the diagonal; essential points must match essential
    points, so the result is +inf when the essential counts differ.
    """
    if d1.degree != d2.degree:
        raise ValueError(f"degree mismatch: {d1.degree} vs {d2.degree}")
    f1, i1 = _split(d1)
    f2, i2 = _split(d2)
    if len(i1) != len(i2):
        return INF
    inf_cost = max((abs(a[0] - b[0]) for a, b in zip(i1, i2)), default=0.0)
    return max(inf_cost, _realized_bottleneck(f1, f2))
