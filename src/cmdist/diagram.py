"""Persistence diagrams and the bottleneck distance.

A diagram holds arrays: its finite points as one lexicographically sorted
(n, 2) float64 array of (birth, death) rows, a point of multiplicity m as m
equal rows, and the sorted births of its essential points.  The persistence
passes build it with one ``lexsort`` and the bottleneck reads the arrays
directly; views with merged multiplicities (``expanded``, ``coordinates``,
JSON) are built only on demand.  Points below the diagonal never occur; the
diagonal itself is implicit, with infinite multiplicity.  The bottleneck
distance splits the matching into the two sides separately
(Mendelsohn-Dulmage): each side's least feasible cost comes from one pass
of augmenting paths over the pairs cheaper than the point's own diagonal
cost, raising the threshold exactly when a Hall violator forces it, and the
value is the larger of the two.  When one side has no finite points, every
finite point retires to the diagonal and the value is the largest half
persistence, in closed form.  The module needs numpy only.  The value is
always a realized cost, so results are exact in float arithmetic and the
oracles must agree with no tolerance.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

INF = math.inf


class PersistenceDiagram:
    """Multiset of diagram points of one homology degree, held as arrays.

    ``finite`` is an (n, 2) float64 array of the (birth, death) rows with
    finite death, sorted lexicographically, a point of multiplicity m
    written as m equal rows; ``essential`` holds the sorted births of the
    points with death +inf.  Both arrays are read-only and the diagram is
    immutable.  ``expanded``, ``coordinates`` and JSON are views built on demand.

    ``pairs`` holds (birth, death) or (birth, death, multiplicity) rows.  A
    point needs a finite birth, birth < death (death may be +inf) and a
    positive integer multiplicity.
    """

    def __init__(self, degree: int, pairs):
        number = float(degree)
        if not number.is_integer():
            raise ValueError(f"degree must be an integer, got {degree!r}")
        if number < 0:
            raise ValueError("degree must be nonnegative")
        rows = [tuple(row) for row in pairs]
        for row in rows:
            if len(row) not in (2, 3):
                raise ValueError(f"a diagram row is (birth, death[, multiplicity]), got {row!r}")
        # numpy reads the JSON death "inf" as +inf; a missing multiplicity is 1
        table = np.array([(*row, 1)[:3] for row in rows], dtype=np.float64).reshape(-1, 3)
        births, deaths, counts = table.T
        bad = np.stack((~np.isfinite(births), ~(births < deaths),
                        ~(np.isfinite(counts) & (counts >= 1) & (counts == np.floor(counts)))))
        if bad.any():  # the first bad row's first broken rule
            row = int(bad.any(axis=0).argmax())
            rule = int(bad[:, row].argmax())
            b, d = float(births[row]), float(deaths[row])
            raise ValueError(("birth must be finite", f"need birth < death, got ({b}, {d})",
                              "multiplicity must be a positive integer")[rule])
        counts = counts.astype(np.int64)
        births, deaths = np.repeat(births, counts), np.repeat(deaths, counts)
        finite = np.isfinite(deaths)
        self._set(int(number), births[finite], deaths[finite], births[~finite])

    @classmethod
    def _from_arrays(cls, degree: int, births, deaths, essential) -> "PersistenceDiagram":
        """Diagram of finite pairs and essential births, float64 arrays, without validation."""
        self = object.__new__(cls)
        self._set(degree, births, deaths, essential)
        return self

    def _set(self, degree, births, deaths, essential):
        # stable sorts, so that of equal rows the first given comes first
        order = np.lexsort((deaths, births))
        finite = np.column_stack((births[order], deaths[order]))
        essential = np.sort(essential, kind="stable")
        finite.flags.writeable = essential.flags.writeable = False
        self.__dict__.update(degree=degree, finite=finite, essential=essential)

    def __setattr__(self, name, value):
        raise AttributeError("PersistenceDiagram is immutable")

    def __delattr__(self, name):
        raise AttributeError("PersistenceDiagram is immutable")

    def __eq__(self, other):
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return (self.degree == other.degree and np.array_equal(self.finite, other.finite)
                and np.array_equal(self.essential, other.essential))

    def __hash__(self):
        # float hashes, so that 0.0 and -0.0 hash alike as they compare equal
        return hash((self.degree, tuple(self.finite.ravel().tolist()),
                     tuple(self.essential.tolist())))

    def __repr__(self):
        return (f"PersistenceDiagram(degree={self.degree}, finite={self.finite.tolist()!r}, "
                f"essential={self.essential.tolist()!r})")

    def _merged(self) -> list[tuple[float, float, int]]:
        """(birth, death, multiplicity) of each distinct point, sorted by (birth, death)."""
        essential = np.column_stack((self.essential, np.full(len(self.essential), INF)))
        rows = np.concatenate([self.finite, essential])
        rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        first = np.flatnonzero(new)
        counts = np.diff(np.append(first, len(rows)))
        return [(b, d, m) for (b, d), m in zip(rows[first].tolist(), counts.tolist())]

    @classmethod
    def from_pairs(cls, degree: int, pairs) -> "PersistenceDiagram":
        """Build from (birth, death) or (birth, death, multiplicity) tuples."""
        return cls(degree, pairs)

    def expanded(self) -> list[tuple[float, float]]:
        """Points with multiplicity written out."""
        return [(b, d) for b, d, m in self._merged() for _ in range(m)]

    def coordinates(self) -> list[float]:
        """All finite coordinates (births, and deaths when finite)."""
        out = []
        for b, d, _m in self._merged():
            out.append(b)
            if not math.isinf(d):
                out.append(d)
        return out

    def total_multiplicity(self) -> int:
        return len(self.finite) + len(self.essential)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "points": [
                {"birth": b, "death": "inf" if math.isinf(d) else d, "multiplicity": m}
                for b, d, m in self._merged()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PersistenceDiagram":
        rows = [(row["birth"], row["death"], row.get("multiplicity", 1)) for row in obj["points"]]
        return cls(obj["degree"], rows)


def candidate_costs(d1: PersistenceDiagram, d2: PersistenceDiagram) -> list[float]:
    """Sorted candidate values c*|w0 - w1|, c in {1/2, 1}, over all coordinates.

    The bottleneck distance of the pair is always an element of this list,
    or +inf.  No package function calls it: :func:`bottleneck_distance`
    visits realized costs only, not these O(N^2) values.  The benchmark's
    checks and tracer in ``perfbench/`` use it.
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


def _cover_cost(h: np.ndarray, lam: float, n_cols: int, rows: np.ndarray, cols: np.ndarray,
                cost: np.ndarray) -> float:
    """Smallest cost ``lam`` at which every row retires or is matched within ``lam``.

    Row ``i`` retires when ``h[i] <= lam``; otherwise it needs a column of its
    own among its edges of cost ``<= lam``.  ``rows``, ``cols`` and ``cost``
    list the useful edges, those cheaper than their row's ``h``: a dearer edge
    is usable only once the row may retire anyway.  With no edge a row can
    only retire.

    The search raises ``lam`` through realized values only, and each raise is
    forced:

    * The caller passes the starting ``lam``: the largest, over the rows, of
      each row's cheapest option (its cheapest edge, else its ``h``).  Below
      that some row has no option at all.
    * At ``lam`` a matching is kept of the rows that do not retire.  For each
      row left over, an alternating tree grows over the edges of cost
      ``<= lam``.  If the tree reaches a free column, or a column held by a
      row that may retire, the path is flipped and the row is covered.
    * Otherwise the tree's rows ``T`` all need a column, every column they
      reach is held by another row of ``T``, and so ``T`` reaches fewer
      columns than it has rows.  Below the next value ``nu``, the least of
      the rows' ``h`` and of their edges dearer than ``lam``, ``T`` gains no
      column and loses no row to retirement, so no matching covers it at any
      ``lam' < nu``.  ``nu`` is an ``h`` or an edge cost, and ``lam`` becomes
      ``nu``; the tree stays valid and grows on.

    Every value below the final ``lam`` is thus infeasible and the final
    ``lam``, realized and feasible, is the least feasible cost.  The loops
    are iterative; each tree scans every edge at most once.
    """
    order = np.lexsort((cost, rows))
    start = np.searchsorted(rows[order], np.arange(len(h) + 1)).tolist()
    cost, cols, h = cost[order].tolist(), cols[order].tolist(), h.tolist()
    n = len(h)
    row_of = [-1] * n_cols  # the row that holds each column
    col_of = [-1] * n  # the column each row holds
    for i in range(n):  # greedy matching at the starting lam
        if h[i] > lam:
            for k in range(start[i], start[i + 1]):
                if cost[k] > lam:
                    break
                if row_of[cols[k]] < 0:
                    row_of[cols[k]], col_of[i] = i, cols[k]
                    break
    seen = [-1] * n_cols  # root of the last tree that reached each column
    via = [0] * n_cols  # the tree row that reached each column
    nxt = [0] * n  # the first edge of each tree row not yet scanned
    for root in range(n):
        if col_of[root] >= 0 or h[root] <= lam:
            continue
        queue, head, dearer = [root], 0, []
        nxt[root] = start[root]
        low_h, low_row = h[root], root  # the tree row that retires first
        end = -1  # a column that ends an augmenting path
        while end < 0:
            while head < len(queue) and end < 0:
                i = queue[head]
                head += 1
                k, stop = nxt[i], start[i + 1]
                while k < stop and cost[k] <= lam:
                    j = cols[k]
                    k += 1
                    if seen[j] == root:
                        continue
                    seen[j], via[j] = root, i
                    m = row_of[j]
                    if m < 0 or h[m] <= lam:
                        end = j
                        break
                    nxt[m] = start[m]
                    queue.append(m)
                    if h[m] < low_h:
                        low_h, low_row = h[m], m
                nxt[i] = k
                if end < 0 and k < stop:
                    heapq.heappush(dearer, (cost[k], i))
            if end >= 0:
                break
            lam = min(low_h, dearer[0][0]) if dearer else low_h
            if low_h <= lam:  # a tree row retires and frees its column
                end = col_of[low_row]
                break
            while dearer and dearer[0][0] <= lam:
                queue.append(heapq.heappop(dearer)[1])
        if end < 0:  # the root itself retires
            continue
        if row_of[end] >= 0:
            col_of[row_of[end]] = -1
        while True:
            i = via[end]
            held = col_of[i]
            row_of[end], col_of[i] = i, end
            if i == root:
                break
            end = held
    return lam


def _realized_bottleneck(f1: np.ndarray, f2: np.ndarray) -> float:
    """Smallest realized cost at which the finite points admit a perfect matching.

    Costs are those of the extended point metric: a point retired to the
    diagonal costs its half persistence ``h = (d - b) / 2`` and a pair of
    points ``min(max(|b1 - b2|, |d1 - d2|), max(h1, h2))``, computed with the
    float operations of ``tests/oracles.py``.  At ``lam``, points whose
    diagonal cost exceeds ``lam`` must be matched inside the graph
    ``{pair <= lam}``; by the Mendelsohn-Dulmage theorem one matching covers
    those of both diagrams iff one matching covers those of D1 and another
    those of D2.  Each side's condition is monotone in ``lam``, so the value
    is the larger of the two sides' least feasible costs, found by
    :func:`_cover_cost`.  A pair cheaper
    than the point's own diagonal cost ``h`` costs its L-infinity distance,
    since ``max(h_p, h_q) >= h`` then loses the minimum; only such pairs are
    edges.
    """
    if not len(f1) or not len(f2):  # every finite point, if any, retires to the diagonal
        rest = f1 if len(f1) else f2
        return float((rest[:, 1] - rest[:, 0]).max() / 2) if len(rest) else 0.0
    h1 = (f1[:, 1] - f1[:, 0]) / 2
    h2 = (f2[:, 1] - f2[:, 0]) / 2
    linf = f1[:, None, 0] - f2[None, :, 0]
    gap = f1[:, None, 1] - f2[None, :, 1]
    np.abs(linf, out=linf)
    np.maximum(linf, np.abs(gap, out=gap), out=linf)
    del gap
    i, j = np.nonzero(linf < h1[:, None])
    lam1 = _cover_cost(h1, float(np.minimum(h1, linf.min(axis=1)).max()), len(f2), i, j, linf[i, j])
    i, j = np.nonzero(linf < h2)  # row-major, then grouped by column: no transposed scan
    lam2 = _cover_cost(h2, float(np.minimum(h2, linf.min(axis=0)).max()), len(f1), j, i, linf[i, j])
    return max(lam1, lam2)


def bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Bottleneck distance: min over multiset bijections of the max point cost.

    Points may retire to the diagonal; essential points must match essential
    points, so the result is +inf when the essential counts differ.
    """
    if d1.degree != d2.degree:
        raise ValueError(f"degree mismatch: {d1.degree} vs {d2.degree}")
    e1, e2 = d1.essential, d2.essential
    if len(e1) != len(e2):
        return INF
    inf_cost = float(np.abs(e1 - e2).max()) if len(e1) else 0.0
    return max(inf_cost, _realized_bottleneck(d1.finite, d2.finite))
