"""Persistence of lower-star filtrations in degrees 0, 1 and 2.

Degree 0 of a lower-star filtration first contracts every vertex into the
basin of a local minimum: each vertex points at its lowest earlier
neighbour in the (value, index) order, and pointer jumping takes it to the
minimum at the end of that descending path.  The contraction is exact,
because the path from a vertex to its minimum runs through vertices that
are no higher than the vertex itself, so each basin is already connected in
every sublevel set that meets it and an edge inside one basin never changes
a component.  The elder-rule union-find then runs only over the edges that
join two basins, in filtration order.  Degree 0 of an explicit
:class:`Filtration` runs the union-find over all its ordered edges.
Degrees 1 and 2 reduce the triangle boundary columns over the two-element
field, with columns packed into Python integers so the XOR of two columns
is a single big-int operation.  Both entry points work from a
:class:`Filtration` or straight from a complex plus vertex values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Filtration, MeshError, SimplicialComplex, simplex_values
from .diagram import PersistenceDiagram

try:  # optional: JIT for the union-find merge loop
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False

SUPPORTED_DEGREES = (0, 1, 2)


@dataclass(frozen=True)
class PersistencePairing:
    """Index pairing of a filtration: (birth simplex, death simplex) plus essentials.

    Indices refer to positions in the filtration order; essentials carry
    their homology degree.
    """

    pairs: tuple[tuple[int, int], ...]
    essentials: tuple[tuple[int, int], ...]  # (filtration index, degree)


def _uf_merge_py(parent, birth_val, birth_idx, edge_u, edge_v, edge_val):
    ne = len(edge_u)
    pair_birth = np.empty(ne)
    pair_death = np.empty(ne)
    pair_vertex = np.empty(ne, dtype=np.int64)
    pair_edge = np.empty(ne, dtype=np.int64)
    negative = np.zeros(ne, dtype=np.bool_)
    k = 0
    for e in range(ne):
        u = edge_u[e]
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        v = edge_v[e]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            continue
        negative[e] = True
        # elder rule: the component with the larger (birth value, vertex index) dies
        if (birth_val[u], birth_idx[u]) < (birth_val[v], birth_idx[v]):
            u, v = v, u
        pair_birth[k] = birth_val[u]
        pair_death[k] = edge_val[e]
        pair_vertex[k] = birth_idx[u]
        pair_edge[k] = e
        k += 1
        parent[u] = v
    return pair_birth[:k], pair_death[:k], pair_vertex[:k], pair_edge[:k], negative


if _HAVE_NUMBA:

    @numba.njit(cache=True)
    def _uf_merge_nb(parent, birth_val, birth_idx, edge_u, edge_v, edge_val):  # pragma: no cover
        ne = len(edge_u)
        pair_birth = np.empty(ne)
        pair_death = np.empty(ne)
        pair_vertex = np.empty(ne, dtype=np.int64)
        pair_edge = np.empty(ne, dtype=np.int64)
        negative = np.zeros(ne, dtype=np.bool_)
        k = 0
        for e in range(ne):
            u = edge_u[e]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            v = edge_v[e]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u == v:
                continue
            negative[e] = True
            if (birth_val[u] < birth_val[v]) or (
                birth_val[u] == birth_val[v] and birth_idx[u] < birth_idx[v]
            ):
                u, v = v, u
            pair_birth[k] = birth_val[u]
            pair_death[k] = edge_val[e]
            pair_vertex[k] = birth_idx[u]
            pair_edge[k] = e
            k += 1
            parent[u] = v
        return pair_birth[:k], pair_death[:k], pair_vertex[:k], pair_edge[:k], negative


def _uf_merge(n_vertices, vertex_values, edge_u, edge_v, edge_val, use_numba=True):
    parent = np.arange(n_vertices, dtype=np.int64)
    birth_val = np.asarray(vertex_values, dtype=np.float64).copy()
    birth_idx = np.arange(n_vertices, dtype=np.int64)
    fn = _uf_merge_nb if (_HAVE_NUMBA and use_numba) else _uf_merge_py
    out = fn(parent, birth_val, birth_idx,
             np.ascontiguousarray(edge_u, dtype=np.int64),
             np.ascontiguousarray(edge_v, dtype=np.int64),
             np.ascontiguousarray(edge_val, dtype=np.float64))
    roots = np.flatnonzero(parent == np.arange(n_vertices))
    return out + (birth_val[roots], birth_idx[roots])


def _reduce_bit_columns(columns: list[int]):
    """Left-to-right column reduction over GF(2) on bit-packed columns.

    Returns (pivot row -> column index) and the list of zero columns.
    """
    pivot_of: dict[int, int] = {}
    cols_by_pivot: dict[int, int] = {}
    zero_cols: list[int] = []
    for j, col in enumerate(columns):
        while col:
            piv = col.bit_length() - 1
            other = cols_by_pivot.get(piv)
            if other is None:
                pivot_of[piv] = j
                cols_by_pivot[piv] = col
                break
            col ^= other
        else:
            zero_cols.append(j)
    return pivot_of, zero_cols


def _diagram_points(births, deaths) -> list[tuple[float, float]]:
    births = np.asarray(births)
    deaths = np.asarray(deaths)
    keep = births < deaths
    return list(zip(births[keep].tolist(), deaths[keep].tolist()))


class _LowerStar:
    """Per-degree lower-star computation for one (complex, values) pair.

    Orders are computed lazily so the degree-0 path (the inner loop of the
    distance maximizer) never touches the triangles.
    """

    def __init__(self, complex: SimplicialComplex, values: np.ndarray):
        self.complex = complex
        self.values = np.asarray(values, dtype=np.float64)
        if len(self.values) != complex.n_vertices:
            raise MeshError("function length does not match vertex count")
        self._edge_data = None
        self._tri_data = None

    def edge_data(self):
        if self._edge_data is None:
            edges = self.complex.edges
            evals = simplex_values(self.values, edges)
            order = (np.lexsort((edges[:, 0], edges[:, 1], evals))
                     if len(edges) else np.empty(0, np.int64))
            self._edge_data = (edges[order], evals[order], order)
        return self._edge_data

    def tri_data(self):
        if self._tri_data is None:
            tris = self.complex.triangles
            tvals = simplex_values(self.values, tris)
            order = (np.lexsort((tris[:, 0], tris[:, 1], tris[:, 2], tvals))
                     if len(tris) else np.empty(0, np.int64))
            self._tri_data = (tris[order], tvals[order], order)
        return self._tri_data

    def dgm0(self, use_numba=True) -> list[tuple[float, float]]:
        """Degree-0 points by basin contraction, then union-find on basin joins.

        Every vertex descends to a local minimum of the (value, index) order
        through its lowest earlier neighbour; the edge to that neighbour has
        the vertex's own value, so the descending path lies in every
        sublevel set that holds the vertex.  A basin is therefore connected
        as soon as it appears, edges inside a basin never merge two
        components, and the diagram equals the elder-rule union-find over
        the basin minima and the edges between basins.  ``use_numba``
        selects the merge kernel for those edges.
        """
        values = self.values
        n = len(values)
        order = np.argsort(values, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        ranked = rank[self.complex.edges]
        lo = np.minimum(ranked[:, 0], ranked[:, 1])
        hi = np.maximum(ranked[:, 0], ranked[:, 1])
        down = np.arange(n)  # by rank: the lowest earlier neighbour, or itself
        np.minimum.at(down, hi, lo)
        while True:  # pointer jumping to the basin minimum
            nxt = down[down]
            if np.array_equal(nxt, down):
                break
            down = nxt
        # basins are numbered by the rank of their minimum, so comparing basin
        # ids breaks birth ties exactly as comparing vertex indices does
        is_min = down == np.arange(n)
        basin = (np.cumsum(is_min) - 1)[down]
        minima = order[is_min]
        cross = basin[lo] != basin[hi]
        edges = self.complex.edges[cross]
        evals = values[order[hi[cross]]]
        joins = np.lexsort((edges[:, 0], edges[:, 1], evals))
        (pb, pd, _pv, _pe, _neg, root_births, root_ids) = _uf_merge(
            len(minima), values[minima], basin[lo[cross]][joins],
            basin[hi[cross]][joins], evals[joins], use_numba=use_numba,
        )
        points = _diagram_points(pb, pd)
        points.extend((float(b), np.inf) for b in root_births[np.argsort(minima[root_ids])])
        return points

    def _negative_edges(self) -> np.ndarray:
        edges, evals, _ = self.edge_data()
        out = _uf_merge(self.complex.n_vertices, self.values,
                        edges[:, 0], edges[:, 1], evals)
        return out[4]

    def _triangle_reduction(self):
        """Reduce triangle columns over edge rows (rows = edge order positions)."""
        edges, _evals, edge_order = self.edge_data()
        ne = len(edge_order)
        edge_rank = np.empty(ne, dtype=np.int64)
        edge_rank[edge_order] = np.arange(ne)
        rank_of = {}
        for i, (u, v) in enumerate(self.complex.edges.tolist()):
            rank_of[(u, v)] = int(edge_rank[i])
        tris, _tvals, _ = self.tri_data()
        columns = []
        for a, b, c in tris.tolist():
            col = (1 << rank_of[(a, b)]) | (1 << rank_of[(a, c)]) | (1 << rank_of[(b, c)])
            columns.append(col)
        pivot_of, zero_cols = _reduce_bit_columns(columns)
        return pivot_of, zero_cols

    def dgm1(self) -> list[tuple[float, float]]:
        pivot_of, _zero = self._triangle_reduction()
        _edges, evals, _ = self.edge_data()
        _tris, tvals, _ = self.tri_data()
        points = _diagram_points(
            [evals[p] for p in pivot_of], [tvals[j] for j in pivot_of.values()]
        )
        negative = self._negative_edges()
        essential = ~negative
        if len(essential):
            essential[list(pivot_of.keys())] = False
        points.extend((float(evals[i]), np.inf) for i in np.flatnonzero(essential))
        return points

    def dgm2(self) -> list[tuple[float, float]]:
        _piv, zero_cols = self._triangle_reduction()
        _tris, tvals, _ = self.tri_data()
        return [(float(tvals[j]), np.inf) for j in zero_cols]


def lower_star_diagram(complex: SimplicialComplex, values, k: int) -> PersistenceDiagram:
    """Degree-k diagram of the lower-star filtration of ``values`` on ``complex``.

    Zero-persistence pairs are dropped; essential classes get death +inf.
    """
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported degree {k}; supported: {SUPPORTED_DEGREES}")
    values = values.values if hasattr(values, "values") else values
    ls = _LowerStar(complex, values)
    if k == 0:
        pts = ls.dgm0()
    elif k == 1:
        pts = ls.dgm1()
    else:
        pts = ls.dgm2()
    return PersistenceDiagram.from_pairs(k, pts)


def _split_filtration(filtration: Filtration):
    """Vertices/edges/triangles of a filtration in filtration order."""
    verts, edges, tris = [], [], []
    vert_pos, edge_pos, tri_pos = [], [], []
    for i, s in enumerate(filtration.simplices):
        if len(s) == 1:
            verts.append(s[0]); vert_pos.append(i)
        elif len(s) == 2:
            edges.append(s); edge_pos.append(i)
        elif len(s) == 3:
            tris.append(s); tri_pos.append(i)
        else:
            raise ValueError("filtrations of dimension > 2 are not supported")
    return (np.asarray(verts, dtype=np.int64), np.asarray(vert_pos, dtype=np.int64),
            np.asarray(edges, dtype=np.int64).reshape(-1, 2), np.asarray(edge_pos, dtype=np.int64),
            np.asarray(tris, dtype=np.int64).reshape(-1, 3), np.asarray(tri_pos, dtype=np.int64))


class _FiltrationRun:
    """Union-find plus triangle reduction over an explicit filtration order."""

    def __init__(self, filtration: Filtration):
        self.filtration = filtration
        (self.verts, self.vert_pos, self.edges, self.edge_pos,
         self.tris, self.tri_pos) = _split_filtration(filtration)
        values = filtration.values
        # vertex id -> its filtration value / position
        self.vert_value_of = {int(v): float(values[p]) for v, p in zip(self.verts, self.vert_pos)}
        self.vert_pos_of = {int(v): int(p) for v, p in zip(self.verts, self.vert_pos)}
        self.edge_values = values[self.edge_pos]
        self.tri_values = values[self.tri_pos]

    def _vertex_arrays(self):
        n = int(self.verts.max()) + 1 if len(self.verts) else 0
        vv = np.full(n, np.inf)
        vv[self.verts] = [self.vert_value_of[int(v)] for v in self.verts]
        return n, vv

    def uf(self, use_numba=True):
        n, vv = self._vertex_arrays()
        return _uf_merge(n, vv, self.edges[:, 0], self.edges[:, 1],
                         self.edge_values, use_numba=use_numba)

    def dgm0_union_find(self) -> list[tuple[float, float]]:
        pb, pd, _pv, _pe, _neg, root_births, _ri = self.uf()
        points = _diagram_points(pb, pd)
        points.extend((float(b), np.inf) for b in root_births if np.isfinite(b))
        return points

    def _edge_columns(self):
        rank_of_vertex = {int(v): r for r, v in enumerate(self.verts)}
        cols = []
        for (u, v) in self.edges.tolist():
            cols.append((1 << rank_of_vertex[u]) | (1 << rank_of_vertex[v]))
        return cols, rank_of_vertex

    def dgm0_reduction(self) -> list[tuple[float, float]]:
        """Degree-0 diagram by straight column reduction, no union-find."""
        cols, _rank = self._edge_columns()
        pivot_of, _zero = _reduce_bit_columns(cols)
        vert_vals_sorted = np.asarray([self.vert_value_of[int(v)] for v in self.verts])
        points = _diagram_points(
            [vert_vals_sorted[p] for p in pivot_of],
            [self.edge_values[j] for j in pivot_of.values()],
        )
        essential = np.ones(len(self.verts), dtype=bool)
        essential[list(pivot_of.keys())] = False
        points.extend((float(vert_vals_sorted[i]), np.inf) for i in np.flatnonzero(essential))
        return points

    def _triangle_reduction(self):
        edge_rank = {tuple(e): r for r, e in enumerate(self.edges.tolist())}
        cols = []
        for (a, b, c) in self.tris.tolist():
            cols.append((1 << edge_rank[(a, b)]) | (1 << edge_rank[(a, c)]) | (1 << edge_rank[(b, c)]))
        return _reduce_bit_columns(cols)

    def dgm1(self) -> list[tuple[float, float]]:
        pivot_of, _zero = self._triangle_reduction()
        points = _diagram_points(
            [self.edge_values[p] for p in pivot_of],
            [self.tri_values[j] for j in pivot_of.values()],
        )
        negative = self.uf()[4]
        essential = ~negative
        essential[list(pivot_of.keys())] = False
        points.extend((float(self.edge_values[i]), np.inf) for i in np.flatnonzero(essential))
        return points

    def dgm2(self) -> list[tuple[float, float]]:
        _piv, zero_cols = self._triangle_reduction()
        return [(float(self.tri_values[j]), np.inf) for j in zero_cols]


def compute_persistence(filtration: Filtration, k: int, method: str = "auto") -> PersistenceDiagram:
    """Degree-k diagram of a filtration.

    ``method`` selects the degree-0 algorithm: ``"union-find"`` (default via
    ``"auto"``) or ``"reduction"`` for the boundary-matrix route; the two are
    required to produce identical diagrams.  Degrees 1 and 2 always reduce
    the triangle columns.
    """
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported degree {k}; supported: {SUPPORTED_DEGREES}")
    if method not in ("auto", "union-find", "reduction"):
        raise ValueError(f"unknown method {method!r}")
    run = _FiltrationRun(filtration)
    if k == 0:
        if method == "reduction":
            pts = run.dgm0_reduction()
        else:
            pts = run.dgm0_union_find()
    elif k == 1:
        pts = run.dgm1()
    else:
        pts = run.dgm2()
    return PersistenceDiagram.from_pairs(k, pts)


def compute_pairing(filtration: Filtration) -> PersistencePairing:
    """Full simplex pairing of a filtration across degrees 0-2."""
    run = _FiltrationRun(filtration)
    pairs: list[tuple[int, int]] = []
    essentials: list[tuple[int, int]] = []

    pb, pd, pvert, pedge, negative, root_births, root_idx = run.uf()
    for v, e in zip(pvert, pedge):
        pairs.append((run.vert_pos_of[int(v)], int(run.edge_pos[int(e)])))
    for v in root_idx:
        if int(v) in run.vert_pos_of:  # padding ids from sparse vertex numbering
            essentials.append((run.vert_pos_of[int(v)], 0))

    pivot_of, zero_cols = run._triangle_reduction()
    for piv, j in pivot_of.items():
        pairs.append((int(run.edge_pos[piv]), int(run.tri_pos[j])))
    essential_edges = ~negative
    if len(essential_edges):
        essential_edges[list(pivot_of.keys())] = False
    for i in np.flatnonzero(essential_edges):
        essentials.append((int(run.edge_pos[i]), 1))
    for j in zero_cols:
        essentials.append((int(run.tri_pos[j]), 2))

    pairs.sort()
    essentials.sort()
    return PersistencePairing(tuple(pairs), tuple(essentials))
