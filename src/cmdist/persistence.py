"""Persistence of lower-star filtrations in degrees 0, 1 and 2.

A lower-star diagram ranks the vertices by (value, index) and keys every
simplex by the ranks of its vertices, largest first, faces before cofaces;
that order is a linear extension of the filtration, so the diagrams are the
same.  The forward pass contracts every vertex into the basin of a local
minimum: each vertex points at its lowest earlier neighbour, and pointer
jumping takes it to the minimum at the end of that descending path.  The
path lies in every sublevel set that holds the vertex, so a basin is
connected as soon as it appears, and the elder-rule union-find runs only
over the edges that join two basins.  That pass is degree 0.

Degrees 1 and 2 add the same contraction on the dual graph in reverse
order: the triangles plus a ground node, the oldest, for the missing coface
of a boundary edge.  Each triangle dies at its leading edge, the face
without its lowest vertex, except the older of two triangles that share it;
the union-find runs over the other edges that join two dual basins.  The
finite degree-1 points are the dual merges, the degree-1 essentials the
edges negative in neither pass, and the degree-2 essentials the dual roots
other than the ground node.  This needs every edge in at most two
triangles; other complexes go through the explicit filtration.

An explicit :class:`Filtration` runs the union-find over all its ordered
edges and reduces the triangle boundary columns over the two-element field,
with columns packed into Python integers so the XOR of two columns is a
single big-int operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Filtration, MeshError, SimplicialComplex, lower_star_filtration, simplex_values
from .diagram import PersistenceDiagram

SUPPORTED_DEGREES = (0, 1, 2)


@dataclass(frozen=True)
class PersistencePairing:
    """Index pairing of a filtration: (birth simplex, death simplex) plus essentials.

    Indices refer to positions in the filtration order; essentials carry
    their homology degree.
    """

    pairs: tuple[tuple[int, int], ...]
    essentials: tuple[tuple[int, int], ...]  # (filtration index, degree)


def _merge(n_nodes, edge_u, edge_v):
    """Elder-rule union-find over nodes numbered oldest first.

    Runs the edges in the given order.  Returns the dying (younger) root and
    the edge position of every merge, and the roots left at the end.
    """
    parent = list(range(n_nodes))
    dying, at = [], []
    for e, (u, v) in enumerate(zip(edge_u.tolist(), edge_v.tolist())):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if u < v:
                u, v = v, u
            parent[u] = v
            dying.append(u)
            at.append(e)
    roots = [i for i, p in enumerate(parent) if p == i]
    return (np.asarray(dying, dtype=np.int64), np.asarray(at, dtype=np.int64),
            np.asarray(roots, dtype=np.int64))


def _uf_merge(n_vertices, vertex_values, edge_u, edge_v, edge_val):
    """Union-find over every edge of an explicit order; ties in birth go by vertex index.

    Returns per merge the dying birth value, death value, vertex and edge
    position, the negative-edge mask, and the births and ids of the roots.
    """
    values = np.asarray(vertex_values, dtype=np.float64)
    order = np.lexsort((np.arange(n_vertices), values))
    rank = np.empty(n_vertices, dtype=np.int64)
    rank[order] = np.arange(n_vertices)
    dying, at, roots = _merge(n_vertices, rank[np.asarray(edge_u, dtype=np.int64)],
                              rank[np.asarray(edge_v, dtype=np.int64)])
    negative = np.zeros(len(edge_u), dtype=np.bool_)
    negative[at] = True
    dying, roots = order[dying], order[roots]
    return (values[dying], np.asarray(edge_val, dtype=np.float64)[at], dying, at, negative,
            values[roots], roots)


def _descend(step):
    """Pointer jumping: follow ``step`` from every node to a fixed point."""
    while True:
        nxt = step[step]
        if np.array_equal(nxt, step):
            return step
        step = nxt


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
    """Lower-star persistence of one (complex, values) pair, degree by degree.

    Simplices are ordered by the key (r_max, r_mid, r_min) of their vertex
    ranks, faces first.  Degrees 1 and 2 assume every edge lies in at most
    two triangles.
    """

    def __init__(self, complex: SimplicialComplex, values: np.ndarray):
        self.complex = complex
        self.values = np.asarray(values, dtype=np.float64)
        if len(self.values) != complex.n_vertices:
            raise MeshError("function length does not match vertex count")
        n = len(self.values)
        self.order = np.argsort(self.values, kind="stable")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.order] = np.arange(n)
        ranked = self.rank[complex.edges]
        self.lo = np.minimum(ranked[:, 0], ranked[:, 1])
        self.hi = np.maximum(ranked[:, 0], ranked[:, 1])

    def edge_data(self):
        """Edges in the order of :func:`lower_star_filtration`, their values and positions."""
        edges = self.complex.edges
        evals = simplex_values(self.values, edges)
        order = np.lexsort((edges[:, 0], edges[:, 1], evals))
        return edges[order], evals[order], order

    def _edge_values(self, idx):
        return self.values[self.order[self.hi[idx]]]

    def _vertex_pass(self):
        """Forward pass: basin contraction, then union-find over basin joins.

        Every vertex descends to a local minimum through its lowest earlier
        neighbour; that descending edge is the first edge of the vertex's
        lower star and merges the vertex into the older component.  The
        descending path lies in every sublevel set that holds the vertex,
        so a basin is connected as soon as it appears and edges inside a
        basin never merge two components.  The elder-rule union-find then
        runs over the basin minima and the edges between basins, in key
        order.  Returns the one-step descent, the joins in key order, and
        the dying basins, merging join positions and surviving basins.
        """
        n = len(self.values)
        lo, hi = self.lo, self.hi
        step = np.arange(n)  # by rank: the lowest earlier neighbour, or itself
        np.minimum.at(step, hi, lo)
        down = _descend(step)
        # basins are numbered by the rank of their minimum, oldest first
        is_min = down == np.arange(n)
        basin = (np.cumsum(is_min) - 1)[down]
        joins = np.flatnonzero(basin[lo] != basin[hi])
        joins = joins[np.argsort(hi[joins] * n + lo[joins])]
        dying, at, roots = _merge(int(is_min.sum()), basin[lo[joins]], basin[hi[joins]])
        return step, joins, self.order[is_min], dying, at, roots

    def _dual_pass(self):
        """Reverse pass: union-find on the dual graph, contracted along leading edges.

        The nodes are the triangles plus a ground node, the oldest, that
        stands for the missing coface of a boundary edge; the dual edges are
        the mesh edges.  In reverse key order the anti-transposed boundary
        matrix has the same pairing as the boundary matrix (de Silva,
        Morozov & Vejdemo-Johansson 2011), so an (edge, triangle) pair is a
        merge in which the younger dual component, the earlier triangle in
        the filtration, dies.  The leading edge (w, a) of a triangle
        (w, a, b), r_w > r_a > r_b, follows it in reverse order with only
        triangles of the same prefix (w, a) in between, and every other face
        comes later.  So each triangle dies at its leading edge, joined to
        the other coface of that edge or to the ground node, except the
        older of two triangles that share the prefix, which the younger
        joins; pointer jumping finds these dual basins, and the union-find
        runs over the other edges that join two of them, in reverse key
        order.  Returns the (edge, triangle) pairs and the triangles left as
        roots.
        """
        cx, n = self.complex, len(self.values)
        nt = len(cx.triangles)
        node = np.arange(nt)
        rt = self.rank[cx.triangles]
        rmin = rt.min(axis=1)
        lead = cx.triangle_edges[node, 2 - rt.argmin(axis=1)]
        cof = np.where(cx.edge_cofaces < 0, nt, cx.edge_cofaces)
        other = np.where(cof[lead, 0] == node, cof[lead, 1], cof[lead, 0])
        is_root = ((np.append(lead, -1)[other] == lead)
                   & (np.append(rmin, -1)[other] < rmin))
        down = _descend(np.append(np.where(is_root, node, other), nt))
        ekey = self.hi * n + self.lo
        roots = np.flatnonzero(is_root)
        roots = roots[np.lexsort((rmin[roots], ekey[lead[roots]]))[::-1]]
        basin_id = np.zeros(nt + 1, dtype=np.int64)  # ground 0, then roots oldest first
        basin_id[roots] = np.arange(1, len(roots) + 1)
        basin = basin_id[down]
        free = np.ones(len(ekey), dtype=bool)
        pointing = np.flatnonzero(~is_root)
        free[lead[pointing]] = False
        joins = np.flatnonzero(free & (basin[cof[:, 0]] != basin[cof[:, 1]]))
        joins = joins[np.argsort(ekey[joins])[::-1]]
        dying, at, left = _merge(len(roots) + 1, basin[cof[joins, 0]], basin[cof[joins, 1]])
        pair_edges = np.concatenate([lead[pointing], joins[at]])
        pair_tris = np.concatenate([pointing, roots[dying - 1]])
        return pair_edges, pair_tris, roots[left[1:] - 1]

    def _triangle_values(self, idx):
        return simplex_values(self.values, self.complex.triangles[idx])

    def dgm0(self) -> list[tuple[float, float]]:
        _step, joins, minima, dying, at, roots = self._vertex_pass()
        births = self.values[minima]
        points = _diagram_points(births[dying], self._edge_values(joins[at]))
        points.extend((float(b), np.inf) for b in births[roots])
        return points

    def dgm1(self) -> list[tuple[float, float]]:
        step, joins, _minima, _dying, at, _roots = self._vertex_pass()
        pair_edges, pair_tris, _ = self._dual_pass()
        points = _diagram_points(self._edge_values(pair_edges), self._triangle_values(pair_tris))
        # essential: negative in neither pass; the first kind of negative edge
        # is each non-minimum vertex's descending edge
        essential = self.lo != step[self.hi]
        essential[joins[at]] = False
        essential[pair_edges] = False
        points.extend((float(b), np.inf) for b in self._edge_values(np.flatnonzero(essential)))
        return points

    def dgm2(self) -> list[tuple[float, float]]:
        _pe, _pt, roots = self._dual_pass()
        return [(float(b), np.inf) for b in self._triangle_values(roots)]


def lower_star_diagram(complex: SimplicialComplex, values, k: int) -> PersistenceDiagram:
    """Degree-k diagram of the lower-star filtration of ``values`` on ``complex``.

    Zero-persistence pairs are dropped; essential classes get death +inf.
    Degrees 1 and 2 on a complex with an edge in three or more triangles go
    through :func:`compute_persistence` on the explicit filtration.
    """
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported degree {k}; supported: {SUPPORTED_DEGREES}")
    values = values.values if hasattr(values, "values") else values
    if k > 0 and complex.edge_cofaces is None:
        return compute_persistence(lower_star_filtration(complex, values), k)
    ls = _LowerStar(complex, values)
    pts = (ls.dgm0, ls.dgm1, ls.dgm2)[k]()
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

    def uf(self):
        n, vv = self._vertex_arrays()
        return _uf_merge(n, vv, self.edges[:, 0], self.edges[:, 1], self.edge_values)

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
