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
triangles; on other complexes the triangle boundary columns, in key order,
are reduced over the two-element field instead, with the same forward pass
for the negative edges.

An explicit :class:`Filtration` is converted once into index arrays: vertices
numbered by filtration position, edges as pairs of vertex ordinals, and
triangles as triples of edge ordinals.  Degree 0 is the elder-rule
union-find over its edges in filtration order, so vertices of equal value
age by position, and degrees 1 and 2 are the same column reduction.
Columns are packed into Python integers, so the XOR of two columns is a
single big-int operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .complexes import Filtration, MeshError, SimplicialComplex, _face_codes, simplex_values
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


def _descend(step):
    """Pointer jumping: follow ``step`` from every node to a fixed point."""
    while True:
        nxt = step[step]
        if np.array_equal(nxt, step):
            return step
        step = nxt


def _reduce_bit_columns(faces: np.ndarray):
    """Left-to-right column reduction over GF(2) of triangle boundary columns.

    Row ``j`` of ``faces`` holds the rows (edge positions) of column ``j``'s
    three faces, columns in filtration order; each column is packed into the
    bits of a Python integer.  Returns the pivot rows, the columns they pair
    with, and the zero columns.
    """
    cols_by_pivot: dict[int, int] = {}
    pivots, paired, zero = [], [], []
    for j, (a, b, c) in enumerate(faces.tolist()):
        col = (1 << a) | (1 << b) | (1 << c)
        while col:
            piv = col.bit_length() - 1
            other = cols_by_pivot.get(piv)
            if other is None:
                cols_by_pivot[piv] = col
                pivots.append(piv)
                paired.append(j)
                break
            col ^= other
        else:
            zero.append(j)
    return (np.asarray(pivots, dtype=np.int64), np.asarray(paired, dtype=np.int64),
            np.asarray(zero, dtype=np.int64))


def _diagram_points(births, deaths) -> list[tuple[float, float]]:
    births = np.asarray(births)
    deaths = np.asarray(deaths)
    keep = births < deaths
    return list(zip(births[keep].tolist(), deaths[keep].tolist()))


class _LowerStar:
    """Lower-star persistence of one (complex, values) pair, degree by degree.

    Simplices are ordered by the key (r_max, r_mid, r_min) of their vertex
    ranks, faces first.
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

    def _reduction_pass(self):
        """Degrees 1-2 on any complex: the triangle columns reduced in key order.

        Rows are the edges in key order.  Returns the (edge, triangle) pairs
        and the triangles whose columns reduce to zero.
        """
        cx, n = self.complex, len(self.values)
        edge_at = np.argsort(self.hi * n + self.lo)
        row = np.empty_like(edge_at)
        row[edge_at] = np.arange(len(edge_at))
        rt = np.sort(self.rank[cx.triangles], axis=1)
        tri_at = np.lexsort((rt[:, 0], rt[:, 1], rt[:, 2]))
        pivots, paired, zero = _reduce_bit_columns(row[cx.triangle_edges[tri_at]])
        return edge_at[pivots], tri_at[paired], tri_at[zero]

    def _triangle_pass(self):
        if self.complex.edge_cofaces is None:  # an edge in three or more triangles
            return self._reduction_pass()
        return self._dual_pass()

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
        pair_edges, pair_tris, _ = self._triangle_pass()
        points = _diagram_points(self._edge_values(pair_edges), self._triangle_values(pair_tris))
        # essential: negative in neither pass; the first kind of negative edge
        # is each non-minimum vertex's descending edge
        essential = self.lo != step[self.hi]
        essential[joins[at]] = False
        essential[pair_edges] = False
        points.extend((float(b), np.inf) for b in self._edge_values(np.flatnonzero(essential)))
        return points

    def dgm2(self) -> list[tuple[float, float]]:
        _pe, _pt, roots = self._triangle_pass()
        return [(float(b), np.inf) for b in self._triangle_values(roots)]


def lower_star_diagram(complex: SimplicialComplex, values, k: int) -> PersistenceDiagram:
    """Degree-k diagram of the lower-star filtration of ``values`` on ``complex``.

    Zero-persistence pairs are dropped; essential classes get death +inf.
    Degrees 1 and 2 run the dual pass when every edge lies in at most two
    triangles, and otherwise reduce the triangle columns in key order.
    """
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported degree {k}; supported: {SUPPORTED_DEGREES}")
    values = values.values if hasattr(values, "values") else values
    ls = _LowerStar(complex, values)
    pts = (ls.dgm0, ls.dgm1, ls.dgm2)[k]()
    return PersistenceDiagram.from_pairs(k, pts)


def _index_arrays(filtration: Filtration):
    """A filtration as index arrays, ordinals counting in filtration order.

    Returns the positions of the vertices, edges and triangles, the edges as
    sorted pairs of vertex ordinals, and each triangle's faces (a, b), (a, c),
    (b, c) as edge ordinals.
    """
    simplices = filtration.simplices
    size = np.fromiter(map(len, simplices), dtype=np.int64, count=len(simplices))
    if np.any((size < 1) | (size > 3)):
        raise ValueError("filtrations of dimension > 2 are not supported")
    flat = np.fromiter(chain.from_iterable(simplices), dtype=np.int64, count=int(size.sum()))
    start = np.cumsum(size) - size
    vpos, epos, tpos = (np.flatnonzero(size == d) for d in (1, 2, 3))
    ids = flat[start[vpos]]
    by_id = np.argsort(ids)

    def ordinals(pos, width):
        rows = flat[start[pos, None] + np.arange(width)]
        return np.sort(by_id[np.searchsorted(ids, rows, sorter=by_id)], axis=1)

    nv, edges = len(vpos), ordinals(epos, 2)
    codes = edges[:, 0] * nv + edges[:, 1]
    by_code = np.argsort(codes)
    faces = by_code[np.searchsorted(codes, _face_codes(ordinals(tpos, 3), nv), sorter=by_code)]
    return vpos, epos, tpos, edges, faces


def _filtration_pairs(filtration: Filtration, degrees) -> dict:
    """Degree -> (birth positions, death positions, essential positions)."""
    vpos, epos, tpos, edges, faces = _index_arrays(filtration)
    out = {}
    if 0 in degrees or 1 in degrees:
        dying, at, roots = _merge(len(vpos), edges[:, 0], edges[:, 1])
        out[0] = vpos[dying], epos[at], vpos[roots]
    if 1 in degrees or 2 in degrees:
        pivots, paired, zero = _reduce_bit_columns(faces)
        out[2] = tpos[:0], tpos[:0], tpos[zero]
    if 1 in degrees:
        negative = np.zeros(len(epos), dtype=bool)
        negative[at] = negative[pivots] = True
        out[1] = epos[pivots], tpos[paired], epos[~negative]
    return out


def compute_persistence(filtration: Filtration, k: int) -> PersistenceDiagram:
    """Degree-k diagram of a filtration; zero-persistence pairs are dropped."""
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported degree {k}; supported: {SUPPORTED_DEGREES}")
    births, deaths, essentials = _filtration_pairs(filtration, (k,))[k]
    values = filtration.values
    pts = _diagram_points(values[births], values[deaths])
    pts.extend((float(b), np.inf) for b in values[essentials])
    return PersistenceDiagram.from_pairs(k, pts)


def compute_pairing(filtration: Filtration) -> PersistencePairing:
    """Full simplex pairing of a filtration across degrees 0-2."""
    pairs: list[tuple[int, int]] = []
    essentials: list[tuple[int, int]] = []
    for k, (births, deaths, ess) in _filtration_pairs(filtration, SUPPORTED_DEGREES).items():
        pairs.extend(zip(births.tolist(), deaths.tolist()))
        essentials.extend((i, k) for i in ess.tolist())
    return PersistencePairing(tuple(sorted(pairs)), tuple(sorted(essentials)))
