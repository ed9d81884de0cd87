"""Lower-star filtrations and their persistence in degrees 0, 1 and 2.

This module alone decides the lower-star order: the vertices are ranked by
(value, index), and every simplex is keyed by the ranks of its vertices,
largest first, padded so that faces come before cofaces.  Each vertex is
then followed directly by its lower star.  :func:`lower_star_filtration`
lists the simplices in this order and the passes below run in it; it is a
linear extension of the filtration by value, so the diagrams are those of
any other.

The forward pass contracts every vertex into the basin of a local minimum:
each vertex points at its lowest earlier neighbour, and pointer jumping
takes it to the minimum at the end of that descending path.  The path lies
in every sublevel set that holds the vertex, so a basin is connected as
soon as it appears, and the elder-rule union-find runs only over the edges
that join two basins.  That pass is degree 0.

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

from .complexes import Filtration, MeshError, SimplicialComplex, VertexFunction, _face_rows
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


def _basins(step, roots):
    """Basin number of every node: the place of its root in ``roots``.

    ``step`` takes each node one step toward its root, and ``roots`` lists the
    fixed points of ``step`` oldest first.  Pointer jumping follows ``step``
    from every node to its root.
    """
    while True:
        nxt = step[step]
        if np.array_equal(nxt, step):
            break
        step = nxt
    number = np.empty(len(step), dtype=np.int64)
    number[roots] = np.arange(len(roots))
    return number[step]


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


def _diagram(k, births, deaths, essential_births) -> PersistenceDiagram:
    """Degree-k diagram of finite pairs, without zero persistence, and essential classes."""
    keep = births < deaths
    pairs = zip(births[keep].tolist(), deaths[keep].tolist())
    essential = ((b, np.inf) for b in essential_births.tolist())
    return PersistenceDiagram.from_pairs(k, chain(pairs, essential))


def simplex_values(values: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Largest vertex value of each row of ``simplices``.

    Column-wise ``np.maximum``: ``values[simplices].max(axis=1)`` gives the
    same floats but is about ten times slower on rows of length 2 or 3.
    """
    out = values[simplices[:, 0]]
    for c in range(1, simplices.shape[1]):
        np.maximum(out, values[simplices[:, c]], out=out)
    return out


class _LowerStar:
    """Lower-star persistence of one (complex, values) pair, degree by degree.

    Vertices are ranked by (value, index), and simplices ordered by
    :meth:`key`, their vertex ranks largest first, faces first.
    """

    def __init__(self, complex: SimplicialComplex, values):
        self.complex = complex
        values = values.values if isinstance(values, VertexFunction) else values
        self.values = np.asarray(values, dtype=np.float64)
        if len(self.values) != complex.n_vertices:
            raise MeshError("function length does not match vertex count")
        n = len(self.values)
        self.order = np.argsort(self.values, kind="stable")
        # NaN sorts last and infinities next to the ends, so the ends decide finiteness
        if n and not np.isfinite(self.values[self.order[[0, -1]]]).all():
            raise MeshError("vertex function values must be finite")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.order] = np.arange(n)
        ranked = self.rank[complex.edges]
        self.lo = np.minimum(ranked[:, 0], ranked[:, 1])
        self.hi = np.maximum(ranked[:, 0], ranked[:, 1])

    def key(self, simplices: np.ndarray) -> np.ndarray:
        """(len, 3) key of each row: its vertex ranks ascending, left-padded with -1.

        ``np.lexsort(key.T)`` sorts rows by their largest rank, then the next.
        A face comes before its cofaces, since leaving out a vertex lowers or
        pads some place of the key and raises none, and every vertex is
        followed directly by its lower star.
        """
        ranks = np.sort(self.rank[simplices], axis=1)
        return np.pad(ranks, ((0, 0), (3 - ranks.shape[1], 0)), constant_values=-1)

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
        minima = np.flatnonzero(step == np.arange(n))
        basin = _basins(step, minima)
        joins = np.flatnonzero(basin[lo] != basin[hi])
        joins = joins[np.argsort(hi[joins] * n + lo[joins])]
        dying, at, roots = _merge(len(minima), basin[lo[joins]], basin[hi[joins]])
        return step, joins, self.order[minima], dying, at, roots

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
        ekey = self.hi * n + self.lo
        roots = np.flatnonzero(is_root)
        # the ground node, then the other roots oldest first: latest in key order
        roots = np.append(nt, roots[np.lexsort((rmin[roots], ekey[lead[roots]]))[::-1]])
        basin = _basins(np.append(np.where(is_root, node, other), nt), roots)
        # a pointing triangle shares its basin with the coface across its
        # leading edge, so the joins never include a leading edge
        joins = np.flatnonzero(basin[cof[:, 0]] != basin[cof[:, 1]])
        joins = joins[np.argsort(ekey[joins])[::-1]]
        dying, at, left = _merge(len(roots), basin[cof[joins, 0]], basin[cof[joins, 1]])
        pointing = np.flatnonzero(~is_root)
        pair_edges = np.concatenate([lead[pointing], joins[at]])
        pair_tris = np.concatenate([pointing, roots[dying]])
        return pair_edges, pair_tris, roots[left[1:]]

    def _reduction_pass(self):
        """Degrees 1-2 on any complex: the triangle columns reduced in key order.

        Rows are the edges in key order.  Returns the (edge, triangle) pairs
        and the triangles whose columns reduce to zero.
        """
        cx = self.complex
        edge_at = np.lexsort(self.key(cx.edges).T)
        row = np.empty_like(edge_at)
        row[edge_at] = np.arange(len(edge_at))
        tri_at = np.lexsort(self.key(cx.triangles).T)
        pivots, paired, zero = _reduce_bit_columns(row[cx.triangle_edges[tri_at]])
        return edge_at[pivots], tri_at[paired], tri_at[zero]

    def _triangle_pass(self):
        if self.complex.edge_cofaces is None:  # an edge in three or more triangles
            return self._reduction_pass()
        return self._dual_pass()

    def _triangle_values(self, idx):
        return simplex_values(self.values, self.complex.triangles[idx])

    # dgm0, dgm1 and dgm2 return the births and deaths of the finite pairs
    # and the births of the essential classes
    def dgm0(self):
        _step, joins, minima, dying, at, roots = self._vertex_pass()
        births = self.values[minima]
        return births[dying], self._edge_values(joins[at]), births[roots]

    def dgm1(self):
        step, joins, _minima, _dying, at, _roots = self._vertex_pass()
        pair_edges, pair_tris, _ = self._triangle_pass()
        # essential: negative in neither pass; the first kind of negative edge
        # is each non-minimum vertex's descending edge
        essential = self.lo != step[self.hi]
        essential[joins[at]] = False
        essential[pair_edges] = False
        return (self._edge_values(pair_edges), self._triangle_values(pair_tris),
                self._edge_values(np.flatnonzero(essential)))

    def dgm2(self):
        _pe, _pt, roots = self._triangle_pass()
        none = np.empty(0)
        return none, none, self._triangle_values(roots)


def lower_star_diagram(complex: SimplicialComplex, values, k: int) -> PersistenceDiagram:
    """Degree-k diagram of the lower-star filtration of ``values`` on ``complex``.

    Zero-persistence pairs are dropped; essential classes get death +inf.
    Degrees 1 and 2 run the dual pass when every edge lies in at most two
    triangles, and otherwise reduce the triangle columns in key order.
    """
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported degree {k}; supported: {SUPPORTED_DEGREES}")
    ls = _LowerStar(complex, values)
    return _diagram(k, *(ls.dgm0, ls.dgm1, ls.dgm2)[k]())


def lower_star_filtration(complex: SimplicialComplex, f) -> Filtration:
    """Filtration where each simplex enters at the max of its vertex values.

    Simplices come in the lower-star order of :func:`lower_star_diagram`:
    vertices ranked by (value, index), simplices sorted by their vertex
    ranks, largest first, so each vertex is followed directly by its lower
    star and every face comes before its cofaces.  ``f`` is a
    :class:`VertexFunction` or an array of finite values.
    """
    ls = _LowerStar(complex, f)
    n = complex.n_vertices
    key = np.vstack([ls.key(np.arange(n)[:, None]), ls.key(complex.edges), ls.key(complex.triangles)])
    order = np.lexsort(key.T)
    rows = ([(v,) for v in range(n)] + [tuple(e) for e in complex.edges.tolist()]
            + [tuple(t) for t in complex.triangles.tolist()])
    return Filtration(tuple([rows[i] for i in order.tolist()]), ls.values[ls.order[key[order, 2]]],
                      _validate=False)


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

    edges = ordinals(epos, 2)
    return vpos, epos, tpos, edges, _face_rows(edges, ordinals(tpos, 3), len(vpos))


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
    return _diagram(k, values[births], values[deaths], values[essentials])


def compute_pairing(filtration: Filtration) -> PersistencePairing:
    """Full simplex pairing of a filtration across degrees 0-2."""
    pairs: list[tuple[int, int]] = []
    essentials: list[tuple[int, int]] = []
    for k, (births, deaths, ess) in _filtration_pairs(filtration, SUPPORTED_DEGREES).items():
        pairs.extend(zip(births.tolist(), deaths.tolist()))
        essentials.extend((i, k) for i in ess.tolist())
    return PersistencePairing(tuple(sorted(pairs)), tuple(sorted(essentials)))
