"""Lower-star filtrations and their persistence in degrees 0, 1 and 2.

This module alone decides the lower-star order: the vertices are ranked by
(value, index), and every simplex is keyed by the ranks of its vertices,
largest first, padded so that faces come before cofaces.  Each vertex is
then followed directly by its lower star.  The passes below run in this
order; it is a linear extension of the filtration by value, so the diagrams
are those of any other.

The forward pass contracts every vertex into the basin of a local minimum:
each vertex points at an earlier neighbour, and pointer jumping takes it to
the minimum at the end of that descending path.  The path lies in every
sublevel set that holds the vertex, so a basin is connected as soon as it
appears, and the elder-rule union-find runs only over the edges that join
two basins.  Degree 0 needs no ranks: comparing values gives each edge's
earlier end, and the minima are the vertices that are no edge's later end.
With one minimum, as on the smooth built-in surfaces, nothing merges and no
sort, pointer jumping or union-find runs.  The same pass serves degree 1,
which needs only how many lower edges of each vertex are negative, a number
that does not depend on the order of the pass.

Degrees 1 and 2 add the same contraction on the dual graph in reverse
order: the triangles plus a ground node, the oldest, for the missing coface
of a boundary edge.  Each triangle dies at its leading edge, the face
without its lowest vertex, except the older of two triangles that share it;
the union-find runs over the first of the other edges that join each pair
of dual basins, and is skipped in the same way when the ground node's is
the only dual basin.  The finite degree-1 points are the dual merges (a
triangle and its leading edge enter together, so those pairs are only
marked negative), the degree-1 essentials the lower edges of each vertex
negative in neither pass, counted and born at its value, and the degree-2
essentials the dual roots other than the ground node.  The lowest vertices
come from comparing values, as in degree 0, and only triangles that share a
leading edge are compared to find the roots; the vertices are ranked only
to order the roots and the joins, so a disk, whose ground node is the only
dual basin, is never ranked.  The number of degree-1 essential classes is
beta_0 + beta_2 - chi, with beta_2 from the dual pass and beta_0 kept by
the complex; when it is zero, as on a disk, a cone or a sphere, the forward
pass does not run.  The complex keeps the dual arrays that do not depend on
values.  This needs every edge in at most two triangles; on other complexes
the triangle boundary columns, in key order, are reduced over the
two-element field instead.  Columns are packed into Python integers, so the
XOR of two columns is a single big-int operation.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .complexes import MeshError, SimplicialComplex, VertexFunction
from .diagram import PersistenceDiagram

SUPPORTED_DEGREES = (0, 1, 2)


def _merge(n_nodes, edge_u, edge_v):
    """Elder-rule union-find over nodes numbered oldest first, for :func:`_basin_merges`.

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
        if (nxt == step).all():
            break
        step = nxt
    number = np.empty(len(step), dtype=np.int64)
    number[roots] = np.arange(len(roots))
    return number[step]


def _basin_merges(step, roots, u, v, order):
    """Elder-rule merges of the basins of ``step`` along the edges (u, v).

    ``step`` and ``roots`` are as in :func:`_basins`, ``u`` and ``v`` hold the
    end nodes of every edge, and ``order(edges)`` returns the given edges in
    filtration order.  The union-find runs over the basins and the edges
    that join two of them, in that order.  Only the first join between two
    basins can merge them, so the later ones are dropped before it.  With
    one basin every edge lies inside it, so nothing merges and the single
    root survives: that case returns at once, without pointer jumping.
    Returns the dying basins, the edges that merge them, and the surviving
    basins, basins as places in ``roots``.
    """
    if len(roots) == 1:
        none = np.empty(0, dtype=np.int64)
        return none, none, np.zeros(1, dtype=np.int64)
    basin = _basins(step, roots)
    bu, bv = basin[u], basin[v]
    joins = order(np.flatnonzero(bu != bv))
    bu, bv = bu[joins], bv[joins]
    _, first = np.unique(np.minimum(bu, bv) * len(roots) + np.maximum(bu, bv), return_index=True)
    first.sort()
    dying, at, left = _merge(len(roots), bu[first], bv[first])
    return dying, joins[first[at]], left


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
    return PersistenceDiagram._from_arrays(k, births[keep], deaths[keep], essential_births)


def simplex_values(values: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Largest vertex value of each row of ``simplices``.

    Column-wise ``np.maximum``.  On rows of length 2 or 3, ``max``, ``min``,
    ``argmin``, ``sort`` and ``diff`` with ``axis=1`` are several times
    slower than the same work done column by column (compare-swaps for a
    sort), as here, in the dual pass and in mesh construction.
    """
    out = values[simplices[:, 0]]
    for c in range(1, simplices.shape[1]):
        np.maximum(out, values[simplices[:, c]], out=out)
    return out


def _padded(rows: np.ndarray) -> np.ndarray:
    """Rows of one to three entries left-padded with -1 to three columns."""
    return np.pad(rows, ((0, 0), (3 - rows.shape[1], 0)), constant_values=-1)


class _LowerStar:
    """Lower-star persistence of one (complex, values) pair, degree by degree.

    The forward and dual passes compare values and rank nothing they need
    not order.  The vertices are ranked by (value, index) on first use, and
    simplices are ordered by :meth:`key`, their vertex ranks largest first,
    faces first.
    """

    def __init__(self, complex: SimplicialComplex, values):
        self.complex = complex
        values = values.values if isinstance(values, VertexFunction) else values
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.shape != (complex.n_vertices,):
            raise MeshError("vertex function values must be a 1-D array with one entry per vertex")
        if not np.isfinite(self.values).all():
            raise MeshError("vertex function values must be finite")

    @cached_property
    def order(self):
        return np.argsort(self.values, kind="stable")

    @cached_property
    def rank(self):
        rank = np.empty(len(self.values), dtype=np.int64)
        rank[self.order] = np.arange(len(rank))
        return rank

    def key(self, simplices: np.ndarray) -> np.ndarray:
        """(len, 3) key of each row: its vertex ranks ascending, left-padded with -1.

        ``np.lexsort(key.T)`` sorts rows by their largest rank, then the next.
        A face comes before its cofaces, since leaving out a vertex lowers or
        pads some place of the key and raises none, and every vertex is
        followed directly by its lower star.
        """
        return _padded(np.sort(self.rank[simplices], axis=1))

    def _edge_values(self, idx):
        """Value of each given edge, that of its later end.

        Edge rows ascend, so ``values[e0] <= values[e1]`` picks the later end
        in the (value, index) order; ``where`` keeps the bytes of a signed
        zero, which ``np.maximum`` of -0.0 and 0.0 may not.
        """
        v0, v1 = self.values.take(self.complex.edges.take(idx, axis=0)).T
        return np.where(v0 <= v1, v1, v0)

    def _edge_key(self, idx):
        """Distinct integer of each given edge, hi * n + lo, that sorts them in key order.

        ``hi`` and ``lo`` are the ranks of the edge's later and earlier end,
        gathered for the given edges only.
        """
        r0, r1 = (self.rank[c[idx]] for c in self.complex.edges.T)
        return np.maximum(r0, r1) * len(self.values) + np.minimum(r0, r1)

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
        joins; pointer jumping finds these dual basins, and
        :func:`_basin_merges` runs the union-find over the edges that join
        them, in reverse key order.  A pointing triangle (w, a, b) and its
        leading edge (w, a) both enter at f(w): the edge is negative, but the
        pair has zero persistence, so it is not gathered.

        The lowest vertex b comes from comparing values, not ranks: the
        vertex columns ascend by index, so a strict comparison that keeps
        the earlier column on a tie is the comparison of ranks.  The prefix
        (w, a) is the leading edge, so only the two cofaces of an edge that
        leads both are compared: the one whose lowest vertex is younger
        comes later in key order and is the root.  A triangle whose leading
        edge leads no other triangle is never a root; it dies at that edge,
        joined to the coface across it or to the ground node.  With no
        shared leading edge the ground node is the only dual basin, nothing
        merges, and the pass returns before ranking the vertices; otherwise
        the ranks, which order the roots and the joins, also decide each
        pair.  Returns the
        negative edges, the (edge, triangle) pairs of the dual merges, and
        the triangles left as roots.
        """
        cx, values = self.complex, self.values
        t0, t1, t2, ab, ac, bc, cof0, cof1, cofsum = cx._dual_arrays
        v0, v1 = values[t0], values[t1]
        second = v1 < v0
        third = values[t2] < np.minimum(v0, v1)
        lead = np.where(third, ab, np.where(second, ac, bc))  # the face without the lowest vertex
        pairs = np.flatnonzero(np.bincount(lead, minlength=len(cx.edges)) == 2)
        if not len(pairs):  # the ground node's is the only dual basin
            none = np.empty(0, dtype=np.int64)
            return lead, none, none, none
        # of the two cofaces of a shared leading edge, the one with the younger
        # lowest vertex is the root; ranks order the roots, so they decide here too
        low = np.where(third, t2, np.where(second, t1, t0))
        tri, mate = cof0[pairs], cof1[pairs]
        tri_low, mate_low = self.rank[low[tri]], self.rank[low[mate]]
        roots = np.where(mate_low < tri_low, tri, mate)
        # the ground node, then the other roots oldest first: latest in key order,
        # which is (leading edge, the root's lowest vertex)
        nt, node = len(t0), np.arange(len(t0))
        roots = np.append(nt, roots[np.lexsort((np.maximum(tri_low, mate_low),
                                                self._edge_key(pairs)))[::-1]])
        step = np.append(cofsum[lead] - node, nt)  # a triangle is a coface of its leading edge
        step[roots] = roots
        pointing = step[:-1] != node
        # a pointing triangle shares its basin with the coface across its
        # leading edge, so the joins never include a leading edge
        dying, merges, left = _basin_merges(step, roots, cof0, cof1,
                                            lambda e: e[np.argsort(-self._edge_key(e))])
        return np.concatenate([lead[pointing], merges]), merges, roots[dying], roots[left[1:]]

    def _reduction_pass(self):
        """Degrees 1-2 on any complex: the triangle columns reduced in key order.

        Rows are the edges in key order.  Returns what :meth:`_dual_pass`
        does: the negative edges, the (edge, triangle) pairs, here all of
        them, and the triangles whose columns reduce to zero.
        """
        cx = self.complex
        edge_at = np.lexsort(self.key(cx.edges).T)
        row = np.empty_like(edge_at)
        row[edge_at] = np.arange(len(edge_at))
        tri_at = np.lexsort(self.key(cx.triangles).T)
        pivots, paired, zero = _reduce_bit_columns(row[cx.triangle_edges[tri_at]])
        return edge_at[pivots], edge_at[pivots], tri_at[paired], tri_at[zero]

    def _triangle_pass(self):
        if self.complex.edge_cofaces is None:  # an edge in three or more triangles
            return self._reduction_pass()
        return self._dual_pass()

    def _triangle_values(self, idx):
        return simplex_values(self.values, self.complex.triangles[idx])

    def _forward(self):
        """The forward pass without ranks, yet that of the (value, index) order.

        Edge rows ascend, so ``values[e0] <= values[e1]`` gives each edge's
        earlier end in that order.  Any earlier neighbour keeps each basin
        connected in every sublevel set that holds its vertices.  The joins
        run in key order, except among those that share their later vertex:
        they enter together at its value, and merging a set of components at
        once kills all but the oldest whatever the order, so the (birth,
        death) pairs are the same.  Returns each edge's later end ``hi``, the
        minima oldest first, and the :func:`_basin_merges` result or, with
        at most one minimum, when nothing merges, ``None``.
        """
        values = self.values
        e0, e1 = self.complex.edges.T
        first = values[e0] <= values[e1]
        hi = np.where(first, e1, e0)
        minima = np.flatnonzero(np.bincount(hi, minlength=len(values)) == 0)
        if len(minima) <= 1:
            return hi, minima, None
        lo = np.where(first, e0, e1)
        step = np.arange(len(values))
        step[hi] = lo  # a repeated index keeps one of its values, each an earlier neighbour
        minima = minima[np.argsort(values[minima], kind="stable")]

        def by_later_end(joins):  # (value, index) of the later end, by quicksorts
            joins = joins[np.argsort(values[hi[joins]])]
            later, at = hi[joins], values[hi[joins]]
            tied = at[1:] == at[:-1]
            if np.any(tied & (later[1:] != later[:-1])):  # the index orders tied vertices
                joins = joins[np.argsort(np.cumsum(np.append(0, ~tied)) * len(values) + later)]
            return joins

        return hi, minima, _basin_merges(step, minima, lo, hi, by_later_end)

    # dgm0, dgm1 and dgm2 return the births and deaths of the finite pairs
    # and the births of the essential classes
    def dgm0(self):
        values = self.values
        hi, minima, merged = self._forward()
        if merged is None:
            return np.empty(0), np.empty(0), values[minima]
        dying, merges, left = merged
        return values[minima[dying]], values[hi[merges]], values[minima[left]]

    def dgm1(self):
        """Degree 1: the dual merges, and essential births counted per vertex.

        The finite points are the triangle pass's pairs alone.  The number of
        essential classes is beta_1 = beta_0 + beta_2 - chi, since
        chi = beta_0 - beta_1 + beta_2 holds over any field, and it is the
        same for every filtration of the complex: beta_2 is the number of
        triangles left as roots, and the complex keeps beta_0.  When it is
        zero, as on a disk, a cone or a sphere, the forward pass is skipped.
        Otherwise let v have L(v) lower edges, D(v) of them triangle-paired,
        and lower neighbours in m(v) distinct earlier components.  In any
        order of v's lower star, exactly m(v) of its edges are negative in
        the forward pass: (L(v) > 0) plus the merges at v.  In key order
        these, the triangle-paired and the essential edges partition the
        lower star, so L(v) - m(v) - D(v) essentials are born at f(v).
        """
        negative, pair_edges, pair_tris, roots = self._triangle_pass()
        finite = self._edge_values(pair_edges), self._triangle_values(pair_tris)
        cx = self.complex
        if cx._betti0 + len(roots) == cx.euler_characteristic():
            return (*finite, np.empty(0))
        hi, _, merged = self._forward()
        n = len(self.values)
        lower = np.bincount(hi, minlength=n)
        paired = negative if merged is None else np.concatenate([negative, merged[1]])
        count = lower - (lower > 0) - np.bincount(hi[paired], minlength=n)
        return (*finite, np.repeat(self.values, count))

    def dgm2(self):
        *_, roots = self._triangle_pass()
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
    k = SUPPORTED_DEGREES.index(k)  # a plain int: True, 1.0 and np.int64(1) give 1
    ls = _LowerStar(complex, values)
    return _diagram(k, *(ls.dgm0, ls.dgm1, ls.dgm2)[k]())
