"""Triangulated 2-complexes, vertex data and built-in surfaces.

A complex is a plain container of vertex positions, edges and triangles,
closed under taking faces and immutable after construction.  Scalar data
lives in :class:`VertexFunction`, a pair of scalar fields in
:class:`BiFunction`.  Meshes are exchanged as ASCII OFF files plus a
two-column values file aligned with the vertex order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_MIN_RESOLUTION = 8


class MeshError(ValueError):
    """Raised for malformed mesh/values input or broken complex invariants."""


_FACE_LO, _FACE_HI = [0, 0, 1], [1, 2, 2]  # columns of a sorted triangle's faces (a, b), (a, c), (b, c)


def _first(keys: np.ndarray, queries: np.ndarray):
    """Place in ``keys`` of the first key equal to each query, -1 for none; and the repeated keys.

    The repeats are the places of the keys equal to an earlier one.
    """
    by_key = np.argsort(keys, kind="stable")
    srt = keys[by_key]
    at = np.append(by_key, -1)[np.searchsorted(srt, queries)]
    return np.where(np.append(keys, -1)[at] == queries, at, -1), by_key[1:][srt[1:] == srt[:-1]]


def _sorted_columns(rows: np.ndarray) -> list[np.ndarray]:
    """Columns of rows of two or three entries, each row sorted ascending, by compare-swaps.

    See :func:`cmdist.persistence.simplex_values` on work over short rows.
    """
    cols = list(rows.T)
    for i, j in ((0, 1), (1, 2), (0, 1)) if len(cols) == 3 else ((0, 1),):
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    return cols


@dataclass(frozen=True)
class SimplicialComplex:
    """Triangle mesh: vertex positions plus edge and triangle index arrays.

    Rows of ``edges``/``triangles`` are sorted ascending, the arrays are
    duplicate-free, and every edge of every triangle is present.
    ``triangle_edges`` holds the rows of ``edges`` that are each triangle's
    faces (a, b), (a, c), (b, c); validation finds them, and they are
    read-only, so evaluations on several threads can share them.
    """

    vertices: np.ndarray   # (nv, 3) float64
    edges: np.ndarray      # (ne, 2) int64, rows sorted
    triangles: np.ndarray  # (nt, 3) int64, rows sorted
    triangle_edges: np.ndarray = field(init=False, repr=False, compare=False)  # (nt, 3)

    def __post_init__(self):
        vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")
        ecols, tcols = _sorted_columns(edges), _sorted_columns(triangles)
        edges, triangles = np.column_stack(ecols), np.column_stack(tcols)
        n = len(vertices)
        for name, cols in (("edge", ecols), ("triangle", tcols)):
            if len(cols[0]) and (cols[0].min() < 0 or cols[-1].max() >= n):
                raise MeshError(f"{name} references a vertex index out of range")
            if any(np.any(lo == hi) for lo, hi in zip(cols, cols[1:])):
                raise MeshError(f"degenerate {name} with a repeated vertex")
        (a, b, c), ab = tcols, tcols[0] * n + tcols[1]
        triangle_edges, repeats = _first(ecols[0] * n + ecols[1], np.column_stack([ab, a * n + c, b * n + c]))
        if len(repeats):
            raise MeshError("duplicate edges")
        srt = np.lexsort((c, ab))
        ab, c = ab[srt], c[srt]
        if np.any((ab[1:] == ab[:-1]) & (c[1:] == c[:-1])):
            raise MeshError("duplicate triangles")
        missing = np.flatnonzero(triangle_edges.ravel() < 0)  # by triangle, then face
        if len(missing):
            t, j = divmod(int(missing[0]), 3)
            face = (int(triangles[t, _FACE_LO[j]]), int(triangles[t, _FACE_HI[j]]))
            raise MeshError(f"triangle face {face} missing from edge set")
        triangle_edges.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "triangle_edges", triangle_edges)

    @classmethod
    def from_triangles(cls, vertices, triangles, extra_edges=()) -> "SimplicialComplex":
        """Build a complex whose edge set is the triangle edges plus ``extra_edges``."""
        a, b, c = _sorted_columns(np.asarray(triangles, dtype=np.int64).reshape(-1, 3))
        d, e = _sorted_columns(np.asarray(extra_edges, dtype=np.int64).reshape(-1, 2))
        lo, hi, n = np.concatenate([a, a, b, d]), np.concatenate([b, c, c, e]), len(vertices)
        if len(lo) and lo.min() >= 0 and hi.max() < n:  # out-of-range rows fail validation
            codes = np.sort(lo * n + hi)  # np.unique takes a slower hash path on int64
            lo, hi = np.divmod(codes[np.append(True, codes[1:] != codes[:-1])], n)
        return cls(np.asarray(vertices, dtype=np.float64), np.column_stack([lo, hi]),
                   np.column_stack([a, b, c]))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.triangles)

    @cached_property
    def edge_cofaces(self) -> np.ndarray | None:
        """(ne, 2) the triangles on each edge, padded with -1; None if an edge has three or more."""
        flat = self.triangle_edges.ravel()
        if len(flat) and np.bincount(flat).max() > 2:
            return None
        srt = np.argsort(flat, kind="stable")
        e, t = flat[srt], srt // 3
        second = np.zeros(len(e), dtype=bool)
        second[1:] = e[1:] == e[:-1]
        out = np.full((len(self.edges), 2), -1, dtype=np.int64)
        out[e[~second], 0] = t[~second]
        out[e[second], 1] = t[second]
        out.flags.writeable = False
        return out

    @cached_property
    def _betti0(self) -> int:
        """Number of connected components: the essential classes of degree-0
        persistence of a constant function, whose pass ranks nothing."""
        from .persistence import _LowerStar  # persistence imports this module

        return len(_LowerStar(self, np.zeros(len(self.vertices))).dgm0()[2])

    @cached_property
    def _dual_arrays(self):
        """Read-only dual-pass arrays, given :attr:`edge_cofaces`: the triangle vertex
        columns, the triangle edge columns, the coface columns padded with the ground
        node ``len(triangles)``, their sum."""
        nt = len(self.triangles)
        cof = [np.where(c < 0, nt, c) for c in self.edge_cofaces.T]
        out = (*(np.ascontiguousarray(c) for c in (*self.triangles.T, *self.triangle_edges.T)),
               *cof, cof[0] + cof[1])
        for a in out:
            a.flags.writeable = False
        return out


@dataclass(frozen=True)
class VertexFunction:
    """One finite real value per vertex, in vertex order."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64)).reshape(-1)
        if not np.all(np.isfinite(values)):
            raise MeshError("vertex function values must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class BiFunction:
    """A pair of vertex functions on one complex, the source of the t-family.

    ``at(t)`` returns the vertexwise combination ``(1-t)*phi1 + t*phi2``.
    """

    complex: SimplicialComplex
    phi1: VertexFunction
    phi2: VertexFunction

    def __post_init__(self):
        n = self.complex.n_vertices
        if len(self.phi1) != n or len(self.phi2) != n:
            raise MeshError(
                f"component length mismatch: complex has {n} vertices, "
                f"components have {len(self.phi1)} and {len(self.phi2)}"
            )

    def at(self, t: float) -> np.ndarray:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t={t} outside [0, 1]")
        return (1.0 - t) * self.phi1.values + t * self.phi2.values


# ---------------------------------------------------------------------------
# Built-in analytic surfaces, all carrying the plane-valued map (x, z).


def _phi_xz(complex: SimplicialComplex) -> BiFunction:
    v = complex.vertices
    return BiFunction(complex, VertexFunction(v[:, 0]), VertexFunction(v[:, 2]))


def _base_circle(sectors: int) -> np.ndarray:
    """Points of the circle of radius sqrt(2) about the origin in the plane x + z = 0."""
    theta = 2.0 * np.pi * np.arange(sectors) / sectors
    x = np.cos(theta)
    return np.column_stack([x, math.sqrt(2.0) * np.sin(theta), -x])


def _fan(center: int, first: int, sectors: int) -> np.ndarray:
    """Triangles (center, first + j, first + j + 1) around a ring of ``sectors`` vertices."""
    j = np.arange(sectors, dtype=np.int64)
    return np.column_stack([np.full(sectors, center, dtype=np.int64), first + j,
                            first + (j + 1) % sectors])


def _strips(rings: int, sectors: int) -> np.ndarray:
    """Two triangles per quad between consecutive rings, the first ring starting at vertex 1.

    Ring by ring and sector by sector, quad (a, b, b', a') between ring
    starts a and b gives (a, b, b') and (a, b', a').
    """
    j = np.arange(sectors, dtype=np.int64)
    jn = (j + 1) % sectors
    a = 1 + sectors * np.arange(rings - 1, dtype=np.int64)[:, None]
    b = a + sectors
    return np.stack([a + j, b + j, b + jn, a + j, b + jn, a + jn], axis=-1).reshape(-1, 3)


def _radial_triangulation(apex: np.ndarray, rings: int, sectors: int, ring_point) -> tuple[np.ndarray, np.ndarray]:
    """Fan-plus-quads triangulation of a surface ruled from ``apex`` to a circle.

    ``ring_point(k)`` returns the (sectors, 3) vertex ring at level k in 1..rings;
    rings follow the level sets of linear data along the rulings.
    """
    verts = [apex.reshape(1, 3)]
    for k in range(1, rings + 1):
        verts.append(ring_point(k))
    return np.vstack(verts), np.vstack([_fan(0, 1, sectors), _strips(rings, sectors)])


def _cone(resolution: int):
    apex = np.array([1.0, 0.0, 1.0])
    rings = max(3, resolution // 2)
    circle = _base_circle(resolution)

    def ring(k):
        rho = k / rings
        # convex form keeps the base ring bit-identical to the circle (rho = 1)
        return (1.0 - rho) * apex + rho * circle

    return _radial_triangulation(apex, rings, resolution, ring)


def _disk(resolution: int):
    center = np.zeros(3)
    rings = max(3, resolution // 2)
    circle = _base_circle(resolution)

    def ring(k):
        return (k / rings) * circle

    return _radial_triangulation(center, rings, resolution, ring)


def _uv_sphere(resolution: int, a: float = 1.0, c: float = 1.0):
    """Latitude/longitude sphere with poles on the y-axis, scaled to an ellipsoid.

    The equator lies in the plane y = 0, where the extrema of every
    combination (1-t)x + tz live, and contains the angle pi exactly so the
    minimum of x over the vertices is exact.
    """
    sectors = resolution + (resolution % 2)
    lat = max(3, (resolution // 2) | 1)  # odd count keeps the equator a vertex ring
    theta = 2.0 * np.pi * np.arange(sectors) / sectors
    verts = [np.array([[0.0, 1.0, 0.0]])]
    for i in range(1, lat + 1):
        beta = np.pi * i / (lat + 1)
        ring = np.column_stack([
            a * np.sin(beta) * np.cos(theta),
            np.full(sectors, np.cos(beta)),
            c * np.sin(beta) * np.sin(theta),
        ])
        verts.append(ring)
    verts.append(np.array([[0.0, -1.0, 0.0]]))
    vertices = np.vstack(verts)
    south = len(vertices) - 1
    # the two polar fans interleaved, sector by sector
    poles = np.stack([_fan(0, 1, sectors), _fan(south, south - sectors, sectors)], axis=1)
    return vertices, np.vstack([poles.reshape(-1, 3), _strips(lat, sectors)])


_ELLIPSOID_RE = re.compile(r"^ellipsoid\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")


def parse_fixture_name(name: str) -> tuple[str, tuple[float, ...]]:
    """Split a fixture identifier into a family and numeric parameters."""
    name = name.strip()
    if name in ("cone", "disk", "sphere"):
        return name, ()
    m = _ELLIPSOID_RE.match(name)
    if m:
        try:
            a, c = float(m.group(1)), float(m.group(2))
        except ValueError as exc:
            raise MeshError(f"bad ellipsoid parameters in {name!r}") from exc
        if a <= 0 or c <= 0:
            raise MeshError("ellipsoid semi-axes must be positive")
        return "ellipsoid", (a, c)
    raise MeshError(f"unknown fixture {name!r}")


def fixture(name: str, resolution: int) -> tuple[SimplicialComplex, BiFunction]:
    """Built-in surface with the vertex map (x, z).

    ``name`` is one of ``cone`` (apex (1, 0, 1) over the radius-sqrt(2)
    circle in the plane x + z = 0), ``disk`` (the flat disk bounded by the
    same circle), ``sphere`` (unit), or ``ellipsoid(a,c)`` for
    x^2/a^2 + y^2 + z^2/c^2 = 1.
    """
    family, params = parse_fixture_name(name)
    if resolution < _MIN_RESOLUTION:
        raise MeshError(f"resolution {resolution} below minimum {_MIN_RESOLUTION}")
    if family == "cone":
        vertices, tris = _cone(resolution)
    elif family == "disk":
        vertices, tris = _disk(resolution)
    elif family == "sphere":
        vertices, tris = _uv_sphere(resolution)
    else:
        vertices, tris = _uv_sphere(resolution, *params)
    cx = SimplicialComplex.from_triangles(vertices, tris)
    return cx, _phi_xz(cx)


# ---------------------------------------------------------------------------
# OFF + values I/O.


def _format_float(x: float) -> str:
    return repr(float(x))


def save_complex(mesh_path, values_path, complex: SimplicialComplex, f: BiFunction) -> None:
    """Write an ASCII OFF file and the two-column values file beside it."""
    lines = ["OFF", f"{complex.n_vertices} {len(complex.triangles)} {len(complex.edges)}"]
    for row in complex.vertices:
        lines.append(" ".join(_format_float(x) for x in row))
    for row in complex.triangles:
        lines.append("3 " + " ".join(str(int(i)) for i in row))
    with open(mesh_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(values_path, "w") as fh:
        for a, b in zip(f.phi1.values, f.phi2.values):
            fh.write(f"{_format_float(a)},{_format_float(b)}\n")


def _off_tokens(path):
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                yield line.split()


def load_complex(path, values_path) -> tuple[SimplicialComplex, BiFunction]:
    """Read an OFF triangle mesh and its aligned two-column values file.

    Face rows of arity 3 are triangles; arity 2 rows add explicit edges.
    The edge set of the result is the union of triangle edges and explicit
    edges, so the complex is closed under faces by construction.
    """
    tok = _off_tokens(path)
    try:
        header = next(tok)
    except StopIteration:
        raise MeshError(f"{path}: empty OFF file") from None
    counts = None
    if header[0] != "OFF":
        raise MeshError(f"{path}: missing OFF header")
    if len(header) > 1:
        counts = header[1:]
    if counts is None:
        try:
            counts = next(tok)
        except StopIteration:
            raise MeshError(f"{path}: missing counts line") from None
    if len(counts) < 2:
        raise MeshError(f"{path}: malformed counts line")
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except ValueError:
        raise MeshError(f"{path}: malformed counts line") from None
    verts = []
    for _ in range(nv):
        try:
            row = next(tok)
        except StopIteration:
            raise MeshError(f"{path}: truncated vertex section") from None
        if len(row) < 3:
            raise MeshError(f"{path}: vertex line with fewer than 3 coordinates")
        try:
            verts.append([float(row[0]), float(row[1]), float(row[2])])
        except ValueError:
            raise MeshError(f"{path}: non-numeric vertex coordinate") from None
    tris, extra_edges = [], []
    for _ in range(nf):
        try:
            row = next(tok)
        except StopIteration:
            raise MeshError(f"{path}: truncated face section") from None
        try:
            arity = int(row[0])
            idx = [int(x) for x in row[1:1 + arity]]
        except ValueError:
            raise MeshError(f"{path}: non-numeric face line") from None
        if len(idx) != arity:
            raise MeshError(f"{path}: face line shorter than its arity")
        if arity == 3:
            tris.append(idx)
        elif arity == 2:
            extra_edges.append(idx)
        else:
            raise MeshError(f"{path}: unsupported face arity {arity} (triangle meshes only)")
    vertices = np.asarray(verts, dtype=np.float64)
    if not np.all(np.isfinite(vertices)):
        raise MeshError(f"{path}: non-finite vertex coordinate")
    tri_arr = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    complex = SimplicialComplex.from_triangles(vertices, tri_arr, extra_edges)

    rows = []
    with open(values_path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            parts = [p for p in re.split(r"[,\s]+", line) if p]
            if len(parts) != 2:
                raise MeshError(f"{values_path}:{ln}: expected two columns, got {len(parts)}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise MeshError(f"{values_path}:{ln}: non-numeric value") from None
    if len(rows) != complex.n_vertices:
        raise MeshError(
            f"vertex count mismatch: mesh has {complex.n_vertices} vertices, "
            f"values file has {len(rows)} rows"
        )
    data = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise MeshError(f"{values_path}: non-finite value")
    return complex, BiFunction(complex, VertexFunction(data[:, 0]), VertexFunction(data[:, 1]))
