"""Triangulated 2-complexes, vertex data, explicit filtrations and built-in surfaces.

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

Simplex = tuple[int, ...]

_MIN_RESOLUTION = 8


class MeshError(ValueError):
    """Raised for malformed mesh/values input or broken complex invariants."""


_FACE_LO, _FACE_HI = [0, 0, 1], [1, 2, 2]  # columns of a sorted triangle's faces (a, b), (a, c), (b, c)


def _face_rows(edges: np.ndarray, triangles: np.ndarray, n: int) -> np.ndarray:
    """(nt, 3) rows of ``edges`` holding each sorted triangle's faces, or -1 where one is missing.

    Rows of both arrays are sorted and the edges are distinct; faces are
    matched by the edge code ``a*n + b``.
    """
    codes = edges[:, 0] * n + edges[:, 1]
    faces = triangles[:, _FACE_LO] * n + triangles[:, _FACE_HI]
    by_code = np.append(np.argsort(codes), -1)
    rows = by_code[np.searchsorted(codes, faces, sorter=by_code[:-1])]
    return np.where(np.append(codes, -1)[rows] == faces, rows, -1)


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
        edges = np.sort(edges, axis=1)
        triangles = np.sort(triangles, axis=1)
        n = len(vertices)
        for name, arr in (("edge", edges), ("triangle", triangles)):
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise MeshError(f"{name} references a vertex index out of range")
            if arr.size and np.any(np.diff(arr, axis=1) == 0):
                raise MeshError(f"degenerate {name} with a repeated vertex")
        codes = np.sort(edges[:, 0] * n + edges[:, 1])
        if np.any(codes[1:] == codes[:-1]):
            raise MeshError("duplicate edges")
        rows = triangles[np.lexsort(triangles.T[::-1])]
        if np.any((rows[1:] == rows[:-1]).all(axis=1)):
            raise MeshError("duplicate triangles")
        triangle_edges = _face_rows(edges, triangles, n)
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
        triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        triangles = np.sort(triangles, axis=1)
        pieces = [triangles[:, [0, 1]], triangles[:, [0, 2]], triangles[:, [1, 2]]]
        if len(extra_edges):
            pieces.append(np.sort(np.asarray(extra_edges, dtype=np.int64).reshape(-1, 2), axis=1))
        edges, n = np.vstack(pieces), len(vertices)
        if edges.size and edges.min() >= 0 and edges.max() < n:  # out-of-range rows fail validation
            edges = np.column_stack(np.divmod(np.unique(edges[:, 0] * n + edges[:, 1]), n))
        return cls(np.asarray(vertices, dtype=np.float64), edges, triangles)

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


@dataclass(frozen=True)
class Filtration:
    """Simplices in a linear extension of the face order, with nondecreasing values."""

    simplices: tuple[Simplex, ...]
    values: np.ndarray
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64)).reshape(-1)
        object.__setattr__(self, "values", values)
        if len(values) != len(self.simplices):
            raise MeshError("filtration needs one value per simplex")
        if not self._validate:
            return
        if np.any(np.diff(values) < 0):
            raise MeshError("filtration values must be nondecreasing along the order")
        seen: dict[Simplex, int] = {}
        for i, s in enumerate(self.simplices):
            if s in seen:
                raise MeshError(f"duplicate simplex {s} in filtration")
            if len(s) > 1:
                for j in range(len(s)):
                    face = s[:j] + s[j + 1:]
                    if face not in seen:
                        raise MeshError(f"face {face} of {s} does not precede it")
            seen[s] = i

    def __len__(self) -> int:
        return len(self.simplices)


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


def _radial_triangulation(apex: np.ndarray, rings: int, sectors: int, ring_point) -> tuple[np.ndarray, np.ndarray]:
    """Fan-plus-quads triangulation of a surface ruled from ``apex`` to a circle.

    ``ring_point(k)`` returns the (sectors, 3) vertex ring at level k in 1..rings;
    rings follow the level sets of linear data along the rulings.
    """
    verts = [apex.reshape(1, 3)]
    for k in range(1, rings + 1):
        verts.append(ring_point(k))
    vertices = np.vstack(verts)
    tris = []
    ring_start = lambda k: 1 + (k - 1) * sectors
    for j in range(sectors):
        jn = (j + 1) % sectors
        tris.append((0, ring_start(1) + j, ring_start(1) + jn))
    for k in range(1, rings):
        a, b = ring_start(k), ring_start(k + 1)
        for j in range(sectors):
            jn = (j + 1) % sectors
            tris.append((a + j, b + j, b + jn))
            tris.append((a + j, b + jn, a + jn))
    return vertices, np.asarray(tris, dtype=np.int64)


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
    start = lambda i: 1 + (i - 1) * sectors
    tris = []
    for j in range(sectors):
        jn = (j + 1) % sectors
        tris.append((0, start(1) + j, start(1) + jn))
        tris.append((south, start(lat) + j, start(lat) + jn))
    for i in range(1, lat):
        p, q = start(i), start(i + 1)
        for j in range(sectors):
            jn = (j + 1) % sectors
            tris.append((p + j, q + j, q + jn))
            tris.append((p + j, q + jn, p + jn))
    return vertices, np.asarray(tris, dtype=np.int64)


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
