import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from cmdist import (
    BiFunction,
    Filtration,
    MeshError,
    SimplicialComplex,
    VertexFunction,
    fixture,
    load_complex,
    lower_star_filtration,
    save_complex,
)

from conftest import get_fixture, random_complex, random_vertex_values


def write_minimal_off(tmp_path, off_text, values_text):
    mesh = tmp_path / "mesh.off"
    values = tmp_path / "values.csv"
    mesh.write_text(off_text)
    values.write_text(values_text)
    return mesh, values


SINGLE_TRIANGLE_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


def test_single_triangle_off(tmp_path):
    mesh, values = write_minimal_off(tmp_path, SINGLE_TRIANGLE_OFF, "0,0\n1,1\n2,2\n")
    cx, f = load_complex(mesh, values)
    assert cx.n_vertices == 3
    assert len(cx.edges) == 3
    assert len(cx.triangles) == 1
    assert f.phi1.values.tolist() == [0.0, 1.0, 2.0]
    assert f.phi2.values.tolist() == [0.0, 1.0, 2.0]


def test_vertex_count_mismatch(tmp_path):
    mesh, values = write_minimal_off(tmp_path, SINGLE_TRIANGLE_OFF, "0,0\n1,1\n")
    with pytest.raises(MeshError, match="mismatch"):
        load_complex(mesh, values)


def test_non_finite_values_rejected(tmp_path):
    mesh, values = write_minimal_off(tmp_path, SINGLE_TRIANGLE_OFF, "0,0\n1,inf\n2,2\n")
    with pytest.raises(MeshError, match="finite"):
        load_complex(mesh, values)


def test_malformed_off_header(tmp_path):
    mesh, values = write_minimal_off(tmp_path, "NOFF\n3 1 0\n", "0,0\n")
    with pytest.raises(MeshError, match="header"):
        load_complex(mesh, values)


def test_truncated_vertex_section(tmp_path):
    mesh, values = write_minimal_off(tmp_path, "OFF\n3 1 0\n0 0 0\n", "0,0\n0,0\n0,0\n")
    with pytest.raises(MeshError, match="truncated"):
        load_complex(mesh, values)


def test_face_with_bad_index(tmp_path):
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n"
    mesh, values = write_minimal_off(tmp_path, text, "0,0\n0,0\n0,0\n")
    with pytest.raises(MeshError, match="out of range"):
        load_complex(mesh, values)


def test_unsupported_face_arity(tmp_path):
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n4 0 1 2 3\n"
    mesh, values = write_minimal_off(tmp_path, text, "0,0\n" * 4)
    with pytest.raises(MeshError, match="arity"):
        load_complex(mesh, values)


def test_explicit_edges_are_kept(tmp_path):
    text = "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n2 2 2\n3 0 1 2\n2 0 3\n"
    mesh, values = write_minimal_off(tmp_path, text, "0,0\n" * 4)
    cx, _ = load_complex(mesh, values)
    assert (0, 3) in {tuple(e) for e in cx.edges.tolist()}
    assert len(cx.edges) == 4


def test_save_load_round_trip_is_bit_identical(tmp_path):
    cx, f = fixture("cone", 64)
    mesh, values = tmp_path / "cone.off", tmp_path / "cone.csv"
    save_complex(mesh, values, cx, f)
    cx2, f2 = load_complex(mesh, values)
    assert np.array_equal(cx.vertices, cx2.vertices)
    assert np.array_equal(cx.edges, cx2.edges)
    assert np.array_equal(cx.triangles, cx2.triangles)
    assert np.array_equal(f.phi1.values, f2.phi1.values)
    assert np.array_equal(f.phi2.values, f2.phi2.values)
    mesh2, values2 = tmp_path / "cone2.off", tmp_path / "cone2.csv"
    save_complex(mesh2, values2, cx2, f2)
    assert mesh.read_bytes() == mesh2.read_bytes()
    assert values.read_bytes() == values2.read_bytes()


def test_complex_invariants_enforced():
    verts = np.zeros((3, 3))
    with pytest.raises(MeshError, match="missing from edge set"):
        SimplicialComplex(verts, np.empty((0, 2), np.int64), np.array([[0, 1, 2]]))
    with pytest.raises(MeshError, match="duplicate"):
        SimplicialComplex(verts, np.array([[0, 1], [1, 0]]), np.empty((0, 3), np.int64))
    with pytest.raises(MeshError, match="degenerate"):
        SimplicialComplex(verts, np.array([[1, 1]]), np.empty((0, 3), np.int64))


def test_duplicates_are_found_after_sorting_rows():
    verts = np.zeros((4, 3))
    edges = np.array([[0, 1], [1, 2], [0, 2], [2, 3], [1, 3]])
    with pytest.raises(MeshError, match="duplicate triangles"):
        SimplicialComplex(verts, edges, np.array([[0, 1, 2], [1, 2, 3], [2, 0, 1]]))
    with pytest.raises(MeshError, match="duplicate edges"):
        SimplicialComplex(verts, np.vstack([edges, [[3, 2]]]), np.empty((0, 3), np.int64))


def test_first_missing_face_is_named():
    verts = np.zeros((6, 3))
    # faces go missing in both triangles; the first triangle in array order is
    # named, at its first missing face in the order (a, b), (a, c), (b, c)
    edges = np.array([[3, 4], [0, 1]])
    with pytest.raises(MeshError, match=r"triangle face \(3, 5\) missing"):
        SimplicialComplex(verts, edges, np.array([[5, 4, 3], [0, 1, 2]]))
    with pytest.raises(MeshError, match=r"triangle face \(0, 2\) missing"):
        SimplicialComplex(verts, np.vstack([edges, [[3, 5], [4, 5]]]), np.array([[5, 4, 3], [0, 1, 2]]))


def _reference_validation_error(n, edges, triangles):
    """The first broken invariant, found with tuples and a set, or None."""
    edges = [tuple(sorted(e)) for e in edges]
    triangles = [tuple(sorted(t)) for t in triangles]
    for name, rows in (("edge", edges), ("triangle", triangles)):
        if any(i < 0 or i >= n for row in rows for i in row):
            return f"{name} references a vertex index out of range"
        if any(len(set(row)) < len(row) for row in rows):
            return f"degenerate {name} with a repeated vertex"
    if len(set(edges)) != len(edges):
        return "duplicate edges"
    if len(set(triangles)) != len(triangles):
        return "duplicate triangles"
    edge_set = set(edges)
    for a, b, c in triangles:
        for face in ((a, b), (a, c), (b, c)):
            if face not in edge_set:
                return f"triangle face {face} missing from edge set"
    return None


def test_validation_matches_a_set_reference():
    rng = np.random.default_rng(23)
    for _ in range(400):
        n = int(rng.integers(3, 10))
        triangles = np.array([rng.permutation(n)[:3] for _ in range(int(rng.integers(0, 6)))]).reshape(-1, 3)
        edges = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]],
                           rng.integers(0, n, size=(int(rng.integers(0, 4)), 2))])
        if rng.random() < 0.7:
            edges = np.unique(np.sort(edges, axis=1), axis=0)
        edges = edges[rng.random(len(edges)) < 0.9]
        if rng.random() < 0.3 and len(triangles):
            triangles = np.vstack([triangles, triangles[-1:, ::-1]])
        expected = _reference_validation_error(n, edges.tolist(), triangles.tolist())
        try:
            SimplicialComplex(np.zeros((n, 3)), edges, triangles)
            got = None
        except MeshError as exc:
            got = str(exc)
        assert got == expected


def test_vertex_indices_above_two_to_the_21():
    # with n = 2**22 vertices the codes a*n*n + b*n + c of these two triangles
    # differ by 2**20 * n * n = 2**64, so int64 codes of whole triangles would collide
    n = 2 ** 22
    verts = np.zeros((n, 3))  # zero pages: the validation reads them without committing memory
    tris = np.array([[1, n - 2, n - 1], [1 + 2 ** 20, n - 2, n - 1]])
    cx = SimplicialComplex.from_triangles(verts, tris)
    assert len(cx.triangles) == 2 and len(cx.edges) == 5
    assert np.array_equal(cx.edges[cx.triangle_edges[:, 0]], tris[:, :2])
    with pytest.raises(MeshError, match="duplicate triangles"):
        SimplicialComplex(verts, cx.edges, tris[[0, 1, 0]])
    with pytest.raises(MeshError, match=rf"triangle face \(1, {n - 1}\) missing"):
        SimplicialComplex(verts, np.delete(cx.edges, 1, axis=0), tris)


def test_bifunction_requires_matching_lengths():
    cx = random_complex(np.random.default_rng(0))
    good = VertexFunction(np.zeros(cx.n_vertices))
    bad = VertexFunction(np.zeros(cx.n_vertices + 1))
    with pytest.raises(MeshError, match="mismatch"):
        BiFunction(cx, good, bad)


# --- lower-star filtration ------------------------------------------------


def triangle_complex():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    return SimplicialComplex.from_triangles(verts, [(0, 1, 2)])


def test_lower_star_values_on_triangle():
    cx = triangle_complex()
    filt = lower_star_filtration(cx, VertexFunction([0.0, 1.0, 2.0]))
    value_of = dict(zip(filt.simplices, filt.values.tolist()))
    assert value_of[(0, 1)] == 1.0
    assert value_of[(0, 2)] == 2.0
    assert value_of[(1, 2)] == 2.0
    assert value_of[(0, 1, 2)] == 2.0


def test_lower_star_plateau_order():
    cx = triangle_complex()
    filt = lower_star_filtration(cx, VertexFunction([0.0, 0.0, 0.0]))
    assert np.all(filt.values == 0.0)
    # deterministic order: later max vertex index enters later
    assert filt.simplices == ((0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2))


def test_lower_star_order_follows_each_vertex_with_its_lower_star():
    # vertices ranked by (value, index): 2, 0, 1; each simplex keyed by its
    # vertex ranks, largest first, so a vertex comes right before its lower star
    cx = triangle_complex()
    filt = lower_star_filtration(cx, VertexFunction([1.0, 1.0, 0.0]))
    assert filt.simplices == ((2,), (0,), (0, 2), (1,), (1, 2), (0, 1), (0, 1, 2))
    assert filt.values.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]


def test_lower_star_is_valid_filtration_on_random_input():
    rng = np.random.default_rng(7)
    for ties in (False, True):
        for _ in range(10):
            cx = random_complex(rng)
            f = VertexFunction(random_vertex_values(rng, cx.n_vertices, ties=ties))
            filt = lower_star_filtration(cx, f)
            # re-validate the full invariant set (construction skips it for speed)
            Filtration(filt.simplices, filt.values)


def test_cone_height_range():
    cx, f = get_fixture("cone", 64)
    filt = lower_star_filtration(cx, VertexFunction(0.5 * (f.phi1.values + f.phi2.values)))
    assert filt.values.min() == 0.0
    assert filt.values.max() == 1.0


# --- fixtures ---------------------------------------------------------------


def test_disk_lies_in_antidiagonal_plane():
    _, f = get_fixture("disk", 64)
    assert np.all(f.phi1.values + f.phi2.values == 0.0)


def test_cone_apex_value():
    _, f = get_fixture("cone", 64)
    assert (1.0, 1.0) in set(zip(f.phi1.values.tolist(), f.phi2.values.tolist()))


def test_sphere_min_x():
    _, f = get_fixture("sphere", 64)
    assert abs(f.phi1.values.min() - (-1.0)) <= 2.0 / 64 ** 2


def test_ellipsoid_degenerate_parameters_match_sphere():
    cs, _ = get_fixture("sphere", 16)
    ce, _ = get_fixture("ellipsoid(1,1)", 16)
    assert np.array_equal(cs.vertices, ce.vertices)
    assert np.array_equal(cs.triangles, ce.triangles)


def test_fixture_rejects_bad_input():
    with pytest.raises(MeshError, match="unknown fixture"):
        fixture("torus", 32)
    with pytest.raises(MeshError, match="resolution"):
        fixture("cone", 4)
    with pytest.raises(MeshError, match="positive"):
        fixture("ellipsoid(-1,1)", 32)


def test_euler_characteristics():
    assert get_fixture("cone", 32)[0].euler_characteristic() == 1
    assert get_fixture("disk", 32)[0].euler_characteristic() == 1
    assert get_fixture("sphere", 32)[0].euler_characteristic() == 2
    assert get_fixture("ellipsoid(2,1)", 32)[0].euler_characteristic() == 2


def _hausdorff_to_vertex_set(resolution: int) -> float:
    # fixed dense sample of the unit sphere vs the mesh vertex set
    n = 4096
    i = np.arange(n)
    golden = math.pi * (3 - math.sqrt(5))
    y = 1 - 2 * (i + 0.5) / n
    r = np.sqrt(1 - y * y)
    pts = np.column_stack([r * np.cos(golden * i), y, r * np.sin(golden * i)])
    cx, _ = get_fixture("sphere", resolution)
    dist, _ = cKDTree(cx.vertices).query(pts)
    return float(dist.max())


def test_sphere_refinement_shrinks_hausdorff_distance():
    h16 = _hausdorff_to_vertex_set(16)
    h32 = _hausdorff_to_vertex_set(32)
    h64 = _hausdorff_to_vertex_set(64)
    assert h16 > h32 > h64
