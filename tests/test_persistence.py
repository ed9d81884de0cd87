import itertools
import math

import numpy as np
import pytest

from cmdist import (
    Filtration,
    MeshError,
    SimplicialComplex,
    VertexFunction,
    compute_pairing,
    compute_persistence,
    lower_star_diagram,
    lower_star_filtration,
)

from conftest import get_fixture, random_complex, random_vertex_values
from oracles import diagram_multiset, naive_diagrams, naive_pairing


def test_single_vertex_is_one_essential_component():
    filt = Filtration(((0,),), np.array([2.5]))
    dgm = compute_persistence(filt, 0)
    assert diagram_multiset(dgm) == [(2.5, math.inf)]


def test_unsupported_degree():
    filt = Filtration(((0,),), np.array([0.0]))
    with pytest.raises(ValueError, match="degree"):
        compute_persistence(filt, 3)


def test_tetrahedron_filtration_is_rejected():
    simplices = tuple(s for d in range(1, 5) for s in itertools.combinations(range(4), d))
    filt = Filtration(simplices, np.arange(len(simplices), dtype=float))
    for k in (0, 1, 2):
        with pytest.raises(ValueError, match="dimension > 2"):
            compute_persistence(filt, k)
    with pytest.raises(ValueError, match="dimension > 2"):
        compute_pairing(filt)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_lower_star_values_are_rejected(bad):
    cx, f = get_fixture("cone", 16)
    values = f.at(0.3)
    values[5] = bad
    for k in (0, 1, 2):
        with pytest.raises(MeshError, match="finite"):
            lower_star_diagram(cx, values, k)
    with pytest.raises(MeshError, match="finite"):
        lower_star_filtration(cx, values)


def _significant(dgm, threshold=0.05):
    return [
        (p.birth, p.death)
        for p in dgm.points
        if not math.isfinite(p.death) or p.death - p.birth > threshold
    ]


def test_cone_degree1_loop(cone64):
    cx, f = cone64
    dgm = lower_star_diagram(cx, 0.5 * (f.phi1.values + f.phi2.values), 1)
    pts = _significant(dgm)
    assert len(pts) == 1
    b, d = pts[0]
    assert abs(b - 0.0) <= 0.05 and abs(d - 1.0) <= 0.05


def test_disk_degree0_single_component(disk64):
    cx, f = disk64
    dgm = lower_star_diagram(cx, np.maximum(f.phi1.values, f.phi2.values), 0)
    pts = _significant(dgm)
    assert len(pts) == 1
    assert pts[0][1] == math.inf and abs(pts[0][0]) <= 0.05


def test_cone_degree0_two_components(cone64):
    cx, f = cone64
    dgm = lower_star_diagram(cx, np.maximum(f.phi1.values, f.phi2.values), 0)
    pts = sorted(_significant(dgm), key=lambda p: p[1])
    assert len(pts) == 2
    assert abs(pts[0][0]) <= 0.05 and abs(pts[0][1] - 1.0) <= 0.05
    assert abs(pts[1][0]) <= 0.05 and pts[1][1] == math.inf


def _hand_built_filtration(rng):
    """Random filtration that :func:`lower_star_filtration` never produces.

    Vertex ids are sparse, every simplex lists its vertices in one scrambled
    order, a simplex enters at or after its last face, and simplices of
    equal value, vertices included, come in random order.
    """
    cx = random_complex(rng)
    n = cx.n_vertices
    ids = np.sort(rng.choice(1000, size=n, replace=False))
    listed = rng.permutation(n)
    rows = ([(v,) for v in range(n)] + [tuple(e) for e in cx.edges.tolist()]
            + [tuple(t) for t in cx.triangles.tolist()])
    key = {}
    for s in rows:  # faces come before their cofaces in ``rows``
        if len(s) == 1:
            value, after = float(np.round(rng.normal())), 0.0
        else:
            faces = [key[s[:j] + s[j + 1:]] for j in range(len(s))]
            value = max(f[0] for f in faces) + float(rng.choice([0.0, 0.0, 0.5]))
            after = max(f[1] for f in faces)
        key[s] = (value, after + rng.random())
    rows.sort(key=key.__getitem__)
    simplices = tuple(tuple(int(ids[v]) for v in sorted(s, key=listed.__getitem__)) for s in rows)
    return Filtration(simplices, [key[s][0] for s in rows])


def test_union_find_equals_reduction_on_random_filtrations():
    rng = np.random.default_rng(11)
    for trial in range(60):
        filt = _hand_built_filtration(rng)
        expected = naive_diagrams(filt)
        for k in (0, 1, 2):
            got = diagram_multiset(compute_persistence(filt, k))
            assert got == expected[k], (trial, k)


def test_pairing_matches_naive_reduction():
    two_vertices = Filtration(((1,), (0,), (0, 1)), [0.0, 0.0, 1.0])
    pairing = compute_pairing(two_vertices)
    assert (pairing.pairs, pairing.essentials) == naive_pairing(two_vertices) == (((1, 2),), ((0, 0),))
    rng = np.random.default_rng(13)
    for trial in range(60):
        filt = _hand_built_filtration(rng)
        pairing = compute_pairing(filt)
        assert (pairing.pairs, pairing.essentials) == naive_pairing(filt), trial


def _full_edge_union_find(cx, values):
    """Degree 0 by the elder-rule union-find over every edge in filtration order."""
    return diagram_multiset(compute_persistence(lower_star_filtration(cx, values), 0))


def _degree0_oracle(cx, values):
    skeleton = SimplicialComplex(cx.vertices, cx.edges, np.empty((0, 3), dtype=np.int64))
    return naive_diagrams(lower_star_filtration(skeleton, VertexFunction(values)))[0]


def _disjoint_union(rng):
    """Two random complexes side by side plus up to three isolated vertices."""
    a, b = random_complex(rng), random_complex(rng)
    n_isolated = int(rng.integers(0, 4))
    vertices = np.vstack([a.vertices, b.vertices, rng.normal(size=(n_isolated, 3))])
    shift = a.n_vertices
    return SimplicialComplex(vertices, np.vstack([a.edges, b.edges + shift]),
                             np.vstack([a.triangles, b.triangles + shift]))


def test_degree0_basin_kernel_matches_union_find_on_random_complexes():
    rng = np.random.default_rng(31)
    for trial in range(120):
        cx = _disjoint_union(rng) if trial % 2 else random_complex(rng)
        values = random_vertex_values(rng, cx.n_vertices, ties=trial % 3 != 0)
        if trial % 5 == 0:
            values = np.round(values)  # plateaus: many equal vertex values
        got = diagram_multiset(lower_star_diagram(cx, values, 0))
        assert got == _full_edge_union_find(cx, values), f"trial {trial}"
        assert got == _degree0_oracle(cx, values), f"trial {trial}"


def test_degree0_basin_kernel_matches_union_find_on_noisy_fixtures(all_fixture_names):
    rng = np.random.default_rng(37)
    for name in all_fixture_names:
        cx, f = get_fixture(name, 32)
        for t in (0.0, 0.35, 1.0):
            smooth = f.at(t)
            noisy = smooth + rng.uniform(-0.1, 0.1, size=len(smooth))
            for values in (smooth, noisy, np.round(noisy, 2)):
                got = diagram_multiset(lower_star_diagram(cx, values, 0))
                assert got == _full_edge_union_find(cx, values), (name, t)
                assert got == _degree0_oracle(cx, values), (name, t)


def _assert_dual_route(cx, values, label, oracle=True):
    """Degrees 1 and 2 must equal the explicit-filtration route and the naive oracle."""
    filt = lower_star_filtration(cx, VertexFunction(values))
    expected = naive_diagrams(filt) if oracle else None
    for k in (1, 2):
        got = diagram_multiset(lower_star_diagram(cx, values, k))
        assert got == diagram_multiset(compute_persistence(filt, k)), (label, k)
        if oracle:
            assert got == expected[k], (label, k)


def _grid_surface(rows, cols, wrap_rows=False, wrap_cols=False, twist=False):
    """Triangulated rows x cols grid of vertices, opposite sides optionally glued.

    Gluing the columns gives an annulus, or a Moebius strip with ``twist``;
    gluing rows as well gives a torus.
    """
    def vid(i, j):
        if j == cols:
            i, j = (rows - 1 - i if twist else i), 0
        return (i % rows) * cols + j

    triangles = []
    for i in range(rows if wrap_rows else rows - 1):
        for j in range(cols if wrap_cols else cols - 1):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            triangles += [(a, b, c), (a, c, d)]
    return SimplicialComplex.from_triangles(np.zeros((rows * cols, 3)), triangles)


def _pinched_disks():
    """Two square disks sharing one vertex, plus an edge to a vertex of its own."""
    disk = _grid_surface(3, 3).triangles
    other = np.where(disk == 0, 8, disk + 8)  # vertex 0 of the second disk is vertex 8
    return SimplicialComplex.from_triangles(np.zeros((18, 3)), np.vstack([disk, other]),
                                            [(4, 17)])


def test_dual_route_on_small_surfaces():
    rng = np.random.default_rng(43)
    surfaces = {
        "torus": _grid_surface(4, 5, wrap_rows=True, wrap_cols=True),
        "annulus": _grid_surface(3, 5, wrap_cols=True),
        "moebius": _grid_surface(3, 5, wrap_cols=True, twist=True),
        "pinched": _pinched_disks(),
    }
    essentials = {"torus": (2, 1), "annulus": (1, 0), "moebius": (1, 0), "pinched": (0, 0)}
    for name, cx in surfaces.items():
        assert cx.edge_cofaces is not None, name
        for trial in range(40):
            values = rng.normal(size=cx.n_vertices)
            if trial % 4 == 1:
                values = np.round(values)  # plateaus
            elif trial % 4 == 2:
                values = np.zeros(cx.n_vertices)
            _assert_dual_route(cx, values, (name, trial))
            counts = tuple(sum(1 for p in lower_star_diagram(cx, values, k).expanded()
                               if math.isinf(p[1])) for k in (1, 2))
            assert counts == essentials[name], (name, trial)


def test_dual_route_matches_references_on_fixtures(all_fixture_names):
    rng = np.random.default_rng(47)
    for name in all_fixture_names:
        for resolution in (16, 32):
            cx, f = get_fixture(name, resolution)
            for t in (0.0, 0.3, 0.71, 1.0):
                smooth = f.at(t)
                noisy = smooth + rng.uniform(-0.1, 0.1, size=len(smooth))
                for values in (smooth, noisy, np.round(noisy, 2)):
                    _assert_dual_route(cx, values, (name, resolution, t),
                                       oracle=resolution == 16)


def test_dual_route_and_fallback_on_random_complexes():
    rng = np.random.default_rng(41)
    routes = set()
    for trial in range(120):
        cx = random_complex(rng)
        values = random_vertex_values(rng, cx.n_vertices, ties=trial % 3 != 0)
        if trial % 5 == 0:
            values = np.round(values)
        routes.add("no triangles" if len(cx.triangles) == 0
                   else "dual" if cx.edge_cofaces is not None else "fallback")
        _assert_dual_route(cx, values, trial)
    assert routes == {"no triangles", "dual", "fallback"}


def test_fin_on_cone_matches_naive_reduction():
    """One more triangle on an interior edge of cone:16, so that edge has three."""
    cx, f = get_fixture("cone", 16)
    interior = np.flatnonzero((cx.edge_cofaces >= 0).all(axis=1))
    a, b = cx.edges[interior[len(interior) // 2]]
    fin = SimplicialComplex.from_triangles(np.vstack([cx.vertices, [[0.0, 0.0, 2.0]]]),
                                           np.vstack([cx.triangles, [[a, b, cx.n_vertices]]]))
    assert fin.edge_cofaces is None
    rng = np.random.default_rng(53)
    for t in (0.0, 0.3, 1.0):
        smooth = np.append(f.at(t), 0.5)
        noisy = smooth + rng.uniform(-0.1, 0.1, size=len(smooth))
        for values in (smooth, noisy):
            _assert_dual_route(fin, values, t)
            essentials = [sum(1 for p in lower_star_diagram(fin, values, k).expanded()
                              if math.isinf(p[1])) for k in (0, 1, 2)]
            assert essentials[0] - essentials[1] + essentials[2] == fin.euler_characteristic()


def test_all_degrees_match_naive_full_reduction():
    rng = np.random.default_rng(23)
    for trial in range(30):
        cx = random_complex(rng)
        values = random_vertex_values(rng, cx.n_vertices, ties=trial % 3 == 0)
        filt = lower_star_filtration(cx, VertexFunction(values))
        expected = naive_diagrams(filt)
        for k in (0, 1, 2):
            got = diagram_multiset(compute_persistence(filt, k))
            assert got == expected[k], f"degree {k} mismatch on trial {trial}"


def test_fast_path_matches_filtration_path(sphere64):
    cx, f = sphere64
    for k in (0, 1, 2):
        for t in (0.0, 0.3, 1.0):
            values = f.at(t)
            via_filtration = compute_persistence(
                lower_star_filtration(cx, VertexFunction(values)), k
            )
            direct = lower_star_diagram(cx, values, k)
            assert diagram_multiset(via_filtration) == diagram_multiset(direct)


def test_euler_consistency_on_fixtures(all_fixture_names):
    for name in all_fixture_names:
        cx, f = get_fixture(name, 32)
        values = f.at(0.3)
        essentials = [
            sum(p.multiplicity for p in lower_star_diagram(cx, values, k).points
                if not math.isfinite(p.death))
            for k in (0, 1, 2)
        ]
        assert essentials[0] - essentials[1] + essentials[2] == cx.euler_characteristic()


def test_shift_by_constant_shifts_coordinates_exactly(cone64):
    cx, f = cone64
    values = f.at(0.3)
    shift = 0.25
    for k in (0, 1):
        base = diagram_multiset(lower_star_diagram(cx, values, k))
        moved = diagram_multiset(lower_star_diagram(cx, values + shift, k))
        assert len(base) == len(moved)
        for (b0, d0), (b1, d1) in zip(base, moved):
            assert b1 == b0 + shift
            assert d1 == (d0 + shift if math.isfinite(d0) else math.inf)


def test_every_finite_coordinate_is_a_vertex_value(sphere64):
    cx, f = sphere64
    values = f.at(0.7)
    allowed = set(values.tolist())
    for k in (0, 1, 2):
        for p in lower_star_diagram(cx, values, k).points:
            assert p.birth in allowed
            if math.isfinite(p.death):
                assert p.death in allowed


def test_pairing_invariants():
    rng = np.random.default_rng(5)
    for _ in range(15):
        cx = random_complex(rng)
        values = random_vertex_values(rng, cx.n_vertices)
        filt = lower_star_filtration(cx, VertexFunction(values))
        pairing = compute_pairing(filt)
        seen = set()
        for i, j in pairing.pairs:
            assert len(filt.simplices[j]) == len(filt.simplices[i]) + 1
            assert filt.values[i] <= filt.values[j]
            for idx in (i, j):
                assert idx not in seen
                seen.add(idx)
        for idx, degree in pairing.essentials:
            assert idx not in seen
            seen.add(idx)
            assert len(filt.simplices[idx]) == degree + 1
        assert len(seen) == len(filt)
