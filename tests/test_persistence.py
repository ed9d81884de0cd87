import math

import numpy as np
import pytest

from cmdist import (
    BiFunction,
    MeshError,
    PersistenceDiagram,
    SimplicialComplex,
    VertexFunction,
    bottleneck_distance,
    cmd_maximize,
    g_value,
    grid_scan,
    lower_star_diagram,
    persistence,
    slice_function,
    slice_grid,
)
from cmdist.jsonio import dumps_canonical

from conftest import get_fixture, random_complex, random_vertex_values, signed_zero_plateaus
from oracles import diagram_multiset, lower_star_simplices, naive_diagrams, points


def _oracle(cx, values):
    """Degree -> diagram of the naive full reduction of the lower-star filtration."""
    expected = naive_diagrams(*lower_star_simplices(cx, values))
    return {k: PersistenceDiagram(k, pairs) for k, pairs in expected.items()}


def _degree0_oracle(cx, values):
    """Degree 0 of :func:`_oracle` on the 1-skeleton, whose degree-0 pairs are the same."""
    skeleton = SimplicialComplex(cx.vertices, cx.edges, np.empty((0, 3), dtype=np.int64))
    return _oracle(skeleton, values)[0]


def _bit_rows(dgm):
    """Finite rows and essential births as sorted bit patterns, so -0.0 and 0.0 differ."""
    return (sorted(map(tuple, dgm.finite.view(np.int64).tolist())),
            sorted(dgm.essential.view(np.int64).tolist()))


def test_unsupported_degree():
    cx, f = get_fixture("cone", 16)
    values = f.at(0.3)
    for k in (3, -1, 1.5):
        with pytest.raises(ValueError, match="degree"):
            lower_star_diagram(cx, values, k)
    # a degree equal to a supported one is kept as that plain int, so it serializes
    expected = lower_star_diagram(cx, values, 1)
    for k in (True, np.int64(1), 1.0):
        got = lower_star_diagram(cx, values, k)
        assert got == expected and type(got.degree) is int, k
        assert dumps_canonical(got.to_json()) == dumps_canonical(expected.to_json()), k


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_lower_star_values_are_rejected(bad):
    cx, f = get_fixture("cone", 16)
    values = f.at(0.3)
    values[5] = bad
    for k in (0, 1, 2):
        with pytest.raises(MeshError, match="finite"):
            lower_star_diagram(cx, values, k)


def test_misshaped_lower_star_values_are_rejected():
    # a column would broadcast the degree-0 edge comparison to edges x edges
    cx, f = get_fixture("cone", 16)
    values = f.at(0.3)
    for bad in (values[:, None], np.column_stack([values, values]), np.float64(0.5), values[:-1]):
        for k in (0, 1, 2):
            with pytest.raises(MeshError, match="1-D array with one entry per vertex"):
                lower_star_diagram(cx, bad, k)


def _significant(dgm, threshold=0.05):
    return [
        (p.birth, p.death)
        for p in points(dgm)
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


def _disjoint_union(rng):
    """Two random complexes side by side plus up to three isolated vertices."""
    a, b = random_complex(rng), random_complex(rng)
    n_isolated = int(rng.integers(0, 4))
    vertices = np.vstack([a.vertices, b.vertices, rng.normal(size=(n_isolated, 3))])
    shift = a.n_vertices
    return SimplicialComplex(vertices, np.vstack([a.edges, b.edges + shift]),
                             np.vstack([a.triangles, b.triangles + shift]))


def _bare_vertices(n, edges=()):
    """n vertices and the given edges, no triangles: one-vertex, empty and isolated-vertex complexes."""
    return SimplicialComplex(np.zeros((n, 3)), np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                             np.empty((0, 3), dtype=np.int64))


def test_degree0_basin_kernel_matches_union_find_on_random_complexes():
    rng = np.random.default_rng(31)
    zrng = np.random.default_rng(33)  # apart from ``rng``, so the trials stay as they were
    cases = []
    for trial in range(120):
        cx = _disjoint_union(rng) if trial % 2 else random_complex(rng)
        values = random_vertex_values(rng, cx.n_vertices, ties=trial % 3 != 0)
        if trial % 5 == 0:
            values = np.round(values)  # plateaus: many equal vertex values
        cases += [(trial, cx, values), (trial, cx, signed_zero_plateaus(zrng, values))]
    for n, edges in ((0, ()), (1, ()), (6, ()), (6, [(1, 4), (2, 4)])):
        cases += [(f"{n} bare", _bare_vertices(n, edges), v)
                  for v in (zrng.normal(size=n), signed_zero_plateaus(zrng, np.zeros(n)))]
    for trial, cx, values in cases:
        got = lower_star_diagram(cx, values, 0)
        assert _bit_rows(got) == _bit_rows(_degree0_oracle(cx, values)), f"trial {trial}"


def test_degree0_basin_kernel_matches_union_find_on_noisy_fixtures(all_fixture_names):
    rng = np.random.default_rng(37)
    zrng = np.random.default_rng(39)
    for name in all_fixture_names:
        cx, f = get_fixture(name, 32)
        for t in (0.0, 0.35, 1.0):
            smooth = f.at(t)
            noisy = smooth + rng.uniform(-0.1, 0.1, size=len(smooth))
            # rounding to one decimal leaves plateaus, where many joins link the same basins
            for values in (smooth, noisy, np.round(noisy, 2), np.round(noisy, 1),
                           signed_zero_plateaus(zrng, noisy)):
                got = lower_star_diagram(cx, values, 0)
                assert _bit_rows(got) == _bit_rows(_degree0_oracle(cx, values)), (name, t)


def _assert_dual_route(cx, values, label):
    """Degrees 1 and 2 must equal the naive oracle."""
    expected = _oracle(cx, values)
    for k in (1, 2):
        assert lower_star_diagram(cx, values, k) == expected[k], (label, k)


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


def _surfaces_at_size():
    """Torus, annulus and Moebius strip on 16 x 16 and 40 x 40 grids."""
    for n in (16, 40):
        yield f"torus:{n}", _grid_surface(n, n, wrap_rows=True, wrap_cols=True)
        yield f"annulus:{n}", _grid_surface(n, n, wrap_cols=True)
        yield f"moebius:{n}", _grid_surface(n, n, wrap_cols=True, twist=True)


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
    zrng = np.random.default_rng(79)
    for name, cx in _surfaces_at_size():
        normal = rng.normal(size=cx.n_vertices)
        for values in (normal, np.round(normal), signed_zero_plateaus(zrng, normal)):
            _assert_dual_route(cx, values, name)
            counts = tuple(len(lower_star_diagram(cx, values, k).essential) for k in (1, 2))
            assert counts == essentials[name.split(":")[0]], name


def test_dual_route_matches_references_on_fixtures(all_fixture_names):
    rng = np.random.default_rng(47)
    for name in all_fixture_names:
        for resolution in (16, 32):
            cx, f = get_fixture(name, resolution)
            for t in (0.0, 0.3, 0.71, 1.0):
                smooth = f.at(t)
                noisy = smooth + rng.uniform(-0.1, 0.1, size=len(smooth))
                for values in (smooth, noisy, np.round(noisy, 2), np.round(noisy, 1)):
                    _assert_dual_route(cx, values, (name, resolution, t))


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


def _assert_dual_pass_matches_reduction_pass(cx, values, label):
    """Same negative edges, positive-persistence value pairs and degree-2 roots."""
    ls = persistence._LowerStar(cx, values)
    dual, reduction = ls._dual_pass(), ls._reduction_pass()
    assert np.array_equal(np.sort(dual[0]), np.sort(reduction[0])), label
    pairs = []
    for _negative, edges, triangles, _roots in (dual, reduction):
        births, deaths = ls._edge_values(edges), ls._triangle_values(triangles)
        keep = births < deaths
        pairs.append(sorted(zip(births[keep].tolist(), deaths[keep].tolist())))
    assert pairs[0] == pairs[1], label
    assert np.array_equal(np.sort(dual[3]), np.sort(reduction[3])), label
    assert not any(a.flags.writeable for a in cx._dual_arrays), label


def test_dual_pass_matches_reduction_pass():
    rng = np.random.default_rng(59)
    drawn = 0
    while drawn < 80:
        cx = random_complex(rng)
        if len(cx.triangles) == 0 or cx.edge_cofaces is None:
            continue
        values = random_vertex_values(rng, cx.n_vertices, ties=True)
        if drawn % 2:
            values = np.round(values)  # plateaus
        _assert_dual_pass_matches_reduction_pass(cx, values, drawn)
        drawn += 1
    for name in ("cone", "disk", "sphere", "ellipsoid(2,1)"):
        cx, f = get_fixture(name, 16)
        for t in (0.0, 0.3, 1.0):
            noisy = f.at(t) + rng.uniform(-0.1, 0.1, size=cx.n_vertices)
            for values in (f.at(t), noisy, np.round(noisy, 1)):
                _assert_dual_pass_matches_reduction_pass(cx, values, (name, t))


def test_fin_on_cone_matches_naive_reduction():
    """One more triangle on an interior edge of cone:16 and cone:64, so that edge has three."""
    rng = np.random.default_rng(53)
    for resolution in (16, 64):
        cx, f = get_fixture("cone", resolution)
        interior = np.flatnonzero((cx.edge_cofaces >= 0).all(axis=1))
        a, b = cx.edges[interior[len(interior) // 2]]
        fin = SimplicialComplex.from_triangles(np.vstack([cx.vertices, [[0.0, 0.0, 2.0]]]),
                                               np.vstack([cx.triangles, [[a, b, cx.n_vertices]]]))
        assert fin.edge_cofaces is None
        for t in (0.0, 0.3, 1.0):
            smooth = np.append(f.at(t), 0.5)
            noisy = smooth + rng.uniform(-0.1, 0.1, size=len(smooth))
            for values in (smooth, noisy):
                expected = _oracle(fin, values)
                for k in (1, 2):
                    got = lower_star_diagram(fin, values, k)
                    assert _bit_rows(got) == _bit_rows(expected[k]), (resolution, t, k)
                essentials = [len(lower_star_diagram(fin, values, k).essential) for k in (0, 1, 2)]
                assert essentials[0] - essentials[1] + essentials[2] == fin.euler_characteristic()


def _single_basin_inputs():
    """Inputs on which a lower-star pass contracts everything into one basin.

    A single vertex; one edge without a triangle, whose only dual basin is
    the ground node; and plateaus on smooth fixtures: the disk at t = 1/2 is
    constant, so both passes have one basin, and the rounded cone and
    sphere keep one vertex basin.
    """
    no_triangles = np.empty((0, 3), dtype=np.int64)
    vertex = SimplicialComplex(np.zeros((1, 3)), np.empty((0, 2), dtype=np.int64), no_triangles)
    edge = SimplicialComplex(np.zeros((2, 3)), [[0, 1]], no_triangles)
    yield "vertex", vertex, np.array([2.5])
    yield "edge", edge, np.array([1.0, -1.0])
    for name, t in (("disk", 0.5), ("cone", 0.0), ("sphere", 0.3)):
        cx, f = get_fixture(name, 16)
        yield name, cx, np.round(f.at(t), 1)


def test_all_degrees_match_naive_full_reduction():
    rng = np.random.default_rng(23)
    for trial in range(30):
        cx = random_complex(rng)
        values = random_vertex_values(rng, cx.n_vertices, ties=trial % 3 == 0)
        expected = _oracle(cx, values)
        for k in (0, 1, 2):
            assert lower_star_diagram(cx, values, k) == expected[k], (trial, k)
    for label, cx, values in _single_basin_inputs():
        expected = _oracle(cx, values)
        for k in (0, 1, 2):
            assert lower_star_diagram(cx, values, k) == expected[k], (label, k)


def test_one_basin_returns_before_pointer_jumping(monkeypatch):
    """With one basin nothing can merge, so the passes never reach _basins."""
    pairs = [(get_fixture(a, 16)[1], get_fixture(b, 16)[1])
             for a, b in (("cone", "disk"), ("sphere", "ellipsoid(2,1)"))]
    ts = (0.0, 0.3, 1.0)
    expected = [g_value(f, h, 0, t) for f, h in pairs for t in ts]
    disk, d = get_fixture("disk", 16)
    expected_disk = lower_star_diagram(disk, d.at(0.3), 1)

    def no_pointer_jumping(step, roots):
        raise AssertionError(f"pointer jumping over {len(roots)} basins")

    monkeypatch.setattr(persistence, "_basins", no_pointer_jumping)
    assert [g_value(f, h, 0, t) for f, h in pairs for t in ts] == expected
    # the disk has one dual basin as well, so degree 1 skips both contractions
    assert lower_star_diagram(disk, d.at(0.3), 1) == expected_disk


def test_degree0_never_ranks_the_vertices(monkeypatch):
    """Degree 0 compares values along the edges; only degrees 1-2 rank the vertices."""
    smooth = [(get_fixture(a, 16)[1], get_fixture(b, 16)[1])
              for a, b in (("cone", "disk"), ("sphere", "ellipsoid(2,1)"))]
    rng = np.random.default_rng(53)

    def noisy(f):
        return BiFunction(f.complex, *(VertexFunction(phi.values + rng.uniform(-0.1, 0.1, len(phi)))
                                       for phi in (f.phi1, f.phi2)))

    pairs = smooth + [(noisy(f), noisy(h)) for f, h in smooth]
    ts = (0.0, 0.3, 1.0)

    def degree0():
        return [(grid_scan(f, h, 0, 8).trace, cmd_maximize(f, h, 0, 1e-2).trace,
                 [g_value(f, h, 0, t) for t in ts]) for f, h in pairs]

    # references by the naive reduction, before the ranks are taken away
    diagrams = [[_degree0_oracle(x.complex, x.at(t)) for t in ts] for pair in pairs for x in pair]
    distances = [[bottleneck_distance(a, b) for a, b in zip(*diagrams[i:i + 2])]
                 for i in range(0, len(diagrams), 2)]
    expected = degree0()
    assert [g for *_, g in expected] == distances

    def no_ranks(self):
        raise AssertionError("the vertices were ranked")

    monkeypatch.setattr(persistence._LowerStar, "order", property(no_ranks))
    assert [[_bit_rows(lower_star_diagram(x.complex, x.at(t), 0)) for t in ts]
            for pair in pairs for x in pair] == [[_bit_rows(d) for d in row] for row in diagrams]
    assert degree0() == expected
    cx, f = get_fixture("cone", 16)
    for k in (1, 2):
        with pytest.raises(AssertionError, match="ranked"):
            lower_star_diagram(cx, f.at(0.3), k)


def _small_surfaces():
    return {
        "torus": _grid_surface(4, 5, wrap_rows=True, wrap_cols=True),
        "annulus": _grid_surface(3, 5, wrap_cols=True),
        "moebius": _grid_surface(3, 5, wrap_cols=True, twist=True),
        "pinched": _pinched_disks(),
    }


def test_euler_poincare_count_equals_degree1_essentials():
    """beta_0 + beta_2 - chi, with beta_2 from the triangle pass, is the full reduction's count."""
    rng = np.random.default_rng(61)
    cases = [(trial, random_complex(rng)) for trial in range(120)]
    cases += list(_small_surfaces().items())
    routes = set()
    for label, cx in cases:
        routes.add("dual" if cx.edge_cofaces is not None else "fallback")
        for values in (rng.normal(size=cx.n_vertices), np.round(rng.normal(size=cx.n_vertices))):
            expected = _oracle(cx, values)
            full = [len(expected[k].essential) for k in (0, 1)]
            roots = persistence._LowerStar(cx, values)._triangle_pass()[3]
            assert cx._betti0 == full[0], label
            assert cx._betti0 + len(roots) - cx.euler_characteristic() == full[1], label
            assert len(lower_star_diagram(cx, values, 1).essential) == full[1], label
    assert routes == {"dual", "fallback"}


def test_degree1_runs_the_forward_pass_only_with_1_cycles(monkeypatch):
    """Disk, cone and sphere have no 1-cycles; torus, annulus and Moebius strip do."""
    rng = np.random.default_rng(67)
    inputs = []
    for name in ("disk", "cone", "sphere"):
        cx, f = get_fixture(name, 16)
        for t in (0.0, 0.3, 1.0):
            smooth = f.at(t)
            for values in (smooth, smooth + rng.uniform(-0.1, 0.1, len(smooth))):
                inputs.append(((name, t), cx, values))
    expected = [_oracle(cx, values)[1] for _, cx, values in inputs]
    cycles = {name: cx for name, cx in _small_surfaces().items() if name != "pinched"}
    for cx in [cx for _, cx, _ in inputs] + list(cycles.values()):
        assert cx._betti0 == 1  # kept by the complex, counted by degree 0 before the patch
    forward = persistence._LowerStar._forward

    def no_forward_pass(self):
        raise AssertionError("forward pass")

    monkeypatch.setattr(persistence._LowerStar, "_forward", no_forward_pass)
    for (label, cx, values), want in zip(inputs, expected):
        assert _bit_rows(lower_star_diagram(cx, values, 1)) == _bit_rows(want), label
    for name, cx in cycles.items():
        with pytest.raises(AssertionError, match="forward pass"):
            lower_star_diagram(cx, rng.normal(size=cx.n_vertices), 1)

    # with 1-cycles, degree 1 runs the one forward pass exactly once
    calls = []

    def counted(self):
        calls.append(1)
        return forward(self)

    monkeypatch.setattr(persistence._LowerStar, "_forward", counted)
    for name, cx in cycles.items():
        values = rng.normal(size=cx.n_vertices)
        want = _oracle(cx, values)[1]
        calls.clear()
        assert _bit_rows(lower_star_diagram(cx, values, 1)) == _bit_rows(want), name
        assert len(calls) == 1, name


def test_disk_degrees_1_and_2_never_rank_the_vertices(monkeypatch):
    """On a disk the ground node is the only dual basin, so nothing needs ranks."""
    cx, f = get_fixture("disk", 16)
    inputs = [f.at(t) for t in (0.0, 0.3, 1.0)]
    inputs += [slice_function(f, s).values for s in slice_grid(3, 3)]
    expected = [[_bit_rows(_oracle(cx, values)[k]) for k in (1, 2)] for values in inputs]

    def no_ranks(self):
        raise AssertionError("the vertices were ranked")

    monkeypatch.setattr(persistence._LowerStar, "order", property(no_ranks))
    got = [[_bit_rows(lower_star_diagram(cx, values, k)) for k in (1, 2)] for values in inputs]
    assert got == expected


def test_degree1_never_ranks_the_vertices_on_annuli(monkeypatch):
    """Height-like values on an annulus: degree 1 counts its essentials without ranks."""
    inputs = []
    for rows, cols in ((8, 12), (20, 30)):
        cx = _grid_surface(rows, cols, wrap_cols=True)
        row, col = np.divmod(np.arange(cx.n_vertices), cols)
        inputs.append(((rows, cols), cx, row + 0.1 * np.cos(2 * np.pi * col / cols)))
    expected = [_bit_rows(_oracle(cx, values)[1]) for _, cx, values in inputs]

    def no_ranks(self):
        raise AssertionError("the vertices were ranked")

    monkeypatch.setattr(persistence._LowerStar, "order", property(no_ranks))
    for (label, cx, values), want in zip(inputs, expected):
        got = lower_star_diagram(cx, values, 1)
        assert len(got.essential) == 1, label
        assert _bit_rows(got) == want, label


def test_degrees_1_and_2_keep_the_bits_of_signed_zeros():
    """Births and deaths are the bytes of the later vertex value, -0.0 and 0.0 apart."""
    rng = np.random.default_rng(71)
    zrng = np.random.default_rng(73)
    cases = []
    for name in ("cone", "disk", "sphere", "ellipsoid(2,1)"):
        cx, f = get_fixture(name, 16)
        cases += [((name, t), cx, f.at(t)) for t in (0.0, 0.3, 1.0)]
    cases += [(name, cx, rng.normal(size=cx.n_vertices)) for name, cx in _small_surfaces().items()]
    for trial in range(40):
        cx = random_complex(rng)
        cases.append((trial, cx, rng.normal(size=cx.n_vertices)))
    for name, cx in _surfaces_at_size():
        normal = rng.normal(size=cx.n_vertices)
        cases += [(name, cx, normal), (name, cx, np.round(normal))]
    for label, cx, values in cases:
        values = signed_zero_plateaus(zrng, values)
        expected = _oracle(cx, values)
        for k in (1, 2):
            got = _bit_rows(lower_star_diagram(cx, values, k))
            assert got == _bit_rows(expected[k]), (label, k)


def test_sphere64_matches_naive_reduction(sphere64):
    cx, f = sphere64
    for t in (0.0, 0.3, 1.0):
        values = f.at(t)
        expected = _oracle(cx, values)
        for k in (0, 1, 2):
            assert _bit_rows(lower_star_diagram(cx, values, k)) == _bit_rows(expected[k]), (t, k)


def test_euler_consistency_on_fixtures(all_fixture_names):
    for name in all_fixture_names:
        cx, f = get_fixture(name, 32)
        values = f.at(0.3)
        essentials = [
            sum(p.multiplicity for p in points(lower_star_diagram(cx, values, k))
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
        for p in points(lower_star_diagram(cx, values, k)):
            assert p.birth in allowed
            if math.isfinite(p.death):
                assert p.death in allowed
