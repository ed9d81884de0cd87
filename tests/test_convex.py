import math

import numpy as np
import pytest

from cmdist import (
    BiFunction,
    DiagramPoint,
    VertexFunction,
    bottleneck_distance,
    cmd_maximize,
    cmd_via_special_values,
    convex_combination,
    g_value,
    grid_scan,
    lipschitz_constant,
    lower_star_diagram,
    matching_distance_lower_bound,
    matching_distance_scan,
    slice_function,
    slice_grid,
    SlicePoint,
    analytic_contours,
)

from conftest import get_fixture
from oracles import cmd_midpoint_bnb


def perturbed(f: BiFunction, rng, scale: float) -> BiFunction:
    d1 = rng.uniform(-scale, scale, size=len(f.phi1))
    d2 = rng.uniform(-scale, scale, size=len(f.phi2))
    return BiFunction(f.complex, VertexFunction(f.phi1.values + d1),
                      VertexFunction(f.phi2.values + d2))


# --- convex combination -----------------------------------------------------


def test_endpoints_are_exact():
    _, f = get_fixture("cone", 16)
    assert np.array_equal(convex_combination(f, 0.0).values, f.phi1.values)
    assert np.array_equal(convex_combination(f, 1.0).values, f.phi2.values)


def test_combination_out_of_range():
    _, f = get_fixture("cone", 16)
    with pytest.raises(ValueError):
        convex_combination(f, -0.1)
    with pytest.raises(ValueError):
        convex_combination(f, 1.1)


def test_disk_combination_collapses_to_one_component():
    _, f = get_fixture("disk", 32)
    for t in (0.2, 0.5, 0.9):
        expected = (1 - 2 * t) * f.phi1.values
        assert np.allclose(convex_combination(f, t).values, expected, atol=1e-15)


# --- g and its Lipschitz bound ----------------------------------------------


def test_g_examples_from_the_cone_disk_pair(cone64, disk64):
    _, f = cone64
    _, h = disk64
    assert abs(g_value(f, h, 1, 0.5) - 0.5) <= 0.05
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert g_value(f, h, 0, t) <= 0.05
    assert g_value(f, f, 1, 0.3) == 0.0


def test_component_collapse_births_match_analytic_minimum(cone64, disk64):
    # both surfaces: single essential class born at -|1-2t| (minimum of the
    # combination over the rim); the two degree-0 diagrams coincide
    for t in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
        expected_birth = -abs(1 - 2 * t)
        for _, f in (cone64, disk64):
            dgm = lower_star_diagram(f.complex, f.at(t), 0)
            essentials = [p.birth for p in dgm.points if math.isinf(p.death)]
            assert len(essentials) == 1
            assert abs(essentials[0] - expected_birth) <= 0.05


def test_g_values_agree_across_threads(cone64, disk64):
    from concurrent.futures import ThreadPoolExecutor

    _, f = cone64
    _, h = disk64
    ts = [i / 16 for i in range(17)]
    serial = [g_value(f, h, 1, t) for t in ts]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda t: g_value(f, h, 1, t), ts))
    assert threaded == serial


def test_lipschitz_constant_values(cone64, disk64):
    _, f = cone64
    _, h = disk64
    # vertexwise max of |x - z| is 2 on both surfaces (attained on the rim)
    assert lipschitz_constant(f, h) == 4.0
    same = BiFunction(f.complex, f.phi1, f.phi1)
    assert lipschitz_constant(same, same) == 0.0


def test_degenerate_combination_is_constant():
    cx, f = get_fixture("cone", 16)
    same = BiFunction(cx, f.phi1, f.phi1)
    result = cmd_maximize(same, same, 0, 1e-3)
    assert result.value == 0.0 and result.gap == 0.0


# --- certified maximization ---------------------------------------------------


def test_cmd_cone_disk_degree1(cone64, disk64):
    _, f = cone64
    _, h = disk64
    result = cmd_maximize(f, h, 1, 1e-3)
    assert result.value >= 0.45
    assert abs(result.argmax_t - 0.5) <= 0.1
    assert 0 <= result.gap <= 1e-3
    assert result.mode == "branch-and-bound"
    assert result.value == g_value(f, h, 1, result.argmax_t)


def test_cmd_cone_disk_degree0(cone64, disk64):
    _, f = cone64
    _, h = disk64
    result = cmd_maximize(f, h, 0, 1e-3)
    assert result.value <= 0.05


def test_cmd_sphere_ellipsoid(sphere64, ellipsoid64):
    _, f = sphere64
    _, h = ellipsoid64
    result = cmd_maximize(f, h, 0, 1e-3)
    # closed form: g(t) = sqrt(4(1-t)^2 + t^2) - sqrt((1-t)^2 + t^2), max 1 at t = 0
    assert abs(result.value - 1.0) <= 0.05
    assert abs(result.argmax_t - 0.0) <= 0.02


def test_cmd_closed_form_curve_agreement(sphere64, ellipsoid64):
    _, f = sphere64
    _, h = ellipsoid64
    for t in (0.0, 0.3, 0.6, 1.0):
        expected = math.sqrt(4 * (1 - t) ** 2 + t ** 2) - math.sqrt((1 - t) ** 2 + t ** 2)
        assert abs(g_value(f, h, 0, t) - expected) <= 0.05


def test_cmd_infinite_when_essential_counts_differ(sphere64, disk64):
    """g is infinite at every t or at none, so every route returns after g(0)."""
    _, f = sphere64
    _, h = disk64
    contours = analytic_contours("sphere"), analytic_contours("ellipsoid(2,1)")
    for result in (cmd_maximize(f, h, 2, 1e-3), grid_scan(f, h, 2),
                   cmd_via_special_values(f, h, 2, *contours)):
        assert result.value == math.inf
        assert result.gap == 0.0
        assert result.evaluations == 1


def test_hot_path_builds_no_point_objects(monkeypatch):
    """g_value and grid_scan keep diagrams as arrays from the passes to the bottleneck."""
    built = []
    original = DiagramPoint.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(DiagramPoint, "__post_init__", counting)
    DiagramPoint(0.0, 1.0)
    assert len(built) == 1  # the counter sees a construction
    rng = np.random.default_rng(12)
    f = perturbed(get_fixture("sphere", 16)[1], rng, 0.1)
    h = perturbed(get_fixture("ellipsoid(2,1)", 16)[1], rng, 0.1)
    for k in (0, 1, 2):
        for t in (0.0, 0.4, 1.0):
            g_value(f, h, k, t)
    grid_scan(f, h, 0, n=16)
    assert len(built) == 1


def test_cmd_requires_positive_eps(cone64, disk64):
    _, f = cone64
    _, h = disk64
    contours = analytic_contours("sphere"), analytic_contours("ellipsoid(2,1)")
    _, sphere = get_fixture("sphere", 16)
    _, ellipsoid = get_fixture("ellipsoid(2,1)", 16)
    _, disk = get_fixture("disk", 16)
    for eps in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            cmd_maximize(f, h, 0, eps)
        # the special route's search checks eps too, on finite and infinite curves
        for a, b, k in ((sphere, ellipsoid, 0), (sphere, disk, 2)):
            with pytest.raises(ValueError, match="eps must be positive"):
                cmd_via_special_values(a, b, k, *contours, eps=eps, cross_check=True)


def test_certificate_soundness_against_dense_sweep():
    _, f = get_fixture("cone", 16)
    _, h = get_fixture("disk", 16)
    result = cmd_maximize(f, h, 1, 1e-3)
    ts = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    sweep = max(g_value(f, h, 1, float(t)) for t in ts)
    assert sweep <= result.value + result.gap + 1e-12


def test_certificate_soundness_decreasing_curve():
    _, f = get_fixture("sphere", 16)
    _, h = get_fixture("ellipsoid(2,1)", 16)
    result = cmd_maximize(f, h, 0, 1e-3)
    ts = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    sweep = max(g_value(f, h, 0, float(t)) for t in ts)
    assert sweep <= result.value + result.gap + 1e-12


def test_endpoint_consistency(cone64, disk64):
    _, f = cone64
    _, h = disk64
    for k in (0, 1):
        d_f0 = lower_star_diagram(f.complex, f.phi1.values, k)
        d_h0 = lower_star_diagram(h.complex, h.phi1.values, k)
        assert g_value(f, h, k, 0.0) == bottleneck_distance(d_f0, d_h0)
        d_f1 = lower_star_diagram(f.complex, f.phi2.values, k)
        d_h1 = lower_star_diagram(h.complex, h.phi2.values, k)
        assert g_value(f, h, k, 1.0) == bottleneck_distance(d_f1, d_h1)


def test_pseudo_metric_axioms_at_low_resolution():
    eps = 1e-2
    _, f = get_fixture("sphere", 16)
    _, h = get_fixture("ellipsoid(2,1)", 16)
    _, e = get_fixture("ellipsoid(1.5,0.8)", 16)
    dfh = cmd_maximize(f, h, 0, eps).value
    dhf = cmd_maximize(h, f, 0, eps).value
    assert abs(dfh - dhf) <= 2 * eps
    dfe = cmd_maximize(f, e, 0, eps).value
    deh = cmd_maximize(e, h, 0, eps).value
    assert dfh <= dfe + deh + 2 * eps


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("pair", [("cone", "disk"), ("sphere", "ellipsoid(2,1)"),
                                  ("sphere", "ellipsoid(1.5,0.8)")], ids="-".join)
def test_envelope_and_midpoint_bnb_bracket_each_other(pair, k):
    _, f = get_fixture(pair[0], 16)
    _, h = get_fixture(pair[1], 16)
    for eps in (1e-2, 1e-3):
        new = cmd_maximize(f, h, k, eps)
        old_value, _t, old_gap, _n = cmd_midpoint_bnb(f, h, k, eps)
        assert new.value <= old_value + old_gap, (pair, k, eps)
        assert old_value <= new.value + new.gap, (pair, k, eps)
        assert new.gap <= eps


def test_flat_curve_needs_the_lipschitz_floor():
    # g = 0 and L = 4: the envelope closes [0, 1] at width 2*eps/L, that is
    # in 2048 cells of width 2^-11, whatever method is used
    _, f = get_fixture("cone", 16)
    _, h = get_fixture("disk", 16)
    result = cmd_maximize(f, h, 0, 1e-3)
    assert result.value == 0.0 and result.argmax_t == 0.0
    assert result.evaluations == 2049


def test_cmd_trace_is_deterministic():
    _, f = get_fixture("sphere", 16)
    _, h = get_fixture("ellipsoid(1.5,0.8)", 16)
    first, second = cmd_maximize(f, h, 0, 1e-3), cmd_maximize(f, h, 0, 1e-3)
    assert first.trace == second.trace and first == second


def test_grid_scan_mode():
    _, f = get_fixture("cone", 16)
    _, h = get_fixture("disk", 16)
    result = grid_scan(f, h, 1, 64)
    assert result.mode == "grid"
    assert result.value >= 0.45
    L = lipschitz_constant(f, h)
    trace = result.trace
    envelope = max((ga + gb + L * (tb - ta)) / 2
                   for (ta, ga), (tb, gb) in zip(trace, trace[1:]))
    assert result.gap == max(envelope - result.value, 0.0)
    assert result.gap <= L / 128


# --- slices -------------------------------------------------------------------


def test_slice_function_at_half_is_max():
    _, f = get_fixture("cone", 16)
    s = slice_function(f, SlicePoint(0.5, 0.0))
    assert np.array_equal(s.values, np.maximum(f.phi1.values, f.phi2.values))


def test_slice_function_constant_input():
    cx, _ = get_fixture("cone", 16)
    c1, c2 = 0.7, -0.2
    f = BiFunction(cx, VertexFunction(np.full(cx.n_vertices, c1)),
                   VertexFunction(np.full(cx.n_vertices, c2)))
    a, b = 0.3, 0.1
    expected = min(a, 1 - a) * max((c1 - b) / a, (c2 + b) / (1 - a))
    values = slice_function(f, SlicePoint(a, b)).values
    assert np.allclose(values, expected, atol=1e-15)


def test_slice_parameter_domain():
    with pytest.raises(ValueError):
        SlicePoint(0.0, 0.0)
    with pytest.raises(ValueError):
        SlicePoint(1.0, 0.0)


def test_matching_distance_lower_bound_examples(cone64, disk64):
    _, f = cone64
    _, h = disk64
    grid_with_center = [SlicePoint(0.5, 0.0), SlicePoint(0.3, 0.2)]
    assert matching_distance_lower_bound(f, h, 0, grid_with_center) >= 0.45
    assert matching_distance_lower_bound(f, f, 0, grid_with_center) == 0.0
    value, witness, trace = matching_distance_scan(f, h, 0, grid_with_center)
    assert witness == SlicePoint(0.5, 0.0)
    assert len(trace) == 2


def test_empty_slice_grid_rejected(cone64, disk64):
    _, f = cone64
    _, h = disk64
    with pytest.raises(ValueError, match="nonempty"):
        matching_distance_lower_bound(f, h, 0, [])


def test_slice_grid_shape():
    grid = slice_grid(3, 5)
    assert len(grid) == 15
    assert all(0 < s.a < 1 for s in grid)


def test_stability_under_perturbation():
    rng = np.random.default_rng(17)
    eps = 0.05
    for name in ("cone", "sphere"):
        _, f = get_fixture(name, 16)
        for _ in range(3):
            h = perturbed(f, rng, 0.1)
            bound = max(
                np.abs(f.phi1.values - h.phi1.values).max(),
                np.abs(f.phi2.values - h.phi2.values).max(),
            )
            result = cmd_maximize(f, h, 0, eps)
            assert result.value <= bound + eps
