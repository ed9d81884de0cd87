import functools
import itertools
import json
import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from cmdist import (
    Contour,
    ContourBranch,
    ContourError,
    analytic_contours,
    arc_contour,
    closed_form_special_t,
    cmd_maximize,
    cmd_via_special_values,
    cost_derivative,
    g_value,
    load_contours,
    lower_star_diagram,
    orthogonal_intersections,
    osculating,
    position_predict,
    SpecialValue,
    save_contours,
    special_values,
    t_of_orthogonality,
)

from cmdist import pareto
from cmdist.cli import main
from cmdist.pareto import (
    _BranchTables,
    _angle_derivative,
    _brentq,
    _equal_projection,
    _equal_radius,
    _gap_ratio,
    _scan_roots,
)

import oracles
from conftest import get_fixture
from test_acceptance import _branch_pool

Q3 = (math.pi, 1.5 * math.pi)
Q1 = (0.0, math.pi / 2)
SQ2 = math.sqrt(2.0) / 2.0


@pytest.fixture(scope="module")
def sphere_contours():
    return analytic_contours("sphere")


@pytest.fixture(scope="module")
def ellipsoid_contours():
    return analytic_contours("ellipsoid(2,1)")


def segment_contour(n=17, contour_id="segment"):
    xs = np.linspace(0.0, 1.0, n)
    return Contour(np.column_stack([xs, 2.0 - xs]), contour_id, "test")


# --- analytic contours -------------------------------------------------------


def test_sphere_has_two_quarter_arcs(sphere_contours):
    assert len(sphere_contours) == 2
    q3 = sphere_contours[1]
    start, end = q3.point(0.0), q3.point(1.0)
    assert np.allclose(start, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(end, [0.0, -1.0], atol=1e-12)


def test_unit_ellipsoid_matches_sphere(sphere_contours):
    for c_s, c_e in zip(sphere_contours, analytic_contours("ellipsoid(1,1)")):
        assert np.allclose(c_s.samples, c_e.samples, atol=0)


def test_stretched_ellipsoid_endpoints(ellipsoid_contours):
    start, end = ellipsoid_contours[1].point(0.0), ellipsoid_contours[1].point(1.0)
    assert np.allclose(start, [-2.0, 0.0], atol=1e-12)
    assert np.allclose(end, [0.0, -1.0], atol=1e-12)


def test_no_contours_for_open_surfaces():
    with pytest.raises(ContourError, match="closed"):
        analytic_contours("cone")


# --- serialization and validation --------------------------------------------


def test_contour_round_trip(tmp_path, sphere_contours):
    path = tmp_path / "contours.json"
    save_contours(path, sphere_contours)
    loaded = load_contours(path)
    assert len(loaded) == 2
    assert loaded[0].id == "sphere:q1"
    assert np.allclose(loaded[1].samples, sphere_contours[1].samples, atol=0)
    # spline model stays close to the exact arc
    taus = np.linspace(0, 1, 50)
    assert np.max(np.abs(loaded[1].point(taus) - sphere_contours[1].point(taus))) < 1e-6


@pytest.mark.parametrize("n", [8, 9, 33, 65, 500, 2000])
def test_spline_matches_scipy_not_a_knot(n):
    theta = np.linspace(math.pi, 1.5 * math.pi, n)
    radius = 1.0 + 0.01 * np.sin(7 * theta)  # a wobble, so no piece is the arc itself
    c = Contour(np.column_stack([radius * np.cos(theta), 0.5 * radius * np.sin(theta)]), "wobbly", "test")
    reference = oracles.not_a_knot_spline(c.samples)
    knots = np.linspace(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    # knots, interior points, and the 5-point stencil of _osculation beyond both ends
    taus = np.concatenate([knots, (knots[:-1] + knots[1:]) / 2, rng.uniform(0.0, 1.0, 200),
                           [-2e-4, -1e-4, 1.0 + 1e-4, 1.0 + 2e-4]])
    for nu, value, tol in ((0, c.point, 1e-13), (1, c.velocity, 1e-12), (2, c.acceleration, 1e-10)):
        assert np.max(np.abs(value(taus) - reference(taus, nu))) <= tol, nu


def test_monotone_split_violation():
    xs = np.linspace(0, 1, 12)
    with pytest.raises(ContourError, match="monotone-split"):
        Contour(np.column_stack([xs, xs ** 2 + 1.0]), "bad", "test")


def test_regularity_violation():
    xs = np.linspace(0, 1, 12)
    samples = np.column_stack([xs, 2 - xs])
    samples[5] = samples[4]
    with pytest.raises(ContourError, match="regularity"):
        Contour(samples, "bad", "test")


def test_sample_count_violation():
    with pytest.raises(ContourError, match="sample-count"):
        Contour([[0, 1], [1, 0]], "bad", "test")


def test_sample_shape_violation():
    xs = np.linspace(0.0, 1.0, 32)
    pairs = np.column_stack([xs, 2.0 - xs])
    cases = {
        (32, 4): np.column_stack([pairs, pairs + 0.01]),  # consecutive pairs per row
        (40,): np.ravel(pairs[:20]),  # a flat list of coordinates
        (16, 3): np.column_stack([xs[:16], 2.0 - xs[:16], xs[:16]]),
    }
    for shape, samples in cases.items():
        with pytest.raises(ContourError, match=re.escape(f"samples of shape {shape}, needs (n, 2)")):
            Contour(samples, "bad", "test")
    # ragged rows, a string and a mapping as a coordinate
    for samples in ([[0, 1], [1, 0, 2], [2, -1]], [[0, 1], [1, "x"]], [[0, 1], [1, {}]]):
        with pytest.raises(ContourError, match=re.escape("contour 'bad' has samples that are not "
                                                         "an (n, 2) array of numbers")):
            Contour(samples, "bad", "test")


def test_malformed_contour_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ContourError, match="malformed"):
        load_contours(path)
    path.write_text('{"wrong": []}')
    with pytest.raises(ContourError, match="contours"):
        load_contours(path)


# --- orthogonality ------------------------------------------------------------


def test_t_of_orthogonality_on_the_quarter_arc(sphere_contours):
    q3 = sphere_contours[1]
    assert abs(t_of_orthogonality(q3, 0.5) - 0.5) < 1e-12
    assert abs(t_of_orthogonality(q3, 0.0) - 0.0) < 1e-12
    assert abs(t_of_orthogonality(q3, 1.0) - 1.0) < 1e-12


def test_orthogonal_intersections_midpoint(sphere_contours):
    q3 = sphere_contours[1]
    hits = orthogonal_intersections(q3, 0.5)
    assert len(hits) == 1
    tau, p, w = hits[0]
    assert np.allclose(p, [-SQ2, -SQ2], atol=1e-12)
    assert abs(w - (-SQ2)) < 1e-12


def test_orthogonal_intersections_at_zero(sphere_contours):
    q3 = sphere_contours[1]
    hits = orthogonal_intersections(q3, 0.0)
    assert len(hits) == 1
    tau, p, w = hits[0]
    assert tau == 0.0
    assert abs(w - (-1.0)) < 1e-12


def test_straight_segment_misses_other_directions():
    seg = segment_contour()
    assert orthogonal_intersections(seg, 0.25) == []


def test_orthogonality_certificate_on_spline_contours(tmp_path, sphere_contours):
    path = tmp_path / "c.json"
    save_contours(path, sphere_contours)
    spline = load_contours(path)
    for c in spline:
        for t in np.linspace(0.05, 0.95, 7):
            for tau, p, _w in orthogonal_intersections(c, float(t)):
                v = c.velocity(tau)
                dot = abs(v[0] * (1 - t) + v[1] * t)
                norm = math.hypot(*v) * math.hypot(1 - t, t)
                assert dot / norm <= 1e-8


def test_hits_on_both_sides_of_an_inflection():
    # both hits fall in one cell of a 4x refinement of the sample grid, next to
    # the inflection where the orthogonality profile peaks
    xs = np.linspace(0.0, 1.0, 33)
    ys = 2.0 - xs - 0.05 * np.sin(2 * math.pi * (xs + 0.1))
    c = Contour(np.column_stack([xs, ys]), "inflected", "test")
    tau_c = [b for b in c.branches if b.kind == "monotone"][0].tau_hi
    t = t_of_orthogonality(c, tau_c) - 1e-7
    hits = orthogonal_intersections(c, t)
    assert len(hits) == 2
    assert hits[0][0] < tau_c < hits[1][0]
    predicted = position_predict([c], t)
    for tau, _p, w in hits:
        v = c.velocity(tau)
        assert abs(v[0] * (1 - t) + v[1] * t) / (math.hypot(*v) * math.hypot(1 - t, t)) <= 1e-8
        assert min(abs(w - x) for x in predicted) <= 1e-9


def test_position_predict_sphere(sphere_contours):
    predicted = position_predict(sphere_contours, 0.5)
    assert len(predicted) == 2
    assert abs(predicted[0] - (-SQ2)) < 1e-12
    assert abs(predicted[1] - SQ2) < 1e-12
    at_zero = position_predict(sphere_contours, 0.0)
    assert np.allclose(at_zero, [-1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("name", ["sphere", "ellipsoid(2,1)"])
def test_position_predict_covers_mesh_diagram(name):
    cx, f = get_fixture(name, 64)
    contours = analytic_contours(name)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        predicted = position_predict(contours, t)
        dgm = lower_star_diagram(cx, f.at(t), 0)
        for w in dgm.coordinates():
            assert min(abs(w - p) for p in predicted) <= 0.05


# --- osculating circles ---------------------------------------------------------


def test_signed_radius_on_the_unit_circle(sphere_contours):
    q1, q3 = sphere_contours
    data = osculating(q1, 0.5)
    assert np.allclose(data.point, [SQ2, SQ2], atol=1e-12)
    assert np.allclose(data.center, [0.0, 0.0], atol=1e-12)
    assert abs(data.signed_radius - 1.0) < 1e-9
    assert abs(osculating(q3, 0.5).signed_radius - (-1.0)) < 1e-9


def test_signed_radius_sign_convention_on_random_arcs():
    rng = np.random.default_rng(31)
    for _ in range(20):
        center = rng.uniform(-2, 2, size=2)
        radius = float(rng.uniform(0.5, 3.0))
        theta = Q1 if rng.random() < 0.5 else Q3
        arc = arc_contour(center, radius, theta, "r", n_samples=33)
        tau = float(rng.uniform(0.1, 0.9))
        data = osculating(arc, tau)
        assert abs(abs(data.signed_radius) - radius) < 1e-9
        point_right_of_center = data.point[0] > data.center[0]
        assert (data.signed_radius > 0) == point_right_of_center


def test_straight_segment_has_no_signed_radius():
    seg = segment_contour()
    data = osculating(seg, 0.4)
    assert data.signed_radius is None
    assert data.center is None


def test_unstable_sample_data_is_rejected():
    xs = np.linspace(0.0, 1.0, 17)
    jitter = 0.01 * np.where(np.arange(17) % 2 == 0, 1.0, -1.0)
    samples = np.column_stack([xs, 2.0 - xs + jitter])
    rough = Contour(samples, "rough", "test")
    with pytest.raises(ContourError, match="unstable"):
        osculating(rough, 0.5)


# --- branches -------------------------------------------------------------------


def test_arc_is_a_single_monotone_branch(sphere_contours):
    branches = sphere_contours[0].branches
    assert len(branches) == 1
    b = branches[0]
    assert b.kind == "monotone"
    assert (b.t_lo, b.t_hi) == (0.0, 1.0)
    assert abs(float(b.hits([0.5]).w[0]) - SQ2) < 1e-12


def test_inflected_contour_splits_into_two_branches():
    xs = np.linspace(0.0, 1.0, 33)
    ys = 2.0 - xs - 0.05 * np.sin(2 * math.pi * xs)
    c = Contour(np.column_stack([xs, ys]), "s-curve", "test")
    branches = c.branches
    kinds = [b.kind for b in branches]
    assert kinds.count("monotone") == 2


def test_straight_segment_is_a_constant_branch():
    branches = segment_contour().branches
    assert len(branches) == 1
    assert branches[0].kind == "constant"
    assert abs(branches[0].t_lo - 0.5) < 1e-9


# --- special values ---------------------------------------------------------------


def test_endpoints_are_always_special(sphere_contours, ellipsoid_contours):
    sv = special_values(sphere_contours, ellipsoid_contours)
    ts = [s.t for s in sv]
    assert 0.0 in ts and 1.0 in ts


def test_translated_contours_form_a_degenerate_family(sphere_contours):
    moved = [c.translated(0.3, 0.3, c.id + ":moved") for c in sphere_contours]
    sv = special_values(sphere_contours, moved)
    families = [s for s in sv if s.condition == "degenerate-family"]
    assert families
    lo, hi = families[0].witnesses[0]["interval"]
    assert lo < 0.01 and hi > 0.99


def test_radius_crossing_is_detected(sphere_contours, ellipsoid_contours):
    # independent root: the ellipse arc radius of curvature passes through 1
    b_e = ellipsoid_contours[0].branches[0]
    root = brentq(lambda t: osculating(b_e.contour, float(b_e.taus_at([t])[0])).signed_radius - 1.0,
                  0.1, 0.9, xtol=1e-12)
    sv = special_values(sphere_contours, ellipsoid_contours)
    equal_radius = [s.t for s in sv if s.condition == "osculating-equality"]
    assert any(abs(t - root) < 1e-7 for t in equal_radius)


def shifted_circle_pair():
    c1 = arc_contour((0.0, 0.0), 1.0, Q3, "unit:q3")
    c2 = arc_contour((0.5, 0.0), 2.0, Q3, "shifted:q3")
    return c1, c2


def test_angle_condition_root_matches_closed_form():
    c1, c2 = shifted_circle_pair()
    # signed radii are -1 and -2 with centers (0,0), (0.5,0): the normalized
    # center gap is ((0-0)-(0-0.5))/(-1-(-2)) = 0.5, constant in t
    expected = brentq(
        lambda t: (math.cos(math.atan2(t, 1 - t)) - math.sin(math.atan2(t, 1 - t))) - 0.5,
        1e-6, 1 - 1e-6, xtol=1e-14,
    )
    sv = special_values([c1], [c2])
    roots = [s.t for s in sv if s.condition == "osculating-formula"]
    assert any(abs(t - expected) < 1e-8 for t in roots)
    t_closed = closed_form_special_t(0.5)
    assert t_closed is not None and abs(t_closed - expected) < 1e-8
    flagged = [s for s in sv if "closed-form-mismatch" in s.warnings]
    assert not flagged


def test_angle_condition_cross_check_stays_clean(sphere_contours, ellipsoid_contours):
    # the detector cross-checks every angle-condition root against the closed
    # form where applicable; agreement failures would surface as warnings
    sv = special_values(sphere_contours, ellipsoid_contours)
    formula_roots = [s for s in sv if s.condition == "osculating-formula"]
    assert formula_roots
    assert not [s for s in formula_roots if "closed-form-mismatch" in s.warnings]


def test_zero_curvature_flag_from_straight_segment(sphere_contours):
    sv = special_values([segment_contour()], sphere_contours)
    flagged = [s for s in sv if "zero-curvature" in s.warnings]
    assert flagged
    assert any(abs(s.t - 0.5) < 1e-9 for s in flagged)


def test_identical_contour_families_stay_clean(sphere_contours):
    copies = [Contour(c.samples, c.id + ":copy", c.provenance, c.geometry)
              for c in sphere_contours]
    sv = special_values(sphere_contours, copies)
    ts = [s.t for s in sv]
    assert 0.0 in ts and 1.0 in ts
    # coincident hit points must not masquerade as equal-cost breakpoints
    assert not [s for s in sv if s.condition == "equal-cost-breakpoint"]


def test_unstable_curvature_degrades_to_warnings(sphere_contours):
    # one radially displaced sample makes the spline curvature locally untrustworthy
    theta = np.linspace(math.pi, 1.5 * math.pi, 33)
    samples = np.column_stack([np.cos(theta), np.sin(theta)])
    samples[16] *= 1.0 + 1e-3
    bumpy = Contour(samples, "bumpy", "test")
    with pytest.raises(ContourError, match="unstable"):
        osculating(bumpy, 0.5)
    sv = special_values([bumpy], [sphere_contours[1]])
    assert any("osculating-unstable" in s.warnings for s in sv)


def _nan_in_bracket_pair():
    # a bumpy sampled arc on which the equal-radius condition turns NaN at t = 0.37558,
    # inside the grid bracket [0.375, 0.3789] of a sign change
    rng = np.random.default_rng(299)
    n = int(rng.integers(12, 40))
    theta = np.linspace(math.pi, 1.5 * math.pi, n)
    samples = np.column_stack([np.cos(theta), rng.uniform(0.5, 2) * np.sin(theta)])
    for _ in range(int(rng.integers(1, 4))):
        samples[int(rng.integers(1, n - 1))] *= 1 + rng.uniform(-3e-3, 3e-3)
    arc = arc_contour(rng.uniform(-0.5, 0.5, 2), (rng.uniform(0.5, 2), rng.uniform(0.5, 2)),
                      (math.pi, 1.5 * math.pi), "arc")
    return Contour(samples, "bumpy"), arc


def test_nan_inside_a_bracket_drops_the_bracket(tmp_path):
    bumpy, arc = _nan_in_bracket_pair()
    sv = special_values([bumpy], [arc])
    assert all(0.0 <= s.t <= 1.0 for s in sv)
    assert any("osculating-unstable" in s.warnings for s in sv)
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    save_contours(c1, [bumpy])
    save_contours(c2, [arc])
    out = tmp_path / "sv.json"
    assert main(["special", "--contours", str(c1), "--contours2", str(c2), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["special_values"]
    assert rows and all(0.0 <= row["t"] <= 1.0 for row in rows)
    assert any("osculating-unstable" in row.get("warnings", ()) for row in rows)


def test_duplicate_ids_rejected(sphere_contours):
    with pytest.raises(ContourError, match="duplicate"):
        special_values(sphere_contours, sphere_contours)


def test_contour_count_bound(sphere_contours):
    many = [sphere_contours[0].translated(0.01 * i, 0.01 * i, f"c{i}") for i in range(65)]
    with pytest.raises(ContourError, match="too many"):
        special_values(many, [])


def test_branch_count_bound(sphere_contours):
    tau = np.linspace(0.0, 1.0, 641)
    omega = 2 * math.pi * 40
    ys = 2.0 - tau + (0.5 / omega) * np.sin(omega * tau)
    wiggle = Contour(np.column_stack([tau, ys]), "wiggle", "test")
    with pytest.raises(ContourError, match="branches"):
        special_values([wiggle], sphere_contours)


# --- cost derivative ----------------------------------------------------------------


def test_concentric_arcs_have_stationary_gap_at_half():
    b1 = arc_contour((0.0, 0.0), 1.0, Q3, "r1").branches[0]
    b2 = arc_contour((0.0, 0.0), 2.0, Q3, "r2").branches[0]
    assert abs(cost_derivative(b1, b2, 0.5)) < 1e-12


def test_identical_branches_have_zero_derivative(sphere_contours):
    b = sphere_contours[0].branches[0]
    for t in (0.2, 0.5, 0.8):
        assert cost_derivative(b, b, t) == 0.0


def _finite_difference_gap_derivative(b1, b2, t, h=1e-6):
    def gap_of_theta(theta):
        tt = math.sin(theta) / (math.sin(theta) + math.cos(theta))
        return float(b1.hits([tt]).w[0]) - float(b2.hits([tt]).w[0])

    theta = math.atan2(t, 1.0 - t)
    return (gap_of_theta(theta + h) - gap_of_theta(theta - h)) / (2 * h)


def test_cost_derivative_matches_finite_differences(sphere_contours, ellipsoid_contours):
    b_s = sphere_contours[0].branches[0]
    b_e = ellipsoid_contours[0].branches[0]
    for t in (0.2, 0.35, 0.55, 0.7):
        exact = cost_derivative(b_s, b_e, t)
        fd = _finite_difference_gap_derivative(b_s, b_e, t)
        assert abs(exact - fd) <= 1e-4 * max(abs(fd), 1e-3)


def test_cost_derivative_requires_defined_radius(sphere_contours):
    seg_branch = segment_contour().branches[0]
    arc_branch = sphere_contours[0].branches[0]
    with pytest.raises(ValueError):
        cost_derivative(seg_branch, arc_branch, 0.5)


# --- branch tables against the scalar routines ------------------------------------


def _table_cases(tmp_path):
    sph, ell = analytic_contours("sphere"), analytic_contours("ellipsoid(2,1)")
    save_contours(tmp_path / "spline.json", sph + ell)
    theta = np.linspace(math.pi, 1.5 * math.pi, 33)
    bumpy = np.column_stack([np.cos(theta), np.sin(theta)])
    bumpy[16] *= 1.0 + 1e-3  # as in test_unstable_curvature_degrades_to_warnings
    yield "arcs", [b for c in sph + ell for b in c.branches]
    # a parameter window narrower than the t-range leaves hits outside the window unmatched
    yield "sub-arc", [ContourBranch(ell[0], 0.25, 0.75, "monotone", 0.0, 1.0)]
    yield "acceptance pool", _branch_pool()
    yield "spline", [b for c in load_contours(tmp_path / "spline.json") for b in c.branches]
    yield "bumpy", Contour(bumpy, "bumpy", "test").branches


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def test_branch_tables_match_the_scalar_routines(tmp_path):
    # tables and one-element calls against the math references in tests/oracles.py
    conditions = (_equal_projection, _equal_radius, _angle_derivative)
    for name, branches in _table_cases(tmp_path):
        mono = [b for b in branches if b.kind == "monotone"]
        tables = _BranchTables(mono, 257)
        refs = []  # per branch and grid t: reference w and osculating circle
        for i, b in enumerate(mono):
            hits = tables.hits[i]
            margin = 1e-9 + 1e-6 * (b.t_max - b.t_min)
            raised = False
            refs.append([])
            for idx, t in enumerate(tables.ts.tolist()):
                tau, p, w = oracles.branch_hit(b, t)
                if not (b.contour.is_analytic or math.isnan(tau)):
                    # the closed-form root is orthogonal and within 1e-12 of the reference's
                    # Brent root (xtol 1e-13); the references below start from it
                    got = float(b.taus_at([t])[0])
                    v = b.contour.velocity(got)
                    assert abs(got - tau) <= 1e-12, (name, i, t)
                    assert abs(v[0] * (1 - t) + v[1] * t) / math.hypot(*v) <= 1e-12, (name, i, t)
                    tau, p, w = oracles.branch_hit(b, t, got)
                circle = None if math.isnan(tau) else oracles.osculating_circle(b.contour, tau)
                refs[i].append((w, circle))
                if idx % 4 == 0:  # one-element calls on a subset of the grid
                    assert _same(float(b.taus_at([t])[0]), tau), (name, i, t)
                    assert all(map(_same, b.hits([t]).p[0].tolist(), p)), (name, i, t)
                    assert _same(float(b.hits([t]).w[0]), w), (name, i, t)
                if not b.t_min + margin <= t <= b.t_max - margin:
                    assert np.isnan(hits.tau[idx]), (name, i, t)  # the grid leaves a margin at the ends
                    continue
                assert _same(hits.tau[idx], tau), (name, i, t)
                assert all(map(_same, hits.p[idx].tolist(), p)) and _same(hits.w[idx], w), (name, i, t)
                if math.isnan(tau):
                    continue
                row = np.array([hits.ell[idx], hits.cx[idx], hits.cy[idx]])
                if circle is None:
                    assert np.isnan(row).all(), (name, i, t)
                elif np.isnan(row).all():
                    with pytest.raises(ContourError, match="unstable"):
                        osculating(b.contour, tau)
                    raised = True
                else:
                    ell, center = circle
                    assert np.max(np.abs(row - [ell, *center])) <= 1e-12, (name, i, t)
            assert hits.unstable == raised, (name, i)
        for i, j in itertools.combinations(range(len(mono)), 2):
            grid = [tables.evaluate(fn, (i, j))[0] for fn in conditions]
            for idx, t in enumerate(tables.ts.tolist()):
                (wi, ci), (wj, cj) = refs[i][idx], refs[j][idx]
                reference = oracles.condition_values((wi, wj), (ci, cj), t)
                checks = [(g[idx], ref) for g, ref in zip(grid, reference)]
                if idx % 32 == 0:
                    checks += [(float(tables.evaluate(fn, (i, j), t)[0][0]), ref)
                               for fn, ref in zip(conditions, reference)]
                for k, (value, ref) in enumerate(checks):
                    if np.isnan(value):
                        continue
                    if k % 3 == 0:  # projections are exact
                        assert value == ref, (name, i, j, t)
                    else:
                        assert abs(value - ref) <= 1e-11, (name, i, j, t)
        if len(mono) >= 4:
            quad = (0, 1, 2, 3)
            grid = tables.evaluate(functools.partial(_gap_ratio, ratio=-0.5), quad)[0]
            for idx in np.flatnonzero(~np.isnan(grid)).tolist():
                assert grid[idx] == oracles.gap_ratio_value([refs[m][idx][0] for m in quad], -0.5)
    assert any(tables.unstable)  # the bumpy contour, last, exercises the stability mask


def _scan_roots_loop(fn, ts, values):
    roots = []
    for i in range(len(ts) - 1):
        a, b = values[i], values[i + 1]
        if math.isnan(a) or math.isnan(b):
            continue
        if a == 0.0:
            roots.append(float(ts[i]))
        elif a * b < 0:
            roots.append(float(brentq(fn, float(ts[i]), float(ts[i + 1]), xtol=1e-12)))
    if len(values) and values[-1] == 0.0:
        roots.append(float(ts[-1]))
    return roots


def test_scan_roots_brackets():
    ts = np.linspace(0.0, 1.0, 11)
    values = np.array([1.0, 0.0, -1.0, np.nan, -1.0, 1.0, np.nan, 0.0, np.nan, -1.0, 1.0])
    fn = lambda t: float(np.interp(t, ts, values))  # values are fn's own values at ts
    roots = _scan_roots(fn, ts, values)
    # a zero before a NaN sample (index 7) brackets nothing; a zero followed by a number is a root
    assert roots[0] == ts[1] and len(roots) == 3
    assert abs(roots[1] - 0.45) < 1e-11 and abs(roots[2] - 0.95) < 1e-11
    assert _scan_roots(fn, ts[:3], np.array([-1.0, -1.0, 0.0])) == [1.0 * ts[2]]
    assert _scan_roots(fn, ts[:1], np.array([np.nan])) == []
    assert _scan_roots(fn, ts[:0], np.array([])) == []
    rng = np.random.default_rng(17)
    for _ in range(200):
        values = rng.choice([-2.0, -1.0, 0.0, 1.0, 3.0, np.nan], size=int(rng.integers(0, 12)))
        grid = np.linspace(0.0, 1.0, len(values))
        interp = lambda t: float(np.interp(t, grid, values))
        assert _scan_roots(interp, grid, values) == _scan_roots_loop(interp, grid, values)


def _root_or_none(f, a, b, **kw):
    try:
        return brentq(f, a, b, **kw)
    except (ValueError, RuntimeError):
        return None


def test_brentq_port_matches_scipy_bit_for_bit(monkeypatch):
    families = {
        "polynomial": lambda c: lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3],
        "trigonometric": lambda c: lambda x: math.sin(5 * c[0] * x + c[1]) + 0.5 * c[2],
        "exponential": lambda c: lambda x: math.exp(3 * c[0] * x) - 2 * abs(c[1]) - 0.01,
        "tanh": lambda c: lambda x: math.tanh(200 * c[0] * (x - c[1])) + 1e-3 * c[2],
    }
    rng = np.random.default_rng(909)
    outcomes = set()
    for name, family in families.items():
        for _ in range(100):
            f = family(rng.uniform(-1, 1, 4).tolist())
            a = float(rng.uniform(-2, 1))
            b = a + float(rng.uniform(1e-6, 3))
            fa, fb = f(a), f(b)
            if not fa * fb < 0:  # the contract: nonzero ends of opposite signs
                continue
            for xtol in (1e-12, 1e-13, 2e-12):
                for maxiter in (100, 4):  # 4 steps leave most brackets unconverged
                    monkeypatch.setattr(pareto, "_BRENT_MAXITER", maxiter)
                    want = _root_or_none(f, a, b, xtol=xtol, maxiter=maxiter)
                    got = _brentq(f, a, b, fa, fb, xtol=xtol)
                    assert (got is None) == (want is None), (name, a, b, xtol, maxiter)
                    if want is not None:
                        assert got.hex() == want.hex(), (name, a, b, xtol, maxiter)
                    outcomes.add(want is None)
    monkeypatch.undo()
    assert outcomes == {True, False}
    nan_beyond = lambda x: math.nan if x > 0.5 else x - 0.7
    assert _root_or_none(nan_beyond, 0.0, 1.0, xtol=2e-12) is None
    assert _brentq(nan_beyond, 0.0, 1.0, -0.7, 0.3, xtol=2e-12) is None
    assert _brentq(lambda x: x, -1.0, 1.0, -1.0, 1.0, xtol=2e-12) == brentq(lambda x: x, -1.0, 1.0)


# --- special-value route for the distance ---------------------------------------------


def test_special_value_route_matches_branch_and_bound():
    _, f = get_fixture("sphere", 64)
    _, h = get_fixture("ellipsoid(2,1)", 64)
    sph = analytic_contours("sphere")
    ell = analytic_contours("ellipsoid(2,1)")
    via_special = cmd_via_special_values(f, h, 0, special_values(sph, ell))
    assert via_special.mode == "special-values"
    assert abs(via_special.value - 1.0) <= 0.05
    assert via_special.argmax_t == 0.0
    reference = cmd_maximize(f, h, 0, 1e-3)
    assert abs(via_special.value - reference.value) <= 1e-3 + 0.05


def _distance_to_special_set(t, specials):
    best = math.inf
    for sv in specials:
        if sv.condition == "degenerate-family":
            lo, hi = sv.witnesses[0]["interval"]
            best = min(best, 0.0 if lo <= t <= hi else min(abs(t - lo), abs(t - hi)))
        else:
            best = min(best, abs(t - sv.t))
    return best


@pytest.mark.parametrize("pair", [
    ("sphere", "ellipsoid(2,1)"),
    ("sphere", "ellipsoid(1.5,0.8)"),
    ("ellipsoid(2,1)", "ellipsoid(1.5,0.8)"),
])
def test_maximizer_lands_on_a_special_value(pair):
    name1, name2 = pair
    _, f = get_fixture(name1, 32)
    _, h = get_fixture(name2, 32)
    result = cmd_maximize(f, h, 0, 1e-4)
    specials = special_values(analytic_contours(name1), analytic_contours(name2))
    assert _distance_to_special_set(result.argmax_t, specials) <= 1e-3


def test_special_value_route_gap_bounds_a_dense_sweep():
    _, f = get_fixture("sphere", 16)
    _, h = get_fixture("ellipsoid(2,1)", 16)
    result = cmd_via_special_values(f, h, 0, special_values(analytic_contours("sphere"),
                                                            analytic_contours("ellipsoid(2,1)")))
    assert math.isfinite(result.gap) and result.gap >= 0.0
    assert result.evaluations == len(result.trace)
    assert "Lipschitz" in result.note
    sweep = max(g_value(f, h, 0, t) for t in np.linspace(0.0, 1.0, 1001))
    assert sweep <= result.value + result.gap + 1e-12


def test_special_value_route_gap_covers_the_unit_interval_for_any_list():
    """t = 1 is evaluated like t = 0, so the cells cover [0, 1] even when the list stops early."""
    _, f = get_fixture("cone", 16)
    _, h = get_fixture("disk", 16)
    early = [SpecialValue(t, "endpoint-orthogonality") for t in (0.0, 0.1)]
    sweep = max(g_value(f, h, 1, t) for t in np.linspace(0.0, 1.0, 201))
    assert g_value(f, h, 1, 0.5) == 0.5
    for specials in (early, []):
        result = cmd_via_special_values(f, h, 1, specials)
        assert max(result.trace)[0] == 1.0
        assert result.evaluations == len(result.trace)
        assert sweep <= result.value + result.gap + 1e-12, len(specials)


def test_special_value_route_identical_inputs():
    _, f = get_fixture("sphere", 16)
    sph = analytic_contours("sphere")
    copies = [Contour(c.samples, c.id + ":b", c.provenance, c.geometry) for c in sph]
    result = cmd_via_special_values(f, f, 0, special_values(sph, copies))
    assert result.value == 0.0


# --- Pareto classification ---------------------------------------------------------


def test_classify_pareto_accepts_critical_arc_points():
    theta = 0.7
    point = (2 * math.cos(theta), 0.0, math.sin(theta))
    cls = oracles.classify_pareto("ellipsoid(2,1)", point)
    assert cls is not None
    lam1, lam2 = cls.multipliers
    assert lam1 >= 0 and lam2 >= 0 and abs(lam1 + lam2 - 1.0) < 1e-12
    # the chosen combination has vanishing tangential gradient on the surface
    x, y, z = point
    normal = np.array([x / 4.0, y, z])
    normal /= np.linalg.norm(normal)
    grad = np.array([lam1, 0.0, lam2])
    tangential = grad - np.dot(grad, normal) * normal
    assert np.linalg.norm(tangential) < 1e-9


def test_classify_pareto_rejects_noncritical_points():
    assert oracles.classify_pareto("sphere", (0.0, 1.0, 0.0)) is None  # off the y = 0 section
    theta = 2.0  # second quadrant of the section: mixed signs
    assert oracles.classify_pareto("sphere", (math.cos(theta), 0.0, math.sin(theta))) is None
    with pytest.raises(ContourError, match="surface"):
        oracles.classify_pareto("sphere", (2.0, 0.0, 0.0))
