"""Acceptance suite: one test per criterion, each printing its own verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Tolerances are fixed here, not tuned: mesh assertions use 0.05 at
resolution 64, exact assertions use exact comparison, and the stated
runtime budgets are enforced with a wall clock.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from cmdist import (
    BiFunction,
    SlicePoint,
    VertexFunction,
    analytic_contours,
    arc_contour,
    bottleneck_distance,
    closed_form_special_t,
    cmd_maximize,
    cmd_via_special_values,
    cost_derivative,
    g_value,
    lipschitz_constant,
    lower_star_diagram,
    matching_distance_scan,
    position_predict,
    slice_function,
    slice_grid,
    special_values,
)
from conftest import get_fixture
from oracles import bottleneck_bruteforce, points
from test_diagram import random_diagram

Q3 = (math.pi, 1.5 * math.pi)


def report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def significant(dgm, threshold=0.05):
    return [
        (p.birth, p.death)
        for p in points(dgm)
        if not math.isfinite(p.death) or p.death - p.birth > threshold
    ]


def test_criterion_01_degree1_discrimination():
    start = time.perf_counter()
    cx, f = get_fixture("cone", 64)
    cd, h = get_fixture("disk", 64)
    half_f = lower_star_diagram(cx, f.at(0.5), 1)
    half_h = lower_star_diagram(cd, h.at(0.5), 1)
    loops_f = significant(half_f)
    loops_h = significant(half_h)
    ok = len(loops_f) == 1 and not loops_h
    b, d = loops_f[0]
    ok &= abs(b - 0.0) <= 0.05 and abs(d - 1.0) <= 0.05
    g_half = g_value(f, h, 1, 0.5)
    ok &= abs(g_half - 0.5) <= 0.05
    result = cmd_maximize(f, h, 1, 1e-3)
    ok &= result.value >= 0.45
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(1, ok, f"loop ({b:.4f}, {d:.4f}), g(1/2)={g_half:.4f}, "
                  f"max={result.value:.4f} at t={result.argmax_t:.3f}, {elapsed:.1f}s")


def test_criterion_02_degree1_matching_distance_stays_flat():
    _, f = get_fixture("cone", 64)
    _, h = get_fixture("disk", 64)
    value = matching_distance_scan(f, h, 1, slice_grid(11, 11))[0]
    ok = value <= 0.05
    report(2, ok, f"sampled matching distance in degree 1 = {value:.5f} <= 0.05")


def test_criterion_03_degree0_collapse():
    start = time.perf_counter()
    cx, f = get_fixture("cone", 64)
    cd, h = get_fixture("disk", 64)
    worst_g = max(g_value(f, h, 0, round(0.1 * i, 1)) for i in range(11))
    ok = worst_g <= 0.05
    result = cmd_maximize(f, h, 0, 1e-3)
    ok &= result.value <= 0.05
    d1 = lower_star_diagram(cx, slice_function(f, SlicePoint(0.5, 0.0)).values, 0)
    d2 = lower_star_diagram(cd, slice_function(h, SlicePoint(0.5, 0.0)).values, 0)
    slice_db = bottleneck_distance(d1, d2)
    ok &= abs(slice_db - 0.5) <= 0.05
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(3, ok, f"max g(t)={worst_g:.5f}, max over t={result.value:.5f}, "
                  f"slice distance={slice_db:.4f}, {elapsed:.1f}s")


def test_criterion_04_stability_bound():
    rng = np.random.default_rng(2024)
    eps = 0.05
    violations = 0
    worst = 0.0
    for name in ("cone", "disk", "sphere", "ellipsoid(2,1)"):
        _, f = get_fixture(name, 16)
        for _ in range(20):
            d1 = rng.uniform(-0.1, 0.1, size=len(f.phi1))
            d2 = rng.uniform(-0.1, 0.1, size=len(f.phi2))
            h = BiFunction(f.complex, VertexFunction(f.phi1.values + d1),
                           VertexFunction(f.phi2.values + d2))
            bound = max(np.abs(d1).max(), np.abs(d2).max())
            value = cmd_maximize(f, h, 0, eps).value
            worst = max(worst, value - bound)
            violations += value > bound + eps
    ok = violations == 0
    report(4, ok, f"80 perturbation runs, 0 allowed violations, got {violations} "
                  f"(worst value-bound = {worst:.2e})")


def test_criterion_05_bottleneck_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    mismatches = 0
    for _ in range(500):
        a = random_diagram(rng)
        b = random_diagram(rng)
        if bottleneck_distance(a, b) != bottleneck_bruteforce(a, b):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    report(5, ok, f"500 random pairs, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_06_lipschitz_property():
    rng = np.random.default_rng(606)
    violations = 0
    for name1, name2, k in (("cone", "disk", 0), ("sphere", "ellipsoid(2,1)", 0),
                            ("cone", "disk", 1)):
        _, f = get_fixture(name1, 32)
        _, h = get_fixture(name2, 32)
        L = lipschitz_constant(f, h)
        n = 100 if k == 0 else 20
        for _ in range(n):
            t1, t2 = rng.uniform(0, 1, size=2)
            gap = abs(g_value(f, h, k, t1) - g_value(f, h, k, t2))
            violations += gap > L * abs(t1 - t2) + 1e-12
    ok = violations == 0
    report(6, ok, f"220 sampled pairs across pairings, {violations} violations")


def test_criterion_07_position_prediction():
    ok = True
    worst = 0.0
    for name in ("sphere", "ellipsoid(2,1)"):
        cx, f = get_fixture(name, 64)
        contours = analytic_contours(name)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            predicted = position_predict(contours, t)
            for w in lower_star_diagram(cx, f.at(t), 0).coordinates():
                deviation = min(abs(w - p) for p in predicted)
                worst = max(worst, deviation)
                ok &= deviation <= 0.05
    exact = position_predict(analytic_contours("sphere"), 0.5)
    analytic_ok = any(abs(p - (-math.sqrt(2) / 2)) <= 1e-12 for p in exact)
    ok &= analytic_ok
    report(7, ok, f"worst mesh deviation {worst:.4f} <= 0.05; "
                  f"sphere t=1/2 prediction includes -sqrt(2)/2: {analytic_ok}")


def test_criterion_08_special_value_route():
    start = time.perf_counter()
    _, f = get_fixture("sphere", 64)
    _, h = get_fixture("ellipsoid(2,1)", 64)
    sph = analytic_contours("sphere")
    ell = analytic_contours("ellipsoid(2,1)")
    via_special = cmd_via_special_values(f, h, 0, special_values(sph, ell))
    ok = abs(via_special.value - 1.0) <= 0.05
    ok &= via_special.argmax_t == 0.0
    reference = cmd_maximize(f, h, 0, 1e-3)
    ok &= abs(via_special.value - reference.value) <= 1e-3 + 0.05
    candidates = [sv.t for sv in special_values(sph, ell)
                  if sv.condition != "degenerate-family"]
    nearest = min(abs(reference.argmax_t - t) for t in candidates)
    ok &= nearest <= 1e-3
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(8, ok, f"special route {via_special.value:.4f} at t={via_special.argmax_t:.4f}, "
                  f"branch-and-bound {reference.value:.4f}, argmax within {nearest:.1e} "
                  f"of a special value, {elapsed:.1f}s")


def _branch_pool():
    pool = []
    for c in analytic_contours("sphere") + analytic_contours("ellipsoid(2,1)") \
            + analytic_contours("ellipsoid(1.5,0.8)"):
        pool.extend(c.branches)
    pool.append(arc_contour((0.5, 0.0), 2.0, Q3, "probe-a").branches[0])
    pool.append(arc_contour((-0.3, 0.2), 1.5, Q3, "probe-b").branches[0])
    return pool


def test_criterion_09_derivative_diagnostics():
    rng = np.random.default_rng(909)
    pool = _branch_pool()

    def fd(b1, b2, t, step=1e-6):
        def gap(theta):
            tt = math.sin(theta) / (math.sin(theta) + math.cos(theta))
            return float(b1.hits([tt]).w[0]) - float(b2.hits([tt]).w[0])

        theta = math.atan2(t, 1 - t)
        return (gap(theta + step) - gap(theta - step)) / (2 * step)

    probes = 0
    worst_rel = 0.0
    while probes < 50:
        i, j = rng.choice(len(pool), size=2, replace=False)
        t = float(rng.uniform(0.1, 0.9))
        numeric = fd(pool[i], pool[j], t)
        if abs(numeric) < 1e-3:  # relative error needs a visible denominator
            continue
        exact = cost_derivative(pool[i], pool[j], t)
        worst_rel = max(worst_rel, abs(exact - numeric) / abs(numeric))
        probes += 1
    ok = worst_rel <= 1e-4

    # roots of the angle condition against the closed form, on circle pairs
    # with a constant normalized center gap q
    worst_gap = 0.0
    for q in (0.3, 0.5, 0.9):
        c1 = arc_contour((0.0, 0.0), 1.0, Q3, "base:q3")
        c2 = arc_contour((q, 0.0), 2.0, Q3, "offset:q3")
        roots = [sv.t for sv in special_values([c1], [c2])
                 if sv.condition == "osculating-formula"]
        expected = brentq(
            lambda t: (math.cos(math.atan2(t, 1 - t)) - math.sin(math.atan2(t, 1 - t))) - q,
            1e-9, 1 - 1e-9, xtol=1e-14,
        )
        closed = closed_form_special_t(q)
        root = min(roots, key=lambda t: abs(t - expected))
        worst_gap = max(worst_gap, abs(root - expected), abs(closed - expected))
    ok &= worst_gap <= 1e-8
    report(9, ok, f"50 derivative probes worst rel err {worst_rel:.2e} <= 1e-4; "
                  f"angle-condition roots vs closed form within {worst_gap:.1e}")


def test_criterion_10_degenerate_detection():
    sph = analytic_contours("sphere")
    moved = [c.translated(0.3, 0.3, c.id + ":moved") for c in sph]
    families = [sv for sv in special_values(sph, moved)
                if sv.condition == "degenerate-family"]
    ok = bool(families)
    covers = False
    for fam in families:
        lo, hi = fam.witnesses[0]["interval"]
        covers |= lo < 0.01 and hi > 0.99
    ok &= covers

    from cmdist import Contour

    xs = np.linspace(0.0, 1.0, 17)
    seg = Contour(np.column_stack([xs, 2.0 - xs]), "segment", "test")
    flagged = [sv for sv in special_values([seg], sph) if "zero-curvature" in sv.warnings]
    ok &= bool(flagged)
    report(10, ok, f"translated contours: {len(families)} degenerate families "
                   f"(full-interval: {covers}); zero-curvature flags: {len(flagged)}")
