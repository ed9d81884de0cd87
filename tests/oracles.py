"""Independent reference implementations used only to check the package.

Deliberately naive: the lower-star order by Python's ``sorted``, plain
set-based boundary-matrix reduction with no clearing and no per-degree
shortcuts, a bottleneck distance by binary search over the candidate grid
with a direct quadratic matching check, one
by binary search over the realized costs with SciPy's bipartite matching,
one by enumerating every bijection, the branch-and-bound that bounds each
interval by its midpoint value alone, SciPy's not-a-knot cubic spline
through contour samples, scalar ``math`` versions of the
contour hits, osculating circles and special-value conditions, and the
fixture triangulations built one triangle at a time.  Also the point-level
model the package does without: diagram points with merged multiplicities,
the diagonal, and the extended metric between them; and the closed-form
Pareto classification of the closed fixtures.  Kept
separate from the package so each route is computed twice by different code.
"""

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching


def lower_star_simplices(cx, values):
    """Simplices of ``cx`` in lower-star order, as sorted vertex tuples, and their values.

    Vertices are ranked by (value, index), and simplices sorted by their
    vertex ranks, largest first, then by length; leaving out a vertex lowers
    or drops a place of that key, so a face sorts before its cofaces.  A
    simplex takes the value of its highest-ranked vertex, so the bits of
    -0.0 and 0.0 survive where ``max`` of the values might swap them.
    """
    values = [float(v) for v in values]
    rank = {v: r for r, v in enumerate(sorted(range(len(values)), key=lambda v: (values[v], v)))}
    simplices = [(v,) for v in range(len(values))]
    simplices += [tuple(s) for part in (cx.edges, cx.triangles) for s in part.tolist()]
    simplices.sort(key=lambda s: (sorted((rank[v] for v in s), reverse=True), len(s)))
    top = [max(s, key=rank.__getitem__) for s in simplices]
    return simplices, [values[v] for v in top]


def naive_pairing(simplices):
    """Pairing by left-to-right reduction of the full boundary matrix.

    ``simplices`` lists sorted vertex tuples in filtration order.  Returns
    the (low, column) pairs and the unpaired simplices as (index, degree),
    both in increasing order.
    """
    index_of = {s: i for i, s in enumerate(simplices)}
    columns = []
    for s in simplices:
        if len(s) == 1:
            columns.append(set())
            continue
        faces = {index_of[s[:j] + s[j + 1:]] for j in range(len(s))}
        columns.append(faces)

    low_to_col = {}
    pairs = []
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            if low not in low_to_col:
                low_to_col[low] = j
                pairs.append((low, j))
                break
            col ^= columns[low_to_col[low]]

    paired = {i for pair in pairs for i in pair}
    # unpaired simplices with nonzero reduced column cannot occur after full reduction
    essentials = [(i, len(s) - 1) for i, s in enumerate(simplices)
                  if i not in paired and not columns[i]]
    return tuple(sorted(pairs)), tuple(essentials)


def naive_diagrams(simplices, values):
    """All-degree diagrams by left-to-right reduction of the full boundary matrix.

    ``simplices`` and ``values`` are a filtration, as from :func:`lower_star_simplices`.
    """
    pairs, essentials = naive_pairing(simplices)
    diagrams = {0: [], 1: [], 2: []}
    for i, j in pairs:
        k = len(simplices[i]) - 1
        if values[i] < values[j]:
            diagrams[k].append((values[i], values[j]))
    for i, k in essentials:
        diagrams[k].append((values[i], math.inf))
    return {k: sorted(v) for k, v in diagrams.items()}


def bit_rows(diagram):
    """Finite rows and essential births as sorted bit patterns, so -0.0 and 0.0 differ."""
    return (sorted(map(tuple, diagram.finite.view(np.int64).tolist())),
            sorted(diagram.essential.view(np.int64).tolist()))


def diagram_multiset(diagram):
    """Sorted (birth, death) list with multiplicity expanded."""
    return sorted(diagram.expanded())


def _pair_cost(p, q):
    (pb, pd), (qb, qd) = p, q
    if math.isinf(pd) or math.isinf(qd):
        return abs(pb - qb) if math.isinf(pd) and math.isinf(qd) else math.inf
    return min(max(abs(pb - qb), abs(pd - qd)), max((pd - pb) / 2, (qd - qb) / 2))


def _diagonal_cost(p):
    b, d = p
    return (d - b) / 2


class _Diagonal:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<diagonal>"


DIAGONAL = _Diagonal()


@dataclass(frozen=True)
class DiagramPoint:
    """A birth-death pair strictly above the diagonal; death may be +inf."""

    birth: float
    death: float
    multiplicity: int = 1

    def __post_init__(self):
        if not math.isfinite(self.birth):
            raise ValueError("birth must be finite")
        if not self.birth < self.death:
            raise ValueError(f"need birth < death, got ({self.birth}, {self.death})")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")

    @property
    def is_essential(self) -> bool:
        return math.isinf(self.death)


def points(diagram):
    """The distinct points of a diagram with their multiplicities, sorted by (birth, death)."""
    rows = [tuple(row) for row in diagram.finite.tolist()]
    rows += [(b, math.inf) for b in diagram.essential.tolist()]
    return tuple(DiagramPoint(b, d, m) for (b, d), m in sorted(Counter(rows).items()))


def point_distance(p, q):
    """Extended metric between diagram points; either argument may be DIAGONAL."""
    if p is DIAGONAL and q is DIAGONAL:
        return 0.0
    if p is DIAGONAL or q is DIAGONAL:
        point = q if p is DIAGONAL else p
        return _diagonal_cost((point.birth, point.death))
    return _pair_cost((p.birth, p.death), (q.birth, q.death))


def _matchable(n1, n2, allowed, diag1, diag2):
    """Perfect-matching feasibility on the diagonal-augmented bipartite graph.

    Left nodes: points of D1 then diagonal slots for D2's points; right nodes
    symmetric.  ``allowed[i][j]`` marks usable point-point edges, ``diag1[i]``
    whether left point i may retire to the diagonal (symmetrically diag2).
    Recursive augmenting paths: fine for the tens of points the tests use.
    """
    n = n1 + n2
    match_right = [-1] * n

    def neighbours(i):
        if i < n1:
            for j in range(n2):
                if allowed[i][j]:
                    yield j
            if diag1[i]:
                yield n2 + i
        else:
            j2 = i - n1
            if diag2[j2]:
                yield j2
            yield from range(n2, n)

    def augment(i, seen):
        for j in neighbours(i):
            if seen[j]:
                continue
            seen[j] = True
            if match_right[j] == -1 or augment(match_right[j], seen):
                match_right[j] = i
                return True
        return False

    return all(augment(i, [False] * n) for i in range(n))


def _finite_bottleneck(f1, f2, cands):
    """Smallest candidate at which the finite points admit a perfect matching."""
    n1, n2 = len(f1), len(f2)
    if n1 == 0 and n2 == 0:
        return 0.0
    costs = [[_pair_cost(p, q) for q in f2] for p in f1]
    diag1_cost = [_diagonal_cost(p) for p in f1]
    diag2_cost = [_diagonal_cost(p) for p in f2]

    def feasible(lam):
        allowed = [[costs[i][j] <= lam for j in range(n2)] for i in range(n1)]
        diag1 = [c <= lam for c in diag1_cost]
        diag2 = [c <= lam for c in diag2_cost]
        return _matchable(n1, n2, allowed, diag1, diag2)

    lo, hi = 0, len(cands) - 1  # the largest candidate retires every point
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo]


def candidate_costs(d1, d2):
    """Sorted values c*|w0 - w1|, c in {1/2, 1}, over all finite coordinates, and 0."""
    coords = d1.coordinates() + d2.coordinates()
    cands = {0.0}
    for w0, w1 in itertools.combinations(coords, 2):
        gap = abs(w0 - w1)
        cands.add(gap)
        cands.add(gap / 2)
    return sorted(cands)


def bottleneck_candidate_grid(d1, d2):
    """Bottleneck distance by binary search over the candidate grid.

    Searches every ``c * |w0 - w1|`` over coordinate pairs, not only the
    realized costs, and checks feasibility with a direct augmenting-path
    search on the dense diagonal-augmented graph.  Essential points match by
    sorted births.
    """
    if d1.degree != d2.degree:
        raise ValueError(f"degree mismatch: {d1.degree} vs {d2.degree}")
    points1, points2 = d1.expanded(), d2.expanded()
    e1 = sorted(b for b, d in points1 if math.isinf(d))
    e2 = sorted(b for b, d in points2 if math.isinf(d))
    if len(e1) != len(e2):
        return math.inf
    f1 = [p for p in points1 if math.isfinite(p[1])]
    f2 = [p for p in points2 if math.isfinite(p[1])]
    ess = max((abs(a - b) for a, b in zip(e1, e2)), default=0.0)
    return max(ess, _finite_bottleneck(f1, f2, candidate_costs(d1, d2)))


def bottleneck_scipy_matching(d1, d2):
    """Bottleneck distance by binary search over the realized costs with SciPy matching.

    The realized costs are every point-point pair cost and every half
    persistence.  Each search step builds the dense threshold graph and runs
    SciPy's bipartite matching twice, once per side (Mendelsohn-Dulmage).
    Essential points match by sorted births; with no finite points on one
    side the value is the other side's largest half persistence.
    """
    if d1.degree != d2.degree:
        raise ValueError(f"degree mismatch: {d1.degree} vs {d2.degree}")
    points1, points2 = d1.expanded(), d2.expanded()
    e1 = sorted(b for b, d in points1 if math.isinf(d))
    e2 = sorted(b for b, d in points2 if math.isinf(d))
    if len(e1) != len(e2):
        return math.inf
    ess = max((abs(a - b) for a, b in zip(e1, e2)), default=0.0)
    f1 = np.array([p for p in points1 if math.isfinite(p[1])], dtype=np.float64).reshape(-1, 2)
    f2 = np.array([p for p in points2 if math.isfinite(p[1])], dtype=np.float64).reshape(-1, 2)
    if not len(f1) or not len(f2):
        rest = f1 if len(f1) else f2
        return max(ess, float((rest[:, 1] - rest[:, 0]).max() / 2) if len(rest) else 0.0)

    h1 = (f1[:, 1] - f1[:, 0]) / 2
    h2 = (f2[:, 1] - f2[:, 0]) / 2
    pair = np.minimum(
        np.maximum(np.abs(f1[:, None, 0] - f2[None, :, 0]), np.abs(f1[:, None, 1] - f2[None, :, 1])),
        np.maximum(h1[:, None], h2[None, :]),
    )
    costs = np.unique(np.concatenate([pair.ravel(), h1, h2]))

    def covered(graph, perm_type):
        return bool(np.all(maximum_bipartite_matching(csr_matrix(graph), perm_type=perm_type) >= 0))

    def feasible(lam):
        allowed = pair <= lam
        return covered(allowed[h1 > lam], "column") and covered(allowed[:, h2 > lam], "row")

    lo, hi = 0, len(costs) - 1  # the largest cost retires every point to the diagonal
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(costs[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(ess, float(costs[lo]))


def cmd_midpoint_bnb(f, h, k, eps):
    """Certified maximum of g by branch-and-bound on midpoint bounds.

    An interval [l, r] with midpoint m is bounded by ``g(m) + L*(r-l)/2``;
    every split evaluates the midpoints of both halves.  Starts from g(0),
    g(1) and g(0.5), and returns ``(value, argmax_t, gap, evaluations)``,
    ties going to the smaller t.
    """
    from cmdist import g_value, lipschitz_constant

    L = lipschitz_constant(f, h)
    values = {}
    best = [-math.inf, 0.0]  # value, t

    def g(t):
        if t not in values:
            v = values[t] = g_value(f, h, k, t)
            if (v, -t) > (best[0], -best[1]):
                best[:] = v, t
        return values[t]

    def result(gap):
        return best[0], best[1], gap, len(values)

    for t in (0.0, 1.0, 0.5):
        g(t)
    if math.isinf(best[0]) or L == 0.0:
        return result(0.0)
    heap = [(-(g(0.5) + L * 0.5), 0.0, 1.0)]
    while True:
        neg_ub, l, r = heapq.heappop(heap)
        if -neg_ub <= best[0] + eps:
            return result(max(-neg_ub - best[0], 0.0))
        for a, b in ((l, (l + r) / 2), ((l + r) / 2, r)):
            gm = g((a + b) / 2)
            if math.isinf(gm):
                return result(0.0)
            heapq.heappush(heap, (-(gm + L * (b - a) / 2), a, b))


def bottleneck_bruteforce(d1, d2, limit=12):
    """Exact bottleneck by enumerating every multiset bijection (small inputs only).

    Unmatched points pair with the diagonal; an essential point costs +inf
    against the diagonal or a finite point.
    """
    if d1.degree != d2.degree:
        raise ValueError(f"degree mismatch: {d1.degree} vs {d2.degree}")
    p1 = d1.expanded()
    p2 = d2.expanded()
    if len(p1) + len(p2) > limit:
        raise ValueError(f"brute force limited to {limit} points, got {len(p1) + len(p2)}")

    best = math.inf
    n2 = len(p2)

    def recurse(i, used, current):
        nonlocal best
        if current >= best:
            return
        if i == len(p1):
            total = current
            for j in range(n2):
                if not used >> j & 1:
                    total = max(total, _diagonal_cost(p2[j]))
                    if total >= best:
                        return
            best = total
            return
        point = p1[i]
        for j in range(n2):
            if not used >> j & 1:
                recurse(i + 1, used | 1 << j, max(current, _pair_cost(point, p2[j])))
        recurse(i + 1, used, max(current, _diagonal_cost(point)))

    recurse(0, 0, 0.0)
    return best


# --- contour geometry -------------------------------------------------------------


def not_a_knot_spline(samples):
    """SciPy's not-a-knot ``CubicSpline`` through the samples at uniform knots on [0, 1].

    Call it with ``nu`` = 0, 1, 2 for point, velocity and acceleration; it
    extends the end pieces beyond [0, 1].
    """
    return CubicSpline(np.linspace(0.0, 1.0, len(samples)), samples, axis=0, bc_type="not-a-knot")


def arc_taus_of_t(geometry, t):
    """Every tau where an ellipse arc's tangent is orthogonal to (1-t, t).

    The angle atan2(t ry, (1-t) rx) shifted by k*pi for k in -2..2, kept where
    it lands in the arc's angle range.
    """
    base = math.atan2(t * geometry.ry, (1.0 - t) * geometry.rx)
    lo, hi = sorted((geometry.theta0, geometry.theta1))
    taus = []
    for k in range(-2, 3):
        th = base + k * math.pi
        if lo - 1e-12 <= th <= hi + 1e-12:
            tau = (th - geometry.theta0) / geometry.dtheta
            taus.append(min(1.0, max(0.0, tau)))
    return sorted(set(taus))


def _t_of_orthogonality(contour, tau):
    v1, v2 = (float(x) for x in contour.velocity(tau))
    return v1 / (v1 - v2)


def branch_tau_at(branch, t):
    """Parameter of a branch's orthogonal hit at t, or NaN outside its domain.

    Arcs take the smallest :func:`arc_taus_of_t` inside the branch window;
    sampled contours solve t(tau) = t by brentq over the whole branch.
    """
    if branch.kind == "constant":
        return math.nan
    lo, hi = branch.t_min, branch.t_max
    if t < lo - 1e-12 or t > hi + 1e-12:
        return math.nan
    t = min(max(t, lo), hi)
    if branch.contour.is_analytic:
        for tau in arc_taus_of_t(branch.contour.geometry, t):
            if branch.tau_lo - 1e-9 <= tau <= branch.tau_hi + 1e-9:
                return min(max(tau, branch.tau_lo), branch.tau_hi)
        return math.nan
    f = lambda x: _t_of_orthogonality(branch.contour, x) - t
    fa, fb = f(branch.tau_lo), f(branch.tau_hi)
    if fa == 0.0:
        return branch.tau_lo
    if fb == 0.0:
        return branch.tau_hi
    if fa * fb > 0:
        return math.nan
    return float(brentq(f, branch.tau_lo, branch.tau_hi, xtol=1e-13))


def branch_hit(branch, t, tau=None):
    """(tau, (x, y), w) of the branch's hit at t, all NaN without one; w = x (1-t) + y t.

    ``tau`` defaults to :func:`branch_tau_at`.
    """
    tau = branch_tau_at(branch, t) if tau is None else tau
    if math.isnan(tau):
        return math.nan, (math.nan, math.nan), math.nan
    x, y = (float(v) for v in branch.contour.point(tau))
    return tau, (x, y), x * (1.0 - t) + y * t


def osculating_circle(contour, tau, floor=1e-9):
    """(signed radius, (cx, cy)) at tau, or None where the curvature is below ``floor``.

    The center sits |v|^2 / (v x a) along the left normal (-v2, v1); the
    radius is positive when the point lies right of the center in x.
    """
    v1, v2 = (float(x) for x in contour.velocity(tau))
    a1, a2 = (float(x) for x in contour.acceleration(tau))
    px, py = (float(x) for x in contour.point(tau))
    cross = v1 * a2 - v2 * a1
    speed2 = v1 * v1 + v2 * v2
    if abs(cross) < floor * speed2 ** 1.5:
        return None
    scale = speed2 / cross
    cx, cy = px - v2 * scale, py + v1 * scale
    radius = math.hypot(px - cx, py - cy)
    return (radius if px > cx else -radius), (cx, cy)


def condition_values(w, circles, t):
    """(equal projection, equal radius, angle derivative) conditions of two hits at t.

    ``w`` holds the two projections and ``circles`` the two
    :func:`osculating_circle` results; the last two conditions are NaN where
    either circle is None.
    """
    projection = w[0] - w[1]
    if None in circles:
        return projection, math.nan, math.nan
    (l1, (x1, y1)), (l2, (x2, y2)) = circles
    theta = math.atan2(t, 1.0 - t)
    angle = (math.cos(theta) - math.sin(theta)) * (l1 - l2) - ((y1 - y2) - (x1 - x2))
    return projection, l1 - l2, angle


def gap_ratio_value(w, ratio):
    """(w_i - w_j) - ratio (w_k - w_l) for the projections of four hits."""
    return (w[0] - w[1]) - ratio * (w[2] - w[3])


@dataclass(frozen=True)
class ParetoClassification:
    """Nonnegative multiplier pair certifying Pareto criticality of a point."""

    point: tuple[float, float, float]
    multipliers: tuple[float, float]


def classify_pareto(fixture_name, point):
    """Multiplier pair certifying Pareto criticality on a closed fixture, or None.

    A surface point qualifies when it lies on the y = 0 section with both
    normalized coordinates in the same (weak) sign, i.e. where some
    nonnegative combination of the two coordinate gradients vanishes.
    """
    from cmdist import ContourError
    from cmdist.complexes import parse_fixture_name

    family, params = parse_fixture_name(fixture_name)
    if family not in ("sphere", "ellipsoid"):
        raise ContourError(f"Pareto classification is defined for closed fixtures, not {fixture_name!r}")
    a, c = params if params else (1.0, 1.0)
    x, y, z = (float(v) for v in point)
    if abs((x / a) ** 2 + y ** 2 + (z / c) ** 2 - 1.0) > 1e-6:
        raise ContourError("point does not lie on the fixture surface")
    tol = 1e-9
    if abs(y) > tol:
        return None
    if (x / a) * (z / c) < -tol:
        return None
    theta = math.atan2(z / c, x / a)
    lam1, lam2 = c * math.cos(theta), a * math.sin(theta)
    if lam1 < 0 or lam2 < 0:
        lam1, lam2 = -lam1, -lam2
    lam1, lam2 = max(lam1, 0.0), max(lam2, 0.0)
    total = lam1 + lam2
    return ParetoClassification((x, y, z), (lam1 / total, lam2 / total))


def radial_triangulation_loops(apex, rings, sectors, ring_point):
    """Fan-plus-quads triangulation from ``apex``, one Python tuple per triangle."""
    vertices = np.vstack([apex.reshape(1, 3)] + [ring_point(k) for k in range(1, rings + 1)])
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


def uv_sphere_loops(resolution, a=1.0, c=1.0):
    """Latitude/longitude sphere scaled to an ellipsoid, one Python tuple per triangle."""
    sectors = resolution + (resolution % 2)
    lat = max(3, (resolution // 2) | 1)
    theta = 2.0 * np.pi * np.arange(sectors) / sectors
    verts = [np.array([[0.0, 1.0, 0.0]])]
    for i in range(1, lat + 1):
        beta = np.pi * i / (lat + 1)
        verts.append(np.column_stack([
            a * np.sin(beta) * np.cos(theta),
            np.full(sectors, np.cos(beta)),
            c * np.sin(beta) * np.sin(theta),
        ]))
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
