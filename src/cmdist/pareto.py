"""Contour geometry: orthogonal slices, osculating circles and special values.

A contour is a planar curve traced by the image of an arc of Pareto-critical
points; along it one coordinate strictly increases while the other strictly
decreases, so for every direction (1-t, t) with t in (0, 1) the tangent
turns through the orthogonal position at most once per convex piece.  The
operations here locate those orthogonal intersections, predict diagram
coordinates from them, and assemble the finite set of t values where the
maximizer of the distance curve can sit: endpoint orthogonality,
equal-cost breakpoints of projected gaps, and osculating-circle
coincidences.  That search tabulates every branch as arrays over one
shared t-grid; scalar routines only polish the roots the tables bracket.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from . import jsonio
from .complexes import BiFunction, parse_fixture_name
from .convex import CmdResult, DEFAULT_EPS, cmd_maximize, g_value, lipschitz_constant

CURVATURE_FLOOR = 1e-9
TAU_ROOT_TOL = 1e-10
DEDUP_T_TOL = 1e-8
_MIN_SAMPLES = 8
_MAX_CONTOURS = 64
_MAX_BRANCHES = 64
_FLAT_TOL = 1e-8
_POINT_TOL = 1e-9

CONDITIONS = (
    "endpoint-orthogonality",
    "equal-cost-breakpoint",
    "osculating-equality",
    "osculating-formula",
    "degenerate-family",
)


class ContourError(ValueError):
    """Raised when contour input violates a named validity requirement."""


def _libm(fn, *arrays) -> np.ndarray:
    """``fn`` per element on Python floats, so that results do not depend on numpy's SIMD
    ``arctan2`` and ``power``, which can differ from the C library in the last bit."""
    return np.array(list(map(fn, *(a.tolist() for a in arrays))), dtype=np.float64)


# ---------------------------------------------------------------------------
# Geometry backends


class _ArcGeometry:
    """Exact ellipse arc: center + (rx cos, ry sin) over an angle range."""

    def __init__(self, cx, cy, rx, ry, theta0, theta1):
        self.cx, self.cy, self.rx, self.ry = float(cx), float(cy), float(rx), float(ry)
        self.theta0, self.theta1 = float(theta0), float(theta1)
        self.dtheta = self.theta1 - self.theta0

    def _theta(self, tau):
        return self.theta0 + np.asarray(tau) * self.dtheta

    def point(self, tau):
        th = self._theta(tau)
        return np.stack([self.cx + self.rx * np.cos(th), self.cy + self.ry * np.sin(th)], axis=-1)

    def velocity(self, tau):
        th = self._theta(tau)
        return np.stack([-self.rx * np.sin(th), self.ry * np.cos(th)], axis=-1) * self.dtheta

    def acceleration(self, tau):
        th = self._theta(tau)
        return np.stack([-self.rx * np.cos(th), -self.ry * np.sin(th)], axis=-1) * self.dtheta ** 2

    def tau_of_t(self, t: float) -> list[float]:
        """Parameters where the tangent is orthogonal to (1-t, t), solved exactly."""
        base = math.atan2(t * self.ry, (1.0 - t) * self.rx)
        lo, hi = sorted((self.theta0, self.theta1))
        taus = []
        for k in range(-2, 3):
            th = base + k * math.pi
            if lo - 1e-12 <= th <= hi + 1e-12:
                tau = (th - self.theta0) / self.dtheta
                taus.append(min(1.0, max(0.0, tau)))
        return sorted(set(taus))

    def taus_of_t(self, ts: np.ndarray) -> np.ndarray:
        """:meth:`tau_of_t` for an array of t: column k holds the (k-2)*pi shift, or NaN."""
        th = _libm(math.atan2, ts * self.ry, (1.0 - ts) * self.rx)[:, None] + np.arange(-2, 3) * math.pi
        lo, hi = sorted((self.theta0, self.theta1))
        taus = np.clip((th - self.theta0) / self.dtheta, 0.0, 1.0)
        taus[(th < lo - 1e-12) | (th > hi + 1e-12)] = np.nan
        return taus

    def translated(self, dx, dy):
        return _ArcGeometry(self.cx + dx, self.cy + dy, self.rx, self.ry, self.theta0, self.theta1)


class _SplineGeometry:
    """Cubic spline through the samples, parametrized uniformly on [0, 1]."""

    def __init__(self, samples: np.ndarray):
        self.taus = np.linspace(0.0, 1.0, len(samples))
        self.spline = CubicSpline(self.taus, samples, axis=0, bc_type="not-a-knot")

    def point(self, tau):
        return self.spline(tau)

    def velocity(self, tau):
        return self.spline(tau, 1)

    def acceleration(self, tau):
        return self.spline(tau, 2)

    def translated(self, dx, dy):
        shifted = self.spline(self.taus) + np.array([dx, dy])
        return _SplineGeometry(shifted)


class Contour:
    """One contour of a Pareto grid, with validated samples and a smooth model.

    Sampled contours are interpolated by a cubic spline; the analytic
    fixtures carry exact arc geometry instead.
    """

    def __init__(self, samples, contour_id: str = "contour", provenance: str = "user",
                 geometry=None):
        samples = np.asarray(samples, dtype=np.float64).reshape(-1, 2)
        if len(samples) < _MIN_SAMPLES:
            raise ContourError(
                f"sample-count violation: contour {contour_id!r} has {len(samples)} samples, "
                f"needs at least {_MIN_SAMPLES}"
            )
        if not np.all(np.isfinite(samples)):
            raise ContourError(f"contour {contour_id!r} has non-finite samples")
        steps = np.diff(samples, axis=0)
        if np.any((steps == 0).all(axis=1)):
            raise ContourError(
                f"regularity violation: contour {contour_id!r} repeats a consecutive sample "
                "(zero tangent)"
            )
        d1, d2 = steps[:, 0], steps[:, 1]
        split_ok = (np.all(d1 > 0) and np.all(d2 < 0)) or (np.all(d1 < 0) and np.all(d2 > 0))
        if not split_ok:
            raise ContourError(
                f"monotone-split violation: contour {contour_id!r} must have one coordinate "
                "strictly increasing and the other strictly decreasing"
            )
        self.samples = samples
        self.id = str(contour_id)
        self.provenance = str(provenance)
        self.geometry = geometry if geometry is not None else _SplineGeometry(samples)
        speeds = np.linalg.norm(self.velocity(np.linspace(0, 1, len(samples))), axis=-1)
        if np.any(speeds < 1e-12):
            raise ContourError(
                f"regularity violation: contour {contour_id!r} has a vanishing tangent"
            )

    @property
    def is_analytic(self) -> bool:
        return isinstance(self.geometry, _ArcGeometry)

    @property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return self.point(0.0), self.point(1.0)

    def point(self, tau):
        return np.asarray(self.geometry.point(tau), dtype=np.float64)

    def velocity(self, tau):
        return np.asarray(self.geometry.velocity(tau), dtype=np.float64)

    def acceleration(self, tau):
        return np.asarray(self.geometry.acceleration(tau), dtype=np.float64)

    def translated(self, dx: float, dy: float, contour_id: str | None = None) -> "Contour":
        return Contour(
            self.samples + np.array([dx, dy]),
            contour_id or f"{self.id}+({dx},{dy})",
            self.provenance,
            self.geometry.translated(dx, dy),
        )

    def __repr__(self) -> str:
        return f"Contour({self.id!r}, {len(self.samples)} samples, provenance={self.provenance!r})"


@dataclass(frozen=True)
class OsculatingData:
    """Osculating circle at a contour point, with the x-signed radius.

    ``signed_radius`` is +radius when the point sits to the right of the
    center in the first coordinate, -radius to the left, and None where the
    curvature magnitude falls below the floor.
    """

    point: tuple[float, float]
    tangent: tuple[float, float]
    center: tuple[float, float] | None
    signed_radius: float | None
    curvature: float


@dataclass(frozen=True)
class SpecialValue:
    """A candidate maximizer location with the rule that produced it."""

    t: float
    condition: str
    witnesses: tuple = ()
    warnings: tuple = ()

    def __post_init__(self):
        if not -1e-12 <= self.t <= 1 + 1e-12:
            raise ValueError(f"special value t={self.t} outside [0, 1]")
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition {self.condition!r}")

    def to_json(self) -> dict:
        obj = {"t": self.t, "condition": self.condition, "witnesses": list(self.witnesses)}
        if self.warnings:
            obj["warnings"] = list(self.warnings)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SpecialValue":
        return cls(float(obj["t"]), str(obj["condition"]),
                   tuple(obj.get("witnesses", ())), tuple(obj.get("warnings", ())))


@dataclass(frozen=True)
class ParetoClassification:
    """Nonnegative multiplier pair certifying Pareto criticality of a point."""

    point: tuple[float, float, float]
    multipliers: tuple[float, float]


# ---------------------------------------------------------------------------
# Orthogonality


def t_of_orthogonality(c: Contour, tau: float) -> float:
    """The t making (1-t, t) orthogonal to the tangent at tau.

    Equals v1/(v1 - v2) for tangent (v1, v2); the monotone split makes the
    denominator nonzero and pins interior values inside (0, 1).
    """
    v = c.velocity(tau)
    v1, v2 = float(v[0]), float(v[1])
    denom = v1 - v2
    if denom == 0.0:
        raise ContourError(f"tangent undefined or degenerate at tau={tau}")
    return v1 / denom


def _t_profile(c: Contour, taus: np.ndarray) -> np.ndarray:
    v = c.velocity(taus)
    return v[..., 0] / (v[..., 0] - v[..., 1])


def orthogonal_intersections(c: Contour, t: float) -> list[tuple[float, np.ndarray, float]]:
    """All (tau, point, w) where the direction (1-t, t) meets the contour orthogonally.

    ``w`` is the projection point . (1-t, t).  Roots are bracketed on a
    refinement of the sample grid and polished to ``TAU_ROOT_TOL`` in tau.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    taus: list[float] = []
    if c.is_analytic:
        taus = c.geometry.tau_of_t(t)
    else:
        grid = np.linspace(0.0, 1.0, 4 * (len(c.samples) - 1) + 1)
        profile = _t_profile(c, grid) - t
        for i in range(len(grid) - 1):
            a, b = profile[i], profile[i + 1]
            if a == 0.0:
                taus.append(float(grid[i]))
            elif a * b < 0:
                taus.append(float(brentq(lambda x: t_of_orthogonality(c, x) - t,
                                         grid[i], grid[i + 1], xtol=TAU_ROOT_TOL)))
        if profile[-1] == 0.0:
            taus.append(1.0)
        for end in (0.0, 1.0):
            if abs(_t_profile(c, np.array([end]))[0] - t) <= 1e-9:
                taus.append(end)
    out = []
    seen: list[float] = []
    for tau in sorted(taus):
        if any(abs(tau - s) <= 1e-9 for s in seen):
            continue
        seen.append(tau)
        p = c.point(tau)
        out.append((tau, p, float(p[0] * (1.0 - t) + p[1] * t)))
    return out


def position_predict(contours, t: float) -> list[float]:
    """Candidate finite diagram coordinates of the combined function at t.

    Projections of all orthogonal intersections, including contour endpoints
    whose tangent is orthogonal to (1-t, t).  The mesh diagram coordinates
    must land within mesh tolerance of this set; the set may be larger.
    """
    ws: list[float] = []
    for c in contours:
        for _tau, _p, w in orthogonal_intersections(c, t):
            ws.append(w)
        for end in (0.0, 1.0):
            if abs(t_of_orthogonality(c, end) - t) <= 1e-9:
                p = c.point(end)
                ws.append(float(p[0] * (1.0 - t) + p[1] * t))
    out: list[float] = []
    for w in sorted(ws):
        if not out or abs(w - out[-1]) > 1e-9:
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# Osculating circles


class _Osculation(NamedTuple):
    """Osculating data at an array of tau, one row per tau."""
    point: np.ndarray    # (n, 2)
    tangent: np.ndarray  # (n, 2) unit tangents, NaN where the tangent vanishes
    kappa: np.ndarray    # signed curvature, 0 where the tangent vanishes
    center: np.ndarray   # (n, 2), NaN below the curvature floor
    ell: np.ndarray      # x-signed radius, NaN below the curvature floor
    fd: tuple | None     # 3-point and 5-point curvature estimates of sampled contours
    stable: np.ndarray   # tangent nonzero and, on sampled contours, the estimates agree


def _curvature(v: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Speed and signed curvature from (n, 2) velocities and accelerations."""
    speed = np.hypot(v[:, 0], v[:, 1])
    cross = v[:, 0] * a[:, 1] - v[:, 1] * a[:, 0]
    return speed, np.divide(cross, _libm(lambda x: x ** 3, speed), out=np.zeros_like(cross),
                            where=speed > 0.0)


def _osculation(c: Contour, taus: np.ndarray) -> _Osculation:
    """Osculating circles at every tau, with the stencil stability mask.

    Sampled contours must pass a 3-point vs 5-point stencil consistency
    check: a divergence above 1e-3 means the sample data is too rough to
    trust second derivatives there.
    """
    v = c.velocity(taus)
    speed, kappa = _curvature(v, c.acceleration(taus))
    stable, fd = speed > 0.0, None
    if not c.is_analytic:
        h = 1e-4
        pm2, pm1, p0, pp1, pp2 = np.moveaxis(c.point(taus[:, None] + h * np.arange(-2, 3)), 1, 0)
        fd = (_curvature((pp1 - pm1) / (2 * h), (pp1 - 2 * p0 + pm1) / (h * h))[1],
              _curvature((-pp2 + 8 * pp1 - 8 * pm1 + pm2) / (12 * h),
                         (-pp2 + 16 * pp1 - 30 * p0 + 16 * pm1 - pm2) / (12 * h * h))[1])
        stable &= ~(np.abs(fd[0] - fd[1]) > 1e-3)
    point = c.point(taus)
    tangent = np.divide(v, speed[:, None], out=np.full_like(v, np.nan), where=speed[:, None] > 0.0)
    center = point + np.divide(tangent[:, ::-1] * [-1.0, 1.0], kappa[:, None], out=np.full_like(v, np.nan),
                               where=np.abs(kappa)[:, None] >= CURVATURE_FLOOR)
    ell = np.sign(point[:, 0] - center[:, 0]) / np.abs(kappa)
    return _Osculation(point, tangent, kappa, center, ell, fd, stable)


def osculating(c: Contour, tau: float) -> OsculatingData:
    """Osculating-circle data at tau; signed radius undefined below the curvature floor.

    Raises where the tangent vanishes or the sampled data is too rough (see :func:`_osculation`).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau={tau} outside [0, 1]")
    o = _osculation(c, np.array([tau], dtype=np.float64))
    if np.isnan(o.tangent[0, 0]):
        raise ContourError(f"tangent vanishes at tau={tau}")
    if not o.stable[0]:
        raise ContourError(
            f"curvature estimate unstable at tau={tau:.6g} on contour {c.id!r}: "
            f"3-point {o.fd[0][0]:.6g} vs 5-point {o.fd[1][0]:.6g}"
        )
    point, tangent, kappa = tuple(o.point[0].tolist()), tuple(o.tangent[0].tolist()), float(o.kappa[0])
    if abs(kappa) < CURVATURE_FLOOR:
        return OsculatingData(point, tangent, None, None, kappa)
    return OsculatingData(point, tangent, tuple(o.center[0].tolist()), float(o.ell[0]), kappa)


# ---------------------------------------------------------------------------
# Branch decomposition: maximal pieces where the orthogonality profile is
# strictly monotone (convex pieces), plus constant pieces of straight runs.


@dataclass(frozen=True)
class ContourBranch:
    """A tau-interval of a contour on which t(tau) is strictly monotone or constant."""

    contour: Contour = field(repr=False)
    tau_lo: float
    tau_hi: float
    kind: str  # "monotone" | "constant"
    t_lo: float
    t_hi: float

    @property
    def t_min(self) -> float:
        return min(self.t_lo, self.t_hi)

    @property
    def t_max(self) -> float:
        return max(self.t_lo, self.t_hi)

    def tau_at(self, t: float) -> float:
        """Parameter of the orthogonal hit at t, or NaN outside the branch domain."""
        if self.kind == "constant":
            return math.nan
        lo, hi = self.t_min, self.t_max
        if t < lo - 1e-12 or t > hi + 1e-12:
            return math.nan
        t = min(max(t, lo), hi)
        if self.contour.is_analytic:
            for tau in self.contour.geometry.tau_of_t(t):
                if self.tau_lo - 1e-9 <= tau <= self.tau_hi + 1e-9:
                    return min(max(tau, self.tau_lo), self.tau_hi)
            return math.nan
        f = lambda x: t_of_orthogonality(self.contour, x) - t
        fa, fb = f(self.tau_lo), f(self.tau_hi)
        if fa == 0.0:
            return self.tau_lo
        if fb == 0.0:
            return self.tau_hi
        if fa * fb > 0:
            return math.nan
        return float(brentq(f, self.tau_lo, self.tau_hi, xtol=1e-13))

    def taus_at(self, ts: np.ndarray) -> np.ndarray:
        """:meth:`tau_at` for an array of t, in closed form for the whole array on arcs."""
        if self.kind == "constant" or not self.contour.is_analytic:
            return np.array([self.tau_at(t) for t in ts.tolist()], dtype=np.float64)
        lo, hi = self.t_min, self.t_max
        taus = self.contour.geometry.taus_of_t(np.clip(ts, lo, hi))
        taus[(taus < self.tau_lo - 1e-9) | (taus > self.tau_hi + 1e-9)] = np.nan
        taus = np.clip(np.fmin.reduce(taus, axis=1), self.tau_lo, self.tau_hi)
        return np.where((ts >= lo - 1e-12) & (ts <= hi + 1e-12), taus, np.nan)

    def point_at(self, t: float) -> np.ndarray:
        tau = self.tau_at(t)
        if math.isnan(tau):
            return np.array([math.nan, math.nan])
        return self.contour.point(tau)

    def w_at(self, t: float) -> float:
        p = self.point_at(t)
        return float(p[0] * (1.0 - t) + p[1] * t)

    def osculating_at(self, t: float) -> OsculatingData | None:
        tau = self.tau_at(t)
        if math.isnan(tau):
            return None
        return osculating(self.contour, tau)


def contour_branches(c: Contour) -> list[ContourBranch]:
    """Split a contour at inflections into monotone branches; straight runs
    become constant branches carrying their single orthogonal direction."""

    def make(tau_lo, tau_hi):
        t_lo = t_of_orthogonality(c, tau_lo)
        t_hi = t_of_orthogonality(c, tau_hi)
        kind = "constant" if abs(t_hi - t_lo) < 1e-9 else "monotone"
        return ContourBranch(c, tau_lo, tau_hi, kind,
                             min(max(t_lo, 0.0), 1.0), min(max(t_hi, 0.0), 1.0))

    if c.is_analytic:
        return [make(0.0, 1.0)]
    grid = np.linspace(0.0, 1.0, 8 * (len(c.samples) - 1) + 1)
    kappa = _curvature(c.velocity(grid), c.acceleration(grid))[1]
    small = np.abs(kappa) < CURVATURE_FLOOR

    def cross_of(x):
        v2, a2 = c.velocity(x), c.acceleration(x)
        return float(v2[0] * a2[1] - v2[1] * a2[0])

    cuts = [0.0]
    for i in range(len(grid) - 1):
        if small[i] != small[i + 1]:
            cuts.append(float(grid[i + 1] if small[i + 1] else grid[i]))
        elif not small[i] and kappa[i] * kappa[i + 1] < 0:
            cuts.append(float(brentq(cross_of, grid[i], grid[i + 1], xtol=1e-12)))
    cuts.append(1.0)
    cuts = sorted(set(cuts))
    branches = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo > 1e-9:
            branches.append(make(lo, hi))
    return branches


# ---------------------------------------------------------------------------
# Special values


def closed_form_special_t(q: float) -> float | None:
    """Closed-form osculating breakpoint t from the normalized center gap q.

    Valid only while the inverse-sine argument 1 - q^2 stays in [-1, 1]; the
    formula folds t and 1-t together, so it recovers the root itself only on
    the t <= 1/2 side.
    """
    arg = 1.0 - q * q
    if arg < -1.0 or arg > 1.0:
        return None
    zeta = math.tan(0.5 * math.asin(arg))
    if zeta <= -1.0:
        return None
    return zeta / (1.0 + zeta)


def cost_derivative(b1: ContourBranch, b2: ContourBranch, t: float) -> float:
    """Derivative in the angle theta = arctan(t/(1-t)) of the projected gap w1 - w2.

    Uses the osculating model of each branch at its orthogonal hit:
    d(w_i)/d(theta) = (y_i - x_i + ell_i (sin - cos)) / (cos + sin)^2.
    Zero exactly at the osculating-formula breakpoints.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly inside (0, 1)")
    theta = math.atan2(t, 1.0 - t)
    s, cth = math.sin(theta), math.cos(theta)
    denom = (cth + s) ** 2

    def one(branch):
        osc = branch.osculating_at(t)
        if osc is None:
            raise ValueError(f"branch of {branch.contour.id!r} has no orthogonal hit at t={t}")
        if osc.signed_radius is None:
            raise ValueError(
                f"signed radius undefined (curvature below floor) on {branch.contour.id!r} at t={t}"
            )
        x, y = osc.center
        return (y - x + osc.signed_radius * (s - cth)) / denom

    return one(b1) - one(b2)


def _chebyshev_nodes(lo: float, hi: float, n: int = 17) -> list[float]:
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return sorted(mid + half * math.cos((2 * i + 1) * math.pi / (2 * n)) for i in range(n))


def _scan_roots(fn, ts: np.ndarray, values: np.ndarray):
    """Brackets where a sample is 0 or changes sign to the next, both not NaN, polished with brentq."""
    a, b = values[:-1], values[1:]
    brackets = np.flatnonzero(~(np.isnan(a) | np.isnan(b)) & ((a == 0.0) | (a * b < 0)))
    roots = [float(ts[i]) if a[i] == 0.0
             else float(brentq(fn, float(ts[i]), float(ts[i + 1]), xtol=1e-12)) for i in brackets]
    if len(values) and values[-1] == 0.0:
        roots.append(float(ts[-1]))
    return roots


class _BranchTables:
    """Hit data for every monotone branch, as arrays over one shared t-grid.

    Orthogonal hits, their points and projections, and osculating data are
    computed for the whole grid at once; the pairwise condition scans work
    on masked array arithmetic, and the scalar routines only polish the
    roots those scans bracket.  Unstable osculating data stays NaN and flags
    its branch instead of raising, so rough sample data degrades to warnings.
    """

    def __init__(self, branches: list[ContourBranch], grid_size: int):
        self.branches = branches
        self.ts = np.linspace(0.0, 1.0, grid_size)
        self.tau, self.w, self.px, self.py = [], [], [], []
        self._osc: dict[int, tuple] = {}
        self.unstable = [False] * len(branches)
        for b in branches:
            margin = 1e-9 + 1e-6 * (b.t_max - b.t_min)
            inside = (self.ts >= b.t_min + margin) & (self.ts <= b.t_max - margin)
            tau = np.where(inside, b.taus_at(self.ts), np.nan)
            hit = ~np.isnan(tau)
            p = np.full((grid_size, 2), np.nan)
            p[hit] = b.contour.point(tau[hit])
            self.tau.append(tau)
            self.px.append(p[:, 0])
            self.py.append(p[:, 1])
            self.w.append(p[:, 0] * (1 - self.ts) + p[:, 1] * self.ts)

    def overlap(self, *indices) -> tuple[float, float]:
        lo = max(self.branches[i].t_min for i in indices)
        hi = min(self.branches[i].t_max for i in indices)
        return lo, hi

    def osc_at(self, i: int, t: float) -> OsculatingData | None:
        try:
            return self.branches[i].osculating_at(t)
        except ContourError:
            self.unstable[i] = True
            return None

    def osc(self, i: int):
        """(signed radius, center x, center y) tables for branch i."""
        if i not in self._osc:
            hit = ~np.isnan(self.tau[i])
            o = _osculation(self.branches[i].contour, self.tau[i][hit])
            self.unstable[i] |= not o.stable.all()
            table = np.full((len(self.ts), 3), np.nan)
            table[hit] = np.where(o.stable[:, None], np.column_stack([o.ell, o.center]), np.nan)
            self._osc[i] = (table[:, 0], table[:, 1], table[:, 2])
        return self._osc[i]

    def coincident(self, i: int, j: int) -> bool:
        both = ~(np.isnan(self.px[i]) | np.isnan(self.px[j]))
        if not np.any(both):
            return True
        return bool(np.max(np.hypot(self.px[i][both] - self.px[j][both],
                                    self.py[i][both] - self.py[j][both])) < _POINT_TOL)

    def distinct_at(self, i: int, j: int, t: float) -> bool:
        pi = self.branches[i].point_at(t)
        pj = self.branches[j].point_at(t)
        return bool(np.linalg.norm(pi - pj) > _POINT_TOL)


def special_values(contours_phi, contours_psi, *, grid_size: int = 257) -> list[SpecialValue]:
    """Candidate maximizer set for the pair of contour families.

    Always contains t = 0 and t = 1.  Adds endpoint-orthogonality values,
    equal-cost breakpoints (projected gaps equal up to a ratio in
    {1/2, 1, 2} with either sign), and osculating conditions (equal signed
    radii, zero-curvature hits, and roots of the angle-derivative
    condition).  Conditions that hold across a whole t-interval come back as
    one degenerate-family entry with the interval as witness.
    """
    contours = list(contours_phi) + list(contours_psi)
    if len(contours) > _MAX_CONTOURS:
        raise ContourError(f"too many contours ({len(contours)} > {_MAX_CONTOURS})")
    seen_ids = set()
    for c in contours:
        if c.id in seen_ids:
            raise ContourError(f"duplicate contour id {c.id!r}")
        seen_ids.add(c.id)

    points: list[SpecialValue] = [
        SpecialValue(0.0, "endpoint-orthogonality", ()),
        SpecialValue(1.0, "endpoint-orthogonality", ()),
    ]
    families: list[SpecialValue] = []

    def add(t, condition, witnesses, warnings=()):
        if -1e-9 <= t <= 1 + 1e-9:
            points.append(SpecialValue(min(max(t, 0.0), 1.0), condition,
                                       tuple(witnesses), tuple(warnings)))

    # 1. endpoint orthogonality
    for c in contours:
        for tau in (0.0, 1.0):
            t = t_of_orthogonality(c, tau)
            p = c.point(tau)
            add(t, "endpoint-orthogonality",
                [{"contour": c.id, "tau": tau, "point": [float(p[0]), float(p[1])]}])

    branches = [b for c in contours for b in contour_branches(c)]
    if len(branches) > _MAX_BRANCHES:
        raise ContourError(
            f"too many contour branches ({len(branches)} > {_MAX_BRANCHES}): the sample "
            "data is too rough for the pairwise search (the breakpoint scan is "
            "quartic in branch count)"
        )
    mono = [b for b in branches if b.kind == "monotone"]

    # straight pieces: the whole run is hit orthogonally at one t, with zero curvature
    for b in branches:
        if b.kind == "constant":
            t = (b.t_lo + b.t_hi) / 2
            p = b.contour.point((b.tau_lo + b.tau_hi) / 2)
            add(t, "osculating-equality",
                [{"contour": b.contour.id, "tau_interval": [b.tau_lo, b.tau_hi],
                  "point": [float(p[0]), float(p[1])]}],
                warnings=("zero-curvature",))

    tables = _BranchTables(mono, grid_size)

    def witness_pair(i, j, t):
        return [
            {"contour": mono[i].contour.id, "point": [float(x) for x in mono[i].point_at(t)]},
            {"contour": mono[j].contour.id, "point": [float(x) for x in mono[j].point_at(t)]},
        ]

    def flat(values: np.ndarray) -> bool:
        finite = values[np.isfinite(values)]
        return len(finite) >= 8 and float(np.max(np.abs(finite))) < _FLAT_TOL

    # 2a. coordinate crossings w_i = w_j (two lines sharing the projection value)
    usable_pairs = []
    for i, j in itertools.combinations(range(len(mono)), 2):
        lo, hi = tables.overlap(i, j)
        if hi <= lo or tables.coincident(i, j):
            continue
        usable_pairs.append((i, j))
        gap = tables.w[i] - tables.w[j]
        if flat(gap):
            families.append(SpecialValue(
                (lo + hi) / 2, "degenerate-family",
                ({"interval": [lo, hi],
                  "branches": [mono[i].contour.id, mono[j].contour.id],
                  "relation": "equal-projection"},)))
            continue
        fn = lambda t, a=i, b=j: mono[a].w_at(t) - mono[b].w_at(t)
        for root in _scan_roots(fn, tables.ts, gap):
            if tables.distinct_at(i, j, root):
                add(root, "equal-cost-breakpoint", witness_pair(i, j, root))

    # 2b. equal or half-ratio gaps between two distinct pairs of hits
    ratios = (0.5, 1.0, 2.0, -0.5, -1.0, -2.0)
    for (i, j), (k, l) in itertools.combinations(usable_pairs, 2):
        lo, hi = tables.overlap(i, j, k, l)
        if hi <= lo:
            continue
        gap_ij = tables.w[i] - tables.w[j]
        gap_kl = tables.w[k] - tables.w[l]
        for ratio in ratios:
            values = gap_ij - ratio * gap_kl
            if flat(values):
                families.append(SpecialValue(
                    (lo + hi) / 2, "degenerate-family",
                    ({"interval": [lo, hi],
                      "branches": [mono[m].contour.id for m in (i, j, k, l)],
                      "relation": f"gap-ratio {ratio}"},)))
                continue
            fn = lambda t, r=ratio: ((mono[i].w_at(t) - mono[j].w_at(t))
                                     - r * (mono[k].w_at(t) - mono[l].w_at(t)))
            for root in _scan_roots(fn, tables.ts, values):
                pi, pj = mono[i].point_at(root), mono[j].point_at(root)
                pk, pl = mono[k].point_at(root), mono[l].point_at(root)
                same = (
                    (np.linalg.norm(pi - pk) < _POINT_TOL and np.linalg.norm(pj - pl) < _POINT_TOL)
                    or (np.linalg.norm(pi - pl) < _POINT_TOL and np.linalg.norm(pj - pk) < _POINT_TOL)
                )
                if not same:
                    add(root, "equal-cost-breakpoint",
                        witness_pair(i, j, root) + witness_pair(k, l, root))

    # 3. osculating conditions on interior hits
    for i, j in usable_pairs:
        lo, hi = tables.overlap(i, j)
        ell_i, cx_i, cy_i = tables.osc(i)
        ell_j, cx_j, cy_j = tables.osc(j)
        both = ~(np.isnan(ell_i) | np.isnan(ell_j))
        if not np.any(both):
            continue

        def pair_warnings(extra=()):
            base = ("osculating-unstable",) if (tables.unstable[i] or tables.unstable[j]) else ()
            return base + tuple(extra)

        def osc_pair(t):
            oi, oj = tables.osc_at(i, t), tables.osc_at(j, t)
            if oi is None or oj is None or oi.signed_radius is None or oj.signed_radius is None:
                return None
            return oi, oj

        def radius_gap(t):
            pair = osc_pair(t)
            if pair is None:
                return math.nan
            return pair[0].signed_radius - pair[1].signed_radius

        gap = np.where(both, ell_i - ell_j, np.nan)
        if flat(gap):
            families.append(SpecialValue(
                (lo + hi) / 2, "degenerate-family",
                ({"interval": [lo, hi],
                  "branches": [mono[i].contour.id, mono[j].contour.id],
                  "relation": "equal-signed-radius"},), pair_warnings()))
            continue
        for root in _scan_roots(radius_gap, tables.ts, gap):
            if tables.distinct_at(i, j, root):
                add(root, "osculating-equality", witness_pair(i, j, root), pair_warnings())

        # angle-derivative condition (cos - sin)(l1 - l2) = (y1 - y2) - (x1 - x2)
        theta = np.arctan2(tables.ts, 1.0 - tables.ts)
        cond = (np.cos(theta) - np.sin(theta)) * (ell_i - ell_j) - ((cy_i - cy_j) - (cx_i - cx_j))
        cond = np.where(both, cond, np.nan)

        def cond_fn(t):
            pair = osc_pair(t)
            if pair is None:
                return math.nan
            oi, oj = pair
            th = math.atan2(t, 1.0 - t)
            return ((math.cos(th) - math.sin(th)) * (oi.signed_radius - oj.signed_radius)
                    - ((oi.center[1] - oj.center[1]) - (oi.center[0] - oj.center[0])))

        if flat(cond):
            families.append(SpecialValue(
                (lo + hi) / 2, "degenerate-family",
                ({"interval": [lo, hi],
                  "branches": [mono[i].contour.id, mono[j].contour.id],
                  "relation": "angle-derivative"},), pair_warnings()))
            continue
        for root in _scan_roots(cond_fn, tables.ts, cond):
            if not tables.distinct_at(i, j, root):
                continue
            pair = osc_pair(root)
            if pair is None:
                continue
            oi, oj = pair
            extra = []
            q = (((oi.center[1] - oj.center[1]) - (oi.center[0] - oj.center[0]))
                 / (oi.signed_radius - oj.signed_radius)) if oi.signed_radius != oj.signed_radius else math.nan
            if math.isfinite(q) and root <= 0.5:
                t_cf = closed_form_special_t(q)
                if t_cf is not None and abs(t_cf - root) > DEDUP_T_TOL:
                    extra.append("closed-form-mismatch")
            add(root, "osculating-formula", witness_pair(i, j, root), pair_warnings(extra))

    return _deduplicate(points, families)


_CONDITION_PRIORITY = {name: i for i, name in enumerate(CONDITIONS)}


def _deduplicate(points: list[SpecialValue], families: list[SpecialValue]) -> list[SpecialValue]:
    clusters: list[list[SpecialValue]] = []
    for sv in sorted(points, key=lambda s: (s.t, _CONDITION_PRIORITY[s.condition])):
        if clusters and sv.t - clusters[-1][0].t <= DEDUP_T_TOL:
            clusters[-1].append(sv)
        else:
            clusters.append([sv])
    merged = []
    for cluster in clusters:
        cluster.sort(key=lambda s: (_CONDITION_PRIORITY[s.condition], s.t))
        best = cluster[0]
        t = best.t
        for sv in cluster:  # keep exact interval endpoints as the representative
            if sv.t in (0.0, 1.0):
                t = sv.t
        witnesses, warnings, seen = [], [], set()
        for sv in cluster:
            for w in sv.witnesses:
                key = repr(w)
                if key not in seen:
                    seen.add(key)
                    witnesses.append(w)
            for w in sv.warnings:
                if w not in warnings:
                    warnings.append(w)
        merged.append(SpecialValue(t, best.condition, tuple(witnesses), tuple(warnings)))

    unique_families = []
    seen_keys = set()
    for fam in sorted(families, key=lambda s: s.t):
        w = fam.witnesses[0]
        key = (round(w["interval"][0], 9), round(w["interval"][1], 9), w.get("relation"))
        if key not in seen_keys:
            seen_keys.add(key)
            unique_families.append(fam)
    return sorted(merged + unique_families, key=lambda s: (s.t, _CONDITION_PRIORITY[s.condition]))


def cmd_via_special_values(f: BiFunction, h: BiFunction, k: int,
                           contours_f, contours_h, *,
                           eps: float = DEFAULT_EPS,
                           cross_check: bool = False) -> CmdResult:
    """Distance maximum evaluated only at the special values of the contour pair.

    Degenerate families are sampled at 17 Chebyshev points of their
    interval.  Without ``cross_check`` the gap is the Lipschitz bound over
    the evaluated ``t``: between consecutive ``t_i < t_{i+1}`` no value of g
    exceeds ``(g_i + g_{i+1} + L*(t_{i+1} - t_i))/2``, and the ends of
    [0, 1] add ``g_0 + L*t_0`` and ``g_m + L*(1 - t_m)``.  With it, the gap
    is the proven branch-and-bound bound ``value + gap`` of
    :func:`cmd_maximize` minus the best special value, floored at 0.
    """
    specials = special_values(contours_f, contours_h)
    ts: list[float] = []
    for sv in specials:
        if sv.condition == "degenerate-family":
            interval = sv.witnesses[0]["interval"]
            ts.extend(_chebyshev_nodes(interval[0], interval[1]))
        else:
            ts.append(sv.t)
    ts = sorted(set(min(max(t, 0.0), 1.0) for t in ts))
    trace = []
    best_t, best = 0.0, -math.inf
    for t in ts:
        g = g_value(f, h, k, t)
        trace.append((t, g))
        if g > best:
            best, best_t = g, t
    if cross_check:
        reference = cmd_maximize(f, h, k, eps)
        finite = math.isfinite(best) and math.isfinite(reference.value)
        gap = max(reference.value + reference.gap - best, 0.0) if finite else 0.0
        note = (f"cross-checked against branch-and-bound (eps={eps:g}); gap is its proven "
                "bound minus the best special value")
    else:
        L = lipschitz_constant(f, h)
        (t0, g0), (tm, gm) = trace[0], trace[-1]
        bound = max([g0 + L * t0, gm + L * (1.0 - tm)]
                    + [(ga + gb + L * (tb - ta)) / 2
                       for (ta, ga), (tb, gb) in zip(trace, trace[1:])])
        gap = max(bound - best, 0.0) if math.isfinite(best) else 0.0
        note = ("gap is the Lipschitz bound between the evaluated t; the special-value "
                "characterization puts the maximizer among them")
    return CmdResult(best, best_t, gap, len(trace), "special-values", tuple(trace), note)


# ---------------------------------------------------------------------------
# Analytic fixtures and IO


def arc_contour(center, radii, theta_range, contour_id: str = "arc",
                provenance: str = "analytic", n_samples: int = 65) -> Contour:
    """Exact ellipse-arc contour; ``radii`` is a scalar (circle) or (rx, ry).

    The angle range must keep the arc inside one open quadrant so the
    monotone-split requirement holds.
    """
    try:
        rx, ry = radii
    except TypeError:
        rx = ry = float(radii)
    geo = _ArcGeometry(center[0], center[1], rx, ry, theta_range[0], theta_range[1])
    taus = np.linspace(0.0, 1.0, n_samples)
    return Contour(geo.point(taus), contour_id, provenance, geo)


def analytic_contours(fixture_name: str, n_samples: int = 65) -> list[Contour]:
    """Closed-form contours of the built-in closed surfaces under (x, z).

    For the sphere/ellipsoid the Pareto-critical set maps to the first- and
    third-quadrant arcs of x^2/a^2 + z^2/c^2 = 1: those are the arcs where a
    nonnegative multiplier pair exists.
    """
    family, params = parse_fixture_name(fixture_name)
    if family not in ("sphere", "ellipsoid"):
        raise ContourError(
            f"no analytic contours for {fixture_name!r}: available for the closed "
            "surfaces (sphere, ellipsoid)"
        )
    a, c = params if params else (1.0, 1.0)
    return [
        arc_contour((0.0, 0.0), (a, c), (th0, th1), f"{fixture_name}:{tag}",
                    fixture_name, n_samples)
        for tag, th0, th1 in (("q1", 0.0, math.pi / 2), ("q3", math.pi, 1.5 * math.pi))
    ]


def save_contours(path, contours) -> None:
    payload = {
        "contours": [
            {
                "id": c.id,
                "samples": [[float(x), float(y)] for x, y in c.samples],
                "provenance": c.provenance,
            }
            for c in contours
        ]
    }
    with open(path, "w") as fh:
        fh.write(jsonio.dumps_canonical(payload))


def load_contours(path) -> list[Contour]:
    """Read and validate a contour file, naming the violated requirement on failure."""
    try:
        with open(path) as fh:
            payload = jsonio.loads(fh.read())
    except ValueError as exc:
        raise ContourError(f"{path}: malformed contour JSON: {exc}") from None
    if not isinstance(payload, dict) or "contours" not in payload:
        raise ContourError(f"{path}: expected an object with a 'contours' list")
    rows = payload["contours"]
    if not isinstance(rows, list):
        raise ContourError(f"{path}: 'contours' must be a list")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "samples" not in row:
            raise ContourError(f"{path}: contour #{i} missing 'samples'")
        out.append(Contour(
            np.asarray(row["samples"], dtype=np.float64),
            row.get("id", f"contour-{i}"),
            row.get("provenance", "file"),
        ))
    return out


def classify_pareto(fixture_name: str, point, tol: float = 1e-9) -> ParetoClassification | None:
    """Multiplier pair certifying Pareto criticality on a closed fixture, or None.

    A surface point qualifies when it lies on the y = 0 section with both
    normalized coordinates in the same (weak) sign, i.e. where some
    nonnegative combination of the two coordinate gradients vanishes.
    """
    family, params = parse_fixture_name(fixture_name)
    if family not in ("sphere", "ellipsoid"):
        raise ContourError(f"Pareto classification is defined for closed fixtures, not {fixture_name!r}")
    a, c = params if params else (1.0, 1.0)
    x, y, z = (float(v) for v in point)
    if abs((x / a) ** 2 + y ** 2 + (z / c) ** 2 - 1.0) > 1e-6:
        raise ContourError("point does not lie on the fixture surface")
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
