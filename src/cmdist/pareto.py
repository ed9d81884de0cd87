"""Contour geometry: orthogonal slices, osculating circles and special values.

A contour is a planar curve traced by the image of an arc of Pareto-critical
points; along it one coordinate strictly increases while the other strictly
decreases, so for every direction (1-t, t) with t in (0, 1) the tangent
turns through the orthogonal position at most once per convex piece.  The
operations here locate those orthogonal intersections, predict diagram
coordinates from them, and assemble the finite set of t values where the
maximizer of the distance curve can sit: endpoint orthogonality,
equal-cost breakpoints of projected gaps, and osculating-circle
coincidences.  That search tabulates every branch's hits as arrays over
one shared t-grid.  Each special-value condition is one array function of
those hits: it runs on the grid to bracket roots and on one-element arrays
to polish them.  Roots are polished by :func:`_brentq`, a pure-Python port
of ``scipy.optimize.brentq`` that the tests check against SciPy's bit for
bit, so importing this module loads no SciPy; sampled contours import
SciPy's cubic spline when they are built.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import jsonio
from .complexes import BiFunction, parse_fixture_name
from .convex import DEFAULT_EPS, CmdResult, _Curve
# unused here but importable: perfbench/tracing.py wraps g_value and cmd_maximize on this module
from .convex import cmd_maximize, g_value  # noqa: F401

CURVATURE_FLOOR = 1e-9
DEDUP_T_TOL = 1e-8
_MIN_SAMPLES = 8
_MAX_CONTOURS = 64
_MAX_BRANCHES = 64
_FLAT_TOL = 1e-8
_POINT_TOL = 1e-9
_T_GRID_SIZE = 257  # points of the t-grid that brackets special values

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


def _pairs(x, y) -> np.ndarray:
    """x and y stacked along a new last axis; cheaper than ``np.stack`` on short arrays."""
    out = np.empty(np.shape(x) + (2,))
    out[..., 0], out[..., 1] = x, y
    return out


_BRENT_RTOL = 4 * math.ulp(1.0)  # scipy.optimize.brentq's default rtol
_BRENT_MAXITER = 100  # and its default maxiter


def _brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` in [a, b] by Brent's method, step for step as ``scipy.optimize.brentq``.

    A port of SciPy's C routine with its default rtol and maxiter, its float
    operations and its errors: ValueError when f(a) and f(b) have the same
    sign bit or a value is NaN, RuntimeError after ``_BRENT_MAXITER`` steps.
    Each step calls ``f``, which costs more than the step itself, so the port
    loses nothing to the C kernel.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C divides to +-inf or NaN, and either bisects below
                stry = math.inf
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


# ---------------------------------------------------------------------------
# Geometry backends


class _ArcGeometry:
    """Exact ellipse arc: center + (rx cos, ry sin) over an angle range."""

    def __init__(self, cx, cy, rx, ry, theta0, theta1):
        self.cx, self.cy, self.rx, self.ry = float(cx), float(cy), float(rx), float(ry)
        self.theta0, self.theta1 = float(theta0), float(theta1)
        self.dtheta = self.theta1 - self.theta0
        self.lo, self.hi = sorted((self.theta0, self.theta1))

    def _theta(self, tau):
        return self.theta0 + np.asarray(tau) * self.dtheta

    def point(self, tau):
        th = self._theta(tau)
        return _pairs(self.cx + self.rx * np.cos(th), self.cy + self.ry * np.sin(th))

    def velocity(self, tau):
        th = self._theta(tau)
        return _pairs(-self.rx * np.sin(th) * self.dtheta, self.ry * np.cos(th) * self.dtheta)

    def acceleration(self, tau):
        th = self._theta(tau)
        d2 = self.dtheta ** 2
        return _pairs(-self.rx * np.cos(th) * d2, -self.ry * np.sin(th) * d2)

    def taus_of_t(self, ts: np.ndarray) -> np.ndarray:
        """Parameter where the tangent is orthogonal to (1-t, t), per t, or NaN off the arc.

        The angle is ``atan2(t ry, (1-t) rx)`` up to a multiple of pi.  The monotone
        split keeps the arc inside one quadrant, so only the shift nearest the middle
        of the angle range can land in it.  Rounding may leave tau up to about 1e-12
        outside [0, 1]; :meth:`ContourBranch.taus_at` clamps it to the branch.
        """
        base = _libm(math.atan2, ts * self.ry, (1.0 - ts) * self.rx)
        th = base + np.rint(((self.lo + self.hi) / 2 - base) / math.pi) * math.pi
        landed = (th >= self.lo - 1e-12) & (th <= self.hi + 1e-12)
        return np.where(landed, (th - self.theta0) / self.dtheta, np.nan)

    def translated(self, dx, dy):
        return _ArcGeometry(self.cx + dx, self.cy + dy, self.rx, self.ry, self.theta0, self.theta1)


class _SplineGeometry:
    """Cubic spline through the samples, parametrized uniformly on [0, 1]."""

    def __init__(self, samples: np.ndarray):
        from scipy.interpolate import CubicSpline  # loaded by sampled contours only

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

    @functools.cached_property
    def branches(self) -> tuple[ContourBranch, ...]:
        """:func:`contour_branches`, split once per contour; a tuple, so no caller can change it."""
        return tuple(_split_at_inflections(self))

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


def _projection(p: np.ndarray, t):
    """w = point . (1-t, t) for points in the last axis of ``p``."""
    return p[..., 0] * (1.0 - t) + p[..., 1] * t


def orthogonal_intersections(c: Contour, t: float) -> list[tuple[float, np.ndarray, float]]:
    """All (tau, point, w) where the direction (1-t, t) meets the contour orthogonally.

    The hits of the contour's branches (:meth:`ContourBranch.tau_at`) plus the
    contour endpoints whose orthogonality t lies within 1e-9 of t, without
    repeats closer than 1e-9 in tau; ``w`` is the projection point . (1-t, t).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    taus = [b.tau_at(t) for b in c.branches]
    taus += [end for end in (0.0, 1.0) if abs(t_of_orthogonality(c, end) - t) <= 1e-9]
    out = []
    seen: list[float] = []
    for tau in sorted(tau for tau in taus if not math.isnan(tau)):
        if any(abs(tau - s) <= 1e-9 for s in seen):
            continue
        seen.append(tau)
        p = c.point(tau)
        out.append((tau, p, float(_projection(p, t))))
    return out


def position_predict(contours, t: float) -> list[float]:
    """Candidate finite diagram coordinates of the combined function at t.

    Projections of all orthogonal intersections, contour endpoints included.
    The mesh diagram coordinates must land within mesh tolerance of this set;
    the set may be larger.
    """
    ws = [w for c in contours for _tau, _p, w in orthogonal_intersections(c, t)]
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

    def taus_at(self, ts) -> np.ndarray:
        """Parameter of the orthogonal hit at each t, NaN outside the branch domain.

        Closed form on arcs.  On sampled contours, one Brent root per t (xtol 1e-13)
        over the branch, where the orthogonality profile is monotone.
        """
        ts = np.asarray(ts, dtype=np.float64)
        lo, hi = self.t_min, self.t_max
        if self.kind == "constant":
            return np.full(ts.shape, np.nan)
        inside = (ts >= lo - 1e-12) & (ts <= hi + 1e-12)
        t_in = np.minimum(np.maximum(ts, lo), hi)
        if self.contour.is_analytic:
            taus = self.contour.geometry.taus_of_t(t_in)
            inside &= (taus >= self.tau_lo - 1e-9) & (taus <= self.tau_hi + 1e-9)
            return np.where(inside, np.minimum(np.maximum(taus, self.tau_lo), self.tau_hi), np.nan)
        c = self.contour
        t_a, t_b = t_of_orthogonality(c, self.tau_lo), t_of_orthogonality(c, self.tau_hi)
        taus = np.full(ts.shape, np.nan)
        for k in np.flatnonzero(inside).tolist():
            t = float(t_in[k])
            if t_a == t:
                taus[k] = self.tau_lo
            elif t_b == t:
                taus[k] = self.tau_hi
            elif (t_a - t) * (t_b - t) <= 0.0:
                taus[k] = _brentq(lambda x: t_of_orthogonality(c, x) - t,
                                  self.tau_lo, self.tau_hi, xtol=1e-13)
        return taus

    def hits(self, ts) -> "_Hits":
        """Points, projections and osculating data of the hits at each t."""
        ts = np.asarray(ts, dtype=np.float64)
        return _Hits(self, ts, self.taus_at(ts))

    def tau_at(self, t: float) -> float:
        """Parameter of the orthogonal hit at t, or NaN outside the branch domain."""
        return float(self.taus_at([t])[0])

    def point_at(self, t: float) -> np.ndarray:
        return self.hits([t]).p[0]

    def w_at(self, t: float) -> float:
        return float(self.hits([t]).w[0])

    def osculating_at(self, t: float) -> OsculatingData | None:
        tau = self.tau_at(t)
        if math.isnan(tau):
            return None
        return osculating(self.contour, tau)


def contour_branches(c: Contour) -> list[ContourBranch]:
    """Split a contour at inflections into monotone branches; straight runs
    become constant branches carrying their single orthogonal direction."""
    return list(c.branches)


def _split_at_inflections(c: Contour) -> list[ContourBranch]:
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
    flips = (small[:-1] != small[1:]) | (~small[:-1] & (kappa[:-1] * kappa[1:] < 0))
    for i in np.flatnonzero(flips).tolist():
        if small[i] != small[i + 1]:
            cuts.append(float(grid[i + 1] if small[i + 1] else grid[i]))
        else:
            cuts.append(_brentq(cross_of, grid[i], grid[i + 1], xtol=1e-12))
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


class _Hits:
    """Orthogonal hits of one branch at an array of t, NaN rows where it has none.

    ``p`` holds the points and ``w`` their projections.  The osculating data
    (x-signed radius ``ell``, center ``cx``, ``cy``) is computed on first use
    and stays NaN below the curvature floor and where the estimate is
    unstable; ``unstable`` records the latter instead of raising.
    """

    def __init__(self, branch: ContourBranch, ts: np.ndarray, tau: np.ndarray):
        self.branch, self.ts, self.tau, self.unstable = branch, ts, tau, False

    @functools.cached_property
    def p(self) -> np.ndarray:
        return self.branch.contour.point(self.tau)  # NaN in, NaN out

    @functools.cached_property
    def w(self) -> np.ndarray:
        return _projection(self.p, self.ts)

    @functools.cached_property
    def _osc(self) -> np.ndarray:
        o = _osculation(self.branch.contour, self.tau)
        self.unstable = not o.stable[~np.isnan(self.tau)].all()
        return np.where(o.stable, [o.ell, o.center[:, 0], o.center[:, 1]], np.nan)

    ell = property(lambda self: self._osc[0])
    cx = property(lambda self: self._osc[1])
    cy = property(lambda self: self._osc[2])


def _angles(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of theta = atan2(t, 1-t), the angle of the direction (1-t, t)."""
    theta = _libm(math.atan2, ts, 1.0 - ts)
    return _libm(math.cos, theta), _libm(math.sin, theta)


# The special-value conditions: each maps the hits of its branches and the
# angles of the same t to an array that vanishes where the condition holds.


def _equal_projection(hits, angles):
    """w_i = w_j: two hits share the projection value."""
    a, b = hits
    return a.w - b.w


def _gap_ratio(hits, angles, ratio):
    """w_i - w_j = ratio (w_k - w_l): two projected gaps at a fixed ratio."""
    a, b, c, d = hits
    return (a.w - b.w) - ratio * (c.w - d.w)


def _equal_radius(hits, angles):
    """Equal x-signed osculating radii."""
    a, b = hits
    return a.ell - b.ell


def _angle_derivative(hits, angles):
    """(cos - sin)(ell_i - ell_j) - ((y_i - y_j) - (x_i - x_j)) over the osculating centers.

    On the osculating model this is -(cos + sin)^2 times d(w_i - w_j)/d(theta).
    """
    a, b = hits
    cos, sin = angles
    return (cos - sin) * (a.ell - b.ell) - ((a.cy - b.cy) - (a.cx - b.cx))


def cost_derivative(b1: ContourBranch, b2: ContourBranch, t: float) -> float:
    """Derivative in the angle theta = arctan(t/(1-t)) of the projected gap w1 - w2.

    Uses the osculating model of each branch at its orthogonal hit:
    d(w_i)/d(theta) = (y_i - x_i + ell_i (sin - cos)) / (cos + sin)^2.
    Zero exactly at the osculating-formula breakpoints.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly inside (0, 1)")
    ts = np.array([t])
    hits = [b1.hits(ts), b2.hits(ts)]
    for branch, h in zip((b1, b2), hits):
        if math.isnan(h.tau[0]):
            raise ValueError(f"branch of {branch.contour.id!r} has no orthogonal hit at t={t}")
        if math.isnan(h.ell[0]):
            osculating(branch.contour, float(h.tau[0]))  # raises for unstable data
            raise ValueError(
                f"signed radius undefined (curvature below floor) on {branch.contour.id!r} at t={t}"
            )
    cos, sin = _angles(ts)
    return float(-_angle_derivative(hits, (cos, sin))[0] / (cos[0] + sin[0]) ** 2)


def _chebyshev_nodes(lo: float, hi: float, n: int = 17) -> list[float]:
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return sorted(mid + half * math.cos((2 * i + 1) * math.pi / (2 * n)) for i in range(n))


def _scan_roots(fn, ts: np.ndarray, values: np.ndarray):
    """Brackets where a sample is 0 or changes sign to the next, both not NaN, polished with Brent's method."""
    a, b = values[:-1], values[1:]
    brackets = np.flatnonzero(~(np.isnan(a) | np.isnan(b)) & ((a == 0.0) | (a * b < 0)))
    roots = [float(ts[i]) if a[i] == 0.0
             else _brentq(fn, ts[i], ts[i + 1], xtol=1e-12) for i in brackets]
    if len(values) and values[-1] == 0.0:
        roots.append(float(ts[-1]))
    return roots


class _BranchTables:
    """Hits of every monotone branch as arrays over one shared t-grid.

    :meth:`evaluate` runs a condition on these tables to bracket its roots,
    and on one-element hits at a single t to polish them.  ``unstable``
    collects the branches whose osculating data was unstable anywhere it was
    evaluated.
    """

    def __init__(self, branches: list[ContourBranch], grid_size: int):
        self.branches = branches
        self.ts = np.linspace(0.0, 1.0, grid_size)
        self.angles = _angles(self.ts)
        self.hits = []
        for b in branches:
            margin = 1e-9 + 1e-6 * (b.t_max - b.t_min)
            inside = (self.ts >= b.t_min + margin) & (self.ts <= b.t_max - margin)
            self.hits.append(_Hits(b, self.ts, np.where(inside, b.taus_at(self.ts), np.nan)))
        self.unstable = [False] * len(branches)

    def overlap(self, *indices) -> tuple[float, float]:
        lo = max(self.branches[i].t_min for i in indices)
        hi = min(self.branches[i].t_max for i in indices)
        return lo, hi

    def coincident(self, i: int, j: int) -> bool:
        d = self.hits[i].p - self.hits[j].p
        both = ~np.isnan(d[:, 0])
        if not np.any(both):
            return True
        return bool(np.max(np.hypot(d[both, 0], d[both, 1])) < _POINT_TOL)

    def evaluate(self, condition, indices, t: float | None = None):
        """(values, hits) of a condition over the grid, or at t alone."""
        if t is None:
            hits, angles = [self.hits[m] for m in indices], self.angles
        else:
            ts = np.array([t])
            hits, angles = [self.branches[m].hits(ts) for m in indices], _angles(ts)
        values = condition(hits, angles)
        for m, h in zip(indices, hits):
            self.unstable[m] |= h.unstable
        return values, hits


def special_values(contours_phi, contours_psi) -> list[SpecialValue]:
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

    branches = [b for c in contours for b in c.branches]
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

    tables = _BranchTables(mono, _T_GRID_SIZE)
    pairs = [(i, j) for i, j in itertools.combinations(range(len(mono)), 2)
             if tables.overlap(i, j)[0] < tables.overlap(i, j)[1] and not tables.coincident(i, j)]
    quads = [(i, j, k, l) for (i, j), (k, l) in itertools.combinations(pairs, 2)
             if tables.overlap(i, j, k, l)[0] < tables.overlap(i, j, k, l)[1]]
    # Each group is checked in order up to its first condition that holds on a
    # whole interval: with equal radii the angle condition compares centers only.
    groups = ([[("equal-projection", _equal_projection, ij)] for ij in pairs]
              + [[(f"gap-ratio {r}", functools.partial(_gap_ratio, ratio=r), q)]
                 for q in quads for r in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0)]
              + [[("equal-signed-radius", _equal_radius, ij),
                  ("angle-derivative", _angle_derivative, ij)] for ij in pairs])
    root_condition = {"equal-projection": "equal-cost-breakpoint", "equal-signed-radius":
                      "osculating-equality", "angle-derivative": "osculating-formula"}

    grid_index = {t: k for k, t in enumerate(tables.ts.tolist())}

    def osc_warnings(indices):
        return ("osculating-unstable",) if any(tables.unstable[m] for m in indices) else ()

    for group in groups:
        for relation, condition, indices in group:
            values, _ = tables.evaluate(condition, indices)
            finite = values[np.isfinite(values)]
            if len(finite) >= 8 and float(np.max(np.abs(finite))) < _FLAT_TOL:
                lo, hi = tables.overlap(*indices)
                families.append(SpecialValue(
                    (lo + hi) / 2, "degenerate-family",
                    ({"interval": [lo, hi], "branches": [mono[m].contour.id for m in indices],
                      "relation": relation},), osc_warnings(indices)))
                break
            probes = {}

            def polish(t):
                if t in grid_index:  # a bracket end: the table holds the same value
                    return float(values[grid_index[t]])
                probes[t] = tables.evaluate(condition, indices, t)
                return float(probes[t][0][0])

            for root in _scan_roots(polish, tables.ts, values):
                value, hits = probes.get(root) or tables.evaluate(condition, indices, root)
                p = [h.p[0] for h in hits]
                dist = lambda a, b: np.linalg.norm(p[a] - p[b])
                if len(p) == 4:
                    if ((dist(0, 2) < _POINT_TOL and dist(1, 3) < _POINT_TOL)
                            or (dist(0, 3) < _POINT_TOL and dist(1, 2) < _POINT_TOL)):
                        continue
                elif not dist(0, 1) > _POINT_TOL:
                    continue
                extra = ()
                if relation == "angle-derivative":
                    if math.isnan(value[0]):
                        continue
                    a, b = hits
                    d_ell = float(a.ell[0] - b.ell[0])
                    q = float((a.cy[0] - b.cy[0]) - (a.cx[0] - b.cx[0])) / d_ell if d_ell else math.nan
                    t_cf = closed_form_special_t(q) if math.isfinite(q) and root <= 0.5 else None
                    if t_cf is not None and abs(t_cf - root) > DEDUP_T_TOL:
                        extra = ("closed-form-mismatch",)
                witnesses = [{"contour": mono[m].contour.id, "point": [float(x) for x in pm]}
                             for m, pm in zip(indices, p)]
                add(root, root_condition.get(relation, "equal-cost-breakpoint"), witnesses,
                    osc_warnings(indices) + extra)

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
    interval.  The gap is the Lipschitz bound over the evaluated ``t``:
    between consecutive ``t_i < t_{i+1}`` no value of g exceeds the envelope
    bound ``(g_i + g_{i+1} + L*(t_{i+1} - t_i))/2`` of :mod:`cmdist.convex`,
    and the special values always hold 0 and 1, so these cells cover
    [0, 1].  With ``cross_check`` the same curve then runs the search of
    :func:`cmdist.convex.cmd_maximize` down to ``eps``, which must be
    positive, and the gap, ``evaluations`` and ``trace`` cover both stages.
    """
    specials = special_values(contours_f, contours_h)
    ts: list[float] = []
    for sv in specials:
        if sv.condition == "degenerate-family":
            interval = sv.witnesses[0]["interval"]
            ts.extend(_chebyshev_nodes(interval[0], interval[1]))
        else:
            ts.append(sv.t)
    g = _Curve(f, h, k)
    if not math.isinf(g(0.0)):
        for t in sorted(set(min(max(t, 0.0), 1.0) for t in ts)):
            g(t)
    note = ("gap is the Lipschitz bound between the evaluated t; the special-value "
            "characterization puts the maximizer among them")
    if cross_check:
        g._search(eps)
        note = f"cross-checked by branch-and-bound on the same curve (eps={eps:g}); {note}"
    return g.result("special-values", note)


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


def analytic_contours(fixture_name: str) -> list[Contour]:
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
        arc_contour((0.0, 0.0), (a, c), (th0, th1), f"{fixture_name}:{tag}", fixture_name)
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


def classify_pareto(fixture_name: str, point) -> ParetoClassification | None:
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
    if abs(y) > _POINT_TOL:
        return None
    if (x / a) * (z / c) < -_POINT_TOL:
        return None
    theta = math.atan2(z / c, x / a)
    lam1, lam2 = c * math.cos(theta), a * math.sin(theta)
    if lam1 < 0 or lam2 < 0:
        lam1, lam2 = -lam1, -lam2
    lam1, lam2 = max(lam1, 0.0), max(lam2, 0.0)
    total = lam1 + lam2
    return ParetoClassification((x, y, z), (lam1 / total, lam2 / total))
