"""Independent checks on the benchmark's outputs.

Nothing here calls into ``cmdist``: the expected values come from closed-form
curves of the fixtures and from a bottleneck distance computed by a different
algorithm (threshold search over realized costs with SciPy's bipartite
matching as the feasibility test).  Each check returns a list of problems;
an empty list means the output passed.

NumPy and SciPy are imported inside :func:`bottleneck_reference`, so that
importing this module adds nothing to the measured set-up time.
"""

from __future__ import annotations

import math

TOL = 0.05       # mesh discretization allowance on every analytic curve
NOISE = 0.1      # amplitude of the uniform vertex noise in noisy-deg0


def sphere_ellipsoid_deg0(t: float) -> float:
    """g(t) in degree 0 for sphere vs ellipsoid(2,1) under (x, z).

    Each diagram has one essential point born at the minimum of (1-t)x + tz,
    which is -sqrt((1-t)^2 + t^2) on the sphere and -sqrt(4(1-t)^2 + t^2)
    on the ellipsoid.
    """
    return math.sqrt(4 * (1 - t) ** 2 + t ** 2) - math.sqrt((1 - t) ** 2 + t ** 2)


def cone_disk_deg1(t: float) -> float:
    """g(t) in degree 1 for cone vs disk: the cone's loop lives on [|1-2t|, 1]."""
    return min(t, 1 - t)


def curve_problems(label: str, trace, curve, tol: float) -> list[str]:
    """Every (t, g) of ``trace`` must lie within ``tol`` of ``curve(t)``."""
    out = []
    for t, g in trace:
        want = curve(t)
        if not abs(g - want) <= tol:
            out.append(f"{label}: g({t:.6g}) = {g!r}, expected {want:.6g} +- {tol:g}")
    return out


def at_most_problems(label: str, values, limit: float) -> list[str]:
    return [f"{label}: {v!r} exceeds {limit:g}" for v in values if not v <= limit]


# ---------------------------------------------------------------------------
# Reference bottleneck distance


def bottleneck_reference(points1, points2) -> float:
    """Exact bottleneck distance between two multisets of (birth, death) rows.

    Rows with infinite death must match each other (sorted births pair up
    optimally on a line).  Finite rows use the diagonal-augmented bipartite
    graph: point-point edges cost the L-infinity distance, point-diagonal
    edges half the persistence, diagonal-diagonal edges nothing.  The value
    is the smallest realized cost at which a perfect matching exists.
    """
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    def split(points):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        essential = np.isinf(pts[:, 1])
        return pts[~essential], np.sort(pts[essential, 0])

    f1, e1 = split(points1)
    f2, e2 = split(points2)
    if len(e1) != len(e2):
        return math.inf
    ess = float(np.abs(e1 - e2).max()) if len(e1) else 0.0
    n1, n2 = len(f1), len(f2)
    if n1 + n2 == 0:
        return ess
    pair = np.maximum(np.abs(f1[:, None, 0] - f2[None, :, 0]),
                      np.abs(f1[:, None, 1] - f2[None, :, 1]))
    diag1 = (f1[:, 1] - f1[:, 0]) / 2
    diag2 = (f2[:, 1] - f2[:, 0]) / 2
    costs = np.unique(np.concatenate([pair.ravel(), diag1, diag2, [0.0]]))

    def feasible(lam: float) -> bool:
        n = n1 + n2
        adj = np.zeros((n, n), dtype=bool)
        adj[:n1, :n2] = pair <= lam
        adj[np.arange(n1), n2 + np.arange(n1)] = diag1 <= lam
        adj[n1 + np.arange(n2), np.arange(n2)] = diag2 <= lam
        adj[n1:, n2:] = True
        match = maximum_bipartite_matching(csr_matrix(adj.astype(np.int8)), perm_type="column")
        return bool(np.all(match >= 0))

    lo, hi = 0, len(costs) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(costs[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(ess, float(costs[lo]))


def exact_problems(label: str, got: float, want: float) -> list[str]:
    """Bottleneck values are exact in float arithmetic, so no tolerance."""
    return [] if got == want else [f"{label}: {got!r} != reference {want!r}"]
