"""Convex matching distance for plane-valued functions on triangulated surfaces.

The one-parameter family (1-t)*phi1 + t*phi2 replaces the two-parameter
slice machinery of the classical matching distance; this package computes
persistence of the family members, maximizes the bottleneck distance over t
with a Lipschitz certificate, and exploits contour geometry (orthogonal
slices, osculating circles) to predict diagram coordinates and enumerate
the candidate maximizer set.
"""

from .complexes import (
    BiFunction,
    Filtration,
    MeshError,
    SimplicialComplex,
    VertexFunction,
    fixture,
    load_complex,
    save_complex,
)
from .convex import (
    CmdResult,
    SlicePoint,
    cmd_maximize,
    convex_combination,
    g_value,
    grid_scan,
    lipschitz_constant,
    matching_distance_lower_bound,
    matching_distance_scan,
    slice_function,
    slice_grid,
)
from .diagram import (
    DIAGONAL,
    DiagramPoint,
    PersistenceDiagram,
    bottleneck_distance,
    candidate_costs,
    point_distance,
)
from .pareto import (
    Contour,
    ContourBranch,
    ContourError,
    OsculatingData,
    ParetoClassification,
    SpecialValue,
    analytic_contours,
    arc_contour,
    classify_pareto,
    closed_form_special_t,
    cmd_via_special_values,
    contour_branches,
    cost_derivative,
    load_contours,
    orthogonal_intersections,
    osculating,
    position_predict,
    save_contours,
    special_values,
    t_of_orthogonality,
)
from .persistence import (
    PersistencePairing,
    compute_pairing,
    compute_persistence,
    lower_star_diagram,
    lower_star_filtration,
)

__version__ = "0.1.0"
