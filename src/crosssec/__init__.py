"""Cross-section design toolkit for strip-constrained inflated membranes.

An inflatable tube whose cross section is pinched by inextensible strips
bulges into one central lobe flanked by two side lobes.  This package
computes that geometry in both directions: closed-form fabrication
parameters from a target envelope (inverse), and the inflated shape from
fabrication parameters (forward, one Newton solve per channel).  Analysis
helpers cover constant-perimeter design sweeps, an ergonomic flatness
index, eversion force and measured-versus-model area comparison.
"""

from .analysis import (ErgonomicReport, SweepRecord, area_ratio,
                       ergonomic_index, eversion_force,
                       sweep_constant_perimeter, total_area)
from ._arcmath import center_area, center_area_derivative, strip_fit_residual
from .errors import (CrossSecError, DegeneratePolygon, InfeasibleSpec,
                     NoBracket, NonConvergence, OracleMismatch, SolverError)
from .geometry import (CenterChannel, CrossSection, DesignSpec,
                       FabricationParams, FeasibilityReport, SideChannel,
                       build_cross_section, cross_section_outline,
                       feasibility_discriminant, inverse_design,
                       membrane_curvature, side_channel_polygon,
                       validate_spec)
from .polygon import Polygon, arc_points
from .render import render_svg
from .solver import (OracleResult, area_max_oracle, forward_geometry,
                     solve_center_arc_angle, solve_side_height)

__version__ = "0.1.0"

__all__ = [
    "CenterChannel",
    "CrossSecError",
    "CrossSection",
    "DegeneratePolygon",
    "DesignSpec",
    "ErgonomicReport",
    "FabricationParams",
    "FeasibilityReport",
    "InfeasibleSpec",
    "NoBracket",
    "NonConvergence",
    "OracleMismatch",
    "OracleResult",
    "Polygon",
    "SideChannel",
    "SolverError",
    "SweepRecord",
    "arc_points",
    "area_max_oracle",
    "area_ratio",
    "build_cross_section",
    "center_area",
    "center_area_derivative",
    "cross_section_outline",
    "ergonomic_index",
    "eversion_force",
    "feasibility_discriminant",
    "forward_geometry",
    "inverse_design",
    "membrane_curvature",
    "render_svg",
    "side_channel_polygon",
    "solve_center_arc_angle",
    "solve_side_height",
    "strip_fit_residual",
    "sweep_constant_perimeter",
    "total_area",
    "validate_spec",
    "__version__",
]
