"""Dimension toolkit for shrinking parallelepiped targets under products
of beta-transformations.

The package is organised bottom-up:

- ``beta_dynamics``: cylinder combinatorics of a single transformation.
- ``polygons``: small convex-polygon helpers used by the planar lab.
- ``parallelepiped_geometry``: pivoted orthogonalisation and box bounds.
- ``hausdorff_content``: content formulas and mass distribution bounds.
- ``dimension_engine``: the dimension formula, exact and limit modes.
- ``numerical_lab``: planar verification of covers and measure bounds.
- ``cli_io``: the ``beta-targets`` command line entry point.
"""
from __future__ import annotations

from .beta_dynamics import (
    CylinderBlock,
    CylinderNode,
    FullSearchParams,
    Interval,
    count_admissible,
    count_full,
    count_full_in_interval,
    count_words,
    cylinder_blocks,
    cylinder_of_word,
    digits,
    enumerate_cylinders,
    find_full_in_interval,
    transform,
)
from .dimension_engine import (
    AxisFamily,
    DimensionReport,
    ExplicitTargets,
    LevelData,
    Rotated2DFamily,
    TargetSpec,
    closed_form_example,
    gamma_magnitudes,
    generate_target,
    s_n,
    s_star,
)
from .errors import (
    BetaTargetsError,
    ConfigError,
    ConsistencyError,
    DegenerateInputError,
    DomainError,
    ResourceLimitError,
    ScaleRangeError,
)
from .hausdorff_content import (
    ContentEstimate,
    SortedRectangle,
    brute_force_content_2d,
    content_sandwich,
    mdp_lower_bound,
    singular_value_function,
)
from .numerical_lab import (
    CoverScan,
    EnSet,
    MeasureBoundReport,
    MuMeasure,
    build_E_n,
    build_measure,
    cover_exponent_scan,
    empirical_cover_count,
    mu_ball_mass,
    predicted_cover_count,
    verify_measure_bound,
)
from .parallelepiped_geometry import (
    BetaSystem,
    Hyperrectangle,
    OrthoFrame,
    Parallelepiped,
    bounding_hyperrectangle,
    pivoted_orthogonalize,
    pivoted_orthogonalize_scaled,
    rotate2d,
    rotation_matrix,
    scale_by_f,
    volume,
)

__all__ = [
    "AxisFamily",
    "BetaSystem",
    "BetaTargetsError",
    "ConfigError",
    "ConsistencyError",
    "ContentEstimate",
    "CoverScan",
    "CylinderBlock",
    "CylinderNode",
    "DegenerateInputError",
    "DimensionReport",
    "DomainError",
    "EnSet",
    "ExplicitTargets",
    "FullSearchParams",
    "Hyperrectangle",
    "Interval",
    "LevelData",
    "MeasureBoundReport",
    "MuMeasure",
    "OrthoFrame",
    "Parallelepiped",
    "ResourceLimitError",
    "Rotated2DFamily",
    "ScaleRangeError",
    "SortedRectangle",
    "TargetSpec",
    "bounding_hyperrectangle",
    "brute_force_content_2d",
    "build_E_n",
    "build_measure",
    "closed_form_example",
    "content_sandwich",
    "count_admissible",
    "count_full",
    "count_full_in_interval",
    "count_words",
    "cover_exponent_scan",
    "cylinder_blocks",
    "cylinder_of_word",
    "digits",
    "empirical_cover_count",
    "enumerate_cylinders",
    "find_full_in_interval",
    "gamma_magnitudes",
    "generate_target",
    "mdp_lower_bound",
    "mu_ball_mass",
    "pivoted_orthogonalize",
    "pivoted_orthogonalize_scaled",
    "predicted_cover_count",
    "rotate2d",
    "rotation_matrix",
    "s_n",
    "s_star",
    "scale_by_f",
    "singular_value_function",
    "transform",
    "verify_measure_bound",
    "volume",
]

__version__ = "0.1.0"
