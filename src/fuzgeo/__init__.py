"""fuzgeo: a computational kernel for fuzzy plane geometry.

Fuzzy points with circular or elliptical spreads, the fuzzy distance
between them as an alpha-cut interval family, the scale-indexed fuzzy
closeness metric, the fuzzy Hausdorff distance, and graded
equidistant sets with conic classification.
"""

from .core import (FuzzyNumber, FuzzyPoint, Point2, Spread, TriangularNumber,
                   TriangularTriple, fuzzy_leq, tri_add)
from .distance import (DistanceMembershipParams, DistanceTable, FuzzyDistance, fuzzy_distance,
                       fuzzy_distances, prop_core_angle)
from .hausdorff import HausdorffResult, fuzzy_hausdorff
from .lines import LineSpec, ProjectedFuzzyNumber, classify_pair, project_onto_line
from .metric import (MINIMUM, PRODUCT, FuzzyCloseness, KSAxiomReport,
                     MetricAxiomReport, TNorm, check_ks_axioms,
                     check_metric_axioms, closeness, closeness_spread, metric_md)
from .midset import (Branch, ConicCoefficients, InvarianceReport, MidsetEntry,
                     MidsetResult, OverlapCase, Thresholds, active_branches,
                     alpha_thresholds, classify_conic, compute_midset, conic_class,
                     conic_coefficients, equidistant_membership, invariance_check,
                     overlap_case, sample_branch, sample_midset, support_bbox)
from .scene import GridSpec, Scene, SceneError, load_scene, parse_scene

__version__ = "0.1.0"

__all__ = [
    "Branch", "ConicCoefficients", "DistanceMembershipParams", "DistanceTable",
    "FuzzyCloseness", "FuzzyDistance", "FuzzyNumber", "FuzzyPoint", "GridSpec",
    "HausdorffResult", "InvarianceReport", "KSAxiomReport", "LineSpec",
    "MetricAxiomReport", "MidsetEntry", "MidsetResult", "MINIMUM", "OverlapCase",
    "Point2", "PRODUCT", "ProjectedFuzzyNumber", "Scene", "SceneError", "Spread",
    "Thresholds", "TNorm", "TriangularNumber", "TriangularTriple",
    "active_branches", "alpha_thresholds", "check_ks_axioms",
    "check_metric_axioms", "classify_conic", "classify_pair", "closeness",
    "closeness_spread", "compute_midset", "conic_class", "conic_coefficients",
    "equidistant_membership", "fuzzy_distance", "fuzzy_distances", "fuzzy_hausdorff",
    "fuzzy_leq", "invariance_check", "load_scene", "metric_md", "overlap_case",
    "parse_scene", "project_onto_line", "prop_core_angle", "sample_branch",
    "sample_midset", "support_bbox", "tri_add",
]
