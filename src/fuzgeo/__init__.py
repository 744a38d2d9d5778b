"""fuzgeo: a computational kernel for fuzzy plane geometry.

Fuzzy points with circular or elliptical spreads, the fuzzy distance
between them as an alpha-cut interval family, the scale-indexed fuzzy
closeness metric, the fuzzy Hausdorff distance, and graded
equidistant sets with conic classification.
"""

from .core import FuzzyNumber, FuzzyPoint, Point2, Spread, TriangularNumber, TriangularTriple
from .distance import DistanceTable, FuzzyDistance, fuzzy_distance, prop_core_angle
from .hausdorff import HausdorffResult, fuzzy_hausdorff
from .lines import LineSpec, ProjectedFuzzyNumber, project_onto_line
from .metric import (MINIMUM, PRODUCT, FuzzyCloseness, KSAxiomReport,
                     MetricAxiomReport, TNorm, check_ks_axioms,
                     check_metric_axioms, closeness, metric_md)
from .midset import (Branch, ConicCoefficients, InvarianceReport, MidsetEntry,
                     MidsetResult, OverlapCase, Thresholds, active_branches,
                     alpha_thresholds, classify_conic, compute_midset, conic_class,
                     conic_coefficients, equidistant_membership, invariance_check,
                     overlap_case, sample_branch, support_bbox)
from .scene import GridSpec, Scene, SceneError, load_scene, parse_scene

__version__ = "0.1.0"

__all__ = [
    "Branch", "ConicCoefficients", "DistanceTable",
    "FuzzyCloseness", "FuzzyDistance", "FuzzyNumber", "FuzzyPoint", "GridSpec",
    "HausdorffResult", "InvarianceReport", "KSAxiomReport", "LineSpec",
    "MetricAxiomReport", "MidsetEntry", "MidsetResult", "MINIMUM", "OverlapCase",
    "Point2", "PRODUCT", "ProjectedFuzzyNumber", "Scene", "SceneError", "Spread",
    "Thresholds", "TNorm", "TriangularNumber", "TriangularTriple",
    "active_branches", "alpha_thresholds", "check_ks_axioms",
    "check_metric_axioms", "classify_conic", "closeness", "compute_midset",
    "conic_class", "conic_coefficients", "equidistant_membership", "fuzzy_distance",
    "fuzzy_hausdorff", "invariance_check", "load_scene", "metric_md", "overlap_case",
    "parse_scene", "project_onto_line", "prop_core_angle", "sample_branch",
    "support_bbox",
]
