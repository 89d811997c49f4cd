"""Discrete indefinite affine minimal surfaces from pairs of polygonal
curves: Lelieuvre integration, singularity detection and classification,
bilinear-patch meshing, and a smooth-theory oracle."""

__version__ = "0.1.0"

from .net_core import (AsymptoticNet, ConormalNet, GridDomain, PolyCurve,
                       conormal, discrete_derivative, integrate_net,
                       moutard_residual, star_planarity_residual,
                       validate_generic_position)
from .singularity import (Configuration, EdgeIndex, Kind, MetricField,
                          SingularEdge, SingularPolyline, SingularVertex,
                          admissibility_check, analyze_net, classify_vertex,
                          extract_polylines, halfplane_edge_test,
                          m_from_positions, metric_field, omega_quad, orient,
                          ray_crossing_test, singular_edges,
                          singular_vertices, star_sidedness_test)
from .smooth_oracle import (SmoothCurvePair, SmoothSingularPoint,
                            builtin_pair, check_regularity, curvature_gap,
                            find_swallowtails, lambda_along_curve,
                            omega_smooth, omega_smooth_grid, sample_pair,
                            trace_singular_curve)
from .surface_mesh import (BilinearPatch, TriangleMesh, bilinear_point,
                           compatibility_residual, export_obj, patch_for_quad,
                           tessellate)

__all__ = [
    "AsymptoticNet", "BilinearPatch", "Configuration", "ConormalNet",
    "EdgeIndex", "GridDomain", "Kind", "MetricField", "PolyCurve",
    "SingularEdge", "SingularPolyline", "SingularVertex", "SmoothCurvePair",
    "SmoothSingularPoint", "TriangleMesh",
    "admissibility_check", "analyze_net", "bilinear_point", "builtin_pair",
    "check_regularity", "classify_vertex", "compatibility_residual",
    "conormal", "curvature_gap", "discrete_derivative", "export_obj",
    "extract_polylines", "find_swallowtails", "halfplane_edge_test",
    "integrate_net", "lambda_along_curve", "m_from_positions",
    "metric_field", "moutard_residual", "omega_quad", "omega_smooth",
    "omega_smooth_grid", "orient", "patch_for_quad", "ray_crossing_test",
    "sample_pair", "singular_edges", "singular_vertices",
    "star_planarity_residual", "star_sidedness_test", "tessellate",
    "trace_singular_curve", "validate_generic_position",
]
