"""SSSP algorithms: the paper's RDBS plus every baseline it compares against."""

from .api import GPU_METHODS, METHOD_OPTIONS, METHODS, method_names, sssp
from .paths import (
    ShortestPathTree,
    build_parents,
    extract_path,
    shortest_path_tree,
    validate_path,
)
from .buckets import BucketInterval, DeltaController
from .cpu_pq_delta import CPUSpec, XEON_8269CY, pq_delta_star_sssp
from .delta_cpu import delta_stepping_cpu
from .errors import ConvergenceError
from .gpu_adds import adds_sssp
from .gpu_baseline import bl_sssp
from .gpu_harish import harish_narayanan_sssp
from .gpu_mlmq import mlmq_sssp
from .gpu_nearfar import nearfar_sssp
from .gpu_rdbs import default_delta, rdbs_sssp
from .landmarks import LandmarkOracle, build_landmark_oracle, select_landmarks
from .reference import bellman_ford, dijkstra
from .result import SSSPResult
from .validate import DistanceMismatch, scipy_distances, validate_distances

__all__ = [
    "sssp",
    "METHODS",
    "GPU_METHODS",
    "METHOD_OPTIONS",
    "method_names",
    "mlmq_sssp",
    "SSSPResult",
    "rdbs_sssp",
    "default_delta",
    "bl_sssp",
    "harish_narayanan_sssp",
    "nearfar_sssp",
    "adds_sssp",
    "delta_stepping_cpu",
    "pq_delta_star_sssp",
    "CPUSpec",
    "XEON_8269CY",
    "dijkstra",
    "bellman_ford",
    "DeltaController",
    "BucketInterval",
    "validate_distances",
    "scipy_distances",
    "DistanceMismatch",
    "ConvergenceError",
    "shortest_path_tree",
    "ShortestPathTree",
    "build_parents",
    "extract_path",
    "validate_path",
    "LandmarkOracle",
    "build_landmark_oracle",
    "select_landmarks",
]
