"""Hierarchical power-series solver for 2D TM-z integral equations.

The pipeline: discretize a contour or cross section (``geometry``),
evaluate integral-equation matrix entries (``kernels``), compress the
far field level by level with adaptive cross approximation
(``compression``, ``hmatrix``), rescale by the exact inverse of the
near field (``scaling``), then solve with a fixed-depth
power-series expansion (``pss``) or a Krylov/dense reference
(``solvers``), and reduce currents to echo width (``postproc``).
"""

from .compression import LowRankBlock, aca, recompress
from .geometry import (
    ClusterTree,
    Mesh,
    TreeNode,
    build_cluster_tree,
    discretize_circle,
    discretize_disk,
    discretize_strip,
    is_admissible,
    write_mesh_csv,
)
from .hmatrix import BlockPartition, HMatrix, MemoryReport, assemble, build_block_partition, memory_report
from .kernels import Excitation, KernelSpec, assemble_dense, entry_function, rhs, z_block
from .postproc import (
    RcsCurve,
    bistatic_rcs,
    rcs_rms_error,
    series_dielectric_cylinder,
    series_pec_cylinder,
)
from .pss import (
    ConvergenceError, FactorChain, NormEstimate, PssConfig, SolveReport, build_factor_chain,
    estimate_spectral_radius, expected_solve_counts, solve,
)
from .scaling import ScaledSystem, compute_scaling
from .solvers import IterativeReport, gmres, lu_solve

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "ClusterTree",
    "ConvergenceError",
    "Excitation",
    "FactorChain",
    "HMatrix",
    "IterativeReport",
    "KernelSpec",
    "LowRankBlock",
    "MemoryReport",
    "Mesh",
    "NormEstimate",
    "PssConfig",
    "RcsCurve",
    "ScaledSystem",
    "SolveReport",
    "TreeNode",
    "aca",
    "assemble",
    "assemble_dense",
    "bistatic_rcs",
    "build_block_partition",
    "build_cluster_tree",
    "build_factor_chain",
    "compute_scaling",
    "discretize_circle",
    "discretize_disk",
    "discretize_strip",
    "entry_function",
    "estimate_spectral_radius",
    "expected_solve_counts",
    "gmres",
    "is_admissible",
    "lu_solve",
    "memory_report",
    "rcs_rms_error",
    "recompress",
    "rhs",
    "series_dielectric_cylinder",
    "series_pec_cylinder",
    "solve",
    "write_mesh_csv",
    "z_block",
]
