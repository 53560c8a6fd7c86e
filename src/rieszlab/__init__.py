"""Numerical laboratory for weak-type bounds of homogeneous singular kernels.

The package computes exact 1-D level sets, Monte Carlo level sets in any
dimension, dyadic decompositions, cancellation and exhaustion constructions,
and derivative-free searches over point-mass configurations.
"""

from .constructions import (
    CancellationResult,
    ExhaustionSet,
    annulus_kernel_l1,
    build_exhaustion,
    cancellation_integral,
    eval_h,
)
from .decomposition import (
    CellUnion,
    CZDecomposition,
    DyadicCube,
    GridFunction,
    cells_above,
    cells_from_json,
    cells_to_json,
    cz_decompose,
    grid_from_json,
    grid_to_json,
    whitney_decompose,
)
from .errors import DomainError, PoleError, ToleranceError
from .kernels import (
    KernelSpec,
    ball_volume,
    dimensional_constant,
    eval_kernel,
    hilbert,
    kernel_values,
    omega_sup,
    riesz,
    second_order,
    sphere_l1_norm,
    sphere_l1_norm_mc,
    sphere_l1_quadrature,
    sphere_surface_area,
)
from .levelset import (
    hilbert_levelset_exact,
    hilbert_levelset_sides,
    levelset_measure,
    mc_levelset,
    single_mass_levelset_exact,
    unit_levelset_constant,
    weaktype_functional,
)
from .measures import (
    PointMassMeasure,
    eval_transform,
    measure_from_json,
    measure_to_json,
    merge_duplicate_centers,
    total_variation,
    transform_many,
)
from .rng import Estimate
from .search import (
    SearchProblem,
    SearchResult,
    SweepRow,
    dimension_sweep,
    optimize,
)

__version__ = "0.1.0"

__all__ = [
    "CancellationResult",
    "CellUnion",
    "CZDecomposition",
    "DomainError",
    "DyadicCube",
    "ExhaustionSet",
    "Estimate",
    "GridFunction",
    "KernelSpec",
    "PointMassMeasure",
    "PoleError",
    "SearchProblem",
    "SearchResult",
    "SweepRow",
    "ToleranceError",
    "annulus_kernel_l1",
    "ball_volume",
    "build_exhaustion",
    "cancellation_integral",
    "cells_above",
    "cells_from_json",
    "cells_to_json",
    "cz_decompose",
    "dimension_sweep",
    "dimensional_constant",
    "eval_h",
    "eval_kernel",
    "eval_transform",
    "grid_from_json",
    "grid_to_json",
    "hilbert",
    "hilbert_levelset_exact",
    "hilbert_levelset_sides",
    "kernel_values",
    "levelset_measure",
    "mc_levelset",
    "measure_from_json",
    "measure_to_json",
    "merge_duplicate_centers",
    "omega_sup",
    "optimize",
    "riesz",
    "second_order",
    "single_mass_levelset_exact",
    "sphere_l1_norm",
    "sphere_l1_norm_mc",
    "sphere_l1_quadrature",
    "sphere_surface_area",
    "total_variation",
    "transform_many",
    "unit_levelset_constant",
    "weaktype_functional",
    "whitney_decompose",
]
