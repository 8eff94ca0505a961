"""Numerical value distribution for entire functions with polynomial-times-
exponential derivative: critical rays, asymptotic values, a-point location
by argument-principle subdivision, sector membership reports, counting
functions, canonical products, kernel identities, and an exhaustive
feasibility sweep over accumulation-ray configurations."""

from .asymptotics import (AsymptoticData, accumulation_rays_analytic,
                          asymptotic_values, critical_rays)
from .catalog import (example, example1, example2, example_region,
                      exp_function, square_minus_one)
from .contour import Box, WindingResult
from .errors import (BoundViolated, BoundaryTooClose, CounterexampleFound,
                     DegreeZero, DerivativeVanishes, EmptyRaySet,
                     NearCriticalZero, NoConvergence, NonPositiveLogM,
                     OverflowRegion, SectorRootsError, TailTooLarge,
                     ToleranceNotMet)
from .kernels import (KernelBoundsReport, KernelParams, kernel_K,
                      kernel_bounds_check, kernel_grid_report,
                      kernel_integral_quadrature, kernel_integral_residue,
                      kernel_report)
from .polyexp import (PolyExpFunction, Polynomial, ScaledComplex, eval_f,
                      function_from_json, function_to_json, load_function)
from .rayconfig import (AccumulationConfig, EnumerationReport,
                        enumerate_configs)
from .rootfinder import RootRecord, SearchResult, find_a_points, roots_to_csv
from .sectorgeom import (RaySet, Sector, SectorReport, angle_distance,
                         minimal_cone, sector_report, separated, wrap_angle)
from .valuedist import (CanonicalProduct, CountingTable,
                        canonical_one_point_rays, canonical_product_eval,
                        circle_log_mean, counting_functions,
                        find_product_a_points, jensen_defect,
                        log_max_modulus, order_estimate)

__version__ = "0.1.0"

__all__ = [
    "AccumulationConfig", "AsymptoticData", "BoundViolated",
    "BoundaryTooClose", "Box", "CanonicalProduct", "CountingTable",
    "CounterexampleFound", "DegreeZero", "DerivativeVanishes", "EmptyRaySet",
    "EnumerationReport", "KernelBoundsReport", "KernelParams",
    "NearCriticalZero", "NoConvergence", "NonPositiveLogM", "OverflowRegion",
    "PolyExpFunction", "Polynomial", "RaySet", "RootRecord", "ScaledComplex",
    "SearchResult", "Sector", "SectorReport", "SectorRootsError",
    "TailTooLarge", "ToleranceNotMet", "WindingResult",
    "accumulation_rays_analytic", "angle_distance", "asymptotic_values",
    "canonical_one_point_rays", "canonical_product_eval", "circle_log_mean",
    "counting_functions", "critical_rays", "enumerate_configs", "eval_f",
    "example", "example1", "example2", "example_region", "exp_function",
    "find_a_points", "find_product_a_points", "function_from_json",
    "function_to_json", "jensen_defect", "kernel_K", "kernel_bounds_check",
    "kernel_grid_report", "kernel_integral_quadrature",
    "kernel_integral_residue", "kernel_report", "load_function",
    "log_max_modulus", "minimal_cone", "order_estimate", "roots_to_csv",
    "sector_report", "separated", "square_minus_one", "wrap_angle",
]
