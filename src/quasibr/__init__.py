"""Numerical laboratory for generalized Bochner-Riesz means with
quasiradial distance functions under nonisotropic dilations."""

__version__ = "0.1.0"

from .dilation import DilationGroup, orbit_tangent
from .domains import (ConvexDomain, Disk, Superellipse, Polygon,
                      SampledDomain, regular_polygon, domain_from_config,
                      boundary_arc, BoundaryArc, smooth_approximate)
from .quasinorm import CompatiblePair, check_compatibility, eval_rho, \
    rho_lipschitz_probe
from .caps import CapDecomposition, cap_decomposition, refine_intervals, \
    decompose, check_invariants
from .tiling import Sector, Tiling, build_sectors, count_sum_overlaps, \
    count_ball_sum_overlaps, active_time_measure
from .bumps import smoothstep, plateau, phi0, BumpLibrary, Kernel, \
    full_annulus_symbol, symbol_to_kernel, kernel_build, \
    kernel_from_rho_symbol, kernel_annulus_l1
from .grid import (GridField, bochner_riesz_mean, dyadic_decompose_br,
                   square_function_annulus, square_function_glambda,
                   standard_family, delta_scaling_experiment,
                   hormander_sobolev_norm)
from .maximal import RectangleFamily, nikodym_maximal, kernel_maximal, \
    weak11_probe
from .lwp import tile_projection_square_function, \
    dyadic_projection_square_function
from .errors import (ConfigError, GeometryError, IncompatiblePairError,
                     ResolutionError, ThresholdFailure)
