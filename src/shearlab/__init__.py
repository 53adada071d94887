"""Shear coordinates of ideal triangulations on hyperbolic surfaces.

Builds hyperbolic surfaces from Fenchel-Nielsen data one pair of pants
at a time, cuts each pants into right-angled hexagons, spins the seams
into spiralling ideal triangulations, and measures the shear
coordinates, whose maximum is checked against the logarithmic topology
bound.  Cusped triangulations of chain surfaces support flip moves and a
minimax flip search.
"""

from .constants import (RHO, Signature, ShearFreeParams, area, bavard_bound,
                        collar_width, constants_audit, delta1, main_bound,
                        rough_cusped_bound, shear_free_params, spike_constant,
                        topology_constants, truncated_collar_width)
from .geom import (IDEAL_INRADIUS, INF, Geodesic, GeometryError, IdealTriangle,
                   Isometry, classify, cross_ratio, dist, dist_to_geodesic,
                   fixed_points, horocycle_length_at_radius, incircle, shear,
                   shear_points, translation_length)
from .surface import (FNCoordinates, Holonomy, PantsGraph,
                      canonical_pants_graph, curve_length, holonomy_from_fn,
                      sample_fn, sample_seed, validate)
from .chains import build_cusped_chain, is_chain
from .cusped import (CuspedTriangulation, cusp_sums, develop_from_shears,
                     develop_walk, flip, flippable, minimax_flip_search,
                     rewrite_walk)

__version__ = "0.1.0"
