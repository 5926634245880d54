"""Integral piecewise polynomial functions on rational polyhedral fans.

The package computes the graded ring PP*(D) of continuous functions that
restrict to an integer polynomial on every cone of a fan, together with
the matching fixed-point (edge congruence) description for complete fans,
characteristic classes of compatible character multisets, pullbacks along
fan subdivisions, torsion of the rank-two wall map, face-ring counts for
simplicial fans, and the same piecewise theory over cone-labeled posets.
All arithmetic is exact, over the integers or rationals.
"""

from .errors import (
    ConeNotInFan,
    DuplicateCone,
    FaceBijectionFailure,
    FanMismatch,
    FanPolyError,
    FormatError,
    Incompatible,
    IncompatibleMultisets,
    IndexOutOfRange,
    LatticeMismatch,
    NotAFace,
    NotAFan,
    NotAPoset,
    NotASubdivision,
    NotComplete,
    NotPointed,
    NotSimplicial,
    PointNotInterior,
    RayNotFound,
    TargetNotInFan,
    WrongRank,
    ZeroVector,
)
from .intlinalg import IntMatrix, hnf, hnf_basis, kernel_lattice, snf
from .cones import Cone, QuotientCharacterLattice, restriction_matrix
from .fans import Fan, SubdivisionMap, star_subdivision
from .polynomials import LocalPolynomial, RationalLocalPolynomial, monomials_of_degree
from .ppring import (
    GradedBasis,
    PPElement,
    pp_add,
    pp_basis,
    pp_constant,
    pp_is_pullback,
    pp_mul,
    pp_pullback,
    pp_restrict_orbit,
    pp_scale,
    pp_validate,
)
from .gkm import GKMGraph, beta_system, gkm_compare, gkm_graph, gkm_kernel_basis
from .chern import BundleData, bundle_sum, bundle_validate, chern_class, total_chern
from .stanley_reisner import (
    CourantFunction,
    SimplicialFanSR,
    courant_function,
    courant_span_rank,
    sr_hilbert,
)
from .mayer_vietoris import TorsionReport, h3_torsion, mv_row
from .multifans import (
    Multifan,
    hypertoric_multifan,
    mpp_basis,
    mpp_validate,
    multifan_from_fan,
    multifan_validate,
)

__version__ = "0.1.0"

__all__ = [
    "BundleData",
    "Cone",
    "ConeNotInFan",
    "DuplicateCone",
    "FaceBijectionFailure",
    "CourantFunction",
    "Fan",
    "FanMismatch",
    "FanPolyError",
    "FormatError",
    "GKMGraph",
    "GradedBasis",
    "Incompatible",
    "IncompatibleMultisets",
    "IndexOutOfRange",
    "IntMatrix",
    "LatticeMismatch",
    "LocalPolynomial",
    "Multifan",
    "NotAFace",
    "NotAFan",
    "NotAPoset",
    "NotASubdivision",
    "NotComplete",
    "NotPointed",
    "NotSimplicial",
    "PPElement",
    "PointNotInterior",
    "QuotientCharacterLattice",
    "RationalLocalPolynomial",
    "RayNotFound",
    "SimplicialFanSR",
    "SubdivisionMap",
    "TargetNotInFan",
    "TorsionReport",
    "WrongRank",
    "ZeroVector",
    "beta_system",
    "bundle_sum",
    "bundle_validate",
    "chern_class",
    "courant_function",
    "courant_span_rank",
    "gkm_compare",
    "gkm_graph",
    "gkm_kernel_basis",
    "h3_torsion",
    "hnf",
    "hnf_basis",
    "hypertoric_multifan",
    "kernel_lattice",
    "monomials_of_degree",
    "mpp_basis",
    "mpp_validate",
    "multifan_from_fan",
    "multifan_validate",
    "mv_row",
    "pp_add",
    "pp_basis",
    "pp_constant",
    "pp_is_pullback",
    "pp_mul",
    "pp_pullback",
    "pp_restrict_orbit",
    "pp_scale",
    "pp_validate",
    "restriction_matrix",
    "snf",
    "sr_hilbert",
    "star_subdivision",
    "total_chern",
]
