"""The exported surface of the package.

Pinning ``fanpoly.__all__`` makes every change to the public API a
deliberate edit of this list.
"""

import fanpoly

EXPORTED = [
    "BundleData",
    "Cone",
    "ConeNotInFan",
    "CourantFunction",
    "DuplicateCone",
    "FaceBijectionFailure",
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


def test_exported_names_are_pinned():
    assert sorted(fanpoly.__all__) == EXPORTED


def test_every_exported_name_resolves():
    for name in fanpoly.__all__:
        assert hasattr(fanpoly, name), name
