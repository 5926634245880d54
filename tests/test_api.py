"""The exported surface of the package.

Pinning ``fanpoly.__all__`` makes every change to the public API a
deliberate edit of this list.  The messages of the exceptions that take an
optional detail are pinned too, with and without it, and the exported value
types hash as they compare.
"""

from fractions import Fraction

import pytest
from corpus import HYPERTORIC_VECTORS, ambient_lattice, p2

import fanpoly
from fanpoly.jsonio import multifan_from_json, multifan_to_json

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
    "gkm_compare",
    "gkm_graph",
    "h3_torsion",
    "hnf",
    "hnf_basis",
    "hypertoric_multifan",
    "kernel_lattice",
    "monomials_of_degree",
    "mpp_basis",
    "multifan_from_fan",
    "multifan_validate",
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


@pytest.mark.parametrize(
    "error, args, message",
    [
        (fanpoly.NotAFan, (0, 2), "cones 0 and 2 do not meet in a common face"),
        (
            fanpoly.Incompatible,
            ("1,0;1,1", "0,1;1,1", "1,1"),
            "parts on '1,0;1,1' and '0,1;1,1' disagree on face '1,1'",
        ),
        (
            fanpoly.FaceBijectionFailure,
            ("top",),
            "lower set of node 'top' is not in bijection with the faces of its cone",
        ),
    ],
)
def test_detailed_messages_are_pinned(error, args, message):
    assert str(error(*args)) == message
    assert str(error(*args, "")) == message
    assert str(error(*args, "2 meets")) == message + ": 2 meets"
    assert str(error(*args, detail="x")) == message + ": x"


def test_equal_values_hash_equal():
    """Equal objects built in different ways hash equal and are one set entry:
    a fan from its cones reversed, a multifan after a JSON round trip, and an
    integral polynomial against a rational one with its terms in another order."""
    cones = [fanpoly.Cone(2, c.generators) for c in p2().maximal_cones]
    mf = fanpoly.hypertoric_multifan(3, HYPERTORIC_VECTORS[5])
    lattice = ambient_lattice(2)
    pairs = [
        (fanpoly.Fan(2, cones), fanpoly.Fan(2, cones[::-1])),
        (mf, multifan_from_json(multifan_to_json(mf))),
        (
            fanpoly.LocalPolynomial(lattice, {(2, 0): 3, (1, 1): -1, (0, 2): 5}),
            fanpoly.RationalLocalPolynomial(
                lattice, {(0, 2): Fraction(5), (2, 0): Fraction(3), (1, 1): Fraction(-1)}
            ),
        ),
    ]
    for a, b in pairs:
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
