"""Posets of cones and their piecewise polynomial rings."""

import pytest

from fanpoly.cones import Cone
from fanpoly.errors import (
    FaceBijectionFailure,
    FanMismatch,
    Incompatible,
    LatticeMismatch,
    NotAPoset,
)
from fanpoly.fans import Fan
from fanpoly.fixtures import doubled_cone, hypertoric_3lines, p2
from fanpoly.multifans import (
    Multifan,
    hypertoric_multifan,
    mpp_basis,
    mpp_validate,
    multifan_from_fan,
    multifan_validate,
)
from fanpoly.polynomials import LocalPolynomial, character_class
from fanpoly.ppring import pp_basis


QUAD = Cone(2, [(1, 0), (0, 1)])
RX = Cone(2, [(1, 0)])
RY = Cone(2, [(0, 1)])
ZERO = Cone(2, [])


def quadrant_fan_chain():
    cones = {"o": ZERO, "x": RX, "y": RY, "q": QUAD}
    covers = [("o", "x"), ("o", "y"), ("x", "q"), ("y", "q")]
    return cones, covers


def test_validate_single_cone_chain():
    cones, covers = quadrant_fan_chain()
    mf = multifan_validate(2, cones, covers)
    assert mf.maximal_ids == ("q",)
    assert mf.lower["q"] == frozenset({"o", "x", "y", "q"})
    assert "o" in mf.lower["q"]
    assert "q" not in mf.lower["o"]


def test_validate_rejects_cycle():
    cones, covers = quadrant_fan_chain()
    with pytest.raises(NotAPoset):
        multifan_validate(2, cones, covers + [("q", "o")])


def test_validate_rejects_unknown_id_and_self_cover():
    cones, covers = quadrant_fan_chain()
    with pytest.raises(NotAPoset):
        multifan_validate(2, cones, covers + [("ghost", "q")])
    with pytest.raises(NotAPoset):
        multifan_validate(2, cones, covers + [("q", "q")])


def test_validate_rejects_missing_face_node():
    cones = {"o": ZERO, "x": RX, "q": QUAD}
    covers = [("o", "x"), ("x", "q")]
    with pytest.raises(FaceBijectionFailure) as exc:
        multifan_validate(2, cones, covers)
    assert exc.value.node == "q"


def test_validate_rejects_duplicate_face_below():
    cones = {"o": ZERO, "x1": RX, "x2": RX, "y": RY, "q": QUAD}
    covers = [
        ("o", "x1"),
        ("o", "x2"),
        ("o", "y"),
        ("x1", "q"),
        ("x2", "q"),
        ("y", "q"),
    ]
    with pytest.raises(FaceBijectionFailure) as exc:
        multifan_validate(2, cones, covers)
    assert exc.value.node == "q"


def test_validate_rejects_non_face_below():
    cones = {"o": ZERO, "x": RX, "w": Cone(2, [(1, 1)]), "q": QUAD}
    covers = [("o", "x"), ("o", "w"), ("x", "q"), ("w", "q")]
    with pytest.raises(FaceBijectionFailure):
        multifan_validate(2, cones, covers)


def test_multifan_from_fan_matches_fan_ring():
    fan = p2()
    mf = multifan_from_fan(fan)
    assert len(mf.node_ids) == 7  # zero cone, three rays, three cones
    assert set(mf.maximal_ids) == {pid for pid, _ in fan.parts}
    for k in range(4):
        assert mpp_basis(mf, k).rank == pp_basis(fan, k).rank


def test_single_cone_fan_ranks():
    fan = Fan(2, [QUAD])
    mf = multifan_from_fan(fan)
    assert [mpp_basis(mf, k).rank for k in range(4)] == [1, 2, 3, 4]


def test_doubled_cone_ranks_differ_from_single():
    mf = doubled_cone()
    assert mf.maximal_ids == ("bot", "top")
    assert mf.maximal_common_lower("top", "bot") == ("x", "y")
    assert [mpp_basis(mf, k).rank for k in range(4)] == [1, 2, 4, 6]


def test_doubled_cone_elements_validate():
    mf = doubled_cone()
    for k in range(4):
        for e in mpp_basis(mf, k).elements:
            mpp_validate(mf, e.parts)


def test_doubled_cone_rejects_axis_mismatch():
    mf = doubled_cone()
    parts = {
        "top": character_class(QUAD.quotient, (1, 0)),
        "bot": character_class(QUAD.quotient, (0, 1)),
    }
    with pytest.raises(Incompatible) as exc:
        mpp_validate(mf, parts)
    assert set(exc.value.cones) == {"top", "bot"}
    assert exc.value.face in {"x", "y"}


def test_mpp_validate_key_and_lattice_checks():
    mf = doubled_cone()
    good = {
        "top": character_class(QUAD.quotient, (1, 1)),
        "bot": character_class(QUAD.quotient, (1, 1)),
    }
    mpp_validate(mf, good)
    with pytest.raises(FanMismatch):
        mpp_validate(mf, {"top": good["top"]})
    with pytest.raises(LatticeMismatch):
        mpp_validate(mf, {"top": good["top"], "bot": LocalPolynomial.constant(RX.quotient, 1)})


def test_hypertoric_three_lines_nodes():
    mf = hypertoric_3lines()
    assert len(mf.node_ids) == 7
    assert mf.node_ids == ("{1,2}", "{1,3}", "{1}", "{2,3}", "{2}", "{3}", "{}")
    assert mf.maximal_ids == ("{1,2}", "{1,3}", "{2,3}")
    assert mf.cone_of("{2}") == Cone(2, [(0, 1)])
    assert mf.maximal_common_lower("{1,2}", "{1,3}") == ("{1}",)


def test_hypertoric_three_lines_ranks():
    mf = hypertoric_3lines()
    assert [mpp_basis(mf, k).rank for k in range(4)] == [1, 3, 6, 9]


def independence_monomial_count(vectors, rank, k):
    """Oracle: degree-k monomials whose support is an independent subset."""
    from itertools import combinations_with_replacement

    from fanpoly.intlinalg import IntMatrix
    from fanpoly.intlinalg import rank as matrix_rank

    if k == 0:
        return 1
    count = 0
    for combo in combinations_with_replacement(range(len(vectors)), k):
        support = sorted(set(combo))
        chosen = [vectors[i] for i in support]
        if matrix_rank(IntMatrix(chosen, cols=rank)) == len(support):
            count += 1
    return count


def test_hypertoric_ranks_match_independence_complex():
    vectors = [(1, 0), (0, 1), (1, 1)]
    mf = hypertoric_multifan(2, vectors)
    for k in range(4):
        assert mpp_basis(mf, k).rank == independence_monomial_count(vectors, 2, k)


def test_hypertoric_repeated_vector():
    mf = hypertoric_multifan(2, [(1, 0), (1, 0)])
    assert mf.node_ids == ("{1}", "{2}", "{}")
    assert mf.maximal_ids == ("{1}", "{2}")
    # two slopes glued only at the origin: constants in degree 0, free above
    assert [mpp_basis(mf, k).rank for k in range(3)] == [1, 2, 2]


def test_hypertoric_with_dependent_and_zero_vectors():
    mf = hypertoric_multifan(2, [(1, 0), (2, 0), (0, 0)])
    assert mf.node_ids == ("{1}", "{2}", "{}")
    assert mf.maximal_ids == ("{1}", "{2}")


def test_multifan_equality_and_repr():
    assert doubled_cone() == doubled_cone()
    assert doubled_cone() != hypertoric_3lines()
    assert "nodes=5" in repr(doubled_cone())
    assert isinstance(doubled_cone(), Multifan)
