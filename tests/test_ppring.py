"""Piecewise polynomial rings: validation, graded bases, pullbacks.

Rank oracle for complete simplicial surface fans: over the rationals a
degree-k piecewise polynomial is determined by one coefficient per degree-k
monomial in the rays whose support spans a cone, so the expected rank is a
pure lattice-point count done here by brute force.
"""

import random
from itertools import combinations_with_replacement

import pytest

from fanpoly.cones import Cone
from fanpoly.errors import ConeNotInFan, FanMismatch, Incompatible, LatticeMismatch
from fanpoly.fans import Fan
from fanpoly.fixtures import blp2, cube, diamond, p1, p1xp1, p2, p2_blowup
from fanpoly.intlinalg import IntMatrix, rank as matrix_rank
from fanpoly.polynomials import LocalPolynomial, character_class
from fanpoly.ppring import (
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


def simplicial_monomial_count(fan, k):
    """Oracle: degree-k monomials in the rays supported on a single cone."""
    if k == 0:
        return 1
    rays = [c.generators[0] for c, _ in fan.face_index.values() if c.dim == 1]
    supports = [set(c.generators) for c in fan.maximal_cones]
    count = 0
    for combo in combinations_with_replacement(rays, k):
        used = set(combo)
        if any(used <= s for s in supports):
            count += 1
    return count


def test_pp_validate_constant():
    f = p2()
    one = pp_constant(f, 1)
    checked = pp_validate(f, one.parts)
    assert checked == one
    assert checked.degree == 0


def test_pp_validate_two_slopes_on_line():
    f = p1()
    parts = {}
    for c in f.maximal_cones:
        slope = 2 if c.generators == ((1,),) else 3
        parts[c.id_str] = LocalPolynomial.variable(c.quotient, 0).scale(slope)
    elem = pp_validate(f, parts)
    assert elem.degree == 1
    assert pp_basis(f, 1).contains(elem)


def test_pp_validate_rejects_incompatible():
    f = p2()
    parts = {}
    for c in f.maximal_cones:
        if c.generators == ((0, 1), (1, 0)):
            parts[c.id_str] = character_class(c.quotient, (1, 0))
        else:
            parts[c.id_str] = LocalPolynomial.zero(c.quotient)
    with pytest.raises(Incompatible) as exc:
        pp_validate(f, parts)
    assert exc.value.face == Cone(2, [(1, 0)]).id_str


def test_pp_validate_rejects_bad_keys_and_lattices():
    f = p2()
    one = pp_constant(f, 1)
    broken = dict(one.parts)
    broken.pop(f.maximal_cones[0].id_str)
    with pytest.raises(FanMismatch):
        pp_validate(f, broken)
    wrong = dict(one.parts)
    wrong[f.maximal_cones[0].id_str] = LocalPolynomial.constant(
        Cone(2, [(1, 1)]).quotient, 1
    )
    with pytest.raises(LatticeMismatch):
        pp_validate(f, wrong)


def test_pp_arithmetic():
    f = p2()
    one = pp_constant(f, 1)
    two = pp_constant(f, 2)
    assert pp_add(one, one) == two
    assert pp_add(two, pp_scale(-1, one)) == one
    assert pp_mul(two, two) == pp_constant(f, 4)
    assert pp_scale(5, one) == pp_constant(f, 5)
    with pytest.raises(TypeError):
        pp_scale(1.5, one)
    with pytest.raises(FanMismatch):
        pp_add(one, pp_constant(p1(), 1))


def test_pp_mul_squares_slopes_conewise():
    f = p1()
    parts = {}
    for c in f.maximal_cones:
        slope = 2 if c.generators == ((1,),) else 3
        parts[c.id_str] = LocalPolynomial.variable(c.quotient, 0).scale(slope)
    elem = pp_validate(f, parts)
    sq = pp_mul(elem, elem)
    for c in f.maximal_cones:
        want = 4 if c.generators == ((1,),) else 9
        assert sq.parts[c.id_str] == LocalPolynomial(c.quotient, {(2,): want})
    assert pp_mul(elem, pp_constant(f, 1)) == elem


def test_pp_mul_commutes():
    f = diamond()
    rng = random.Random(7)
    basis = pp_basis(f, 1).elements
    for _ in range(5):
        a = pp_scale(rng.randint(-2, 2), rng.choice(basis))
        b = pp_add(rng.choice(basis), rng.choice(basis))
        assert pp_mul(a, b) == pp_mul(b, a)


def test_pp_basis_rank_ignores_cone_order():
    f = diamond()
    reordered = Fan(2, list(reversed(f.maximal_cones)))
    for k in range(3):
        assert pp_basis(reordered, k).rank == pp_basis(f, k).rank


def test_pp_basis_p1():
    f = p1()
    assert pp_basis(f, 0).rank == 1
    assert pp_basis(f, 1).rank == 2
    assert pp_basis(f, 2).rank == 2
    for e in pp_basis(f, 1).elements:
        pp_validate(f, e.parts)


def test_pp_basis_degree_zero_is_constants():
    for f in [p1(), p2(), diamond(), cube()]:
        gb = pp_basis(f, 0)
        assert gb.rank == 1
        assert gb.contains(pp_constant(f, 1))
        assert gb.contains(pp_constant(f, -7))


def test_pp_basis_surface_ranks_match_monomial_count():
    for fan in [p2(), p1xp1(), diamond(), blp2()]:
        for k in range(4):
            expected = simplicial_monomial_count(fan, k)
            assert pp_basis(fan, k).rank == expected


def test_pp_basis_frozen_surface_ranks():
    assert [pp_basis(p2(), k).rank for k in range(4)] == [1, 3, 6, 9]
    assert [pp_basis(p1xp1(), k).rank for k in range(4)] == [1, 4, 8, 12]
    assert [pp_basis(diamond(), k).rank for k in range(4)] == [1, 4, 8, 12]
    assert [pp_basis(blp2(), k).rank for k in range(4)] == [1, 4, 8, 12]


def test_pp_basis_elements_are_valid_and_homogeneous():
    for fan in [p2(), diamond()]:
        for k in range(3):
            gb = pp_basis(fan, k)
            for e in gb.elements:
                pp_validate(fan, e.parts)
                for p in e.parts.values():
                    assert p.is_homogeneous(k)


def test_pp_basis_closed_under_multiplication():
    rng = random.Random(42)
    for fan in [p2(), diamond()]:
        g1 = pp_basis(fan, 1)
        g2 = pp_basis(fan, 2)
        for _ in range(10):
            a = rng.choice(g1.elements)
            b = rng.choice(g1.elements)
            assert g2.contains(pp_mul(a, b))


def test_global_characters_embed():
    f = p2()
    gb = pp_basis(f, 1)
    for u in [(1, 0), (0, 1), (2, -3)]:
        parts = {
            c.id_str: character_class(c.quotient, u) for c in f.maximal_cones
        }
        elem = pp_validate(f, parts)
        assert gb.contains(elem)


def test_pp_restrict_orbit():
    f = p2()
    one = pp_constant(f, 1)
    zero_cone = Cone(2, [])
    r = pp_restrict_orbit(one, zero_cone)
    assert r == LocalPolynomial.constant(zero_cone.quotient, 1)
    with pytest.raises(ConeNotInFan):
        pp_restrict_orbit(one, Cone(2, [(1, 1)]))


def test_pp_restrict_orbit_independent_of_side():
    from fanpoly.polynomials import restrict_to_face

    for fan in [p2(), diamond(), cube()]:
        for k in range(1, 3):
            for e in pp_basis(fan, k).elements:
                for face, idxs in [
                    (f, idxs)
                    for f, idxs in fan.face_index.values()
                    if len(idxs) == 2
                ]:
                    i, j = idxs
                    via_i = restrict_to_face(
                        e.parts[fan.maximal_cones[i].id_str], fan.maximal_cones[i], face
                    )
                    via_j = restrict_to_face(
                        e.parts[fan.maximal_cones[j].id_str], fan.maximal_cones[j], face
                    )
                    assert via_i == via_j
                    assert pp_restrict_orbit(e, face) == via_i


def test_pullback_roundtrip():
    base, refined, sub = p2_blowup()
    for k in range(3):
        for a in pp_basis(base, k).elements:
            b = pp_pullback(sub, a)
            pp_validate(refined, b.parts)
            back, report = pp_is_pullback(sub, b)
            assert report is None
            assert back == a


def test_pullback_is_ring_map():
    base, refined, sub = p2_blowup()
    g1 = pp_basis(base, 1)
    for a in g1.elements:
        for b in g1.elements:
            lhs = pp_pullback(sub, pp_mul(a, b))
            rhs = pp_mul(pp_pullback(sub, a), pp_pullback(sub, b))
            assert lhs == rhs
    assert pp_pullback(sub, pp_constant(base, 3)) == pp_constant(refined, 3)


def test_pullback_injective_on_degree_pieces():
    base, refined, sub = p2_blowup()
    for k in range(3):
        gb = pp_basis(base, k)
        target = pp_basis(refined, k)
        if gb.rank == 0:
            continue
        width = sum(len(monos) for _, monos in target.layout)
        image = IntMatrix(
            [target.coefficient_vector(pp_pullback(sub, e)) for e in gb.elements],
            cols=width,
        )
        assert matrix_rank(image) == gb.rank


def test_exceptional_support_function_is_not_a_pullback():
    base, refined, sub = p2_blowup()
    parts = {}
    for c in refined.maximal_cones:
        if (1, 1) in c.generators:
            u = (0, 1) if (1, 0) in c.generators else (1, 0)
        else:
            u = (0, 0)
        parts[c.id_str] = character_class(c.quotient, u)
    kink = pp_validate(refined, parts)
    result, report = pp_is_pullback(sub, kink)
    assert result is None
    assert report.condition == "same-polynomial"
    assert report.cone_id == Cone(2, [(1, 0), (0, 1)]).id_str


def test_pullback_fan_mismatch_errors():
    base, refined, sub = p2_blowup()
    with pytest.raises(FanMismatch):
        pp_pullback(sub, pp_constant(refined, 1))
    with pytest.raises(FanMismatch):
        pp_is_pullback(sub, pp_constant(base, 1))


def test_graded_basis_vector_roundtrip():
    f = p2()
    gb = pp_basis(f, 2)
    assert isinstance(gb, GradedBasis)
    for idx, e in enumerate(gb.elements):
        vec = gb.coefficient_vector(e)
        assert vec == gb.coefficients.row(idx)
        assert gb.contains(e)


def test_graded_basis_rejects_incompatible_vector():
    f = p2()
    gb = pp_basis(f, 1)
    parts = {}
    for c in f.maximal_cones:
        if c.generators == ((0, 1), (1, 0)):
            parts[c.id_str] = character_class(c.quotient, (1, 0))
        else:
            parts[c.id_str] = LocalPolynomial.zero(c.quotient)
    jagged = PPElement(f, parts)
    assert not gb.contains(jagged)
