"""Piecewise polynomial rings: validation, graded bases, pullbacks.

Rank oracle for complete simplicial surface fans: over the rationals a
degree-k piecewise polynomial is determined by one coefficient per degree-k
monomial in the rays whose support spans a cone, so the expected rank is a
pure lattice-point count done here by brute force.
"""

import random
from itertools import combinations_with_replacement

import pytest
from corpus import (
    blp2,
    character_class,
    cube,
    diamond,
    gl_image,
    hypertoric_3lines,
    p1,
    p1xp1,
    p2,
    p2_blowup,
    projective_space,
)
from reference_intlinalg import reference_hnf_basis

from fanpoly import polynomials
from fanpoly.cones import Cone
from fanpoly.errors import ConeNotInFan, FanMismatch, Incompatible, LatticeMismatch
from fanpoly.fans import Fan, star_subdivision
from fanpoly.gkm import gkm_compare
from fanpoly.intlinalg import IntMatrix
from fanpoly.polynomials import LocalPolynomial
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


def test_pp_basis_rejects_bool_and_negative_degrees():
    # a bool would become GradedBasis.degree and be written as JSON true
    for k in (True, False):
        with pytest.raises(TypeError, match="^degree must be an integer, not a bool$"):
            pp_basis(p2(), k)
    with pytest.raises(ValueError, match="^negative degree$"):
        pp_basis(p2(), -1)


def test_graded_basis_refuses_elements_of_another_fan():
    # one quadrant, and the quadrant with its mirror: each basis refuses the other's elements
    quadrant = Cone(2, [(1, 0), (0, 1)])
    f = Fan(2, [quadrant])
    g = Fan(2, [quadrant, Cone(2, [(-1, 0), (0, 1)])])
    bf, bg = pp_basis(f, 1), pp_basis(g, 1)
    assert bf.container is f and bg.container is g
    for basis, other in ((bf, bg), (bg, bf)):
        for e in other.elements:
            with pytest.raises(FanMismatch, match="^element does not live on the basis's fan$"):
                basis.contains(e)
            with pytest.raises(FanMismatch):
                basis.coefficient_vector(e)
    # an equal fan built again is the same container
    assert all(pp_basis(Fan(2, [quadrant]), 1).contains(e) for e in bf.elements)


def test_sym_k_is_built_once_per_restriction(monkeypatch):
    """Sym^k of a restriction matrix is memoized where it is built: once the
    degree-2 basis of a fan is known, building it again and checking it
    against the wall system expands no column power."""
    fan = gl_image(cube(), random.Random("sym-k memo"))
    want = pp_basis(fan, 2).coefficients
    calls = []
    real = polynomials._column_powers
    monkeypatch.setattr(polynomials, "_column_powers", lambda *a: calls.append(a) or real(*a))
    assert pp_basis(fan, 2).coefficients == want
    assert gkm_compare(fan, 2)
    assert calls == []


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
        assert reference_hnf_basis(image).rows == gb.rank


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


# A pullback copies each target part onto the subcones assigned to it.  That
# is right because every assigned target cone is maximal and of the source
# cone's dimension, so the two quotient lattices are equal; the tests below
# check that invariant, and the copy against the restrict-then-substitute
# formula it replaced, on star subdivisions at every cone of dimension >= 1.

LOW_RANK_CONES = [[(1, 0, 1), (1, 2, 1)], [(1, 2, 1), (-1, 3, 0)], [(1, 0, 1), (0, 0, 1)]]


def low_rank_fan(matrix=((1, 0, 0), (0, 1, 0), (0, 0, 1))):
    """Three 2-cones in Z^3, moved by an integer matrix of determinant +-1."""

    def move(v):
        return tuple(sum(a * x for a, x in zip(row, v)) for row in matrix)

    return Fan(3, [Cone(3, [move(g) for g in gens]) for gens in LOW_RANK_CONES])


def unimodular(rng, n):
    """A signed permutation times a few random elementary shears."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[rng.choice((1, -1)) * int(j == perm[i]) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


_GL = random.Random(11)
RELABEL_FANS = [
    ("p2", p2()),
    ("p1xp1", p1xp1()),
    ("blp2", blp2()),
    ("diamond", diamond()),
    ("cube", cube()),
    ("low_rank", low_rank_fan()),
    ("low_rank.gl0", low_rank_fan(unimodular(_GL, 3))),
    ("low_rank.gl1", low_rank_fan(unimodular(_GL, 3))),
]


def star_subdivisions(fan):
    return [star_subdivision(fan, c)[1] for c, _ in fan.face_index.values() if c.dim >= 1]


@pytest.mark.parametrize("name, fan", RELABEL_FANS, ids=[n for n, _ in RELABEL_FANS])
def test_subdivision_assigns_a_maximal_cone_on_the_same_lattice(name, fan):
    tops = dict(fan.parts)
    for m in star_subdivisions(fan):
        for src in m.source.maximal_cones:
            tgt = tops[m.assignment[src.id_str]]
            assert tgt.dim == src.dim
            assert tgt.quotient == src.quotient


@pytest.mark.parametrize("name, fan", RELABEL_FANS, ids=[n for n, _ in RELABEL_FANS])
def test_pullback_equals_restriction_then_substitution(name, fan):
    tops = dict(fan.parts)
    bases = [pp_basis(fan, k).elements for k in range(3)]
    for m in star_subdivisions(fan):
        for elements in bases:
            for a in elements:
                expected = {}
                for src in m.source.maximal_cones:
                    tgt = tops[m.assignment[src.id_str]]
                    r = src.quotient.projection * tgt.quotient.section
                    expected[src.id_str] = pp_restrict_orbit(a, tgt).substitute(r, src.quotient)
                assert pp_pullback(m, a) == PPElement(m.source, expected)


@pytest.mark.parametrize(
    "build", [p2, blp2, lambda: projective_space(3)], ids=["p2", "blp2", "p3"]
)
def test_subdivision_tiles_group_the_assignment(build):
    fan = build()
    rng = random.Random(15)
    faces = [c for c, _ in fan.face_index.values() if c.dim >= 1]
    for target in rng.sample(faces, 4):
        _, m = star_subdivision(fan, target)
        grouped = {}
        for sid, tid in m.assignment.items():
            grouped.setdefault(tid, []).append(sid)
        assert m.tiles == {tid: tuple(sorted(ids)) for tid, ids in grouped.items()}
        assert list(m.tiles) == sorted(m.tiles)
        assert set(m.tiles) == {c.id_str for c in fan.maximal_cones}


def test_pullback_rejects_a_part_on_the_wrong_lattice():
    fan = low_rank_fan()
    m = star_subdivisions(fan)[0]
    (a, sigma), (_, tau) = fan.parts[:2]
    assert sigma.quotient != tau.quotient
    parts = {pid: LocalPolynomial.zero(cone.quotient) for pid, cone in fan.parts}
    parts[a] = LocalPolynomial.variable(tau.quotient, 0)
    with pytest.raises(LatticeMismatch):
        pp_pullback(m, PPElement(fan, parts))


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
    with pytest.raises(Incompatible):
        PPElement(f, parts)
    jagged = PPElement._trusted(f, dict(sorted(parts.items())))
    assert not gb.contains(jagged)


def star_tiles_element():
    """On p2 star-subdivided at its first maximal cone, (i, 0) on every
    tile of the i-th target cone: the tiles disagree across target walls."""
    _, m = star_subdivision(p2(), p2().maximal_cones[0])
    index = {c.id_str: i for i, c in enumerate(m.target.maximal_cones)}
    parts = {
        src.id_str: character_class(src.quotient, (index[m.assignment[src.id_str]], 0))
        for src in m.source.maximal_cones
    }
    return m.source, parts


def test_constructor_rejects_an_incompatible_element_on_a_star_subdivision():
    fine, parts = star_tiles_element()
    with pytest.raises(Incompatible) as built:
        PPElement(fine, parts)
    with pytest.raises(Incompatible) as validated:
        pp_validate(fine, parts)
    assert str(built.value) == str(validated.value)


@pytest.mark.parametrize("build", [p2, hypertoric_3lines], ids=["p2", "hypertoric_3lines"])
def test_constructor_checks_keys_types_and_lattices(build):
    container = build()
    zeros = {pid: LocalPolynomial.zero(cone.quotient) for pid, cone in container.parts}
    assert PPElement(container, zeros) == pp_constant(container, 0)
    first, rest = next(iter(zeros)), dict(list(zeros.items())[1:])
    with pytest.raises(FanMismatch, match="missing"):
        PPElement(container, rest)
    with pytest.raises(FanMismatch, match="extra"):
        PPElement(container, {**zeros, "ghost": zeros[first]})
    with pytest.raises(TypeError):
        PPElement(container, {**zeros, first: 0})
    wrong = LocalPolynomial.zero(Cone(container.ambient_rank, []).quotient)
    assert wrong.lattice != dict(container.parts)[first].quotient
    with pytest.raises(LatticeMismatch):
        PPElement(container, {**zeros, first: wrong})


def test_scale_rejects_a_bool():
    a = pp_basis(p2(), 1).elements[0]
    with pytest.raises(TypeError):
        pp_scale(True, a)
    assert pp_scale(1, a) == a
