"""Ray complexes, face-ring counts, and ray dual functions."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from fanpoly.cones import Cone
from fanpoly.errors import NotSimplicial, RayNotFound
from fanpoly.fans import Fan
from fanpoly.fixtures import blp2, cube, diamond, p1, p1xp1, p2
from fanpoly.polynomials import character_class
from fanpoly.ppring import pp_add, pp_basis, pp_constant, pp_scale, pp_validate
from fanpoly.stanley_reisner import (
    SimplicialFanSR,
    courant_function,
    courant_span_rank,
    sr_hilbert,
)


def test_rejects_nonsimplicial():
    with pytest.raises(NotSimplicial):
        SimplicialFanSR(cube())


def test_ray_complex_of_projective_plane():
    sr = SimplicialFanSR(p2())
    assert sr.rays == ((-1, -1), (0, 1), (1, 0))
    assert sr.is_face([])
    assert sr.is_face([0])
    assert sr.is_face([0, 1])
    assert not sr.is_face([0, 1, 2])
    assert all(sr.is_face(pair) for pair in combinations(range(3), 2))


def test_minimal_nonfaces_of_quadric_surface():
    sr = SimplicialFanSR(p1xp1())
    assert sr.rays == ((-1, 0), (0, -1), (0, 1), (1, 0))
    # the minimal nonfaces are {0, 3} and {1, 2}: a ray set spans a cone
    # exactly when it contains neither
    for size in range(5):
        for sub in combinations(range(4), size):
            assert sr.is_face(sub) == (not {0, 3} <= set(sub) and not {1, 2} <= set(sub))


def test_hilbert_frozen_values():
    assert [sr_hilbert(p2(), k) for k in range(5)] == [1, 3, 6, 9, 12]
    assert [sr_hilbert(p1xp1(), k) for k in range(5)] == [1, 4, 8, 12, 16]
    assert [sr_hilbert(diamond(), k) for k in range(5)] == [1, 4, 8, 12, 16]
    assert [sr_hilbert(blp2(), k) for k in range(5)] == [1, 4, 8, 12, 16]
    assert [sr_hilbert(p1(), k) for k in range(4)] == [1, 2, 2, 2]


def test_hilbert_matches_graded_ranks():
    for fan in [p1(), p2(), p1xp1(), blp2(), diamond()]:
        for k in range(4):
            assert sr_hilbert(fan, k) == pp_basis(fan, k).rank


# a lower-dimensional fan in Z^3; its first cone has index 2 in its span
LOWDIM = [[(1, 0, 1), (1, 2, 1)], [(1, 2, 1), (-1, 3, 0)], [(1, 0, 1), (0, 0, 1)]]


def signed_shear_image(fan, rng):
    """Image of a fan under a random signed permutation followed by a shear."""
    n = fan.ambient_rank
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    t = rng.choice((-2, -1, 1, 2))

    def move(v):
        w = [signs[a] * v[perm[a]] for a in range(n)]
        w[i] += t * w[j]
        return tuple(w)

    return Fan(n, [Cone(n, [move(g) for g in c.generators]) for c in fan.maximal_cones])


def courant_cases():
    """Named simplicial fans the Courant functions are checked on."""
    lowdim = Fan(3, [Cone(3, gens) for gens in LOWDIM])
    cases = [("p2", p2()), ("p1xp1", p1xp1()), ("blp2", blp2()),
             ("diamond", diamond()), ("lowdim", lowdim)]
    rng = random.Random(11)
    for name, fan in [("diamond", diamond()), ("lowdim", lowdim)]:
        for i in range(3):
            cases.append((f"{name}.image{i}", signed_shear_image(fan, rng)))
    return cases


def test_courant_smooth_plane_integral_and_dual():
    for name, fan in courant_cases():
        for r in SimplicialFanSR(fan).rays:
            phi = courant_function(fan, r)
            assert phi.ray == r
            nonintegral = []
            for cone in fan.maximal_cones:
                part = phi.element.parts[cone.id_str]
                if r not in cone.generators:
                    assert part.is_zero, (name, r, cone.id_str)
                    continue
                for g in cone.generators:
                    assert part.evaluate(g) == (1 if g == r else 0), (name, r, cone.id_str)
                if any(Fraction(c).denominator != 1 for c in part.terms.values()):
                    nonintegral.append(cone.id_str)
            assert phi.nonintegral_cones == tuple(sorted(nonintegral)), (name, r)
            if name in ("p2", "p1xp1", "blp2"):
                assert phi.is_integral, (name, r)


def test_courant_diamond_half_integral():
    f = diamond()
    phi = courant_function(f, (1, 1))
    incident = sorted(
        c.id_str for c in f.maximal_cones if (1, 1) in c.generators
    )
    assert list(phi.nonintegral_cones) == incident
    assert not phi.is_integral
    for cid in incident:
        part = phi.element.parts[cid]
        assert sorted(part.terms.values()) == [Fraction(1, 2), Fraction(1, 2)]
    assert phi.element.parts[incident[0]].evaluate((1, 1)) == 1


def test_courant_accepts_ray_multiples():
    f = diamond()
    assert courant_function(f, (3, 3)) == courant_function(f, (1, 1))


def test_courant_unknown_ray():
    with pytest.raises(RayNotFound):
        courant_function(p2(), (1, 1))


def test_courant_span_has_full_rank():
    for fan in [p1(), p2(), p1xp1(), diamond(), blp2()]:
        assert courant_span_rank(fan) == sr_hilbert(fan, 1)


def test_characters_decompose_in_courant_basis():
    f = p2()
    sr = SimplicialFanSR(f)
    for u in [(1, 0), (2, 5)]:
        total = pp_constant(f, 0)
        for r in sr.rays:
            weight = sum(a * b for a, b in zip(u, r))
            total = pp_add(total, pp_scale(weight, courant_function(f, r).element))
        expected = pp_validate(
            f, {c.id_str: character_class(c.quotient, u) for c in f.maximal_cones}
        )
        assert total == expected
