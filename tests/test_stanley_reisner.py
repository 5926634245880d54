"""Ray complexes, face-ring counts, and ray dual functions."""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from corpus import (
    blp2,
    character_class,
    cube,
    diamond,
    p1,
    p1xp1,
    p2,
    p3_starred3,
    projective_space,
    random_refinement,
    shuffled_image,
    subdivided_p3,
)
from test_random_fans import BASES, CASES

from fanpoly.cones import Cone
from fanpoly.errors import NotSimplicial, RayNotFound
from fanpoly.fans import Fan
from fanpoly.ppring import pp_add, pp_basis, pp_constant, pp_scale, pp_validate
from fanpoly.stanley_reisner import _simplicial_rays, courant_function, sr_hilbert


def ray_complex(fan):
    """The rays and the faces as sets of ray positions, read off the face keys."""
    rays = _simplicial_rays(fan)
    index = {r: i for i, r in enumerate(rays)}
    faces = {
        frozenset(index[g] for g in gens) for c in fan.maximal_cones for _, gens in c.face_keys()
    }
    return rays, faces


def test_rejects_nonsimplicial():
    with pytest.raises(NotSimplicial):
        sr_hilbert(cube(), 1)
    # the simplicial check comes before the degree check
    with pytest.raises(NotSimplicial):
        sr_hilbert(cube(), -1)
    with pytest.raises(ValueError, match="^negative degree$"):
        sr_hilbert(p2(), -1)


@pytest.mark.parametrize("k", [True, False])
def test_hilbert_rejects_bool_degree(k):
    with pytest.raises(TypeError, match="^degree must be an integer, not a bool$"):
        sr_hilbert(p2(), k)
    # the simplicial check still comes first
    with pytest.raises(NotSimplicial):
        sr_hilbert(cube(), k)


def test_ray_complex_of_projective_plane():
    rays, faces = ray_complex(p2())
    assert rays == ((-1, -1), (0, 1), (1, 0))
    assert frozenset() in faces
    assert frozenset([0]) in faces
    assert frozenset([0, 1]) in faces
    assert frozenset([0, 1, 2]) not in faces
    assert all(frozenset(pair) in faces for pair in combinations(range(3), 2))


def test_hilbert_and_courant_build_no_face_cone(monkeypatch):
    """Faces come off the maximal cones' face keys and the ray duals are not
    re-checked, so neither reads the fan's face index."""
    fan = p2()
    built = []
    init = Cone.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Cone, "__init__", counting_init)
    assert sr_hilbert(fan, 2) == 6
    courant_function(fan, (-1, -1))
    monkeypatch.undo()
    assert built == []


def test_courant_builds_no_ray_complex():
    """The ray duals and the face-ring count read the simplicial check and
    the rays off the maximal cones, so a fan that is not simplicial is
    refused with the same message by both."""
    fans = [blp2(), p3_starred3()]
    assert [sr_hilbert(fan, 1) for fan in fans] == [4, 7]
    with pytest.raises(NotSimplicial) as complex_error:
        sr_hilbert(cube(), 1)
    with pytest.raises(NotSimplicial) as courant_error:
        courant_function(cube(), (1, 1, 1))
    with pytest.raises(RayNotFound, match=r"^\(1, 1\) is not a ray of the fan$"):
        courant_function(p2(), (2, 2))
    assert str(courant_error.value) == str(complex_error.value)


def test_minimal_nonfaces_of_quadric_surface():
    rays, faces = ray_complex(p1xp1())
    assert rays == ((-1, 0), (0, -1), (0, 1), (1, 0))
    # the minimal nonfaces are {0, 3} and {1, 2}: a ray set spans a cone
    # exactly when it contains neither
    for size in range(5):
        for sub in combinations(range(4), size):
            want = not {0, 3} <= set(sub) and not {1, 2} <= set(sub)
            assert (frozenset(sub) in faces) == want


def test_hilbert_frozen_values():
    assert [sr_hilbert(p2(), k) for k in range(5)] == [1, 3, 6, 9, 12]
    assert [sr_hilbert(p1xp1(), k) for k in range(5)] == [1, 4, 8, 12, 16]
    assert [sr_hilbert(diamond(), k) for k in range(5)] == [1, 4, 8, 12, 16]
    assert [sr_hilbert(blp2(), k) for k in range(5)] == [1, 4, 8, 12, 16]
    assert [sr_hilbert(p1(), k) for k in range(4)] == [1, 2, 2, 2]


def enumerated_hilbert(fan, k):
    """Frozen oracle: every size-k multiset of rays, kept when its support is a face."""
    if k == 0:
        return 1
    rays, faces = ray_complex(fan)
    return sum(
        1
        for combo in combinations_with_replacement(range(len(rays)), k)
        if frozenset(combo) in faces
    )


SIMPLICIAL = {
    "p1": p1, "p2": p2, "p1xp1": p1xp1, "blp2": blp2, "diamond": diamond,
    "p3_starred3": p3_starred3,
    **{f"projective_space.{n}": (lambda n=n: projective_space(n)) for n in range(1, 6)},
    **{f"subdivided_p3.{s}": (lambda s=s: subdivided_p3(random.Random(s), 4)) for s in range(6)},
}


@pytest.mark.parametrize("name", list(SIMPLICIAL))
def test_hilbert_closed_form_matches_enumeration(name):
    fan = SIMPLICIAL[name]()
    assert [sr_hilbert(fan, k) for k in range(7)] == [enumerated_hilbert(fan, k) for k in range(7)]


@pytest.mark.parametrize(
    "base,seed,weighted", CASES, ids=[f"{b}.{s}.{'w' if w else 'd'}" for b, s, w in CASES]
)
def test_hilbert_matches_enumeration_on_random_refinements(base, seed, weighted):
    """The refinements of ``test_random_fans`` and their shuffled GL_n(Z)
    images; a refinement that is not simplicial is refused."""
    rng = random.Random(f"{base}.{seed}.{weighted}")
    fan, _ = random_refinement(BASES[base](), rng, rng.randint(2, 4), weighted)
    for f in (fan, shuffled_image(fan, rng)):
        if all(len(c.generators) == c.dim for c in f.maximal_cones):
            assert [sr_hilbert(f, k) for k in range(5)] == [
                enumerated_hilbert(f, k) for k in range(5)
            ]
        else:
            with pytest.raises(NotSimplicial):
                sr_hilbert(f, 1)


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
    cases = [("p1", p1()), ("p2", p2()), ("p1xp1", p1xp1()), ("blp2", blp2()),
             ("diamond", diamond()), ("p3_starred3", p3_starred3()), ("lowdim", lowdim)]
    rng = random.Random(11)
    for name, fan in [("diamond", diamond()), ("lowdim", lowdim)]:
        for i in range(3):
            cases.append((f"{name}.image{i}", signed_shear_image(fan, rng)))
    return cases


def test_courant_smooth_plane_integral_and_dual():
    for name, fan in courant_cases():
        for r in _simplicial_rays(fan):
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


@pytest.mark.parametrize("ray", [(True, False), (1, False), (1.0, 0.0), ("1", "0")])
def test_courant_rejects_non_int_ray(ray):
    # (True, False) would otherwise name the ray (1, 0)
    with pytest.raises(TypeError, match="^ray must be an integer vector$"):
        courant_function(p2(), ray)


def test_characters_decompose_in_courant_basis():
    f = p2()
    for u in [(1, 0), (2, 5)]:
        total = pp_constant(f, 0)
        for r in _simplicial_rays(f):
            weight = sum(a * b for a, b in zip(u, r))
            total = pp_add(total, pp_scale(weight, courant_function(f, r).element))
        expected = pp_validate(
            f, {c.id_str: character_class(c.quotient, u) for c in f.maximal_cones}
        )
        assert total == expected
