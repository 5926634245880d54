"""The ring modulo linear forms: an h-vector oracle for complete simplicial fans.

Over Q, PP^* of a complete simplicial fan is its face ring, which is
Cohen-Macaulay, and the n coordinate characters of M form a linear system
of parameters (Billera 1989; Brion 1996).  So PP^k / (M * PP^(k-1)) has
rank h_k, read off the face counts alone:

    h_k = sum_i (-1)^(k-i) C(n-i, k-i) f_i,  f_i the number of i-dimensional cones,

and h_k = 0 for k > n.  For a smooth fan the quotient is the Chow group
A^k(X), which has no torsion.  The quotient is taken from the library's
bases at two degrees: each element of PP^(k-1) times each coordinate
character (``pp_mul``) is written on PP^k's Hermite rows
(``coefficient_vector``, then ``divide``), and ``snf`` of those rows' Hermite
basis gives the rank of M * PP^(k-1) and the torsion of the quotient.  Nothing
here runs the kernel a second time (each degree's basis is built once), and
the prediction uses no basis at all.

The cube fan is not simplicial, so there is no prediction for it; its
ranks at k = 1..4 are frozen (a module generator in degree 4).
"""

import random
from itertools import combinations
from math import comb

import pytest
from corpus import (
    blp2,
    character_class,
    cube,
    det,
    diamond,
    gl_image,
    p1,
    p1xp1,
    p2,
    p3_starred3,
    projective_space,
    random_refinement,
    subdivided_p3,
)

from fanpoly.cones import Cone
from fanpoly.fans import Fan
from fanpoly.intlinalg import IntMatrix, divide, hnf_basis, snf
from fanpoly.ppring import PPElement, pp_basis, pp_mul


def weighted(rays):
    """The complete fan whose maximal cones are the n-subsets of n + 1 rays."""
    n = len(rays[0])
    return Fan(n, [Cone(n, gens) for gens in combinations(rays, n)])


FANS = {
    "p1": p1,
    "p2": p2,
    "p1xp1": p1xp1,
    "diamond": diamond,
    "blp2": blp2,
    "p3": lambda: projective_space(3),
    "p3_starred3": p3_starred3,
    # P^3 starred six times, as in the benchmark's ring workload
    "p3sub6": lambda: subdivided_p3(random.Random(0), 6),
    "p112": lambda: weighted([(1, 0), (0, 1), (-1, -2)]),
    "p123": lambda: weighted([(1, 0), (0, 1), (-2, -3)]),
    # P^2 modulo Z/3
    "p2_z3": lambda: weighted([(3, -2), (0, 1), (-3, 1)]),
    "p1113": lambda: weighted([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -3)]),
    "p1235": lambda: weighted([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, -3, -5)]),
}


# the simplicial bases of tests/test_random_fans.py, refined as there; SLOW is
# left out for time (see test_random_refinements_have_the_h_vector)
REFINED = {"p2": p2, "p1xp1": p1xp1, "p3": lambda: projective_space(3)}
SLOW = {("p3", 0, True), ("p3", 1, True)}
REFINEMENTS = [
    (b, s, w) for b in REFINED for s in range(3) for w in (False, True) if (b, s, w) not in SLOW
]


def h_vector(fan):
    """h_0..h_(n+1) from the number of cones of each dimension."""
    n = fan.ambient_rank
    f = [0] * (n + 1)
    for cone, _ in fan.face_index.values():
        f[cone.dim] += 1
    h = [sum((-1) ** (k - i) * comb(n - i, k - i) * f[i] for i in range(k + 1)) for k in range(n + 1)]
    return h + [0]


def coordinate_characters(fan):
    """The n coordinate characters of M as piecewise linear elements."""
    n = fan.ambient_rank
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return [
        PPElement(fan, {pid: character_class(cone.quotient, u) for pid, cone in fan.parts})
        for u in units
    ]


def quotients_by_linear_forms(fan):
    """(rank, elementary divisors other than 1) of PP^k / (M * PP^(k-1)) for
    k = 0..n + 1, each degree's basis built once."""
    bases = [pp_basis(fan, k) for k in range(fan.ambient_rank + 2)]
    characters = coordinate_characters(fan)
    out = [(bases[0].rank, ())]
    for below, top in zip(bases, bases[1:]):
        products = []
        for x in characters:
            for e in below.elements:
                coefficients = divide(top.coefficients.entries, top.coefficient_vector(pp_mul(x, e)))
                assert coefficients is not None
                products.append(coefficients)
        divisors = snf(hnf_basis(IntMatrix(products, cols=top.rank))).nonzero_divisors()
        out.append((top.rank - len(divisors), tuple(d for d in divisors if d != 1)))
    return out


def is_smooth(fan):
    n = fan.ambient_rank
    return all(abs(det(IntMatrix(c.generators, cols=n))) == 1 for c in fan.maximal_cones)


def check_h_vector(fan, name):
    """The quotient ranks of the fan and one GL_n(Z) image are its h-vector."""
    assert all(len(c.generators) == c.dim for c in fan.maximal_cones)
    want = h_vector(fan)
    assert want[0] == 1 and want[: fan.ambient_rank + 1] == want[fan.ambient_rank :: -1]
    for image in (fan, gl_image(fan, random.Random(name))):
        quotients = quotients_by_linear_forms(image)
        assert [rank for rank, _ in quotients] == want, name
        if is_smooth(fan):
            assert all(torsion == () for _, torsion in quotients), name


@pytest.mark.parametrize("name", sorted(FANS))
def test_quotient_ranks_are_the_h_vector(name):
    check_h_vector(FANS[name](), name)


@pytest.mark.parametrize(
    "base,seed,weighted",
    REFINEMENTS,
    ids=[f"{b}.{s}.{'w' if w else 'd'}" for b, s, w in REFINEMENTS],
)
def test_random_refinements_have_the_h_vector(base, seed, weighted):
    """Each simplicial case of tests/test_random_fans.py, built from the same seed.

    P^3 starred at weighted points with seeds 0 and 1 (p3.0.w and p3.1.w) is
    left out: the two take as long as the other sixteen together, and both
    agree with h_k, without torsion, when run by hand.
    """
    rng = random.Random(f"{base}.{seed}.{weighted}")
    fan, _ = random_refinement(REFINED[base](), rng, rng.randint(2, 4), weighted)
    check_h_vector(fan, f"{base}.{seed}.{weighted}")


def test_cube_ranks_are_frozen():
    """Not simplicial: no prediction, and a generator in degree 4."""
    fan = cube()
    for image in (fan, gl_image(fan, random.Random("cube"))):
        ranks = [rank for rank, _ in quotients_by_linear_forms(image)[1:]]
        assert ranks == [1, 2, 1, 1]
