"""Courant product oracle for the piecewise polynomial ring of a smooth fan.

On a smooth fan the Courant functions (one per ray, 1 at that ray's
generator and 0 at every other) are integral, and their degree-k products
span the degree-k piecewise polynomials over Z: the ring is the face ring
(Billera 1989; Brion 1996).  The products are formed cone by cone with
``pp_mul`` and read off in ``pp_basis``'s coordinates, so the check shares
nothing with the constraint assembly or the kernel computation that
``pp_basis`` runs.
"""

from itertools import combinations, combinations_with_replacement

import pytest

from fanpoly.cones import Cone
from fanpoly.fans import Fan, star_subdivision
from fanpoly.fixtures import blp2, p1, p1xp1, p2
from fanpoly.intlinalg import IntMatrix, lattices_equal
from fanpoly.ppring import pp_basis, pp_constant, pp_mul
from fanpoly.stanley_reisner import SimplicialFanSR, courant_function


def projective_space(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return Fan(n, [Cone(n, gens) for gens in combinations(rays, n)])


def starred_twice(fan):
    """Star subdivision at a maximal cone, then at a maximal cone of the result."""
    once, _ = star_subdivision(fan, fan.maximal_cones[0])
    twice, _ = star_subdivision(once, once.maximal_cones[-1])
    return twice


FANS = {
    "p1": p1,
    "p2": p2,
    "p1xp1": p1xp1,
    "blp2": blp2,
    "p3": lambda: projective_space(3),
    "p3.starred2": lambda: starred_twice(projective_space(3)),
}


def test_starred_p3_has_eight_cones():
    assert len(FANS["p3.starred2"]().maximal_cones) == 8


@pytest.mark.parametrize("name", sorted(FANS))
def test_courant_products_span_pp_basis(name):
    fan = FANS[name]()
    dual = [courant_function(fan, r) for r in SimplicialFanSR(fan).rays]
    assert all(phi.is_integral for phi in dual)
    for k in range(4):
        gb = pp_basis(fan, k)
        vectors = []
        for combo in combinations_with_replacement(dual, k):
            product = pp_constant(fan, 1)
            for phi in combo:
                product = pp_mul(product, phi.element)
            vectors.append(gb.coefficient_vector(product))
        spanned = IntMatrix(vectors, cols=gb.coefficients.cols)
        assert lattices_equal(spanned, gb.coefficients), (name, k)
