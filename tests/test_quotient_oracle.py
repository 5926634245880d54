"""Quotient lattices against the frozen Smith form and inverse.

For every face of the corpus fans, of P^3 starred three times, of seeded
GL_n(Z) images of them, and of every node of the hypertoric multifans, the
quotient lattice is checked against ``reference_intlinalg`` alone:

* the projection Q is the transpose of the last d columns of the frozen
  ``snf(span_perp).V``, so every quotient coordinate is the one it was;
* Q * S = I, with shapes 0 x n and n x 0 on the zero cone and n x n on a
  full-dimensional cone;
* every restriction matrix to a face tau is tau's Q times the section read
  off the frozen inverse of V (its last d rows, transposed), the section
  the quotient was built with before it was read off a Hermite transform;
* a polynomial takes the same values at the cone's generators, and at their
  sum, whichever of the two sections its lattice carries.
"""

import random

import pytest
from corpus import (
    HYPERTORIC_VECTORS,
    blp2,
    cube,
    diamond,
    doubled_cone,
    gl_image,
    hypertoric_3lines,
    p1,
    p1xp1,
    p2,
    p3_starred3,
    projective_space,
)
from reference_intlinalg import reference_snf, reference_solve_left

from fanpoly.cones import Cone, QuotientCharacterLattice, restriction_matrix
from fanpoly.intlinalg import IntMatrix
from fanpoly.multifans import hypertoric_multifan
from fanpoly.polynomials import LocalPolynomial, monomials_of_degree

CORPUS = {
    "p1": p1,
    "p2": p2,
    "p1xp1": p1xp1,
    "diamond": diamond,
    "blp2": blp2,
    "cube": cube,
    "p3": lambda: projective_space(3),
    "p4": lambda: projective_space(4),
    "p3_starred3": p3_starred3,
}
MULTIFANS = {
    "ht3lines": hypertoric_3lines,
    "doubled": doubled_cone,
    **{f"ht{m}": (lambda m=m: hypertoric_multifan(3, HYPERTORIC_VECTORS[m])) for m in (5, 7, 9)},
}


def matmul(a, b):
    """Rows of a times rows of b, as plain tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in zip(*b)) for r in a)


def frozen_quotient(cone):
    """(Q, S) off the frozen Smith transform V of span_perp and its frozen inverse."""
    n, r = cone.ambient_rank, cone.span_perp.rows
    v = reference_snf(cone.span_perp).V
    vinv = reference_solve_left(v, IntMatrix.identity(n))
    q = tuple(tuple(v[i, j] for i in range(n)) for j in range(r, n))
    s = tuple(tuple(vinv[j, i] for j in range(r, n)) for i in range(n))
    return q, s


def faces(cones):
    """Every face of the given cones, once each."""
    out = {}
    for cone in cones:
        out.setdefault(cone.key, cone)
        for key in cone.face_keys():
            out.setdefault(key, Cone(*key))
    return sorted(out.values(), key=lambda c: c.key)


def cases():
    rng = random.Random(2718)
    for name, build in CORPUS.items():
        fan = build()
        yield name, faces(fan.maximal_cones)
        for seed in range(2):
            yield f"{name}_gl{seed}", faces(gl_image(fan, rng).maximal_cones)
    for name, build in MULTIFANS.items():
        yield name, faces(build().cones.values())


CASES = dict(cases())


def check_quotient(cone):
    n, d = cone.ambient_rank, cone.dim
    lat = cone.quotient
    q, s_frozen = frozen_quotient(cone)
    assert lat.projection.entries == q
    assert lat.rank == d
    assert lat.projection.shape == (d, n)
    assert lat.section.shape == (n, d)
    assert matmul(lat.projection.entries, lat.section.entries) == IntMatrix.identity(d).entries
    return s_frozen


@pytest.mark.parametrize("name", sorted(CASES))
def test_projection_and_restrictions_are_frozen(name):
    cones = CASES[name]
    sections = {c.key: check_quotient(c) for c in cones}
    for sigma in cones:
        for tau in cones:
            if tau.key in sigma.face_keys():
                want = matmul(tau.quotient.projection.entries, sections[sigma.key])
                assert restriction_matrix(sigma, tau).entries == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_values_do_not_depend_on_the_section(name):
    rng = random.Random(name)
    for cone in CASES[name]:
        lat = cone.quotient
        frozen = QuotientCharacterLattice(
            lat.rank, lat.projection, IntMatrix(frozen_quotient(cone)[1], lat.rank)
        )
        terms = {
            e: rng.randint(-3, 3) for k in range(3) for e in monomials_of_degree(lat.rank, k)
        }
        f, g = LocalPolynomial(lat, terms), LocalPolynomial(frozen, terms)
        points = list(cone.generators)
        points.append(tuple(map(sum, zip(*points))) if points else (0,) * cone.ambient_rank)
        for p in points:
            assert f.evaluate(p) == g.evaluate(p)

