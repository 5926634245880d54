"""Face-ring combinatorics and ray dual functions of simplicial fans.

For a simplicial fan every cone is spanned by part of its ray set, so the
combinatorics is a simplicial complex on the rays: the maximal cones' face
keys.  Monomials in the rays whose support spans a cone count the graded
dimensions of the face ring (:func:`sr_hilbert`); these match the rational
graded dimensions of the piecewise polynomial ring, and on smooth fans
the integral ones too.

Each ray also carries a canonical piecewise linear function, one per ray,
taking value 1 at that ray's primitive generator and 0 at every other.
Being dual to the rays, these functions span a space of rank the number
of rays, which is ``sr_hilbert(fan, 1)``.  On non-smooth cones their
coefficients may be genuinely fractional, and the failure is reported
cone by cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import NotSimplicial, RayNotFound
from .fans import Fan
from .intlinalg import dot, primitive
from .polynomials import LocalPolynomial, RationalLocalPolynomial
from .ppring import PPElement, check_degree


def _simplicial_rays(fan: Fan) -> tuple:
    """The sorted rays of a fan, which must be simplicial."""
    for c in fan.maximal_cones:
        if len(c.generators) != c.dim:
            raise NotSimplicial(
                f"cone {c.id_str} has {len(c.generators)} rays in dimension {c.dim}"
            )
    return tuple(sorted({g for c in fan.maximal_cones for g in c.generators}))


def sr_hilbert(fan: Fan, k: int) -> int:
    """Degree-k ray monomials supported on one cone of a simplicial fan: those
    whose support is a given face with s rays (a face key) number C(k - 1, s - 1)."""
    _simplicial_rays(fan)
    check_degree(k)
    if k == 0:
        return 1
    faces = frozenset().union(*(c.face_keys() for c in fan.maximal_cones))
    return sum(comb(k - 1, len(gens) - 1) for _, gens in faces if gens)


@dataclass(frozen=True)
class CourantFunction:
    """The piecewise linear dual of one ray, with its integrality record."""

    ray: tuple
    element: PPElement
    nonintegral_cones: tuple

    @property
    def is_integral(self) -> bool:
        return not self.nonintegral_cones


def courant_function(fan: Fan, ray) -> CourantFunction:
    """Piecewise linear function equal to 1 at ``ray`` and 0 at other rays.

    The input vector may be any positive multiple of a ray generator.  On
    each simplicial cone containing the ray exactly one facet normal u is
    nonzero at it, and u / (u . ray) is the form that is 1 there and 0 at
    the cone's other generators; elsewhere the function vanishes.  Each form
    vanishes at every generator but the ray, so two cones' forms agree on the
    generators of a shared face, which span it: the element is wrapped unchecked.
    """
    rays = _simplicial_rays(fan)
    ray = tuple(ray)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in ray):
        raise TypeError("ray must be an integer vector")
    if not any(ray):
        raise RayNotFound("the zero vector is not a ray of the fan")
    r = primitive(ray)
    if r not in rays:
        raise RayNotFound(f"{r!r} is not a ray of the fan")
    parts = {}
    bad = []
    for cid, cone in sorted(fan.parts):
        lattice = cone.quotient
        if r not in cone.generators:
            parts[cid] = LocalPolynomial.zero(lattice)
            continue
        [(u, d)] = [(u, dot(u, r)) for u in cone.facet_normals if dot(u, r) != 0]
        coeffs = [Fraction(x, d) for x in lattice.reduce(u)]
        if all(c.denominator == 1 for c in coeffs):
            parts[cid] = LocalPolynomial.linear_form(lattice, coeffs)
        else:
            parts[cid] = RationalLocalPolynomial.linear_form(lattice, coeffs)
            bad.append(cid)
    return CourantFunction(
        ray=r,
        element=PPElement._trusted(fan, parts),
        nonintegral_cones=tuple(bad),
    )
