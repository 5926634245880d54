"""Face-ring combinatorics and ray dual functions of simplicial fans.

For a simplicial fan every cone is spanned by part of its ray set, so the
combinatorics is a simplicial complex on the rays.  Monomials in the rays
whose support spans a cone count the graded dimensions of the face ring;
these match the rational graded dimensions of the piecewise polynomial
ring, and on smooth fans the integral ones too.

Each ray also carries a canonical piecewise linear function, one per ray,
taking value 1 at that ray's primitive generator and 0 at every other.
On non-smooth cones its coefficients may be genuinely fractional, and the
failure is reported cone by cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

from .errors import NotSimplicial, RayNotFound
from .fans import Fan
from .intlinalg import IntMatrix, dot, primitive, rank
from .polynomials import LocalPolynomial, RationalLocalPolynomial
from .ppring import PPElement, pp_basis, pp_validate


class SimplicialFanSR:
    """The ray complex of a simplicial fan."""

    __slots__ = ("fan", "rays", "ray_index", "faces")

    def __init__(self, fan: Fan):
        for c in fan.maximal_cones:
            if len(c.generators) != c.dim:
                raise NotSimplicial(
                    f"cone {c.id_str} has {len(c.generators)} rays in dimension {c.dim}"
                )
        self.fan = fan
        rays = set()
        for c in fan.maximal_cones:
            rays.update(c.generators)
        self.rays = tuple(sorted(rays))
        self.ray_index = {r: i for i, r in enumerate(self.rays)}
        self.faces = frozenset(
            frozenset(self.ray_index[g] for g in f.generators)
            for f, _ in fan.face_index.values()
        )

    def is_face(self, indices) -> bool:
        return frozenset(indices) in self.faces

    def hilbert(self, k: int) -> int:
        """Degree-k monomials in the rays supported on a single cone."""
        if k < 0:
            raise ValueError("negative degree")
        if k == 0:
            return 1
        count = 0
        for combo in combinations_with_replacement(range(len(self.rays)), k):
            if self.is_face(set(combo)):
                count += 1
        return count


def sr_hilbert(fan: Fan, k: int) -> int:
    return SimplicialFanSR(fan).hilbert(k)


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
    the cone's other generators; elsewhere the function vanishes.
    """
    sr = SimplicialFanSR(fan)
    ray = tuple(ray)
    if not any(ray):
        raise RayNotFound("the zero vector is not a ray of the fan")
    r = primitive(ray)
    if r not in sr.ray_index:
        raise RayNotFound(f"{r!r} is not a ray of the fan")
    parts = {}
    bad = []
    for cone in fan.maximal_cones:
        lattice = cone.quotient
        if r not in cone.generators:
            parts[cone.id_str] = LocalPolynomial.zero(lattice)
            continue
        [(u, d)] = [(u, dot(u, r)) for u in cone.facet_normals if dot(u, r) != 0]
        coeffs = [Fraction(x, d) for x in lattice.reduce(u)]
        if all(c.denominator == 1 for c in coeffs):
            parts[cone.id_str] = LocalPolynomial.linear_form(lattice, coeffs)
        else:
            parts[cone.id_str] = RationalLocalPolynomial.linear_form(lattice, coeffs)
            bad.append(cone.id_str)
    return CourantFunction(
        ray=r,
        element=pp_validate(fan, parts),
        nonintegral_cones=tuple(sorted(bad)),
    )


def courant_span_rank(fan: Fan) -> int:
    """Rank over the rationals of the span of all the ray dual functions."""
    gb = pp_basis(fan, 1)
    vectors = []
    for r in SimplicialFanSR(fan).rays:
        vec = gb.coefficient_vector(courant_function(fan, r).element)
        denom = lcm(*(Fraction(x).denominator for x in vec)) if vec else 1
        vectors.append([int(Fraction(x) * denom) for x in vec])
    if not vectors:
        return 0
    return rank(IntMatrix(vectors, cols=len(vectors[0])))
