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
from itertools import combinations, combinations_with_replacement
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
        faces = set()
        for c in fan.maximal_cones:
            gens = [self.ray_index[g] for g in c.generators]
            for size in range(len(gens) + 1):
                for sub in combinations(gens, size):
                    faces.add(frozenset(sub))
        self.faces = frozenset(faces)

    def is_face(self, indices) -> bool:
        return frozenset(indices) in self.faces

    def minimal_nonfaces(self):
        """Smallest ray sets spanning no cone; all proper subsets do."""
        out = []
        for size in range(2, len(self.rays) + 1):
            for sub in combinations(range(len(self.rays)), size):
                if self.is_face(sub):
                    continue
                if all(self.is_face(sub[:i] + sub[i + 1 :]) for i in range(size)):
                    out.append(frozenset(sub))
        return tuple(sorted(out, key=sorted))

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


def _solve_square(rows, rhs):
    """Exact solution of a square integer system, as Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        assert pivot is not None, "ray generators of a simplicial cone are independent"
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


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
    each cone containing the ray the linear form is pinned by its values
    at the cone's generators, a square exact solve in the cone's quotient
    coordinates; elsewhere the function vanishes.
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
        pairing = [
            [dot(lattice.section.column(l), g) for l in range(lattice.rank)]
            for g in cone.generators
        ]
        rhs = [1 if g == r else 0 for g in cone.generators]
        coeffs = _solve_square(pairing, rhs)
        if all(c.denominator == 1 for c in coeffs):
            parts[cone.id_str] = LocalPolynomial.linear_form(
                lattice, [int(c) for c in coeffs]
            )
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
