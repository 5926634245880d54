"""The graded ring of integral piecewise polynomial functions on a fan.

An element assigns to every maximal cone a polynomial in that cone's
quotient character coordinates; the defining condition is that the
polynomials on any two maximal cones restrict equally to their common
face.  Checking all pairwise common faces is enough: restriction to a
smaller face factors through any intermediate one.

Fans, multifans and the wall graph of a complete fan all impose this
condition over a list of incidences: ``parts`` pairs each part id with its
cone, and each incidence ``(a, b, face id, face)`` asks parts a and b to
restrict equally to the face.  One checker (:func:`check_parts`) tests a
family of polynomials against such a list, and one assembler
(:func:`constraint_matrix`) turns it into the integer system of degree k.
Unknowns are the degree-k coefficients of all parts in canonical monomial
order; each incidence contributes rows (restriction from one side minus
restriction from the other), and the canonical kernel basis of that system
is the basis of the degree-k piece (:func:`piecewise_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone, quotient_restriction_matrix, restriction_matrix
from .errors import ConeNotInFan, FanMismatch, Incompatible, LatticeMismatch
from .fans import Fan, SubdivisionMap
from .intlinalg import IntMatrix, in_row_lattice, kernel_lattice
from .polynomials import (
    LocalPolynomial,
    degree_matrix,
    integrality_certificate,
    monomials_of_degree,
    restrict_to_face,
)


class PPElement:
    """A piecewise polynomial: one local polynomial per maximal cone.

    ``parts`` is keyed by the part ids of the container: cone id strings
    of a Fan, or node ids of a Multifan.
    """

    __slots__ = ("fan", "parts")

    def __init__(self, fan, parts):
        self.fan = fan
        self.parts = dict(sorted(parts.items()))

    @property
    def degree(self) -> int:
        return max((p.degree for p in self.parts.values()), default=0)

    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.parts.values())

    def __eq__(self, other):
        if not isinstance(other, PPElement):
            return NotImplemented
        return self.fan == other.fan and self.parts == other.parts

    def __repr__(self):
        inner = ", ".join(f"{k}: {p!r}" for k, p in self.parts.items())
        return f"PPElement({inner})"


def check_parts(container, parts):
    """Raise unless ``parts`` is a compatible family over the container.

    ``container`` is a Fan or a Multifan; ``parts`` maps each of its part
    ids to a LocalPolynomial over that part's quotient lattice.  Missing or
    extra keys, wrong types or lattices, and the first incidence whose two
    restrictions differ raise.
    """
    want = dict(container.parts)
    got = set(parts)
    if got != set(want):
        missing = sorted(set(want) - got)
        extra = sorted(got - set(want))
        raise FanMismatch(f"part keys do not match maximal cones (missing {missing}, extra {extra})")
    for pid, poly in parts.items():
        if not isinstance(poly, LocalPolynomial):
            raise TypeError(f"part {pid} is not a LocalPolynomial")
        if poly.lattice != want[pid].quotient:
            raise LatticeMismatch(f"part {pid} is not in the cone's quotient coordinates")
    for a, b, face, tau in container.incidences:
        fa = restrict_to_face(parts[a], want[a], tau)
        fb = restrict_to_face(parts[b], want[b], tau)
        if fa != fb:
            raise Incompatible(a, b, face, f"{fa!r} != {fb!r}")


def pp_validate(fan: Fan, parts) -> PPElement:
    """Check compatibility on all shared faces and wrap into a PPElement.

    ``parts`` maps each maximal cone id to a LocalPolynomial over that
    cone's quotient lattice; see :func:`check_parts` for what raises.
    """
    check_parts(fan, parts)
    return PPElement(fan, parts)


def pp_constant(fan, c: int) -> PPElement:
    parts = {
        cone.id_str: LocalPolynomial.constant(cone.quotient, c)
        for cone in fan.maximal_cones
    }
    return PPElement(fan, parts)


def _check_same_fan(a: PPElement, b: PPElement):
    if a.fan != b.fan:
        raise FanMismatch("elements live on different fans")
    if set(a.parts) != set(b.parts):
        raise FanMismatch("elements carry different part keys")


def pp_add(a: PPElement, b: PPElement) -> PPElement:
    _check_same_fan(a, b)
    return PPElement(a.fan, {k: a.parts[k] + b.parts[k] for k in a.parts})


def pp_mul(a: PPElement, b: PPElement) -> PPElement:
    _check_same_fan(a, b)
    return PPElement(a.fan, {k: a.parts[k] * b.parts[k] for k in a.parts})


def pp_scale(c: int, a: PPElement) -> PPElement:
    if not isinstance(c, int):
        raise TypeError("piecewise polynomials form a ring over the integers")
    return PPElement(a.fan, {k: p.scale(c) for k, p in a.parts.items()})


@dataclass(frozen=True)
class GradedBasis:
    """A lattice basis of one graded piece.

    ``coefficients`` holds the basis elements as rows of coefficient
    vectors; ``layout`` records, per part id, the monomials its coordinate
    block runs over, in order.
    """

    degree: int
    elements: tuple
    rank: int
    coefficients: IntMatrix
    layout: tuple

    def coefficient_vector(self, elem: PPElement):
        out = []
        for part_id, monos in self.layout:
            poly = elem.parts[part_id]
            out.extend(poly.coefficient(m) for m in monos)
        return tuple(out)

    def contains(self, elem: PPElement) -> bool:
        return in_row_lattice(self.coefficients, self.coefficient_vector(elem))


def constraint_matrix(parts, incidences, k: int):
    """Layout and difference-of-restrictions matrix of the degree-k conditions.

    Columns run over ``parts`` in order, one block of degree-k monomial
    coefficients each; each incidence ``(a, b, face id, face)`` contributes
    one block of rows, the restriction of part a to the face minus part b's.
    Returns ``(layout, matrix)`` with ``layout`` as in GradedBasis.
    """
    cones = dict(parts)
    layout = []
    offsets = {}
    total = 0
    for pid, cone in parts:
        monos = monomials_of_degree(cone.quotient.rank, k)
        offsets[pid] = total
        layout.append((pid, monos))
        total += len(monos)

    # Sym^k of each restriction, looked up by (part id, face id) first and
    # computed once per distinct restriction matrix
    sym_of_pair = {}
    sym_of_matrix = {}

    def restricted(pid, face, tau):
        if (pid, face) not in sym_of_pair:
            r = restriction_matrix(cones[pid], tau)
            if r not in sym_of_matrix:
                sym_of_matrix[r] = degree_matrix(r, k)
            sym_of_pair[pid, face] = sym_of_matrix[r]
        return sym_of_pair[pid, face]

    rows = []
    for a, b, face, tau in incidences:
        ra = restricted(a, face, tau)
        rb = restricted(b, face, tau)
        for r in range(ra.rows):
            row = [0] * total
            row[offsets[a] : offsets[a] + ra.cols] = ra.row(r)
            row[offsets[b] : offsets[b] + rb.cols] = [-x for x in rb.row(r)]
            rows.append(row)
    return tuple(layout), IntMatrix(rows, cols=total)


def piecewise_basis(container, k: int) -> GradedBasis:
    """Canonical lattice basis of the degree-k piece of a fan or multifan."""
    if k < 0:
        raise ValueError("negative degree")
    layout, matrix = constraint_matrix(container.parts, container.incidences, k)
    kernel = kernel_lattice(matrix)

    elements = []
    for b in range(kernel.rows):
        vec = iter(kernel.row(b))
        parts = {
            pid: LocalPolynomial(cone.quotient, {m: next(vec) for m in monos})
            for (pid, monos), (_, cone) in zip(layout, container.parts)
        }
        elements.append(PPElement(container, parts))
    return GradedBasis(
        degree=k,
        elements=tuple(elements),
        rank=kernel.rows,
        coefficients=kernel,
        layout=layout,
    )


def pp_basis(fan: Fan, k: int) -> GradedBasis:
    """Canonical lattice basis of the degree-k piecewise polynomials."""
    return piecewise_basis(fan, k)


def pp_restrict_orbit(a: PPElement, sigma: Cone) -> LocalPolynomial:
    """Restrict a piecewise polynomial to a single cone of its fan."""
    fan = a.fan
    entry = fan.face_index.get(sigma.key)
    if entry is None:
        raise ConeNotInFan(f"cone {sigma.id_str} is not in the fan")
    sigma = entry[0]
    i = entry[1][0]
    top = fan.maximal_cones[i]
    return restrict_to_face(a.parts[top.id_str], top, sigma)


def pp_pullback(m: SubdivisionMap, a: PPElement) -> PPElement:
    """Pull a piecewise polynomial back along a subdivision."""
    if a.fan != m.target:
        raise FanMismatch("element does not live on the subdivision's target fan")
    parts = {}
    for src in m.source.maximal_cones:
        tgt = m.target.cone_by_id(m.assignment[src.id_str])
        f = pp_restrict_orbit(a, tgt)
        r = quotient_restriction_matrix(tgt.quotient, src.quotient)
        parts[src.id_str] = f.substitute(r, src.quotient)
    return PPElement(m.source, parts)


@dataclass(frozen=True)
class PullbackReport:
    """Why an element failed to descend along a subdivision."""

    cone_id: str
    condition: str
    detail: str


def pp_is_pullback(m: SubdivisionMap, a: PPElement):
    """Decide whether an element of the refinement descends to the target.

    Returns ``(element_on_target, None)`` on success or ``(None, report)``
    naming the maximal target cone and the condition that failed: the
    assigned subcones must all carry the same polynomial, and that
    polynomial must have integer coefficients in the target cone's
    coordinates.
    """
    if a.fan != m.source:
        raise FanMismatch("element does not live on the subdivision's source fan")
    grouped: dict = {}
    for src_id, tgt_id in m.assignment.items():
        grouped.setdefault(tgt_id, []).append(src_id)
    parts = {}
    for sigma in m.target.maximal_cones:
        assigned = grouped.get(sigma.id_str, [])
        assert assigned, "subdivision validation guarantees coverage"
        candidate = a.parts[assigned[0]]
        assert candidate.lattice == sigma.quotient, (
            "full-dimensional subcones share the target cone's span"
        )
        for other in assigned[1:]:
            if a.parts[other] != candidate:
                return None, PullbackReport(
                    cone_id=sigma.id_str,
                    condition="same-polynomial",
                    detail=(
                        f"subcones {assigned[0]} and {other} carry different polynomials"
                    ),
                )
        witness, bad = integrality_certificate(candidate.to_rational())
        if witness is None:
            return None, PullbackReport(
                cone_id=sigma.id_str,
                condition="integrality",
                detail=f"non-integer coefficients {bad!r}",
            )
        parts[sigma.id_str] = witness
    return pp_validate(m.target, parts), None
