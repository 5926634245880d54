"""The graded ring of integral piecewise polynomial functions on a fan.

An element assigns to every maximal cone a polynomial in that cone's
quotient character coordinates; the defining condition is that the
polynomials on any two maximal cones restrict equally to their common
face.

Fans, multifans and the wall graph of a complete fan all impose this
condition over a list of incidences: ``parts`` pairs each part id with its
cone, and each incidence ``(a, b, face id, face)`` asks parts a and b to
restrict equally to the face.  One scan (:func:`first_disagreement`) checks
elements and bundle multisets against such a list, and one assembler
(:func:`constraint_matrix`) turns it into the integer system of degree k.
Unknowns are the degree-k coefficients of all parts in canonical monomial
order; each incidence contributes rows (restriction from one side minus
restriction from the other), and the canonical kernel basis of that system
is the basis of the degree-k piece (:func:`pp_basis`), held as those
Hermite rows alone; its elements are built from them when read.

Most incidences are redundant.  Restriction to a face factors through any
larger face, so two parts that agree on a larger shared face agree on the
smaller one too (Billera 1989).  :func:`fanpoly.fans.spanning_gluing`
keeps one spanning forest of incidences per shared face, the ``gluing`` of
a fan or multifan: on a complete simplicial fan these are exactly its
walls.  Every family that agrees along the gluing agrees on every
incidence, so the basis is assembled over the gluing alone and the checker
tests it first.

An element is checked where it is built: ``PPElement(container, parts)``
runs the checker.  What the library builds from checked data (ring
operations, basis elements, pullbacks, descended elements, Chern classes,
ray dual functions) is compatible by construction and is wrapped through
``PPElement._trusted`` unchecked, with its parts in sorted id order.

A subdivision assigns each of its maximal cones to a maximal cone of the
same dimension, which has the same span and so the same quotient lattice:
a pullback restricts nothing, it copies each part onto the cones inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import TYPE_CHECKING

from .cones import Cone, restriction_matrix
from .errors import ConeNotInFan, FanMismatch, Incompatible, LatticeMismatch
from .fans import Fan, SubdivisionMap
from .intlinalg import IntMatrix, divide, kernel_lattice
from .polynomials import (
    LocalPolynomial,
    degree_matrix,
    integrality_certificate,
    monomials_of_degree,
    restrict_to_face,
)

if TYPE_CHECKING:
    from .multifans import Multifan


class PPElement:
    """A piecewise polynomial: one local polynomial per maximal cone.

    ``PPElement(container, parts)`` checks ``parts`` against the container,
    a Fan or a Multifan: ``parts`` maps each of its part ids (cone id
    strings of a Fan, node ids of a Multifan) to a LocalPolynomial over
    that part's quotient lattice.  Missing or extra keys, wrong types or
    lattices, and the first incidence whose two restrictions differ raise.
    Parts are kept in sorted id order.
    """

    __slots__ = ("fan", "parts")

    def __init__(self, fan, parts):
        want = dict(fan.parts)
        got = set(parts)
        if got != set(want):
            missing = sorted(set(want) - got)
            extra = sorted(got - set(want))
            raise FanMismatch(
                f"part keys do not match maximal cones (missing {missing}, extra {extra})"
            )
        for pid, poly in parts.items():
            if not isinstance(poly, LocalPolynomial):
                raise TypeError(f"part {pid} is not a LocalPolynomial")
            if poly.lattice != want[pid].quotient:
                raise LatticeMismatch(f"part {pid} is not in the cone's quotient coordinates")

        def restricted(pid, tau):
            return restrict_to_face(parts[pid], want[pid], tau)

        bad = first_disagreement(fan, restricted)
        if bad:
            a, b, face, tau = bad
            raise Incompatible(a, b, face, f"{restricted(a, tau)!r} != {restricted(b, tau)!r}")
        self.fan = fan
        self.parts = dict(sorted(parts.items()))

    @classmethod
    def _trusted(cls, fan, parts: dict):
        """Wrap parts already keyed in sorted id order; nothing is checked."""
        self = object.__new__(cls)
        self.fan = fan
        self.parts = parts
        return self

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


def first_disagreement(container, restrict):
    """The first incidence ``(a, b, face id, face)`` of a fan or multifan
    with ``restrict(a, face) != restrict(b, face)``, or None.

    Agreement along the gluing implies it on every incidence, so the full
    list is scanned only to name the first failure.
    """

    def differ(inc):
        return restrict(inc[0], inc[3]) != restrict(inc[1], inc[3])

    if any(map(differ, container.gluing)):
        return next(filter(differ, container.incidences))
    return None


def pp_validate(fan: Fan | Multifan, parts) -> PPElement:
    """Check compatibility on all shared faces and wrap into a PPElement.

    ``parts`` maps each part id of the Fan or Multifan to a LocalPolynomial
    over its quotient lattice: ``PPElement(fan, parts)``, which says what raises.
    """
    return PPElement(fan, parts)


def pp_constant(fan, c: int) -> PPElement:
    parts = {pid: LocalPolynomial.constant(cone.quotient, c) for pid, cone in sorted(fan.parts)}
    return PPElement._trusted(fan, parts)


def _check_same_fan(a: PPElement, b: PPElement):
    if a.fan != b.fan:
        raise FanMismatch("elements live on different fans")


def pp_add(a: PPElement, b: PPElement) -> PPElement:
    _check_same_fan(a, b)
    return PPElement._trusted(a.fan, {k: a.parts[k] + b.parts[k] for k in a.parts})


def pp_mul(a: PPElement, b: PPElement) -> PPElement:
    _check_same_fan(a, b)
    return PPElement._trusted(a.fan, {k: a.parts[k] * b.parts[k] for k in a.parts})


def pp_scale(c: int, a: PPElement) -> PPElement:
    if not isinstance(c, int) or isinstance(c, bool):
        raise TypeError("piecewise polynomials form a ring over the integers")
    return PPElement._trusted(a.fan, {k: p.scale(c) for k, p in a.parts.items()})


@dataclass(frozen=True)
class GradedBasis:
    """A lattice basis of one graded piece of ``container``, a fan or multifan.

    The basis is its Hermite rows ``coefficients``, one coefficient vector
    per element; ``layout`` lists per part id the monomials of its block of
    coordinates, in order.  ``rank`` is read off the rows and ``elements``
    are built from them on first read.  Another container's element raises
    FanMismatch.
    """

    container: Fan | Multifan
    degree: int
    coefficients: IntMatrix
    layout: tuple

    @property
    def rank(self) -> int:
        return self.coefficients.rows

    @cached_property
    def elements(self) -> tuple:
        """One element per row; a part whose slice is zero is one zero
        polynomial shared by every element, never modified in place."""
        # each part's slice and zero polynomial, worked out once, in part id order
        starts = accumulate((len(monos) for _, monos in self.layout), initial=0)
        blocks = sorted(
            (pid, monos, lo, lo + len(monos), LocalPolynomial._trusted(cone.quotient, {}))
            for (pid, monos), (_, cone), lo in zip(self.layout, self.container.parts, starts)
        )
        # monomials_of_degree lists one degree in canonical order, so a part's
        # nonzero coefficients in layout order are already canonical terms
        elements = []
        for row in self.coefficients.entries:
            parts = {
                pid: LocalPolynomial._trusted(zero.lattice, dict(compress(zip(monos, seg), seg)))
                if any(seg := row[lo:hi])
                else zero
                for pid, monos, lo, hi, zero in blocks
            }
            elements.append(PPElement._trusted(self.container, parts))
        return tuple(elements)

    def coefficient_vector(self, elem: PPElement):
        """The degree-k coefficients of ``elem`` in layout order; a term of
        another degree raises ValueError."""
        if elem.fan != self.container:
            raise FanMismatch("element does not live on the basis's fan")
        if not all(p.is_homogeneous(self.degree) for p in elem.parts.values()):
            raise ValueError(f"element has terms outside degree {self.degree}")
        out = []
        for part_id, monos in self.layout:
            poly = elem.parts[part_id]
            out.extend(poly.coefficient(m) for m in monos)
        return tuple(out)

    def contains(self, elem: PPElement) -> bool:
        """Divide ``elem``'s vector by the Hermite rows.  A term of another
        degree answers False; a coefficient that is not an int raises TypeError."""
        try:
            vec = self.coefficient_vector(elem)
        except ValueError:
            return False
        (row,) = IntMatrix([vec], cols=self.coefficients.cols).entries  # checks entry types
        return divide(self.coefficients.entries, row) is not None


def check_degree(k: int):
    """Refuse a bool or negative degree, as every graded count does."""
    if isinstance(k, bool):
        raise TypeError("degree must be an integer, not a bool")
    if k < 0:
        raise ValueError("negative degree")


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

    rows = []
    for a, b, _, tau in incidences:
        ra = degree_matrix(restriction_matrix(cones[a], tau), k)
        rb = degree_matrix(restriction_matrix(cones[b], tau), k)
        for r in range(ra.rows):
            row = [0] * total
            row[offsets[a] : offsets[a] + ra.cols] = ra.row(r)
            row[offsets[b] : offsets[b] + rb.cols] = [-x for x in rb.row(r)]
            rows.append(tuple(row))
    return tuple(layout), IntMatrix._of(tuple(rows), total)


def pp_basis(container: Fan | Multifan, k: int) -> GradedBasis:
    """Canonical lattice basis of the degree-k piecewise polynomials on a Fan or Multifan."""
    check_degree(k)
    layout, matrix = constraint_matrix(container.parts, container.gluing, k)
    return GradedBasis(container, k, kernel_lattice(matrix), layout)


def pp_restrict_orbit(a: PPElement, sigma: Cone) -> LocalPolynomial:
    """Restrict a piecewise polynomial to a single cone of its fan; this reads
    the fan's faces, so an element on a multifan raises FanMismatch."""
    fan = a.fan
    if not isinstance(fan, Fan):
        raise FanMismatch("orbit restriction reads a fan's faces; the element is not on a fan")
    entry = fan.face_index.get(sigma.key)
    if entry is None:
        raise ConeNotInFan(f"cone {sigma.id_str} is not in the fan")
    sigma = entry[0]
    i = entry[1][0]
    top = fan.maximal_cones[i]
    return restrict_to_face(a.parts[top.id_str], top, sigma)


def pp_pullback(m: SubdivisionMap, a: PPElement) -> PPElement:
    """Pull a piecewise polynomial back along a subdivision.

    Each source cone keeps the part of the maximal target cone it tiles,
    which has the same dimension, span and quotient lattice.
    """
    if a.fan != m.target:
        raise FanMismatch("element does not live on the subdivision's target fan")
    return PPElement._trusted(m.source, {sid: a.parts[t] for sid, t in m.assignment.items()})


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
    coordinates.  ``a``, like every element, is a checked element, so each
    tile's part lives on its target cone's quotient lattice.  The result is
    not re-checked: target cones sharing a face tau have tiles that meet in a
    source face with tau's span, hence tau's quotient lattice, where ``a`` agrees.
    """
    if a.fan != m.source:
        raise FanMismatch("element does not live on the subdivision's source fan")
    parts = {}
    for sigma in m.target.maximal_cones:
        sigma_id = sigma.id_str
        assigned = m.tiles[sigma_id]  # subdivision validation guarantees coverage
        candidate = a.parts[assigned[0]]
        for other in assigned[1:]:
            if a.parts[other] != candidate:
                return None, PullbackReport(
                    cone_id=sigma_id,
                    condition="same-polynomial",
                    detail=(
                        f"subcones {assigned[0]} and {other} carry different polynomials"
                    ),
                )
        witness, bad = integrality_certificate(candidate)
        if witness is None:
            return None, PullbackReport(
                cone_id=sigma_id,
                condition="integrality",
                detail=f"non-integer coefficients {bad!r}",
            )
        parts[sigma_id] = witness
    return PPElement._trusted(m.target, dict(sorted(parts.items()))), None
