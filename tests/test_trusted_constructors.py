"""What the library builds without checks is what the checks would build.

Kernel rows become basis elements through ``LocalPolynomial._trusted`` and
the integer layer wraps its own results through ``IntMatrix._of``; neither
validates nor reorders anything.  On the fixture fans and multifans at
k = 0..3 every such object must equal, term for term and row for row, what
the public constructor makes of the same data, and hash alike (constraint
assembly keys a dict by matrices).  Basis elements read back the kernel
rows they were wrapped from, keep their parts in id order, and share one
zero polynomial per part.  Restricting and substituting wrap their results
unchecked too, keeping the class and coefficient kind of the input.  The
public constructors keep rejecting bad input.
"""

from fractions import Fraction

import pytest
from corpus import (
    ambient_lattice,
    blp2,
    cube,
    diamond,
    doubled_cone,
    hypertoric_3lines,
    p1,
    p1xp1,
    p2,
    p3_starred3,
)
from reference_polynomials import reference_substitute

from fanpoly.cones import Cone, restriction_matrix
from fanpoly.fans import Fan
from fanpoly.intlinalg import IntMatrix, hnf, hnf_basis, kernel_lattice
from fanpoly.multifans import mpp_basis
from fanpoly.polynomials import (
    LocalPolynomial,
    RationalLocalPolynomial,
    degree_matrix,
    restrict_to_face,
)
from fanpoly.ppring import PPElement, constraint_matrix, pp_basis


def pentagon():
    """A complete fan whose cones in key order are not in id order: the id
    "-1,0;0,1" sorts before "-2,-1;-1,0", its key after."""
    rays = [(1, 0), (0, 1), (-1, 0), (-2, -1), (0, -1)]
    return Fan(2, [Cone(2, [rays[i], rays[(i + 1) % 5]]) for i in range(5)])


CONTAINERS = {
    "p1": (p1, pp_basis),
    "p2": (p2, pp_basis),
    "p1xp1": (p1xp1, pp_basis),
    "blp2": (blp2, pp_basis),
    "diamond": (diamond, pp_basis),
    "cube": (cube, pp_basis),
    "p3_starred3": (p3_starred3, pp_basis),
    "pentagon": (pentagon, pp_basis),
    "doubled_cone": (doubled_cone, mpp_basis),
    "hypertoric_3lines": (hypertoric_3lines, mpp_basis),
}
CASES = [(name, k) for name in CONTAINERS for k in range(4)]


def assert_checked_copy(m):
    assert isinstance(m.entries, tuple)
    assert m.rows == len(m.entries)
    for row in m.entries:
        assert isinstance(row, tuple) and len(row) == m.cols
        assert all(type(x) is int for x in row)
    copy = IntMatrix(m.entries, cols=m.cols)
    assert copy == m and copy.entries == m.entries
    assert hash(copy) == hash(m)


@pytest.mark.parametrize("name,k", CASES)
def test_basis_parts_equal_checked_polynomials(name, k):
    build, basis = CONTAINERS[name]
    for elem in basis(build(), k).elements:
        for p in elem.parts.values():
            checked = LocalPolynomial(p.lattice, p.terms)
            assert type(p) is LocalPolynomial
            assert checked == p
            assert list(checked.terms.items()) == list(p.terms.items())


@pytest.mark.parametrize("name,k", CASES)
def test_basis_elements_round_trip(name, k):
    build, basis = CONTAINERS[name]
    container = build()
    lattices = {pid: cone.quotient for pid, cone in container.parts}
    gb = basis(container, k)
    zeros = {}
    for elem, row in zip(gb.elements, gb.coefficients.entries, strict=True):
        assert gb.coefficient_vector(elem) == row
        assert list(elem.parts) == sorted(lattices)
        assert elem == PPElement(container, dict(elem.parts))
        for pid, p in elem.parts.items():
            if p.is_zero:
                assert p == LocalPolynomial.zero(lattices[pid])
                assert zeros.setdefault(pid, p) is p


@pytest.mark.parametrize("name,k", CASES)
def test_internal_matrices_equal_checked_matrices(name, k):
    container = CONTAINERS[name][0]()
    for rows in (container.gluing, container.incidences):
        layout, matrix = constraint_matrix(container.parts, rows, k)
        for m in (matrix, *hnf(matrix), hnf_basis(matrix), kernel_lattice(matrix)):
            assert_checked_copy(m)
        assert_checked_copy(matrix.transpose())
        assert_checked_copy(matrix * kernel_lattice(matrix).transpose())
    for _, cone in container.parts:
        assert_checked_copy(degree_matrix(cone.quotient.projection, k))


def assert_same_terms(got, want):
    """Equal, term for term in order, with the same class and coefficient types."""
    assert type(got) is type(want)
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


@pytest.mark.parametrize("name,k", [(name, k) for name in CONTAINERS for k in (1, 2)])
def test_restrictions_equal_checked_polynomials(name, k):
    build, basis = CONTAINERS[name]
    container = build()
    cones = dict(container.parts)
    elements = basis(container, k).elements
    seen = 0
    for a, b, _, face in container.incidences:
        for pid in (a, b):
            sigma = cones[pid]
            matrix = restriction_matrix(sigma, face)
            for elem in elements:
                p = elem.parts[pid]
                halves = RationalLocalPolynomial(
                    p.lattice, {e: Fraction(c, 2) for e, c in p.terms.items()}
                )
                for poly in (p, halves):
                    want = reference_substitute(poly, matrix, face.quotient)
                    for got in (
                        restrict_to_face(poly, sigma, face),
                        poly.substitute(matrix, face.quotient),
                    ):
                        assert_same_terms(got, want)
                        assert_same_terms(got, type(got)(got.lattice, got.terms))
                        seen += not got.is_zero
    # only restrictions to the zero cone (all of p1's faces) vanish throughout
    assert seen or all(face.dim == 0 for *_, face in container.incidences)


@pytest.mark.parametrize(
    "rows",
    [[[1.0, 2]], [[1, 2.5]], [[True, 0]], [[0, False]], [[1, 2], [3]], [[1], [2, 3]]],
)
def test_public_matrix_constructor_rejects_bad_rows(rows):
    with pytest.raises((TypeError, ValueError)):
        IntMatrix(rows)


@pytest.mark.parametrize(
    "terms",
    [
        {(1, 0): 1.0},
        {(1, 0): 0.5},
        {(1, 0): True},
        {(0, 1): False},
        {(1,): 1},
        {(1, 0, 0): 1},
        {(1.0, 0): 1},
        {range(2): 1},
    ],
)
def test_public_polynomial_constructor_rejects_bad_terms(terms):
    with pytest.raises((TypeError, ValueError)):
        LocalPolynomial(ambient_lattice(2), terms)


@pytest.mark.parametrize("terms", [[((1, 0), 3)], (((1, 0), 3), ((1, 0), 4)), iter([])])
def test_polynomial_terms_are_a_dict(terms):
    with pytest.raises(TypeError, match="^terms must be a dict of exponent tuples, got "):
        LocalPolynomial(ambient_lattice(2), terms)


def test_public_constructors_keep_canonical_order():
    p = LocalPolynomial(ambient_lattice(2), {(0, 1): 2, (1, 0): Fraction(3), (0, 0): 0})
    assert list(p.terms.items()) == [((1, 0), 3), ((0, 1), 2)]
    assert IntMatrix([[1, 0], [0, 1]]) == IntMatrix.identity(2)
