"""Polynomial arithmetic, restriction, symmetric functions, integrality.

Restrictions are cross-checked by evaluating both sides at lattice points
of the face, which only uses the pairing of characters with points.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from corpus import ambient_lattice, character_class

from fanpoly.cones import Cone
from fanpoly.errors import FormatError, IndexOutOfRange, LatticeMismatch, NotAFace
from fanpoly.intlinalg import IntMatrix
from fanpoly.jsonio import poly_from_json, poly_to_json
from fanpoly.polynomials import (
    LocalPolynomial,
    RationalLocalPolynomial,
    degree_matrix,
    elementary_symmetric,
    integrality_certificate,
    monomials_of_degree,
    restrict_to_face,
)


def test_monomial_order():
    assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials_of_degree(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomials_of_degree(0, 0) == ((),)
    assert monomials_of_degree(0, 3) == ()
    assert len(monomials_of_degree(3, 4)) == 15


@pytest.mark.parametrize("rank", range(7))
@pytest.mark.parametrize("degree", range(6))
def test_monomial_order_matches_sorted_exponent_tuples(rank, degree):
    box = product(range(degree + 1), repeat=rank)
    assert monomials_of_degree(rank, degree) == tuple(
        sorted((e for e in box if sum(e) == degree), reverse=True)
    )


def test_arithmetic():
    lat = ambient_lattice(2)
    x = LocalPolynomial.variable(lat, 0)
    y = LocalPolynomial.variable(lat, 1)
    zero = LocalPolynomial.zero(lat)
    assert x + zero == x
    assert (x * x).terms == {(2, 0): 1}
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}
    assert (x + y) ** 2 == x * x + x * y + x * y + y * y
    assert (x + y).terms == {(1, 0): 1, (0, 1): 1}
    assert (x * y).terms == {(1, 1): 1}
    assert x.scale(3).terms == {(1, 0): 3}
    assert (-x).terms == {(1, 0): -1}
    assert x.degree == 1 and zero.degree == 0
    assert (x * y).is_homogeneous(2) and not (x * y + x).is_homogeneous(2)


def test_lattice_mismatch():
    a = LocalPolynomial.variable(ambient_lattice(2), 0)
    b = LocalPolynomial.variable(ambient_lattice(3), 0)
    with pytest.raises(LatticeMismatch):
        a + b


def test_rational_promotion():
    lat = ambient_lattice(1)
    x = LocalPolynomial.variable(lat, 0)
    h = x.scale(Fraction(1, 2))
    assert isinstance(h, RationalLocalPolynomial)
    assert h.terms == {(1,): Fraction(1, 2)}
    assert isinstance(h + x, RationalLocalPolynomial)
    assert (h + h) == RationalLocalPolynomial(x.lattice, dict(x.terms))
    assert x.scale(Fraction(4, 2)).terms == {(1,): 2}
    assert not isinstance(x.scale(Fraction(4, 2)), RationalLocalPolynomial)
    with pytest.raises(TypeError):
        LocalPolynomial(lat, {(1,): Fraction(1, 2)})


def test_evaluate():
    lat = ambient_lattice(2)
    f = LocalPolynomial(lat, {(2, 0): 1, (0, 1): 3})
    assert f.evaluate((2, 5)) == 4 + 15
    ray = Cone(2, [(1, 1)])
    u = character_class(ray.quotient, (2, 0))
    # the class of (2,0) on the span of (1,1) takes value 2k at (k,k)
    assert u.evaluate((1, 1)) == 2
    assert u.evaluate((3, 3)) == 6


def test_evaluate_rejects_wrong_length():
    # on the zero cone's lattice no coordinate reads the point, so only the check sees it
    constant = LocalPolynomial.constant(Cone(2, []).quotient, 5)
    assert constant.evaluate((0, 0)) == 5
    u = character_class(Cone(2, [(1, 1)]).quotient, (2, 0))
    for f, point in ((constant, (1, 2, 3)), (constant, (1,)), (u, (1, 1, 1)), (u, (1,))):
        with pytest.raises(ValueError, match="point has wrong length"):
            f.evaluate(point)


def test_bool_exponents_rejected():
    """A bool exponent would be written as a JSON boolean, which cannot be read back."""
    lat = ambient_lattice(2)
    for exps in ((True, False), (0, True)):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            LocalPolynomial(lat, {exps: 3})
    with pytest.raises(FormatError):
        poly_from_json(lat, [[[True, False], "3"]])
    f = LocalPolynomial(lat, {(1, 0): 3})
    assert poly_from_json(lat, poly_to_json(f)) == f


def test_character_class_well_defined():
    ray = Cone(2, [(1, 1)])
    u1 = character_class(ray.quotient, (2, 0))
    u2 = character_class(ray.quotient, (0, 2))
    assert u1 == u2  # (2,0) and (0,2) differ by (1,-1)*2 in the annihilator
    u3 = character_class(ray.quotient, (1, -1))
    assert u3.is_zero


def test_restriction_to_face_by_evaluation():
    sigma = Cone(2, [(1, 1), (-1, 1)])
    tau = Cone(2, [(1, 1)])
    f = character_class(sigma.quotient, (1, 1))
    g = restrict_to_face(f, sigma, tau)
    for k in range(1, 5):
        assert g.evaluate((k, k)) == f.evaluate((k, k))
    assert g.evaluate((1, 1)) == 2


def test_restriction_identity_on_self():
    sigma = Cone(2, [(1, 0), (0, 1)])
    f = LocalPolynomial(sigma.quotient, {(2, 1): 5, (0, 1): -2})
    assert restrict_to_face(f, sigma, sigma) == f


def test_restriction_is_ring_map():
    rng = random.Random(321)
    sigma = Cone(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    for tau in sigma.faces():
        for _ in range(3):
            f = LocalPolynomial(
                sigma.quotient,
                {m: rng.randint(-3, 3) for m in monomials_of_degree(3, rng.randint(0, 2))},
            )
            g = LocalPolynomial(
                sigma.quotient,
                {m: rng.randint(-3, 3) for m in monomials_of_degree(3, rng.randint(0, 2))},
            )
            lhs = restrict_to_face(f * g, sigma, tau)
            rhs = restrict_to_face(f, sigma, tau) * restrict_to_face(g, sigma, tau)
            assert lhs == rhs
            assert restrict_to_face(f + g, sigma, tau) == restrict_to_face(
                f, sigma, tau
            ) + restrict_to_face(g, sigma, tau)


def test_restriction_transitive_on_polynomials():
    sigma = Cone(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    facet = Cone(3, [(1, 1, 1), (1, -1, 1)])
    edge = Cone(3, [(1, -1, 1)])
    f = LocalPolynomial(sigma.quotient, {(1, 1, 0): 2, (0, 0, 2): 1, (1, 0, 0): -1})
    one_step = restrict_to_face(f, sigma, edge)
    two_step = restrict_to_face(restrict_to_face(f, sigma, facet), facet, edge)
    assert one_step == two_step


def test_restriction_requires_face():
    sigma = Cone(2, [(1, 0), (0, 1)])
    with pytest.raises(NotAFace):
        restrict_to_face(
            LocalPolynomial.zero(sigma.quotient), sigma, Cone(2, [(1, 1)])
        )
    with pytest.raises(LatticeMismatch):
        restrict_to_face(
            LocalPolynomial.zero(ambient_lattice(3)), sigma, Cone(2, [(1, 0)])
        )


def test_elementary_symmetric_small():
    lat = ambient_lattice(2)
    x = LocalPolynomial.variable(lat, 0)
    y = LocalPolynomial.variable(lat, 1)
    assert elementary_symmetric(lat, [x, y], 0) == LocalPolynomial.constant(lat, 1)
    assert elementary_symmetric(lat, [x, y], 1) == x + y
    assert elementary_symmetric(lat, [x, y], 2) == x * y
    assert elementary_symmetric(lat, [x, x], 2) == x * x
    e2 = elementary_symmetric(lat, [x, y, x + y], 2)
    assert e2.terms == {(2, 0): 1, (1, 1): 3, (0, 2): 1}
    with pytest.raises(IndexOutOfRange):
        elementary_symmetric(lat, [x, y], 3)
    with pytest.raises(ValueError):
        elementary_symmetric(lat, [x * x], 1)


@pytest.mark.parametrize("rank", range(4))
def test_elementary_symmetric_of_nothing_is_one(rank):
    lat = ambient_lattice(rank)
    assert elementary_symmetric(lat, [], 0) == LocalPolynomial.constant(lat, 1)


def test_elementary_symmetric_generating_identity():
    rng = random.Random(17)
    lat = ambient_lattice(3)
    us = [
        LocalPolynomial.linear_form(lat, [rng.randint(-2, 2) for _ in range(3)])
        for _ in range(4)
    ]
    # check sum over subsets of size i of the product equals e_i
    from itertools import combinations

    for i in range(5):
        direct = LocalPolynomial.zero(lat)
        for subset in combinations(us, i):
            term = LocalPolynomial.constant(lat, 1)
            for u in subset:
                term = term * u
            direct = direct + term
        assert elementary_symmetric(lat, us, i) == direct


def test_integrality_certificate():
    lat = ambient_lattice(2)
    f = RationalLocalPolynomial(lat, {(1, 0): Fraction(2), (0, 1): 3})
    g, bad = integrality_certificate(f)
    assert bad == {}
    assert isinstance(g, LocalPolynomial) and not isinstance(g, RationalLocalPolynomial)
    assert g.terms == {(1, 0): 2, (0, 1): 3}
    h = RationalLocalPolynomial(lat, {(1, 0): Fraction(1, 2)})
    g, bad = integrality_certificate(h)
    assert g is None
    assert bad == {(1, 0): Fraction(1, 2)}


def test_integrality_stable_under_unimodular_change():
    # accept/reject cannot depend on the choice of coordinates
    rng = random.Random(904)
    lat = ambient_lattice(3)
    for _ in range(20):
        terms = {
            m: Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
            for m in monomials_of_degree(3, 2)
        }
        f = RationalLocalPolynomial(lat, terms)
        w = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                q = rng.randint(-2, 2)
                for c in range(3):
                    w[i][c] += q * w[j][c]
        g = f.substitute(IntMatrix(w).transpose(), lat)
        ok_f = integrality_certificate(f)[0] is not None
        ok_g = integrality_certificate(g)[0] is not None
        assert ok_f == ok_g


def test_degree_matrix():
    r = IntMatrix([[1, 1], [0, 1]])
    m1 = degree_matrix(r, 1)
    assert m1 == r
    m2 = degree_matrix(r, 2)
    # images: x -> x, y -> x + y; columns follow (2,0),(1,1),(0,2)
    assert m2.tolist() == [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
    m0 = degree_matrix(r, 0)
    assert m0 == IntMatrix([[1]])
    proj = IntMatrix([], cols=2)
    assert degree_matrix(proj, 1).shape == (0, 2)
    assert degree_matrix(proj, 0) == IntMatrix([[1]])


def test_degree_matrix_is_shared_by_equal_matrices():
    """Sym^k is memoized by value: two distinct but equal inputs get one result."""
    a, b = IntMatrix([[2, -1], [0, 3], [1, 1]]), IntMatrix([[2, -1], [0, 3], [1, 1]])
    assert a is not b and a == b
    for k in range(4):
        assert degree_matrix(a, k) is degree_matrix(b, k)


def test_degree_matrix_functorial():
    rng = random.Random(55)
    for _ in range(10):
        a = IntMatrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)], cols=2)
        b = IntMatrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)], cols=3)
        for k in range(3):
            assert degree_matrix(b * a, k) == degree_matrix(b, k) * degree_matrix(a, k)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: monomials_of_degree(2, -1), ValueError, "negative degree"),
        (
            lambda: LocalPolynomial.variable(ambient_lattice(2), 2),
            IndexOutOfRange,
            "variable index 2 out of range",
        ),
        (
            lambda: LocalPolynomial.linear_form(ambient_lattice(2), (1, 2, 3)),
            ValueError,
            "wrong number of linear coefficients",
        ),
        (lambda: LocalPolynomial.variable(ambient_lattice(2), 0) ** -1, ValueError, "negative power"),
        (
            lambda: RationalLocalPolynomial(ambient_lattice(1), {(1,): True}),
            TypeError,
            "bool is not a polynomial coefficient",
        ),
        (
            lambda: RationalLocalPolynomial(ambient_lattice(1), {(1,): "1"}),
            TypeError,
            "rational coefficient required, got '1'",
        ),
        (
            lambda: elementary_symmetric(
                ambient_lattice(2), [LocalPolynomial.variable(ambient_lattice(3), 0)], 1
            ),
            LatticeMismatch,
            "multiset members live on different lattices",
        ),
    ],
    ids=[
        "negative_degree",
        "variable_range",
        "linear_form_length",
        "negative_power",
        "rational_bool",
        "rational_str",
        "elementary_symmetric_lattice",
    ],
)
def test_argument_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
