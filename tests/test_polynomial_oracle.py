"""The direct Sym^k kernel against the frozen polynomial expansion.

``degree_matrix`` and ``LocalPolynomial.substitute`` are computed both by
``fanpoly.polynomials`` and by the frozen copies in
``reference_polynomials``, and must agree bit for bit: the same matrix
entries, and the same class, lattice, term order and coefficient types.
Inputs are seeded random integer matrices of every shape t x s with
t, s in 0..4 (negative entries and zero columns included) at k = 0..5,
mixed-degree integer and rational polynomials, and single terms of
degree up to 24.  Restriction along a face of a subdivided P^3 is the
substitution of the face's restriction matrix, with no powers kept on the
cone; x^16 and x^64 there must match the frozen expansion and build powers
only as far as the term needs.
"""

import random
from fractions import Fraction

import pytest
from corpus import ambient_lattice, subdivided_p3
from reference_polynomials import reference_degree_matrix, reference_substitute

from fanpoly import polynomials
from fanpoly.cones import restriction_matrix
from fanpoly.intlinalg import IntMatrix
from fanpoly.polynomials import (
    LocalPolynomial,
    RationalLocalPolynomial,
    degree_matrix,
    monomials_of_degree,
    restrict_to_face,
)


def random_matrix(rng, t, s):
    """A t x s integer matrix; each column is zero with probability 1/4."""
    zero = [rng.random() < 0.25 for _ in range(s)]
    return IntMatrix(
        [[0 if zero[j] else rng.randint(-3, 3) for j in range(s)] for _ in range(t)],
        cols=s,
    )


def random_polynomial(rng, cls, rank):
    """Terms of several degrees in 0..4; Fraction coefficients for the rational class."""
    terms = {}
    for d in rng.sample(range(5), rng.randint(0, 3)):
        for m in monomials_of_degree(rank, d):
            if rng.random() < 0.6:
                c = rng.randint(-5, 5)
                terms[m] = c if cls is LocalPolynomial else Fraction(c, rng.choice((1, 2, 3, 6)))
    return cls(ambient_lattice(rank), terms)


def same_polynomial(f, g):
    return (
        type(f) is type(g)
        and f.lattice == g.lattice
        and list(f.terms.items()) == list(g.terms.items())
        and [type(c) for c in f.terms.values()] == [type(c) for c in g.terms.values()]
    )


@pytest.mark.parametrize("t", range(5))
@pytest.mark.parametrize("s", range(5))
def test_degree_matrix_matches_frozen_expansion(t, s):
    rng = random.Random(1000 + 10 * t + s)
    for k in range(6):
        for _ in range(4):
            matrix = random_matrix(rng, t, s)
            assert degree_matrix(matrix, k) == reference_degree_matrix(matrix, k), (matrix, k)


@pytest.mark.parametrize("cls", [LocalPolynomial, RationalLocalPolynomial])
def test_substitute_matches_frozen_expansion(cls):
    rng = random.Random(77 if cls is LocalPolynomial else 78)
    for _ in range(60):
        t, s = rng.randint(0, 4), rng.randint(0, 4)
        f = random_polynomial(rng, cls, s)
        matrix = random_matrix(rng, t, s)
        target = ambient_lattice(t)
        assert same_polynomial(f.substitute(matrix, target), reference_substitute(f, matrix, target))


@pytest.mark.parametrize("cls", [LocalPolynomial, RationalLocalPolynomial])
def test_sparse_high_degree_substitute_matches_frozen_expansion(cls):
    """Single terms of degree 0..24: only the term itself may be expanded."""
    rng = random.Random(79 if cls is LocalPolynomial else 80)
    for d in range(25):
        for _ in range(2):
            t, s = rng.randint(0, 3), rng.randint(1, 3)
            c = rng.choice((-3, -1, 1, 2))
            if cls is RationalLocalPolynomial:
                c = Fraction(c, rng.choice((1, 2, 5)))
            f = cls(ambient_lattice(s), {rng.choice(monomials_of_degree(s, d)): c})
            matrix = random_matrix(rng, t, s)
            target = ambient_lattice(t)
            assert same_polynomial(f.substitute(matrix, target), reference_substitute(f, matrix, target))


def test_substitute_shape_check_matches_frozen_expansion():
    f = LocalPolynomial.variable(ambient_lattice(2), 0)
    matrix = IntMatrix([[1, 0, 0]])
    messages = []
    for apply in (f.substitute, lambda m, lat: reference_substitute(f, m, lat)):
        with pytest.raises(ValueError) as exc:
            apply(matrix, ambient_lattice(1))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_sparse_high_degree_restriction_stores_only_the_powers_it_uses(monkeypatch):
    """x^16 then x^64 along a 2-dimensional face, x a variable whose image
    on the face has two terms: each substitution builds powers up to d in
    that column only, and (a*y0 + b*y1)^p has p + 1 terms."""
    fan = subdivided_p3(random.Random(5), 6)
    sigma, tau, i = next(
        (sigma, tau, i)
        for sigma in fan.maximal_cones
        for tau, _ in fan.face_index.values()
        if tau.dim == 2 and tau.is_face_of(sigma)
        for i in range(sigma.dim)
        if sum(1 for a in restriction_matrix(sigma, tau).column(i) if a) == 2
    )
    matrix = restriction_matrix(sigma, tau)
    assert matrix.shape == (2, 3)
    calls = []

    def spy(matrix, tops):
        tops = list(tops)
        powers = column_powers(matrix, tops)
        calls.append((tops, powers))
        return powers

    column_powers = polynomials._column_powers
    monkeypatch.setattr(polynomials, "_column_powers", spy)
    for d in (16, 64):
        exp = tuple(d if j == i else 0 for j in range(3))
        f = LocalPolynomial(sigma.quotient, {exp: 3})
        calls.clear()
        got = restrict_to_face(f, sigma, tau)
        assert same_polynomial(got, reference_substitute(f, matrix, tau.quotient))
        assert len(got.terms) == d + 1
        assert [tops for tops, _ in calls] == [[d if j == i else 0 for j in range(3)]]
        powers = calls[0][1]
        assert [len(column) for column in powers] == [d + 1 if j == i else 1 for j in range(3)]
        assert [sum(map(len, column)) for column in powers] == [
            (d + 1) * (d + 2) // 2 if j == i else 1 for j in range(3)
        ]


def test_restriction_is_one_substitution_and_keeps_no_powers(monkeypatch):
    """``restrict_to_face`` answers through one ``substitute`` call each time,
    and the cone keeps its restriction matrices but no column powers."""
    fan = subdivided_p3(random.Random(5), 6)
    sigma = fan.maximal_cones[0]
    faces = [tau for tau, _ in fan.face_index.values() if tau.is_face_of(sigma)]
    count = [0]
    substitute = LocalPolynomial.substitute

    def counted(self, matrix, target):
        count[0] += 1
        return substitute(self, matrix, target)

    monkeypatch.setattr(LocalPolynomial, "substitute", counted)
    rng = random.Random(6)
    for n, tau in enumerate(faces * 2, 1):
        f = random_polynomial(rng, LocalPolynomial, sigma.dim)
        f = LocalPolynomial(sigma.quotient, f.terms)
        got = restrict_to_face(f, sigma, tau)
        assert count[0] == n
        assert same_polynomial(
            got, reference_substitute(f, restriction_matrix(sigma, tau), tau.quotient)
        )
    assert set(sigma._restrictions) == {tau.key for tau in faces}
    assert not hasattr(sigma, "_powers")
