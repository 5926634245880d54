"""The direct Sym^k kernel against the frozen polynomial expansion.

``degree_matrix`` and ``LocalPolynomial.substitute`` are computed both by
``fanpoly.polynomials`` and by the frozen copies in
``reference_polynomials``, and must agree bit for bit: the same matrix
entries, and the same class, lattice, term order and coefficient types.
Inputs are seeded random integer matrices of every shape t x s with
t, s in 0..4 (negative entries and zero columns included) at k = 0..5,
and mixed-degree integer and rational polynomials.
"""

import random
from fractions import Fraction

import pytest
from reference_polynomials import reference_degree_matrix, reference_substitute

from fanpoly.cones import ambient_lattice
from fanpoly.intlinalg import IntMatrix
from fanpoly.polynomials import (
    LocalPolynomial,
    RationalLocalPolynomial,
    degree_matrix,
    monomials_of_degree,
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


def test_substitute_shape_check_matches_frozen_expansion():
    f = LocalPolynomial.variable(ambient_lattice(2), 0)
    matrix = IntMatrix([[1, 0, 0]])
    messages = []
    for apply in (f.substitute, lambda m, lat: reference_substitute(f, m, lat)):
        with pytest.raises(ValueError) as exc:
            apply(matrix, ambient_lattice(1))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
