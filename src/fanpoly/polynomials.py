"""Polynomials in the character coordinates of a cone.

A LocalPolynomial lives in Sym of a cone's quotient character lattice and
has integer coefficients; RationalLocalPolynomial allows Fractions and is
used where integrality is the question being asked, not an invariant.
Monomials are exponent tuples in the quotient coordinates, ordered graded
lexicographically (largest first exponent first) wherever an order matters,
so coefficient vectors and matrices are reproducible.

One substitution, ``LocalPolynomial.substitute``, applies a linear map by
expanding a polynomial's own terms in powers of the matrix columns, built
per call; ``degree_matrix`` is that map on all degree-k coefficients, Sym^k,
memoized here by value like ``monomials_of_degree``, and restriction to a
face substitutes the restriction matrix the cone keeps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add

from .cones import Cone, QuotientCharacterLattice, restriction_matrix
from .errors import IndexOutOfRange, LatticeMismatch
from .intlinalg import IntMatrix, dot


@lru_cache(maxsize=None)
def monomials_of_degree(rank: int, degree: int):
    """Exponent tuples of total degree ``degree`` in ``rank`` variables.

    Graded lex order, first exponent descending: (k,0,..), (k-1,1,..), ...
    The sorted index multisets come in lexicographic order; where two first
    differ, the earlier holds the smaller index v, so it counts every index
    below v alike and more v's: its exponent tuple is the larger.
    """
    if degree < 0:
        raise ValueError("negative degree")
    multisets = combinations_with_replacement(range(rank), degree)
    return tuple(tuple(map(m.count, range(rank))) for m in multisets)


def _term_order(term):
    """Sort key of a term: degree, then exponent; terms are kept largest first."""
    return sum(term[0]), term[0]


class LocalPolynomial:
    """Integer polynomial in the coordinates of a quotient character lattice."""

    __slots__ = ("lattice", "terms")

    @staticmethod
    def _coerce(c):
        if isinstance(c, bool):
            raise TypeError("bool is not a polynomial coefficient")
        if isinstance(c, int):
            return c
        if isinstance(c, Fraction) and c.denominator == 1:
            return int(c)
        raise TypeError(f"integer coefficient required, got {c!r}")

    def __init__(self, lattice: QuotientCharacterLattice, terms: dict):
        if not isinstance(terms, dict):
            raise TypeError(f"terms must be a dict of exponent tuples, got {type(terms).__name__}")
        clean = {}
        for e, coeff in terms.items():
            if not isinstance(e, tuple) or not all(type(x) is int and x >= 0 for x in e):
                raise ValueError(f"bad exponent tuple {e!r}")
            if len(e) != lattice.rank:
                raise ValueError(
                    f"exponent {e!r} has length {len(e)}, lattice rank is {lattice.rank}"
                )
            c = self._coerce(coeff)
            if c != 0:
                clean[e] = c
        self.lattice = lattice
        self.terms = dict(sorted(clean.items(), key=_term_order, reverse=True))

    @classmethod
    def _trusted(cls, lattice, terms: dict):
        """Wrap nonzero coefficients of the class's kind (ints, or Fractions
        for the rational class) on exponent tuples of the lattice's rank,
        already in canonical order; nothing is checked."""
        self = object.__new__(cls)
        self.lattice = lattice
        self.terms = terms
        return self

    @classmethod
    def zero(cls, lattice):
        return cls(lattice, {})

    @classmethod
    def constant(cls, lattice, c):
        return cls(lattice, {(0,) * lattice.rank: c})

    @classmethod
    def variable(cls, lattice, i: int):
        if not 0 <= i < lattice.rank:
            raise IndexOutOfRange(f"variable index {i} out of range")
        e = tuple(1 if j == i else 0 for j in range(lattice.rank))
        return cls(lattice, {e: 1})

    @classmethod
    def linear_form(cls, lattice, coeffs):
        cs = tuple(coeffs)
        if len(cs) != lattice.rank:
            raise ValueError("wrong number of linear coefficients")
        units = monomials_of_degree(lattice.rank, 1)
        return cls(lattice, {u: c for u, c in zip(units, cs) if c != 0})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Maximal total degree of a term; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self, k: int) -> bool:
        return all(sum(e) == k for e in self.terms)

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def _check_same_lattice(self, other):
        if self.lattice != other.lattice:
            raise LatticeMismatch("polynomials over different quotient lattices")

    @staticmethod
    def _join(a, b):
        """Result class when combining two polynomials."""
        if isinstance(a, RationalLocalPolynomial) or isinstance(b, RationalLocalPolynomial):
            return RationalLocalPolynomial
        return LocalPolynomial

    def __add__(self, other):
        if not isinstance(other, LocalPolynomial):
            return NotImplemented
        self._check_same_lattice(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return self._join(self, other)(self.lattice, terms)

    def __sub__(self, other):
        if not isinstance(other, LocalPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)(self.lattice, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LocalPolynomial):
            return NotImplemented
        self._check_same_lattice(other)
        return self._join(self, other)(self.lattice, _times(self.terms, other.terms.items()))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = type(self).constant(self.lattice, 1)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c):
        cls = type(self)
        if isinstance(c, Fraction) and c.denominator != 1:
            cls = RationalLocalPolynomial
        return cls(self.lattice, {e: c * v for e, v in self.terms.items()})

    def evaluate(self, point):
        """Value at a lattice point of the cone's span.

        Coordinates are paired through the section, which is well defined
        exactly on the span of the cone the lattice came from.
        """
        if len(point) != self.lattice.projection.cols:
            raise ValueError("point has wrong length")
        coords = [dot(self.lattice.section.column(l), point) for l in range(self.lattice.rank)]
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(coords, e):
                v *= x**k
            total += v
        return total

    def substitute(self, matrix: IntMatrix, target: QuotientCharacterLattice):
        """Apply the linear change of coordinates given by ``matrix``.

        Column ``i`` of the matrix is the image of variable ``i`` in the
        target coordinates, so ``matrix`` has shape (target.rank, self rank).
        Each term maps as its column of ``degree_matrix`` would, but only the
        polynomial's own terms are expanded, and each column's powers only up
        to its variable's top exponent, so a sparse high-degree polynomial
        costs what its terms cost.  The sums keep the coefficient class, so
        the result is wrapped unchecked once zeros are dropped and terms sorted.
        """
        if matrix.shape != (target.rank, self.lattice.rank):
            raise ValueError(
                f"substitution matrix {matrix.shape} does not map rank "
                f"{self.lattice.rank} into rank {target.rank}"
            )
        powers = _column_powers(matrix, map(max, zip(*self.terms)))
        terms: dict = {}
        for e, c in self.terms.items():
            for m, a in _monomial_image(powers, e, target.rank).items():
                terms[m] = terms.get(m, 0) + c * a
        kept = sorted((kv for kv in terms.items() if kv[1]), key=_term_order, reverse=True)
        return type(self)._trusted(target, dict(kept))

    def __eq__(self, other):
        if not isinstance(other, LocalPolynomial):
            return NotImplemented
        return self.lattice == other.lattice and self.terms == other.terms

    def __hash__(self):
        return hash((self.lattice, tuple(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.terms.items():
            mono = "*".join(
                f"y{i}^{k}" if k > 1 else f"y{i}" for i, k in enumerate(e) if k
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(bits)


class RationalLocalPolynomial(LocalPolynomial):
    """Same shape, Fraction coefficients."""

    __slots__ = ()

    @staticmethod
    def _coerce(c):
        if isinstance(c, bool):
            raise TypeError("bool is not a polynomial coefficient")
        if isinstance(c, (int, Fraction)):
            return Fraction(c)
        raise TypeError(f"rational coefficient required, got {c!r}")


def restrict_to_face(f: LocalPolynomial, sigma: Cone, tau: Cone):
    """Restriction Sym M_sigma -> Sym M_tau along a face inclusion: the
    substitution of ``restriction_matrix(sigma, tau)``, kept on sigma."""
    if f.lattice != sigma.quotient:
        raise LatticeMismatch("polynomial does not live on the given cone")
    return f.substitute(restriction_matrix(sigma, tau), tau.quotient)


def elementary_symmetric(lattice: QuotientCharacterLattice, polys, i: int):
    """The i-th elementary symmetric polynomial of a multiset of linear
    classes on ``lattice``; e_0 is the constant 1, also of the empty multiset."""
    items = list(polys)
    if not 0 <= i <= len(items):
        raise IndexOutOfRange(f"elementary symmetric index {i} out of range 0..{len(items)}")
    for p in items:
        if p.lattice != lattice:
            raise LatticeMismatch("multiset members live on different lattices")
        if not p.is_homogeneous(1):
            raise ValueError("multiset members must be homogeneous of degree one")
    # coefficient of t^i in prod (1 + t*u), truncated at t^i and updated in
    # place from the top so that c[j - 1] still holds the previous product
    c = [LocalPolynomial.constant(lattice, 1)] + [LocalPolynomial.zero(lattice)] * i
    for u in items:
        for j in range(i, 0, -1):
            c[j] = c[j] + c[j - 1] * u
    return c[i]


def integrality_certificate(f: LocalPolynomial):
    """Split a rational polynomial into an integral witness or a complaint.

    Returns ``(g, bad)``: ``g`` is an integer-coefficient LocalPolynomial
    equal to ``f`` when every coefficient is an integer (and ``bad`` is
    empty), otherwise ``g`` is None and ``bad`` maps exponent tuples to
    their non-integer coefficients.
    """
    bad = {
        e: c for e, c in f.terms.items() if isinstance(c, Fraction) and c.denominator != 1
    }
    if bad:
        return None, bad
    return LocalPolynomial(f.lattice, f.terms), {}


@lru_cache(maxsize=None)
def degree_matrix(matrix: IntMatrix, k: int) -> IntMatrix:
    """Action of a linear substitution on degree-k coefficient vectors.

    ``matrix`` (t x s) sends variable i of the source to the linear form
    with coefficients in its column i.  The result has one column per
    source monomial of degree k and one row per target monomial, both in
    the canonical monomial order.  Column e is the expansion of the
    product of the columns' powers e_i, in exponent tuples and ints; Sym^k
    is memoized here, by value, so equal matrices share one immutable result.
    """
    t, s = matrix.shape
    src = monomials_of_degree(s, k)
    tgt = monomials_of_degree(t, k)
    powers = _column_powers(matrix, [k] * s)
    cols = []
    for e in src:
        poly = _monomial_image(powers, e, t)
        cols.append(tuple(poly.get(m, 0) for m in tgt))
    return IntMatrix._of(tuple(cols), len(tgt)).transpose()


def _column_powers(matrix: IntMatrix, tops):
    """Powers 0..tops[i] of column i's linear form, as exponent-keyed dicts,
    one list per entry of ``tops``."""
    t = matrix.rows
    powers = []
    for i, top in enumerate(tops):
        linear = [(u, a) for u, a in zip(monomials_of_degree(t, 1), matrix.column(i)) if a]
        column = [{(0,) * t: 1}]
        for _ in range(top):
            column.append(_times(column[-1], linear))
        powers.append(column)
    return powers


def _monomial_image(powers, e, t: int) -> dict:
    """Image of the monomial ``e``: the product of the column powers ``e_i``."""
    poly = {(0,) * t: 1}
    for i, p in enumerate(e):
        if p:
            poly = _times(poly, powers[i][p].items())
    return poly


def _times(poly: dict, terms) -> dict:
    """Product of an exponent-keyed polynomial with ``(exponent, coefficient)`` terms."""
    out: dict = {}
    for e1, c1 in poly.items():
        for e2, c2 in terms:
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out
