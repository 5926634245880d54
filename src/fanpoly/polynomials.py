"""Polynomials in the character coordinates of a cone.

A LocalPolynomial lives in Sym of a cone's quotient character lattice and
has integer coefficients; RationalLocalPolynomial allows Fractions and is
used where integrality is the question being asked, not an invariant.
Monomials are exponent tuples in the quotient coordinates, ordered graded
lexicographically (largest first exponent first) wherever an order matters,
so coefficient vectors and matrices are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from .cones import Cone, QuotientCharacterLattice, restriction_matrix
from .errors import IndexOutOfRange, LatticeMismatch
from .intlinalg import IntMatrix, dot


@lru_cache(maxsize=None)
def monomials_of_degree(rank: int, degree: int):
    """Exponent tuples of total degree ``degree`` in ``rank`` variables.

    Graded lex order, first exponent descending: (k,0,..), (k-1,1,..), ...
    """
    if degree < 0:
        raise ValueError("negative degree")
    if rank == 0:
        return ((),) if degree == 0 else ()
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials_of_degree(rank - 1, degree - e):
            out.append((e,) + rest)
    return tuple(out)


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

    def __init__(self, lattice: QuotientCharacterLattice, terms):
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        clean = {}
        for exp, coeff in items:
            e = tuple(exp)
            if len(e) != lattice.rank:
                raise ValueError(
                    f"exponent {e!r} has length {len(e)}, lattice rank is {lattice.rank}"
                )
            if any((not isinstance(x, int)) or x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e!r}")
            c = self._coerce(coeff)
            if c != 0:
                if e in clean:
                    raise ValueError(f"duplicate exponent {e!r}")
                clean[e] = c
        self.lattice = lattice
        self.terms = dict(sorted(clean.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True))

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
        return cls(
            lattice,
            {
                tuple(1 if j == i else 0 for j in range(lattice.rank)): c
                for i, c in enumerate(cs)
                if c != 0
            },
        )

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
        polynomial's own terms are expanded, so a sparse high-degree
        polynomial costs what its terms cost.
        """
        if matrix.shape != (target.rank, self.lattice.rank):
            raise ValueError(
                f"substitution matrix {matrix.shape} does not map rank "
                f"{self.lattice.rank} into rank {target.rank}"
            )
        tops = [max((e[i] for e in self.terms), default=0) for i in range(self.lattice.rank)]
        powers = _column_powers(matrix, tops)
        terms: dict = {}
        for e, c in self.terms.items():
            for m, a in _monomial_image(powers, e, target.rank).items():
                terms[m] = terms.get(m, 0) + c * a
        return type(self)(target, terms)

    def to_rational(self) -> "RationalLocalPolynomial":
        return RationalLocalPolynomial(self.lattice, dict(self.terms))

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


def character_class(lattice: QuotientCharacterLattice, u) -> LocalPolynomial:
    """The image of a global character u in Sym^1 of the quotient lattice."""
    return LocalPolynomial.linear_form(lattice, lattice.reduce(u))


def restrict_to_face(f: LocalPolynomial, sigma: Cone, tau: Cone):
    """Restriction Sym M_sigma -> Sym M_tau along a face inclusion."""
    if f.lattice != sigma.quotient:
        raise LatticeMismatch("polynomial does not live on the given cone")
    return f.substitute(restriction_matrix(sigma, tau), tau.quotient)


def elementary_symmetric(polys, i: int):
    """The i-th elementary symmetric polynomial of a multiset of linear classes."""
    items = list(polys)
    if not 0 <= i <= len(items):
        raise IndexOutOfRange(f"elementary symmetric index {i} out of range 0..{len(items)}")
    if not items:
        raise ValueError("empty multiset has no ambient lattice")
    lattice = items[0].lattice
    for p in items:
        if p.lattice != lattice:
            raise LatticeMismatch("multiset members live on different lattices")
        if not p.is_homogeneous(1):
            raise ValueError("multiset members must be homogeneous of degree one")
    # coefficient of t^i in prod (1 + t*u): build the t-truncated product
    coeffs = [LocalPolynomial.constant(lattice, 1)]
    for u in items:
        nxt = [coeffs[0]]
        for k in range(1, len(coeffs) + 1):
            term = coeffs[k] if k < len(coeffs) else None
            prev = coeffs[k - 1] * u
            nxt.append(prev if term is None else term + prev)
        coeffs = nxt
    return coeffs[i]


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
    return LocalPolynomial(f.lattice, {e: int(c) for e, c in f.terms.items()}), {}


def degree_matrix(matrix: IntMatrix, k: int) -> IntMatrix:
    """Action of a linear substitution on degree-k coefficient vectors.

    ``matrix`` (t x s) sends variable i of the source to the linear form
    with coefficients in its column i.  The result has one column per
    source monomial of degree k and one row per target monomial, both in
    the canonical monomial order.  Column e is the expansion of the
    product of the columns' powers e_i, in exponent tuples and ints.
    """
    t, s = matrix.shape
    src = monomials_of_degree(s, k)
    tgt = monomials_of_degree(t, k)
    powers = _column_powers(matrix, [k] * s)
    cols = []
    for e in src:
        poly = _monomial_image(powers, e, t)
        cols.append([poly.get(m, 0) for m in tgt])
    return IntMatrix(
        [[col[i] for col in cols] for i in range(len(tgt))],
        cols=len(src),
    )


def _column_powers(matrix: IntMatrix, tops):
    """Powers 0..tops[i] of each column's linear form, as exponent-keyed dicts."""
    t = matrix.rows
    units = monomials_of_degree(t, 1)
    powers = []
    for i, top in enumerate(tops):
        linear = [(u, a) for u, a in zip(units, matrix.column(i)) if a]
        column_powers = [{(0,) * t: 1}]
        for _ in range(top):
            column_powers.append(_times(column_powers[-1], linear))
        powers.append(column_powers)
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
