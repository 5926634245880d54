"""Frozen symmetric-power expansion: the reference the direct kernel is checked against.

These are ``LocalPolynomial.substitute`` and ``degree_matrix`` as fanpoly
had them before both went through one integer Sym^k kernel, kept verbatim
in behaviour:

* substitution expands every term as a product of cached powers of the
  images of the variables, all as polynomial objects of the caller's class,
  multiplied by the term-by-term loop ``LocalPolynomial.__mul__`` had then
  (kept here, so the oracle shares no arithmetic with the kernel);
* the degree-k matrix substitutes each source monomial of degree k into
  the free lattice of the target rank and reads off its coefficients in
  the canonical monomial order.
"""

from __future__ import annotations

from functools import lru_cache

from corpus import ambient_lattice

from fanpoly.intlinalg import IntMatrix
from fanpoly.polynomials import LocalPolynomial, monomials_of_degree


def reference_substitute(poly, matrix: IntMatrix, target):
    """Apply the linear change of coordinates given by ``matrix`` to ``poly``."""
    if matrix.shape != (target.rank, poly.lattice.rank):
        raise ValueError(
            f"substitution matrix {matrix.shape} does not map rank "
            f"{poly.lattice.rank} into rank {target.rank}"
        )
    cls = type(poly)
    images = [cls.linear_form(target, matrix.column(i)) for i in range(poly.lattice.rank)]
    powers: list[list] = [[cls.constant(target, 1)] for _ in images]
    out = cls.zero(target)
    for e, c in poly.terms.items():
        term = cls.constant(target, c)
        for i, k in enumerate(e):
            cache = powers[i]
            while len(cache) <= k:
                cache.append(_multiply(cache[-1], images[i]))
            term = _multiply(term, cache[k])
        out = out + term
    return out


def _multiply(f, g):
    """Product of two polynomials on one lattice, term by term."""
    terms: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return LocalPolynomial._join(f, g)(f.lattice, terms)


def reference_degree_matrix(matrix: IntMatrix, k: int) -> IntMatrix:
    """Action of a linear substitution on degree-k coefficient vectors."""
    t, s = matrix.shape
    src = monomials_of_degree(s, k)
    tgt = monomials_of_degree(t, k)
    target = _free_lattice(t)
    source = _free_lattice(s)
    cols = []
    for e in src:
        poly = reference_substitute(LocalPolynomial(source, {e: 1}), matrix, target)
        cols.append([poly.coefficient(m) for m in tgt])
    return IntMatrix(
        [[cols[j][i] for j in range(len(src))] for i in range(len(tgt))],
        cols=len(src),
    )


@lru_cache(maxsize=None)
def _free_lattice(n: int):
    return ambient_lattice(n)
