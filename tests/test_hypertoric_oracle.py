"""The integral lattice of a hypertoric multifan, built from theory.

Take vectors v_1..v_n in Z^d.  On each maximal node B (a basis of the
configuration) let x_i be the dual form of v_i when i is in B, and 0
otherwise: u / (u . v_i) for the one facet normal u of cone(B) that is
nonzero on v_i, in quotient coordinates, as ``courant_function`` builds
it.  These parts agree on every lower node by construction.  The degree-k
monomials in the x_i whose support is independent are the face ring of the
matroid's independence complex (Hausel and Sturmfels, *Toric hyperkähler
varieties*, 2002).  When every x_i is integral, the Z-span of their
coefficient vectors, in ``GradedBasis.layout`` order, must be exactly the
lattice of ``mpp_basis(mf, k)``.

The lattices are compared without the library's elimination: each monomial
row is divided exactly by the Hermite rows of the basis in a plain loop,
and the square matrix of quotients must have determinant +-1, computed
with Fractions.  Cases: the three lines of ``hypertoric_3lines``, the lines
through (1,0), (0,1) and (-1,-1), the 5-vector configuration in Z^3, and a
seeded family of signed graphic configurations (e_i - e_j for the edges of
a random graph, the last vertex dropped), which are totally unimodular.  On
the 7- and 9-vector configurations some x_i are not integral, and the test
says so rather than skipping them silently.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from corpus import HYPERTORIC_VECTORS, hypertoric_3lines_vectors

from fanpoly.intlinalg import dot
from fanpoly.multifans import hypertoric_multifan, mpp_basis


def dual_forms(mf, vectors):
    """{node id: {i: x_i}} over the maximal nodes, each x_i a list of Fractions
    in quotient coordinates; x_i is 0 on the nodes that do not contain i."""
    out = {}
    for nid, cone in mf.parts:
        forms = {}
        for i in (int(j) - 1 for j in nid[1:-1].split(",")):
            [(u, d)] = [(u, dot(u, vectors[i])) for u in cone.facet_normals if dot(u, vectors[i])]
            forms[i] = [Fraction(x, d) for x in cone.quotient.reduce(u)]
        out[nid] = forms
    return out


def product(forms, rank):
    """{exponent tuple: coefficient} of a product of linear forms in rank variables."""
    poly = {(0,) * rank: Fraction(1)}
    for form in forms:
        nxt = {}
        for e, c in poly.items():
            for j, a in enumerate(form):
                f = e[:j] + (e[j] + 1,) + e[j + 1 :]
                nxt[f] = nxt.get(f, 0) + c * a
        poly = nxt
    return poly


def independent(vectors, support):
    """Is the set of vectors indexed by support linearly independent (over Q)?"""
    rows = [[Fraction(x) for x in vectors[i]] for i in support]
    rank = 0
    for col in range(len(vectors[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                q = rows[r][col] / rows[rank][col]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == len(support)


def monomial_rows(mf, vectors, k, layout):
    """Coefficient vectors of the degree-k monomials with independent support."""
    forms = dual_forms(mf, vectors)
    rows = []
    for combo in combinations_with_replacement(range(len(vectors)), k):
        if not independent(vectors, sorted(set(combo))):
            continue
        row = []
        for nid, monos in layout:
            on = forms[nid]
            rank = mf.cones[nid].quotient.rank
            poly = product([on[i] for i in combo], rank) if set(combo) <= set(on) else {}
            row += [poly.get(m, 0) for m in monos]
        rows.append(row)
    return rows


def divide(row, hermite):
    """Coefficients q with row = q . hermite, by exact division at each pivot;
    None if row is not in the lattice the Hermite rows span."""
    row = list(row)
    quotients = []
    for h in hermite:
        p = next(j for j, x in enumerate(h) if x)
        if row[p] % h[p]:
            return None
        q = row[p] // h[p]
        row = [a - q * b for a, b in zip(row, h)]
        quotients.append(q)
    return quotients if not any(row) else None


def determinant(matrix):
    """Determinant over the rationals by plain elimination."""
    m = [[Fraction(x) for x in r] for r in matrix]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            q = m[r][col] / m[col][col]
            m[r] = [a - q * b for a, b in zip(m[r], m[col])]
    return det


def all_integral(mf, vectors):
    return all(
        x.denominator == 1
        for forms in dual_forms(mf, vectors).values()
        for form in forms.values()
        for x in form
    )


def lattice_ranks(rank, vectors, degrees):
    """Check the monomial lattice against mpp_basis in each degree; the ranks."""
    mf = hypertoric_multifan(rank, vectors)
    assert all_integral(mf, vectors)
    ranks = []
    for k in degrees:
        gb = mpp_basis(mf, k)
        hermite = [list(r) for r in gb.coefficients.entries]
        rows = monomial_rows(mf, vectors, k, gb.layout)
        assert len(rows) == gb.rank
        assert all(x.denominator == 1 for r in rows for x in r)
        quotients = [divide([int(x) for x in r], hermite) for r in rows]
        assert None not in quotients
        assert determinant(quotients) in (1, -1)
        ranks.append(gb.rank)
    return ranks


@pytest.mark.parametrize(
    "rank, vectors, ranks",
    [
        (2, hypertoric_3lines_vectors(), [1, 3, 6, 9]),
        (2, [(1, 0), (0, 1), (-1, -1)], [1, 3, 6, 9]),
        (3, HYPERTORIC_VECTORS[5], [1, 5, 15, 33]),
        (3, [(1, -1, 0), (1, 0, -1), (1, 0, 0), (0, 1, -1), (0, 1, 0), (0, 0, 1)], [1, 6, 21, 52]),
        (3, [(1, -1, 0), (0, 1, -1), (0, 0, 1), (1, 0, 0), (1, 0, -1)], [1, 5, 15, 33]),
    ],
    ids=["3lines", "3lines_signed", "ht5", "k4", "4cycle_chord"],
)
def test_monomials_span_the_basis_lattice(rank, vectors, ranks):
    assert lattice_ranks(rank, vectors, range(4)) == ranks


@pytest.mark.parametrize("size", [7, 9])
def test_larger_configurations_have_nonintegral_forms(size):
    """The oracle does not apply here: some basis has determinant 2."""
    vectors = HYPERTORIC_VECTORS[size]
    assert not all_integral(hypertoric_multifan(3, vectors), vectors)


def signed_graphic(rng, vertices):
    """+-(e_i - e_j) for the edges of a seeded random graph with at least one
    edge, the last vertex's coordinate dropped."""
    pairs = list(combinations(range(vertices), 2))
    edges = [e for e in pairs if rng.random() < 0.6] or pairs[:1]
    out = []
    for i, j in edges:
        v = [0] * vertices
        v[i], v[j] = 1, -1
        sign = rng.choice((1, -1))
        out.append(tuple(sign * x for x in v[:-1]))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_signed_graphic_configurations(seed):
    """Four vertices up to degree 3, five (up to ten vectors in Z^4) up to degree 2."""
    rng = random.Random(seed)
    vertices = rng.choice((4, 5))
    lattice_ranks(vertices - 1, signed_graphic(rng, vertices), range(8 - vertices))
