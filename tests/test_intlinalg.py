"""Exactness tests for the integer matrix layer.

Expected values come from independent oracles implemented here: rational
rank by Fraction Gaussian elimination, Smith divisors by gcds of k x k
minors, kernels by brute-force enumeration over a coordinate box.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from corpus import det, lattices_equal, random_unimodular, saturate
from reference_intlinalg import reference_hnf_basis, reference_in_row_lattice

from fanpoly.intlinalg import (
    IntMatrix,
    dot,
    hnf,
    hnf_basis,
    kernel_lattice,
    primitive,
    snf,
    solve_left,
)


def rational_rank(rows, cols):
    """Rank over Q by plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    for c in range(cols):
        piv = next((i for i in range(rk, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(len(m)):
            if i != rk and m[i][c] != 0:
                f = m[i][c] / m[rk][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


def minor_gcd_divisors(a):
    """Smith divisors from scratch: d_1 ... d_k = gcd of k x k minors."""
    from math import gcd

    r = rational_rank(a.tolist(), a.cols)
    prev = 1
    out = []
    for k in range(1, r + 1):
        g = 0
        for rs in combinations(range(a.rows), k):
            for cs in combinations(range(a.cols), k):
                sub = IntMatrix([[a[i, j] for j in cs] for i in rs], cols=k)
                g = gcd(g, det(sub))
        out.append(g // prev)
        prev = g
    return tuple(out)


def random_matrix(rng, max_dim=6, lo=-9, hi=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)], cols=n)


def test_matrix_basics():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.shape == (2, 2)
    assert a.transpose().tolist() == [[1, 3], [2, 4]]
    assert (a * IntMatrix.identity(2)) == a
    assert a.mul_vec((1, 1)) == (3, 7)
    assert det(a) == -2
    empty = IntMatrix([], cols=3)
    assert empty.shape == (0, 3)
    assert empty.transpose().shape == (3, 0)
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


def test_det_matches_fraction_elimination():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], cols=n)
        m = [[Fraction(x) for x in r] for r in a.tolist()]
        want = Fraction(1)
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c] != 0), None)
            if piv is None:
                want = Fraction(0)
                break
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                want = -want
            want *= m[c][c]
            for i in range(c + 1, n):
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        assert det(a) == want


def test_snf_trivial_cases():
    assert snf(IntMatrix([[0]])).diagonal() == (0,)
    assert snf(IntMatrix.identity(3)).diagonal() == (1, 1, 1)
    res = snf(IntMatrix([], cols=2))
    assert res.S.shape == (0, 2)


def test_snf_frozen_example():
    a = IntMatrix([[2, 4], [6, 8]])
    res = snf(a)
    assert res.diagonal() == (2, 4)
    assert res.diagonal() == minor_gcd_divisors(a)
    assert res.U * a * res.V == res.S


def test_snf_properties_random():
    rng = random.Random(20260822)
    for _ in range(60):
        a = random_matrix(rng)
        res = snf(a)
        assert res.U * a * res.V == res.S
        assert abs(det(res.U)) == 1
        assert abs(det(res.V)) == 1
        diag = res.diagonal()
        for i in range(res.S.rows):
            for j in range(res.S.cols):
                if i != j:
                    assert res.S[i, j] == 0
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d != 0]
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
        # zero divisors come after all nonzero ones
        seen_zero = False
        for d in diag:
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero


def test_snf_divisors_match_minor_gcds():
    rng = random.Random(7)
    for _ in range(25):
        a = random_matrix(rng, max_dim=4, lo=-6, hi=6)
        assert snf(a).nonzero_divisors() == minor_gcd_divisors(a)


def test_hnf_shapes_and_frozen_examples():
    h, u = hnf(IntMatrix.identity(3))
    assert h == IntMatrix.identity(3)
    assert u == IntMatrix.identity(3)
    h, _ = hnf(IntMatrix([[0, 1], [1, 0]]))
    assert h == IntMatrix.identity(2)
    a = IntMatrix([[2, 0], [1, 1]])
    h, u = hnf(a)
    assert u * a == h
    # pivots positive, entries above reduced
    assert h.tolist() == [[1, 1], [0, 2]]


def test_hnf_canonical_under_row_changes():
    rng = random.Random(99)
    for _ in range(40):
        a = random_matrix(rng, max_dim=5)
        w = random_unimodular(rng, a.rows)
        h1 = hnf(a)[0]
        h2 = hnf(w * a)[0]
        assert h1 == h2
        assert lattices_equal(a, w * a)


def test_hnf_preserves_row_lattice():
    rng = random.Random(5)
    for _ in range(20):
        a = random_matrix(rng, max_dim=5, lo=-5, hi=5)
        h, u = hnf(a)
        assert u * a == h
        assert abs(det(u)) == 1
        for row in h.entries:
            assert reference_in_row_lattice(a, row)
        for row in a.entries:
            assert reference_in_row_lattice(h, row)


def test_kernel_frozen_examples():
    k = kernel_lattice(IntMatrix([[1, 1]]))
    assert k.tolist() == [[1, -1]]
    assert kernel_lattice(IntMatrix.identity(3)).shape == (0, 3)
    k = kernel_lattice(IntMatrix([[1, 1, 1], [0, 1, 2]]))
    assert k.tolist() == [[1, -2, 1]]
    # degenerate shapes
    assert kernel_lattice(IntMatrix([], cols=3)) == IntMatrix.identity(3)
    assert kernel_lattice(IntMatrix([[0, 0]])) == IntMatrix.identity(2)


def brute_force_kernel_box(a, bound=5):
    """All kernel vectors with coordinates in [-bound, bound], by enumeration."""
    from itertools import product

    out = []
    for v in product(range(-bound, bound + 1), repeat=a.cols):
        if all(x == 0 for x in a.mul_vec(v)):
            out.append(v)
    return out


def test_kernel_brute_force_membership():
    rng = random.Random(13)
    for _ in range(15):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)], cols=n)
        k = kernel_lattice(a)
        for row in k.entries:
            assert all(x == 0 for x in a.mul_vec(row))
        for v in brute_force_kernel_box(a, bound=3):
            assert reference_in_row_lattice(k, v)
        # kernels are saturated
        assert saturate(k) == k
        assert reference_hnf_basis(k).rows + rational_rank(a.tolist(), a.cols) == n


def test_saturate_frozen_examples():
    assert saturate(IntMatrix([[2, 0]])).tolist() == [[1, 0]]
    assert saturate(IntMatrix.identity(2)) == IntMatrix.identity(2)
    assert saturate(IntMatrix([[2, 2], [0, 4]])) == IntMatrix.identity(2)
    assert saturate(IntMatrix([[2, 4]])).tolist() == [[1, 2]]
    assert saturate(IntMatrix([], cols=2)).shape == (0, 2)


def test_saturate_properties_random():
    rng = random.Random(31)
    for _ in range(30):
        a = random_matrix(rng, max_dim=4, lo=-5, hi=5)
        s = saturate(a)
        assert reference_hnf_basis(s).rows == rational_rank(a.tolist(), a.cols)
        for row in a.entries:
            assert reference_in_row_lattice(s, row)
        assert saturate(s) == s
        # every saturated vector has some multiple in the original lattice
        hb = hnf_basis(a)
        for row in s.entries:
            mult = next(
                (c for c in range(1, 2000) if reference_in_row_lattice(hb, [c * x for x in row])),
                None,
            )
            assert mult is not None


def test_solve_left():
    a = IntMatrix([[2, 0], [0, 3]])
    x = solve_left(a, IntMatrix([[4, 3]]))
    assert x.tolist() == [[2, 1]]
    assert solve_left(a, IntMatrix([[1, 0]])) is None
    rng = random.Random(55)
    for _ in range(25):
        a = random_matrix(rng, max_dim=4, lo=-4, hi=4)
        coeffs = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(a.rows)] for _ in range(2)],
            cols=a.rows,
        )
        b = coeffs * a
        x = solve_left(a, b)
        assert x is not None
        assert x * a == b


def test_primitive():
    assert primitive((2, 2)) == (1, 1)
    assert primitive((0, -4, 6)) == (0, -2, 3)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_dot():
    assert dot((1, 2), (3, 4)) == 11


@pytest.mark.parametrize("n", range(9))
def test_kernel_of_no_constraints_is_the_identity(n):
    assert kernel_lattice(IntMatrix._of((), n)) == IntMatrix.identity(n)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: IntMatrix([[1, 2]], cols=3), "explicit column count disagrees with rows"),
        (lambda: IntMatrix([], cols=-1), "negative column count"),
        (lambda: IntMatrix([[1, 2]]) * IntMatrix([[1, 2]]), "cannot multiply (1, 2) by (1, 2)"),
        (lambda: IntMatrix([[1, 2]]).mul_vec((1, 2, 3)), "vector length mismatch"),
        (lambda: dot((1, 2), (1,)), "length mismatch in dot product"),
    ],
    ids=["explicit_cols", "negative_cols", "mul_shape", "mul_vec_length", "dot_length"],
)
def test_shape_errors(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
