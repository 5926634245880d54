"""The elimination loop against the frozen normal forms.

``hnf``, ``hnf_basis``, ``snf``, ``kernel_lattice`` and ``solve_left`` are
computed both by ``fanpoly.intlinalg`` and by the frozen copies in
``reference_intlinalg``, and must agree bit for bit: the same H and U, the
same S, U and V, the same kernel basis, the same X or None.  Inputs are seeded matrices of every
shape m x n with m, n in 0..7: entries in -9..9, some entries of about
40 bits, zero rows and columns, rank-deficient products, and products
with random unimodular matrices on either side.

The loop works on sparse rows, so larger shapes up to 40 x 60 check the
sparse paths: rows nonzero in two column blocks, as in a constraint
system, with zero and duplicate rows mixed in; dense matrices whose
elimination fills in; and the cube's degree-two constraint matrices.
"""

import random

import pytest
from corpus import cube
from reference_intlinalg import (
    reference_hnf,
    reference_hnf_basis,
    reference_kernel_lattice,
    reference_snf,
    reference_solve_left,
)

from fanpoly.intlinalg import (
    IntMatrix,
    hnf,
    hnf_basis,
    kernel_lattice,
    snf,
    solve_left,
)
from fanpoly.ppring import constraint_matrix

BIG = 1 << 40


def random_entries(rng, m, n, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)], cols=n)


def random_unimodular(rng, n, steps=10):
    """Product of random elementary row operations applied to the identity."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and i != j:
            q = rng.randint(-3, 3)
            u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        elif op == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return IntMatrix(u, cols=n)


def sample_matrices(rng, m, n):
    """Small, wide-entry, zero-padded, rank-deficient and unimodular-image matrices."""
    yield random_entries(rng, m, n)
    yield IntMatrix(
        [[rng.randint(-BIG, BIG) if rng.random() < 0.3 else rng.randint(-9, 9)
          for _ in range(n)] for _ in range(m)],
        cols=n,
    )
    zero_rows = {i for i in range(m) if rng.random() < 0.3}
    zero_cols = {j for j in range(n) if rng.random() < 0.3}
    yield IntMatrix(
        [[0 if i in zero_rows or j in zero_cols else rng.randint(-9, 9) for j in range(n)]
         for i in range(m)],
        cols=n,
    )
    r = rng.randint(0, max(0, min(m, n) - 1))
    yield random_entries(rng, m, r, -3, 3) * random_entries(rng, r, n, -3, 3)
    a = random_entries(rng, m, n, -4, 4)
    if m:
        yield random_unimodular(rng, m) * a
    if n:
        yield a * random_unimodular(rng, n).transpose()


def right_hand_sides(rng, a):
    """Rows in the lattice of ``a``, then the same rows nudged off it."""
    coeffs = random_entries(rng, 2, a.rows, -3, 3)
    b = coeffs * a
    yield b
    if a.cols:
        nudged = [list(row) for row in b.entries]
        nudged[rng.randrange(2)][rng.randrange(a.cols)] += rng.choice((1, 2, 3))
        yield IntMatrix(nudged, cols=a.cols)


SHAPES = [(m, n) for m in range(8) for n in range(8)]


@pytest.mark.parametrize("m,n", SHAPES)
def test_normal_forms_match_frozen_copies(m, n):
    rng = random.Random(5000 + 10 * m + n)
    for a in sample_matrices(rng, m, n):
        assert hnf(a) == reference_hnf(a), a
        assert hnf_basis(a) == reference_hnf_basis(a), a
        assert snf(a) == reference_snf(a), a
        assert kernel_lattice(a) == reference_kernel_lattice(a), a


@pytest.mark.parametrize(
    "rows,diagonal",
    [
        ([[2], [3]], (1,)),  # the row pass leaves a remainder and swaps it up
        ([[2, 3]], (1,)),  # the column pass leaves a remainder and swaps it in
        ([[2, 0], [0, 3]], (1, 6)),  # 3 is not a multiple of 2: the divisibility fix
    ],
)
def test_each_smith_branch_matches_frozen_copy(rows, diagonal):
    a = IntMatrix(rows)
    res = snf(a)
    assert res == reference_snf(a)
    assert res.U * a * res.V == res.S
    assert res.diagonal() == diagonal


@pytest.mark.parametrize("m,n", SHAPES)
def test_solutions_match_frozen_copies(m, n):
    rng = random.Random(6000 + 10 * m + n)
    for a in sample_matrices(rng, m, n):
        for b in right_hand_sides(rng, a):
            assert solve_left(a, b) == reference_solve_left(a, b), (a, b)


def block_system(rng, m, blocks, width):
    """Rows nonzero in two blocks of ``width`` columns, the second negated,
    as one incidence of a constraint system; some rows zero or repeated."""
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * (blocks * width))
        elif kind < 0.25 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            a, b = rng.sample(range(blocks), 2)
            row = [0] * (blocks * width)
            for j in range(width):
                row[a * width + j] = rng.choice((0, 0, 1, 2, -1, rng.randint(-5, 5)))
                row[b * width + j] = -rng.choice((0, 0, 1, -1, rng.randint(-5, 5)))
            rows.append(row)
    return IntMatrix(rows, cols=blocks * width)


def assert_hermite_paths_match(a):
    h, u = reference_hnf(a)
    assert hnf(a) == (h, u), a
    basis = reference_hnf_basis(a)
    assert hnf_basis(a) == basis, a
    assert kernel_lattice(a) == reference_kernel_lattice(a), a


@pytest.mark.parametrize(
    "m,blocks,width", [(12, 4, 5), (24, 6, 6), (30, 10, 6), (40, 12, 5), (40, 6, 10)]
)
def test_block_systems_match_frozen_copies(m, blocks, width):
    a = block_system(random.Random(f"blocks {m} {blocks} {width}"), m, blocks, width)
    assert_hermite_paths_match(a)
    assert_hermite_paths_match(a.transpose())


@pytest.mark.parametrize("m,n", [(8, 12), (14, 14), (20, 30), (30, 20)])
def test_dense_fill_in_matches_frozen_copies(m, n):
    assert_hermite_paths_match(random_entries(random.Random(f"dense {m} {n}"), m, n))


@pytest.mark.parametrize("rows", ["incidences", "gluing"])
def test_cube_constraint_matrix_matches_frozen_copies(rows):
    fan = cube()
    assert_hermite_paths_match(constraint_matrix(fan.parts, getattr(fan, rows), 2)[1])


@pytest.mark.parametrize(
    "name,args",
    [
        ("solve_left", (IntMatrix([[1, 2], [3, 4]]), IntMatrix([[1, 2, 3]]))),
    ],
)
def test_bad_inputs_raise_as_in_frozen_copies(name, args):
    errors = []
    for f in (globals()[name], globals()["reference_" + name]):
        with pytest.raises((TypeError, ValueError)) as exc:
            f(*args)
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]
