"""The kernel does not depend on the order of its constraints, and its order is kept.

``kernel_lattice`` eliminates the rows of ``A`` last row first, because in
the order the assembler lists them the transform fills in.  Permuting the
rows of ``A`` leaves ``{x : A x = 0}`` unchanged and the final Hermite
form is canonical, so the kernel of ``A``, of ``A`` reversed and of ``A``
shuffled must all equal the frozen reference kernel, bit for bit.  Inputs
are the corpus fans and multifans at k <= 3, over ``gluing`` and over
``incidences``, the wall systems of the complete fans, and seeded random
integer matrices.

The fill guard counts the cells the elimination's row operation touches,
with no timing, on two systems where the reversed order is much cheaper;
it fails if a later change eliminates in the order the rows are given.
"""

import random

import pytest
from corpus import blp2, cube, diamond, doubled_cone, hypertoric_3lines, p1, p1xp1, p2
from reference_intlinalg import reference_kernel_lattice

from fanpoly import intlinalg
from fanpoly.gkm import beta_system, gkm_graph
from fanpoly.intlinalg import IntMatrix, hnf, hnf_basis, kernel_lattice
from fanpoly.multifans import hypertoric_multifan
from fanpoly.ppring import constraint_matrix

FANS = {"p1": p1, "p2": p2, "p1xp1": p1xp1, "diamond": diamond, "blp2": blp2, "cube": cube}
MULTIFANS = {"doubled_cone": doubled_cone, "hypertoric_3lines": hypertoric_3lines}

HYPERTORIC_7 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]


def corpus_systems():
    out = []
    for name, build in {**FANS, **MULTIFANS}.items():
        container = build()
        for k in range(4):
            for over in ("gluing", "incidences"):
                rows = getattr(container, over)
                out.append((f"{name}.{over}.k{k}", constraint_matrix(container.parts, rows, k)[1]))
            if name in FANS:
                out.append((f"{name}.walls.k{k}", beta_system(gkm_graph(container), k)))
    return out


def random_systems():
    rng = random.Random(12)
    out = []
    for i in range(24):
        m, n = rng.randint(0, 9), rng.randint(1, 9)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if m > 1:
            rows[rng.randrange(m)] = list(rows[rng.randrange(m)])  # a repeated row
        out.append((f"random{i}.{m}x{n}", IntMatrix(rows, cols=n)))
    return out


SYSTEMS = corpus_systems() + random_systems()


def reordered(a, order):
    return IntMatrix([a.row(i) for i in order], cols=a.cols)


@pytest.mark.parametrize("name, a", SYSTEMS, ids=[n for n, _ in SYSTEMS])
def test_kernel_ignores_row_order(name, a):
    want = reference_kernel_lattice(a)
    shuffled = list(range(a.rows))
    random.Random(name).shuffle(shuffled)
    assert kernel_lattice(a) == want
    assert kernel_lattice(reordered(a, reversed(range(a.rows)))) == want
    assert kernel_lattice(reordered(a, shuffled)) == want


def forward_kernel(a):
    """The same kernel with the constraints eliminated in the order given."""
    h, u = hnf(a.transpose())
    ker = tuple(urow for hrow, urow in zip(h.entries, u.entries) if not any(hrow))
    return hnf_basis(IntMatrix._of(ker, a.cols))


@pytest.mark.parametrize(
    "build, k",
    [(cube, 4), (lambda: hypertoric_multifan(3, HYPERTORIC_7), 2)],
    ids=["cube.k4", "hypertoric7.k2"],
)
def test_kernel_elimination_order_limits_fill(build, k, monkeypatch):
    container = build()
    a = constraint_matrix(container.parts, container.gluing, k)[1]
    touched = [0]
    sub = intlinalg._sub

    def counting_sub(row, pivot, q):
        touched[0] += len(pivot)
        sub(row, pivot, q)

    monkeypatch.setattr(intlinalg, "_sub", counting_sub)

    def cells(kernel):
        touched[0] = 0
        basis = kernel(a)
        return basis, touched[0]

    basis, used = cells(kernel_lattice)
    same, forward = cells(forward_kernel)
    assert basis == same
    # reversed: 12,901 of 28,451 on the cube, 19,715 of 34,699 on the hypertoric system
    assert used <= 0.6 * forward
