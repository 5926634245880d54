"""Torsion of the wall-restriction cokernel for complete surface fans.

For a complete fan of ambient rank two, the degree-one wall conditions
form an integer matrix, the fixed-point graph's ``beta_system`` in degree
one: one row per ray (the walls are the rays), two columns per maximal
cone.  Its kernel is the degree-one piecewise polynomial lattice; its
cokernel is a finitely generated abelian group whose torsion is an
invariant of the fan that the piecewise ring itself cannot see.  The
classical example is the fan over the faces of a square with vertices at
the four odd points (1,1), (-1,1), (-1,-1), (1,-1), where the cokernel is
exactly one copy of Z/2.

The cokernel is read off the Smith normal form.  A cheap sufficient
certificate for 2-torsion is also reported: if every column of the matrix
has even coordinate sum and the matrix has full row rank, the image lies
in the even-sum sublattice and the cokernel surjects onto Z/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WrongRank
from .fans import Fan
from .gkm import beta_system, gkm_graph
from .intlinalg import snf


def _prime_power_parts(n: int):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class TorsionReport:
    """Structure of the cokernel of the wall restriction matrix."""

    matrix_shape: tuple
    elementary_divisors: tuple
    free_rank: int
    torsion_summands: tuple
    parity_even: bool


def h3_torsion(fan: Fan) -> TorsionReport:
    """Cokernel of the degree-one wall restriction map, as a torsion report.

    The fan must have ambient rank two (``WrongRank``, checked first) and be
    complete (``NotComplete``, from :func:`gkm_graph`); the matrix is
    ``beta_system(gkm_graph(fan), 1)``.  ``torsion_summands`` lists the
    cyclic summands as prime powers, so a divisor of 12 contributes 4 and 3.
    """
    if fan.ambient_rank != 2:
        raise WrongRank("the surface cokernel is defined for ambient rank two")
    m = beta_system(gkm_graph(fan), 1)
    divisors = snf(m).nonzero_divisors()
    summands = []
    for d in divisors:
        summands.extend(_prime_power_parts(d))
    parity = all(
        sum(m[r, c] for r in range(m.rows)) % 2 == 0 for c in range(m.cols)
    )
    return TorsionReport(
        matrix_shape=m.shape,
        elementary_divisors=tuple(divisors),
        free_rank=m.rows - len(divisors),
        torsion_summands=tuple(sorted(summands)),
        parity_even=parity,
    )
