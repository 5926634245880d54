"""Cokernel torsion of the degree-one wall restriction matrix."""

from itertools import combinations
from math import gcd

import pytest

from fanpoly.cones import Cone
from fanpoly.errors import NotComplete, WrongRank
from fanpoly.fans import Fan
from fanpoly.fixtures import blp2, cube, diamond, p1, p1xp1, p2
from fanpoly.intlinalg import IntMatrix
from fanpoly.mayer_vietoris import _prime_power_parts, h3_torsion, mv_row
from fanpoly.ppring import pp_basis


def minor_gcd_divisors(m: IntMatrix):
    """Oracle: divisor chain from gcds of k-by-k minors."""
    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix([[m[r, c] for c in cols] for r in rows])
                g = gcd(g, abs(sub.det()))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_rank_gate():
    with pytest.raises(WrongRank):
        mv_row(p1())
    with pytest.raises(WrongRank):
        mv_row(cube())
    half = Fan(2, [Cone(2, [(1, 0), (0, 1)])])
    with pytest.raises(NotComplete):
        mv_row(half)


def test_matrix_shape_and_kernel():
    for fan in [p2(), p1xp1(), diamond(), blp2()]:
        m = mv_row(fan)
        n_rays = sum(1 for c, _ in fan.face_index.values() if c.dim == 1)
        assert m.shape == (n_rays, 2 * len(fan.maximal_cones))
        # kernel of the wall conditions is the degree-one piecewise lattice
        assert m.cols - len([d for d in minor_gcd_divisors(m)]) == pp_basis(fan, 1).rank


def test_diamond_has_two_torsion():
    report = h3_torsion(diamond())
    assert report.matrix_shape == (4, 8)
    assert report.elementary_divisors == (1, 1, 1, 2)
    assert report.free_rank == 0
    assert report.torsion_summands == (2,)
    assert report.parity_even


def test_diamond_divisors_match_minor_gcds():
    m = mv_row(diamond())
    assert list(h3_torsion(diamond()).elementary_divisors) == minor_gcd_divisors(m)


def test_smooth_fans_are_torsion_free():
    for fan in [p2(), p1xp1(), blp2()]:
        report = h3_torsion(fan)
        assert report.torsion_summands == ()
        assert report.free_rank == 0
        assert not report.parity_even
        assert all(d == 1 for d in report.elementary_divisors)


def test_prime_power_parts():
    assert _prime_power_parts(1) == []
    assert _prime_power_parts(2) == [2]
    assert _prime_power_parts(12) == [4, 3]
    assert _prime_power_parts(360) == [8, 9, 5]
