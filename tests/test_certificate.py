"""Canonical bases certified by :mod:`certificate`, which shares no code with the kernel."""

import random
from dataclasses import replace

import pytest
from certificate import failed_checks
from corpus import (
    HYPERTORIC_VECTORS,
    blp2,
    cube,
    diamond,
    doubled_cone,
    hypertoric_3lines,
    p1,
    p1xp1,
    p2,
    p3_starred3,
    projective_space,
    subdivided_p3,
)

from fanpoly.intlinalg import IntMatrix
from fanpoly.multifans import hypertoric_multifan, mpp_basis
from fanpoly.ppring import pp_basis

CONTAINERS = {
    "p1": (p1, pp_basis),
    "p2": (p2, pp_basis),
    "p1xp1": (p1xp1, pp_basis),
    "diamond": (diamond, pp_basis),
    "blp2": (blp2, pp_basis),
    "cube": (cube, pp_basis),
    "doubled_cone": (doubled_cone, mpp_basis),
    "hypertoric_3lines": (hypertoric_3lines, mpp_basis),
    # ranks 1, 5, 15, 33 at k <= 3
    "hypertoric_5": (lambda: hypertoric_multifan(3, HYPERTORIC_VECTORS[5]), mpp_basis),
    "p3_starred3": (p3_starred3, pp_basis),
    # the benchmark's largest ring bases, and P^5 (126 x 420 at k = 4)
    "p3sub6.s0": (lambda: subdivided_p3(random.Random(0), 6), pp_basis),
    "p3sub6.s1": (lambda: subdivided_p3(random.Random(1), 6), pp_basis),
    "hypertoric_9": (lambda: hypertoric_multifan(3, HYPERTORIC_VECTORS[9]), mpp_basis),
    "p5": (lambda: projective_space(5), pp_basis),
}
# the large containers at one degree each; the rest at k <= 3
DEGREES = {"p3sub6.s0": [4], "p3sub6.s1": [4], "hypertoric_9": [2], "p5": [4]}


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_canonical_bases_are_certified(name):
    build, basis = CONTAINERS[name]
    container = build()
    for k in DEGREES.get(name, range(4)):
        assert failed_checks(container, basis(container, k)) == [], (name, k)


def tampered(gb, rows):
    return replace(gb, coefficients=IntMatrix(rows, cols=gb.coefficients.cols))


def test_each_check_rejects_a_wrong_basis():
    container = p2()
    gb = pp_basis(container, 2)
    rows = [list(r) for r in gb.coefficients.entries]
    last = rows[-1]
    # a sublattice of index two: the last row doubled
    assert failed_checks(container, tampered(gb, rows[:-1] + [[2 * x for x in last]])) == [
        "saturation"
    ]
    # too small a lattice: the last row dropped
    assert failed_checks(container, tampered(gb, rows[:-1])) == ["rank"]
    # a row off the kernel: y0^2 added to the last part
    lo = gb.coefficients.cols - len(gb.layout[-1][1])
    off = last[:lo] + [last[lo] + 1] + last[lo + 1 :]
    assert "evaluation" in failed_checks(container, tampered(gb, rows[:-1] + [off]))
    # rows out of order
    assert failed_checks(container, tampered(gb, rows[::-1]))[0] == "hermite"
