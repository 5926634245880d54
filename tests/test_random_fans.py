"""Seeded random complete fans: iterated star subdivisions of four bases.

Each fan is P^2, P^3, P^1 x P^1 or the cube fan starred two to four times
at random faces of dimension two or more, at the default point (smooth stays smooth) or at a
weighted interior point (in general not smooth).  Its answers are checked
against the certificate, the wall conditions, the face ring and the ray
dual functions, and must not change under a GL_n(Z) image with the cones
and generators listed in random order.
"""

import random
from itertools import combinations

import pytest
from certificate import failed_checks
from corpus import (
    cube,
    det,
    p1xp1,
    p2,
    projective_space,
    random_refinement,
    shuffled_image,
)

from fanpoly.fans import is_complete
from fanpoly.gkm import gkm_compare
from fanpoly.intlinalg import IntMatrix
from fanpoly.mayer_vietoris import h3_torsion
from fanpoly.ppring import pp_basis, pp_is_pullback, pp_pullback
from fanpoly.stanley_reisner import sr_hilbert

BASES = {"p2": p2, "p3": lambda: projective_space(3), "p1xp1": p1xp1, "cube": cube}
CASES = [(base, seed, weighted) for base in BASES for seed in range(3) for weighted in (False, True)]


def is_simplicial(fan):
    return all(len(c.generators) == c.dim for c in fan.maximal_cones)


def is_smooth(fan):
    n = fan.ambient_rank
    return is_simplicial(fan) and all(
        abs(det(IntMatrix(c.generators, cols=n))) == 1 for c in fan.maximal_cones
    )


def answers(fan):
    """Ranks, verdicts and rank-two torsion: what a change of coordinates keeps."""
    out = {
        "ranks": [pp_basis(fan, k).rank for k in range(3)],
        "verdicts": (is_complete(fan), is_simplicial(fan), is_smooth(fan)),
        "gkm": [gkm_compare(fan, k) for k in range(3)],
    }
    if fan.ambient_rank == 2:
        out["torsion"] = h3_torsion(fan).elementary_divisors
    return out


@pytest.mark.parametrize(
    "base,seed,weighted", CASES, ids=[f"{b}.{s}.{'w' if w else 'd'}" for b, s, w in CASES]
)
def test_random_refinement(base, seed, weighted):
    rng = random.Random(f"{base}.{seed}.{weighted}")
    fan, sub = random_refinement(BASES[base](), rng, rng.randint(2, 4), weighted)
    want = answers(fan)
    assert want["verdicts"][0] and all(want["gkm"])
    assert answers(shuffled_image(fan, rng)) == want
    for k in range(3):
        assert failed_checks(fan, pp_basis(fan, k)) == [], k
    if is_simplicial(fan):
        assert [pp_basis(fan, k).rank for k in range(4)] == [sr_hilbert(fan, k) for k in range(4)]

    pulled = []
    for e in pp_basis(sub.target, 2).elements:
        pulled.append(pp_pullback(sub, e))
        back, report = pp_is_pullback(sub, pulled[-1])
        assert report is None and back == e
    assert all(a != b for a, b in combinations(pulled, 2))
