"""The local certificate of a complete simplicial fan against the pairwise loop.

``Fan.__init__`` accepts a complete fan of full-dimensional simplicial cones
from its facets and one point (``fans._certified``), and meets every other
collection pairwise.  On each fan below, the verdict with the certificate
equals the pairwise loop's, and the certificate accepts exactly the complete
simplicial fans.  Each hand-made non-fan raises the ``NotAFan`` pair and
message the pairwise loop has always raised for it.
"""

import random

import pytest
from corpus import (
    blp2,
    completeness_cases,
    cube,
    diamond,
    p1,
    p1xp1,
    p2,
    p3_starred3,
    projective_space,
    subdivided_p3,
)
from test_fans import random_fans

from fanpoly import fans
from fanpoly.cones import Cone
from fanpoly.errors import NotAFan
from fanpoly.fans import Fan


def verdict(n, cones):
    """None if the cones make a fan, else the ``NotAFan`` pair and message."""
    try:
        Fan(n, cones)
    except NotAFan as e:
        return e.pair, str(e)
    return None


def pairwise_verdict(n, cones, monkeypatch):
    """The verdict of the pairwise loop alone."""
    with monkeypatch.context() as m:
        m.setattr(fans, "_certified", lambda cones, n: False)
        return verdict(n, cones)


def sorted_cones(cones):
    return sorted(cones, key=lambda c: c.key)


def is_simplicial_cover(n, cones):
    """Full-dimensional simplicial cones whose every facet lies in two of them."""
    simplicial = all(len(c.generators) == c.dim == n for c in cones)
    return simplicial and fans._covers(cones, n, ()) is not None


def certificate(n, cones):
    """The certificate's verdict, on the walls ``Fan.__init__`` hands it."""
    walls = fans._covers(cones, n, ())
    return walls is not None and fans._certified(cones, walls)


def corpus_fans():
    corpus = [p1(), p2(), p1xp1(), diamond(), blp2(), cube(), p3_starred3()]
    return corpus + [projective_space(n) for n in range(1, 6)] + completeness_cases()


def test_certificate_agrees_with_the_pairwise_loop(monkeypatch):
    certified = 0
    for fan in corpus_fans() + list(random_fans()):
        n, cones = fan.ambient_rank, sorted_cones(fan.maximal_cones)
        assert pairwise_verdict(n, cones, monkeypatch) is None
        assert verdict(n, cones) is None
        ok = certificate(n, cones)
        assert ok == is_simplicial_cover(n, cones), fan
        certified += ok
    # 120 of the 155 corpus fans, the zero fan of rank 0 among them, and the 36
    # random fans not refined from the cube
    assert certified == 156


P3 = [c.generators for c in projective_space(3).maximal_cones]
NON_FANS = {
    # every facet in two cones, on opposite sides, but the plane is covered twice
    "pentagram": (
        2,
        [[(1, 0), (-1, 1)], [(1, 2), (-1, -1)], [(-1, 1), (1, -2)], [(-1, -1), (1, 0)], [(1, -2), (1, 2)]],
        (0, 2),
        "",
    ),
    # every facet in two cones and the first cone's point covered once, but the
    # cycle of rays turns back on itself
    "folded": (
        2,
        [[(-1, 1), (0, -1)], [(-1, 1), (1, 2)], [(-1, 2), (1, 2)], [(-1, 2), (2, 1)], [(0, -1), (2, 1)]],
        (1, 2),
        "",
    ),
    "p3_fifth_cone": (3, P3 + [[(1, 0, 0), (0, 1, 0), (1, 1, 1)]], (3, 4), ""),
    "same_side": (2, [[(1, 0), (0, 1)], [(1, 0), (1, 1)]], (0, 1), ""),
    "ray_in_quadrant": (
        2,
        [[(1, 0), (0, 1)], [(1, 0)]],
        (0, 1),
        ": one maximal cone is a face of the other",
    ),
}


@pytest.mark.parametrize("name", NON_FANS)
def test_non_fans_raise_the_pairwise_verdict(name, monkeypatch):
    n, gens, pair, detail = NON_FANS[name]
    cones = [Cone(n, g) for g in gens]
    want = (pair, f"cones {pair[0]} and {pair[1]} do not meet in a common face{detail}")
    assert not certificate(n, sorted_cones(cones))
    assert verdict(n, cones) == want
    assert pairwise_verdict(n, cones, monkeypatch) == want


def test_each_certificate_test_rejects_a_non_fan():
    """The pentagram passes the facet rule and fails the one point test; the
    folded pentagon passes both and fails the opposite sides test."""
    for name in ("pentagram", "folded"):
        n, gens, _, _ = NON_FANS[name]
        cones = sorted_cones(Cone(n, g) for g in gens)
        assert fans._covers(cones, n, ()) is not None
        point = tuple(map(sum, zip(*cones[0].generators)))
        covered = sum(c.contains(point) for c in cones)
        assert covered == (2 if name == "pentagram" else 1)


def count_meets(monkeypatch, build):
    calls = []
    meet = fans.intersect

    def counted(a, b):
        calls.append((a, b))
        return meet(a, b)

    monkeypatch.setattr(fans, "intersect", counted)
    try:
        build()
    except NotAFan:
        pass
    return len(calls)


@pytest.mark.parametrize(
    "build",
    [lambda: projective_space(3), lambda: subdivided_p3(random.Random(0), 4)],
    ids=["p3", "p3sub4"],
)
def test_certified_fans_meet_no_pair(build, monkeypatch):
    assert count_meets(monkeypatch, build) == 0


def hexagon_cones():
    """The cones over a lattice hexagon at heights 1 and -1: not simplicial.
    A single such cone, as in the benchmark's cone documents, has no pair to meet."""
    hexagon = [(1, 0), (2, 1), (2, 2), (1, 2), (0, 1), (0, 0)]
    return Fan(3, [Cone(3, [(x, y, h) for x, y in hexagon]) for h in (1, -1)])


def pentagram():
    n, gens, _, _ = NON_FANS["pentagram"]
    return Fan(n, [Cone(n, g) for g in gens])


@pytest.mark.parametrize(
    "build, meets",
    [(cube, 15), (hexagon_cones, 1), (pentagram, 2)],
    ids=["cube", "hexagon_cones", "pentagram"],
)
def test_fallback_fans_meet_pairwise(build, meets, monkeypatch):
    assert count_meets(monkeypatch, build) == meets
