"""Elements built from checked data pass the check they no longer run.

``chern_class``, ``pp_is_pullback`` and ``courant_function`` wrap their
results without ``pp_validate``: restriction to a face is a ring map, so
compatible characters give compatible classes, a descended element agrees
on the source faces that carry each target face's span, and a ray dual
form vanishes at every generator but the ray.  Here the check runs anyway,
on the corpus fans and bundles, the seeded random refinements and every
ray of each simplicial fan, and must hand back the element unchanged.
Conversely, with the check made to raise, every builder still succeeds.
"""

import json
import random
from pathlib import Path

import pytest
from corpus import (
    blp2,
    cube,
    diamond,
    p1,
    p1xp1,
    p2,
    p2_blowup,
    p3_starred3,
    projective_space,
    random_refinement,
)
from test_random_fans import BASES, CASES

import fanpoly.ppring
from fanpoly.chern import bundle_sum, bundle_validate, chern_class, total_chern
from fanpoly.fans import star_subdivision
from fanpoly.polynomials import monomials_of_degree
from fanpoly.ppring import (
    pp_add,
    pp_basis,
    pp_constant,
    pp_is_pullback,
    pp_mul,
    pp_pullback,
    pp_scale,
    pp_validate,
)
from fanpoly.stanley_reisner import _simplicial_rays, courant_function

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def assert_checked(e):
    assert pp_validate(e.fan, dict(e.parts)) == e


def line_bundle(elem):
    """The characters of a degree-1 piecewise polynomial, one per cone."""
    data = {}
    for cid, part in elem.parts.items():
        monos = monomials_of_degree(part.lattice.rank, 1)
        data[cid] = [tuple(part.coefficient(m) for m in monos)]
    return bundle_validate(elem.fan, data)


def bundles(fan, rng):
    """Each degree-1 basis element's line bundle, and a sum of three of them."""
    lines = [line_bundle(e) for e in pp_basis(fan, 1).elements]
    total = lines[0]
    for b in rng.sample(lines, min(2, len(lines) - 1)):
        total = bundle_sum(total, b)
    return lines + [total]


def assert_chern_checked(fan, rng):
    for bundle in bundles(fan, rng):
        for i in range(bundle.rank + 1):
            assert_checked(chern_class(bundle, i))


def assert_pullback_checked(sub, k):
    """Descend the pullbacks of a target basis and their pairwise sums, and
    whatever of the source basis descends."""
    pulled = [pp_pullback(sub, e) for e in pp_basis(sub.target, k).elements]
    pulled += [pp_add(a, b) for a, b in zip(pulled, pulled[1:])]
    for e in pulled:
        back, report = pp_is_pullback(sub, e)
        assert report is None
        assert_checked(back)
    for e in pp_basis(sub.source, k).elements:
        back, _ = pp_is_pullback(sub, e)
        if back is not None:
            assert_checked(back)


def assert_courant_checked(fan):
    for r in _simplicial_rays(fan):
        assert_checked(courant_function(fan, r).element)


def is_simplicial(fan):
    return all(len(c.generators) == c.dim for c in fan.maximal_cones)


FANS = {
    "p1": p1,
    "p2": p2,
    "p1xp1": p1xp1,
    "blp2": blp2,
    "diamond": diamond,
    "cube": cube,
    "p3": lambda: projective_space(3),
    "p3_starred3": p3_starred3,
}


@pytest.mark.parametrize("name", FANS)
def test_corpus_fans(name):
    fan = FANS[name]()
    assert_chern_checked(fan, random.Random(name))
    if is_simplicial(fan):
        assert_courant_checked(fan)
    if fan.ambient_rank < 2:
        return
    target = next(f for f, _ in fan.face_index.values() if f.dim >= 2)
    _, sub = star_subdivision(fan, target)
    for k in range(3):
        assert_pullback_checked(sub, k)


def test_fixture_bundle_and_blowup():
    doc = json.loads((FIXTURES / "p2_divisor.bundle.json").read_text())
    bundle = bundle_validate(p2(), doc["characters"])
    for i in range(bundle.rank + 1):
        assert_checked(chern_class(bundle, i))
    _, _, sub = p2_blowup()
    for k in range(4):
        assert_pullback_checked(sub, k)


@pytest.mark.parametrize(
    "base,seed,weighted", CASES, ids=[f"{b}.{s}.{'w' if w else 'd'}" for b, s, w in CASES]
)
def test_random_refinements(base, seed, weighted):
    rng = random.Random(f"{base}.{seed}.{weighted}")
    fan, sub = random_refinement(BASES[base](), rng, rng.randint(2, 4), weighted)
    assert_chern_checked(fan, rng)
    if is_simplicial(fan):
        assert_courant_checked(fan)
    assert_pullback_checked(sub, 2)


def test_builders_do_not_run_the_check(monkeypatch):
    doc = json.loads((FIXTURES / "p2_divisor.bundle.json").read_text())
    bundle = bundle_validate(p2(), doc["characters"])
    base, fine, sub = p2_blowup()
    a, b = pp_basis(base, 1).elements[:2]

    def refuse(*args):
        raise AssertionError("a built element was checked again")

    monkeypatch.setattr(fanpoly.ppring, "first_disagreement", refuse)
    pp_add(a, b)
    pp_mul(a, b)
    pp_scale(3, a)
    pp_constant(base, 2)
    back, report = pp_is_pullback(sub, pp_pullback(sub, pp_mul(a, b)))
    assert report is None and back == pp_mul(a, b)
    assert len(total_chern(bundle)) == 2
    courant_function(fine, (1, 1))
    assert pp_basis(fine, 2).rank > 0
    with pytest.raises(AssertionError, match="checked again"):
        pp_validate(base, dict(a.parts))
