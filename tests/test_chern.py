"""Characteristic classes of compatible character multisets."""

import random

import pytest
from corpus import diamond, p1, p2

from fanpoly.chern import BundleData, bundle_sum, bundle_validate, chern_class, total_chern
from fanpoly.cones import _left_inverse
from fanpoly.errors import FanMismatch, FormatError, IncompatibleMultisets, IndexOutOfRange
from fanpoly.intlinalg import IntMatrix
from fanpoly.polynomials import monomials_of_degree
from fanpoly.ppring import pp_add, pp_basis, pp_constant, pp_mul, pp_scale


def line_bundle_from_element(elem):
    """Read the character of each cone off a degree-1 piecewise polynomial."""
    data = {}
    for cid, part in elem.parts.items():
        monos = monomials_of_degree(part.lattice.rank, 1)
        data[cid] = [tuple(part.coefficient(m) for m in monos)]
    return bundle_validate(elem.fan, data)


def random_line_bundles(fan, rng, count):
    basis = pp_basis(fan, 1).elements
    out = []
    for _ in range(count):
        elem = pp_constant(fan, 0)
        for b in basis:
            elem = pp_add(elem, pp_scale(rng.randint(-3, 3), b))
        out.append(elem)
    return out


def test_frozen_divisor_bundle_on_projective_plane():
    f = p2()
    data = {
        "-1,-1;0,1": [(0, 0)],
        "-1,-1;1,0": [(1, -1)],
        "0,1;1,0": [(1, 0)],
    }
    bundle = bundle_validate(f, data)
    assert bundle.rank == 1
    c1 = chern_class(bundle, 1)
    for cid, u in [("-1,-1;0,1", (0, 0)), ("-1,-1;1,0", (1, -1)), ("0,1;1,0", (1, 0))]:
        monos = monomials_of_degree(2, 1)
        assert tuple(c1.parts[cid].coefficient(m) for m in monos) == u
    assert chern_class(bundle, 0) == pp_constant(f, 1)


def test_bundle_validate_rejects_jagged_multiset():
    f = p2()
    data = {c.id_str: [(0, 0)] for c in f.maximal_cones}
    data["0,1;1,0"] = [(1, 0)]
    with pytest.raises(IncompatibleMultisets) as exc:
        bundle_validate(f, data)
    assert "0,1;1,0" in exc.value.cones


def test_bundle_validate_rejects_malformed():
    f = p2()
    good = {c.id_str: [(0, 0)] for c in f.maximal_cones}
    with pytest.raises(FanMismatch):
        bundle_validate(f, {"nope": [(0, 0)]})
    bad_len = dict(good)
    bad_len["0,1;1,0"] = [(1, 0, 0)]
    with pytest.raises(ValueError):
        bundle_validate(f, bad_len)
    ragged = dict(good)
    ragged["0,1;1,0"] = [(0, 0), (1, 0)]
    with pytest.raises(ValueError):
        bundle_validate(f, ragged)


def test_hand_built_incompatible_bundle_raises():
    """The constructor is the check: a BundleData built by hand on multisets
    that restrict differently raises as ``bundle_validate`` does, and no
    class is ever read off it."""
    f = p2()
    data = {c.id_str: ((i, 0),) for i, c in enumerate(f.maximal_cones)}
    messages = []
    for build in (BundleData, bundle_validate):
        with pytest.raises(IncompatibleMultisets) as exc:
            build(f, data)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert exc.value.face == "-1,-1"
    good = {c.id_str: ((0, 0),) for c in f.maximal_cones}
    assert BundleData(f, good) == bundle_validate(f, good)


def test_chern_index_range():
    f = p1()
    bundle = bundle_validate(f, {c.id_str: [(0,)] for c in f.maximal_cones})
    with pytest.raises(IndexOutOfRange):
        chern_class(bundle, 2)
    with pytest.raises(IndexOutOfRange):
        chern_class(bundle, -1)


@pytest.mark.parametrize("i", [True, False, 0.0, 1.0])
def test_chern_index_rejects_a_bool_or_a_float(i):
    f = p1()
    bundle = bundle_validate(f, {c.id_str: [(0,)] for c in f.maximal_cones})
    with pytest.raises(TypeError, match="class index must be an integer"):
        chern_class(bundle, i)


def test_first_class_of_line_bundle_is_the_function():
    rng = random.Random(20260822)
    for fan in [p2(), diamond()]:
        for elem in random_line_bundles(fan, rng, 5):
            bundle = line_bundle_from_element(elem)
            assert chern_class(bundle, 1) == elem


def test_whitney_sum_rank_two():
    rng = random.Random(99)
    for fan in [p2(), diamond()]:
        lines = random_line_bundles(fan, rng, 4)
        for a, b in zip(lines[::2], lines[1::2]):
            ba = line_bundle_from_element(a)
            bb = line_bundle_from_element(b)
            s = bundle_sum(ba, bb)
            assert s.rank == 2
            assert chern_class(s, 1) == pp_add(a, b)
            assert chern_class(s, 2) == pp_mul(a, b)


def test_whitney_sum_general():
    rng = random.Random(3)
    fan = p2()
    lines = random_line_bundles(fan, rng, 3)
    e = bundle_sum(line_bundle_from_element(lines[0]), line_bundle_from_element(lines[1]))
    f = line_bundle_from_element(lines[2])
    total_e = total_chern(e)
    total_f = total_chern(f)
    s = bundle_sum(e, f)
    for k in range(s.rank + 1):
        expected = pp_constant(fan, 0)
        for i in range(k + 1):
            j = k - i
            if i <= e.rank and j <= f.rank:
                expected = pp_add(expected, pp_mul(total_e[i], total_f[j]))
        assert chern_class(s, k) == expected


def test_multiset_order_does_not_matter():
    rng = random.Random(11)
    fan = p2()
    a, b = random_line_bundles(fan, rng, 2)
    ab = bundle_sum(line_bundle_from_element(a), line_bundle_from_element(b))
    ba = bundle_sum(line_bundle_from_element(b), line_bundle_from_element(a))
    assert ab == ba
    assert all(chern_class(ab, i) == chern_class(ba, i) for i in range(3))


def test_bundle_sum_requires_same_fan():
    a = line_bundle_from_element(pp_basis(p2(), 1).elements[0])
    b = line_bundle_from_element(pp_basis(p1(), 1).elements[0])
    with pytest.raises(FanMismatch):
        bundle_sum(a, b)


def tangent_data(f):
    """Per cone: the dual basis of its two rays (rows of the inverse of the
    generator-column matrix, integral because the cones are unimodular)."""
    data = {}
    for cone in f.maximal_cones:
        v1, v2 = cone.generators
        cols = IntMatrix([[v1[0], v2[0]], [v1[1], v2[1]]])
        inv = _left_inverse(cols.transpose())
        data[cone.id_str] = [tuple(inv[0]), tuple(inv[1])]
    return data


def test_tangent_data_of_projective_plane():
    f = p2()
    bundle = bundle_validate(f, tangent_data(f))
    assert bundle.rank == 2
    c1 = chern_class(bundle, 1)
    c2 = chern_class(bundle, 2)
    assert not c1.is_zero()
    assert not c2.is_zero()
    assert pp_basis(f, 1).contains(c1)
    assert pp_basis(f, 2).contains(c2)


def _line_bundles(fan, seed, count):
    return [line_bundle_from_element(e) for e in random_line_bundles(fan, random.Random(seed), count)]


def _whitney(fan, seed, count):
    first, *rest = _line_bundles(fan, seed, count)
    for b in rest:
        first = bundle_sum(first, b)
    return first


BUNDLES = {
    "p2_divisor": lambda: [
        bundle_validate(p2(), {"-1,-1;0,1": [(0, 0)], "-1,-1;1,0": [(1, -1)], "0,1;1,0": [(1, 0)]})
    ],
    "p1_trivial": lambda: [bundle_validate(p1(), {c.id_str: [(0,)] for c in p1().maximal_cones})],
    "line_bundles": lambda: _line_bundles(p2(), 20260822, 5) + _line_bundles(diamond(), 99, 4),
    "whitney_sums": lambda: [_whitney(p2(), 3, 3), _whitney(diamond(), 11, 2)],
    "p2_tangent": lambda: [bundle_validate(p2(), tangent_data(p2()))],
    "rank_0": lambda: [
        bundle_validate(f, {c.id_str: [] for c in f.maximal_cones}) for f in (p1(), p2(), diamond())
    ],
}


@pytest.mark.parametrize("name", BUNDLES)
def test_class_zero_is_the_constant_one(name):
    for bundle in BUNDLES[name]():
        assert chern_class(bundle, 0) == pp_constant(bundle.fan, 1)
        assert total_chern(bundle)[0] == pp_constant(bundle.fan, 1)


@pytest.mark.parametrize("character", [(1.5,), (True,), ("1",)])
def test_bundle_rejects_a_non_integral_character(character):
    f = p1()
    data = {c.id_str: [(0,)] for c in f.maximal_cones}
    cid = f.maximal_cones[0].id_str
    data[cid] = [character]
    with pytest.raises(FormatError) as exc:
        BundleData(f, data)
    assert str(exc.value) == f"character {character!r} on cone {cid} is not integral"
