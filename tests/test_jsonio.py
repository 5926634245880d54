"""Round trips and rejection paths for the JSON document layer."""

import random
from fractions import Fraction

import pytest
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
    p2_blowup,
    p3_starred3,
    projective_space,
    subdivided_p3,
)

from fanpoly.errors import FormatError
from fanpoly.jsonio import (
    bundle_characters_from_json,
    fan_from_json,
    fan_to_json,
    multifan_from_json,
    multifan_to_json,
    poly_from_json,
    poly_to_json,
    ppelement_parts_from_json,
    ppelement_to_json,
    subdivision_from_json,
    subdivision_to_json,
    torsion_report_to_json,
)
from fanpoly.mayer_vietoris import h3_torsion
from fanpoly.multifans import hypertoric_multifan, multifan_from_fan
from fanpoly.polynomials import LocalPolynomial, RationalLocalPolynomial
from fanpoly.ppring import pp_basis, pp_validate


def test_fan_roundtrip():
    fan = p2()
    doc = fan_to_json(fan)
    assert doc["kind"] == "fan"
    assert fan_from_json(doc) == fan


def test_multifan_roundtrip():
    for mf in (hypertoric_3lines(), doubled_cone()):
        doc = multifan_to_json(mf)
        assert doc["kind"] == "multifan"
        back = multifan_from_json(doc)
        assert back == mf
        assert back.maximal_ids == mf.maximal_ids


def covers_by_definition(mf):
    """[b, n] for b below n and under no other node below n, nodes in order."""
    covers = []
    for nid in mf.node_ids:
        below = mf.lower[nid] - {nid}
        for b in sorted(below):
            if not any(b in mf.lower[c] for c in below if c != b):
                covers.append([b, nid])
    return covers


def test_multifan_covers_are_the_covering_pairs():
    fans = [p1(), p2(), p1xp1(), diamond(), blp2(), cube(), p3_starred3(), projective_space(4)]
    fans.append(subdivided_p3(random.Random(5), 6))
    multifans = [doubled_cone(), hypertoric_3lines()]
    multifans += [hypertoric_multifan(3, vs) for vs in HYPERTORIC_VECTORS.values()]
    multifans += [multifan_from_fan(fan) for fan in fans]
    for mf in multifans:
        doc = multifan_to_json(mf)
        assert doc["covers"] == covers_by_definition(mf)
        assert multifan_from_json(doc) == mf


def test_bool_is_not_an_int():
    doc = fan_to_json(p2())
    doc["maximal_cones"][0][0][0] = True
    with pytest.raises(FormatError):
        fan_from_json(doc)


def test_poly_roundtrip_integer_and_rational():
    fan = p2()
    lattice = fan.maximal_cones[0].quotient
    p = LocalPolynomial.linear_form(lattice, (3, -2))
    doc = poly_to_json(p)
    assert doc == [[[1, 0], "3"], [[0, 1], "-2"]]
    assert poly_from_json(lattice, doc) == p

    q = RationalLocalPolynomial(lattice, {(1, 0): Fraction(1, 2)})
    doc = poly_to_json(q)
    assert doc == [[[1, 0], "1/2"]]
    back = poly_from_json(lattice, doc)
    assert isinstance(back, RationalLocalPolynomial)
    assert back == q


def test_poly_reader_accepts_int_coefficients():
    fan = p2()
    lattice = fan.maximal_cones[0].quotient
    assert poly_from_json(lattice, [[[1, 0], 4]]) == LocalPolynomial.linear_form(lattice, (4, 0))


def test_poly_rejections():
    fan = p2()
    lattice = fan.maximal_cones[0].quotient
    with pytest.raises(FormatError):
        poly_from_json(lattice, [[[1], "1"]])
    with pytest.raises(FormatError):
        poly_from_json(lattice, [[[1, -1], "1"]])
    with pytest.raises(FormatError):
        poly_from_json(lattice, [[[1, 0], "1"], [[1, 0], "2"]])
    with pytest.raises(FormatError):
        poly_from_json(lattice, [[[1, 0], "x"]])
    with pytest.raises(FormatError):
        poly_from_json(lattice, [[[1, 0], 1.5]])
    with pytest.raises(FormatError):
        poly_from_json(lattice, [[[1, 0]]])
    # coefficient strings outside [+-]?[0-9]+(/[0-9]+)?: Fraction reads them,
    # and exponents would build numbers of any size
    for bad in ("1e5000", "0.5", " 3"):
        with pytest.raises(FormatError, match="bad coefficient"):
            poly_from_json(lattice, [[[1, 0], bad]])


def test_poly_reader_keeps_integral_fractions_integral():
    lattice = p2().maximal_cones[0].quotient
    back = poly_from_json(lattice, [[[1, 0], "6/2"], [[0, 1], "-2"], [[0, 0], "0/5"]])
    assert type(back) is LocalPolynomial
    assert back.terms == {(1, 0): 3, (0, 1): -2}
    assert all(type(c) is int for c in back.terms.values())


def test_ppelement_roundtrip():
    fan = diamond()
    for el in pp_basis(fan, 2).elements:
        doc = ppelement_to_json(el)
        parts = ppelement_parts_from_json(fan, doc)
        assert pp_validate(fan, parts) == el


def test_ppelement_unknown_part_key():
    fan = p2()
    doc = ppelement_to_json(pp_basis(fan, 1).elements[0])
    doc["parts"]["bogus"] = []
    with pytest.raises(FormatError):
        ppelement_parts_from_json(fan, doc)


def test_bundle_roundtrip():
    ids = [c.id_str for c in p2().maximal_cones]
    doc = {
        "kind": "bundle",
        "characters": {
            "-1,-1;0,1": [[1, -1], [0, 2]],
            "-1,-1;1,0": [[1, -1], [0, 2]],
            "0,1;1,0": [[1, -1], [0, 2]],
        },
    }
    back = bundle_characters_from_json(doc)
    assert back == {k: [(1, -1), (0, 2)] for k in ids}


def test_subdivision_roundtrip():
    _, _, sub = p2_blowup()
    doc = subdivision_to_json(sub)
    back = subdivision_from_json(doc)
    assert back.assignment == sub.assignment
    assert back.source == sub.source
    assert back.target == sub.target


def test_subdivision_stored_assignment_checked():
    _, _, sub = p2_blowup()
    doc = subdivision_to_json(sub)
    keys = sorted(doc["assignment"])
    doc["assignment"][keys[0]] = doc["assignment"][keys[1]]
    with pytest.raises(FormatError):
        subdivision_from_json(doc)


def test_torsion_report_document():
    doc = torsion_report_to_json(h3_torsion(diamond()))
    assert doc == {
        "kind": "torsion_report",
        "matrix_shape": [4, 8],
        "elementary_divisors": ["1", "1", "1", "2"],
        "free_rank": 0,
        "torsion_summands": ["2"],
        "parity_even": True,
    }


def _subdivision_with_assignment(assignment):
    doc = subdivision_to_json(p2_blowup()[2])
    doc["assignment"] = assignment
    return doc


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fan_from_json([]), "expected a JSON object, got list"),
        (
            lambda: poly_from_json(p2().maximal_cones[0].quotient, [[[1, 0], True]]),
            "polynomial must be a number string",
        ),
        (
            lambda: poly_from_json(p2().maximal_cones[0].quotient, [[[1, 0], "1/0"]]),
            "polynomial: bad coefficient '1/0'",
        ),
        (
            lambda: multifan_from_json({"kind": "multifan", "ambient_rank": 1, "nodes": {}, "covers": []}),
            "nodes must be a nonempty object",
        ),
        (
            lambda: subdivision_from_json(_subdivision_with_assignment([])),
            "assignment must be an object",
        ),
        (
            lambda: ppelement_parts_from_json(p2(), {"kind": "ppelement", "parts": []}),
            "parts must be an object keyed by cone id",
        ),
    ],
    ids=[
        "not_an_object",
        "bool_coefficient",
        "zero_denominator",
        "empty_nodes",
        "assignment_list",
        "parts_list",
    ],
)
def test_document_rejections(call, message):
    with pytest.raises(FormatError) as exc:
        call()
    assert str(exc.value) == message
