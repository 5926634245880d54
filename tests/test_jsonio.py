"""Round trips and rejection paths for the JSON document layer."""

from fractions import Fraction

import pytest

from fanpoly.errors import FormatError
from fanpoly.fixtures import diamond, doubled_cone, hypertoric_3lines, p2, p2_blowup
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
