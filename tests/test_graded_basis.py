"""A graded basis is its Hermite rows.

``GradedBasis`` holds its container, degree, coefficient rows and layout;
``rank`` is read off the rows and ``elements`` are built from them on first
read, so a caller that reads only the rows (``gkm_compare``) builds no
basis element.  Membership divides the
coefficient vector by the rows the basis holds, with no second elimination,
and its verdicts are checked against the frozen ``solve_left``.  An element
with a term of another degree is not in the degree-k piece.
"""

import random
from dataclasses import fields, replace
from pathlib import Path

import pytest
from corpus import (
    HYPERTORIC_VECTORS,
    blp2,
    cube,
    diamond,
    doubled_cone,
    hypertoric_3lines,
    p1xp1,
    p2,
)
from reference_intlinalg import reference_in_row_lattice

from fanpoly import intlinalg, jsonio
from fanpoly.gkm import gkm_compare
from fanpoly.intlinalg import IntMatrix
from fanpoly.multifans import hypertoric_multifan, mpp_basis
from fanpoly.ppring import (
    PPElement,
    pp_add,
    pp_basis,
    pp_constant,
    pp_mul,
    pp_scale,
    pp_validate,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_a_basis_holds_its_rows_and_builds_elements_on_first_read():
    fan = p2()
    gb = pp_basis(fan, 2)
    assert [f.name for f in fields(gb)] == ["container", "degree", "coefficients", "layout"]
    assert gb.rank == gb.coefficients.rows == 6
    assert "elements" not in vars(gb)
    first = gb.elements
    assert "elements" in vars(gb)
    assert gb.elements is first
    assert [gb.coefficient_vector(e) for e in first] == list(gb.coefficients.entries)


def spy_trusted(monkeypatch):
    """Record the container of every ``PPElement._trusted`` call."""
    calls = []
    wrap = PPElement._trusted.__func__

    def spy(cls, fan, parts):
        calls.append(fan)
        return wrap(cls, fan, parts)

    monkeypatch.setattr(PPElement, "_trusted", classmethod(spy))
    return calls


@pytest.mark.parametrize(
    "build", [p2, p1xp1, diamond, cube], ids=["p2", "p1xp1", "diamond", "cube"]
)
def test_gkm_compare_builds_no_element(monkeypatch, build):
    fan = build()
    calls = spy_trusted(monkeypatch)
    assert all(gkm_compare(fan, k) for k in range(3))
    assert calls == []


def membership_bases():
    for name, build in [
        ("p2", p2),
        ("p1xp1", p1xp1),
        ("diamond", diamond),
        ("blp2", blp2),
        ("cube", cube),
    ]:
        for k in range(3):
            yield f"{name}.k{k}", pp_basis(build(), k)
    for name, build in [("3lines", hypertoric_3lines), ("doubled", doubled_cone)]:
        for k in range(3):
            yield f"{name}.k{k}", mpp_basis(build(), k)
    for v in (5, 7):
        mf = hypertoric_multifan(3, HYPERTORIC_VECTORS[v])
        for k in (1, 2):
            yield f"ht{v}.k{k}", mpp_basis(mf, k)


def element_of(gb, vector):
    """The element with the given coefficient vector, compatible or not."""
    (elem,) = replace(gb, coefficients=IntMatrix([vector], cols=gb.coefficients.cols)).elements
    return elem


def candidates(gb, rng):
    """Integer combinations of the rows, and the same nudged at one coordinate."""
    rows, n = gb.coefficients.entries, gb.coefficients.cols
    for _ in range(6):
        v = [0] * n
        for row in rows:
            c = rng.randint(-3, 3)
            v = [x + c * y for x, y in zip(v, row)]
        yield v
        if n:
            nudged = list(v)
            nudged[rng.randrange(n)] += rng.choice((1, 2, -1))
            yield nudged


MEMBERSHIP = list(membership_bases())


@pytest.mark.parametrize("gb", [gb for _, gb in MEMBERSHIP], ids=[n for n, _ in MEMBERSHIP])
def test_contains_divides_by_the_rows_it_holds(monkeypatch, gb):
    rng = random.Random(f"contains {gb.degree} {gb.coefficients.cols}")
    cases = [(v, element_of(gb, v)) for v in candidates(gb, rng)]

    def no_elimination(*args):
        raise AssertionError("contains ran an elimination")

    monkeypatch.setattr(intlinalg, "hnf_basis", no_elimination)
    monkeypatch.setattr(intlinalg, "_echelon", no_elimination)
    verdicts = [gb.contains(elem) for _, elem in cases]
    monkeypatch.undo()
    assert verdicts == [reference_in_row_lattice(gb.coefficients, v) for v, _ in cases]
    if gb.rank:
        assert any(verdicts) and not all(verdicts)


def test_contains_raises_on_a_non_integer_coefficient():
    sub = jsonio.read_json_file(FIXTURES / "p2_blowup.subdivision.json")
    m = jsonio.subdivision_from_json(sub)
    doc = jsonio.read_json_file(FIXTURES / "blp2_half.element.json")
    half = pp_validate(m.source, jsonio.ppelement_parts_from_json(m.source, doc))
    with pytest.raises(TypeError, match="^matrix entries must be ints, got Fraction$"):
        pp_basis(m.source, 1).contains(half)


def linear_p2():
    fan = p2()
    gb = pp_basis(fan, 1)
    return fan, gb, gb.elements[0]


@pytest.mark.parametrize(
    "other",
    [
        lambda fan, x: pp_constant(fan, 5),
        lambda fan, x: pp_mul(x, x),
        lambda fan, x: pp_add(x, pp_constant(fan, 1)),
    ],
    ids=["constant", "square", "linear_plus_constant"],
)
def test_an_element_with_a_term_of_another_degree_is_not_in_the_piece(other):
    fan, gb, x = linear_p2()
    elem = other(fan, x)
    assert not gb.contains(elem)
    with pytest.raises(ValueError, match="^element has terms outside degree 1$"):
        gb.coefficient_vector(elem)


def test_homogeneous_members_and_non_members():
    fan, gb, x = linear_p2()
    y = gb.elements[1]
    assert gb.contains(pp_add(pp_scale(3, x), y))
    assert gb.contains(pp_constant(fan, 0))
    v = list(gb.coefficient_vector(x))
    v[0] += 1
    assert not gb.contains(element_of(gb, v))
