"""Fan validation, completeness and star subdivisions."""

import pytest

from fanpoly.cones import Cone, intersect
from fanpoly.errors import (
    DuplicateCone,
    NotAFan,
    NotASubdivision,
    PointNotInterior,
    TargetNotInFan,
)
from fanpoly.fans import (
    Fan,
    SubdivisionMap,
    is_complete,
    star_subdivision,
)
from fanpoly.fixtures import blp2, cube, diamond, p1, p1xp1, p2


def test_p1_structure():
    f = p1()
    assert len(f.maximal_cones) == 2
    assert len(f.face_index) == 3  # two rays and the origin
    assert is_complete(f)


def test_p2_structure():
    f = p2()
    assert len(f.maximal_cones) == 3
    rays = [r for r, _ in f.face_index.values() if r.dim == 1]
    assert len(rays) == 3
    assert {r.generators[0] for r in rays} == {(1, 0), (0, 1), (-1, -1)}
    assert is_complete(f)
    # each ray lies in exactly two maximal cones
    for r in rays:
        assert len(f.face_index[r.key][1]) == 2


def test_not_a_fan_overlap():
    a = Cone(2, [(1, 0), (0, 1)])
    b = Cone(2, [(1, 1), (-1, 1)])
    with pytest.raises(NotAFan) as exc:
        Fan(2, [a, b])
    assert exc.value.pair == (0, 1)


def test_not_a_fan_containment():
    a = Cone(2, [(1, 0), (0, 1)])
    b = Cone(2, [(1, 0)])
    with pytest.raises(NotAFan):
        Fan(2, [a, b])


def test_duplicate_cone():
    a = Cone(2, [(1, 0), (0, 1)])
    b = Cone(2, [(0, 1), (1, 0), (1, 1)])
    with pytest.raises(DuplicateCone):
        Fan(2, [a, b])


def test_fan_allows_mixed_dimensions():
    f = Fan(2, [Cone(2, [(1, 0), (0, 1)]), Cone(2, [(-1, -1)])])
    assert len(f.maximal_cones) == 2
    assert not is_complete(f)


def test_completeness():
    assert is_complete(p1())
    assert is_complete(p1xp1())
    assert is_complete(diamond())
    assert is_complete(blp2())
    assert is_complete(cube())
    assert not is_complete(Fan(2, [Cone(2, [(1, 0), (0, 1)])]))
    assert not is_complete(Fan(2, []))


def test_cube_counts():
    f = cube()
    assert len(f.maximal_cones) == 6
    dims = [c.dim for c, _ in f.face_index.values()]
    assert dims.count(2) == 12
    assert dims.count(1) == 8
    for ridge, incident in f.face_index.values():
        if ridge.dim == 2:
            assert len(incident) == 2


def test_star_subdivision_blowup():
    base = p2()
    refined, sub = star_subdivision(base, Cone(2, [(1, 0), (0, 1)]))
    expected = {
        Cone(2, [(1, 0), (1, 1)]).key,
        Cone(2, [(1, 1), (0, 1)]).key,
        Cone(2, [(0, 1), (-1, -1)]).key,
        Cone(2, [(-1, -1), (1, 0)]).key,
    }
    assert {c.key for c in refined.maximal_cones} == expected
    assert is_complete(refined)
    assert sub.source is refined and sub.target is base
    quad_id = Cone(2, [(1, 0), (0, 1)]).id_str
    for src_id, tgt_id in sub.assignment.items():
        src = refined.cone_by_id(src_id)
        if (1, 1) in src.generators:
            assert tgt_id == quad_id
        else:
            assert tgt_id == src_id


def test_star_subdivision_explicit_point():
    base = p2()
    refined, _ = star_subdivision(base, Cone(2, [(1, 0), (0, 1)]), point=(2, 1))
    assert any((2, 1) in c.generators for c in refined.maximal_cones)
    assert is_complete(refined)


def test_star_subdivision_identity():
    base = p2()
    ray = Cone(2, [(1, 0)])
    refined, sub = star_subdivision(base, ray)
    assert refined == base
    assert all(k == v for k, v in sub.assignment.items())


def test_star_subdivision_cube():
    base = cube()
    top = next(c for c in base.maximal_cones if all(g[2] == 1 for g in c.generators))
    refined, _ = star_subdivision(base, top)
    assert is_complete(refined)
    assert len(refined.maximal_cones) == 9  # top cone splits into four


def test_star_subdivision_errors():
    base = p2()
    with pytest.raises(TargetNotInFan):
        star_subdivision(base, Cone(2, [(1, 1)]))
    quad = Cone(2, [(1, 0), (0, 1)])
    with pytest.raises(PointNotInterior):
        star_subdivision(base, quad, point=(1, 0))
    with pytest.raises(PointNotInterior):
        star_subdivision(base, quad, point=(-1, -1))
    with pytest.raises(PointNotInterior):
        star_subdivision(base, quad, point=(0, 0))
    with pytest.raises(PointNotInterior):
        star_subdivision(base, Cone(2, []))


def test_subdivision_map_rejects_non_refinement():
    with pytest.raises(NotASubdivision):
        SubdivisionMap(p1xp1(), p2())
    # a genuine coarsening fails in the other direction too
    with pytest.raises(NotASubdivision):
        SubdivisionMap(p2(), blp2())


def test_completeness_preserved_by_subdivision():
    for fan, target in [
        (p2(), Cone(2, [(1, 0), (0, 1)])),
        (diamond(), Cone(2, [(1, 1), (-1, 1)])),
        (cube(), Cone(3, [(1, 1, 1)])),
    ]:
        refined, _ = star_subdivision(fan, target)
        assert is_complete(refined)


def test_pair_faces_cached():
    f = p2()
    for (i, j), face in f.pair_faces.items():
        g, ok = intersect(f.maximal_cones[i], f.maximal_cones[j])
        assert ok and g == face


def test_one_cone_per_face():
    top = Cone(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    starred, _ = star_subdivision(cube(), top)
    for f in [p2(), diamond(), cube(), blp2(), starred]:
        for face in f.pair_faces.values():
            assert face is f.face_index[face.key][0]
        for _, _, _, face in f.incidences:
            assert face is f.face_index[face.key][0]
        for c in f.maximal_cones:
            assert f.face_index[c.key][0] is c
