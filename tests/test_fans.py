"""Fan validation, completeness and star subdivisions."""

import random
from functools import cached_property
from pathlib import Path

import pytest
from corpus import (
    blp2,
    completeness_cases,
    cube,
    diamond,
    gl_image,
    p1,
    p1xp1,
    p2,
    p3_starred3,
    projective_space,
    random_refinement,
    shuffled_image,
    subdivided_p3,
)
from test_random_fans import BASES as RANDOM_BASES
from test_random_fans import CASES as RANDOM_CASES

from fanpoly import fans
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
from fanpoly.jsonio import read_json_file, subdivision_from_json


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


def ridge_rule(fan):
    """Completeness as the face index reads it: nonempty, every maximal cone
    of dimension n, every face of dimension n - 1 in exactly two cones."""
    n = fan.ambient_rank
    return (
        bool(fan.maximal_cones)
        and all(c.dim == n for c in fan.maximal_cones)
        and all(len(idxs) == 2 for f, idxs in fan.face_index.values() if f.dim == n - 1)
    )


def test_completeness_reads_facet_owners_as_the_ridge_rule():
    cases = completeness_cases()
    assert {is_complete(f) for f in cases} == {True, False}
    for fan in cases:
        assert is_complete(fan) == ridge_rule(fan), fan.maximal_cones


def test_derived_data_is_built_once_on_first_read():
    for name in ("face_index", "incidences", "gluing"):
        assert isinstance(vars(Fan)[name], cached_property)
    # pair_faces is a view of incidences, not kept
    assert isinstance(vars(Fan)["pair_faces"], property)
    assert not hasattr(Fan, "__slots__")
    fan = blp2()
    assert fan.face_index is fan.face_index
    assert fan.gluing is fan.gluing
    ids = [c.id_str for c in fan.maximal_cones]
    pairs = [(ids[i], ids[j], face) for (i, j), face in fan.pair_faces.items()]
    assert pairs == [(a, b, face) for a, b, _, face in fan.incidences]
    assert set(vars(fan)) == {
        "ambient_rank",
        "maximal_cones",
        "parts",
        "face_index",
        "incidences",
        "gluing",
    }


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


@pytest.mark.parametrize("point", [(True, True), (1, True), (1.0, 1.0), ("1", "1")])
def test_star_subdivision_rejects_non_int_point(point):
    # (True, True) would otherwise star the quadrant at (1, 1), like the default point
    with pytest.raises(TypeError, match="^subdivision point must be an integer vector$"):
        star_subdivision(p2(), Cone(2, [(1, 0), (0, 1)]), point)


def test_subdivision_map_rejects_non_refinement():
    with pytest.raises(NotASubdivision):
        SubdivisionMap(p1xp1(), p2())
    # a genuine coarsening fails in the other direction too
    with pytest.raises(NotASubdivision):
        SubdivisionMap(p2(), blp2())


def test_single_part_must_be_its_target():
    source = Fan(2, [Cone(2, [(1, 0), (1, 1)])])
    target = Fan(2, [Cone(2, [(1, 0), (0, 1)])])
    with pytest.raises(NotASubdivision, match="not tiled"):
        SubdivisionMap(source, target)


def star_cases():
    """Each base fan and three seeded GL_n(Z) images of it."""
    rng = random.Random(16)
    bases = [
        ("p2", p2()),
        ("p1xp1", p1xp1()),
        ("blp2", blp2()),
        ("diamond", diamond()),
        ("cube", cube()),
        ("p3s1", subdivided_p3(random.Random(1), 1)),
        ("p3s2", subdivided_p3(random.Random(2), 2)),
    ]
    return [
        (f"{name}.{i}", fan)
        for name, base in bases
        for i, fan in enumerate([base] + [gl_image(base, rng) for _ in range(3)])
    ]


STAR_CASES = star_cases()


@pytest.mark.parametrize("name, fan", STAR_CASES, ids=[name for name, _ in STAR_CASES])
def test_star_subdivision_at_every_face(name, fan):
    cones = [t for t, _ in fan.face_index.values()]
    for face in cones:
        if face.dim == 0:
            continue
        refined, sub = star_subdivision(fan, face)
        # a facet off the face lies in only one cone containing the face, and
        # a new cone holds a relative-interior point of the face, which no
        # untouched cone does: so no cone is built twice
        expected = 0
        for c in fan.maximal_cones:
            if face.key in c.face_keys():
                expected += sum(1 for f in c.facets() if not set(face.generators) <= set(f))
            else:
                expected += 1
        assert len(refined.maximal_cones) == expected, face

        # two target cones containing a source cone meet in a face containing
        # it, so the least such cone is unique
        for c in refined.maximal_cones:
            containers = [t for t in cones if t.contains_cone(c)]
            least = min(t.dim for t in containers)
            (assigned,) = [t for t in containers if t.dim == least]
            assert sub.assignment[c.id_str] == assigned.id_str, (face, c)


def every_star_subdivision():
    """The star subdivision at every nonzero face of seven complete fans,
    then the last star of each refinement of test_random_fans."""
    bases = [p2(), projective_space(3), p1xp1(), cube(), blp2(), diamond(), p3_starred3()]
    for fan in bases:
        for face, _ in fan.face_index.values():
            if face.dim:
                yield star_subdivision(fan, face)[1]
    for base, seed, weighted in RANDOM_CASES:
        rng = random.Random(f"{base}.{seed}.{weighted}")
        yield random_refinement(RANDOM_BASES[base](), rng, rng.randint(2, 4), weighted)[1]


def test_subdivision_assigns_the_least_containing_target_cone():
    """Searching only the maximal target cones finds each source cone's least
    container among all target faces."""
    seen = []
    for sub in every_star_subdivision():
        faces = [t for t, _ in sub.target.face_index.values()]
        for c in sub.source.maximal_cones:
            containers = [t for t in faces if t.contains_cone(c)]
            least = min(t.dim for t in containers)
            (assigned,) = [t for t in containers if t.dim == least]
            assert sub.assignment[c.id_str] == assigned.id_str, c
        seen.append(len(sub.assignment))
    assert len(seen) == 102 + len(RANDOM_CASES)
    assert sum(seen[: -len(RANDOM_CASES)]) == 821


def test_subdivision_from_json_builds_no_target_face():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    doc = read_json_file(fixtures / "p2_blowup.subdivision.json")
    m = subdivision_from_json(doc)
    assert "face_index" not in vars(m.target)
    assert m.assignment == doc["assignment"]


def test_completeness_preserved_by_subdivision():
    for fan, target in [
        (p2(), Cone(2, [(1, 0), (0, 1)])),
        (diamond(), Cone(2, [(1, 1), (-1, 1)])),
        (cube(), Cone(3, [(1, 1, 1)])),
    ]:
        refined, _ = star_subdivision(fan, target)
        assert is_complete(refined)


def random_fans():
    """The fans of test_random_fans, each with its shuffled GL_n(Z) image."""
    for base, seed, weighted in RANDOM_CASES:
        rng = random.Random(f"{base}.{seed}.{weighted}")
        fan, _ = random_refinement(RANDOM_BASES[base](), rng, rng.randint(2, 4), weighted)
        yield fan
        yield shuffled_image(fan, rng)


def test_pair_faces_cached():
    """Every pair face, read off the common generators, is intersect's common face."""
    corpus = [p1(), p2(), p1xp1(), diamond(), blp2(), cube(), p3_starred3()]
    corpus += [projective_space(n) for n in range(1, 6)]
    pairs = 0
    for f in corpus + completeness_cases() + list(random_fans()):
        for (i, j), face in f.pair_faces.items():
            key, ok = intersect(f.maximal_cones[i], f.maximal_cones[j])
            assert ok and key == face.key, (f.maximal_cones[i], f.maximal_cones[j])
            pairs += 1
    assert pairs > 6000


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


def starred_cube():
    top = Cone(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    return star_subdivision(cube(), top)[0]


@pytest.mark.parametrize(
    "build",
    [p2, cube, blp2, starred_cube, lambda: projective_space(4)],
    ids=["p2", "cube", "blp2", "starred_cube", "p4"],
)
def test_fan_builds_each_face_cone_once_outside_intersect(build, monkeypatch):
    maximal = build().maximal_cones
    built = []
    inside = []
    init, meet = Cone.__init__, fans.intersect

    def counting_init(self, *args):
        built.append((args, bool(inside)))
        init(self, *args)

    def tracked_intersect(a, b):
        inside.append(True)
        try:
            return meet(a, b)
        finally:
            inside.pop()

    monkeypatch.setattr(Cone, "__init__", counting_init)
    monkeypatch.setattr(fans, "intersect", tracked_intersect)
    fan = Fan(maximal[0].ambient_rank, maximal)
    # validation meets pairs on keys: the face Cones wait for the first read
    assert built == []
    fan.face_index, fan.pair_faces, fan.incidences, fan.gluing
    monkeypatch.undo()
    assert not any(during for _, during in built)
    tops = {c.key for c in maximal}
    assert sorted(args for args, _ in built) == sorted(k for k in fan.face_index if k not in tops)
