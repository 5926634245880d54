"""Fan validation, completeness and star subdivisions."""

import json
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

from fanpoly import fans, gkm
from fanpoly.cli import main
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
    star_subdivision,
)
from fanpoly.jsonio import read_json_file, subdivision_from_json


def test_p1_structure():
    f = p1()
    assert len(f.maximal_cones) == 2
    assert len(f.face_index) == 3  # two rays and the origin
    assert f.complete


def test_p2_structure():
    f = p2()
    assert len(f.maximal_cones) == 3
    rays = [r for r, _ in f.face_index.values() if r.dim == 1]
    assert len(rays) == 3
    assert {r.generators[0] for r in rays} == {(1, 0), (0, 1), (-1, -1)}
    assert f.complete
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
    assert not f.complete


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
    assert {f.complete for f in cases} == {True, False}
    for fan in cases:
        assert fan.complete == ridge_rule(fan), fan.maximal_cones


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
        "complete",
        "face_index",
        "incidences",
        "gluing",
    }


def test_completeness():
    assert p1().complete
    assert p1xp1().complete
    assert diamond().complete
    assert blp2().complete
    assert cube().complete
    assert not Fan(2, [Cone(2, [(1, 0), (0, 1)])]).complete
    assert not Fan(2, []).complete


def test_zero_cones_cover_with_no_facets():
    """The zero cone of Z^0 covers its space with an empty owner map, which
    is a covering, not a failure; a zero cone in Z^2 covers nothing."""
    zero = Fan(0, [Cone(0, [])])
    assert zero.complete
    assert not Fan(2, [Cone(2, [])]).complete
    (cone,) = zero.maximal_cones
    assert SubdivisionMap(zero, zero).tiles == {cone.id_str: (cone.id_str,)}


def count_owner_passes(monkeypatch, run):
    """Passes of ``fans.facet_owners`` while ``run`` runs, as ``count_meets``
    counts ``intersect``; ``gkm`` reads it under its own name."""
    calls = []
    owners = fans.facet_owners

    def counted(cones):
        calls.append(cones)
        return owners(cones)

    with monkeypatch.context() as m:
        m.setattr(fans, "facet_owners", counted)
        m.setattr(gkm, "facet_owners", counted)
        run()
    return len(calls)


def test_completeness_takes_one_owner_pass(monkeypatch, capsys):
    """Construction reads the facet owners once and keeps ``complete``;
    validation reads no more, and the fixed-point graph one more for its walls."""
    p2_doc = str(Path(__file__).resolve().parent.parent / "fixtures" / "p2.fan.json")
    assert count_owner_passes(monkeypatch, lambda: main(["validate", p2_doc, "--json"])) == 1
    assert json.loads(capsys.readouterr().out)["complete"] is True
    fan = p2()
    assert count_owner_passes(monkeypatch, lambda: gkm.gkm_graph(fan)) == 1


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
    assert refined.complete
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
    assert refined.complete


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
    assert refined.complete
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
        assert refined.complete


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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Fan(2, [[(1, 0)]]), TypeError, "maximal cones must be Cone instances"),
        (lambda: Fan(2, [Cone(3, [(1, 0, 0)])]), ValueError, "cone ambient rank does not match fan rank"),
        (lambda: SubdivisionMap(p1(), p2()), NotASubdivision, "ambient ranks differ"),
    ],
    ids=["not_a_cone", "cone_rank", "subdivision_ranks"],
)
def test_constructor_rank_and_type_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
