"""The gluing forest against the full incidence list.

``gluing`` keeps, for each shared face, one spanning forest of the parts
above it; agreement along it implies agreement on every incidence.  These
tests check that claim where it is used: the forest is drawn from
``incidences`` with the same tuples, both lists cut out the same kernel
lattice in every degree tried, on complete simplicial fans the forest is
the wall list, and the checker still names the first failing incidence
even when that incidence is not in the forest, for elements and for
bundles.  Shuffling the input order of maximal cones and of their
generators changes no face, incidence, forest or CLI output.

Inputs: the constraint oracle's fans and multifans, and seeded GL_n(Z)
images (signed permutations times shears) of p2, p1xp1 and P^3 with one
to three star subdivisions at random cones of dimension at least two.
"""

import json
import random

import pytest
from corpus import cube, gl_image, lattices_equal, p1xp1, p2, projective_space, subdivided_p3
from test_constraint_oracle import FAN_CASES, HYPERTORIC_5, MULTIFANS, first_failing_fan_pair

from fanpoly.cli import main
from fanpoly.chern import bundle_validate
from fanpoly.cones import Cone
from fanpoly.errors import Incompatible, IncompatibleMultisets
from fanpoly.fans import Fan, star_subdivision
from fanpoly.gkm import gkm_graph
from fanpoly.intlinalg import kernel_lattice
from fanpoly.jsonio import fan_to_json
from fanpoly.multifans import hypertoric_multifan, multifan_from_fan
from fanpoly.polynomials import LocalPolynomial
from fanpoly.ppring import constraint_matrix, pp_validate


def random_fan_cases():
    rng = random.Random(17)
    out = []
    for name, build in (("p2", p2), ("p1xp1", p1xp1), ("p3", lambda: projective_space(3))):
        for i in range(3):
            fan = gl_image(build(), rng)
            for _ in range(rng.randint(1, 3)):
                targets = [f for f, _ in fan.face_index.values() if f.dim >= 2]
                fan, _ = star_subdivision(fan, rng.choice(targets))
            out.append((f"{name}.random{i}", fan))
    return out


RANDOM_FANS = random_fan_cases()
CASES = FAN_CASES + RANDOM_FANS + [(name, build()) for name, build in MULTIFANS.items()]
IDS = [name for name, _ in CASES]


@pytest.mark.parametrize("name, container", CASES, ids=IDS)
def test_gluing_is_drawn_from_incidences_face_by_face(name, container):
    gluing = container.gluing
    assert container.gluing is gluing
    assert len(set(gluing)) == len(gluing)
    # index() raises unless the entry is an incidence
    keys = [(inc[2], container.incidences.index(inc)) for inc in gluing]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name, container", CASES, ids=IDS)
def test_gluing_cuts_out_the_same_kernel(name, container):
    for k in range(4):
        _, full = constraint_matrix(container.parts, container.incidences, k)
        _, forest = constraint_matrix(container.parts, container.gluing, k)
        assert lattices_equal(kernel_lattice(forest), kernel_lattice(full))


def is_complete_simplicial(container):
    return (
        isinstance(container, Fan)
        and container.complete
        and all(len(c.generators) == c.dim for c in container.maximal_cones)
    )


SIMPLICIAL = [(name, c) for name, c in CASES if is_complete_simplicial(c)]


def test_complete_simplicial_cases_cover_the_random_fans():
    names = {name for name, _ in SIMPLICIAL}
    assert {name for name, _ in random_fan_cases()} <= names
    assert "cube" not in names


@pytest.mark.parametrize("name, fan", SIMPLICIAL, ids=[name for name, _ in SIMPLICIAL])
def test_gluing_is_the_wall_list_on_complete_simplicial_fans(name, fan):
    walls = sorted(tau.key for tau, _, _ in gkm_graph(fan).edges)
    assert sorted(tau.key for _, _, _, tau in fan.gluing) == walls


# primitive directions in the upper half plane, by angle; consecutive pairs
# are unimodular
HALF_PLANE_12 = [
    (1, 0), (3, 1), (2, 1), (1, 1), (1, 2), (1, 3),
    (0, 1), (-1, 3), (-1, 2), (-1, 1), (-2, 1), (-3, 1),
]


def polygon_fan_24():
    rays = HALF_PLANE_12 + [(-x, -y) for x, y in HALF_PLANE_12]
    return Fan(2, [Cone(2, [rays[i], rays[(i + 1) % 24]]) for i in range(24)])


HYPERTORIC_9 = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
    (1, 0, 1), (1, 1, 1), (1, -1, 0), (0, 1, -1),
]


def test_pinned_counts():
    ht9 = hypertoric_multifan(3, HYPERTORIC_9)
    assert (len(ht9.incidences), len(ht9.gluing)) == (2415, 174)
    p3sub6 = subdivided_p3(random.Random(5), 6)
    assert len(p3sub6.maximal_cones) == 16
    assert (len(p3sub6.incidences), len(p3sub6.gluing)) == (120, 24)
    poly24 = polygon_fan_24()
    assert (len(poly24.incidences), len(poly24.gluing)) == (276, 24)


def constant_parts(container, odd):
    """Constant 0 on every part but ``odd``, which carries 1."""
    return {
        pid: LocalPolynomial.constant(cone.quotient, int(pid == odd))
        for pid, cone in container.parts
    }


def octants():
    """The fan of the eight coordinate octants of Z^3 (P^1 x P^1 x P^1).

    Octants with one sign in common share only a ray, which the gluing
    leaves out: the walls around the ray already chain them.
    """
    cones = [
        Cone(3, [(a, 0, 0), (0, b, 0), (0, 0, c)])
        for a in (1, -1) for b in (1, -1) for c in (1, -1)
    ]
    return Fan(3, cones)


def odd_character(fan, odd):
    """Rank-one multisets: the character x + y + z on ``odd``, 0 elsewhere.

    It pairs to +-1 with every ray of the octant fan, so the multisets
    differ on every nonzero face of ``odd`` and agree on the zero cone.
    """
    return {pid: [cone.quotient.reduce((int(pid == odd),) * 3)] for pid, cone in fan.parts}


@pytest.mark.parametrize(
    "container, validate, error, data, min_dim",
    [
        (cube(), pp_validate, Incompatible, constant_parts, 0),
        (multifan_from_fan(cube()), pp_validate, Incompatible, constant_parts, 0),
        (hypertoric_multifan(3, HYPERTORIC_5), pp_validate, Incompatible, constant_parts, 0),
        (octants(), bundle_validate, IncompatibleMultisets, odd_character, 1),
    ],
    ids=["cube", "cube_multifan", "hypertoric_5", "octants_bundle"],
)
def test_checker_names_a_first_failure_outside_the_gluing(
    container, validate, error, data, min_dim
):
    # one odd part fails exactly the incidences that touch it at a face of
    # dimension min_dim or more, so the first of those is the pair the
    # checker must name
    found = 0
    for odd, _ in container.parts:
        first = next(
            inc for inc in container.incidences if odd in inc[:2] and inc[3].dim >= min_dim
        )
        if first in container.gluing:
            continue
        found += 1
        parts = data(container, odd)
        with pytest.raises(error) as exc:
            validate(container, parts)
        assert (exc.value.cones, exc.value.face) == (first[:2], first[2])
        if validate is pp_validate and isinstance(container, Fan):
            assert first_failing_fan_pair(container, parts) == (first[:2], first[2])
    assert found > 0


def fan_structure(fan):
    """Face index, pair faces, incidences and gluing, with faces as keys."""
    return (
        [(key, idxs) for key, (_, idxs) in fan.face_index.items()],
        {pair: face.key for pair, face in fan.pair_faces.items()},
        [(a, b, face, tau.key) for a, b, face, tau in fan.incidences],
        [(a, b, face, tau.key) for a, b, face, tau in fan.gluing],
    )


@pytest.mark.parametrize("name, fan", RANDOM_FANS, ids=[name for name, _ in RANDOM_FANS])
def test_shuffled_input_changes_nothing(name, fan, tmp_path, capsys):
    rng = random.Random(name)
    doc = fan_to_json(fan)
    cones = [list(gens) for gens in doc["maximal_cones"]]
    for gens in cones:
        rng.shuffle(gens)
    rng.shuffle(cones)
    shuffled = dict(doc, maximal_cones=cones)
    assert shuffled != doc

    n = fan.ambient_rank
    again = Fan(n, [Cone(n, gens) for gens in cones])
    assert fan_structure(again) == fan_structure(fan)

    outputs = []
    for i, d in enumerate((doc, shuffled)):
        path = tmp_path / f"{i}.fan.json"
        path.write_text(json.dumps(d))
        for verb in (["validate"], ["pp-basis", "--degree", "2"]):
            assert main([verb[0], str(path), *verb[1:], "--json"]) == 0
            outputs.append(capsys.readouterr().out.encode())
    assert outputs[:2] == outputs[2:]
