"""The shared assembler and checker against the frozen hand-built systems.

Every constraint matrix is built twice, by ``fanpoly.ppring`` from a
container's ``parts`` and ``incidences`` and by the frozen loops in
``reference_constraints``, and the two must agree row for row; the graded
bases must equal the kernels of the reference matrices bit for bit, and
the checker must name the first pair the reference loop finds failing.
Inputs: the fixture fans at k = 0..3 and seeded signed-permutation images
of them, the fixture multifans, the multifan of P^2 and a five-vector
hypertoric multifan in Z^3 at k = 0..2, and the wall graphs of the
complete fans.  ``pp_basis`` and ``mpp_basis`` must give the same basis
of every multifan: the corpus multifans at k = 0..3 and the five- and
seven-vector hypertoric multifans at k = 0..2.
"""

import random

import pytest
from corpus import blp2, cube, diamond, doubled_cone, hypertoric_3lines, p1, p1xp1, p2
from reference_constraints import (
    reference_beta_system,
    reference_fan_system,
    reference_maximal_pairs,
    reference_multifan_system,
)

from fanpoly.cones import Cone
from fanpoly.errors import Incompatible
from fanpoly.fans import Fan
from fanpoly.gkm import beta_system, gkm_graph
from fanpoly.intlinalg import kernel_lattice
from fanpoly.multifans import hypertoric_multifan, mpp_basis, multifan_from_fan
from fanpoly.polynomials import LocalPolynomial, restrict_to_face
from fanpoly.ppring import constraint_matrix, pp_basis, pp_validate

FANS = {"p1": p1, "p2": p2, "diamond": diamond, "cube": cube, "blp2": blp2, "p1xp1": p1xp1}

HYPERTORIC_5 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]
HYPERTORIC_7 = HYPERTORIC_5 + [(1, 0, 1), (1, 1, 1)]


def signed_permutation_image(fan, rng):
    n = fan.ambient_rank
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]

    def move(v):
        return tuple(signs[i] * v[perm[i]] for i in range(n))

    return Fan(n, [Cone(n, [move(g) for g in c.generators]) for c in fan.maximal_cones])


def fan_cases():
    rng = random.Random(3)
    out = []
    for name, build in FANS.items():
        fan = build()
        out.append((name, fan))
        for i in range(2):
            out.append((f"{name}.image{i}", signed_permutation_image(fan, rng)))
    return out


FAN_CASES = fan_cases()

MULTIFANS = {
    "hypertoric_3lines": hypertoric_3lines,
    "doubled_cone": doubled_cone,
    "p2_multifan": lambda: multifan_from_fan(p2()),
    "hypertoric_5": lambda: hypertoric_multifan(3, HYPERTORIC_5),
}


def same_matrix(a, b):
    return a.shape == b.shape and a.tolist() == b.tolist()


@pytest.mark.parametrize("name, fan", FAN_CASES, ids=[n for n, _ in FAN_CASES])
def test_fan_system_and_basis_match_reference(name, fan):
    for k in range(4):
        ref_layout, ref = reference_fan_system(fan, k)
        layout, matrix = constraint_matrix(fan.parts, fan.incidences, k)
        assert layout == ref_layout
        assert same_matrix(matrix, ref)
        gb = pp_basis(fan, k)
        assert gb.layout == ref_layout
        assert same_matrix(gb.coefficients, kernel_lattice(ref))


@pytest.mark.parametrize("name", sorted(MULTIFANS))
def test_multifan_system_and_basis_match_reference(name):
    mf = MULTIFANS[name]()
    for k in range(3):
        ref_layout, ref = reference_multifan_system(mf, k)
        layout, matrix = constraint_matrix(mf.parts, mf.incidences, k)
        assert layout == ref_layout
        assert same_matrix(matrix, ref)
        gb = mpp_basis(mf, k)
        assert gb.layout == ref_layout
        assert same_matrix(gb.coefficients, kernel_lattice(ref))


GRADED_MULTIFANS = [
    ("doubled_cone", doubled_cone, 3),
    ("hypertoric_3lines", hypertoric_3lines, 3),
    ("hypertoric_5", lambda: hypertoric_multifan(3, HYPERTORIC_5), 2),
    ("hypertoric_7", lambda: hypertoric_multifan(3, HYPERTORIC_7), 2),
]


@pytest.mark.parametrize("name, build, top", GRADED_MULTIFANS, ids=[c[0] for c in GRADED_MULTIFANS])
def test_pp_basis_takes_a_multifan(name, build, top):
    """``pp_basis`` on a multifan is ``mpp_basis``, and both are the kernel
    of the reference system."""
    mf = build()
    for k in range(top + 1):
        ref_layout, ref = reference_multifan_system(mf, k)
        gb = pp_basis(mf, k)
        assert gb == mpp_basis(mf, k)
        assert gb.container is mf and gb.degree == k
        assert gb.layout == ref_layout
        assert same_matrix(gb.coefficients, kernel_lattice(ref))


@pytest.mark.parametrize("name, fan", FAN_CASES, ids=[n for n, _ in FAN_CASES])
def test_beta_system_matches_reference(name, fan):
    graph = gkm_graph(fan)
    for k in range(4):
        assert same_matrix(beta_system(graph, k), reference_beta_system(graph, k))


def random_linear_parts(parts, rng):
    return {
        pid: LocalPolynomial.linear_form(
            cone.quotient, [rng.randint(-1, 1) for _ in range(cone.quotient.rank)]
        )
        for pid, cone in parts
    }


def first_failing_fan_pair(fan, parts):
    cones = fan.maximal_cones
    for (i, j), tau in fan.pair_faces.items():
        a, b = cones[i], cones[j]
        if restrict_to_face(parts[a.id_str], a, tau) != restrict_to_face(parts[b.id_str], b, tau):
            return (a.id_str, b.id_str), tau.id_str
    return None


def first_failing_multifan_pair(mf, parts):
    for a, b, shared in reference_maximal_pairs(mf):
        for c in shared:
            tau = mf.cones[c]
            fa = restrict_to_face(parts[a], mf.cones[a], tau)
            fb = restrict_to_face(parts[b], mf.cones[b], tau)
            if fa != fb:
                return (a, b), c
    return None


def test_checker_names_the_reference_pair():
    rng = random.Random(11)
    cases = [(fan, pp_validate, first_failing_fan_pair) for _, fan in FAN_CASES]
    cases += [(build(), pp_validate, first_failing_multifan_pair) for build in MULTIFANS.values()]
    failures = 0
    for container, validate, reference in cases:
        for _ in range(5):
            parts = random_linear_parts(container.parts, rng)
            expected = reference(container, parts)
            if expected is None:
                validate(container, parts)
                continue
            failures += 1
            with pytest.raises(Incompatible) as exc:
                validate(container, parts)
            assert (exc.value.cones, exc.value.face) == expected
    assert failures > 0
