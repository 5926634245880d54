"""Wall-condition description of piecewise polynomials on complete fans."""

import random
from collections import Counter

import pytest
from corpus import (
    blp2,
    completeness_cases,
    cube,
    diamond,
    gl_image,
    lattices_equal,
    p1,
    p1xp1,
    p2,
    p3_starred3,
    projective_space,
    subdivided_p3,
)

from fanpoly.cones import Cone
from fanpoly.errors import NotComplete
from fanpoly.fans import Fan
from fanpoly.gkm import GKMGraph, beta_system, gkm_compare, gkm_graph
from fanpoly.intlinalg import IntMatrix, kernel_lattice
from fanpoly.ppring import constraint_matrix, pp_basis


def test_graph_rejects_incomplete_fan():
    half = Fan(2, [Cone(2, [(1, 0), (0, 1)])])
    with pytest.raises(NotComplete):
        gkm_graph(half)


def test_edge_counts():
    assert len(gkm_graph(p1()).edges) == 1
    assert len(gkm_graph(p2()).edges) == 3
    assert len(gkm_graph(p1xp1()).edges) == 4
    assert len(gkm_graph(diamond()).edges) == 4
    assert len(gkm_graph(blp2()).edges) == 4
    assert len(gkm_graph(cube()).edges) == 12


def vertex_degrees(graph):
    """Number of walls on each maximal cone, in cone order."""
    counts = Counter(v for _, i, j in graph.edges for v in (i, j))
    return [counts[v] for v in range(len(graph.fan.maximal_cones))]


def test_vertex_degrees():
    assert vertex_degrees(gkm_graph(p2())) == [2, 2, 2]
    assert vertex_degrees(gkm_graph(cube())) == [4, 4, 4, 4, 4, 4]


def test_beta_line_degree_zero():
    g = gkm_graph(p1())
    assert beta_system(g, 0) == IntMatrix([[1, -1]], cols=2)
    assert kernel_lattice(beta_system(g, 0)) == IntMatrix([[1, 1]], cols=2)


def test_beta_annihilates_piecewise_elements():
    for fan in [p2(), diamond()]:
        g = gkm_graph(fan)
        for k in range(3):
            b = beta_system(g, k)
            gb = pp_basis(fan, k)
            for e in gb.elements:
                assert all(v == 0 for v in b.mul_vec(gb.coefficient_vector(e)))


def test_kernel_invariant_under_edge_reordering():
    rng = random.Random(7)
    fan = diamond()
    g = gkm_graph(fan)
    for k in range(3):
        reference = kernel_lattice(beta_system(g, k))
        for _ in range(3):
            edges = list(g.edges)
            rng.shuffle(edges)
            shuffled = GKMGraph(fan, tuple(edges))
            assert lattices_equal(kernel_lattice(beta_system(shuffled, k)), reference)


def test_wall_conditions_cut_out_piecewise_ring():
    for fan in [p1(), p2(), diamond()]:
        for k in range(3):
            assert gkm_compare(fan, k)


def complete_fans():
    """Corpus fans, two seeded subdivisions of P^3, and a GL_n(Z) image of each."""
    fans = [p1(), p2(), p1xp1(), diamond(), blp2(), cube(), p3_starred3(), projective_space(4)]
    fans += [subdivided_p3(random.Random(seed), 6) for seed in (11, 12)]
    rng = random.Random(2718)
    return fans + [gl_image(fan, rng) for fan in fans]


def test_walls_cut_out_every_incidence_and_are_the_gluing():
    """The wall conditions against the definition: every incidence, not the gluing.

    The gluing pp_basis assembles is then exactly the wall set, so gkm_compare
    checks the gluing against the walls that gkm_graph picks by dimension.
    """
    for fan in complete_fans():
        graph = gkm_graph(fan)
        walls = [(fan.parts[i][0], fan.parts[j][0], tau.id_str) for tau, i, j in graph.edges]
        gluing = [inc[:3] for inc in fan.gluing]
        assert len(gluing) == len(walls) and set(gluing) == set(walls)
        for k in range(4):
            every = constraint_matrix(fan.parts, fan.incidences, k)[1]
            assert kernel_lattice(beta_system(graph, k)) == kernel_lattice(every)


def test_walls_are_the_faces_of_codimension_one():
    """gkm_graph's facet owners against the face index filtered by dimension."""
    complete = [fan for fan in completeness_cases() if fan.complete]
    assert len(complete) > 100
    for fan in complete:
        wall_dim = fan.ambient_rank - 1
        want = [(f, *idxs) for f, idxs in fan.face_index.values() if f.dim == wall_dim]
        edges = gkm_graph(fan).edges
        assert len(edges) == len(want)
        for (tau, i, j), (face, a, b) in zip(edges, want):
            assert tau is face and (i, j) == (a, b)


def test_beta_rejects_negative_degree():
    g = gkm_graph(p1())
    with pytest.raises(ValueError, match="^negative degree$"):
        beta_system(g, -1)


@pytest.mark.parametrize("k", [True, False])
def test_wall_conditions_reject_bool_degree(k):
    # pp_basis refuses a bool degree, and so do the wall conditions it is compared with
    with pytest.raises(TypeError, match="^degree must be an integer, not a bool$"):
        beta_system(gkm_graph(p2()), k)
    with pytest.raises(TypeError, match="^degree must be an integer, not a bool$"):
        gkm_compare(p2(), k)
