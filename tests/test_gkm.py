"""Wall-condition description of piecewise polynomials on complete fans."""

import random
from collections import Counter

import pytest

from fanpoly.cones import Cone
from fanpoly.errors import NotComplete
from fanpoly.fans import Fan
from fanpoly.fixtures import blp2, cube, diamond, p1, p1xp1, p2
from fanpoly.gkm import GKMGraph, beta_system, gkm_compare, gkm_graph, gkm_kernel_basis
from fanpoly.intlinalg import IntMatrix, kernel_lattice, lattices_equal
from fanpoly.ppring import pp_basis


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
        reference = gkm_kernel_basis(fan, k)
        for _ in range(3):
            edges = list(g.edges)
            rng.shuffle(edges)
            shuffled = GKMGraph(fan, tuple(edges))
            assert lattices_equal(kernel_lattice(beta_system(shuffled, k)), reference)


def test_wall_conditions_cut_out_piecewise_ring():
    for fan in [p1(), p2(), diamond()]:
        for k in range(3):
            assert gkm_compare(fan, k)


def test_beta_rejects_negative_degree():
    g = gkm_graph(p1())
    with pytest.raises(ValueError):
        beta_system(g, -1)
