"""Fixed-point description of piecewise polynomials on complete fans.

A complete fan determines a graph: one vertex per maximal cone, one edge
per wall (codimension-one face), joining the two maximal cones that meet
along it.  A tuple of global polynomials, one per vertex, is in the image
of the piecewise polynomial ring exactly when for every edge the two
endpoint polynomials restrict equally to the wall's quotient coordinates.

On every complete fan the fan's ``gluing``, which ``pp_basis`` assembles,
is exactly this wall set.  :func:`beta_system` hands the ``parts`` and one
incidence per wall, read off the facet owners, not picked by dimension
(:func:`fanpoly.fans.facet_owners`), to the assembler of
:mod:`fanpoly.ppring`, so :func:`gkm_compare` checks those walls against
the ones :func:`fanpoly.fans.spanning_gluing` keeps, as a lattice over one
layout: the ``kernel_lattice`` of the wall system against the rows of
``pp_basis``.  The tests check that the walls alone cut out the
lattice of every incidence, the full pairwise-face conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotComplete
from .fans import Fan, facet_owners, is_complete
from .intlinalg import IntMatrix, kernel_lattice
from .ppring import check_degree, constraint_matrix, pp_basis


@dataclass(frozen=True)
class GKMGraph:
    """Vertices are the maximal cones of a complete fan; edges its walls.

    Each edge is a triple ``(tau, i, j)`` with ``i < j`` indexing the two
    incident maximal cones.  Edges are sorted by the wall's canonical key.
    """

    fan: Fan
    edges: tuple


def gkm_graph(fan: Fan) -> GKMGraph:
    if not is_complete(fan):
        raise NotComplete("the fixed-point graph is defined for complete fans")
    n = fan.ambient_rank
    # a wall of a complete fan is a facet of two cones; sorted, in face_index order
    walls = sorted(facet_owners(fan.maximal_cones).items())
    return GKMGraph(fan, tuple((fan.face_index[n, f][0], i, j) for f, (i, j) in walls))


def beta_system(graph: GKMGraph, k: int) -> IntMatrix:
    """Difference-of-restrictions matrix of the wall conditions in degree k.

    Columns run over the maximal cones in order, one block of degree-k
    monomial coefficients each; each edge contributes one block of rows,
    the restriction matrix of the first endpoint minus the second's.
    """
    check_degree(k)
    parts = graph.fan.parts
    walls = [(parts[i][0], parts[j][0], tau.id_str, tau) for tau, i, j in graph.edges]
    return constraint_matrix(parts, walls, k)[1]


def gkm_compare(fan: Fan, k: int) -> bool:
    """Whether the wall rows and the gluing rows of ``pp_basis`` cut out one lattice.

    The gluing is the wall set on a complete fan, so this cross-checks the
    facet owners of :func:`gkm_graph` against ``spanning_gluing``.  Every
    maximal cone is full-dimensional, so both sides share one coefficient
    layout, and both bases are canonical (Hermite form): the lattices are
    equal exactly when the bases are.
    """
    return kernel_lattice(beta_system(gkm_graph(fan), k)) == pp_basis(fan, k).coefficients
