"""Fixed-point description of piecewise polynomials on complete fans.

A complete fan determines a graph: one vertex per maximal cone, one edge
per wall (codimension-one face), joining the two maximal cones that meet
along it.  A tuple of global polynomials, one per vertex, is in the image
of the piecewise polynomial ring exactly when for every edge the two
endpoint polynomials restrict equally to the wall's quotient coordinates.

The walls are a shorter incidence list over the same parts as the fan's
own: :func:`beta_system` hands the fan's ``parts`` and one incidence per
wall to the assembler of :mod:`fanpoly.ppring`.  The point of this module
is that the wall conditions alone cut out the same lattice as the full
pairwise-face conditions, and that this can be checked exactly: both
sides are kernels of integer matrices over the same coordinate layout, so
equality is a lattice comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotComplete
from .fans import Fan, is_complete
from .intlinalg import IntMatrix, kernel_lattice, lattices_equal
from .ppring import constraint_matrix, pp_basis


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
    wall_dim = fan.ambient_rank - 1
    edges = []
    for face, incident in fan.face_index.values():
        if face.dim != wall_dim:
            continue
        i, j = incident
        edges.append((face, i, j))
    edges.sort(key=lambda e: e[0].key)
    return GKMGraph(fan, tuple(edges))


def beta_system(graph: GKMGraph, k: int) -> IntMatrix:
    """Difference-of-restrictions matrix of the wall conditions in degree k.

    Columns run over the maximal cones in order, one block of degree-k
    monomial coefficients each; each edge contributes one block of rows,
    the restriction matrix of the first endpoint minus the second's.
    """
    if k < 0:
        raise ValueError("negative degree")
    parts = graph.fan.parts
    walls = [(parts[i][0], parts[j][0], tau.id_str, tau) for tau, i, j in graph.edges]
    return constraint_matrix(parts, walls, k)[1]


def gkm_kernel_basis(fan: Fan, k: int) -> IntMatrix:
    """Canonical basis of the tuples satisfying all wall conditions."""
    return kernel_lattice(beta_system(gkm_graph(fan), k))


def gkm_compare(fan: Fan, k: int) -> bool:
    """Whether the wall conditions cut out exactly the piecewise ring.

    Both lattices are expressed over the same coefficient layout (every
    maximal cone of a complete fan is full-dimensional, so its quotient
    coordinates are the ambient characters), making this an exact integer
    lattice equality.
    """
    return lattices_equal(gkm_kernel_basis(fan, k), pp_basis(fan, k).coefficients)
