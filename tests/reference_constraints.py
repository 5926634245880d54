"""Frozen hand-built constraint systems: the reference the shared assembler is checked against.

These are the three row loops fanpoly used before fans, multifans and wall
graphs shared one incidence list and one assembler, kept verbatim in
behaviour:

* fans: one block of rows per pair of maximal cones in ``pair_faces``
  order, columns in maximal-cone order;
* multifans: one block per maximal common lower node of each pair of
  maximal nodes (pairs in ``combinations`` order of ``maximal_ids``);
* wall graphs: one block per edge of the graph, columns in blocks of the
  ambient monomial count.

Each block is the degree-k restriction matrix of the first side minus the
second side's, with Sym^k taken from the frozen expansion in
``reference_polynomials``.
"""

from __future__ import annotations

from itertools import combinations

from reference_polynomials import reference_degree_matrix

from fanpoly.cones import restriction_matrix
from fanpoly.intlinalg import IntMatrix
from fanpoly.polynomials import monomials_of_degree


def reference_fan_system(fan, k):
    """(layout, matrix) of the degree-k pairwise-face conditions of a fan."""
    cones = fan.maximal_cones
    layout = []
    offsets = []
    total = 0
    for c in cones:
        monos = monomials_of_degree(c.quotient.rank, k)
        offsets.append(total)
        layout.append((c.id_str, monos))
        total += len(monos)

    rows = []
    for (i, j), tau in fan.pair_faces.items():
        ri = reference_degree_matrix(restriction_matrix(cones[i], tau), k)
        rj = reference_degree_matrix(restriction_matrix(cones[j], tau), k)
        for r in range(ri.rows):
            row = [0] * total
            for c in range(ri.cols):
                row[offsets[i] + c] = ri[r, c]
            for c in range(rj.cols):
                row[offsets[j] + c] = -rj[r, c]
            rows.append(row)
    return tuple(layout), IntMatrix(rows, cols=total)


def reference_maximal_pairs(mf):
    """(a, b, shared lower nodes) for each pair of maximal nodes that meet."""
    for a, b in combinations(mf.maximal_ids, 2):
        shared = mf.maximal_common_lower(a, b)
        if shared:
            yield a, b, shared


def reference_multifan_system(mf, k):
    """(layout, matrix) of the degree-k conditions of a multifan."""
    layout = []
    offsets = {}
    total = 0
    for nid in mf.maximal_ids:
        monos = monomials_of_degree(mf.cone_of(nid).quotient.rank, k)
        offsets[nid] = total
        layout.append((nid, monos))
        total += len(monos)

    rows = []
    for a, b, shared in reference_maximal_pairs(mf):
        for c in shared:
            tau = mf.cone_of(c)
            ra = reference_degree_matrix(restriction_matrix(mf.cone_of(a), tau), k)
            rb = reference_degree_matrix(restriction_matrix(mf.cone_of(b), tau), k)
            for r in range(ra.rows):
                row = [0] * total
                for col in range(ra.cols):
                    row[offsets[a] + col] = ra[r, col]
                for col in range(rb.cols):
                    row[offsets[b] + col] = -rb[r, col]
                rows.append(row)
    return tuple(layout), IntMatrix(rows, cols=total)


def reference_beta_system(graph, k):
    """Matrix of the degree-k wall conditions of a complete fan's graph."""
    fan = graph.fan
    cones = fan.maximal_cones
    width = len(monomials_of_degree(fan.ambient_rank, k))
    total = width * len(cones)
    rows = []
    for tau, i, j in graph.edges:
        ri = reference_degree_matrix(restriction_matrix(cones[i], tau), k)
        rj = reference_degree_matrix(restriction_matrix(cones[j], tau), k)
        for r in range(ri.rows):
            row = [0] * total
            for c in range(width):
                row[i * width + c] = ri[r, c]
                row[j * width + c] = -rj[r, c]
            rows.append(row)
    return IntMatrix(rows, cols=total)
