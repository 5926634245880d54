"""Frozen brute-force cone geometry: the reference the fast code is checked against.

These are the subset enumerations ``fanpoly.cones`` used before it moved to
double description and incidence closure, kept verbatim in behaviour:

* facet normals: every (d-1)-subset of generators whose kernel is a line,
  kept when the generators do not change sign on it;
* extremal generators: those on which the active facet normals have rank d-1;
* faces: the generators annihilated by each of the 2^F subsets of facet
  normals, each face rebuilt from scratch;
* intersection: every (e-1)-subset of the pooled inequalities inside the
  joint span, one kernel per subset.

The cost is exponential, so only small inputs belong here.  The integer
routines are the frozen ones of ``reference_intlinalg``: only ``IntMatrix``,
``dot`` and ``primitive`` are shared with the code under test.
"""

from __future__ import annotations

from itertools import combinations

from reference_intlinalg import reference_hnf_basis, reference_kernel_lattice, reference_solve_left

from fanpoly.errors import NotPointed, ZeroVector
from fanpoly.intlinalg import IntMatrix, dot, primitive


class ReferenceCone:
    """Generators, facet normals and dimension, found by subset enumeration."""

    def __init__(self, ambient_rank: int, generators):
        gens = []
        for g in generators:
            v = tuple(g)
            if all(x == 0 for x in v):
                raise ZeroVector("zero generator in cone input")
            gens.append(primitive(v))
        gens = sorted(set(gens))

        gmat = IntMatrix(gens, cols=ambient_rank)
        # the saturation: everything the generators' annihilator annihilates
        span = reference_kernel_lattice(reference_kernel_lattice(gmat))
        d = span.rows
        self.ambient_rank = ambient_rank
        self.dim = d
        self.span_basis = span
        self.span_perp = reference_kernel_lattice(span)
        if d == 0:
            self.generators = ()
            self.facet_normals = ()
            return

        coords = reference_solve_left(span, gmat)
        local_gens = [coords.row(i) for i in range(coords.rows)]
        normals = set()
        for subset in combinations(range(len(local_gens)), d - 1):
            ker = reference_kernel_lattice(IntMatrix([local_gens[i] for i in subset], cols=d))
            if ker.rows != 1:
                continue
            w = ker.row(0)
            vals = [dot(w, g) for g in local_gens]
            if all(v >= 0 for v in vals):
                normals.add(w)
            elif all(v <= 0 for v in vals):
                normals.add(tuple(-x for x in w))
        local_normals = sorted(normals)
        if reference_hnf_basis(IntMatrix(local_normals, cols=d)).rows != d:
            raise NotPointed(f"cone on {gens!r} contains a line")

        keep = []
        for g in local_gens:
            active = [w for w in local_normals if dot(w, g) == 0]
            if reference_hnf_basis(IntMatrix(active, cols=d)).rows == d - 1:
                keep.append(g)
        lift = reference_solve_left(span.transpose(), IntMatrix.identity(d))
        self.facet_normals = tuple(
            sorted(tuple(dot(w, lift.column(j)) for j in range(lift.cols)) for w in local_normals)
        )
        self.generators = tuple(
            sorted({tuple(dot(g, span.column(j)) for j in range(span.cols)) for g in keep})
        )

    @property
    def key(self):
        return (self.ambient_rank, self.generators)

    def faces(self):
        """Every face, sorted by (dimension, key), from all 2^F facet subsets."""
        if hasattr(self, "_faces"):
            return self._faces
        seen = {}
        for r in range(len(self.facet_normals) + 1):
            for subset in combinations(self.facet_normals, r):
                gens = tuple(
                    g for g in self.generators if all(dot(u, g) == 0 for u in subset)
                )
                seen.setdefault(gens, None)
        built = [ReferenceCone(self.ambient_rank, gens) for gens in seen]
        self._faces = sorted(built, key=lambda c: (c.dim, c.key))
        return self._faces

    def face_keys(self):
        return frozenset(c.key for c in self.faces())


def reference_intersect(c1: ReferenceCone, c2: ReferenceCone):
    """The intersection cone and whether it is a face of both inputs."""
    n = c1.ambient_rank
    eqs = list(c1.span_perp.entries) + list(c2.span_perp.entries)
    s0 = reference_kernel_lattice(IntMatrix(eqs, cols=n))
    e = s0.rows
    rays = []
    if e > 0:
        ineqs = sorted(
            {
                tuple(dot(u, s0.row(l)) for l in range(e))
                for u in c1.facet_normals + c2.facet_normals
            }
            - {(0,) * e}
        )
        found = set()
        for subset in combinations(ineqs, e - 1):
            ker = reference_kernel_lattice(IntMatrix(subset, cols=e))
            if ker.rows != 1:
                continue
            w = ker.row(0)
            vals = [dot(q, w) for q in ineqs]
            if all(v >= 0 for v in vals):
                found.add(w)
            elif all(v <= 0 for v in vals):
                found.add(tuple(-x for x in w))
        rays = [tuple(dot(w, s0.column(j)) for j in range(n)) for w in sorted(found)]
    cone = ReferenceCone(n, rays)
    return cone, cone.key in c1.face_keys() and cone.key in c2.face_keys()
