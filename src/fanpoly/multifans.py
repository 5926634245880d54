"""Piecewise polynomials indexed by a poset of cones.

A multifan keeps the local data of a fan but drops the condition that
cones meet along common faces.  It is a finite poset together with a cone
for each node, such that the nodes below any given node correspond one to
one with the faces of its cone.  Distinct nodes may carry the same cone,
and cones of incomparable nodes may overlap arbitrarily: the poset, not
the geometry, decides which compatibilities are imposed.

A piecewise polynomial assigns a polynomial to every maximal node.  Two
maximal nodes interact only through their common lower nodes, and by
transitivity of restriction it is enough to impose agreement on the
maximal ones among those.  So a multifan exposes the same ``parts``,
``incidences`` and ``gluing`` as a Fan, with node ids in place of cone
ids, so ``pp_validate`` and ``pp_basis`` take it as they take a fan
(:func:`mpp_basis` is ``pp_basis`` under the CLI verb's name); orbit
restriction reads a fan's faces and refuses a multifan.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .cones import Cone
from .errors import FaceBijectionFailure, FanMismatch, NotAPoset
from .fans import Fan, spanning_gluing
from .intlinalg import dot
from .ppring import GradedBasis, pp_basis


class Multifan:
    """A finite poset of nodes, each labeled with a cone.

    ``Multifan(ambient_rank, cones, covers)`` checks its input: ``cones``
    maps node ids to Cone instances of the given ambient rank; ``covers``
    lists pairs ``(lower_id, upper_id)``.  The partial order is the
    transitive closure.  Cycles and unknown ids raise NotAPoset; a node
    whose lower set does not match the faces of its cone raises
    FaceBijectionFailure.  ``parts`` is ``(node id, cone)`` per maximal
    node, in node order; ``incidences`` and ``gluing``, one spanning forest
    of incidences per shared lower node (:func:`fanpoly.fans.spanning_gluing`),
    are built on first read and kept.
    """

    def __init__(self, ambient_rank, cones, covers):
        cones = dict(cones)
        for nid, cone in cones.items():
            if not isinstance(cone, Cone):
                raise TypeError(f"node {nid!r} is not labeled with a Cone")
            if cone.ambient_rank != ambient_rank:
                raise FanMismatch(
                    f"node {nid!r} has ambient rank {cone.ambient_rank}, expected {ambient_rank}"
                )
        children: dict = {nid: set() for nid in cones}
        parents: dict = {nid: set() for nid in cones}
        for low, high in covers:
            if low not in cones or high not in cones:
                raise NotAPoset(f"cover ({low!r}, {high!r}) names an unknown node")
            if low == high:
                raise NotAPoset(f"node {low!r} covers itself")
            children[high].add(low)
            parents[low].add(high)

        # transitive closure by walking nodes bottom-up; a cycle leaves nodes
        # that can never be finished
        lower: dict = {}
        pending = {nid: len(children[nid]) for nid in cones}
        ready = [nid for nid, n in pending.items() if n == 0]
        while ready:
            nid = ready.pop()
            down = {nid}
            for c in children[nid]:
                down |= lower[c]
            lower[nid] = frozenset(down)
            for p in parents[nid]:
                pending[p] -= 1
                if pending[p] == 0:
                    ready.append(p)
        if len(lower) != len(cones):
            stuck = sorted(set(cones) - set(lower))
            raise NotAPoset(f"covering relation has a cycle through {stuck}")

        # ids in sorted order, so an error names the same nodes whatever the hash seed
        for nid in sorted(cones):
            below = lower[nid]
            face_keys = cones[nid].face_keys()
            seen = {}
            for b in sorted(below):
                k = cones[b].key
                if k not in face_keys:
                    raise FaceBijectionFailure(
                        nid, f"node {b!r} below it is not labeled with a face of its cone"
                    )
                if k in seen:
                    raise FaceBijectionFailure(
                        nid, f"nodes {seen[k]!r} and {b!r} below it carry the same face"
                    )
                seen[k] = b
            if len(below) != len(face_keys):
                raise FaceBijectionFailure(
                    nid,
                    f"{len(below)} nodes below it, but its cone has {len(face_keys)} faces",
                )

        self.ambient_rank = ambient_rank
        self.node_ids = tuple(sorted(cones))
        self.cones = cones
        self.lower = lower
        self.maximal_ids = tuple(sorted(nid for nid in cones if not parents[nid]))
        self.parts = tuple((nid, cones[nid]) for nid in self.maximal_ids)

    def maximal_common_lower(self, a: str, b: str):
        """Nodes below both a and b that are maximal among those."""
        shared = self.lower[a] & self.lower[b]
        out = [
            c
            for c in shared
            if not any(d != c and c in self.lower[d] for d in shared)
        ]
        return tuple(sorted(out))

    @cached_property
    def incidences(self):
        """``(a, b, c, cone of c)`` for each maximal common lower node c of a < b."""
        return tuple(
            (a, b, c, self.cones[c])
            for a, b in combinations(self.maximal_ids, 2)
            for c in self.maximal_common_lower(a, b)
        )

    @cached_property
    def gluing(self):
        return spanning_gluing(
            self.incidences,
            lambda c: [m for m in self.maximal_ids if c in self.lower[m]],
        )

    def __eq__(self, other):
        if not isinstance(other, Multifan):
            return NotImplemented
        return (
            self.ambient_rank == other.ambient_rank
            and self.cones == other.cones
            and self.lower == other.lower
        )

    def __hash__(self):
        return hash(
            (
                self.ambient_rank,
                tuple(sorted((k, c.key) for k, c in self.cones.items())),
                tuple(sorted((k, tuple(sorted(v))) for k, v in self.lower.items())),
            )
        )

    def __repr__(self):
        return (
            f"Multifan(rank={self.ambient_rank}, nodes={len(self.node_ids)}, "
            f"maximal={len(self.maximal_ids)})"
        )


def multifan_validate(ambient_rank: int, cones, covers) -> Multifan:
    """Build a multifan from labeled nodes and covering relations:
    ``Multifan(ambient_rank, cones, covers)``, which says what raises."""
    return Multifan(ambient_rank, cones, covers)


def multifan_from_fan(fan: Fan) -> Multifan:
    """The multifan of a fan: all its cones, ordered by the facet relation."""
    index = fan.face_index
    cones = {face.id_str: face for face, _ in index.values()}
    covers = [
        (index[fan.ambient_rank, facet][0].id_str, face.id_str)
        for face in cones.values()
        for facet in face.facets()
    ]
    return multifan_validate(fan.ambient_rank, cones, covers)


def hypertoric_multifan(ambient_rank: int, vectors) -> Multifan:
    """The multifan of independent subsets of a vector configuration.

    Nodes are the linearly independent subsets of the given vectors,
    ordered by inclusion and labeled with the cones they span.  Node ids
    are the 1-based index sets, written like ``{1,3}``.
    """
    vecs = [tuple(v) for v in vectors]

    def name(indices):
        return "{" + ",".join(str(i + 1) for i in sorted(indices)) + "}"

    # independent subsets, each extending an independent prefix, in size order
    subset_id = {(): name(())}
    cones = {name(()): Cone(ambient_rank, [])}
    for size in range(1, len(vecs) + 1):
        before = len(subset_id)
        for sub in combinations(range(len(vecs)), size):
            if sub[:-1] not in subset_id:
                continue
            # the new vector leaves the prefix's span where its annihilator is nonzero
            v = vecs[sub[-1]]
            if not any(dot(k, v) for k in cones[subset_id[sub[:-1]]].span_perp.entries):
                continue
            subset_id[sub] = name(sub)
            cones[subset_id[sub]] = Cone(ambient_rank, [vecs[i] for i in sub])
        if len(subset_id) == before:
            break
    covers = [
        (subset_id[sub[:drop] + sub[drop + 1 :]], nid)
        for sub, nid in subset_id.items()
        for drop in range(len(sub))
    ]
    return multifan_validate(ambient_rank, cones, covers)


def mpp_basis(mf: Multifan, k: int) -> GradedBasis:
    """:func:`fanpoly.ppring.pp_basis`, under the ``mpp-basis`` verb's name."""
    return pp_basis(mf, k)
