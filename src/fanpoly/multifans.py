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
maximal ones among those.  So a multifan exposes the same ``parts`` and
``incidences`` as a Fan, with node ids in place of cone ids, and its
checker and graded bases are the ones of :mod:`fanpoly.ppring`.
"""

from __future__ import annotations

from itertools import combinations

from .cones import Cone
from .errors import FaceBijectionFailure, FanMismatch, NotAPoset
from .fans import Fan
from .intlinalg import IntMatrix, rank as matrix_rank
from .ppring import GradedBasis, PPElement, check_parts, piecewise_basis


class Multifan:
    """A finite poset of nodes, each labeled with a cone.

    Build through :func:`multifan_validate`, which checks the poset and
    the face-bijection condition at every node.
    """

    __slots__ = ("ambient_rank", "node_ids", "cones", "lower", "maximal_ids")

    def __init__(self, ambient_rank, node_ids, cones, lower, maximal_ids):
        self.ambient_rank = ambient_rank
        self.node_ids = node_ids
        self.cones = cones
        self.lower = lower
        self.maximal_ids = maximal_ids

    def cone_of(self, node_id: str) -> Cone:
        return self.cones[node_id]

    def maximal_common_lower(self, a: str, b: str):
        """Nodes below both a and b that are maximal among those."""
        shared = self.lower[a] & self.lower[b]
        out = [
            c
            for c in shared
            if not any(d != c and c in self.lower[d] for d in shared)
        ]
        return tuple(sorted(out))

    @property
    def parts(self):
        """``(node id, cone)`` for each maximal node, in node order."""
        return tuple((nid, self.cones[nid]) for nid in self.maximal_ids)

    @property
    def incidences(self):
        """``(a, b, c, cone of c)`` for each maximal common lower node c of a < b."""
        return tuple(
            (a, b, c, self.cones[c])
            for a, b in combinations(self.maximal_ids, 2)
            for c in self.maximal_common_lower(a, b)
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
    """Build a multifan from labeled nodes and covering relations.

    ``cones`` maps node ids to Cone instances of the given ambient rank;
    ``covers`` lists pairs ``(lower_id, upper_id)``.  The partial order is
    the transitive closure.  Cycles and unknown ids raise NotAPoset; a
    node whose lower set does not match the faces of its cone raises
    FaceBijectionFailure.
    """
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

    for nid, cone in cones.items():
        below = lower[nid]
        face_keys = cone.face_keys()
        seen = {}
        for b in below:
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

    node_ids = tuple(sorted(cones))
    maximal = tuple(sorted(nid for nid in cones if not parents[nid]))
    return Multifan(ambient_rank, node_ids, cones, lower, maximal)


def multifan_from_fan(fan: Fan) -> Multifan:
    """The multifan of a fan: all its cones, ordered by the facet relation."""
    cones = {}
    covers = []
    for face, _ in fan.face_index.values():
        cones[face.id_str] = face
    for face in cones.values():
        for facet in face.facets():
            covers.append((facet.id_str, face.id_str))
    return multifan_validate(fan.ambient_rank, cones, covers)


def hypertoric_multifan(ambient_rank: int, vectors) -> Multifan:
    """The multifan of independent subsets of a vector configuration.

    Nodes are the linearly independent subsets of the given vectors,
    ordered by inclusion and labeled with the cones they span.  Node ids
    are the 1-based index sets, written like ``{1,3}``.
    """
    vecs = [tuple(v) for v in vectors]
    cones = {}
    covers = []
    subset_id = {}

    def name(indices):
        return "{" + ",".join(str(i + 1) for i in sorted(indices)) + "}"

    independent = [()]
    cones[name(())] = Cone(ambient_rank, [])
    subset_id[()] = name(())
    for size in range(1, len(vecs) + 1):
        found = []
        for sub in combinations(range(len(vecs)), size):
            if sub[:-1] not in subset_id:
                continue
            chosen = [vecs[i] for i in sub]
            if matrix_rank(IntMatrix(chosen, cols=ambient_rank)) != size:
                continue
            nid = name(sub)
            cones[nid] = Cone(ambient_rank, chosen)
            subset_id[sub] = nid
            found.append(sub)
        if not found:
            break
        independent.extend(found)
    for sub in independent:
        for drop in range(len(sub)):
            smaller = sub[:drop] + sub[drop + 1 :]
            covers.append((subset_id[smaller], subset_id[sub]))
    return multifan_validate(ambient_rank, cones, covers)


def mpp_validate(mf: Multifan, parts) -> PPElement:
    """Check a family over the maximal nodes on all shared lower nodes."""
    check_parts(mf, parts)
    return PPElement(mf, parts)


def mpp_basis(mf: Multifan, k: int) -> GradedBasis:
    """Canonical lattice basis of the degree-k piecewise polynomials."""
    return piecewise_basis(mf, k)
