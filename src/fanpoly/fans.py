"""Fans of pointed cones, their gluing, and star subdivisions.

A fan stores its maximal cones in a canonical order (lexicographic on the
generator tuples).  Validation certifies a complete simplicial fan from its
facets and one point (:func:`_certified`), and checks any other collection,
on keys, for pairwise intersections that are common faces, which by
transitivity of the face relation is enough for all its faces to be a fan.
Neither builds a face Cone.  What a fan derives (the face index, one Cone per
face of a maximal cone with the maximal cones it sits in, its incidences and
gluing) is built on first read and kept.

Two cones of a fan meet in the face on the generators they share.  Their
meet is a face of both, and a face's extremal rays are the cone's extremal
rays that lie in it; so every generator of the meet is one of both cones,
and every common generator lies in the meet, where it stays extremal.

Completeness, tiling and walls all rest on one rule, read off the facet
masks by :func:`facet_owners`: a codimension-one face shared by exactly
two cones.  A subdivision map keeps its tiles.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .cones import Cone, intersect
from .errors import (
    ConeNotInFan,
    DuplicateCone,
    NotAFan,
    NotASubdivision,
    PointNotInterior,
    TargetNotInFan,
)
from .intlinalg import dot, primitive


class Fan:
    """A finite fan, presented by its maximal cones.

    ``parts`` pairs each maximal cone's id with the cone, in cone order.
    Construction certifies a complete simplicial fan locally, else meets the
    maximal cones pairwise on keys; it builds no face Cone.  Built on first
    read: ``face_index``, one Cone per face with the maximal cones it sits in;
    ``incidences``, which lists ``(id a, id b, face id, face)`` for every pair
    of maximal cones in cone order, the face read off ``face_index`` at the
    pair's common generators; and ``gluing``, the incidences that form one
    spanning forest per shared face (:func:`spanning_gluing`), on a complete
    simplicial fan one per wall.
    ``pair_faces`` is a view of ``incidences`` keyed by cone positions.
    """

    def __init__(self, ambient_rank: int, maximal_cones):
        cones = list(maximal_cones)
        for c in cones:
            if not isinstance(c, Cone):
                raise TypeError("maximal cones must be Cone instances")
            if c.ambient_rank != ambient_rank:
                raise ValueError("cone ambient rank does not match fan rank")
        cones.sort(key=lambda c: c.key)
        for a, b in zip(cones, cones[1:]):
            if a.key == b.key:
                raise DuplicateCone(f"cone {a.id_str} listed twice")

        if not _certified(cones, ambient_rank):
            for i, j in combinations(range(len(cones)), 2):
                key, ok = intersect(cones[i], cones[j])
                if not ok:
                    raise NotAFan(i, j)
                if key == cones[i].key or key == cones[j].key:
                    raise NotAFan(i, j, "one maximal cone is a face of the other")

        self.ambient_rank = ambient_rank
        self.maximal_cones = tuple(cones)
        self.parts = tuple((c.id_str, c) for c in cones)

    @cached_property
    def face_index(self):
        above: dict = {}
        for i, c in enumerate(self.maximal_cones):
            for key in c.face_keys():
                above.setdefault(key, []).append(i)
        tops = {c.key: c for c in self.maximal_cones}
        return {k: (tops.get(k) or Cone(*k), tuple(idxs)) for k, idxs in sorted(above.items())}

    @cached_property
    def incidences(self):
        n = self.ambient_rank
        out = []
        for a, b in combinations(self.maximal_cones, 2):
            f = self.face_index[n, tuple(g for g in a.generators if g in b.generators)][0]
            out.append((a.id_str, b.id_str, f.id_str, f))
        return tuple(out)

    @property
    def pair_faces(self):
        pairs = combinations(range(len(self.maximal_cones)), 2)
        return {ij: inc[3] for ij, inc in zip(pairs, self.incidences)}

    @cached_property
    def gluing(self):
        ids = [pid for pid, _ in self.parts]
        tops = {f.id_str: [ids[i] for i in idxs] for f, idxs in self.face_index.values()}
        return spanning_gluing(self.incidences, tops.__getitem__)

    def cone_by_id(self, id_str: str) -> Cone:
        for f, _ in self.face_index.values():
            if f.id_str == id_str:
                return f
        raise ConeNotInFan(f"no cone with id {id_str!r} in the fan")

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return (
            self.ambient_rank == other.ambient_rank
            and tuple(c.key for c in self.maximal_cones)
            == tuple(c.key for c in other.maximal_cones)
        )

    def __hash__(self):
        return hash((self.ambient_rank, tuple(c.key for c in self.maximal_cones)))

    def __repr__(self):
        return f"Fan({self.ambient_rank}, {len(self.maximal_cones)} maximal cones)"


def spanning_gluing(incidences, above):
    """The incidences of one spanning forest per shared face.

    ``above(face id)`` lists the ids of the parts above that face, in part
    order.  Two parts above a face tau with no incidence at tau share a
    strictly larger face, and agreeing there they agree on tau.  Merging
    such pairs splits the parts above tau into groups; the incidences
    chaining the first part of each group, in part order, imply all the
    others at tau, by induction from larger faces down.  Returns those
    incidences face by face, faces in id order, each face's in the order of
    ``incidences``.  The kernel eliminates these rows last face first (see
    ``kernel_lattice``); with the rows of one face adjacent, that costs less
    than in pair order.
    """
    at_face = {}
    for a, b, face, _ in incidences:
        at_face.setdefault(face, set()).add((a, b))
    kept = set()
    for face, pairs in at_face.items():
        tops = above(face)
        # group[i] is the position in tops of the first part in tops[i]'s group
        group = []
        for i, p in enumerate(tops):
            joined = {group[j] for j in range(i) if (tops[j], p) not in pairs}
            first = min(joined, default=i)
            group = [first if g in joined else g for g in group] + [first]
        firsts = sorted(set(group))
        kept.update((tops[i], tops[j], face) for i, j in zip(firsts, firsts[1:]))
    return tuple(sorted((inc for inc in incidences if inc[:3] in kept), key=lambda inc: inc[2]))


def facet_owners(cones):
    """Each facet's generator tuple, from ``Cone.facets()``, mapped to the
    positions of the given cones that have it as a facet, in order."""
    owners: dict = {}
    for i, c in enumerate(cones):
        for facet in c.facets():
            owners.setdefault(facet, []).append(i)
    return owners


def is_complete(fan: Fan) -> bool:
    """Does the support of the fan cover the whole ambient space?  A nonempty pure
    fan of full-dimensional cones does when every ridge lies in two (:func:`_covers`)."""
    return _covers(fan.maximal_cones, fan.ambient_rank, ())


def _certified(cones, n) -> bool:
    """Are these distinct cones a complete fan of full-dimensional simplicial cones?

    Yes if each facet lies in two cones (:func:`_covers`) whose other generators
    lie on opposite sides of it, and the sum p of the first cone's generators lies
    in no other (De Loera, Rambau and Santos, *Triangulations*, 2010).  Proof: off
    W, the faces of dimension n - 2 and the meets of distinct facet hyperplanes,
    R^n is connected, and a path crossing a facet leaves one cone and enters one;
    so each point off W and the facets lies in one cone, as near p.  Near a point
    of the relative interior of a face s, the cones with s as a face cover a ball,
    as their facets through it contain s and pair up; so a cone holding the point
    has s as a face, and two cones meet in the cone on their common generators.
    For n = 1 these are the two opposite rays, for n = 0 the zero cone.
    """
    if not all(len(c.generators) == c.dim == n for c in cones) or not _covers(cones, n, ()):
        return False
    for facet, (i, j) in facet_owners(cones).items():
        u = next(u for u in cones[i].facet_normals if not any(dot(u, g) for g in facet))
        if any(dot(u, g) >= 0 for g in cones[j].generators if g not in facet):
            return False
    p = tuple(map(sum, zip(*cones[0].generators)))
    return not any(c.contains(p) for c in cones[1:])


def _covers(parts, dim, boundary_normals) -> bool:
    """Do the given cones, from one fan and all of dimension ``dim``, cover
    their region: R^n with no ``boundary_normals``, else the cone with
    those facet normals, which holds every part?

    Every facet of a part (a ridge) must lie in exactly two parts, from
    :func:`facet_owners`, unless a boundary normal vanishes on it.  Parts of
    a fan cannot overlap, so the union is closed, and the pairing makes it
    open in the region away from codimension two, hence all of it.  A
    single part other than the region has a facet off the boundary.
    """
    if not parts or any(p.dim != dim for p in parts):
        return False
    return all(
        len(owners) == 2
        for facet, owners in facet_owners(parts).items()
        if not any(all(dot(u, g) == 0 for g in facet) for u in boundary_normals)
    )


class SubdivisionMap:
    """A refinement Delta' -> Delta with its cone assignment.

    assignment maps the id of each maximal cone of the source to the
    maximal target cone containing it, in source id order; tiles groups it
    by target id, each target's source ids sorted.  Construction verifies
    that the source really tiles the target: every maximal target cone is
    the union of the source cones assigned to it.

    Only maximal target cones are searched, so no target face Cone is built:
    in a valid refinement a source cone lies in exactly one, of its own
    dimension.  A source cone in no target cone of its dimension would be a
    face of another source cone if the others covered a target cone holding
    it, so each such target fails the tiling check under either rule.
    """

    __slots__ = ("source", "target", "assignment", "tiles")

    def __init__(self, source: Fan, target: Fan):
        if source.ambient_rank != target.ambient_rank:
            raise NotASubdivision("ambient ranks differ")
        assignment = {}
        by_target: dict = {}
        for c in source.maximal_cones:
            t = next((t for t in target.maximal_cones if t.contains_cone(c)), None)
            if t is None:
                raise NotASubdivision(
                    f"source cone {c.id_str} is not contained in any target cone"
                )
            assignment[c.id_str] = t.id_str
            by_target.setdefault(t.id_str, []).append(c)

        for t in target.maximal_cones:
            if not _covers(by_target.get(t.id_str, []), t.dim, t.facet_normals):
                raise NotASubdivision(
                    f"target cone {t.id_str} is not tiled by its assigned cones"
                )

        self.source = source
        self.target = target
        self.assignment = dict(sorted(assignment.items()))
        self.tiles = {
            tid: tuple(sorted(c.id_str for c in cs)) for tid, cs in sorted(by_target.items())
        }

    def __repr__(self):
        return f"SubdivisionMap({len(self.assignment)} cones)"


def star_subdivision(fan: Fan, target: Cone, point=None):
    """Subdivide the star of a cone at a ray through a given interior point.

    Every maximal cone containing the target is replaced by the joins of
    the new ray with the facets not containing the target; the rest of the
    fan is untouched.  Defaults to the primitive sum of the target's
    generators.  Returns (new_fan, SubdivisionMap from new to old).
    """
    entry = fan.face_index.get(target.key)
    if entry is None:
        raise TargetNotInFan(f"cone {target.id_str} is not in the fan")
    target = entry[0]
    if target.dim == 0:
        raise PointNotInterior("the zero cone has no interior ray to star at")
    if point is None:
        total = tuple(sum(xs) for xs in zip(*target.generators))
        point = primitive(total)
    else:
        point = tuple(point)
        if any(isinstance(x, bool) or not isinstance(x, int) for x in point):
            raise TypeError("subdivision point must be an integer vector")
        try:
            point = primitive(point)
        except ValueError:
            raise PointNotInterior("subdivision point is zero") from None
        if not target.contains_relint(point):
            raise PointNotInterior(
                f"{point!r} is not in the relative interior of {target.id_str}"
            )

    # a face of c lies in a facet of c exactly when its generators do; a
    # facet off the target lies in only one cone containing the target, and
    # a new cone holds an interior point of the target, so none repeats
    new_cones = []
    for c in fan.maximal_cones:
        if target.key not in c.face_keys():
            new_cones.append(c)
            continue
        for facet in c.facets():
            if not set(target.generators) <= set(facet):
                new_cones.append(Cone(fan.ambient_rank, facet + (point,)))
    refined = Fan(fan.ambient_rank, new_cones)
    return refined, SubdivisionMap(refined, fan)

