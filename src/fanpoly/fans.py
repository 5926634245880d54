"""Fans of pointed cones and star subdivisions.

A fan stores its maximal cones in a canonical order (lexicographic on the
generator tuples) together with a face index mapping every face of every
maximal cone to the list of maximal cones it sits in.  Validation checks
that all pairwise intersections are common faces, which by transitivity of
the face relation is enough for the whole collection of faces to be a fan.
"""

from __future__ import annotations

from collections import Counter

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

    ``parts`` pairs each maximal cone's id with the cone, in cone order;
    ``incidences`` lists ``(id a, id b, face id, face)`` for every pair of
    maximal cones, in the order of ``pair_faces``.
    """

    __slots__ = (
        "ambient_rank",
        "maximal_cones",
        "face_index",
        "pair_faces",
        "parts",
        "incidences",
    )

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

        ids = [c.id_str for c in cones]
        # one Cone per face: pairs meeting in the same face share it
        faces = {c.key: c for c in cones}
        pair_faces = {}
        incidences = []
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                f, ok = intersect(cones[i], cones[j])
                if not ok:
                    raise NotAFan(i, j)
                if f == cones[i] or f == cones[j]:
                    raise NotAFan(i, j, "one maximal cone is a face of the other")
                f = faces.setdefault(f.key, f)
                pair_faces[(i, j)] = f
                incidences.append((ids[i], ids[j], f.id_str, f))

        face_index: dict = {}
        for i, c in enumerate(cones):
            for key in c.face_keys():
                if key not in face_index:
                    face_index[key] = (faces.get(key) or Cone(*key), [])
                face_index[key][1].append(i)

        self.ambient_rank = ambient_rank
        self.maximal_cones = tuple(cones)
        self.pair_faces = pair_faces
        self.parts = tuple(zip(ids, cones))
        self.incidences = tuple(incidences)
        self.face_index = {
            k: (f, tuple(idxs)) for k, (f, idxs) in sorted(face_index.items())
        }

    def cone_by_id(self, id_str: str) -> Cone:
        for c in self.maximal_cones:
            if c.id_str == id_str:
                return c
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


def is_complete(fan: Fan) -> bool:
    """Does the support of the fan cover the whole ambient space?

    A nonempty pure fan of full-dimensional cones covers R^n exactly when
    every ridge (codimension-one face) lies in precisely two maximal cones:
    the support is closed, and the pairing condition makes it open minus a
    set of codimension two, hence everything.
    """
    n = fan.ambient_rank
    if not fan.maximal_cones:
        return False
    if any(c.dim != n for c in fan.maximal_cones):
        return False
    for f, idxs in fan.face_index.values():
        if f.dim == n - 1 and len(idxs) != 2:
            return False
    return True


class SubdivisionMap:
    """A refinement Delta' -> Delta with its cone assignment.

    assignment maps the id of each maximal cone of the source to the unique
    minimal cone of the target containing it.  Construction verifies that
    the source really tiles the target: every maximal target cone is the
    union of the source cones assigned to it.
    """

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source: Fan, target: Fan):
        if source.ambient_rank != target.ambient_rank:
            raise NotASubdivision("ambient ranks differ")
        assignment = {}
        target_cones = [f for f, _ in target.face_index.values()]
        for c in source.maximal_cones:
            containers = [t for t in target_cones if t.contains_cone(c)]
            if not containers:
                raise NotASubdivision(
                    f"source cone {c.id_str} is not contained in any target cone"
                )
            least = min(containers, key=lambda t: t.dim)
            if sum(1 for t in containers if t.dim == least.dim) > 1:
                raise NotASubdivision(
                    f"no unique minimal target cone for {c.id_str}"
                )
            assignment[c.id_str] = least.id_str

        by_target: dict = {}
        for src_id, tgt_id in assignment.items():
            by_target.setdefault(tgt_id, []).append(src_id)
        for t in target.maximal_cones:
            parts = [source.cone_by_id(s) for s in by_target.get(t.id_str, [])]
            if not _tiles(t, parts):
                raise NotASubdivision(
                    f"target cone {t.id_str} is not tiled by its assigned cones"
                )

        self.source = source
        self.target = target
        self.assignment = dict(sorted(assignment.items()))

    def __repr__(self):
        return f"SubdivisionMap({len(self.assignment)} cones)"


def _tiles(sigma: Cone, parts) -> bool:
    """Do the given cones (from one fan, all inside sigma) cover sigma?

    All parts must have sigma's dimension.  Because the parts come from a
    fan they cannot overlap, so covering is equivalent to a pairing
    condition: every facet of a part either lies on the boundary of sigma
    or is shared with exactly one other part.
    """
    if not parts:
        return False
    if any(p.dim != sigma.dim for p in parts):
        return False
    if len(parts) == 1:
        return parts[0] == sigma
    counts: Counter = Counter()
    for p in parts:
        for facet in p.facets():
            on_boundary = any(
                all(dot(u, g) == 0 for g in facet.generators)
                for u in sigma.facet_normals
            )
            if not on_boundary:
                counts[facet.key] += 1
    return all(v == 2 for v in counts.values())


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
        try:
            point = primitive(point)
        except ValueError:
            raise PointNotInterior("subdivision point is zero") from None
        if not target.contains_relint(point):
            raise PointNotInterior(
                f"{point!r} is not in the relative interior of {target.id_str}"
            )

    new_cones = []
    for c in fan.maximal_cones:
        if target.key not in c.face_keys():
            new_cones.append(c)
            continue
        for facet in c.facets():
            if target.key in facet.face_keys():
                continue
            new_cones.append(Cone(fan.ambient_rank, facet.generators + (point,)))
    seen = {}
    for c in new_cones:
        seen.setdefault(c.key, c)
    refined = Fan(fan.ambient_rank, seen.values())
    return refined, SubdivisionMap(refined, fan)

