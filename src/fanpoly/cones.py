"""Pointed rational polyhedral cones and their character lattices.

A cone is built from integer generators in Z^n and canonicalized: generators
are made primitive, deduplicated, reduced to the extremal rays and sorted, so
two descriptions of one cone give identical objects and string ids.  One exact
double description (Fukuda and Prodon 1996) in Z^n on the generators finds the
dual cone's rays, which generators lie on each (bit masks), and the lineality
left, their annihilator: canonical as it stands for the zero cone (I_n) and,
once signed, for one vector; two or more take one kernel.  The facet normals
(the rays, lifted from the saturated span unless the cone is full dimensional)
are built on first read.  As many generators as the dimension are independent:
the cone is simplicial and its face keys are every subset of them.  Otherwise
pointedness, the extremal generators and the faces are read off the masks:
every proper face of a pointed cone is the meet of the facets containing it,
so the face masks are the full mask closed under meets with each facet mask.
Only face keys are kept, made at construction.  The meet of two cones is a key,
from one double description in Z^n on their equations and facet normals.

The quotient character lattice M_sigma = M / (sigma^perp cap M) is built on
first read from sigma^perp alone, so equal spans give identical coordinates:
a projection with kernel sigma^perp cap M off a Smith transform and a section
off a Hermite one, as the lift is.  Polynomials on a cone are written in these
coordinates, and each cone keeps its restriction matrix to each face.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import NotAFace, NotPointed, ZeroVector
from .intlinalg import IntMatrix, dot, hnf, kernel_lattice, primitive, snf


@dataclass(frozen=True)
class QuotientCharacterLattice:
    """The character lattice of a cone's orbit: M_sigma = M / (sigma^perp cap M).

    projection (rank x n) is a surjection M -> Z^rank with kernel exactly
    sigma^perp cap M (the cone's span_perp) and section (n x rank) is an
    integral right inverse of it.
    """

    rank: int
    projection: IntMatrix
    section: IntMatrix

    def reduce(self, u):
        """Image of an ambient character u in quotient coordinates."""
        return self.projection.mul_vec(u)


def _left_inverse(basis: IntMatrix) -> tuple:
    """Rows L with L * basis^T = I for the basis of a saturated lattice: its
    columns generate Z^d, so hnf(basis^T) is I_d over zero rows and L is the
    transform's top d rows."""
    return hnf(basis.transpose())[1].entries[: basis.rows]


def _extreme_rays(ineqs, e: int):
    """(rays, lineality) of the cone {x in Q^e : q.x >= 0}: sorted (ray, mask)
    pairs, each ray primitive and extreme modulo the lineality, bit k of its mask
    set exactly when ineqs[k] is 0 on it, and a basis of ineqs' annihilator.

    Double description from Q^e, one inequality q at a time (an equality q = 0
    is entered as the pair q, -q).  If q is nonzero on a lineality vector l, l
    (signed) becomes a ray tight on every earlier q, and the rest shift along l
    onto q = 0, keeping their masks.  Otherwise rays with q < 0 are dropped and
    each adjacent pair across q = 0 (no third ray is tight everywhere both are,
    a test on masks, so it holds modulo the lineality) is combined into a ray on it.
    """
    lin = [tuple(int(i == j) for j in range(e)) for i in range(e)]
    rays = []
    for k, q in enumerate(ineqs):
        bit = 1 << k
        i = next((i for i, l in enumerate(lin) if dot(q, l) != 0), None)
        if i is not None:
            pivot = lin.pop(i)
            a = dot(q, pivot)
            if a < 0:
                a, pivot = -a, tuple(-x for x in pivot)

            def shift(v):  # v is primitive and a > 0, so v itself when q.v == 0
                b = dot(q, v)
                return primitive(tuple(a * x - b * y for x, y in zip(v, pivot))) if b else v

            lin = [shift(l) for l in lin]
            rays = [(shift(r), z | bit) for r, z in rays] + [(pivot, bit - 1)]
            continue
        vals = [dot(q, r) for r, _ in rays]
        kept = [(r, z | bit if v == 0 else z) for (r, z), v in zip(rays, vals) if v >= 0]
        for i, (rp, zp) in enumerate(rays):
            for j, (rn, zn) in enumerate(rays):
                if vals[i] <= 0 or vals[j] >= 0:
                    continue
                z = zp & zn
                if any(w & z == z for h, (_, w) in enumerate(rays) if h != i and h != j):
                    continue
                ray = tuple(vals[i] * x - vals[j] * y for x, y in zip(rn, rp))
                kept.append((primitive(ray), z | bit))
        rays = kept
    return sorted(rays), lin


class Cone:
    """A pointed rational polyhedral cone, canonically presented.

    Set once: ``key`` = ``(ambient_rank, generators)``, its sorted primitive
    extremal generators, ``id_str`` = ``"x,y;..."`` (``"0"`` if zero), the
    face keys and ``span_perp``, read off the lineality unless it has rank two
    or more; ``quotient`` and ``facet_normals`` on first read.
    """

    def __init__(self, ambient_rank: int, generators):
        if ambient_rank < 0:
            raise ValueError("negative ambient rank")
        gens = []
        for g in generators:
            v = tuple(g)
            if len(v) != ambient_rank:
                raise ValueError(f"generator {v!r} does not have length {ambient_rank}")
            for x in v:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise TypeError("generators must be integer vectors")
            if not any(v):
                raise ZeroVector("zero generator in cone input")
            gens.append(primitive(v))
        gens = sorted(set(gens))

        # the generators' dual cone; bit i of a mask is set if gens[i] is on the facet
        normals, lin = _extreme_rays(gens, ambient_rank)
        masks = [m for _, m in normals]
        self.ambient_rank, self.dim = ambient_rank, ambient_rank - len(lin)
        if len(gens) == len(masks) == self.dim:
            # independent generators: all extremal, and every subset spans a face
            self.generators, self._facet_masks = tuple(gens), tuple(masks)
            faces = (f for d in range(self.dim + 1) for f in combinations(gens, d))
        else:
            tight = [sum((m >> i & 1) << j for j, m in enumerate(masks)) for i in range(len(gens))]
            # the facets cut out the lineality space: a generator on all of them lies in it
            if (1 << len(masks)) - 1 in tight:
                raise NotPointed(f"cone on {gens!r} contains a line")
            # an input generator is extremal unless one besides itself is tight on all its facets
            keep = [i for i, z in enumerate(tight) if sum(w & z == z for w in tight) == 1]
            self.generators = tuple(gens[i] for i in keep)
            self._facet_masks = tuple(
                sum((m >> i & 1) << j for j, i in enumerate(keep)) for m in masks
            )
            # the faces are the cone and the meets of its facets
            face_masks = {(1 << len(keep)) - 1}
            for f in self._facet_masks:
                face_masks |= {m & f for m in face_masks}
            faces = map(self._masked, face_masks)
        self.key = (ambient_rank, self.generators)
        self.id_str = ";".join(",".join(map(str, g)) for g in self.generators) or "0"
        self._face_keys = frozenset((ambient_rank, f) for f in faces)

        if gens and len(lin) > 1:  # the annihilator of the generators and of their span
            self.span_perp = kernel_lattice(IntMatrix._of(tuple(gens), ambient_rank))
        else:  # I_n with no generators, else one primitive vector or none: Hermite once signed
            signed = (tuple(-x for x in l) if next(filter(None, l)) < 0 else l for l in lin)
            self.span_perp = IntMatrix._of(tuple(signed), ambient_rank)
        self._dual_rays = tuple(r for r, _ in normals)
        self._restrictions = {}

    @cached_property
    def facet_normals(self) -> tuple:
        """The dual rays if the cone is full dimensional; otherwise the dual rays
        restricted to the saturated span, made primitive, lifted, sorted."""
        if not self.span_perp.rows:
            return self._dual_rays
        span = kernel_lattice(self.span_perp)
        lift_cols = tuple(zip(*_left_inverse(span)))
        local = (primitive(span.mul_vec(r)) for r in self._dual_rays)
        lifted = (tuple(dot(w, c) for c in lift_cols) for w in local)
        return tuple(sorted(lifted))

    def contains(self, point) -> bool:
        v = tuple(point)
        if len(v) != self.ambient_rank:
            raise ValueError("point has wrong length")
        if any(dot(k, v) != 0 for k in self.span_perp.entries):
            return False
        return all(dot(u, v) >= 0 for u in self.facet_normals)

    def contains_relint(self, point) -> bool:
        v = tuple(point)
        return self.contains(v) and all(dot(u, v) for u in self.facet_normals)

    def contains_cone(self, other: "Cone") -> bool:
        if other.ambient_rank != self.ambient_rank:
            raise ValueError("ambient rank mismatch")
        return all(self.contains(g) for g in other.generators)

    def _masked(self, mask):
        """The generators whose bits are set in mask, in order."""
        return tuple(g for i, g in enumerate(self.generators) if mask >> i & 1)

    def faces(self):
        """All faces, the cone and the meets of its facets down to the zero cone,
        sorted by (dimension, generators).  Built anew on each call from face_keys."""
        cones = (self if k == self.key else Cone(*k) for k in self.face_keys())
        return tuple(sorted(cones, key=lambda c: (c.dim, c.generators)))

    def face_keys(self):
        """Keys of all faces, made when the cone was built."""
        return self._face_keys

    def facets(self):
        """Generator tuples of the facets, sorted, read off the facet masks."""
        return tuple(sorted(map(self._masked, self._facet_masks)))

    def is_face_of(self, other: "Cone") -> bool:
        return self.key in other.face_keys()

    @cached_property
    def quotient(self) -> QuotientCharacterLattice:
        """Q, the last d columns of snf(span_perp).V transposed, has kernel exactly
        span_perp; S is the transpose of Q's left inverse.  Sections differ by
        span_perp, which every face's Q and every point of the span annihilate."""
        perp, n = self.span_perp, self.ambient_rank
        q = IntMatrix._of(snf(perp).V.transpose().entries[perp.rows :], n)
        s = IntMatrix._of(_left_inverse(q), n).transpose()
        return QuotientCharacterLattice(q.rows, q, s)

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Cone({self.ambient_rank}, {list(self.generators)!r})"


def restriction_matrix(sigma: Cone, tau: Cone) -> IntMatrix:
    """Matrix of Sym^1 M_sigma -> Sym^1 M_tau for a face tau of sigma, kept on sigma."""
    if tau.key not in sigma._restrictions:
        if not tau.is_face_of(sigma):
            raise NotAFace(f"{tau!r} is not a face of {sigma!r}")
        # tau^perp contains sigma^perp, so any section of M_sigma gives this map
        sigma._restrictions[tau.key] = tau.quotient.projection * sigma.quotient.section
    return sigma._restrictions[tau.key]


def intersect(c1: Cone, c2: Cone):
    """Key of the intersection of two cones, plus whether it is a common face.

    One double description in Z^n on both spans' equations, each entered as q
    then -q, and then on both cones' facet normals.  Equalities go first: q
    takes a lineality direction as a ray and -q drops it, so every later ray
    lies on the joint span, where the intersection is pointed because both cones
    are.  The lineality starts at the unit vectors and each new ray is made
    primitive, so the sorted rays are the extremal generators, primitive in Z^n:
    the key ``(n, generators)``, with no Cone built.
    """
    if c1.ambient_rank != c2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    n = c1.ambient_rank
    eqs = c1.span_perp.entries + c2.span_perp.entries
    ineqs = [v for q in eqs for v in (q, tuple(-x for x in q))]
    ineqs += sorted(set(c1.facet_normals + c2.facet_normals))
    key = (n, tuple(r for r, _ in _extreme_rays(ineqs, n)[0]))
    return key, key in c1.face_keys() and key in c2.face_keys()
