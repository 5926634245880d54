"""Seeded inputs for the fanpoly benchmark, in plain Python.

Nothing here imports fanpoly: the program under test receives only the
generated vectors and documents.  A ``random.Random(seed)`` picks the
GL_n(Z) images, the order of cones, generators and nodes, and the
star-subdivision targets; everything else is fixed, so the same seed
always gives the same inputs.

GL_n(Z) images come from a bounded family, the signed permutation
matrices: they keep every entry size, and with it the amount of work,
comparable across seeds (shears would grow the entries, and the cost of
the Euclidean steps in the normal forms with them).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def gl_matrix(rng, n):
    """A seeded signed permutation matrix, an element of GL_n(Z)."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[s * int(j == p) for j in range(n)] for s, p in zip(signs, perm)]


def apply(g, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in g)


def transform_cones(rng, n, cones):
    """Image of a list of cones (generator lists) under a seeded GL_n(Z)
    element, with the cone order and each cone's generator order shuffled."""
    g = gl_matrix(rng, n)
    out = []
    for gens in cones:
        img = [apply(g, v) for v in gens]
        rng.shuffle(img)
        out.append(img)
    rng.shuffle(out)
    return out


# ------------------------------------------------------------- fans


def projective_space(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return [list(c) for c in combinations(rays, n)]


# primitive directions in the upper half plane, sorted by angle
_HALF_DIRECTIONS = {
    4: [(1, 0), (1, 1), (0, 1), (-1, 1)],
    8: [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1)],
    12: [
        (1, 0), (3, 1), (2, 1), (1, 1), (1, 2), (1, 3),
        (0, 1), (-1, 3), (-1, 2), (-1, 1), (-2, 1), (-3, 1),
    ],
}


def polygon_rays(m):
    """m rays in cyclic order (m = 8, 16 or 24); consecutive pairs are
    unimodular, so the polygon fan is smooth."""
    half = _HALF_DIRECTIONS[m // 2]
    return half + [(-x, -y) for x, y in half]


def polygon_fan(m):
    rays = polygon_rays(m)
    return [[rays[i], rays[(i + 1) % m]] for i in range(m)]


def diamond():
    rays = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    return [[rays[i], rays[(i + 1) % 4]] for i in range(4)]


def cube():
    cones = []
    for axis in range(3):
        for sign in (1, -1):
            gens = []
            for a in (1, -1):
                for b in (1, -1):
                    v = [a, b]
                    v.insert(axis, sign)
                    gens.append(tuple(v))
            cones.append(gens)
    return cones


def subdivided_p3(rng, steps):
    """P^3 after ``steps`` seeded star subdivisions.

    Each step picks a 2- or 3-dimensional cone of the current fan and stars
    it at the primitive sum of its rays.  Every step adds two maximal cones,
    and the result stays smooth.
    """
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    triangles = {frozenset(c) for c in combinations(range(4), 3)}
    for _ in range(steps):
        edges = {frozenset(e) for t in triangles for e in combinations(sorted(t), 2)}
        targets = sorted(sorted(c) for c in triangles | edges)
        target = frozenset(rng.choice(targets))
        new = len(rays)
        rays.append(primitive(tuple(sum(xs) for xs in zip(*(rays[i] for i in target)))))
        for t in [t for t in triangles if target <= t]:
            triangles.remove(t)
            for drop in target:
                triangles.add((t - {drop}) | {new})
    return [[rays[i] for i in sorted(t)] for t in sorted(sorted(t) for t in triangles)]


def polygon_vertices(m):
    """Vertices of a convex lattice m-gon (m <= 24), from distinct edge
    directions sorted by angle; for odd m two consecutive edges of the
    (m+1)-gon are merged into one."""
    half = _HALF_DIRECTIONS[12][: (m + 1) // 2]
    edges = half + [(-x, -y) for x, y in half]
    if m % 2:
        edges = [tuple(a + b for a, b in zip(edges[0], edges[1]))] + edges[2:]
    verts = []
    x = y = 0
    for dx, dy in edges:
        verts.append((x, y))
        x, y = x + dx, y + dy
    return verts


def polygon_cone(m):
    """The single cone over a lattice m-gon at height one, in Z^3."""
    return [[(x, y, 1) for x, y in polygon_vertices(m)]]


# ---------------------------------------------------------- multifans

_E3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
HYPERTORIC = {
    5: _E3 + [(1, 1, 0), (1, 1, 1)],
    7: _E3 + [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
    9: _E3 + [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, -1, 0), (0, 1, -1)],
}


def _independent(vecs):
    if len(vecs) == 1:
        return any(vecs[0])
    if len(vecs) == 2:
        (a0, a1, a2), (b0, b1, b2) = vecs
        return any((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))
    a, b, c = vecs
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    ) != 0


def transform_vectors(rng, vectors):
    """Image of vectors in Z^3 under a seeded GL_3(Z) element."""
    g = gl_matrix(rng, 3)
    return [apply(g, v) for v in vectors]


def hypertoric_document(rng, vecs):
    """Multifan document of the independent subsets of vectors in Z^3.

    Node ids follow fanpoly's 1-based ``{i,j}`` naming; the seed picks the
    order of nodes and covers.
    """

    def name(sub):
        return "{" + ",".join(str(i + 1) for i in sub) + "}"

    nodes = {name(()): []}
    covers = []
    for size in (1, 2, 3):
        for sub in combinations(range(len(vecs)), size):
            chosen = [vecs[i] for i in sub]
            if not _independent(chosen):
                continue
            nodes[name(sub)] = [list(v) for v in chosen]
            for drop in range(size):
                covers.append([name(sub[:drop] + sub[drop + 1 :]), name(sub)])
    order = list(nodes)
    rng.shuffle(order)
    rng.shuffle(covers)
    return {
        "kind": "multifan",
        "ambient_rank": 3,
        "nodes": {nid: nodes[nid] for nid in order},
        "covers": covers,
    }


def fan_document(n, cones):
    return {
        "kind": "fan",
        "ambient_rank": n,
        "maximal_cones": [[list(v) for v in gens] for gens in cones],
    }
