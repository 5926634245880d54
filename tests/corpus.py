"""The small corpus of fans the tests share, and helpers only tests use.

None of this is part of the library: the fan builders, their GL_n(Z)
images, the free lattice ``ambient_lattice``, ``character_class``, an
integer determinant, random unimodular matrices, the saturation of a row
lattice and lattice equality are written here, on top of fanpoly.
"""

from __future__ import annotations

import random
from itertools import combinations

from fanpoly.cones import Cone, QuotientCharacterLattice
from fanpoly.fans import Fan, star_subdivision
from fanpoly.intlinalg import IntMatrix, hnf_basis, kernel_lattice
from fanpoly.multifans import Multifan, hypertoric_multifan, multifan_validate
from fanpoly.polynomials import LocalPolynomial


def p1() -> Fan:
    """The complete fan on the line: two rays."""
    return Fan(1, [Cone(1, [(1,)]), Cone(1, [(-1,)])])


def p2() -> Fan:
    """The complete smooth fan with rays (1,0), (0,1), (-1,-1)."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [Cone(2, [rays[i], rays[(i + 1) % 3]]) for i in range(3)]
    return Fan(2, cones)


def p1xp1() -> Fan:
    """The complete smooth fan on the four coordinate rays."""
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    cones = [Cone(2, [rays[i], rays[(i + 1) % 4]]) for i in range(4)]
    return Fan(2, cones)


def diamond() -> Fan:
    """The complete fan on the rays (1,1), (-1,1), (-1,-1), (1,-1).

    Simplicial but not smooth: each maximal cone has index two in its span.
    """
    rays = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    cones = [Cone(2, [rays[i], rays[(i + 1) % 4]]) for i in range(4)]
    return Fan(2, cones)


def projective_space(n: int) -> Fan:
    """The complete smooth fan of P^n: rays e_1, ..., e_n and -(e_1 + ... + e_n)."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return Fan(n, [Cone(n, gens) for gens in combinations(rays, n)])


def subdivided_p3(rng, steps: int) -> Fan:
    """P^3 starred ``steps`` times at 2- and 3-dimensional cones (stays smooth)."""
    fan = projective_space(3)
    for _ in range(steps):
        targets = [f for f, _ in fan.face_index.values() if f.dim >= 2]
        fan, _ = star_subdivision(fan, rng.choice(targets))
    return fan


def p3_starred3() -> Fan:
    """P^3 starred three times, at cones drawn with a fixed seed."""
    return subdivided_p3(random.Random(3), 3)


def blp2() -> Fan:
    """p2 with the cone on (1,0), (0,1) star-subdivided at (1,1)."""
    refined, _ = star_subdivision(p2(), Cone(2, [(1, 0), (0, 1)]))
    return refined


def p2_blowup() -> tuple:
    """The refinement p2 -> blp2 together with its subdivision map."""
    base = p2()
    refined, sub = star_subdivision(base, Cone(2, [(1, 0), (0, 1)]))
    return base, refined, sub


def cube() -> Fan:
    """The complete nonsimplicial fan over the faces of the cube.

    Six cones, one over each facet of [-1,1]^3; each has four generators.
    """
    cones = []
    for axis in range(3):
        for sign in (1, -1):
            gens = []
            for a in (1, -1):
                for b in (1, -1):
                    v = [a, b]
                    v.insert(axis, sign)
                    gens.append(tuple(v))
            cones.append(Cone(3, gens))
    return Fan(3, cones)


def completeness_cases():
    """Fans to pin completeness and walls on, complete or not.

    The corpus fans and a GL_n(Z) image of each, a star subdivision at every
    nonzero face of each corpus fan, then incomplete and degenerate fans:
    one quadrant, a cone and a ray, two of P^2's three cones, the zero cone
    in ranks 0 and 2, a ray in rank 1 and the empty fan.
    """
    corpus = [p1(), p2(), p1xp1(), diamond(), blp2(), cube(), p3_starred3(), projective_space(4)]
    rng = random.Random(1729)
    fans = corpus + [gl_image(fan, rng) for fan in corpus]
    for fan in corpus:
        fans += [star_subdivision(fan, f)[0] for f, _ in fan.face_index.values() if f.dim]
    quadrant = Cone(2, [(1, 0), (0, 1)])
    return fans + [
        Fan(2, [quadrant]),
        Fan(2, [quadrant, Cone(2, [(-1, -1)])]),
        Fan(2, p2().maximal_cones[:2]),
        Fan(0, [Cone(0, [])]),
        Fan(2, [Cone(2, [])]),
        Fan(1, [Cone(1, [(1,)])]),
        Fan(2, []),
    ]


def hypertoric_3lines_vectors():
    """Three pairwise independent vectors in Z^2 with a dependent triple."""
    return [(1, 0), (0, 1), (1, 1)]


def hypertoric_3lines() -> Multifan:
    return hypertoric_multifan(2, hypertoric_3lines_vectors())


_E3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
# vector configurations in Z^3 by size; the 9-vector one has a basis of determinant 2
HYPERTORIC_VECTORS = {
    5: _E3 + [(1, 1, 0), (1, 1, 1)],
    7: _E3 + [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
    9: _E3 + [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (1, -1, 0), (0, 1, -1)],
}


def doubled_cone() -> Multifan:
    """Two copies of the first quadrant glued along both boundary rays.

    Not a fan: the two maximal nodes carry the same cone.  Piecewise
    polynomials on it are pairs agreeing on both axes, so its graded
    ranks exceed those of the quadrant alone from degree two on.
    """
    quadrant = Cone(2, [(1, 0), (0, 1)])
    cones = {
        "o": Cone(2, []),
        "x": Cone(2, [(1, 0)]),
        "y": Cone(2, [(0, 1)]),
        "top": quadrant,
        "bot": quadrant,
    }
    covers = [
        ("o", "x"),
        ("o", "y"),
        ("x", "top"),
        ("y", "top"),
        ("x", "bot"),
        ("y", "bot"),
    ]
    return multifan_validate(2, cones, covers)


def gl_image(fan, rng):
    """Image under a signed permutation times a unipotent shear."""
    n = fan.ambient_rank
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    shear = [rng.randint(-1, 1) for _ in range(n - 1)]

    def move(v):
        w = [signs[i] * v[perm[i]] for i in range(n)]
        for i in range(n - 1):
            w[i] += shear[i] * w[i + 1]
        return tuple(w)

    return Fan(n, [Cone(n, [move(g) for g in c.generators]) for c in fan.maximal_cones])


def random_refinement(base: Fan, rng, steps: int, weighted: bool):
    """``base`` starred ``steps`` times, each time at a random face of dimension two or more.

    Unweighted, each star is at the primitive sum of the face's generators,
    which keeps a smooth fan smooth.  Weighted, it is at a sum with weights
    drawn from 1 to 3: a point interior to the face, which in general makes
    the fan non-smooth.  Returns the refined fan and the map of the last star.
    """
    fan, n = base, base.ambient_rank
    for _ in range(steps):
        target = rng.choice([f for f, _ in fan.face_index.values() if f.dim >= 2])
        point = None
        if weighted:
            weights = [rng.randint(1, 3) for _ in target.generators]
            point = [sum(w * g[i] for w, g in zip(weights, target.generators)) for i in range(n)]
        fan, sub = star_subdivision(fan, target, point)
    return fan, sub


def shuffled_image(fan: Fan, rng) -> Fan:
    """A ``gl_image`` of the fan, its cones and their generators listed in random order."""
    image = gl_image(fan, rng).maximal_cones
    cones = [Cone(c.ambient_rank, rng.sample(c.generators, len(c.generators))) for c in image]
    rng.shuffle(cones)
    return Fan(fan.ambient_rank, cones)


def ambient_lattice(n: int) -> QuotientCharacterLattice:
    """M itself, viewed as the quotient lattice of a full-dimensional cone."""
    ident = IntMatrix.identity(n)
    return QuotientCharacterLattice(n, ident, ident)


def character_class(lattice: QuotientCharacterLattice, u) -> LocalPolynomial:
    """The image of a global character u in Sym^1 of the quotient lattice."""
    return LocalPolynomial.linear_form(lattice, lattice.reduce(u))


def det(a: IntMatrix) -> int:
    """Determinant by the Bareiss fraction-free algorithm."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(r) for r in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is a Bareiss invariant
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def random_unimodular(rng, n, steps=12):
    """Product of random elementary row operations applied to the identity."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            q = rng.randint(-3, 3)
            u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        elif op == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return IntMatrix(u, cols=n)


def saturate(basis: IntMatrix) -> IntMatrix:
    """Canonical basis of the saturation ``span_Q(L) ∩ Z^n`` of a row lattice.

    Double kernel: the saturation is exactly the set of integer vectors
    annihilated by everything that annihilates the generators.
    """
    return kernel_lattice(kernel_lattice(basis))


def lattices_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Do two row-generating sets span the same integer lattice?"""
    if a.cols != b.cols:
        raise ValueError("ambient rank mismatch")
    return hnf_basis(a) == hnf_basis(b)
