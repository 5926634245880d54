"""Double description and incidence closure against the brute-force oracle.

Every cone is built twice, by ``fanpoly.cones`` and by the frozen subset
enumeration in ``reference_cones``, and the two must agree on generators,
facet normals, dimension, span basis (the kernel of the cone's annihilator)
and the annihilator, NotPointed, face keys, face order and pairwise
intersections (cone and common-face flag).
Inputs: cones over m-gons, the cube's cones and the cone over the cube,
seeded random generator sets in Z^3 and Z^4 (pointed or not, full or lower
dimensional), their images under random signed permutations, and shuffled
input orders.  In Z^5 and Z^6, where most cones are lower dimensional and
their coordinates are read off the span's Hermite basis: faces of P^5 and
P^6 and cones over polygons, under seeded shears, and lower dimensional
ones given with redundant vectors (sums of rays, scaled and repeated rays)
that the constructor must drop; and cones containing a line, with spans of
dimension 2 to n - 1, which both must reject with NotPointed.  In Z^7 and
Z^8, faces of every dimension of sheared P^7 and P^8 and the octagon's cone
must agree on generators, facet normals, dimension and annihilator (the
exponential face comparison left out).  Simplicial cones in Z^1 to Z^5, of
every dimension and under seeded shears, must agree in full, with their
2^d face keys made without reading a mask.  The zero cone of Z^0 to Z^6,
given no generators, must also agree, and contain only the origin.
``contains_relint`` must agree with the reference cone's facet normals
and annihilator on interior, boundary, off-span and zero points of seeded
random cones in Z^1 to Z^4, and name a point of the wrong length.  Faces are read off the facet masks on every call, so reading
them twice must give the same answer.  Facets are read off the masks
directly, and must equal the face lattice at dimension dim - 1 on every
face of the cube, of P^3 starred three times, of P^5 and of P^6, and on
the polygon cones in Z^5 and Z^6.  Meets of every same-rank pair of the
Z^5 and Z^6 cones and of seeded lower dimensional cones in Z^4 and Z^5
must equal the joint-span rule (double description on the kernel of both
spans' equations, lifted back to Z^n), and must run with the kernel,
Hermite and matrix routines refused.
"""

import random
from itertools import combinations, product

import pytest
from corpus import blp2, cube, hypertoric_3lines, p3_starred3, projective_space
from reference_cones import ReferenceCone, reference_intersect
from reference_intlinalg import reference_hnf_basis

import fanpoly.cones
from fanpoly.cones import Cone, _extreme_rays, intersect
from fanpoly.errors import NotPointed
from fanpoly.intlinalg import IntMatrix, dot, kernel_lattice

OCTAGON = [(2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)]


def polygon_cones():
    """Cones over the m-gons formed by m consecutive octagon vertices."""
    return [
        (3, [(x, y, 1) for x, y in OCTAGON[:m]]) for m in range(3, len(OCTAGON) + 1)
    ]


def cube_cones():
    out = [(3, list(c.generators)) for c in cube().maximal_cones]
    out.append((4, [v + (1,) for v in product((1, -1), repeat=3)]))
    return out


def random_generators(rng, n):
    """Up to six small vectors, sometimes confined to a random plane."""
    k = rng.randint(1, 6)
    if rng.random() < 0.3:
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
        raw = [
            tuple(a * x + b * y for x, y in zip(*basis))
            for a, b in ((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(k))
        ]
    else:
        raw = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
    return [v for v in raw if any(v)]


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return lambda v: tuple(signs[i] * v[perm[i]] for i in range(n))


def shear(rng, n):
    """A seeded GL_n(Z) image: 2n elementary row operations, then a signed permutation."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    g = signed_permutation(rng, n)
    return lambda v: g(tuple(dot(r, v) for r in rows))


def with_redundant(gens):
    """gens, then positive sums of two and of three of them, a multiple and a repeat."""
    a, b, c = gens[0], gens[1], gens[-1]
    return gens + [
        tuple(x + y for x, y in zip(a, b)),
        tuple(x + y + z for x, y, z in zip(a, b, c)),
        tuple(3 * x for x in a),
        b,
    ]


def high_rank_cones(rng):
    """(n, generator lists), each list a cone of one shear image in Z^5 or Z^6:
    a seeded sample of faces of P^n, cones over a quadrilateral and the octagon,
    then the first and last face of P^n of each size from 2 to n - 1 and the
    octagon's cone, each with redundant vectors."""
    out, extra = [], []
    for n in (5, 6):
        g = shear(rng, n)
        rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
        faces = [list(c) for d in range(1, n + 1) for c in combinations(rays, d)]
        polygons = [[(x, y, 1) + (0,) * (n - 3) for x, y in OCTAGON[:m]] for m in (4, 8)]
        out += [(n, [g(v) for v in gens]) for gens in rng.sample(faces, 14) + polygons]
        sized = [[f for f in faces if len(f) == d] for d in range(2, n)]
        redundant = [fs[0] for fs in sized] + [fs[-1] for fs in sized] + polygons[-1:]
        extra += [(n, [g(v) for v in with_redundant(gens)]) for gens in redundant]
    return out + extra


def non_pointed_high_rank_cones(rng):
    """(n, generator lists) of cones containing a line, under one shear of Z^5 and
    one of Z^6, with spans of every dimension s from 2 to n - 1: a line plus s - 1
    rays, three vectors summing to zero plus s - 2 rays, the whole span as s + 1
    vectors summing to zero, and in a 3-dimensional span a half-space; then each
    again with redundant vectors (those summing to zero left out)."""
    out = []
    for n in (5, 6):
        g = shear(rng, n)
        e = [tuple(int(i == j) for j in range(n)) for i in range(n)]

        def minus(*vs):
            return tuple(-sum(xs) for xs in zip(*vs))

        sets = [[e[0], minus(e[0]), e[1], minus(e[1]), e[2]]]
        for s in range(2, n):
            sets += [
                [e[1], e[0], minus(e[0])] + e[2:s],
                [e[0], e[1], minus(e[0], e[1])] + e[2:s],
                e[:s] + [minus(*e[:s])],
            ]
        sets += [[v for v in with_redundant(gens) if any(v)] for gens in sets]
        out += [(n, [g(v) for v in gens]) for gens in sets]
    return out


def build_both(n, gens):
    """(Cone, ReferenceCone), or None when both raise NotPointed."""
    try:
        ref = ReferenceCone(n, gens)
    except NotPointed:
        with pytest.raises(NotPointed):
            Cone(n, gens)
        return None
    return Cone(n, gens), ref


def assert_same(cone, ref):
    assert cone.generators == ref.generators
    assert cone.facet_normals == ref.facet_normals
    assert cone.dim == ref.dim
    assert kernel_lattice(cone.span_perp) == ref.span_basis
    assert cone.span_perp == ref.span_perp
    assert cone.face_keys() == ref.face_keys()
    ref_faces = ref.faces()
    assert [f.key for f in cone.faces()] == [f.key for f in ref_faces]
    assert [f.dim for f in cone.faces()] == [f.dim for f in ref_faces]


def inputs(rng):
    base = polygon_cones() + cube_cones()
    for n in (3, 3, 4):
        base += [(n, random_generators(rng, n)) for _ in range(25)]
    out = []
    for n, gens in base:
        g = signed_permutation(rng, n)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        out += [(n, gens), (n, [g(v) for v in gens]), (n, shuffled)]
    return out


def test_cones_match_reference():
    cases = inputs(random.Random(20261017))
    pointed = 0
    for n, gens in cases:
        both = build_both(n, gens)
        if both is not None:
            assert_same(*both)
            pointed += 1
    # the random sets must exercise both outcomes
    assert 100 < pointed < len(cases)


@pytest.mark.parametrize("n", range(7))
def test_zero_cone_matches_reference(n):
    cone, ref = Cone(n, []), ReferenceCone(n, [])
    assert_same(cone, ref)
    origin = (0,) * n
    assert cone.contains(origin) and cone.contains_relint(origin)
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        assert not cone.contains(e) and not cone.contains_relint(e)


def reference_relint(ref, v):
    """v is in the span and strictly inside every facet of the reference cone."""
    return not any(dot(k, v) for k in ref.span_perp.entries) and all(
        dot(u, v) > 0 for u in ref.facet_normals
    )


def test_contains_relint_matches_reference():
    """Interior, boundary, off-span and zero points of seeded random cones
    in Z^1 to Z^4, against the reference cone's normals and annihilator."""
    rng = random.Random(20261021)
    seen = set()
    for n in (1, 2, 3, 4):
        for _ in range(40):
            both = build_both(n, random_generators(rng, n))
            if both is None:
                continue
            cone, ref = both
            gens = cone.generators
            points = [(0,) * n, tuple(map(sum, zip((0,) * n, *gens)))]
            points += gens
            points += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(6)]
            # off the span: a generator plus an annihilator row
            points += [tuple(map(sum, zip(gens[0], k))) for k in cone.span_perp.entries[:1] if gens]
            for v in points:
                want = reference_relint(ref, v)
                assert cone.contains_relint(v) is want, (n, gens, v)
                assert cone.contains_relint(iter(v)) is want
                seen.add(want)
            with pytest.raises(ValueError) as exc:
                cone.contains_relint((0,) * (n + 1))
            assert str(exc.value) == "point has wrong length"
    assert seen == {True, False}


def test_face_reads_repeat():
    """facets() and faces() read twice, also after face_keys(), give the same
    answer, and facets() lists the faces of dimension dim - 1."""
    fans = [cube(), p3_starred3(), projective_space(5), projective_space(6)]
    cones = [f for fan in fans for f, _ in fan.face_index.values()]
    # the quadrilateral and octagon cones, the octagon also with redundant vectors
    polygons = [Cone(n, gens) for n, gens in high_rank_cones(random.Random(271828))]
    polygons = [c for c in polygons if c.dim == 3 and len(c.generators) in (4, 8)]
    assert len(polygons) == 6
    for cone in cones + polygons:
        keys = cone.face_keys()
        facets, faces = cone.facets(), cone.faces()
        assert cone.facets() == facets and cone.faces() == faces
        assert frozenset(f.key for f in faces) == keys
        assert facets == tuple(f.generators for f in faces if f.dim == cone.dim - 1)


def test_high_rank_cones_match_reference():
    rng = random.Random(271828)
    dims = set()
    dropped = set()
    for n, gens in high_rank_cones(rng):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        for order in (gens, shuffled):
            cone, ref = build_both(n, order)
            assert_same(cone, ref)
            dims.add((n, cone.dim))
            if len(cone.generators) < len(gens):
                dropped.add((n, cone.dim))
    # lower dimensional cones of every dimension, and full ones, in both ranks
    assert dims == {(n, d) for n in (5, 6) for d in range(1, n + 1)}
    # redundant input vectors dropped in every proper dimension from 2 up
    assert dropped == {(n, d) for n in (5, 6) for d in range(2, n)}

    # after the draws above, so that they stay as they were
    spans = set()
    for n, gens in non_pointed_high_rank_cones(rng):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        for order in (gens, shuffled):
            assert build_both(n, order) is None
        spans.add((n, reference_hnf_basis(IntMatrix(gens, cols=n)).rows))
    assert spans == {(n, s) for n in (5, 6) for s in range(2, n)}


def simplicial_cones(rng):
    """(n, generator lists) of independent vectors in Z^1 to Z^5, of every
    dimension d from 0 to n: a face of P^n and a seeded set of small vectors,
    each also under a seeded shear (in Z^1, under -1)."""
    out = []
    for n in range(1, 6):
        rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
        for d in range(n + 1):
            drawn = [(0,) * n] * d
            while reference_hnf_basis(IntMatrix(drawn, cols=n)).rows < d:
                drawn = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(d)]
            g = shear(rng, n) if n > 1 else lambda v: (-v[0],)
            for gens in (rng.sample(rays, d), drawn):
                out += [(n, gens), (n, [g(v) for v in gens])]
    return out


def test_simplicial_cones_match_reference(monkeypatch):
    """Independent generators give every subset as a face key, with no mask
    read, equal to the reference's faces in full and lower dimension."""
    masked = []
    real = Cone._masked
    monkeypatch.setattr(Cone, "_masked", lambda self, m: masked.append(m) or real(self, m))
    cases = simplicial_cones(random.Random(57721))
    built = [Cone(n, gens) for n, gens in cases]
    assert masked == []
    monkeypatch.undo()
    dims = set()
    for cone, (n, gens) in zip(built, cases):
        assert_same(cone, ReferenceCone(n, gens))
        assert len(cone.generators) == cone.dim == len(gens)
        assert len(cone.face_keys()) == 2**cone.dim
        dims.add((n, cone.dim))
    assert dims == {(n, d) for n in range(1, 6) for d in range(n + 1)}


def rank_7_8_cones(rng):
    """(n, generator lists): two seeded faces of each dimension of one shear
    image of P^7 and one of P^8, and the octagon's cone padded into Z^7."""
    out = []
    for n in (7, 8):
        g = shear(rng, n)
        rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
        for d in range(1, n + 1):
            faces = rng.sample(list(combinations(rays, d)), 2)
            out += [(n, [g(v) for v in gens]) for gens in faces]
    out.append((7, [(x, y, 1, 0, 0, 0, 0) for x, y in OCTAGON]))
    return out


def test_rank_7_8_cones_match_reference():
    rng = random.Random(314159)
    dims = set()
    for n, gens in rank_7_8_cones(rng):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        for order in (gens, shuffled):
            cone, ref = Cone(n, order), ReferenceCone(n, order)
            assert cone.generators == ref.generators
            assert cone.facet_normals == ref.facet_normals
            assert cone.dim == ref.dim
            assert cone.span_perp == ref.span_perp
            dims.add((n, cone.dim))
    assert dims == {(n, d) for n in (7, 8) for d in range(1, n + 1)}


def test_high_rank_intersections_match_reference():
    """Faces of one shear image of P^n pairwise: all meet in common faces."""
    rng = random.Random(161803)
    cones = high_rank_cones(rng)
    for n in (5, 6):
        built = [build_both(m, gens) for m, gens in cones if m == n][:14]
        for (a, ra), (b, rb) in rng.sample(list(combinations(built, 2)), 12):
            key, ok = intersect(a, b)
            want, want_ok = reference_intersect(ra, rb)
            assert (key, ok) == (want.key, want_ok) and ok


def pairs(rng):
    """Pairs meeting at 0, in a common face, and overlapping."""
    polys = polygon_cones()
    out = []
    for n, gens in polys + cube_cones():
        out.append(((n, gens), (n, [tuple(-x for x in v) for v in gens])))
    fans = [list(c.generators) for c in cube().maximal_cones]
    out += [((3, a), (3, b)) for a in fans for b in fans]
    # consecutive cones of the fan over an octagon share a 2-dimensional face
    ring = [(x, y, 1) for x, y in OCTAGON] * 2
    wedges = [(3, [ring[i], ring[i + 1], (0, 0, 1)]) for i in range(len(OCTAGON) + 1)]
    out += list(zip(wedges, wedges[1:]))
    out += [(polys[i], polys[j]) for i in range(len(polys)) for j in range(i, len(polys))]
    for n in (3, 4):
        out += [((n, random_generators(rng, n)), (n, random_generators(rng, n))) for _ in range(40)]
    g = signed_permutation(rng, 3)
    images = [((3, [g(v) for v in a]), (3, [g(v) for v in b])) for (n, a), (_, b) in out if n == 3]
    return out + images[:30]


def test_intersections_match_reference():
    built = {}

    def build(n, gens):
        if (n, tuple(gens)) not in built:
            built[n, tuple(gens)] = build_both(n, gens)
        return built[n, tuple(gens)]

    flags = set()
    for left, right in pairs(random.Random(31415)):
        a, b = build(*left), build(*right)
        if a is None or b is None:
            continue
        key, ok = intersect(a[0], b[0])
        want, want_ok = reference_intersect(a[1], b[1])
        assert (key, ok) == (want.key, want_ok)
        got = Cone(*key)
        assert got.key == key
        assert got.facet_normals == want.facet_normals
        flags.add((ok, got.dim == 0))
    # meeting only at 0, in a common face of positive dimension, and overlapping
    assert {(True, True), (True, False), (False, False)} <= flags


def joint_span_intersect(c1, c2):
    """The meet as it was first written: double description in coordinates on
    the kernel of both spans' equations, on the facet normals projected there
    (zeros dropped), with the rays lifted back to Z^n."""
    n = c1.ambient_rank
    s0 = kernel_lattice(IntMatrix(list(c1.span_perp.entries) + list(c2.span_perp.entries), cols=n))
    e = s0.rows
    ineqs = sorted(
        {tuple(dot(u, r) for r in s0.entries) for u in c1.facet_normals + c2.facet_normals}
        - {(0,) * e}
    )
    s0_cols = s0.transpose().entries
    rays = sorted(tuple(dot(w, c) for c in s0_cols) for w, _ in _extreme_rays(ineqs, e)[0])
    key = (n, tuple(rays))
    return key, key in c1.face_keys() and key in c2.face_keys()


def lower_dimensional_cones(rng):
    """(n, generator lists) in Z^4 and Z^5: in each of three seeded subspaces, of
    dimension 2, 3 and n - 1, sixteen cones on two to five nonnegative
    combinations of a basis with seeded signs, so pointed and below dimension n."""
    out = []
    for n in (4, 5):
        for d in (2, 3, n - 1):
            basis = []
            while reference_hnf_basis(IntMatrix(basis, cols=n)).rows < d:
                basis = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(d)]
            for _ in range(16):
                signs = [rng.choice((1, -1)) for _ in range(d)]
                gens = []
                for _ in range(rng.randint(2, 5)):
                    coeffs = [s * rng.randint(0, 2) for s in signs]
                    v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n))
                    if any(v):
                        gens.append(v)
                out.append((n, gens or [basis[0]]))
    return out


def same_rank_pairs():
    """Every pair of same-rank cones among high_rank_cones and the lower
    dimensional cones in Z^4 and Z^5, built."""
    cones = high_rank_cones(random.Random(271828))
    cones += lower_dimensional_cones(random.Random(141421))
    built = [Cone(n, gens) for n, gens in cones]
    return [(a, b) for a, b in combinations(built, 2) if a.ambient_rank == b.ambient_rank]


def test_meets_match_joint_span_rule():
    """Meets in Z^n equal the joint-span rule on cones of every dimension below
    n, with different spans, bit for bit in key and common-face flag."""
    flags = set()
    pairs = same_rank_pairs()
    for a, b in pairs:
        key, ok = intersect(a, b)
        assert (key, ok) == joint_span_intersect(a, b)
        flags.add((ok, not key[1]))
    assert len(pairs) == 3913
    # meeting only at 0, in a common face of positive dimension, and overlapping
    assert {(True, True), (True, False), (False, False)} <= flags


def test_meets_leave_the_integer_layer(monkeypatch):
    """The meet reads the cones' equations, facet normals and face keys, and
    makes no kernel, Hermite form or matrix, not even with no equations.  The
    normals, which a lower-dimensional cone builds on first read, are read
    before the integer layer is refused."""
    pairs = same_rank_pairs()
    fan_pairs = []
    for fan in (projective_space(4), p3_starred3(), blp2(), cube()):
        fan_pairs += combinations(fan.maximal_cones, 2)
    # the parts of a multifan may overlap
    parts = [c for _, c in hypertoric_3lines().parts]
    cones = [c for pair in pairs + fan_pairs for c in pair] + parts
    assert all(c.facet_normals == tuple(sorted(c.facet_normals)) for c in cones)

    def refuse(*args, **kwargs):
        raise AssertionError("the meet entered the integer layer")

    for name in ("kernel_lattice", "hnf", "IntMatrix"):
        monkeypatch.setattr(fanpoly.cones, name, refuse)
    for a, b in pairs:
        intersect(a, b)
    fan_flags = [intersect(a, b)[1] for a, b in fan_pairs]
    part_flags = [intersect(a, b)[1] for a, b in combinations(parts, 2)]
    monkeypatch.undo()
    assert len(fan_flags) == 10 + 45 + 6 + 15 and all(fan_flags)
    assert part_flags == [False, False, True]
