"""Cone construction, faces, intersections, quotient lattices.

The face-count oracle enumerates supporting covectors over an integer box
and collects the distinct sets of generators they annihilate; for a pointed
cone every face is exposed, so this finds the whole face lattice without
using the library's own facet machinery.
"""

import random
import re
from functools import cached_property
from itertools import combinations, product

import pytest
from corpus import (
    HYPERTORIC_VECTORS,
    ambient_lattice,
    blp2,
    cube,
    diamond,
    hypertoric_3lines,
    lattices_equal,
    p1,
    p1xp1,
    p2,
    p3_starred3,
    projective_space,
    random_unimodular,
    saturate,
)

import fanpoly.cones
from fanpoly.cones import (
    Cone,
    _left_inverse,
    intersect,
    restriction_matrix,
)
from fanpoly.errors import NotAFace, NotPointed, ZeroVector
from fanpoly.intlinalg import IntMatrix, dot, kernel_lattice
from fanpoly.jsonio import multifan_from_json, multifan_to_json
from fanpoly.multifans import hypertoric_multifan


def exposed_face_generator_sets(gens, bound=2):
    """Oracle: distinct {g : u.g = 0} over one-sided covectors u in a box."""
    n = len(gens[0])
    out = set()
    for u in product(range(-bound, bound + 1), repeat=n):
        vals = [dot(u, g) for g in gens]
        if all(v >= 0 for v in vals):
            out.add(frozenset(g for g, v in zip(gens, vals) if v == 0))
    return out


def test_canonicalization():
    c = Cone(2, [(2, 0), (0, 3)])
    assert c.generators == ((0, 1), (1, 0))
    assert c.dim == 2
    # redundant interior generator is dropped
    c2 = Cone(2, [(1, 0), (0, 1), (1, 1)])
    assert c2.generators == ((0, 1), (1, 0))
    assert c == c2
    assert c.id_str == "0,1;1,0"
    assert Cone(2, []).id_str == "0"


def test_facet_normals_quadrant():
    c = Cone(2, [(1, 0), (0, 1)])
    assert set(c.facet_normals) == {(1, 0), (0, 1)}


def test_bad_inputs():
    with pytest.raises(ZeroVector):
        Cone(2, [(0, 0)])
    with pytest.raises(NotPointed):
        Cone(2, [(1, 0), (-1, 0)])
    with pytest.raises(NotPointed):
        Cone(2, [(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(NotPointed):
        Cone(2, [(1, 0), (-1, 1), (-1, -1)])
    with pytest.raises(ValueError):
        Cone(2, [(1, 0, 0)])
    # as in IntMatrix, a bool is not an integer coordinate
    with pytest.raises(TypeError):
        Cone(2, [(True, False), (0, 1)])


def test_dims():
    assert Cone(3, []).dim == 0
    assert Cone(3, [(2, 4, 6)]).dim == 1
    assert Cone(3, [(1, 0, 0), (0, 1, 0)]).dim == 2
    assert Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)]).dim == 3


def count_eliminations(monkeypatch):
    """Count the cone module's calls of hnf and kernel_lattice, by name."""
    calls = {"hnf": 0, "kernel_lattice": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(fanpoly.cones, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(fanpoly.cones, name, counted)
    return calls


def test_full_dimensional_cones_take_no_elimination(monkeypatch):
    """A full-dimensional cone reads its normals off the double description in
    Z^n: no Hermite step and no kernel, an empty annihilator, normals sorted."""
    rng = random.Random(7)
    cases = []
    for n in (2, 3, 4):
        g = random_unimodular(rng, n)
        rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
        cases += [(n, [g.mul_vec(r) for r in rays if r != skip]) for skip in rays]
    cases.append((3, list(cube().maximal_cones[0].generators)))
    octagon = [(2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)]
    cases.append((3, [(x, y, 1) for x, y in octagon]))
    calls = count_eliminations(monkeypatch)
    cones = [Cone(n, gens) for n, gens in cases]
    assert calls == {"hnf": 0, "kernel_lattice": 0}
    monkeypatch.undo()
    for cone, (n, gens) in zip(cones, cases):
        assert cone.dim == n and cone.span_perp == IntMatrix([], cols=n)
        assert cone.facet_normals == tuple(sorted(cone.facet_normals))
        assert all(dot(u, g) >= 0 for u in cone.facet_normals for g in gens)
    assert [len(c.facet_normals) for c in cones[-2:]] == [4, 8]


def test_lower_dimensional_cone_reads_its_span(monkeypatch):
    """A 2-dimensional cone in Z^3 takes its annihilator at construction, and its
    span and lift when the facet normals are first read, once."""
    calls = count_eliminations(monkeypatch)
    cone = Cone(3, [(1, 0, 0), (1, 1, 0)])
    assert calls == {"hnf": 0, "kernel_lattice": 1}
    normals = cone.facet_normals
    assert calls == {"hnf": 1, "kernel_lattice": 2}
    assert cone.facet_normals is normals
    assert calls == {"hnf": 1, "kernel_lattice": 2}
    assert cone.span_perp.entries == ((0, 0, 1),)
    assert normals == ((0, 1, 0), (1, -1, 0))


def test_multifan_document_builds_no_facet_normals(monkeypatch):
    """Reading a hypertoric multifan document checks its nodes on face keys: a
    lower-dimensional node takes one kernel, its annihilator, and no Hermite
    step.  No node holds its normals; a full-dimensional node's first read
    returns its dual rays, with no kernel and no Hermite step."""
    doc = multifan_to_json(hypertoric_multifan(3, HYPERTORIC_VECTORS[5]))
    calls = count_eliminations(monkeypatch)
    mf = multifan_from_json(doc)
    lower = [c for c in mf.cones.values() if c.dim < 3]
    full = [c for c in mf.cones.values() if c.dim == 3]
    assert len(lower) == 16 and len(full) == 8 and len(mf.cones) == 24
    assert calls == {"hnf": 0, "kernel_lattice": len(lower)}
    assert not any("facet_normals" in vars(c) for c in mf.cones.values())
    for cone in full:
        assert cone.facet_normals is cone._dual_rays
    assert calls == {"hnf": 0, "kernel_lattice": len(lower)}


def test_facet_normals_do_not_depend_on_the_first_read():
    """Two copies of each lower-dimensional cone of the corpus fans' face indexes
    and the hypertoric multifans: one reads its quotient, contains and a meet
    before its normals, the other its normals first.  The normals agree."""
    fans = [p1(), p2(), p1xp1(), diamond(), blp2(), cube(), p3_starred3(), projective_space(4)]
    keys = {f.key for fan in fans for f, _ in fan.face_index.values() if f.dim < fan.ambient_rank}
    multifans = [hypertoric_3lines()]
    multifans += [hypertoric_multifan(3, v) for v in HYPERTORIC_VECTORS.values()]
    keys |= {c.key for mf in multifans for c in mf.cones.values() if c.dim < mf.ambient_rank}
    assert len(keys) > 100
    for key in sorted(keys):
        late, early = Cone(*key), Cone(*key)
        normals = early.facet_normals
        assert late.quotient.rank == late.dim and "facet_normals" not in vars(late)
        point = tuple(map(sum, zip(*late.generators))) or (0,) * late.ambient_rank
        assert late.contains(point)
        assert intersect(late, Cone(*key)) == (key, True)
        assert late.facet_normals == normals


def test_full_rank_half_plane_is_not_pointed(monkeypatch):
    calls = count_eliminations(monkeypatch)
    message = "cone on [(-1, 0), (0, 1), (1, 0)] contains a line"
    with pytest.raises(NotPointed, match=f"^{re.escape(message)}$"):
        Cone(2, [(1, 0), (-1, 0), (0, 1)])
    assert calls == {"hnf": 0, "kernel_lattice": 0}


def count_masked(monkeypatch):
    """Masks read into generator tuples by Cone._masked, in call order."""
    masks = []
    real = Cone._masked
    monkeypatch.setattr(Cone, "_masked", lambda self, m: masks.append(m) or real(self, m))
    return masks


SIMPLICIAL = [
    (2, [(1, 0), (0, 1)]),
    (2, [(1, 2)]),
    (3, [(1, 0, 0), (1, 1, 0)]),
    (3, [(1, 0, 0), (0, 1, 0), (-1, -1, -1)]),
    (4, [(1, 0, 0, 0), (0, 2, 1, 0), (1, 1, 1, 1)]),
    (5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 1, 1, 1, -1)]),
]


def test_simplicial_cone_reads_no_mask(monkeypatch):
    """Independent generators: every subset is a face, so no mask is read
    into generators; a cone over a square takes the general path."""
    masks = count_masked(monkeypatch)
    cones = [Cone(n, gens) for n, gens in SIMPLICIAL + [(3, [])]]
    assert masks == []
    square = Cone(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    assert len(masks) == len(square.face_keys()) == 10
    monkeypatch.undo()
    for cone in cones:
        assert cone.dim == len(cone.generators)
        subsets = [s for d in range(cone.dim + 1) for s in combinations(cone.generators, d)]
        assert cone.face_keys() == frozenset((cone.ambient_rank, s) for s in subsets)
        # each facet holds every generator but one
        full = (1 << cone.dim) - 1
        assert sorted(cone._facet_masks) == sorted(full ^ (1 << i) for i in range(cone.dim))


def test_redundant_generator_takes_the_general_path(monkeypatch):
    """The sum of two generators added: more generators than the dimension, so
    the masks are closed, and the cone is the one without it."""
    for n, gens in SIMPLICIAL:
        if len(gens) < 2:
            continue
        masks = count_masked(monkeypatch)
        plain = Cone(n, gens)
        assert masks == []
        extra = Cone(n, gens + [tuple(x + y for x, y in zip(gens[0], gens[-1]))])
        assert masks
        monkeypatch.undo()
        assert extra.key == plain.key and extra.id_str == plain.id_str
        assert extra.facet_normals == plain.facet_normals
        assert extra.span_perp == plain.span_perp
        assert extra._facet_masks == plain._facet_masks
        assert extra.face_keys() == plain.face_keys()


@pytest.mark.parametrize(
    "n,gens,message",
    [
        (1, [(1,), (-1,)], "cone on [(-1,), (1,)] contains a line"),
        (2, [(1, 0), (-1, 0)], "cone on [(-1, 0), (1, 0)] contains a line"),
        (2, [(1, 0), (0, 1), (-1, -1)], "cone on [(-1, -1), (0, 1), (1, 0)] contains a line"),
        (
            3,
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0)],
            "cone on [(-1, 0, 0), (0, 1, 0), (1, 0, 0)] contains a line",
        ),
        (
            3,
            [(2, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)],
            "cone on [(-1, -1, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)] contains a line",
        ),
    ],
)
def test_cones_with_a_line_are_not_pointed(n, gens, message):
    with pytest.raises(NotPointed, match=f"^{re.escape(message)}$"):
        Cone(n, gens)


def test_membership():
    c = Cone(2, [(1, 0), (1, 2)])
    assert c.contains((1, 1))
    assert c.contains((3, 0))
    assert not c.contains((0, 1))
    assert not c.contains((-1, 0))
    assert c.contains_relint((1, 1))
    assert not c.contains_relint((1, 0))
    ray = Cone(2, [(1, 1)])
    assert ray.contains((3, 3))
    assert not ray.contains((1, 2))
    zero = Cone(2, [])
    assert zero.contains((0, 0))
    assert not zero.contains((1, 0))


def test_membership_rejects_wrong_length():
    for c in (Cone(2, []), Cone(2, [(1, 0)])):
        for point in ((0, 0, 0), (1, 0, 0), (1,)):
            with pytest.raises(ValueError, match="point has wrong length"):
                c.contains(point)
            with pytest.raises(ValueError, match="point has wrong length"):
                c.contains_relint(point)


def test_faces_quadrant():
    c = Cone(2, [(1, 0), (0, 1)])
    fs = c.faces()
    assert len(fs) == 4
    assert [f.dim for f in fs] == [0, 1, 1, 2]
    assert fs[-1] == c


def test_faces_square_cone_against_box_oracle():
    gens = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]
    oracle = exposed_face_generator_sets(gens)
    assert len(oracle) == 10
    c = Cone(3, gens)
    fs = c.faces()
    assert len(fs) == 10
    assert {frozenset(f.generators) for f in fs} == oracle
    assert sorted(f.dim for f in fs) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]


def test_faces_cone_over_14gon():
    # 14 points on the parabola y = x^2 are in convex position
    c = Cone(3, [(x, x * x, 1) for x in range(14)])
    fs = c.faces()
    assert len(fs) == 30
    assert [sum(1 for f in fs if f.dim == d) for d in range(4)] == [1, 14, 14, 1]


def test_face_relations():
    sigma = Cone(2, [(1, 0), (0, 1)])
    ray = Cone(2, [(1, 0)])
    zero = Cone(2, [])
    assert ray.is_face_of(sigma)
    assert zero.is_face_of(sigma)
    assert sigma.is_face_of(sigma)
    interior_ray = Cone(2, [(1, 1)])
    assert not interior_ray.is_face_of(sigma)


def test_intersect_common_face():
    right = Cone(2, [(1, 0), (0, 1)])
    left = Cone(2, [(0, 1), (-1, 0)])
    key, ok = intersect(right, left)
    assert ok
    assert key == (2, ((0, 1),))
    key, ok = intersect(right, right)
    assert ok
    assert key == right.key
    pos_ray = Cone(2, [(1, 0)])
    neg_ray = Cone(2, [(-1, 0)])
    key, ok = intersect(pos_ray, neg_ray)
    assert ok
    assert Cone(*key).dim == 0


def test_intersect_overlap_not_face():
    a = Cone(2, [(1, 0), (1, 2)])
    b = Cone(2, [(1, 1), (0, 1)])
    key, ok = intersect(a, b)
    assert not ok
    f = Cone(*key)
    assert f.dim == 2
    assert f.key == key
    assert f.generators == ((1, 1), (1, 2))
    assert f.contains((2, 3))


def test_intersect_in_three_dims():
    a = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    b = Cone(3, [(0, 1, 0), (0, 0, 1), (-1, 0, 0)])
    key, ok = intersect(a, b)
    assert ok
    assert key == (3, ((0, 0, 1), (0, 1, 0)))


def test_quotient_ranks():
    zero = Cone(2, [])
    assert zero.quotient.rank == 0
    ray = Cone(2, [(1, 1)])
    assert ray.quotient.rank == 1
    quad = Cone(2, [(1, 0), (0, 1)])
    assert quad.quotient.rank == 2
    assert quad.quotient.projection == IntMatrix.identity(2)


def test_quotient_kernel_is_perp():
    ray = Cone(2, [(1, 1)])
    q = ray.quotient
    assert lattices_equal(kernel_lattice(q.projection), IntMatrix([[1, -1]]))
    assert q.projection * q.section == IntMatrix.identity(1)
    # the projection really kills the annihilator of the cone
    for row in ray.span_perp.entries:
        assert q.reduce(row) == (0,)
        assert dot(row, (1, 1)) == 0


def test_left_inverse():
    # L * B^T = I for saturated bases of every rank d = 0..n and for unimodular squares
    rng = random.Random(77)
    for n in range(7):
        for d in range(n + 1):
            raw = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)], cols=n)
            rows = random_unimodular(rng, n).entries[:d] if n else ()
            for b in (saturate(raw), IntMatrix(rows, cols=n)):
                left = IntMatrix(_left_inverse(b), cols=n)
                assert left.shape == (b.rows, n)
                assert left * b.transpose() == IntMatrix.identity(b.rows)
    for _ in range(20):
        n = rng.randint(1, 6)
        w = random_unimodular(rng, n)
        left = IntMatrix(_left_inverse(w), cols=n)
        assert left * w.transpose() == IntMatrix.identity(n)
        assert w.transpose() * left == IntMatrix.identity(n)


def test_quotient_splits():
    # Q (d x n) has kernel exactly span_perp and the section S (n x d) has Q * S = I
    rng = random.Random(404)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))]
        try:
            cone = Cone(n, [g for g in gens if any(g)])
        except NotPointed:
            continue
        done += 1
        k = cone.span_perp
        q, s = cone.quotient.projection, cone.quotient.section
        d = n - k.rows
        assert q.shape == (d, n)
        assert s.shape == (n, d)
        assert q * s == IntMatrix.identity(d)
        for row in k.entries:
            assert q.mul_vec(row) == (0,) * d
        assert lattices_equal(kernel_lattice(q), k)


def test_face_keys_at_construction_and_quotient_on_first_read():
    assert not hasattr(Cone, "__slots__")
    assert isinstance(vars(Cone)["quotient"], cached_property)
    c = Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    assert "quotient" not in vars(c)
    assert c.face_keys() is c.face_keys()
    assert len(c.face_keys()) == 8
    q = c.quotient
    assert vars(c)["quotient"] is q
    assert c.quotient is q


def test_quotient_deterministic():
    a = Cone(3, [(0, 2, 4), (2, 2, 2)]).quotient
    b = Cone(3, [(1, 1, 1), (0, 1, 2), (1, 2, 3)]).quotient
    assert a == b


def test_ambient_lattice_matches_full_cone():
    c = Cone(2, [(1, 0), (0, 1)])
    assert c.quotient == ambient_lattice(2)


def test_restriction_matrix_requires_face():
    sigma = Cone(2, [(1, 0), (0, 1)])
    with pytest.raises(NotAFace):
        restriction_matrix(sigma, Cone(2, [(1, 1)]))
    r = restriction_matrix(sigma, Cone(2, [(1, 0)]))
    assert r.shape == (1, 2)


def test_restriction_matrix_is_stored_on_the_cone():
    sigma = Cone(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    for tau in sigma.faces():
        r = restriction_matrix(sigma, tau)
        assert restriction_matrix(sigma, tau) is r
        assert restriction_matrix(sigma, Cone(*tau.key)) is r
        assert r == tau.quotient.projection * sigma.quotient.section
    # the face check still runs for a pair not stored yet
    with pytest.raises(NotAFace):
        restriction_matrix(sigma, Cone(3, [(0, 0, 1)]))
    with pytest.raises(NotAFace):
        restriction_matrix(sigma, Cone(3, [(1, 1, 1), (-1, -1, 1)]))


def test_restriction_transitivity():
    sigma = Cone(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    facet = Cone(3, [(1, 1, 1), (1, -1, 1)])
    edge = Cone(3, [(1, 1, 1)])
    r_direct = restriction_matrix(sigma, edge)
    r_two_step = restriction_matrix(facet, edge) * restriction_matrix(sigma, facet)
    assert r_direct == r_two_step


def test_restriction_compatible_with_projection():
    # projecting from M and then restricting equals projecting directly
    sigma = Cone(2, [(1, 0), (1, 2)])
    tau = Cone(2, [(1, 2)])
    r = restriction_matrix(sigma, tau)
    assert r * sigma.quotient.projection == tau.quotient.projection



@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Cone(-1, []), "negative ambient rank"),
        (lambda: Cone(2, [(1, 0)]).contains_cone(Cone(3, [(1, 0, 0)])), "ambient rank mismatch"),
        (lambda: intersect(Cone(2, [(1, 0)]), Cone(3, [(1, 0, 0)])), "ambient rank mismatch"),
    ],
    ids=["negative_rank", "contains_cone_ranks", "intersect_ranks"],
)
def test_rank_errors(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("n", range(9))
def test_zero_cone_equations_are_the_identity(n):
    zero = Cone(n, [])
    assert zero.span_perp == IntMatrix.identity(n)
    assert zero.dim == 0 and zero.generators == ()
