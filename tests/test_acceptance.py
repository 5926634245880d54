"""End-to-end checks, one per headline behavior of the package.

Each test prints a single PASS line when it succeeds, so a verbose run
reads as a checklist.  Everything here is exact integer or rational
arithmetic; there are no tolerances anywhere.
"""

import itertools
import random
import time

from fanpoly.chern import bundle_sum, bundle_validate, chern_class, total_chern
from fanpoly.fixtures import (
    blp2,
    cube,
    diamond,
    doubled_cone,
    hypertoric_3lines,
    p1,
    p1xp1,
    p2,
    p2_blowup,
)
from fanpoly.fans import Fan
from fanpoly.cones import Cone
from fanpoly.gkm import gkm_compare
from fanpoly.intlinalg import (
    IntMatrix,
    hnf,
    hnf_basis,
    in_row_lattice,
    kernel_lattice,
    rank as matrix_rank,
    snf,
)
from fanpoly.mayer_vietoris import h3_torsion
from fanpoly.multifans import mpp_basis
from fanpoly.polynomials import LocalPolynomial, monomials_of_degree
from fanpoly.ppring import (
    pp_add,
    pp_basis,
    pp_constant,
    pp_is_pullback,
    pp_mul,
    pp_pullback,
    pp_scale,
    pp_validate,
)
from fanpoly.stanley_reisner import courant_function, sr_hilbert


def test_01_diamond_wall_map_has_two_torsion_and_even_parity():
    t0 = time.monotonic()
    report = h3_torsion(diamond())
    elapsed = time.monotonic() - t0
    assert 2 in report.torsion_summands
    assert report.elementary_divisors == (1, 1, 1, 2)
    assert report.parity_even is True
    assert elapsed < 1.0
    print(f"PASS 1: diamond cokernel has a Z/2 summand, parity certificate holds ({elapsed:.3f}s)")


def test_02_fixed_point_lattice_matches_piecewise_lattice():
    cases = [
        (p1(), 3),
        (p2(), 3),
        (p1xp1(), 3),
        (diamond(), 3),
        (cube(), 2),
        (blp2(), 3),
    ]
    t0 = time.monotonic()
    for fan, kmax in cases:
        for k in range(kmax + 1):
            assert gkm_compare(fan, k), (fan, k)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS 2: edge-congruence kernel equals the piecewise lattice on 6 fans ({elapsed:.1f}s)")


def test_03_restriction_to_maximal_cones_is_injective():
    for fan in (p1(), p2(), p1xp1(), diamond(), cube(), blp2()):
        for k in range(4):
            gb = pp_basis(fan, k)
            assert matrix_rank(gb.coefficients) == gb.rank
    print("PASS 3: basis coefficient matrices have full row rank for k <= 3")


def test_04_smooth_fans_match_face_ring_counts():
    for fan in (p1(), p2(), p1xp1(), blp2()):
        got = [pp_basis(fan, k).rank for k in range(5)]
        want = [sr_hilbert(fan, k) for k in range(5)]
        assert got == want, (got, want)
    assert [pp_basis(p2(), k).rank for k in range(5)] == [1, 3, 6, 9, 12]
    print("PASS 4: piecewise ranks equal face-ring monomial counts for k <= 4")


def test_05_ray_duals_integral_only_on_the_smooth_fan():
    d = diamond()
    for ray in [(1, 1), (-1, 1), (-1, -1), (1, -1)]:
        cf = courant_function(d, ray)
        incident = tuple(
            sorted(c.id_str for c in d.maximal_cones if cf.ray in c.generators)
        )
        assert not cf.is_integral
        assert cf.nonintegral_cones == incident
        assert len(incident) == 2
    f = p2()
    for ray in [(1, 0), (0, 1), (-1, -1)]:
        assert courant_function(f, ray).is_integral
    print("PASS 5: every diamond ray dual is non-integral on both incident cones; all are integral on the smooth fan")


def _line_bundle_characters(elem):
    data = {}
    for cid, part in elem.parts.items():
        monos = monomials_of_degree(part.lattice.rank, 1)
        data[cid] = [tuple(part.coefficient(m) for m in monos)]
    return data


def _random_bundle(fan, basis, rng, rank):
    """Sum of random degree-1 elements, redrawn until every coordinate is small."""
    while True:
        characters = {c.id_str: [] for c in fan.maximal_cones}
        for _ in range(rank):
            elem = pp_constant(fan, 0)
            for b in basis:
                elem = pp_add(elem, pp_scale(rng.randint(-1, 1), b))
            for cid, [u] in _line_bundle_characters(elem).items():
                characters[cid].append(u)
        if all(
            abs(x) <= 3 for ms in characters.values() for u in ms for x in u
        ):
            return bundle_validate(fan, characters)


def test_06_characteristic_classes_validate_and_multiply():
    rng = random.Random(20260822)
    for fan in (p2(), diamond()):
        basis = pp_basis(fan, 1).elements
        bundles = [
            _random_bundle(fan, basis, rng, rng.randint(1, 3)) for _ in range(50)
        ]
        for b in bundles:
            for i in range(b.rank + 1):
                c = chern_class(b, i)
                assert pp_validate(fan, c.parts) == c
        for b1, b2 in zip(bundles[0::2], bundles[1::2]):
            whole = total_chern(bundle_sum(b1, b2))
            left = total_chern(b1)
            right = total_chern(b2)
            for i, ci in enumerate(whole):
                acc = pp_constant(fan, 0)
                for p in range(i + 1):
                    q = i - p
                    if p <= b1.rank and q <= b2.rank:
                        acc = pp_add(acc, pp_mul(left[p], right[q]))
                assert acc == ci
    print("PASS 6: 100 random bundles: classes validate, sum formula exact")


def test_07_subdivision_pullback_round_trip_and_kink_rejection():
    base, refined, sub = p2_blowup()
    for k in range(4):
        gb = pp_basis(base, k)
        source_layout = pp_basis(refined, k)
        rows = []
        for el in gb.elements:
            pulled = pp_pullback(sub, el)
            back, report = pp_is_pullback(sub, pulled)
            assert report is None
            assert back == el
            rows.append(source_layout.coefficient_vector(pulled))
        if rows:
            m = IntMatrix(rows, cols=len(rows[0]))
            assert matrix_rank(m) == len(rows)

    kink_parts = {}
    for cone in refined.maximal_cones:
        if cone.id_str == "0,1;1,1":
            kink_parts[cone.id_str] = LocalPolynomial.linear_form(cone.quotient, (1, 0))
        elif cone.id_str == "1,0;1,1":
            kink_parts[cone.id_str] = LocalPolynomial.linear_form(cone.quotient, (0, 1))
        else:
            kink_parts[cone.id_str] = LocalPolynomial.zero(cone.quotient)
    kink = pp_validate(refined, kink_parts)
    back, report = pp_is_pullback(sub, kink)
    assert back is None
    assert report.condition == "same-polynomial"
    assert report.cone_id == Cone(2, [(1, 0), (0, 1)]).id_str
    print("PASS 7: pullback round trips for k <= 3, is injective, and the kink function is rejected by name")


def test_08_poset_constraints_differ_from_fan_constraints():
    mf = hypertoric_3lines()
    assert len(mf.node_ids) == 7

    vectors = [(1, 0), (0, 1), (1, 1)]

    def independent_monomial_count(k):
        count = 0
        for combo in itertools.combinations_with_replacement(range(3), k):
            support = sorted(set(combo))
            chosen = [vectors[i] for i in support]
            if matrix_rank(IntMatrix(chosen, cols=2)) == len(support):
                count += 1
        return count

    got = [mpp_basis(mf, k).rank for k in range(4)]
    assert got == [independent_monomial_count(k) for k in range(4)]
    assert got == [1, 3, 6, 9]

    doubled = [mpp_basis(doubled_cone(), k).rank for k in range(4)]
    quadrant = Fan(2, [Cone(2, [(1, 0), (0, 1)])])
    single = [pp_basis(quadrant, k).rank for k in range(4)]
    assert doubled == [1, 2, 4, 6]
    assert single == [1, 2, 3, 4]
    assert doubled != single
    print("PASS 8: hypertoric poset has 7 nodes with face-ring ranks; doubled cone differs from the plain cone")


def test_09_normal_forms_are_exact_on_random_matrices():
    rng = random.Random(1729)
    for trial in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], cols=n
        )

        h, u = hnf(a)
        assert u * a == h
        assert abs(u.det()) == 1
        assert hnf(h)[0] == h

        perm = list(range(m))
        rng.shuffle(perm)
        shuffled = IntMatrix([a.row(i) for i in perm], cols=n)
        assert hnf_basis(shuffled) == hnf_basis(a)

        res = snf(a)
        assert res.U * a * res.V == res.S
        assert abs(res.U.det()) == 1
        assert abs(res.V.det()) == 1
        diag = res.diagonal()
        assert all(d >= 0 for d in diag)
        for d1, d2 in zip(diag, diag[1:]):
            if d1 != 0:
                assert d2 % d1 == 0
            else:
                assert d2 == 0

        ker = kernel_lattice(a)
        for i in range(ker.rows):
            assert all(x == 0 for x in a.mul_vec(ker.row(i)))
        if trial < 40:
            for v in itertools.product(range(-2, 3), repeat=n):
                if all(x == 0 for x in a.mul_vec(v)):
                    assert in_row_lattice(ker, v)
    print("PASS 9: Hermite, Smith, and kernel properties hold on 200 random matrices")
