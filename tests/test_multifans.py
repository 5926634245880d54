"""Posets of cones and their piecewise polynomial rings."""

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import pytest
from corpus import (
    HYPERTORIC_VECTORS,
    character_class,
    cube,
    doubled_cone,
    hypertoric_3lines,
    hypertoric_3lines_vectors,
    p2,
    p3_starred3,
    projective_space,
)

from fanpoly.cones import Cone
from fanpoly.errors import (
    FaceBijectionFailure,
    FanMismatch,
    Incompatible,
    LatticeMismatch,
    NotAPoset,
)
from fanpoly.fans import Fan
from fanpoly.multifans import (
    Multifan,
    hypertoric_multifan,
    mpp_basis,
    multifan_from_fan,
    multifan_validate,
)
from fanpoly.polynomials import LocalPolynomial
from fanpoly.ppring import pp_basis, pp_restrict_orbit, pp_validate


QUAD = Cone(2, [(1, 0), (0, 1)])
RX = Cone(2, [(1, 0)])
RY = Cone(2, [(0, 1)])
ZERO = Cone(2, [])


def quadrant_fan_chain():
    cones = {"o": ZERO, "x": RX, "y": RY, "q": QUAD}
    covers = [("o", "x"), ("o", "y"), ("x", "q"), ("y", "q")]
    return cones, covers


def test_validate_single_cone_chain():
    cones, covers = quadrant_fan_chain()
    mf = multifan_validate(2, cones, covers)
    assert mf.maximal_ids == ("q",)
    assert mf.lower["q"] == frozenset({"o", "x", "y", "q"})
    assert "o" in mf.lower["q"]
    assert "q" not in mf.lower["o"]


def test_validate_rejects_cycle():
    cones, covers = quadrant_fan_chain()
    with pytest.raises(NotAPoset):
        multifan_validate(2, cones, covers + [("q", "o")])


def test_validate_rejects_unknown_id_and_self_cover():
    cones, covers = quadrant_fan_chain()
    with pytest.raises(NotAPoset):
        multifan_validate(2, cones, covers + [("ghost", "q")])
    with pytest.raises(NotAPoset):
        multifan_validate(2, cones, covers + [("q", "q")])


def test_validate_rejects_missing_face_node():
    cones = {"o": ZERO, "x": RX, "q": QUAD}
    covers = [("o", "x"), ("x", "q")]
    with pytest.raises(FaceBijectionFailure) as exc:
        multifan_validate(2, cones, covers)
    assert exc.value.node == "q"


def test_validate_rejects_duplicate_face_below():
    cones = {"o": ZERO, "x1": RX, "x2": RX, "y": RY, "q": QUAD}
    covers = [
        ("o", "x1"),
        ("o", "x2"),
        ("o", "y"),
        ("x1", "q"),
        ("x2", "q"),
        ("y", "q"),
    ]
    with pytest.raises(FaceBijectionFailure) as exc:
        multifan_validate(2, cones, covers)
    assert exc.value.node == "q"


def test_validate_rejects_non_face_below():
    cones = {"o": ZERO, "x": RX, "w": Cone(2, [(1, 1)]), "q": QUAD}
    covers = [("o", "x"), ("o", "w"), ("x", "q"), ("w", "q")]
    with pytest.raises(FaceBijectionFailure):
        multifan_validate(2, cones, covers)


def test_multifan_from_fan_matches_fan_ring():
    fan = p2()
    mf = multifan_from_fan(fan)
    assert len(mf.node_ids) == 7  # zero cone, three rays, three cones
    assert set(mf.maximal_ids) == {pid for pid, _ in fan.parts}
    for k in range(4):
        assert mpp_basis(mf, k).rank == pp_basis(fan, k).rank


def facet_cover_multifan(fan):
    """The multifan of a fan with its covers read off ``Cone.faces``."""
    cones = {face.id_str: face for face, _ in fan.face_index.values()}
    covers = [
        (g.id_str, face.id_str)
        for face in cones.values()
        for g in face.faces()
        if g.dim == face.dim - 1
    ]
    return multifan_validate(fan.ambient_rank, cones, covers)


@pytest.mark.parametrize("name", ["p2", "cube", "p4"])
def test_multifan_from_fan_reads_covers_off_the_face_index(name, monkeypatch):
    build = {"p2": p2, "cube": cube, "p4": lambda: projective_space(4)}[name]
    fan = build()
    fan.face_index  # built on first read, once per face, before the count starts
    built = []
    init = Cone.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cone, "__init__", counting_init)
    mf = multifan_from_fan(fan)
    monkeypatch.undo()
    assert built == []

    old = facet_cover_multifan(build())
    assert mf == old
    assert (mf.node_ids, mf.maximal_ids, mf.lower) == (old.node_ids, old.maximal_ids, old.lower)
    for k in range(3 if name == "p4" else 4):
        new_basis, old_basis = mpp_basis(mf, k), mpp_basis(old, k)
        assert new_basis.layout == old_basis.layout
        assert new_basis.coefficients == old_basis.coefficients


def test_incidences_and_gluing_are_built_once_on_first_read():
    for name in ("incidences", "gluing"):
        assert isinstance(vars(Multifan)[name], cached_property)
    assert not hasattr(Multifan, "__slots__")
    mf = hypertoric_3lines()
    assert mf.gluing is mf.gluing
    assert mf.incidences is mf.incidences


def test_single_cone_fan_ranks():
    fan = Fan(2, [QUAD])
    mf = multifan_from_fan(fan)
    assert [mpp_basis(mf, k).rank for k in range(4)] == [1, 2, 3, 4]


@pytest.mark.parametrize("k", [True, False])
def test_mpp_basis_rejects_bool_degree(k):
    with pytest.raises(TypeError, match="^degree must be an integer, not a bool$"):
        mpp_basis(doubled_cone(), k)


def test_graded_basis_refuses_elements_of_another_multifan():
    single = multifan_from_fan(Fan(2, [QUAD]))
    doubled = doubled_cone()
    bs, bd = mpp_basis(single, 1), mpp_basis(doubled, 1)
    assert bs.container is single and bd.container is doubled
    # and across kinds: the quadrant as a fan is not the quadrant as a multifan
    bf = pp_basis(Fan(2, [QUAD]), 1)
    for basis, other in ((bs, bd), (bd, bs), (bf, bs), (bs, bf)):
        for e in other.elements:
            with pytest.raises(FanMismatch, match="^element does not live on the basis's fan$"):
                basis.contains(e)
    assert all(bd.contains(e) for e in mpp_basis(doubled_cone(), 1).elements)


def test_doubled_cone_ranks_differ_from_single():
    mf = doubled_cone()
    assert mf.maximal_ids == ("bot", "top")
    assert mf.maximal_common_lower("top", "bot") == ("x", "y")
    assert [mpp_basis(mf, k).rank for k in range(4)] == [1, 2, 4, 6]


def test_doubled_cone_elements_validate():
    mf = doubled_cone()
    for k in range(4):
        for e in mpp_basis(mf, k).elements:
            pp_validate(mf, e.parts)


def test_doubled_cone_rejects_axis_mismatch():
    mf = doubled_cone()
    parts = {
        "top": character_class(QUAD.quotient, (1, 0)),
        "bot": character_class(QUAD.quotient, (0, 1)),
    }
    with pytest.raises(Incompatible) as exc:
        pp_validate(mf, parts)
    assert set(exc.value.cones) == {"top", "bot"}
    assert exc.value.face in {"x", "y"}


def test_mpp_validate_key_and_lattice_checks():
    mf = doubled_cone()
    good = {
        "top": character_class(QUAD.quotient, (1, 1)),
        "bot": character_class(QUAD.quotient, (1, 1)),
    }
    pp_validate(mf, good)
    with pytest.raises(FanMismatch):
        pp_validate(mf, {"top": good["top"]})
    with pytest.raises(LatticeMismatch):
        pp_validate(mf, {"top": good["top"], "bot": LocalPolynomial.constant(RX.quotient, 1)})


def test_orbit_restriction_refuses_a_multifan():
    """Orbit restriction reads a fan's faces, which a multifan does not index."""
    mf = doubled_cone()
    e = mpp_basis(mf, 1).elements[0]
    for node in ("bot", "x"):
        with pytest.raises(FanMismatch, match="^orbit restriction reads a fan's faces"):
            pp_restrict_orbit(e, mf.cones[node])


def test_hypertoric_three_lines_nodes():
    mf = hypertoric_3lines()
    assert len(mf.node_ids) == 7
    assert mf.node_ids == ("{1,2}", "{1,3}", "{1}", "{2,3}", "{2}", "{3}", "{}")
    assert mf.maximal_ids == ("{1,2}", "{1,3}", "{2,3}")
    assert mf.cones["{2}"] == Cone(2, [(0, 1)])
    assert mf.maximal_common_lower("{1,2}", "{1,3}") == ("{1}",)


def test_hypertoric_three_lines_ranks():
    mf = hypertoric_3lines()
    assert [mpp_basis(mf, k).rank for k in range(4)] == [1, 3, 6, 9]


def independence_monomial_count(vectors, rank, k):
    """Oracle: degree-k monomials whose support is an independent subset."""
    from itertools import combinations_with_replacement

    from reference_intlinalg import reference_hnf_basis

    from fanpoly.intlinalg import IntMatrix

    if k == 0:
        return 1
    count = 0
    for combo in combinations_with_replacement(range(len(vectors)), k):
        support = sorted(set(combo))
        chosen = [vectors[i] for i in support]
        if reference_hnf_basis(IntMatrix(chosen, cols=rank)).rows == len(support):
            count += 1
    return count


@pytest.mark.parametrize(
    "rank, vectors, ranks",
    [
        (2, hypertoric_3lines_vectors(), [1, 3, 6, 9]),
        (3, HYPERTORIC_VECTORS[5], [1, 5, 15, 33]),
        (3, HYPERTORIC_VECTORS[7], [1, 7, 28, 78]),
        (3, HYPERTORIC_VECTORS[9], [1, 9, 45]),
    ],
    ids=["3lines", "ht5", "ht7", "ht9"],
)
def test_hypertoric_ranks_match_independence_complex(rank, vectors, ranks):
    mf = hypertoric_multifan(rank, vectors)
    for k, want in enumerate(ranks):
        assert mpp_basis(mf, k).rank == independence_monomial_count(vectors, rank, k) == want


def test_hypertoric_repeated_vector():
    mf = hypertoric_multifan(2, [(1, 0), (1, 0)])
    assert mf.node_ids == ("{1}", "{2}", "{}")
    assert mf.maximal_ids == ("{1}", "{2}")
    # two slopes glued only at the origin: constants in degree 0, free above
    assert [mpp_basis(mf, k).rank for k in range(3)] == [1, 2, 2]


def test_hypertoric_with_dependent_and_zero_vectors():
    mf = hypertoric_multifan(2, [(1, 0), (2, 0), (0, 0)])
    assert mf.node_ids == ("{1}", "{2}", "{}")
    assert mf.maximal_ids == ("{1}", "{2}")


def rational_rank(vectors):
    """Rank over Q by Fraction elimination, sharing nothing with fanpoly."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            q = rows[r][col] / rows[rank][col]
            rows[r] = [a - q * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_rule_nodes(vectors):
    """{node id: ids of the subsets below it} for every subset of full rank."""
    name = lambda sub: "{" + ",".join(str(i + 1) for i in sub) + "}"
    independent = [
        sub
        for size in range(len(vectors) + 1)
        for sub in combinations(range(len(vectors)), size)
        if rational_rank([vectors[i] for i in sub]) == size
    ]
    return {
        name(sub): {name(low) for low in independent if set(low) <= set(sub)}
        for sub in independent
    }


def seeded_configuration(rng):
    """Up to 6 vectors in Z^1..Z^4, with zero, repeated, opposite and scaled ones."""
    rank = rng.randint(1, 4)
    vectors = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(0, 4))]
    for _ in range(rng.randint(0, 2)):
        v = rng.choice(vectors) if vectors else (0,) * rank
        extra = rng.choice([(0,) * rank, v, tuple(-x for x in v), tuple(2 * x for x in v)])
        vectors.insert(rng.randint(0, len(vectors)), extra)
    return rank, vectors


@pytest.mark.parametrize("seed", range(40))
def test_hypertoric_nodes_match_the_rank_rule(seed):
    """Each extension is kept where the prefix cone's annihilator is nonzero on
    the new vector; the nodes and the order below them are the rank rule's."""
    rank, vectors = seeded_configuration(random.Random(seed))
    mf = hypertoric_multifan(rank, vectors)
    want = rank_rule_nodes(vectors)
    assert mf.node_ids == tuple(sorted(want))
    assert {nid: set(low) for nid, low in mf.lower.items()} == want
    assert mf.maximal_ids == tuple(
        sorted(nid for nid in want if not any(nid in low for m, low in want.items() if m != nid))
    )


def test_hypertoric_zero_repeated_and_opposite_vectors():
    """The configuration of the command line check: 8 nodes, 3 maximal."""
    mf = hypertoric_multifan(2, [(0, 0), (1, 0), (1, 0), (-1, 0), (0, 1)])
    assert mf.node_ids == ("{2,5}", "{2}", "{3,5}", "{3}", "{4,5}", "{4}", "{5}", "{}")
    assert mf.maximal_ids == ("{2,5}", "{3,5}", "{4,5}")
    assert mf.lower["{4,5}"] == {"{4,5}", "{4}", "{5}", "{}"}


def test_multifan_equality_and_repr():
    assert doubled_cone() == doubled_cone()
    assert doubled_cone() != hypertoric_3lines()
    assert "nodes=5" in repr(doubled_cone())
    assert isinstance(doubled_cone(), Multifan)


LINE = {"a": Cone(1, []), "b": Cone(1, [(1,)]), "c": Cone(1, [(-1,)])}


def test_constructor_rejects_a_cycle_and_a_missing_face():
    with pytest.raises(NotAPoset):
        Multifan(1, LINE, [("a", "b"), ("b", "a"), ("a", "c")])
    with pytest.raises(FaceBijectionFailure) as exc:
        Multifan(1, LINE, [("a", "b")])
    assert exc.value.node == "c"
    mf = Multifan(1, LINE, [("a", "b"), ("a", "c")])
    assert mf.maximal_ids == ("b", "c")


def test_constructor_rejects_lower_sets_of_one_node():
    mf = hypertoric_3lines()
    with pytest.raises(FaceBijectionFailure):
        Multifan(mf.ambient_rank, mf.cones, [])


@pytest.mark.parametrize(
    "build",
    [doubled_cone, hypertoric_3lines, lambda: multifan_from_fan(p3_starred3())],
    ids=["doubled_cone", "hypertoric_3lines", "p3_starred3"],
)
def test_constructor_is_the_validator(build):
    mf = build()
    order = [(low, high) for high, below in mf.lower.items() for low in below if low != high]
    built = Multifan(mf.ambient_rank, mf.cones, order)
    assert built == multifan_validate(mf.ambient_rank, mf.cones, order) == mf
    assert built.node_ids == mf.node_ids
    assert built.maximal_ids == mf.maximal_ids
    assert built.parts == mf.parts
    assert built.lower == mf.lower
