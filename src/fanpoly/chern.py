"""Characteristic classes of sums of equivariant line bundles.

The input datum is one multiset of characters per maximal cone, written in
that cone's quotient coordinates; compatibility means the multisets agree
after restriction to every shared face.  The i-th class is the piecewise
polynomial whose part on each cone is the i-th elementary symmetric
polynomial of the cone's characters.  Restriction to a face is a ring
map, so the parts restrict to e_i of the restricted characters, and
compatible multisets make them agree on shared faces with no re-check.
"""

from __future__ import annotations

from .cones import restriction_matrix
from .errors import FanMismatch, FormatError, IncompatibleMultisets, IndexOutOfRange
from .fans import Fan
from .polynomials import LocalPolynomial, elementary_symmetric
from .ppring import PPElement, first_disagreement


class BundleData:
    """Compatible character multisets on the maximal cones of a fan.

    ``BundleData(fan, data)`` checks ``data``, which maps cone ids to
    sequences of integer vectors, each written in the cone's quotient
    coordinates.  Multisets are kept in sorted order, so the order they are
    given in does not matter.  Characters of the wrong length or type, and
    multisets of different sizes, raise FormatError; multisets that
    restrict differently on a shared face raise IncompatibleMultisets.
    """

    __slots__ = ("fan", "characters", "rank")

    def __init__(self, fan: Fan, data):
        want = dict(fan.parts)
        if set(data) != set(want):
            raise FanMismatch("bundle data keys do not match the maximal cones")
        characters = {}
        sizes = set()
        for cid, vectors in data.items():
            cone = want[cid]
            cleaned = []
            for u in vectors:
                u = tuple(u)
                if len(u) != cone.quotient.rank:
                    raise FormatError(
                        f"character {u!r} on cone {cid} has length {len(u)}, "
                        f"expected {cone.quotient.rank}"
                    )
                if not all(isinstance(x, int) and not isinstance(x, bool) for x in u):
                    raise FormatError(f"character {u!r} on cone {cid} is not integral")
                cleaned.append(u)
            characters[cid] = tuple(sorted(cleaned))
            sizes.add(len(cleaned))
        if len(sizes) > 1:
            raise FormatError(f"bundle rank is ambiguous: multiset sizes {sorted(sizes)}")

        def restricted(cid, tau):
            r = restriction_matrix(want[cid], tau)
            return sorted(r.mul_vec(u) for u in characters[cid])

        bad = first_disagreement(fan, restricted)
        if bad:
            raise IncompatibleMultisets(*bad[:3])
        self.fan = fan
        self.characters = dict(sorted(characters.items()))
        self.rank = sizes.pop() if sizes else 0

    @classmethod
    def _trusted(cls, fan, characters: dict, rank: int):
        """Wrap compatible sorted multisets keyed in id order, unchecked."""
        self = object.__new__(cls)
        self.fan = fan
        self.characters = characters
        self.rank = rank
        return self

    def __eq__(self, other):
        if not isinstance(other, BundleData):
            return NotImplemented
        return self.fan == other.fan and self.characters == other.characters

    def __repr__(self):
        return f"BundleData(rank={self.rank}, cones={len(self.characters)})"


def bundle_validate(fan: Fan, data) -> BundleData:
    """Check one character multiset per maximal cone: ``BundleData(fan, data)``."""
    return BundleData(fan, data)


def bundle_sum(a: BundleData, b: BundleData) -> BundleData:
    if a.fan != b.fan:
        raise FanMismatch("bundles live on different fans")
    merged = {
        cid: tuple(sorted(a.characters[cid] + b.characters[cid]))
        for cid in a.characters
    }
    return BundleData._trusted(a.fan, merged, a.rank + b.rank)


def chern_class(bundle: BundleData, i: int) -> PPElement:
    """The i-th characteristic class as a piecewise polynomial.  A
    BundleData is checked when it is built, and restriction is a ring map,
    so its compatible multisets give parts that agree, wrapped unchecked."""
    if not isinstance(i, int) or isinstance(i, bool):
        raise TypeError("class index must be an integer")
    if not 0 <= i <= bundle.rank:
        raise IndexOutOfRange(f"class index {i} out of range 0..{bundle.rank}")
    parts = {}
    for cid, cone in sorted(bundle.fan.parts):
        classes = [
            LocalPolynomial.linear_form(cone.quotient, u)
            for u in bundle.characters[cid]
        ]
        parts[cid] = elementary_symmetric(cone.quotient, classes, i)
    return PPElement._trusted(bundle.fan, parts)


def total_chern(bundle: BundleData):
    """All classes c_0 .. c_rank, in order."""
    return tuple(chern_class(bundle, i) for i in range(bundle.rank + 1))
