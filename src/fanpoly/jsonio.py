"""JSON documents for fans, multifans, bundles, and piecewise elements.

Every document is a dict with a ``kind`` field.  Vector entries and ranks
are plain JSON integers; polynomial coefficients and elementary divisors
are decimal strings, so arbitrarily large values survive any JSON parser
unharmed (rationals use the ``p/q`` form).  Readers accept integers where
strings are expected, but writers always emit strings.  Coefficient
strings match ``[+-]?[0-9]+(/[0-9]+)?`` (ASCII digits, no exponents).

Structural problems (wrong kind, missing fields, malformed numbers) raise
FormatError.  Documents that parse but describe invalid mathematics raise
the matching validation error when the object is built.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .cones import Cone
from .errors import FormatError
from .fans import Fan, SubdivisionMap
from .multifans import Multifan, multifan_validate
from .polynomials import LocalPolynomial, RationalLocalPolynomial
from .ppring import GradedBasis, PPElement


def read_json_file(path: str):
    with open(path) as fh:
        # bad UTF-8, bad JSON and over-long integers are ValueErrors
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as e:
            raise FormatError(f"{path}: not valid JSON ({e})") from e


def _expect_kind(doc, kind: str):
    if not isinstance(doc, dict):
        raise FormatError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("kind") != kind:
        raise FormatError(f"expected kind {kind!r}, got {doc.get('kind')!r}")


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _vector(value, what: str, length: int | None = None):
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a list of integers")
    if length is not None and len(value) != length:
        raise FormatError(f"{what} {value!r} does not have length {length}")
    return tuple(_int(x, what) for x in value)


def _rank(doc) -> int:
    rank = _int(doc.get("ambient_rank"), "ambient_rank")
    if rank < 0:
        raise FormatError(f"ambient_rank must be nonnegative, got {rank}")
    return rank


def _coeff(value, what: str):
    if isinstance(value, bool):
        raise FormatError(f"{what} must be a number string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction alone also reads exponents, which build numbers of any size
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
            raise FormatError(f"{what}: bad coefficient {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"{what}: bad coefficient {value!r}") from e
    raise FormatError(f"{what} must be a decimal string, got {value!r}")


# ---------------------------------------------------------------- fans


def fan_to_json(fan: Fan) -> dict:
    return {
        "kind": "fan",
        "ambient_rank": fan.ambient_rank,
        "maximal_cones": [
            [list(g) for g in c.generators] for c in fan.maximal_cones
        ],
    }


def fan_from_json(doc) -> Fan:
    _expect_kind(doc, "fan")
    rank = _rank(doc)
    raw = doc.get("maximal_cones")
    if not isinstance(raw, list) or not raw:
        raise FormatError("maximal_cones must be a nonempty list")
    cones = []
    for i, gens in enumerate(raw):
        if not isinstance(gens, list):
            raise FormatError(f"maximal cone {i} must be a list of vectors")
        cones.append(Cone(rank, [_vector(g, f"cone {i} generator", rank) for g in gens]))
    return Fan(rank, cones)


# ----------------------------------------------------------- multifans


def multifan_to_json(mf: Multifan) -> dict:
    # face lattices are graded: a node covers exactly its lower nodes one dimension down
    covers = [
        [b, nid]
        for nid in mf.node_ids
        for b in sorted(mf.lower[nid])
        if mf.cones[b].dim == mf.cones[nid].dim - 1
    ]
    return {
        "kind": "multifan",
        "ambient_rank": mf.ambient_rank,
        "nodes": {nid: [list(g) for g in mf.cones[nid].generators] for nid in mf.node_ids},
        "covers": covers,
    }


def multifan_from_json(doc) -> Multifan:
    _expect_kind(doc, "multifan")
    rank = _rank(doc)
    nodes = doc.get("nodes")
    if not isinstance(nodes, dict) or not nodes:
        raise FormatError("nodes must be a nonempty object")
    cones = {}
    for nid, gens in nodes.items():
        if not isinstance(gens, list):
            raise FormatError(f"node {nid} must be a list of vectors")
        cones[nid] = Cone(rank, [_vector(g, f"node {nid} generator", rank) for g in gens])
    covers = doc.get("covers")
    if not isinstance(covers, list):
        raise FormatError("covers must be a list of pairs")
    pairs = []
    for entry in covers:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"cover {entry!r} is not a pair")
        if not all(isinstance(nid, str) for nid in entry):
            raise FormatError(f"cover {entry!r} must pair two node ids")
        pairs.append((entry[0], entry[1]))
    return multifan_validate(rank, cones, pairs)


# ------------------------------------------------------------- bundles


def bundle_characters_from_json(doc) -> dict:
    _expect_kind(doc, "bundle")
    raw = doc.get("characters")
    if not isinstance(raw, dict):
        raise FormatError("characters must be an object keyed by cone id")
    out = {}
    for cid, multiset in raw.items():
        if not isinstance(multiset, list):
            raise FormatError(f"characters of {cid} must be a list of vectors")
        out[cid] = [_vector(u, f"character on {cid}") for u in multiset]
    return out


# ----------------------------------------------------------- elements


def poly_to_json(p: LocalPolynomial) -> list:
    return [[list(e), str(c)] for e, c in p.terms.items()]


def poly_from_json(lattice, doc, what: str = "polynomial"):
    if not isinstance(doc, list):
        raise FormatError(f"{what} must be a list of [exponents, coefficient] pairs")
    terms = {}
    rational = False
    for entry in doc:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"{what}: term {entry!r} is not a pair")
        exps = _vector(entry[0], f"{what} exponent")
        if len(exps) != lattice.rank or any(e < 0 for e in exps):
            raise FormatError(f"{what}: bad exponent vector {list(exps)!r}")
        c = _coeff(entry[1], what)
        if c.denominator != 1:
            rational = True
        if exps in terms:
            raise FormatError(f"{what}: duplicate exponent {list(exps)!r}")
        terms[exps] = c
    if rational:
        return RationalLocalPolynomial(lattice, terms)
    return LocalPolynomial(lattice, {e: int(c) for e, c in terms.items()})


def ppelement_to_json(elem: PPElement) -> dict:
    return {
        "kind": "ppelement",
        "parts": {cid: poly_to_json(p) for cid, p in elem.parts.items()},
    }


def ppelement_parts_from_json(container, doc) -> dict:
    """Decode the parts of an element over a fan or multifan.

    Returns the plain parts dict; run it through the matching validator
    to obtain a checked element.
    """
    _expect_kind(doc, "ppelement")
    raw = doc.get("parts")
    if not isinstance(raw, dict):
        raise FormatError("parts must be an object keyed by cone id")
    lattices = {pid: cone.quotient for pid, cone in container.parts}
    parts = {}
    for cid, terms in raw.items():
        if cid not in lattices:
            raise FormatError(f"part {cid!r} does not name a maximal cone")
        parts[cid] = poly_from_json(lattices[cid], terms, what=f"part {cid}")
    return parts


def graded_basis_to_json(gb: GradedBasis) -> dict:
    return {
        "kind": "graded_basis",
        "degree": gb.degree,
        "rank": gb.rank,
        "elements": [ppelement_to_json(e) for e in gb.elements],
    }


# --------------------------------------------------------- subdivisions


def subdivision_to_json(m: SubdivisionMap) -> dict:
    return {
        "kind": "subdivision",
        "source": fan_to_json(m.source),
        "target": fan_to_json(m.target),
        "assignment": dict(sorted(m.assignment.items())),
    }


def subdivision_from_json(doc) -> SubdivisionMap:
    _expect_kind(doc, "subdivision")
    source = fan_from_json(doc.get("source"))
    target = fan_from_json(doc.get("target"))
    m = SubdivisionMap(source, target)
    stored = doc.get("assignment")
    if stored is not None:
        if not isinstance(stored, dict):
            raise FormatError("assignment must be an object")
        if dict(stored) != m.assignment:
            raise FormatError("stored assignment does not match the two fans")
    return m


def torsion_report_to_json(report) -> dict:
    return {
        "kind": "torsion_report",
        "matrix_shape": list(report.matrix_shape),
        "elementary_divisors": [str(d) for d in report.elementary_divisors],
        "free_rank": report.free_rank,
        "torsion_summands": [str(d) for d in report.torsion_summands],
        "parity_even": report.parity_even,
    }
