"""Command line front end.

Each verb reads JSON documents, runs one library operation, and returns
its human summary lines and a function that builds its machine document;
the summary is printed on stdout, or with --json the document, built only
then.  Exit codes: 0 on success, 1 when the mathematics rejects the
input (a validation error), 2 for usage errors, 3 for unreadable files or
malformed documents.

The environment variable FANPOLY_MAX_DEGREE caps the --degree arguments
(default 4); graded pieces grow quickly and the cap keeps accidental huge
computations from starting.  It is read on every call, while the argument
parser is built once per process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .chern import bundle_validate, chern_class
from .errors import FanPolyError, FormatError
from .fans import Fan, is_complete, star_subdivision
from .gkm import gkm_compare
from .jsonio import (
    bundle_characters_from_json,
    fan_from_json,
    graded_basis_to_json,
    multifan_from_json,
    multifan_to_json,
    ppelement_parts_from_json,
    ppelement_to_json,
    read_json_file,
    subdivision_from_json,
    subdivision_to_json,
    torsion_report_to_json,
)
from .mayer_vietoris import h3_torsion
from .multifans import hypertoric_multifan
from .ppring import pp_basis, pp_is_pullback, pp_validate
from .stanley_reisner import courant_function, sr_hilbert


def _parse_vector(text: str, what: str, length: int):
    try:
        vector = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise FormatError(f"{what}: expected comma separated integers, got {text!r}")
    if len(vector) != length:
        raise FormatError(f"{what}: {text!r} does not have length {length}")
    return vector


def _load_fan(path: str) -> Fan:
    return fan_from_json(read_json_file(path))


def _cmd_validate(args):
    doc = read_json_file(args.file)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "fan":
        fan = fan_from_json(doc)
        # the maximal cones carry their face keys, whose union is the face_index keys
        faces = len(frozenset().union(*(c.face_keys() for c in fan.maximal_cones)))
        complete = is_complete(fan)
        lines = [
            f"fan: {len(fan.maximal_cones)} maximal cones, {faces} cones in total",
            f"complete: {'yes' if complete else 'no'}",
        ]
        return lines, lambda: {
            "kind": "validation",
            "of": "fan",
            "ok": True,
            "maximal_cones": len(fan.maximal_cones),
            "cones": faces,
            "complete": complete,
        }
    if kind == "multifan":
        mf = multifan_from_json(doc)
        return [f"multifan: {len(mf.node_ids)} nodes, {len(mf.maximal_ids)} maximal"], lambda: {
            "kind": "validation",
            "of": "multifan",
            "ok": True,
            "nodes": len(mf.node_ids),
            "maximal_nodes": len(mf.maximal_ids),
        }
    if kind == "subdivision":
        m = subdivision_from_json(doc)
        lines = [
            f"subdivision: {len(m.source.maximal_cones)} cones refine "
            f"{len(m.target.maximal_cones)}",
        ]
        return lines, lambda: {
            "kind": "validation",
            "of": "subdivision",
            "ok": True,
            "source_cones": len(m.source.maximal_cones),
            "target_cones": len(m.target.maximal_cones),
        }
    raise FormatError(f"cannot validate documents of kind {kind!r}")


def _cmd_basis(args):
    gb = pp_basis(args.read(read_json_file(args.file)), args.degree)
    return [f"degree {gb.degree} rank {gb.rank}"], lambda: graded_basis_to_json(gb)


def _cmd_gkm_check(args):
    match = gkm_compare(_load_fan(args.file), args.degree)
    return [f"degree {args.degree} match {'yes' if match else 'no'}"], lambda: {
        "kind": "gkm_check",
        "degree": args.degree,
        "match": match,
    }


def _cmd_chern(args):
    fan = _load_fan(args.fan)
    chars = bundle_characters_from_json(read_json_file(args.bundle))
    bundle = bundle_validate(fan, chars)
    elem = chern_class(bundle, args.index)
    lines = [f"rank {bundle.rank} bundle, class {args.index}"]
    for cid, part in elem.parts.items():
        lines.append(f"  {cid}: {part!r}")
    return lines, lambda: {**ppelement_to_json(elem), "class_index": args.index}


def _cmd_courant(args):
    fan = _load_fan(args.file)
    phi = courant_function(fan, _parse_vector(args.ray, "--ray", fan.ambient_rank))
    lines = [
        f"ray {','.join(str(x) for x in phi.ray)}",
        f"integral: {'yes' if phi.is_integral else 'no'}",
    ]
    if phi.nonintegral_cones:
        lines.append("nonintegral on: " + "  ".join(phi.nonintegral_cones))
    return lines, lambda: {
        "kind": "courant",
        "ray": list(phi.ray),
        "integral": phi.is_integral,
        "nonintegral_cones": list(phi.nonintegral_cones),
        "element": ppelement_to_json(phi.element),
    }


def _cmd_sr_hilbert(args):
    count = sr_hilbert(_load_fan(args.file), args.degree)
    return [f"degree {args.degree} count {count}"], lambda: {
        "kind": "sr_hilbert",
        "degree": args.degree,
        "count": count,
    }


def _cmd_mv_h3(args):
    report = h3_torsion(_load_fan(args.file))
    divisors = " ".join(str(d) for d in report.elementary_divisors)
    torsion = (
        " + ".join(f"Z/{d}" for d in report.torsion_summands)
        if report.torsion_summands
        else "none"
    )
    lines = [
        f"elementary divisors: {divisors}",
        f"torsion: {torsion}",
        f"free rank: {report.free_rank}",
        f"even-column certificate: {'yes' if report.parity_even else 'no'}",
    ]
    return lines, lambda: torsion_report_to_json(report)


def _cmd_subdivide(args):
    fan = _load_fan(args.file)
    target = fan.cone_by_id(args.target)
    point = _parse_vector(args.point, "--point", fan.ambient_rank) if args.point else None
    refined, m = star_subdivision(fan, target, point)
    lines = [f"{len(refined.maximal_cones)} cones refine {len(fan.maximal_cones)}"]
    return lines, lambda: subdivision_to_json(m)


def _cmd_pullback_check(args):
    m = subdivision_from_json(read_json_file(args.subdivision))
    parts = ppelement_parts_from_json(m.source, read_json_file(args.element))
    descended, failure = pp_is_pullback(m, pp_validate(m.source, parts))

    def document():
        doc = {"kind": "pullback_check", "descends": failure is None}
        if failure is None:
            return {**doc, "element": ppelement_to_json(descended)}
        return {
            **doc,
            "cone_id": failure.cone_id,
            "condition": failure.condition,
            "detail": failure.detail,
        }

    if failure is None:
        return ["descends: yes"], document
    return ["descends: no", f"cone: {failure.cone_id}", f"condition: {failure.condition}"], document


def _cmd_hypertoric(args):
    if args.rank < 0:
        raise FormatError(f"--rank must be nonnegative, got {args.rank}")
    vectors = [
        _parse_vector(chunk, "--vectors", args.rank)
        for chunk in args.vectors.split(";")
        if chunk
    ]
    mf = hypertoric_multifan(args.rank, vectors)
    lines = [f"{len(mf.node_ids)} nodes, {len(mf.maximal_ids)} maximal"]
    return lines, lambda: multifan_to_json(mf)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fanpoly",
        description="piecewise polynomial rings on rational fans and multifans",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, help_text, run):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.set_defaults(run=run)
        return p

    p = add("validate", "check a fan, multifan, or subdivision document", _cmd_validate)
    p.add_argument("file")

    p = add("pp-basis", "graded basis of the piecewise ring of a fan", _cmd_basis)
    p.set_defaults(read=fan_from_json)
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)

    p = add("mpp-basis", "graded basis of the piecewise ring of a multifan", _cmd_basis)
    p.set_defaults(read=multifan_from_json)
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)

    p = add("gkm-check", "compare wall conditions against the piecewise ring", _cmd_gkm_check)
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)

    p = add("chern", "characteristic class of a character multiset bundle", _cmd_chern)
    p.add_argument("fan")
    p.add_argument("bundle")
    p.add_argument("--index", type=int, required=True)

    p = add("courant", "piecewise linear dual function of a ray", _cmd_courant)
    p.add_argument("file")
    p.add_argument("--ray", required=True, help="comma separated, e.g. --ray=-1,-1")

    p = add("sr-hilbert", "face-ring monomial count of a simplicial fan", _cmd_sr_hilbert)
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)

    p = add("mv-h3", "cokernel torsion of the wall restriction matrix", _cmd_mv_h3)
    p.add_argument("file")

    p = add("subdivide", "star subdivision at a cone of the fan", _cmd_subdivide)
    p.add_argument("file")
    p.add_argument("--target", required=True, help="cone id, e.g. --target=-1,-1;0,1")
    p.add_argument("--point", help="interior point, comma separated, e.g. --point=-1,0")

    p = add("pullback-check", "does an element descend along a subdivision", _cmd_pullback_check)
    p.add_argument("subdivision")
    p.add_argument("element")

    p = add("hypertoric", "multifan of independent subsets of vectors", _cmd_hypertoric)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--vectors", required=True, help="semicolon separated, e.g. --vectors=-1,0;0,1")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    degree = getattr(args, "degree", None)
    if degree is not None:
        raw_cap = os.environ.get("FANPOLY_MAX_DEGREE", "4")
        try:
            cap = int(raw_cap)
        except ValueError:
            parser.error(f"FANPOLY_MAX_DEGREE must be an integer, got {raw_cap!r}")
        if degree < 0:
            parser.error("--degree must be nonnegative")
        if degree > cap:
            parser.error(
                f"--degree {degree} exceeds the cap {cap} (set FANPOLY_MAX_DEGREE to raise it)"
            )

    try:
        lines, document = args.run(args)
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except FanPolyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(document(), sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
