"""The two workloads of the fanpoly benchmark: set-up, jobs and checks.

Each ``setup_<workload>(seed, workdir)`` imports fanpoly afresh, generates
its inputs from the seed (see gen.py), builds whatever the jobs run on, and
returns the jobs of one round.  Jobs reach the library through module
attributes at call time, so an outside-in tracer that rebinds those
attributes sees every call.

P^7 is left out of the geometry ladder: validating it takes about 11 s, as
long as a whole round of everything else.

Every job's answer is checked against a seed-independent invariant stated
here (verdicts, face counts, graded ranks, elementary divisors) or an
independent oracle (face-ring counts); ``Job.check`` raises CheckFailed or
returns the job's canonical output text, whose digest is compared across
rounds and, for DEFAULT_SEED, against EXPECTED_DIGEST.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable

import gen

DEFAULT_SEED = 0

# sha256 over one round's canonical output (run.round_digest), at DEFAULT_SEED
EXPECTED_DIGEST = {
    "geometry": "e17124d78c73955a9e6f35803d176eff94c83e1fcba1a0bc0b53a7f30e8c4c79",
    "ring": "493d56efacb61beeb664fd44af61a401606452e8dc16de630c5745c4cd1642fb",
}

# The ROADMAP hot spots, reported by name (job family) on every run.
HOT_SPOTS = {
    "geometry": ("validate:P6", "validate:cone13"),
    "ring": ("pp_basis:p3sub6:k4", "mpp_basis:ht9:k2"),
}


class CheckFailed(Exception):
    """A job's answer contradicts what the benchmark knows it must be."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Job:
    name: str
    family: str  # jobs differing only in their seeded instance share one
    run: Callable[[], object]
    check: Callable[[object], str]


def _import_fanpoly():
    import fanpoly
    import fanpoly.cli
    import fanpoly.jsonio

    return fanpoly


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# ------------------------------------------------------------ geometry


def _cli_job(fp, name, family, path, check):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = fp.cli.main(["validate", str(path), "--json"])
            except SystemExit as e:  # argparse usage errors
                code = e.code
        return code, out.getvalue(), err.getvalue()

    return Job(name, family, run, check)


def _accepts(want):
    def check(answer):
        code, out, err = answer
        expect(code == 0, f"exit code {code}, expected 0: {err.strip()}")
        got = json.loads(out)
        expect(got == want, f"validation {got} != {want}")
        return f"{code}\n{out}{err}"

    return check


def _rejects(answer):
    code, out, err = answer
    expect(code == 1, f"exit code {code}, expected 1 for a non-fan: {err.strip()}")
    expect("do not meet in a common face" in err, f"unexpected message {err.strip()!r}")
    return f"{code}\n{out}{err}"


def _fan_verdict(maximal, cones, complete):
    return {
        "kind": "validation",
        "of": "fan",
        "ok": True,
        "maximal_cones": maximal,
        "cones": cones,
        "complete": complete,
    }


def _sphere_verdict(facets):
    """A complete simplicial fan in R^3 is a triangulated 2-sphere, so its
    face numbers follow from the number of facets (Euler: V - E + F = 2)."""
    return _fan_verdict(facets, 1 + (facets // 2 + 2) + 3 * facets // 2 + facets, True)


# hypertoric configuration size -> (nodes, maximal nodes)
HYPERTORIC_NODES = {5: (24, 8), 7: (58, 29), 9: (116, 70)}


def _non_fans(rng):
    """Five fan documents with two overlapping maximal cones, before the
    seeded GL_n(Z) image: (name, ambient rank, cones).  Validation stops at
    the first bad pair, whose place in the canonical cone order depends on
    the seed, so all five are kept small: their cost then stays below the
    median job whatever that place is."""
    poly8 = gen.polygon_rays(8)
    crossing16 = gen.polygon_fan(16)
    crossing16[3] = [crossing16[3][0], crossing16[4][1]]
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cone10 = gen.polygon_cone(10)[0]
    p3sub = gen.subdivided_p3(rng, 2)
    keys = {tuple(sorted(c)) for c in p3sub}
    coarse = [c for c in gen.projective_space(3) if tuple(sorted(c)) not in keys]
    return [
        ("nonfan:poly8", 2, gen.polygon_fan(8) + [[poly8[0], poly8[2]]]),
        ("nonfan:poly16", 2, crossing16),
        ("nonfan:P3", 3, gen.projective_space(3) + [[(1, 1, 0), e[1], e[2]]]),
        ("nonfan:cone10", 3, [cone10, cone10[:3]]),
        ("nonfan:p3sub2", 3, p3sub + coarse[:1]),
    ]


def setup_geometry(seed, workdir):
    """CLI ``validate --json`` on 25 fan and multifan documents written to
    ``workdir``; one document in five is a non-fan and must exit 1."""
    fp = _import_fanpoly()
    rng = random.Random(seed)
    docs = []  # (name, ambient rank, cones, check)
    for n in (4, 5, 6):
        cones = gen.transform_cones(rng, n, gen.projective_space(n))
        docs.append((f"validate:P{n}", n, cones, _accepts(_fan_verdict(n + 1, 2 ** (n + 1) - 1, True))))
    for m in (8, 16, 24):
        cones = gen.transform_cones(rng, 2, gen.polygon_fan(m))
        docs.append((f"validate:poly{m}", 2, cones, _accepts(_fan_verdict(m, 2 * m + 1, True))))
    for s in range(2, 7):
        cones = gen.transform_cones(rng, 3, gen.subdivided_p3(rng, s))
        docs.append((f"validate:p3sub{s}", 3, cones, _accepts(_sphere_verdict(4 + 2 * s))))
    for m in range(10, 14):
        cones = gen.transform_cones(rng, 3, gen.polygon_cone(m))
        docs.append((f"validate:cone{m}", 3, cones, _accepts(_fan_verdict(1, 2 * m + 2, False))))
    for name, n, cones in _non_fans(rng):
        docs.append((name, n, gen.transform_cones(rng, n, cones), _rejects))

    jobs = []
    for name, n, cones, check in docs:
        path = Path(workdir) / f"{name.replace(':', '_')}.json"
        path.write_text(json.dumps(gen.fan_document(n, cones)))
        jobs.append(_cli_job(fp, name, name, path, check))
    for v, images in ((5, 3), (7, 2)):
        nodes, maximal = HYPERTORIC_NODES[v]
        want = {"kind": "validation", "of": "multifan", "ok": True,
                "nodes": nodes, "maximal_nodes": maximal}
        for i in range(images):
            doc = gen.hypertoric_document(rng, gen.transform_vectors(rng, gen.HYPERTORIC[v]))
            path = Path(workdir) / f"validate_ht{v}.{i}.json"
            path.write_text(json.dumps(doc))
            jobs.append(_cli_job(fp, f"validate:ht{v}.{i}", f"validate:ht{v}", path, _accepts(want)))
    return jobs


# ---------------------------------------------------------------- ring

# seeded subdivisions of P^3 per round: their degree-4 bases cost 0.33 to
# 0.6 s depending on the seed (HNF entries reach 5 to 129 bits), and they
# sit next to the 90th percentile, so six keep job_p90_ms from following
# one or two of them
P3_INSTANCES = 6

# graded ranks at degrees 1..4; invariant under GL_n(Z), cone order, and
# (for 2-spheres with 16 facets) the choice of subdivision targets
PP_RANKS = {
    "p3sub6": (10, 34, 74, 130),
    "poly24": (24, 48, 72, 96),
    "cube": (4, 11, 23, 41),
    "diamond": (4, 8, 12, 16),
}
SIMPLICIAL = {"p3sub6", "poly24", "diamond"}
ELEMENTARY_DIVISORS = {"poly24": (1,) * 24, "diamond": (1, 1, 1, 2)}


def _dual_basis(gens):
    """Rows of the inverse of the matrix with columns ``gens`` (a lattice
    basis), i.e. the characters dual to the rays of a smooth cone."""
    n = len(gens)
    a = [[Fraction(gens[j][i]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    inv = [row[n:] for row in a]
    expect(all(x.denominator == 1 for row in inv for x in row), "cone is not smooth")
    return [tuple(int(x) for x in row) for row in inv]


def _prime(cones):
    """Compute the lazily cached quotient lattices during set-up, so that the
    first round is as warm as the others."""
    for cone in cones:
        cone.quotient


def _tangent_bundle(fp, fan):
    data = {}
    for cone in fan.maximal_cones:
        data[cone.id_str] = [cone.quotient.reduce(u) for u in _dual_basis(cone.generators)]
    return fp.bundle_validate(fan, data)


def setup_ring(seed, workdir):
    """Ring computations on fans and multifans built here."""
    fp = _import_fanpoly()
    rng = random.Random(seed)
    return _fan_jobs(fp, rng) + _multifan_jobs(fp, rng)


def _fan_jobs(fp, rng):
    """Graded bases, the wall-graph comparison, surface torsion,
    characteristic classes, and a pullback round trip along a star
    subdivision, on complete fans."""
    jsonio = fp.jsonio

    def build(n, cones):
        return fp.Fan(n, [fp.Cone(n, g) for g in gen.transform_cones(rng, n, cones)])

    fans = {f"p3sub6.{i}": build(3, gen.subdivided_p3(rng, 6)) for i in range(P3_INSTANCES)}
    fans["poly24"] = build(2, gen.polygon_fan(24))
    fans["cube"] = build(3, gen.cube())
    fans["diamond"] = build(2, gen.diamond())

    base = fans["p3sub6.0"]
    targets = sorted((f for f, _ in base.face_index.values() if f.dim >= 2), key=lambda f: f.key)
    _, subdivision = fp.star_subdivision(base, rng.choice(targets))
    pull_elements = fp.pp_basis(base, 2).elements
    for fan in [*fans.values(), subdivision.source]:
        _prime([f for f, _ in fan.face_index.values()] + list(fan.pair_faces.values()))
    bundles = {name: _tangent_bundle(fp, fans[name]) for name in ("p3sub6.0", "poly24")}

    @cache
    def face_ring(name, k):
        return fp.sr_hilbert(fans[name], k)

    def family_of(name):
        return name.split(".")[0]

    jobs = []
    for name, fan in fans.items():
        fam = family_of(name)
        for k in range(1, 5):
            def check(gb, name=name, fam=fam, k=k):
                expect(gb.rank == PP_RANKS[fam][k - 1], f"rank {gb.rank} != {PP_RANKS[fam][k - 1]}")
                if fam in SIMPLICIAL:
                    expect(gb.rank == face_ring(name, k), "rank differs from the face-ring count")
                return _canonical(jsonio.graded_basis_to_json(gb))

            jobs.append(Job(f"pp_basis:{name}:k{k}", f"pp_basis:{fam}:k{k}",
                            lambda fan=fan, k=k: fp.pp_basis(fan, k), check))
    for name, fan in fans.items():
        def check(match):
            expect(match is True, "wall conditions differ from the piecewise ring")
            return "true"

        jobs.append(Job(f"gkm_compare:{name}:k2", f"gkm_compare:{family_of(name)}:k2",
                        lambda fan=fan: fp.gkm_compare(fan, 2), check))
    for name in ("poly24", "diamond"):
        def check(report, name=name):
            want = ELEMENTARY_DIVISORS[name]
            expect(report.elementary_divisors == want,
                   f"divisors {report.elementary_divisors} != {want}")
            return _canonical(jsonio.torsion_report_to_json(report))

        jobs.append(Job(f"h3_torsion:{name}", f"h3_torsion:{name}",
                        lambda fan=fans[name]: fp.h3_torsion(fan), check))
    for name, bundle in bundles.items():
        def check(classes, bundle=bundle):
            expect(len(classes) == bundle.rank + 1, "wrong number of classes")
            for i, c in enumerate(classes):
                expect(not c.is_zero(), f"class {i} vanishes")
                expect(all(p.is_homogeneous(i) for p in c.parts.values()),
                       f"class {i} is not homogeneous of degree {i}")
            return _canonical([jsonio.ppelement_to_json(c) for c in classes])

        jobs.append(Job(f"total_chern:{name}", f"total_chern:{family_of(name)}",
                        lambda bundle=bundle: fp.total_chern(bundle), check))

    def round_trip():
        out = []
        for b in pull_elements:
            pulled = fp.pp_pullback(subdivision, b)
            out.append((pulled, fp.pp_is_pullback(subdivision, pulled)))
        return out

    def check_round_trip(out):
        expect(len(out) == PP_RANKS["p3sub6"][1], "wrong number of basis elements")
        for b, (pulled, (back, failure)) in zip(pull_elements, out):
            expect(failure is None, f"pullback does not descend: {failure}")
            expect(back == b, "round trip changed the element")
        return _canonical([jsonio.ppelement_to_json(p) for p, _ in out])

    jobs.append(Job("pullback:p3sub6.0:k2", "pullback:p3sub6:k2", round_trip, check_round_trip))
    return jobs


# configuration size -> seeded GL_3(Z) images per round; the 9-vector
# configuration is the ROADMAP instance and runs once, at its own coordinates
HYPERTORIC_IMAGES = {5: 2, 7: 4}
MPP_RANKS = {5: (5, 15), 7: (7, 28), 9: (9, 45)}


def _multifan_jobs(fp, rng):
    """Graded bases at degrees 1 and 2 of hypertoric multifans."""
    jsonio = fp.jsonio
    instances = [
        (v, f"ht{v}.{i}", gen.transform_vectors(rng, gen.HYPERTORIC[v]))
        for v, images in HYPERTORIC_IMAGES.items()
        for i in range(images)
    ]
    instances.append((9, "ht9", gen.HYPERTORIC[9]))
    multifans = []
    for v, name, vecs in instances:
        mf = jsonio.multifan_from_json(gen.hypertoric_document(rng, vecs))
        expect((len(mf.node_ids), len(mf.maximal_ids)) == HYPERTORIC_NODES[v],
               f"hypertoric {v}: wrong node counts")
        _prime(mf.cones.values())
        multifans.append((v, name, mf))

    jobs = []
    for v, name, mf in multifans:
        for k in (1, 2):
            def check(gb, v=v, k=k):
                want = MPP_RANKS[v][k - 1]
                expect(gb.rank == want, f"rank {gb.rank} != {want}")
                return _canonical(jsonio.graded_basis_to_json(gb))

            jobs.append(Job(f"mpp_basis:{name}:k{k}", f"mpp_basis:ht{v}:k{k}",
                            lambda mf=mf, k=k: fp.mpp_basis(mf, k), check))
    return jobs


SETUPS = {
    "geometry": setup_geometry,
    "ring": setup_ring,
}
