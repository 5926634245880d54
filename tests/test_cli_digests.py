"""Byte-identical command line output on every fixture.

`cli_digests.json` holds, for each invocation below, the exit code and
the sha256 of stdout and of stderr as the command line printed them when
the file was recorded.  Any change to a canonical basis, id, report,
error message or exit code shows up here as a digest mismatch.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fanpoly.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((Path(__file__).resolve().parent / "cli_digests.json").read_text())

FANS = ["blp2", "cube", "diamond", "p1", "p1xp1", "p2"]
MULTIFANS = ["doubled_cone", "hypertoric_3lines"]


def _fan(name):
    return f"fixtures/{name}.fan.json"


def _multifan(name):
    return f"fixtures/{name}.multifan.json"


def _rays(name):
    doc = json.loads((ROOT / _fan(name)).read_text())
    return sorted({tuple(ray) for cone in doc["maximal_cones"] for ray in cone})


def invocations():
    """Every argv the digests cover, paths relative to the repository root."""
    out = [["validate", _fan(f), "--json"] for f in FANS]
    out += [["validate", _multifan(m), "--json"] for m in MULTIFANS]
    for verb in ("pp-basis", "gkm-check", "sr-hilbert"):
        out += [[verb, _fan(f), "--degree", str(k), "--json"] for f in FANS for k in range(4)]
    out += [["mv-h3", _fan(f), "--json"] for f in FANS]
    out += [["mpp-basis", _multifan(m), "--degree", str(k), "--json"] for m in MULTIFANS for k in range(4)]
    out += [
        ["chern", _fan("p2"), "fixtures/p2_divisor.bundle.json", "--index", str(i), "--json"]
        for i in range(3)
    ]
    for f in ("p2", "diamond"):
        out += [["courant", _fan(f), "--ray=" + ",".join(map(str, r)), "--json"] for r in _rays(f)]
    out += [
        ["subdivide", _fan(f), "--target", target, "--json"]
        for f, target in (("p2", "0,1;1,0"), ("p1xp1", "0,1;1,0"), ("cube", "1,1,-1;1,1,1"))
    ]
    # descends, same-polynomial, integrality, and an element that is not
    # compatible on the refinement
    sub = "fixtures/p2_blowup.subdivision.json"
    out += [
        ["pullback-check", sub, f"fixtures/blp2_{e}.element.json", "--json"]
        for e in ("descends", "kink", "half", "incompatible")
    ]
    bundle = "fixtures/p2_incompatible.bundle.json"
    out.append(["chern", _fan("p2"), bundle, "--index", "1", "--json"])
    hypertoric = ["hypertoric", "--rank", "2", "--vectors=1,0;0,1;1,1"]
    out += [hypertoric, hypertoric + ["--json"]]
    # the human summaries, one invocation of every other verb
    out += [
        ["validate", _fan("p2")],
        ["pp-basis", _fan("p2"), "--degree", "2"],
        ["mpp-basis", _multifan("hypertoric_3lines"), "--degree", "2"],
        ["gkm-check", _fan("p2"), "--degree", "2"],
        ["chern", _fan("p2"), "fixtures/p2_divisor.bundle.json", "--index", "1"],
        ["courant", _fan("p2"), "--ray=-1,-1"],
        ["sr-hilbert", _fan("p2"), "--degree", "2"],
        ["mv-h3", _fan("blp2")],
        ["subdivide", _fan("p2"), "--target", "0,1;1,0"],
        ["pullback-check", sub, "fixtures/blp2_kink.element.json"],
    ]
    return out


def run(argv, capsys):
    """Exit code and sha256 of stdout and stderr of one in-process run."""
    code = main(argv)
    captured = capsys.readouterr()
    return {
        "exit": code,
        "stdout": hashlib.sha256(captured.out.encode()).hexdigest(),
        "stderr": hashlib.sha256(captured.err.encode()).hexdigest(),
    }


def test_digests_cover_every_invocation():
    assert sorted(DIGESTS) == sorted(" ".join(argv) for argv in invocations())


@pytest.mark.parametrize("argv", invocations(), ids=" ".join)
def test_output_is_byte_identical(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run(argv, capsys) == DIGESTS[" ".join(argv)]
