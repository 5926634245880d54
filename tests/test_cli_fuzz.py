"""Seeded mutation fuzz of the command line front end.

Each trial takes one document (a fixture, the star subdivision of P^2 at a
maximal cone, or an element on that subdivision), replaces or deletes one
node of its JSON tree, writes it out and runs every verb that reads that
kind of document in process.  Whatever the mutation, no exception may
escape ``cli.main`` and the exit code must be one of the documented 0/1/2/3.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from fanpoly.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BUNDLE = str(FIXTURES / "p2_divisor.bundle.json")
P2 = str(FIXTURES / "p2.fan.json")

ELEMENT = {
    "kind": "ppelement",
    "parts": {
        "0,1;1,1": [[[1, 0], "1"]],
        "1,0;1,1": [[[1, 0], "1"]],
        "-1,-1;0,1": [[[0, 0], "7"]],
        "-1,-1;1,0": [],
    },
}

VALUES = (None, -1, 1.5, "x", True, [], {}, [[1, 0]])
TRIALS = 200


def verbs(kind, path, original, sub, elem):
    """Command lines for every verb that reads ``path``, a document of ``kind``."""
    if kind == "bundle":
        return [["chern", P2, path, "--index", "1"]]
    if kind == "multifan":
        return [["validate", path], ["mpp-basis", path, "--degree", "1"]]
    if kind == "subdivision":
        return [["validate", path], ["pullback-check", path, elem]]
    if kind == "ppelement":
        return [["pullback-check", sub, path]]
    ray = ",".join(map(str, original["maximal_cones"][0][0]))
    return [
        ["validate", path],
        ["pp-basis", path, "--degree", "1"],
        ["gkm-check", path, "--degree", "1"],
        ["sr-hilbert", path, "--degree", "1"],
        ["mv-h3", path],
        ["courant", path, "--ray", ray],
        ["chern", path, BUNDLE, "--index", "1"],
    ]


def node_paths(doc, prefix=()):
    """Key paths of every node below the root, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from node_paths(value, prefix + (key,))


def mutate(doc, rng):
    """A copy of ``doc`` with one node replaced or deleted, and what was done."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(node_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.25:
        del parent[path[-1]]
        return doc, f"delete {path!r}"
    value = copy.deepcopy(rng.choice(VALUES))
    parent[path[-1]] = value
    return doc, f"set {path!r} to {value!r}"


def test_mutated_documents_keep_the_exit_code_contract(tmp_path, capsys):
    assert main(["subdivide", P2, "--target", "0,1;1,0", "--json"]) == 0
    sub = tmp_path / "p2_star.subdivision.json"
    sub.write_text(capsys.readouterr().out)
    elem = tmp_path / "p2_star.ppelement.json"
    elem.write_text(json.dumps(ELEMENT))
    assert main(["pullback-check", str(sub), str(elem)]) == 1
    capsys.readouterr()

    rng = random.Random(2024)
    sources = sorted(FIXTURES.glob("*.json")) + [sub, elem]
    for trial in range(TRIALS):
        source = rng.choice(sources)
        original = json.loads(source.read_text())
        doc, change = mutate(original, rng)
        path = tmp_path / f"{trial}.{source.name}"
        path.write_text(json.dumps(doc))
        for argv in verbs(original["kind"], str(path), original, str(sub), str(elem)):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:
                pytest.fail(f"{argv[0]} on {source.name} after {change}: {e!r}")
            capsys.readouterr()
            assert code in (0, 1, 2, 3), f"{argv[0]} on {source.name} after {change}: {code!r}"
