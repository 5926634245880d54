"""Exit codes and document round trips of the command line front end."""

import json
from pathlib import Path

import pytest

from fanpoly import cli
from fanpoly.cli import main
from fanpoly.cones import Cone

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def test_validate_fan_ok(capsys):
    assert main(["validate", fx("p2.fan.json")]) == 0
    out = capsys.readouterr().out
    assert "3 maximal cones" in out
    assert "complete: yes" in out


@pytest.mark.parametrize("name", ["cube.fan.json", "blp2.fan.json"])
def test_validate_builds_only_the_maximal_cones(name, monkeypatch, capsys):
    """Faces are counted off face keys and completeness off facets: no face Cone."""
    built = []
    init = Cone.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Cone, "__init__", counting_init)
    assert main(["validate", "--json", fx(name)]) == 0
    monkeypatch.undo()
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert len(built) == len(json.loads(Path(fx(name)).read_text())["maximal_cones"])


def test_validate_multifan_ok(capsys):
    assert main(["validate", fx("hypertoric_3lines.multifan.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["nodes"] == 7


def test_validate_broken_fan_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "fan",
                "ambient_rank": 2,
                "maximal_cones": [
                    [[1, 0], [0, 1]],
                    [[1, 1], [-1, 1]],
                ],
            }
        )
    )
    assert main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_3(capsys):
    assert main(["validate", "/no/such/file.json"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        b"{not json",
        b"\xff",
        b"[" * 200_000 + b"]" * 200_000,
        # past the integer digit limit; without one, the fan has no cones
        b'{"kind": "fan", "ambient_rank": 1' + b"0" * 5000 + b"}",
    ],
    ids=["syntax", "not_utf8", "deep_nesting", "long_integer"],
)
def test_malformed_json_exits_3(tmp_path, capsys, content):
    f = tmp_path / "junk.json"
    f.write_bytes(content)
    assert main(["validate", str(f)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_wrong_kind_exits_3(capsys):
    assert main(["pp-basis", fx("doubled_cone.multifan.json"), "--degree", "1"]) == 3
    capsys.readouterr()
    # the two basis verbs share a handler; each reads with its own kind's reader
    assert main(["mpp-basis", fx("p2.fan.json"), "--degree", "1"]) == 3
    assert "expected kind 'multifan', got 'fan'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"kind": "fan", "ambient_rank": 2, "maximal_cones": [[[1, 0], [0, 1, 3]]]},
            "does not have length 2",
        ),
        ({"kind": "fan", "ambient_rank": -1, "maximal_cones": [[]]}, "nonnegative"),
        (
            {"kind": "multifan", "ambient_rank": 2, "nodes": {"o": [], "x": [[1]]}, "covers": []},
            "does not have length 2",
        ),
        ({"kind": "multifan", "ambient_rank": -1, "nodes": {"o": []}, "covers": []}, "nonnegative"),
    ],
)
def test_malformed_cone_document_exits_3(tmp_path, capsys, doc, message):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f), "--json"]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cover", [["x", [[1, 0]]], [{}, "top"]])
@pytest.mark.parametrize("verb", [["validate"], ["mpp-basis", "--degree", "1"]])
def test_cover_with_non_string_node_exits_3(tmp_path, capsys, cover, verb):
    doc = json.loads(Path(fx("doubled_cone.multifan.json")).read_text())
    doc["covers"][0] = cover
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    assert main([verb[0], str(f), *verb[1:]]) == 3
    err = capsys.readouterr().err
    assert "must pair two node ids" in err
    assert "Traceback" not in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cached_parser_carries_no_state(monkeypatch, capsys):
    """main reuses one parser per process; each call exits and prints exactly
    what a parser built fresh for it gives, whatever ran before."""
    p2 = fx("p2.fan.json")
    calls = [
        (["no-such-verb"], None),
        (["pp-basis", p2, "--degree", "5"], None),
        (["pp-basis", p2, "--degree", "5"], "5"),
        (["validate", p2, "--json"], None),
    ]

    def run_all():
        outcomes = []
        for argv, cap in calls:
            if cap is None:
                monkeypatch.delenv("FANPOLY_MAX_DEGREE", raising=False)
            else:
                monkeypatch.setenv("FANPOLY_MAX_DEGREE", cap)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            outcomes.append((code, out.out, out.err))
        return outcomes

    assert cli.build_parser() is cli.build_parser()
    cached = run_all()
    assert run_all() == cached
    assert [code for code, _, _ in cached] == [2, 2, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert run_all() == cached


def test_pp_basis_json(capsys):
    assert main(["pp-basis", fx("p2.fan.json"), "--degree", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "graded_basis"
    assert doc["rank"] == 6
    assert len(doc["elements"]) == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["pp-basis", fx("cube.fan.json"), "--degree", "3"],
        ["mpp-basis", fx("hypertoric_3lines.multifan.json"), "--degree", "2"],
        ["courant", fx("p2.fan.json"), "--ray=-1,-1"],
        ["subdivide", fx("p2.fan.json"), "--target", "0,1;1,0"],
        ["pullback-check", fx("p2_blowup.subdivision.json"), fx("blp2_descends.element.json")],
    ],
    ids=lambda argv: argv[0],
)
def test_summary_builds_no_document(argv, monkeypatch, capsys):
    """Without --json only the summary lines are printed, and no document is built."""

    def refuse(*args):
        raise AssertionError("document built without --json")

    for name in ("graded_basis_to_json", "ppelement_to_json", "subdivision_to_json"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_degree_cap_default(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pp-basis", fx("p2.fan.json"), "--degree", "5"])
    assert exc.value.code == 2


def test_degree_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("FANPOLY_MAX_DEGREE", "6")
    assert main(["sr-hilbert", fx("p2.fan.json"), "--degree", "5"]) == 0
    assert "count 15" in capsys.readouterr().out
    monkeypatch.setenv("FANPOLY_MAX_DEGREE", "1")
    with pytest.raises(SystemExit) as exc:
        main(["sr-hilbert", fx("p2.fan.json"), "--degree", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "cap, argv, code, out, err",
    [
        (
            None,
            ["validate", "--json", fx("p2_blowup.subdivision.json")],
            0,
            '{"kind": "validation", "of": "subdivision", "ok": true, '
            '"source_cones": 4, "target_cones": 3}\n',
            "",
        ),
        ("x", ["pp-basis", fx("p2.fan.json"), "--degree", "1"], 2, "",
         "FANPOLY_MAX_DEGREE must be an integer, got 'x'"),
        ("1.5", ["sr-hilbert", fx("p2.fan.json"), "--degree", "1"], 2, "",
         "FANPOLY_MAX_DEGREE must be an integer, got '1.5'"),
    ],
    ids=["validate_subdivision_json", "cap_not_a_number", "cap_not_an_integer"],
)
def test_outcomes_of_rare_branches(cap, argv, code, out, err, monkeypatch, capsys):
    if cap is None:
        monkeypatch.delenv("FANPOLY_MAX_DEGREE", raising=False)
    else:
        monkeypatch.setenv("FANPOLY_MAX_DEGREE", cap)
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    printed = capsys.readouterr()
    assert got == code
    assert printed.out == out
    assert err in printed.err and bool(printed.err) == bool(err)


def test_negative_degree_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["pp-basis", fx("p2.fan.json"), "--degree", "-1"])
    assert exc.value.code == 2


def test_gkm_check(capsys):
    assert main(["gkm-check", fx("diamond.fan.json"), "--degree", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"degree": 2, "kind": "gkm_check", "match": True}


def test_gkm_check_incomplete_exits_1(tmp_path, capsys):
    f = tmp_path / "half.json"
    f.write_text(
        json.dumps(
            {"kind": "fan", "ambient_rank": 2, "maximal_cones": [[[1, 0], [0, 1]]]}
        )
    )
    assert main(["gkm-check", str(f), "--degree", "1"]) == 1
    capsys.readouterr()


def test_chern_verb(capsys):
    code = main(
        ["chern", fx("p2.fan.json"), fx("p2_divisor.bundle.json"), "--index", "1", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class_index"] == 1
    assert doc["parts"]["0,1;1,0"] == [[[1, 0], "1"]]


def test_chern_incompatible_exits_1(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    bundle.write_text(
        json.dumps(
            {
                "kind": "bundle",
                "characters": {
                    "-1,-1;0,1": [[0, 0]],
                    "-1,-1;1,0": [[0, 0]],
                    "0,1;1,0": [[1, 0]],
                },
            }
        )
    )
    assert main(["chern", fx("p2.fan.json"), str(bundle), "--index", "1"]) == 1
    assert "restrict differently" in capsys.readouterr().err


@pytest.mark.parametrize(
    "characters, message",
    [
        ([[0, 0], [1, 0]], "bundle rank is ambiguous"),
        ([[1, 0, 0]], "has length 3, expected 2"),
    ],
)
def test_chern_malformed_bundle_exits_3(tmp_path, capsys, characters, message):
    bundle = tmp_path / "bundle.json"
    bundle.write_text(
        json.dumps(
            {
                "kind": "bundle",
                "characters": {
                    "-1,-1;0,1": [[0, 0]],
                    "-1,-1;1,0": [[0, 0]],
                    "0,1;1,0": characters,
                },
            }
        )
    )
    assert main(["chern", fx("p2.fan.json"), str(bundle), "--index", "1"]) == 3
    assert message in capsys.readouterr().err


def test_courant_json(capsys):
    assert main(["courant", fx("diamond.fan.json"), "--ray", "1,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["integral"] is False
    assert len(doc["nonintegral_cones"]) == 2
    parts = doc["element"]["parts"]
    assert parts["-1,1;1,1"] == [[[1, 0], "1/2"], [[0, 1], "1/2"]]


def test_courant_unknown_ray_exits_1(capsys):
    assert main(["courant", fx("p2.fan.json"), "--ray", "1,1"]) == 1
    capsys.readouterr()


def test_courant_bad_ray_text_exits_3(capsys):
    assert main(["courant", fx("p2.fan.json"), "--ray", "a,b"]) == 3
    capsys.readouterr()


def test_mv_h3_json(capsys):
    assert main(["mv-h3", fx("diamond.fan.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["elementary_divisors"] == ["1", "1", "1", "2"]
    assert doc["torsion_summands"] == ["2"]
    assert doc["parity_even"] is True
    assert main(["mv-h3", fx("p2.fan.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["torsion_summands"] == []


def test_mv_h3_wrong_rank_exits_1(capsys):
    assert main(["mv-h3", fx("cube.fan.json")]) == 1
    capsys.readouterr()


def test_subdivide_then_pullback_roundtrip(tmp_path, capsys):
    assert main(
        ["subdivide", fx("p2.fan.json"), "--target", "0,1;1,0", "--json"]
    ) == 0
    sub_doc = capsys.readouterr().out
    sub_file = tmp_path / "sub.json"
    sub_file.write_text(sub_doc)
    assert json.loads(sub_doc)["kind"] == "subdivision"

    kink = tmp_path / "kink.json"
    kink.write_text(
        json.dumps(
            {
                "kind": "ppelement",
                "parts": {
                    "0,1;1,1": [[[1, 0], "1"]],
                    "1,0;1,1": [[[0, 1], "1"]],
                    "-1,-1;0,1": [],
                    "-1,-1;1,0": [],
                },
            }
        )
    )
    assert main(["pullback-check", str(sub_file), str(kink), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["descends"] is False
    assert doc["condition"] == "same-polynomial"
    assert doc["cone_id"] == "0,1;1,0"

    const = tmp_path / "const.json"
    const.write_text(
        json.dumps(
            {
                "kind": "ppelement",
                "parts": {
                    "0,1;1,1": [[[0, 0], "7"]],
                    "1,0;1,1": [[[0, 0], "7"]],
                    "-1,-1;0,1": [[[0, 0], "7"]],
                    "-1,-1;1,0": [[[0, 0], "7"]],
                },
            }
        )
    )
    assert main(["pullback-check", str(sub_file), str(const), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["descends"] is True
    assert set(doc["element"]["parts"]) == {"-1,-1;0,1", "-1,-1;1,0", "0,1;1,0"}


def test_subdivide_missing_target_exits_1(capsys):
    assert main(["subdivide", fx("p2.fan.json"), "--target", "9,9;1,0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["hypertoric", "--rank", "2", "--vectors", "1,0;0,1,1"], 3, "does not have length 2"),
        (["hypertoric", "--rank", "-1", "--vectors", "1,0"], 3, "nonnegative"),
        (
            ["subdivide", fx("p2.fan.json"), "--target", "0,1;1,0", "--point", "1,1,1"],
            3,
            "does not have length 2",
        ),
        (["courant", fx("diamond.fan.json"), "--ray", "0,0"], 1, "not a ray"),
        (["courant", fx("p2.fan.json"), "--ray", "1"], 3, "does not have length 2"),
        (["courant", fx("p2.fan.json"), "--ray=1,0,0"], 3, "does not have length 2"),
    ],
)
def test_bad_vector_arguments_exit_cleanly(capsys, argv, code, message):
    assert main(argv) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["courant", fx("p2.fan.json"), "--ray=-1,-1", "--json"],
        ["hypertoric", "--rank", "2", "--vectors=-1,0;0,1", "--json"],
        ["subdivide", fx("p2.fan.json"), "--target=-1,-1;0,1", "--point=-1,0", "--json"],
    ],
)
def test_negative_vector_arguments_with_equals(capsys, argv):
    # argparse reads a separate value starting with "-" as an option, so
    # negative vectors and cone ids are passed as --option=value
    assert main(argv) == 0
    json.loads(capsys.readouterr().out)


def test_hypertoric_verb(capsys):
    assert main(["hypertoric", "--rank", "2", "--vectors", "1,0;0,1;1,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "multifan"
    assert len(doc["nodes"]) == 7


def test_mpp_basis_verb(capsys):
    assert main(
        ["mpp-basis", fx("doubled_cone.multifan.json"), "--degree", "2"]
    ) == 0
    assert "rank 4" in capsys.readouterr().out


def test_validate_p7(tmp_path, capsys):
    rays = [[int(i == j) for j in range(7)] for i in range(7)] + [[-1] * 7]
    cones = [[r for r in rays if r is not skip] for skip in rays]
    f = tmp_path / "p7.json"
    f.write_text(json.dumps({"kind": "fan", "ambient_rank": 7, "maximal_cones": cones}))
    assert main(["validate", str(f), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["maximal_cones"], doc["cones"], doc["complete"]) == (8, 255, True)
