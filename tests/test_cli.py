import json

import pytest

from kaninj import (
    MonotoneMap,
    antichain,
    chain,
    class_bottom,
    class_join,
    join_map,
    map_to_json,
    point,
    poset_to_json,
    vee,
)
from kaninj.cli import build_parser, main
from kaninj.serialize import class_to_json


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def collapse_class():
    return {
        "name": "collapse",
        "maps": [map_to_json(MonotoneMap(chain(2), point(), [0, 0]))],
    }


def test_kan_strict(tmp_path, capsys):
    f = write(tmp_path, "f.json", map_to_json(MonotoneMap(antichain(2), vee(), [0, 1])))
    h = write(tmp_path, "h.json", map_to_json(join_map()))
    assert main(["kan", f, h]) == 0
    data = out_json(capsys)
    assert data["exists"] and data["strict"]


def test_kan_nonexistent(tmp_path, capsys):
    # the legs have no upper bound at all in the antichain itself
    ident = write(
        tmp_path, "ident.json", map_to_json(MonotoneMap.identity(antichain(2)))
    )
    h = write(tmp_path, "h.json", map_to_json(join_map()))
    assert main(["kan", ident, h]) == 1
    assert out_json(capsys)["exists"] is False


def test_dense_verdicts(tmp_path, capsys):
    unit = write(
        tmp_path, "unit.json", map_to_json(MonotoneMap(chain(2), chain(3), [1, 2]))
    )
    assert main(["dense", unit]) == 0
    assert out_json(capsys)["dense"] is True
    bot = write(tmp_path, "bot.json", map_to_json(MonotoneMap(point(), chain(2), [0])))
    assert main(["dense", bot]) == 1
    assert out_json(capsys)["dense"] is False


def test_injective_exit_codes(tmp_path, capsys):
    klass = write(tmp_path, "k.json", class_to_json(class_bottom()))
    strong = write(tmp_path, "c2.json", poset_to_json(chain(2)))
    neither = write(tmp_path, "a2.json", poset_to_json(antichain(2)))
    assert main(["injective", strong, klass]) == 0
    assert out_json(capsys)["verdict"] == "strong"
    assert main(["injective", neither, klass]) == 1
    assert out_json(capsys)["verdict"] == "neither"
    # weak but not strong: chain(2) along the collapse map
    ck = write(tmp_path, "ck.json", collapse_class())
    assert main(["injective", strong, ck]) == 3
    assert out_json(capsys)["verdict"] == "weak"
    assert main(["injective", strong, ck, "--weak"]) == 0
    assert main(["injective", neither, ck, "--weak"]) == 0


def test_injective_dual(tmp_path, capsys):
    # chain(2) has a bottom but its dual test asks for a top, which it
    # also has, while vee only has a top
    klass = write(tmp_path, "k.json", class_to_json(class_bottom()))
    v = write(tmp_path, "v.json", poset_to_json(vee()))
    assert main(["injective", v, klass]) == 1
    assert main(["injective", v, klass, "--dual"]) == 0


def test_reflect_and_convergence(tmp_path, capsys):
    klass = write(tmp_path, "k.json", class_to_json(class_join()))
    x = write(tmp_path, "x.json", poset_to_json(antichain(2)))
    assert main(["reflect", x, klass]) == 0
    data = out_json(capsys)
    assert data["converged"] and len(data["reflected"]["elements"]) == 3
    assert "stages" not in data
    assert main(["reflect", x, klass, "--max-steps", "2"]) == 4
    assert out_json(capsys)["converged"] is False


def test_reflect_trace_and_dot(tmp_path, capsys):
    klass = write(tmp_path, "k.json", class_to_json(class_join()))
    x = write(tmp_path, "x.json", poset_to_json(antichain(2)))
    dot_dir = tmp_path / "dots"
    assert main(["reflect", x, klass, "--trace", "--dot", str(dot_dir)]) == 0
    data = out_json(capsys)
    assert len(data["stages"]) == len(data["stage_sizes"])
    assert len(data["connectors"]) == len(data["stages"]) - 1
    names = {p.name for p in dot_dir.iterdir()}
    assert "reflected.dot" in names and "stage0.dot" in names


def test_extend(tmp_path, capsys):
    klass = write(tmp_path, "k.json", class_to_json(class_join()))
    p = write(
        tmp_path, "p.json", map_to_json(MonotoneMap(antichain(2), vee(), [0, 1]))
    )
    assert main(["extend", p, klass]) == 0
    data = out_json(capsys)
    assert set(data) == {"unit", "extension", "stages_used"}
    # the extension restricts along the unit back to p
    unit = data["unit"]["map"]
    ext = data["extension"]["map"]
    assert {k: ext[v] for k, v in unit.items()} == {"a0": "a", "a1": "b"}


def test_extend_rejects_weak_target(tmp_path, capsys):
    klass = write(tmp_path, "k.json", class_to_json(class_join()))
    p = write(
        tmp_path, "p.json", map_to_json(MonotoneMap.identity(antichain(2)))
    )
    assert main(["extend", p, klass]) == 1


def test_cone(tmp_path, capsys):
    klass = write(tmp_path, "k.json", class_to_json(class_join()))
    assert main(["cone", klass]) == 0
    data = out_json(capsys)
    assert len(data["cones"]) == 1
    cone = data["cones"][0]
    # the cylinder holds one copy of the domain and one of the codomain
    assert len(cone["cone"]["elements"]) == 2 + 3


def test_saturate(tmp_path, capsys):
    klass = write(tmp_path, "k.json", class_to_json(class_bottom()))
    assert main(["saturate", klass, "--size", "3"]) == 0
    data = out_json(capsys)
    assert data["ok"] and all(row["ok"] for row in data["witnesses"])


def test_verify_suite(tmp_path, capsys):
    assert main(["verify", "colimits", "--size", "3"]) == 0
    assert out_json(capsys)["passed"] is True
    for size in ("1", "2", "3"):
        assert main(["verify", "colimits", "--size", size, "--mutate"]) == 1
        assert out_json(capsys)["passed"] is False


def test_verify_saturation_controls_at_small_sizes(capsys):
    # a one-element sample cannot refute the collapse map, so the
    # negative control samples at least the two-element posets
    assert main(["verify", "saturation", "--size", "1"]) == 0
    assert out_json(capsys)["passed"] is True
    for size in ("1", "2"):
        assert main(["verify", "saturation", "--size", size, "--mutate"]) == 1
        assert out_json(capsys)["passed"] is False


def test_enumerate(capsys):
    assert main(["enumerate", "3"]) == 0
    data = out_json(capsys)
    assert data["count"] == 9
    assert main(["enumerate", "-1"]) == 2


def test_invalid_inputs(tmp_path, capsys):
    klass = write(tmp_path, "k.json", class_to_json(class_bottom()))
    assert main(["injective", str(tmp_path / "missing.json"), klass]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["injective", str(bad), klass]) == 2
    shapeless = write(tmp_path, "shapeless.json", {"elements": "oops"})
    assert main(["injective", shapeless, klass]) == 2
    # a pair entry or a map value that is not a label is malformed input,
    # not a "neither" verdict
    capsys.readouterr()
    listed = write(tmp_path, "listed.json", {"elements": ["a", "b"], "leq": [[["a"], "b"]]})
    assert main(["injective", listed, klass]) == 2
    assert "malformed poset description" in capsys.readouterr().err
    f = map_to_json(MonotoneMap.identity(chain(2)))
    f["map"] = {k: [v] for k, v in f["map"].items()}
    assert main(["dense", write(tmp_path, "f.json", f)]) == 2
    assert "malformed map description" in capsys.readouterr().err
    # a map entry outside the domain, and a class name that is not a label
    stray = {
        "dom": {"elements": ["a"]},
        "cod": {"elements": ["x", "y"], "leq": [["x", "y"]]},
        "map": {"a": "x", "zzz": "y"},
    }
    assert main(["dense", write(tmp_path, "stray.json", stray)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed map description" in captured.err
    named = write(tmp_path, "named.json", {"name": ["x", 1], "maps": []})
    assert main(["injective", write(tmp_path, "x.json", poset_to_json(chain(2))), named]) == 2
    assert "malformed class description" in capsys.readouterr().err


def test_bad_subcommand_and_suite(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["verify", "no-such-suite"]) == 2


def test_odd_max_steps_rejected(tmp_path, capsys):
    klass = write(tmp_path, "k.json", class_to_json(class_join()))
    x = write(tmp_path, "x.json", poset_to_json(antichain(2)))
    assert main(["reflect", x, klass, "--max-steps", "3"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        # --cap is gone: KANINJ_SIZE_CAP is the one budget
        ["reflect", "x.json", "k.json", "--cap", "1"],
        ["saturate", "k.json", "--size", "0"],
        ["verify", "kz", "--size", "0"],
        ["reflect", "x.json", "k.json", "--max-steps", "0"],
        ["extend", "x.json", "k.json", "--max-steps", "0"],
        # --size-cap is gone: --size bounds the corpus
        ["verify", "kz", "--size-cap", "3"],
    ],
)
def test_nonpositive_options_rejected(tmp_path, capsys, argv):
    write(tmp_path, "k.json", class_to_json(class_join()))
    write(tmp_path, "x.json", poset_to_json(antichain(2)))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_cap_cuts_search(tmp_path, monkeypatch, capsys):
    klass = write(tmp_path, "k.json", class_to_json(class_join()))
    x = write(tmp_path, "x.json", poset_to_json(antichain(2)))
    monkeypatch.setenv("KANINJ_SIZE_CAP", "1")
    assert main(["reflect", x, klass]) == 2


# each subcommand with its positional arguments; the ones naming a JSON
# file read it, and only those take --dual
SUBCOMMANDS = {
    "kan": ["f.json", "h.json"],
    "dense": ["f.json"],
    "injective": ["x.json", "k.json"],
    "reflect": ["x.json", "k.json"],
    "extend": ["p.json", "k.json"],
    "cone": ["k.json"],
    "saturate": ["k.json"],
    "verify": ["kz"],
    "enumerate": ["2"],
}


def test_dual_only_where_files_are_read_and_no_cap(capsys):
    parser = build_parser()
    for command, positional in SUBCOMMANDS.items():
        with pytest.raises(SystemExit) as info:
            parser.parse_args([command, *positional, "--cap", "1"])
        assert info.value.code == 2, command
        if positional[0].endswith(".json"):
            assert parser.parse_args([command, *positional, "--dual"]).dual, command
            continue
        with pytest.raises(SystemExit) as info:
            parser.parse_args([command, *positional, "--dual"])
        assert info.value.code == 2, command
    assert main(["enumerate", "2", "--dual"]) == 2
    assert main(["verify", "kz", "--dual"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_malformed_size_cap_env_exits_2(monkeypatch, capsys, raw):
    monkeypatch.setenv("KANINJ_SIZE_CAP", raw)
    assert main(["enumerate", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert repr(raw) in captured.err


def test_valid_size_cap_env_is_used(tmp_path, monkeypatch, capsys):
    klass = write(tmp_path, "k.json", class_to_json(class_join()))
    x = write(tmp_path, "x.json", poset_to_json(antichain(2)))
    monkeypatch.setenv("KANINJ_SIZE_CAP", "1")
    assert main(["reflect", x, klass]) == 2
    err = capsys.readouterr().err
    assert "cap of 1 nodes" in err and "KANINJ_SIZE_CAP" in err
    monkeypatch.setenv("KANINJ_SIZE_CAP", "100000")
    assert main(["reflect", x, klass]) == 0
    assert out_json(capsys)["converged"] is True
