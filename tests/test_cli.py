"""End-to-end command line checks, run in process through cli.run."""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from qgbounds import bounds, cli, covers, oracle
from qgbounds import metric_graph as mg
from qgbounds.errors import BadParameter, TooLarge

PI2 = math.pi ** 2


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def tetra_file(tmp_path, capsys):
    path = tmp_path / "tetra.json"
    code, _, _ = invoke(capsys, "gen", "platonic:tetrahedron", "-o", str(path))
    assert code == 0
    return str(path)


def test_gen_validate_round_trip(tmp_path, capsys):
    path = tmp_path / "p3.json"
    code, _, err = invoke(capsys, "gen", "pumpkin:3", "--length", "3/2",
                          "-o", str(path))
    assert code == 0 and err == ""
    data = json.loads(path.read_text())
    assert len(data["edges"]) == 3

    code, out, _ = invoke(capsys, "validate", str(path))
    assert code == 0
    report = json.loads(out)
    # connected and loopless by construction, so no field reports either
    assert set(report) == {"vertex_count", "edge_count", "total_length",
                           "bridge_edges", "bridgeless"}
    assert report["bridgeless"] is True
    assert report["edge_count"] == 3
    assert report["total_length"] == "9/2"


def test_gen_cycle_segments(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, _, _ = invoke(capsys, "gen", "cycle:6", "--segments", "3",
                        "-o", str(path))
    assert code == 0
    code, out, _ = invoke(capsys, "validate", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["edge_count"] == 3
    assert report["total_length"] == 6


@pytest.mark.parametrize("argv, error", [
    (["cycle:", "--length", "2", "--segments", "4"], "BadParameter"),
    (["cycle:6", "--length", "2"], "BadParameter"),
    (["path:3", "--length", "5"], "BadParameter"),
    (["star:1,3/2,2", "--length", "5"], "BadParameter"),
    (["pumpkin:3", "--segments", "2"], "BadParameter"),
    (["path:3", "--segments", "4"], "BadParameter"),
    (["moebius:3", "--length", "2"], "UnknownFamily"),
    (["pumpkin:3", "--length", "abc"], "BadParameter"),
])
def test_gen_rejects_options_the_family_does_not_take(capsys, argv, error):
    code, out, err = invoke(capsys, "gen", *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("argv", [
    ["pumpkin:100000000"], ["pumpkin_chain:2,100000000"],
    ["cycle:1", "--segments", "100000000"],
])
def test_gen_refuses_a_graph_past_the_edge_cap(capsys, argv):
    # refused before an edge is built, not after minutes and gigabytes
    code, out, err = invoke(capsys, "gen", *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    info = json.loads(err)
    assert info["error"] == "TooLarge"
    assert info["context"]["cap"] == 50_000


def test_gen_star_needs_lengths(capsys):
    code, _, err = invoke(capsys, "gen", "star")
    assert code == 1
    info = json.loads(err)
    assert info["error"] == "BadParameter"
    assert "star:1,3/2,2" in info["message"]


def test_gen_star_reads_lengths_from_the_family(capsys):
    code, out, err = invoke(capsys, "gen", "star:1,3/2,2")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert len(data["vertices"]) == 4
    assert [e["length"] for e in data["edges"]] == [1, "3/2", 2]


def test_bounds_csv_table(tetra_file, capsys):
    code, out, _ = invoke(capsys, "bounds", tetra_file,
                          "--cover", "faces", "--eta", "exact_cycle")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["method", "index", "bound", "oracle",
                             "ratio", "ingredients"]
    assert {r["method"] for r in rows} == {"transfer[faces,exact_cycle]"}
    for r in rows:
        if r["ratio"]:
            assert float(r["ratio"]) <= 1 + 1e-9
    second = next(r for r in rows if r["index"] == "2")
    assert float(second["bound"]) == pytest.approx(8 * PI2 / 27, abs=1e-9)
    assert float(second["oracle"]) == pytest.approx(
        math.acos(-1 / 3) ** 2, abs=1e-9)


def test_bounds_csv_says_why_the_oracle_column_is_empty(tetra_file, capsys,
                                                       monkeypatch):
    def too_large(*args, **kwargs):
        raise TooLarge("subdivision needs too many vertices")

    code, want, _ = invoke(capsys, "bounds", tetra_file, "--no-oracle")
    assert code == 0
    monkeypatch.setattr(oracle, "spectrum", too_large)
    code, out, err = invoke(capsys, "bounds", tetra_file)
    assert code == 0
    assert out == want
    assert err == "oracle column empty: TooLarge: subdivision needs too many vertices\n"


def test_bounds_json_and_k(tetra_file, capsys):
    code, out, _ = invoke(capsys, "bounds", tetra_file, "--cover", "faces",
                          "--eta", "exact_cycle", "--format", "json", "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["indices"] == [1, 2]
    assert data["ingredients"]["fold"] == 2

    code, out, _ = invoke(capsys, "bounds", tetra_file,
                          "--format", "json", "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "stars"
    assert data["indices"] == [1, 2]


def test_bounds_cover_from_file(tetra_file, tmp_path, capsys):
    g = mg.platonic("tetrahedron")
    cov = tmp_path / "cover.json"
    cov.write_text(json.dumps(covers.cover_to_json(covers.face_pair_cover(g))))
    code, out, _ = invoke(capsys, "bounds", tetra_file,
                          "--cover", f"file:{cov}", "--eta", "exact_cycle",
                          "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "transfer[face_pairs,exact_cycle]"
    assert data["bounds"][1] == pytest.approx(3 * PI2 / 16, abs=1e-9)

    cov.write_text('{"elements":\n  {broken')
    code, _, err = invoke(capsys, "bounds", tetra_file, "--cover", f"file:{cov}")
    assert code == 1
    info = json.loads(err)
    assert info["error"] == "ParseError"
    assert info["context"]["line"] == 2

    # each edge in one element only: fold 1
    cov.write_text(json.dumps({"name": "halves", "elements": {
        "a": ["e0", "e1", "e2"], "b": ["e3", "e4", "e5"]}}))
    code, out, err = invoke(capsys, "bounds", tetra_file, "--cover", f"file:{cov}")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BadSpec"


def test_bounds_copies_with_oracle_eta(tetra_file, capsys):
    code, out, _ = invoke(capsys, "bounds", tetra_file, "--cover", "copies:3",
                          "--eta", "oracle", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert "numerically_assisted" in data["flags"]
    # overlap graph of full copies is complete, so the transferred second
    # bound reproduces the true gap exactly
    assert data["bounds"][1] == pytest.approx(math.acos(-1 / 3) ** 2, abs=1e-6)


def test_bounds_unknown_eta(tetra_file, capsys):
    code, _, err = invoke(capsys, "bounds", tetra_file, "--eta", "bogus")
    assert code == 1
    info = json.loads(err)
    assert info["error"] == "BadParameter"
    assert "exact_cycle" in info["context"]["known"]
    # the library's own refusal, word for word
    with pytest.raises(BadParameter) as exc:
        bounds.eta_strategy("bogus")
    assert info == json.loads(json.dumps(exc.value.to_json()))


@pytest.mark.parametrize("eta", ["exact_cycle", "doubly_connected", "nicaise", "oracle"])
def test_bounds_star_cover_refuses_other_etas(tetra_file, capsys, eta):
    code, out, err = invoke(capsys, "bounds", tetra_file, "--eta", eta, "--no-oracle")
    assert code == 1 and out == ""
    info = json.loads(err)
    assert info["error"] == "BadParameter"
    assert info["context"] == {"eta": eta, "cover": "stars"}


def test_bounds_eta_defaults_follow_the_cover(tetra_file, capsys):
    def run(*argv):
        code, out, err = invoke(capsys, "bounds", tetra_file, "--no-oracle", *argv)
        assert code == 0 and err == ""
        return out

    stars = run()
    assert stars.splitlines()[1].startswith("stars,1,")
    assert run("--eta", "star_best") == run("--cover", "stars") == stars
    faces = run("--cover", "faces")
    assert "transfer[faces,doubly_connected]" in faces
    assert run("--cover", "faces", "--eta", "doubly_connected") == faces


def test_bounds_bad_copies_count(tetra_file, capsys):
    code, _, err = invoke(capsys, "bounds", tetra_file, "--cover", "copies:abc")
    assert code == 1
    info = json.loads(err)
    assert info["error"] == "BadParameter"
    assert info["context"]["cover"] == "copies:abc"


def test_bounds_copies_count_past_the_cap(tetra_file, capsys):
    # refused before a single copy is built, not after minutes of solving
    code, out, err = invoke(capsys, "bounds", tetra_file, "--cover", "copies:99999999999")
    assert code == 1 and out == ""
    info = json.loads(err)
    assert info["error"] == "TooLarge"
    assert info["context"] == {"copies": 99999999999, "cap": 1000}


def test_bounds_cover_past_the_element_cap(tmp_path, capsys):
    path = str(tmp_path / "cycle.json")
    n = covers._ELEMENT_CAP + 1
    assert invoke(capsys, "gen", "cycle:1", "--segments", str(n), "-o", path)[0] == 0
    code, out, err = invoke(capsys, "bounds", path, "--no-oracle")
    assert code == 1 and out == ""
    [line] = err.splitlines()
    info = json.loads(line)
    assert info["error"] == "TooLarge"
    assert info["context"] == {"elements": n, "cap": covers._ELEMENT_CAP}


def test_bounds_csv_says_where_the_oracle_column_stops(tetra_file, capsys):
    code, out, err = invoke(capsys, "bounds", tetra_file, "--cover", "copies:50")
    assert code == 0
    assert err == "oracle column empty: from index 41 on: the oracle gives at most 40 values\n"
    rows = list(csv.DictReader(io.StringIO(out)))
    oracle_at = {int(r["index"]): r["oracle"] for r in rows
                 if r["method"] == "transfer[copies:50,doubly_connected]"}
    assert sorted(oracle_at) == list(range(1, 51))
    assert all(oracle_at[i] for i in range(1, 41))
    assert not any(oracle_at[i] for i in range(41, 51))


_ALL = json.dumps([f"e{k}" for k in range(6)])  # the tetrahedron's edges


@pytest.mark.parametrize("name, text", [
    # three copies, read as two (fold 2) if the last "a" silently won
    ("cover", f'{{"elements": {{"a": {_ALL}, "a": {_ALL}, "b": {_ALL}}}}}'),
    ("graph", '{"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b"], '
              '"length": 1, "length": 2}]}'),
], ids=["cover", "graph"])
def test_a_repeated_json_key_is_refused(tetra_file, tmp_path, capsys, name, text):
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    argv = ((tetra_file, "--cover", f"file:{path}") if name == "cover"
            else (str(path),))
    code, out, err = invoke(capsys, "bounds", *argv, "--no-oracle")
    assert code == 1 and out == ""
    info = json.loads(err)
    assert info["error"] == "ParseError"
    repeated = "a" if name == "cover" else "length"
    assert info["message"] == f"repeated key {repeated!r} in {path}"
    assert info["context"] == {"path": str(path), "key": repeated}


@pytest.mark.parametrize("k", ["0", "-1"])
def test_bounds_rejects_nonpositive_k(tetra_file, capsys, k):
    with pytest.raises(SystemExit) as exc:
        cli.run(["bounds", tetra_file, "--no-oracle", "--k", k])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err


def test_bounds_output_file(tetra_file, tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = invoke(capsys, "bounds", tetra_file, "--no-oracle",
                          "-o", str(out_path))
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert text.startswith("method,index,bound,oracle,ratio,ingredients")


def test_an_output_that_cannot_be_written_is_one_json_error(tetra_file, tmp_path,
                                                           capsys):
    target = str(tmp_path / "missing" / "out.json")
    for argv in (["gen", "platonic:cube"], ["bounds", tetra_file, "--format", "json"]):
        code, out, err = invoke(capsys, *argv, "-o", target)
        assert code == 1 and out == ""
        [line] = err.splitlines()
        info = json.loads(line)
        assert info["error"] == "BadParameter"
        assert info["context"] == {"path": target}
        assert info["message"] == f"cannot write {target}: No such file or directory"


def test_oracle_subcommand(tetra_file, capsys):
    code, out, _ = invoke(capsys, "oracle", tetra_file, "--count", "4")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "subdivision"
    assert "fallback" not in data
    assert data["values"][0] == 0.0
    assert data["values"][1] == pytest.approx(math.acos(-1 / 3) ** 2, abs=1e-9)

    code, out, _ = invoke(capsys, "oracle", tetra_file, "--count", "4",
                          "--mesh", "1/2")
    assert code == 0
    assert json.loads(out)["grid"] == "1/2"

    # a mesh that does not divide the edges: the fall back is printed
    code, out, _ = invoke(capsys, "oracle", tetra_file, "--count", "4",
                          "--mesh", "0.07")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "fd"
    assert data["fallback"] == ("IncommensurableLengths: grid 7/100 does not "
                                "divide edge e0 of length 1")

    code, out, _ = invoke(capsys, "oracle", tetra_file, "--count", "4",
                          "--method", "fd")
    assert code == 0
    assert json.loads(out)["method"] == "fd"


@pytest.mark.parametrize("irrational, argv", [
    (True, ["--mesh", "0.05"]),
    # at the default count of 6, a 1/10 mesh is too coarse for lambda_5
    (False, ["--method", "fd", "--mesh", "1/10", "--count", "4"]),
])
def test_oracle_pinned_fd_mesh(tetra_file, tmp_path, capsys, irrational, argv):
    graph = tetra_file
    if irrational:
        data = json.loads(Path(tetra_file).read_text())
        data["edges"][0]["length"] = math.sqrt(2)
        graph = tmp_path / "irr.json"
        graph.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "oracle", str(graph), *argv)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["method"] == "fd"
    assert "mesh" in data and data["newton_rounds"] >= 0


def test_oracle_pinned_fd_mesh_above_half_the_shortest_edge(tmp_path, capsys):
    # the pin is refused, not replaced by half the shortest edge
    path = str(tmp_path / "pumpkin2.json")
    assert invoke(capsys, "gen", "pumpkin:2", "-o", path)[0] == 0
    for count in ("1", "2"):
        code, out, err = invoke(capsys, "oracle", path, "--method", "fd",
                                "--mesh", "5", "--count", count)
        assert code == 1 and out == ""
        [line] = err.splitlines()
        info = json.loads(line)
        assert info["error"] == "BadParameter"
        assert info["context"] == {"mesh": 5.0, "limit": 0.5}


def test_oracle_branch_overflow(tetra_file, capsys):
    code, _, err = invoke(capsys, "oracle", tetra_file, "--count", "5",
                          "--method", "von_below")
    assert code == 1
    info = json.loads(err)
    assert info["error"] == "ThresholdExceeded"
    assert info["context"] == {"available": 4, "grid": "1"}


@pytest.mark.parametrize("method", ["auto", "von_below", "subdivision", "fd"])
def test_oracle_rejects_a_count_below_one(tetra_file, capsys, method):
    # a usage error, exit 2, like bounds --k 0
    for count in ("0", "-2", "x"):
        with pytest.raises(SystemExit) as exc:
            cli.run(["oracle", tetra_file, "--count", count, "--method", method])
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err
    code, out, _ = invoke(capsys, "oracle", tetra_file, "--count", "3",
                          "--method", method)
    assert code == 0
    assert len(json.loads(out)["values"]) == 3


def test_oracle_bad_mesh_is_a_usage_error(tetra_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["oracle", tetra_file, "--mesh", "abc"])
    assert exc.value.code == 2


def test_oracle_von_below_with_a_mesh_is_a_usage_error(tetra_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["oracle", tetra_file, "--method", "von_below", "--mesh", "1/7"])
    assert exc.value.code == 2
    assert "von_below" in capsys.readouterr().err


def test_oracle_mesh_that_overflows_a_float_is_a_usage_error(tetra_file, capsys):
    # 1e400 is an exact Fraction, but no float: the finite-element route
    # would raise OverflowError on it
    with pytest.raises(SystemExit) as exc:
        cli.run(["oracle", tetra_file, "--mesh", "1e400"])
    assert exc.value.code == 2
    assert "overflows" in capsys.readouterr().err


def test_validate_errors(tmp_path, capsys):
    code, _, err = invoke(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = invoke(capsys, "validate", str(bad))
    assert code == 1
    info = json.loads(err)
    assert info["error"] == "ParseError"
    assert info["context"]["line"] == 1


@pytest.mark.parametrize("raw", ["Infinity", "NaN", "1e400", '"1e400"'])
def test_lengths_that_are_no_float_are_parse_errors(tmp_path, capsys, raw):
    # json reads Infinity, NaN and 1e400 as non-finite floats; the string
    # "1e400" is an exact rational that overflows a float
    path = tmp_path / "g.json"
    path.write_text('{"vertices": ["a", "b"], "edges": '
                    '[{"id": "e", "ends": ["a", "b"], "length": %s}]}' % raw)
    for argv in (["validate"], ["bounds"], ["oracle"]):
        code, out, err = invoke(capsys, *argv, str(path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("doc, error", [
    ({"vertices": ["a"], "edges": []}, "ParseError"),
    ({"vertices": ["a", "b", "c", "d"],
      "edges": [{"id": "e0", "ends": ["a", "b"], "length": 1},
                {"id": "e1", "ends": ["c", "d"], "length": 1}]}, "Disconnected"),
], ids=["edgeless", "disconnected"])
def test_a_file_that_is_no_metric_graph_is_refused(tmp_path, capsys, doc, error):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], ["oracle", str(path), "--method", "fd"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == error


def test_repro_cases(capsys):
    code, out, _ = invoke(capsys, "repro", "--case", "icosahedron")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out

    code, out, _ = invoke(capsys, "repro", "--case", "chain_324")
    assert code == 1
    assert "FAIL" in out

    code, out, _ = invoke(capsys, "repro", "--case", "four_pumpkin(2)",
                          "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["status"] in ("PASS", "INFO") for r in rows)


def test_repro_unknown_case(capsys):
    code, _, err = invoke(capsys, "repro", "--case", "nope")
    assert code == 1
    info = json.loads(err)
    assert info["error"] == "UnknownFamily"
    assert "icosahedron" in info["context"]["known"]


def test_usage_errors_exit_two(capsys):
    for argv in ([], ["frobnicate"], ["bounds"]):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2


def test_console_entry(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv",
                        ["qgb", "repro", "--case", "tetrahedron"])
    with pytest.raises(SystemExit) as exc:
        cli.main_entry()
    assert exc.value.code == 0
