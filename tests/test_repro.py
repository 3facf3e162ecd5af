"""Reproduction-table plumbing and the known-discrepancy boundary.

The chain cases carry reference figures that the computed values do not
all meet; those rows must come out FAIL (they are real mismatches, see
the notes embedded in the rows), while every other case passes clean.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from qgbounds import cli, repro
from qgbounds.errors import BadParameter, UnknownFamily

# `qgb repro --format json` as committed; a change that moves values by
# design regenerates it with
#   PYTHONPATH=src python3 -m qgbounds.cli repro --format json -o tests/repro_golden.json
GOLDEN = Path(__file__).resolve().parent / "repro_golden.json"

EXPECTED_FAILING_ROWS = {
    ("chain_324", "layered.alpha2"),
    ("chain_324", "layered.bound"),
    ("chain_324", "concatenated.bound"),
    ("chain_342", "layered.alpha2"),
    ("chain_342", "layered.bound"),
    ("chain_342", "concatenated.alpha2"),
    ("chain_342", "concatenated.bound"),
}


def test_run_all_covers_every_case():
    rows = repro.run_all()
    assert {r.case for r in rows} == set(repro.CASES) | {"four_pumpkin(2)"}
    assert {r.status for r in rows} <= {"PASS", "FAIL", "INFO"}
    failing = {(r.case, r.row) for r in rows if r.status == "FAIL"}
    assert failing == EXPECTED_FAILING_ROWS


def test_repro_json_is_byte_identical_to_the_golden_file(capsys):
    code = cli.run(["repro", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1  # the FAIL rows above
    assert out.encode() == GOLDEN.read_bytes()


def test_rounded_figure_that_survives():
    rows = {r.row: r for r in repro.run_case("chain_324")}
    assert rows["concatenated.alpha2"].status == "PASS"
    assert rows["band_levy.rounded"].status == "PASS"
    assert rows["band_levy.closed"].status == "PASS"


@pytest.mark.parametrize("case", [
    "icosahedron", "dodecahedron", "cube", "octahedron", "tetrahedron",
    "tetrahedron_diamond", "cube_sixfold",
])
def test_clean_cases_pass(case):
    rows = repro.run_case(case)
    assert rows and repro.all_pass(rows)


def test_four_pumpkin_parameter_parsing():
    rows = repro.run_case("four_pumpkin(5/2)")
    assert rows[0].case == "four_pumpkin(2.5)"
    assert repro.all_pass(rows)
    with pytest.raises(UnknownFamily):  # the parameter is part of the id
        repro.run_case("four_pumpkin")
    with pytest.raises(BadParameter):
        repro.run_case("four_pumpkin(x)")


@pytest.mark.parametrize("a, better", [
    ("1", "tie"),  # the two formulas coincide
    ("5", "grouped"),  # past the crossover 2 + sqrt5
    ("4.2360679775", "tie"),  # above 2 + sqrt5, within 1e-9 of it
])
def test_the_better_row_on_each_side_of_the_crossover(a, better):
    row = {r.row: r for r in repro.run_case(f"four_pumpkin({a})")}["better"]
    assert row.status == "PASS"
    assert row.note.startswith(f"better={better},")


def test_unknown_case():
    with pytest.raises(UnknownFamily) as exc:
        repro.run_case("nope")
    assert "chain_324" in exc.value.context["known"]
    assert repro.case_ids()[-1] == "four_pumpkin(a)"


def test_info_rows_do_not_fail_anything():
    rows = repro.run_case("chain_324")
    info = [r for r in rows if r.status == "INFO"]
    assert {r.row for r in info} == {
        "kennedy_style", "diam_route.printed", "upper.vs.gap"}
    assert repro.all_pass(info)


def test_row_json_and_formatting():
    rows = repro.run_case("tetrahedron")
    data = rows[0].to_json()
    assert set(data) == {"case", "row", "computed", "expected",
                         "tolerance", "status", "note"}
    text = repro.format_rows(rows)
    assert "PASS" in text and "computed=" in text
    assert repro.format_rows([]) == ""


def test_gap_cross_check_uses_exact_route_for_rational_ratio():
    rows = {r.row: r for r in repro.run_case("four_pumpkin(4)")}
    gap = rows["gap"]
    assert gap.status == "PASS"
    assert gap.computed == pytest.approx(math.pi ** 2 / 16, abs=1e-6)
    assert "subdivision" in gap.note
