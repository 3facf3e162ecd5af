"""Lower-bound machinery: transference, stars, chains, and comparisons.

Closed-form targets used here are worked out by hand from the cover data:
fold m, element gap eta, and the overlap graph's normalized spectrum.
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
import weakref

import pytest

from qgbounds import bounds, cli, covers, oracle
from qgbounds import metric_graph as mg
from qgbounds.errors import (
    BadParameter,
    BadSpec,
    Disconnected,
    EtaUnavailable,
    LoopPresent,
    TooLarge,
)
from qgbounds.spectral import eigenvalues_lapack

from conftest import corpus_graph, corpus_oracle

PI2 = math.pi ** 2
SQ5 = math.sqrt(5)


# ---------------------------------------------------------------------------
# transference closed forms


def test_every_public_name_resolves():
    import qgbounds

    namespace = {}
    exec("from qgbounds import *", namespace)
    for name in qgbounds.__all__:
        assert namespace[name] is getattr(qgbounds, name)


def test_the_package_loads_each_submodule_on_first_use():
    # a process that needs only the oracle does not load the bounds, covers
    # and repro modules; a public name loads its own submodule
    code = ("import sys\n"
            "import qgbounds.oracle\n"
            "print(sorted(m for m in ('qgbounds.bounds', 'qgbounds.covers', 'qgbounds.repro')\n"
            "             if m in sys.modules))\n"
            "import qgbounds\n"
            "print(qgbounds.transfer_bound is sys.modules['qgbounds.bounds'].transfer_bound)\n"
            "try:\n"
            "    qgbounds.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(bounds.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "[]", "True", "module 'qgbounds' has no attribute 'no_such_name'"]


def test_tetrahedron_face_cover_bound():
    g = corpus_graph("tetrahedron")
    rep = bounds.transfer_bound(g, covers.face_cover(g), "exact_cycle")
    assert rep.ingredients["fold"] == 2
    assert rep.ingredients["eta"] == pytest.approx(4 * PI2 / 9, abs=1e-12)
    assert rep.bound(2) == pytest.approx(8 * PI2 / 27, abs=1e-9)
    assert rep.bound(1) == 0.0


def test_tetrahedron_diamond_cover_bound():
    g = corpus_graph("tetrahedron")
    rep = bounds.transfer_bound(g, covers.face_pair_cover(g), "exact_cycle")
    assert rep.ingredients["eta"] == pytest.approx(PI2 / 4, abs=1e-12)
    assert rep.bound(2) == pytest.approx(3 * PI2 / 16, abs=1e-9)


def test_icosahedron_face_cover_bound():
    g = corpus_graph("icosahedron")
    rep = bounds.transfer_bound(g, covers.face_cover(g), "exact_cycle")
    # twenty faces overlap like the dodecahedral graph
    assert rep.ingredients["alpha"][1] == pytest.approx((3 - SQ5) / 3, abs=1e-9)
    assert rep.bound(2) == pytest.approx(2 * PI2 * (3 - SQ5) / 27, abs=1e-9)


def test_cube_sixfold_cover_bound():
    g = corpus_graph("cube")
    rep = bounds.transfer_bound(g, covers.face_pair_cover(g), "exact_cycle")
    assert rep.ingredients["fold"] == 6
    assert rep.ingredients["eta"] == pytest.approx(PI2 / 9, abs=1e-12)
    assert rep.bound(2) == pytest.approx(8 * PI2 / 81, abs=1e-9)
    grouped = {round(v, 9): m for v, m in
               eigenvalues_lapack(
                   covers.validate_cover(g, covers.face_pair_cover(g)).laplacian()).grouped()}
    assert grouped == {0.0: 1, round(16 / 15, 9): 9, round(6 / 5, 9): 2}


def test_index_limit_truncates(tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(mg.graph_to_json(corpus_graph("cube"))))
    code = cli.run(["bounds", str(path), "--cover", "faces", "--eta", "exact_cycle",
                    "--k", "3", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["indices"] == [1, 2, 3] and len(out["bounds"]) == 3
    assert len(out["ingredients"]["alpha"]) == 6  # alpha stays whole


# ---------------------------------------------------------------------------
# eta strategies


def test_nicaise_eta_is_a_quarter_of_the_cycle_eta():
    g = corpus_graph("tetrahedron")
    cover = covers.face_cover(g)
    exact = bounds.transfer_bound(g, cover, "exact_cycle")
    quarter = bounds.transfer_bound(g, cover, "nicaise")
    assert quarter.ingredients["eta"] == pytest.approx(
        exact.ingredients["eta"] / 4, abs=1e-12)
    assert quarter.bound(2) == pytest.approx(exact.bound(2) / 4, abs=1e-9)


def test_oracle_eta_matches_exact_on_cycles_and_is_flagged():
    g = corpus_graph("tetrahedron")
    cover = covers.face_cover(g)
    exact = bounds.transfer_bound(g, cover, "exact_cycle")
    assisted = bounds.transfer_bound(g, cover, "oracle")
    assert "numerically_assisted" in assisted.flags
    assert "numerically_assisted" not in exact.flags
    assert assisted.ingredients["eta"] == pytest.approx(
        exact.ingredients["eta"], abs=1e-6)


def test_eta_strategies_reject_wrong_shapes():
    g = corpus_graph("tetrahedron")
    stars = covers.star_cover(g)
    with pytest.raises(EtaUnavailable) as exc:
        bounds.transfer_bound(g, stars, "exact_cycle")
    assert exc.value.context["element"].startswith("star:")
    with pytest.raises(EtaUnavailable):
        bounds.transfer_bound(g, stars, "doubly_connected")
    with pytest.raises(BadParameter):
        bounds.transfer_bound(g, stars, "bogus")
    # star_best works on star elements and keeps the transference sound
    rep = bounds.transfer_bound(g, stars, "star_best")
    lam2 = corpus_oracle("tetrahedron").gap
    assert 0 < rep.bound(2) <= lam2 + 1e-9


def test_star_gap_bound_tight_on_equilateral_star():
    star = mg.star_graph([1, 1, 1])
    eta = bounds.star_gap_bound(star)
    assert eta == pytest.approx(PI2 / 4, abs=1e-12)
    assert eta == pytest.approx(oracle.spectrum(star, 2).gap, abs=1e-9)
    with pytest.raises(EtaUnavailable):
        bounds.star_gap_bound(corpus_graph("tetrahedron"))


def test_disconnected_vicinity_is_flagged_not_fatal():
    g = corpus_graph("chain_324")
    rep = bounds.transfer_bound(g, covers.pumpkin_cycle_cover(g),
                                "exact_cycle")
    assert "disconnected_vicinity" in rep.flags
    assert rep.bound(2) == 0.0


def test_a_graph_and_its_cover_reports_die_together():
    # the cover analyses live in the graph, not in a module-level cache
    g = mg.platonic("cube")
    faces = covers.face_cover(g)
    bounds.transfer_bound(g, faces, "exact_cycle")
    graph, report = weakref.ref(g), weakref.ref(covers.validate_cover(g, faces))
    del g
    gc.collect()
    assert graph() is None
    assert report() is None


# ---------------------------------------------------------------------------
# vertex-star bound


def test_star_bound_on_tetrahedron():
    rep = bounds.star_bound(corpus_graph("tetrahedron"))
    etas = rep.ingredients["eta_per_element"]
    assert len(etas) == 4
    for eta in etas.values():
        assert eta == pytest.approx(PI2 / 4, abs=1e-12)
    assert rep.ingredients["eta"] == pytest.approx(PI2 / 4, abs=1e-12)
    assert rep.ingredients["fold"] == 2
    assert rep.bound(2) == pytest.approx(PI2 / 6, abs=1e-9)


def test_star_bound_takes_the_best_factor_at_each_vertex():
    # stars: v0 {1, 2, 2}, v1 {1, 3}, v2 {3}, v3 {2, 2}; the weakest star
    # gap is pi^2/16 (v0, v1, v3), so the factor is pi^2/32.  The best of
    # the three factors taken each as the worst over all vertices is only
    # pi^2/50 (weighted degree 5 at v0), 16/25 of that
    g = mg.graph_from_json({
        "vertices": ["v0", "v1", "v2", "v3"],
        "edges": [{"id": "a", "ends": ["v0", "v1"], "length": 1},
                  {"id": "b", "ends": ["v1", "v2"], "length": 3},
                  {"id": "c", "ends": ["v0", "v3"], "length": 2},
                  {"id": "d", "ends": ["v0", "v3"], "length": 2}]})
    rep = bounds.star_bound(g)
    alpha2 = rep.ingredients["alpha"][1]
    assert rep.ingredients["eta"] == pytest.approx(PI2 / 16, abs=1e-12)
    assert rep.bound(2) == pytest.approx(PI2 / 32 * alpha2, abs=1e-12)
    assert rep.bound(2) <= oracle.spectrum(g, 2).gap + 1e-9


def test_star_bound_on_icosahedron():
    rep = bounds.star_bound(corpus_graph("icosahedron"))
    assert rep.bound(2) == pytest.approx(PI2 * (5 - SQ5) / 40, abs=1e-9)


def test_star_bound_rejects():
    # a loop or a second component is refused when the graph is built, so
    # star_bound never sees one; the graph with its loop split has a bound
    loopy = (mg.Edge("e0", "a", "b", 1), mg.Edge("e1", "b", "b", 1))
    with pytest.raises(LoopPresent):
        mg.MetricGraph(("a", "b"), loopy)
    assert bounds.star_bound(mg.split_loops(("a", "b"), loopy)).bound(2) > 0
    with pytest.raises(Disconnected):
        mg.MetricGraph(("a", "b", "c", "d"),
                       (mg.Edge("e0", "a", "b", 1), mg.Edge("e1", "c", "d", 1)))


# ---------------------------------------------------------------------------
# pumpkin chains


def test_chain_bounds_unit_324():
    rep = bounds.pumpkin_chain_bounds(corpus_graph("chain_324"))
    assert rep.bound(2) == pytest.approx(PI2 / 39, abs=1e-12)
    assert rep.ingredients["harmonic_route"] == pytest.approx(
        2 * PI2 / 81, abs=1e-12)
    assert rep.ingredients["harmonic_route"] <= rep.bound(2)
    assert rep.ingredients["friedlander_lower_lambda_n_plus_1"] == pytest.approx(
        4 * PI2 / 81, abs=1e-12)


def test_chain_bounds_unit_222_collapse_to_equality():
    rep = bounds.pumpkin_chain_bounds(corpus_graph("chain_222"))
    assert rep.bound(2) == pytest.approx(PI2 / 36, abs=1e-12)
    assert rep.ingredients["harmonic_route"] == pytest.approx(
        rep.bound(2), abs=1e-12)
    # at n = 3 the value (n+1)^2 pi^2/(4 L^2) is Band-Levy's lower bound
    # 4 pi^2/L^2 on lambda_2, and this symmetric necklace is its equality case
    lam2 = corpus_oracle("chain_222").gap
    value = rep.ingredients["friedlander_lower_lambda_n_plus_1"]
    assert value == pytest.approx(lam2, abs=1e-9)
    assert value == pytest.approx(PI2 / 9, abs=1e-12)


def test_chain_bounds_single_pumpkin_has_no_upper():
    rep = bounds.pumpkin_chain_bounds(mg.pumpkin_chain((3,)))
    assert rep.upper_bounds == {}
    assert rep.bound(2) == pytest.approx(PI2 / 4, abs=1e-12)


def test_chain_bounds_reject_a_graph_that_is_not_a_chain():
    with pytest.raises(BadSpec):
        bounds.pumpkin_chain_bounds(mg.platonic("cube"))


# ---------------------------------------------------------------------------
# the 4-pumpkin family


@pytest.mark.parametrize("a, better", [
    (1.0, "tie"),
    (2.0, "alternating"),
    (2 + SQ5, "tie"),
    (5.0, "grouped"),
    (10.0, "grouped"),
])
def test_four_pumpkin_closed_forms(a, better):
    fp = bounds.four_pumpkin_bounds(a)
    assert fp.better == better
    assert fp.bound_grouped == pytest.approx(PI2 / (2 * a * a), abs=1e-12)
    assert fp.bound_alternating == pytest.approx(
        4 * PI2 / (a + 1) ** 3, abs=1e-12)
    assert fp.via_cover_grouped == pytest.approx(fp.bound_grouped, abs=1e-9)
    assert fp.via_cover_alternating == pytest.approx(
        fp.bound_alternating, abs=1e-9)


def test_four_pumpkin_rejects_short_ratio():
    with pytest.raises(BadParameter):
        bounds.four_pumpkin_bounds(0.5)


# ---------------------------------------------------------------------------
# classical comparisons


def test_classical_bounds_on_icosahedron():
    reps = {r.method: r for r in
            bounds.classical_bounds(corpus_graph("icosahedron"), k_max=3)}
    assert set(reps) == {"friedlander", "nicaise", "band_levy", "kennedy_style"}
    assert reps["friedlander"].bound(2) == pytest.approx(PI2 / 900, abs=1e-12)
    assert reps["friedlander"].bound(3) == pytest.approx(PI2 / 400, abs=1e-12)
    assert reps["nicaise"].bound(2) == pytest.approx(PI2 / 900, abs=1e-12)
    assert reps["nicaise"].upper_bounds[2] == pytest.approx(PI2, abs=1e-12)
    assert reps["band_levy"].bound(2) == pytest.approx(PI2 / 225, abs=1e-12)
    assert reps["kennedy_style"].bound(2) == pytest.approx(1 / 90, abs=1e-12)
    assert "reconstructed" in reps["kennedy_style"].flags


def test_a_report_writes_its_upper_bounds():
    nicaise, = (r for r in bounds.classical_bounds(corpus_graph("cube")) if r.method == "nicaise")
    assert nicaise.to_json()["upper_bounds"] == {"2": pytest.approx(PI2)}


def test_classical_bounds_drop_band_levy_on_bridges():
    methods = {r.method for r in bounds.classical_bounds(mg.path_graph(1))}
    assert "band_levy" not in methods
    assert {"friedlander", "nicaise", "kennedy_style"} <= methods
    for k_max in (1, 2.5, True):
        with pytest.raises(BadParameter):
            bounds.classical_bounds(mg.path_graph(1), k_max=k_max)


# ---------------------------------------------------------------------------
# report plumbing


def test_bound_report_validation():
    with pytest.raises(BadSpec):
        bounds.BoundReport("x", (1, 2), (0.0,), {})
    with pytest.raises(BadSpec):
        bounds.BoundReport("x", (1, 2), (2.0, 1.0), {})
    rep = bounds.BoundReport("x", (2,), (1.0,), {})
    with pytest.raises(BadParameter):
        rep.bound(3)


def test_compare_report_table():
    g = corpus_graph("tetrahedron")
    table = bounds.compare_report(g, ["faces", "stars"], "exact_cycle")
    csv = table.to_csv()
    assert csv.splitlines()[0] == ",".join(bounds.CSV_COLUMNS)
    methods = {r.method for r in table.rows}
    assert {"transfer[faces,exact_cycle]", "stars", "friedlander",
            "nicaise", "band_levy", "kennedy_style"} <= methods
    for row in table.rows:
        if row.ratio is not None:
            assert row.ratio <= 1 + 1e-9  # all these bounds are sound
    assert len(csv.splitlines()) == len(table.rows) + 1
    assert table.oracle_note is None


def test_compare_report_custom_cover_and_no_oracle():
    g = corpus_graph("tetrahedron")
    cover = covers.face_pair_cover(g)
    table = bounds.tabulate(
        g, [bounds.transfer_bound(g, cover, "exact_cycle"), *bounds.classical_bounds(g)],
        with_oracle=False)
    assert all(r.oracle is None and r.ratio is None for r in table.rows)
    assert any(r.method == "transfer[face_pairs,exact_cycle]" for r in table.rows)
    with pytest.raises(BadSpec, match="unknown cover strategy"):  # compare_report takes names
        bounds.compare_report(g, [("diamonds", cover)])


def test_compare_report_spells_a_copies_cover():
    g = mg.cycle_graph(3, segments=3)
    table = bounds.compare_report(g, ["copies:2"])
    rows = [r for r in table.rows if r.method == "transfer[copies:2,exact_cycle]"]
    assert [r.index for r in rows] == [1, 2]


def test_tabulate_csv_has_plain_floats_on_irrational_lengths():
    g = mg.pumpkin(3, [1, math.sqrt(2), math.pi / 2])
    table = bounds.tabulate(g, [bounds.star_bound(g)])
    assert table.rows[-1].oracle is not None
    assert "np.float64" not in table.to_csv()


@pytest.mark.parametrize("name, cover", [
    ("tetrahedron", "faces"), ("cube", "face_pairs"), ("icosahedron", "faces"),
    ("dodecahedron", "stars"), ("chain_324", "layered"),
    ("chain_432_mixed", "concatenated"), ("four_pumpkin_golden", "pumpkin_cycles"),
])
def test_transfer_bound_keeps_the_alpha_residual(name, cover):
    g = corpus_graph(name)
    rep = bounds.transfer_bound(g, covers.build_cover(g, cover), "nicaise")
    residual = rep.ingredients["alpha_residual"]
    assert 0 <= residual <= 1e-12
    # the CSV ingredient summary leaves it out
    assert "alpha_residual" not in bounds.tabulate(g, [rep], with_oracle=False).to_csv()


def test_tabulate_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in the oracle")

    monkeypatch.setattr(oracle, "spectrum", broken)
    g = corpus_graph("tetrahedron")
    with pytest.raises(RuntimeError):
        bounds.tabulate(g, [bounds.star_bound(g)])


def test_tabulate_leaves_oracle_empty_on_library_errors(monkeypatch, caplog):
    def too_large(*args, **kwargs):
        raise TooLarge("subdivision needs too many vertices")

    monkeypatch.setattr(oracle, "spectrum", too_large)
    g = corpus_graph("tetrahedron")
    with caplog.at_level("DEBUG", logger="qgbounds"):
        table = bounds.tabulate(g, [bounds.star_bound(g)])
    assert all(r.oracle is None and r.ratio is None for r in table.rows)
    assert any("TooLarge" in rec.getMessage() for rec in caplog.records)
    assert table.oracle_note == "TooLarge: subdivision needs too many vertices"
    assert all(line.split(",")[3:5] == ["", ""]
               for line in table.to_csv().splitlines()[1:])


def test_rational_bounds_never_import_scipy(tmp_path):
    # scipy serves only the tests: importing it would cost every bound
    # computation about 0.25 s and 20 MiB, and the finite-element route
    # (Python and `qgb oracle --method fd`) runs on numpy alone
    path = tmp_path / "irrational.json"
    path.write_text(json.dumps(mg.graph_to_json(mg.four_pumpkin(2 + math.sqrt(5)))))
    code = ("import sys\n"
            "import qgbounds.cli\n"
            "from qgbounds import bounds, covers, oracle, metric_graph as mg\n"
            "g = mg.pumpkin_chain((2, 3), ['1/2', 3])\n"
            "bounds.transfer_bound(g, covers.build_cover(g, 'layered'), 'nicaise')\n"
            "bounds.classical_bounds(g, k_max=4)\n"
            "assert oracle.spectrum(mg.platonic('cube', length=2 ** 0.5), 6).method == 'fd'\n"
            f"assert qgbounds.cli.run(['oracle', {str(path)!r}, '--method', 'fd']) == 0\n"
            "print('scipy' in sys.modules)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(bounds.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    # nor numpy.ma, which np.unique loads: about 1.2 MiB of RSS
    assert out.stdout.strip().splitlines()[-2:] == ["False", "False"]
