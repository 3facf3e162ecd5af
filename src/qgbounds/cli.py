"""Command line surface.

Five subcommands: ``validate`` and ``gen`` for graph files, ``bounds`` and
``oracle`` for the actual computations, ``repro`` for the built-in
reproduction tables.  Machine-readable failures go to stderr as one JSON
object; usage errors exit 2, computation errors exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import bounds, covers, oracle, repro
from . import metric_graph as mg
from .errors import BadParameter, ParseError, QGraphError

ETA_ALIASES = {
    "exact": "exact_cycle",
    "cycle": "doubly_connected",
    "star": "star_best",
}


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", path=path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}",
                         path=path, line=exc.lineno, column=exc.colno) from None


def load_graph(path: str) -> mg.MetricGraph:
    """Parse and validate a graph file; loops are split on load."""
    return mg.graph_from_json(_read_json(path))


def _resolve_eta(name: str) -> str:
    eta = ETA_ALIASES.get(name, name)
    if eta not in bounds.ETA_STRATEGIES:
        raise BadParameter("unknown eta strategy", eta=name,
                           known=sorted(bounds.ETA_STRATEGIES) + sorted(ETA_ALIASES))
    return eta


def _resolve_cover(g: mg.MetricGraph, spec: str) -> covers.Cover:
    if spec.startswith("file:"):
        return covers.cover_from_json(_read_json(spec[len("file:"):]))
    return covers.build_cover(g, spec)


def _emit(args, payload: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    g = load_graph(args.graph)
    report = mg.validate(g)
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _cmd_gen(args) -> int:
    g = mg.generate(args.family, length=args.length, segments=args.segments)
    payload = json.dumps(mg.graph_to_json(g), indent=2) + "\n"
    _emit(args, payload)
    return 0


def _cmd_bounds(args) -> int:
    g = load_graph(args.graph)
    eta = _resolve_eta(args.eta)
    if args.cover in ("star", "stars"):
        report = bounds.star_bound(g)
    else:
        cover = _resolve_cover(g, args.cover)
        report = bounds.transfer_bound(g, cover, eta)
    if args.k is not None:
        report = dataclasses.replace(
            report, indices=report.indices[:args.k], bounds=report.bounds[:args.k])
    if args.format == "json":
        payload = json.dumps(report.to_json(), indent=2) + "\n"
    else:
        table = bounds.tabulate(g, [report], with_oracle=not args.no_oracle)
        if table.oracle_note is not None:
            sys.stderr.write(f"oracle column empty: {table.oracle_note}\n")
        payload = table.to_csv()
    _emit(args, payload)
    return 0


def _cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    res = oracle.spectrum(g, count=args.count, method=args.method, mesh=args.mesh)
    payload = json.dumps(res.to_json(), indent=2) + "\n"
    _emit(args, payload)
    return 0


def _cmd_repro(args) -> int:
    rows = repro.run_case(args.case) if args.case else repro.run_all()
    if args.format == "json":
        _emit(args, json.dumps([r.to_json() for r in rows], indent=2) + "\n")
    else:
        _emit(args, repro.format_rows(rows) + "\n")
    return 0 if repro.all_pass(rows) else 1


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return int(text)


def _parse_mesh(text: str):
    try:
        mesh = Fraction(text)
    except (ValueError, ZeroDivisionError):
        try:
            return float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a mesh width: {text!r}") from None
    try:
        float(mesh)  # the finite-element route works in floats
    except OverflowError:
        raise argparse.ArgumentTypeError(f"mesh width overflows a float: {text!r}") from None
    return mesh


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qgb",
        description="Eigenvalue bounds and reference spectra for metric graphs.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a graph file and print a summary")
    v.add_argument("graph")
    v.set_defaults(fn=_cmd_validate)

    gn = sub.add_parser("gen", help="generate a graph file from a family spec")
    gn.add_argument("family",
                    help="e.g. platonic:cube, pumpkin:4, pumpkin_chain:3,2,4, "
                         "cycle:6, path:3, star:1,3/2,2")
    gn.add_argument("--length",
                    help="uniform edge length (int, p/q or float) of the platonic, "
                         "pumpkin and pumpkin_chain families")
    gn.add_argument("--segments", type=int,
                    help="edge count of the cycle family")
    gn.add_argument("-o", "--output")
    gn.set_defaults(fn=_cmd_gen)

    b = sub.add_parser("bounds", help="compute eigenvalue lower bounds")
    b.add_argument("graph")
    b.add_argument("--cover", default="star",
                   help="star, faces, face_pairs, pumpkin_cycles, layered, "
                        "concatenated, copies:m, or file:cover.json")
    b.add_argument("--eta", default="cycle",
                   help="exact, cycle, nicaise, star, oracle (or full "
                        "strategy names)")
    b.add_argument("--k", type=_positive_int,
                   help="report only the first K indices (K >= 1)")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--no-oracle", action="store_true",
                   help="skip the oracle column in CSV output")
    b.add_argument("-o", "--output")
    b.set_defaults(fn=_cmd_bounds)

    o = sub.add_parser("oracle", help="reference spectrum of a graph file")
    o.add_argument("graph")
    o.add_argument("--count", type=_positive_int, default=6,
                   help="how many eigenvalues, from the first (COUNT >= 1)")
    o.add_argument("--mesh", type=_parse_mesh,
                   help="subdivision grid (rational graphs) or FE mesh width")
    o.add_argument("--method", choices=("auto", "von_below", "subdivision", "fd"),
                   default="auto")
    o.add_argument("-o", "--output")
    o.set_defaults(fn=_cmd_oracle)

    r = sub.add_parser("repro", help="recompute the built-in reference tables")
    r.add_argument("--case", help="one of: " + ", ".join(repro.case_ids()))
    r.add_argument("--format", choices=("text", "json"), default="text")
    r.add_argument("-o", "--output")
    r.set_defaults(fn=_cmd_repro)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle" and args.method == "von_below" and args.mesh is not None:
        parser.error("--mesh does not apply to --method von_below, whose grid is "
                     "the common edge length")
    try:
        return args.fn(args)
    except QGraphError as exc:
        sys.stderr.write(json.dumps(exc.to_json()) + "\n")
        return 1


def main_entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main_entry()
