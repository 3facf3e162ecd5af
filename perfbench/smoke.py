"""Smoke test of the benchmark at tiny size.

Usage, from the root of a source checkout:

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--tiny``, and
checks that the result line keeps its schema: exactly the keys correct,
attempted, failed and metrics; every metric named below present with the
unit BENCHMARK.json declares and a finite value; no failed operation.  It
also checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark.  Exits 0
when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mib": "MiB"}
PER_LAYER = {
    "graph_from_json.self_s", "metric_diameter.calls", "metric_diameter.self_s",
    "metric_diameter.edge_pairs", "vertex_distances.self_s",
    "build_cover.self_s", "validate_cover.self_s", "vicinity_graph.calls",
    "vicinity_graph.self_s", "vicinity_per_transfer",
    "eigenvalues_sym.calls", "eigenvalues_sym.self_s", "eigenvalues_sym.n_max",
    "eigenvalues_sym.n3_sum",
    "transfer_bound.calls", "transfer_bound.self_s", "star_bound.self_s",
    "classical_bounds.self_s",
    "spectrum.calls", "spectrum.fallbacks", "subdivision_spectrum.self_s",
    "subdivision.attempts", "subdivision.useful_ratio", "subdivision.vertices_max",
    "fd_spectrum.calls", "fd_spectrum.self_s", "fd_spectrum.nodes_max", "fd.refinements",
    "cli.import_s", "cli.import_scipy_s", "cli.run.self_s", "repro.run_all.self_s",
    "trace.overhead_ratio", "fail_ratio",
}
WORKLOADS = ("bounds_sweep", "oracle_exact", "oracle_fd")


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(line: str, declared: dict, expected_names) -> list:
    problems = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared) or not set(expected_names) <= set(metrics):
        problems.append(f"metric names {sorted(metrics)}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m.get("unit") != declared.get(name):
            problems.append(f"{name}: {m}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"]
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if {k: declared[0].get(k) for k in END_TO_END} != END_TO_END:
        print(f"BENCHMARK.json end_to_end differs from {END_TO_END}")
        return 1
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print(f"BENCHMARK.json workloads differ from {WORKLOADS}")
        return 1
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            p = run(command + ["--workload", workload, "--seed", "7", "--seconds", "1",
                               "--trace", str(trace), "--tiny"], ROOT)
            lines = p.stdout.strip().splitlines()
            problems = ([f"exit {p.returncode}: {p.stderr[-1500:]}"] if p.returncode or not lines
                        else check_result(lines[-1], declared[trace],
                                          END_TO_END if trace == 0 else PER_LAYER))
            print(f"{workload} trace={trace}: {'ok' if not problems else problems}")
            failed |= bool(problems)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = run(command + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                       "--trace", "0"], bare)
    refused = p.returncode != 0 and not p.stdout.strip()
    print(f"bare directory: {'refused' if refused else 'RAN: ' + p.stdout[-300:]}")
    shutil.rmtree(bare)
    return 1 if failed or not refused else 0


if __name__ == "__main__":
    sys.exit(main())
