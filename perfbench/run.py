"""qgbounds benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload bounds_sweep --seed 1 --seconds 36 --trace 0

Workloads: bounds_sweep, oracle_exact, oracle_fd (see BENCHMARK.json and
perfbench/README.md).  The loop is closed: one client, one operation in
flight, rounds over the seeded input pool until ``--seconds`` have passed.
Every input is timed many times and its latency is the best of its
timings, so that slow spells of a shared host do not enter the figures.
Every operation is checked against a reference computed after the timed
loop; a raise or a failed check is a failed op.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with the span tracer installed, plus one traced
in-process ``qgb repro`` run, and reports the per-layer metrics.
``--tiny`` shrinks every pool for a smoke test.

The last line of stdout is the result object; a full record (environment,
samples, failures, layer shares) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_environment() -> None:
    """One BLAS thread, and qgbounds imported from this checkout only."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest pools, for smoke tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def prepare(args):
    import workloads

    wl = workloads.get(args.workload)
    items = wl.prepare(args.seed, args.tiny)
    try:
        wl.warm()
    except Exception as exc:  # the timed loop counts the failure
        sys.stderr.write(f"warm-up raised {type(exc).__name__}: {exc}\n")
    return wl, items


def measure_setup(args) -> list:
    """Wall time from spawning a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        start = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             cwd=ROOT, text=True)
        line = p.stdout.readline()
        samples.append(time.perf_counter() - start)
        _, err = p.communicate()
        if p.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed:\n{err[-3000:]}")
    return samples


class Phase:
    """Latencies and digests of one timed loop over the pool.

    Rounds go over the pool in order until ``seconds`` have passed; the
    first round always completes, so every item is timed at least once.
    An item's latency is the best of its timings: the program's cost on
    that input, without the time other tenants of the host took from it."""

    def __init__(self, wl, items, seconds, tracer=None):
        self.latencies = [[] for _ in items]
        self.results = []
        op = wl.op if tracer is None else (lambda item: tracer.call("op", wl.op, item))
        start = time.perf_counter()
        deadline = start + seconds
        self.rounds = 0
        while self.rounds == 0 or time.perf_counter() < deadline:
            for idx, item in enumerate(items):
                if self.rounds and time.perf_counter() >= deadline:
                    break
                t0 = time.perf_counter()
                try:
                    out = op(item)
                except Exception as exc:  # a raising op is a failed op
                    out = exc
                self.latencies[idx].append(time.perf_counter() - t0)
                if not isinstance(out, Exception):
                    try:
                        out = wl.digest(out)
                    except Exception as exc:
                        out = exc
                self.results.append((idx, out))
            self.rounds += 1
        self.elapsed = time.perf_counter() - start
        self.best = [min(lat) for lat in self.latencies]

    @property
    def ops(self) -> int:
        return len(self.results)

    @property
    def ops_per_s(self) -> float:
        """One pass over the pool, each item at its best latency."""
        return len(self.best) / sum(self.best)


def nearest_rank(values, q: float) -> float:
    """The q-quantile as an observed sample (nearest-rank definition)."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def check_all(wl, items, results) -> list:
    """(item index, reason) for every failed result; references come first."""
    good = {}
    for idx, out in results:
        if not isinstance(out, Exception):
            good.setdefault(idx, []).append(out)
    refs = {}
    for idx, digests in good.items():
        try:
            refs[idx] = wl.reference(items[idx], digests)
        except Exception as exc:  # no reference means the op cannot be certified
            refs[idx] = exc
    failures = []
    for idx, out in results:
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        elif isinstance(refs[idx], Exception):
            reason = f"reference raised {type(refs[idx]).__name__}: {refs[idx]}"
        else:
            reason = wl.check(items[idx], out, refs[idx])
        if reason:
            failures.append((idx, reason))
    return failures


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        sha = git.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def end_to_end(args, wl, phase):
    """End-to-end metrics of an untraced phase, and the detail behind them."""
    setup = measure_setup(args)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": 1e3 * nearest_rank(phase.best, 0.5),
        "op_p90_ms": 1e3 * nearest_rank(phase.best, 0.9),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    reps = [len(lat) for lat in phase.latencies]
    detail = {"setup_samples_s": setup, "rounds": phase.rounds,
              "samples": phase.ops, "elapsed_s": phase.elapsed,
              "items": len(reps), "timings_per_item": [min(reps), max(reps)],
              "completed_ops_per_s": phase.ops / phase.elapsed,
              "best_ms": [1e3 * b for b in phase.best]}
    return metrics, detail


def traced_spans(wl, items, seconds):
    """Run a traced phase; return it with its spans."""
    import tracer

    t = tracer.Tracer()
    patches = tracer.install(t)
    try:
        phase = Phase(wl, items, seconds, tracer=t)
    finally:
        tracer.uninstall(patches)
    return phase, t.spans


def traced_repro():
    """One traced in-process `qgb repro --format json` run.

    Returns its spans, its wall time and the reason its output is wrong
    (None when it matches the recorded table)."""
    import contextlib
    import io

    import qgbounds.cli
    import tracer
    import workloads

    t = tracer.Tracer()
    out = io.StringIO()
    patches = tracer.install(t)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = qgbounds.cli.run(["repro", "--format", "json"])
    except Exception as exc:  # the run counts as a failed op
        code, reason = None, f"raised {type(exc).__name__}: {exc}"
    else:
        reason = workloads.check_repro(code, out.getvalue())
    finally:
        tracer.uninstall(patches)
    return t.spans, time.perf_counter() - start, reason


def cold_import_times():
    """Seconds `import qgbounds.cli` and its scipy imports take in a fresh process."""
    import tracer

    p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qgbounds.cli"],
                       cwd=ROOT, capture_output=True, text=True, timeout=120)
    if p.returncode != 0:
        raise RuntimeError(f"import of qgbounds failed:\n{p.stderr[-3000:]}")
    return tracer.import_times(p.stderr)


def per_layer(args, wl, items):
    import tracer

    base = Phase(wl, items, args.seconds / 2)
    traced, spans = traced_spans(wl, items, args.seconds / 2)
    metrics = tracer.layer_metrics(spans, traced.ops)
    repro_spans, repro_s, repro_failure = traced_repro()
    repro = tracer.layer_metrics(repro_spans, 1)
    metrics["cli.run.self_s"] = repro["cli.run.self_s"]
    metrics["repro.run_all.self_s"] = repro["repro.run_all.self_s"]
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = cold_import_times()
    metrics["trace.overhead_ratio"] = traced.ops_per_s / base.ops_per_s
    op_time = sum(sum(lat) for lat in traced.latencies)
    detail = {"untraced_ops": base.ops, "traced_ops": traced.ops,
              "share_of_op_time": tracer.shares(spans, op_time),
              "repro_s": repro_s,
              "repro_share_of_run": tracer.shares(repro_spans, repro_s),
              "import_share_of_cold_repro": metrics["cli.import_s"] / (
                  metrics["cli.import_s"] + repro_s)}
    return base, traced, metrics, detail, repro_failure


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def main(argv=None) -> int:
    if not (SRC / "qgbounds" / "__init__.py").is_file():
        sys.stderr.write(f"no qgbounds sources under {SRC}; run from a source checkout\n")
        return 2
    pin_environment()
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2
    wl, items = prepare(args)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    if args.trace == 0:
        phase = Phase(wl, items, args.seconds)
        phases = [phase]
        metrics, detail = end_to_end(args, wl, phase)
    else:
        base, traced, metrics, detail, repro_failure = per_layer(args, wl, items)
        phases = [base, traced]
    results = [r for ph in phases for r in ph.results]
    failures = check_all(wl, items, results)
    attempted = len(results)
    if args.trace == 1:
        attempted += 1  # the traced repro run
        if repro_failure:
            failures.append(("repro", repro_failure))
        metrics["fail_ratio"] = len(failures) / attempted

    units = declared_metrics(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": environment(),
              "items": len(items), "detail": detail,
              "failures": [{"item": i, "reason": r} for i, r in failures[:50]],
              "result": result}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for i, reason in failures[:5]:
        sys.stderr.write(f"FAILED item {i}: {reason}\n")
    print(json.dumps({"environment": record["environment"], "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
