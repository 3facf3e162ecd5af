"""Print the full result of every benchmark op, one line per op, so that two
checkouts can be compared for bit-identical results.

Runs every item of the three pools of ``perfbench/workloads.py`` for each of
SEEDS and prints ``workload seed index result``, the result as JSON with
every float in ``float.hex``: for ``bounds_sweep`` each report's method,
indices, bounds, ingredients, upper bounds and flags, and for the oracles
the method, values and meta.  An op that raises prints its error class and
message instead.  Nothing is written under ``perfbench/``.

Usage, from the root of a source checkout; run it at two commits and
compare the outputs byte for byte:

    python3 tools/op_digests.py > /tmp/after.txt
    cmp /tmp/before.txt /tmp/after.txt
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (2431, 8817, 2621, 3001, 4001, 7311, 2961, 3101)


def plain(x):
    """x as JSON data, every float in float.hex and every Fraction as p/q."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (str, int)) or x is None:
        return x
    if hasattr(x, "tolist"):  # a numpy array or scalar
        return plain(x.tolist())
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return repr(x)


def result(name, out):
    if name == "bounds_sweep":
        return [{"method": r.method, "indices": plain(r.indices), "bounds": plain(r.bounds),
                 "ingredients": plain(r.ingredients), "upper_bounds": plain(r.upper_bounds),
                 "flags": plain(r.flags)} for r in out]
    return {"method": out.method, "values": plain(out.values), "meta": plain(out.meta)}


def main() -> None:
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    sys.path.insert(0, str(PERFBENCH))
    import run
    run.pin_environment()  # one BLAS thread and qgbounds from this checkout, before numpy loads
    import workloads
    from qgbounds.errors import QGraphError

    for name in workloads.NAMES:
        for seed in SEEDS:
            work = workloads.get(name)
            for k, item in enumerate(work.prepare(seed, tiny=False)):
                try:
                    line = result(name, work.op(item))
                except QGraphError as exc:
                    line = {"error": type(exc).__name__, "message": str(exc)}
                print(name, seed, k, json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
