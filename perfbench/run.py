"""Benchmark of the maro library and CLI.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload is one single-threaded closed loop: the next op starts
when the last one returns.  Ops run in whole passes until ``--seconds`` have
passed; their outputs are checked after the loop, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed amount
of work once untraced and once traced, and prints per-layer metrics from the
traced run; spans go to ``perfbench/out/``.  The last line of stdout is the
result object; the line before it holds provenance and details.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def time_imports(cal, repeats: int) -> list[tuple[float, int]]:
    """Import maro ``repeats`` times, each into a clean module table, and keep
    the first import's modules.  Returns (seconds, calibration mark) pairs."""
    def ours():
        return [m for m in sys.modules if m == "maro" or m.startswith("maro.")]

    out, kept = [], None
    for _ in range(repeats):
        for name in ours():
            del sys.modules[name]
        cal.tick(force=True, runs=5)
        mark = cal.index()
        t0 = time.perf_counter()
        import maro  # noqa: F401
        out.append((time.perf_counter() - t0, mark))
        kept = kept or {name: sys.modules[name] for name in ours()}
    cal.tick(force=True, runs=5)
    sys.modules.update(kept)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy inputs exercise the benchmark code only (smoke test)")
    args = ap.parse_args(argv)

    for need in ("src/maro/__init__.py", "tests/oracles.py", "BENCHMARK.json"):
        if not (ROOT / need).is_file():
            print(f"perfbench: {need} not found; run from a maro source checkout",
                  file=sys.stderr)
            return 2
    load_start = os.getloadavg()
    from calibrate import Calibration

    cal = Calibration()
    sys.path.insert(0, str(ROOT / "src"))
    imports = time_imports(cal, 5)

    import runner
    from workloads import OUT, SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    def make():
        return WORKLOADS[args.workload](args.seed, args.size)

    OUT.mkdir(parents=True, exist_ok=True)
    label = f"{args.workload}-s{args.seed}-{args.size}"
    if args.trace:
        attempted, failed, values, details = runner.measure_traced(make(), label)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in runner.benchmark_spec()["per_layer"]}
    else:
        attempted, failed, values, details = runner.measure(
            make, cal, args.seconds, imports, SIZES[args.size]["setup_repeats"])
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, **runner.provenance(),
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(), **details}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{label}-t{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
