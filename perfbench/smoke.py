"""Smoke test of the benchmark's own code, at toy size.

    python3 perfbench/smoke.py

For every workload, one untraced and two traced runs with one seed.  Checks
that the result line has exactly the contract's keys; that every metric of
``BENCHMARK.json`` is printed with its unit; that no op failed (``ok_ratio``
is 1); that per-layer counts repeat exactly across the two traced runs; and
that no layer's self time exceeds the traced wall time.  Last, checks that the
benchmark exits nonzero without a result in a directory that holds only
``BENCHMARK.json`` and ``perfbench/``.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def result(workload: str, trace: int) -> dict:
    proc = run(ROOT, workload, trace)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                 f"{proc.stderr[-500:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(res)}")
    expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
           f"{workload} trace={trace}: {res['failed']} of {res['attempted']} ops failed")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    expect(got == {m["name"]: m["unit"] for m in wanted},
           f"{workload} trace={trace}: metric names or units differ from BENCHMARK.json")
    return res["metrics"]


def expect(ok: bool, what: str):
    if not ok:
        print(f"smoke: FAIL {what}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        e2e = result(name, 0)
        expect(e2e["ok_ratio"]["value"] == 1.0, f"{name}: ok_ratio {e2e['ok_ratio']['value']}")
        a, b = result(name, 1), result(name, 1)
        for metric, m in a.items():
            if m["unit"] == "count":
                expect(m["value"] == b[metric]["value"],
                       f"{name}: {metric} {m['value']} != {b[metric]['value']} across traced runs")
            if metric.endswith(".self_s"):
                expect(0 <= m["value"] <= a["trace.wall_s"]["value"],
                       f"{name}: {metric} {m['value']} outside [0, traced wall]")
        print(f"smoke: {name} ok", file=sys.stderr)

    bare = ROOT / "perfbench" / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in (ROOT / "perfbench").glob("*.*"):
        shutil.copy(f, bare / "perfbench")
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)
    print("smoke: all checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
