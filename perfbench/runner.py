"""Timed and traced runs of one workload, and their metrics."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import sys
import time
import traceback
from statistics import median

import tracing
from calibrate import Calibration
from workloads import OUT, ROOT, OpError


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "revision": git_revision(),
    }


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_passes(wl, cal, passes=None, seconds=0.0, tracer=None):
    """Run whole passes: a fixed number, or until the ops have taken ``seconds``.

    Each pass is checked as soon as it ends, outside the timed region.
    Returns the raw latencies, the latencies at nominal host speed, and the
    number of failed ops.
    """
    raw, marks, failed, busy = [], [], 0, 0.0
    i = 0
    while i < passes if passes is not None else (i == 0 or busy < seconds):
        outs = []
        for _, thunk in wl.ops(i):
            if tracer is not None:
                tracer.op_id = len(raw)
                thunk = (lambda t: lambda: tracer.call("bench.op", t))(thunk)
            cal.tick()
            marks.append(cal.index())
            t0 = time.perf_counter()
            try:
                out = thunk()
            except Exception as exc:  # an op that raises counts as failed
                out = OpError(exc)
                if not failed and not any(isinstance(o, OpError) for o in outs):
                    traceback.print_exc()
            raw.append(time.perf_counter() - t0)
            busy += raw[-1]
            outs.append(out)
        oks = wl.check(i, outs)
        bad = sorted({g for (g, _), ok in zip(wl.last_ops, oks) if not ok})
        if bad:
            print(f"perfbench: pass {i}: failed ops in groups {', '.join(bad)}", file=sys.stderr)
        failed += sum(not ok for ok in oks)
        i += 1
    cal.tick(force=True)
    if tracer is not None:
        tracer.op_id = -1
    return raw, [cal.scale(r, m) for r, m in zip(raw, marks)], failed


def percentile(lat_sorted, pct):
    """Nearest-rank percentile."""
    return lat_sorted[max(math.ceil(pct / 100 * len(lat_sorted)) - 1, 0)]


def measure(make, cal, seconds, imports, repeats):
    """End-to-end metrics of one workload; ``make()`` builds a fresh one and
    ``imports`` are the (seconds, calibration mark) of repeated imports."""
    setups = []
    for _ in range(repeats):
        wl = None
        gc.collect()  # every set-up starts from the same heap
        cal.tick(force=True, runs=5)
        mark = cal.index()
        t0 = time.perf_counter()
        wl = make()
        wl.setup()
        dt = time.perf_counter() - t0
        cal.tick(force=True, runs=5)
        setups.append(cal.scale(dt, mark))
    import_s = median(cal.scale(t, m) for t, m in imports)
    ops_cal = wl.op_calibration()
    raw, lat, failed = run_passes(wl, ops_cal, seconds=seconds)
    rss = wl.peak_rss_mb()
    n = len(lat)
    ordered = sorted(lat)
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (median(lat) * 1e3, "ms"),
        "op_tail_ms": (percentile(ordered, wl.tail_pct) * 1e3, "ms"),
        "setup_s": (import_s + median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_ratio": ((n - failed) / n, "ratio"),
    }
    details = {"ops": n, "busy_s": sum(raw),
               "tail_percentile": wl.tail_pct,
               "ops_beyond_tail": n - math.ceil(wl.tail_pct / 100 * n),
               "raw_ops_per_s": n / sum(raw), "raw_op_p50_ms": median(raw) * 1e3,
               "raw_op_tail_ms": percentile(sorted(raw), wl.tail_pct) * 1e3,
               "kernel_median_ms": median(ops_cal.kernels) * 1e3,
               "kernel_samples": len(ops_cal.kernels),
               "import_s": import_s, "setup_runs_s": setups}
    return n, failed, metrics, details


def measure_traced(wl, label):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.call("bench.setup", wl.setup)
    finally:
        tracer.uninstall()
    wl.prepare_trace()
    cal = Calibration()  # traced work runs in process, also for cli_cold
    _, plain_lat, plain_failed = run_passes(wl, cal, passes=wl.trace_passes)
    tracer.counts.clear()
    tracer.install()
    try:
        raw, lat, failed = run_passes(wl, cal, passes=wl.trace_passes, tracer=tracer)
    finally:
        tracer.uninstall()
    failed += plain_failed
    layer = tracer.layer_metrics()
    layer.update(wl.extra_layer_metrics(plain_lat))
    layer.update({"trace.wall_s": sum(raw), "trace.overhead": sum(lat) / sum(plain_lat)})
    spans = OUT / f"spans-{label}.csv.gz"
    tracer.write(spans)
    details = {"ops": len(lat) + len(plain_lat), "traced_ops": len(lat),
               "untraced_ops_per_s": len(plain_lat) / sum(plain_lat),
               "traced_ops_per_s": len(lat) / sum(lat),
               "spans_file": str(spans.relative_to(ROOT))}
    return len(lat) + len(plain_lat), failed, layer, details


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
