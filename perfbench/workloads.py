"""The four benchmark workloads: seeded inputs, timed ops and output checks.

A workload is run in passes.  ``setup()`` builds the inputs from the seed;
``ops(i)`` returns the timed calls of pass ``i`` as ``(group, thunk)`` pairs,
after any untimed per-pass preparation (a fresh instance, so front caches
start cold); ``check(i, outs)`` says, outside the timed region, which outputs
of that pass are correct.  Library calls go through attributes of the ``maro``
package and its modules, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import maro
import maro.cli
from calibrate import NOMINAL_START_S, Calibration, interpreter_start_time

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
REFERENCE = ROOT / "perfbench" / "reference.json"

TAU = maro.DEFAULT_TOL.tau

# Input sizes.  "full" is what the benchmark measures; "toy" only exercises
# the benchmark's own code quickly (see smoke.py).
SIZES = {
    "full": {"scale": (60, 10, 400), "grid_k": 50, "bounds": 6, "cli": (10, 4, 30),
             "battery_trace_ops": 200, "cli_trace_cycles": 3, "setup_repeats": 5},
    "toy": {"scale": (6, 3, 30), "grid_k": 4, "bounds": 2, "cli": (4, 2, 6),
            "battery_trace_ops": 5, "cli_trace_cycles": 1, "setup_repeats": 5},
}


def load_oracles():
    """The brute-force reference implementations of the test suite."""
    spec = importlib.util.spec_from_file_location("maro_oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


O = load_oracles()


class OpError:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"OpError({self.text!r})"


def rng_for(seed: int, label: str) -> random.Random:
    # String seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{seed}:{label}")


def recorded_digests(workload: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def group_key(group: str, variant: int) -> str:
    return group if variant == 0 else f"{group}@{variant}"


def fresh(inst):
    """Same recourse data, empty front cache."""
    return maro.Instance(inst.name, inst.n, inst.decisions, inst.scenarios,
                         dict(inst.recourse), inst.sampled)


def instance_document(rng: random.Random, name: str, shape, high: int) -> str:
    """JSON instance with two objectives and integer coordinates in [0, high]."""
    nx, nu, ny = shape
    decisions = [f"x{i + 1:02d}" for i in range(nx)]
    scenarios = [f"u{i + 1:02d}" for i in range(nu)]
    recourse = {
        x: {u: [[rng.randint(0, high), rng.randint(0, high)] for _ in range(ny)]
            for u in scenarios}
        for x in decisions
    }
    return json.dumps({"name": name, "n": 2, "decisions": decisions,
                       "scenarios": scenarios, "recourse": recourse})


# -- exact references built from tests/oracles.py -------------------------

class VerdictOracle:
    """Three-stage efficiency from brute fronts and brute set relations.

    With integer coordinates (and weights 1/2) every comparison is exact, so
    it must agree with the library at the default tolerance.
    """

    def __init__(self, inst):
        self.inst = inst
        self.fronts = {k: O.brute_min_front(v) for k, v in inst.recourse.items()}
        self._memo = {}

    def dominates(self, xp, x, u, spec, strict) -> bool:
        key = (xp, x, u, spec.family, spec.lam, strict)
        if key not in self._memo:
            self._memo[key] = O.brute_set_leq(self.fronts[(xp, u)], self.fronts[(x, u)],
                                              spec.family.value, strict, spec.lam)
        return self._memo[key]

    def agrees(self, x, kind, strictness, spec, verdict) -> bool:
        inst = self.inst
        strict = strictness is maro.Strictness.WEAK
        others = sorted(d for d in inst.decisions if d != x)

        def dom(xp, u):
            return self.dominates(xp, x, u, spec, strict)

        if kind is maro.Kind.MULTI_SCENARIO:
            efficient = not any(all(dom(xp, u) for u in inst.scenarios) for xp in others)
        else:
            hit = [any(dom(xp, u) for xp in others) for u in inst.scenarios]
            efficient = not all(hit) if kind is maro.Kind.FLIMSY else not any(hit)
        if verdict.efficient != efficient:
            return False
        if efficient:
            return True
        w = verdict.witness
        covers_all = len(w.scenario_map) == len(inst.scenarios)
        return (w.xprime in others
                and (kind is maro.Kind.HIGHLY or covers_all)
                and all(dom(xp, u) for u, xp in w.scenario_map))


def _tol_lt(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a < b
    return b - a > TAU


def plain_minimizers(decisions, values: dict) -> list:
    """Decisions no competitor beats by more than the tolerance."""
    return [x for x in decisions
            if not any(_tol_lt(values[xp], values[x]) for xp in decisions if xp != x)]


# -- workloads ---------------------------------------------------------------

class Workload:
    name = ""
    trace_passes = 1
    tail_pct = 95.0    # fixed, with at least 10 ops beyond it at this size
    use_recorded = True  # compare the first pass with perfbench/reference.json
    variants = 1         # distinct inputs, cycled over the passes

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.cfg = SIZES[size]
        self.first = {}  # variant -> (outputs, ok) of its first pass, the reference for later ones

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def op_calibration(self) -> Calibration:
        """Host-speed calibration for the ops (calibrate.py)."""
        return Calibration()

    def prepare_trace(self):
        pass

    def extra_layer_metrics(self, plain_lat) -> dict:
        """Layer metrics measured outside the span tracer; the CLI layer only
        runs in ``cli_cold``."""
        return {"cli.interp_start_ms": 0.0, "cli.import_ms": 0.0, "cli.main_ms": 0.0}

    def check(self, i, outs) -> list[bool]:
        """Pass outputs: the first pass of each variant against the oracles
        and the recorded digests, later passes against that first one."""
        v = i % self.variants
        if v not in self.first:
            ok = self.check_first(outs)
            recorded = self.recorded()
            if recorded is not None:
                groups = self.group_digests(outs, v)
                bad = {g for g in groups if recorded.get(g) != groups[g]}
                ok = [good and group_key(g, v) not in bad
                      for good, (g, _) in zip(ok, self.last_ops)]
            self.first[v] = (outs, ok)
            return ok
        first, first_ok = self.first[v]
        return [a == b and good for a, b, good in zip(outs, first, first_ok)]

    def recorded(self) -> dict | None:
        if not self.use_recorded or self.size != "full":
            return None
        return recorded_digests(self.name, self.seed)

    def group_digests(self, outs, variant=0) -> dict[str, str]:
        groups: dict[str, list] = {}
        for (g, _), out in zip(self.last_ops, outs):
            groups.setdefault(group_key(g, variant), []).append(self.canonical(out))
        return {g: digest(items) for g, items in groups.items()}

    def canonical(self, out):
        return out


class Battery(Workload):
    """``run_battery(seed_i, count=1)``: one desk-scale instance, all 16 checks."""

    name = "battery"
    tail_pct = 95.0

    def setup(self):
        self.seeds = []
        self._rng = rng_for(self.seed, "battery")
        self.trace_passes = self.cfg["battery_trace_ops"]
        warm = rng_for(self.seed, "battery-warmup")
        for _ in range(3):
            maro.run_battery(warm.randrange(2**32), count=1)

    def ops(self, i):
        while len(self.seeds) <= i:
            self.seeds.append(self._rng.randrange(2**32))
        seed_i, jitter = self.seeds[i], 0.25 if i % 2 else 0.0
        self.last_ops = [("battery", lambda: maro.run_battery(seed_i, count=1, jitter=jitter))]
        return self.last_ops

    def check(self, i, outs):
        return [isinstance(r, maro.BatteryReport) and r.passed for r in outs]


_CHAIN = (
    (maro.Kind.FLIMSY, maro.Strictness.STRICT),
    (maro.Kind.FLIMSY, maro.Strictness.WEAK),
    (maro.Kind.HIGHLY, maro.Strictness.STRICT),
    (maro.Kind.HIGHLY, maro.Strictness.WEAK),
    (maro.Kind.MULTI_SCENARIO, maro.Strictness.STRICT),
)


class ScaleFronts(Workload):
    """Cold fronts, implication-chain verdicts and ``smaro_set`` on the scale instance."""

    name = "scale_fronts"
    tail_pct = 99.0
    # A verdict's cost depends on the instance's dominance structure, so one
    # instance's verdict latencies vary a lot from seed to seed; passes
    # alternate between two instances to halve that variance.
    variants = 2

    def load(self, variant: int):
        text = instance_document(rng_for(self.seed, f"fronts-{variant}"),
                                 f"scale-fronts-s{self.seed}-{variant}", self.cfg["scale"], 1000)
        self.base, self.variant = maro.load_instance(text), variant

    def setup(self):
        self.load(0)
        self.specs = [maro.SetRelSpec(maro.SetRelFamily.UPPER),
                      maro.SetRelSpec(maro.SetRelFamily.LOWER),
                      maro.SetRelSpec(maro.SetRelFamily.LAMBDA_MIN, lam=(0.5, 0.5))]

    def ops(self, i):
        if self.variant != i % self.variants:
            self.load(i % self.variants)
        inst = fresh(self.base)
        ops = [("fronts", lambda x=x, u=u: maro.inner_efficient(inst, x, u))
               for x in inst.decisions for u in inst.scenarios]
        ops += [("verdicts", lambda x=x, k=k, s=s, sp=sp: maro.maro_efficient(inst, x, k, s, sp))
                for sp in self.specs for x in inst.decisions for k, s in _CHAIN]
        ops.append(("smaro", lambda: maro.smaro_set(inst)))
        self.last_ops = ops
        return ops

    def canonical(self, out):
        if isinstance(out, maro.FrontSet):
            return out.points
        if isinstance(out, maro.Verdict):
            w = out.witness
            return (out.efficient, w and (w.xprime, w.scenario_map))
        if isinstance(out, maro.SmaroResult):
            return (out.decisions, out.front.points)
        return repr(out)

    def check_first(self, outs):
        inst = self.base
        oracle = VerdictOracle(inst)
        ok = []
        pairs = iter(zip(self.last_ops, outs))
        for x in inst.decisions:
            for u in inst.scenarios:
                _, out = next(pairs)
                ok.append(isinstance(out, maro.FrontSet)
                          and list(out.points) == oracle.fronts[(x, u)])
        for sp in self.specs:
            for x in inst.decisions:
                for k, s in _CHAIN:
                    _, out = next(pairs)
                    ok.append(isinstance(out, maro.Verdict) and oracle.agrees(x, k, s, sp, out))
        _, out = next(pairs)
        mid = {x: O.brute_max_front([p for u in inst.scenarios for p in oracle.fronts[(x, u)]])
               for x in inst.decisions}
        outer = O.brute_min_front([p for x in inst.decisions for p in mid[x]])
        keep = set(outer)
        survivors = tuple(x for x in inst.decisions if any(p in keep for p in mid[x]))
        ok.append(isinstance(out, maro.SmaroResult) and out.decisions == survivors
                  and list(out.front.points) == outer)
        return ok


class ScaleImages(Workload):
    """Weighted-sum, constraint and point-based images of a scale instance."""

    name = "scale_images"
    tail_pct = 90.0

    def setup(self):
        text = instance_document(rng_for(self.seed, "images"), f"scale-images-s{self.seed}",
                                 self.cfg["scale"], 1000)
        self.base = maro.load_instance(text)
        self.weights = maro.WeightGrid(2, self.cfg["grid_k"]).weights
        rng = rng_for(self.seed, "images-bounds")
        self.bounds = [maro.GenBound((0.0, float(rng.randint(20, 400))) if j == 1
                                     else (float(rng.randint(20, 400)), 0.0), j)
                       for j in (1, 2) for _ in range(self.cfg["bounds"])]

    def ops(self, i):
        inst = fresh(self.base)
        ops = [("ws", lambda w=w: maro.image_ws(inst, w)) for w in self.weights]
        ops += [("eps", lambda gb=gb: maro.image_eps(inst, gb)) for gb in self.bounds]
        ops.append(("pb", lambda: maro.image_pb(inst)))
        self.last_ops = ops
        return ops

    def canonical(self, out):
        if isinstance(out, maro.EpsImagePoint):
            return (out.point, out.feasible)
        return out if isinstance(out, tuple) else repr(out)

    def check_first(self, outs):
        """Values behind a seeded sample of the images against the oracles."""
        inst = self.base
        rng = rng_for(self.seed, "images-sample")
        ws_idx = set(rng.sample(range(len(self.weights)), min(6, len(self.weights))))
        eps_idx = set(rng.sample(range(len(self.bounds)), min(4, len(self.bounds))))
        all_points = {p for pts in inst.recourse.values() for p in pts}
        ok = []
        for k, w in enumerate(self.weights):
            out = outs[k]
            good = isinstance(out, tuple) and len(out) > 0
            if good and k in ws_idx:
                vals = {x: O.brute_f_lambda(inst, x, w.values) for x in inst.decisions}
                best = min(vals.values())
                good = (all(maro.f_lambda(inst, x, w) == vals[x] for x in inst.decisions)
                        and all(p in all_points and abs(O.dot(w.values, p) - best) <= 3 * TAU
                                for p in out))
            ok.append(good)
        for k, gb in enumerate(self.bounds):
            out = outs[len(self.weights) + k]
            good = isinstance(out, maro.EpsImagePoint)
            if good and k in eps_idx:
                vals = {x: O.brute_f_eps_j(inst, x, gb.eps, gb.j) for x in inst.decisions}
                best = min(vals.values())
                want = tuple(best if i == gb.j - 1 else gb.eps[i] for i in range(2))
                good = (all(maro.f_eps_j(inst, x, gb) == vals[x] for x in inst.decisions)
                        and out.point == want and out.feasible == (best < math.inf))
            ok.append(good)
        out = outs[-1]
        vals = {x: O.brute_f_pb(inst, x) for x in inst.decisions}
        ok.append(all(maro.f_pb(inst, x) == vals[x] for x in inst.decisions)
                  and list(out) == O.brute_min_front(vals.values()))
        return ok


class CliCold(Workload):
    """One ``python -m maro.cli`` process per op over an instance file."""

    name = "cli_cold"
    tail_pct = 80.0

    def setup(self):
        self.inproc = False
        self.trace_passes = self.cfg["cli_trace_cycles"]
        rng = rng_for(self.seed, "cli")
        nx, nu, ny = self.cfg["cli"]
        text = instance_document(rng, f"cli-s{self.seed}", (nx, nu, ny), 100)
        self.inst = maro.load_instance(text)
        OUT.mkdir(parents=True, exist_ok=True)
        self.path = OUT / f"cli-instance-s{self.seed}-{self.size}.json"
        self.path.write_text(maro.dump_instance(self.inst), encoding="utf-8")
        k = rng.randint(1, 9)
        self.lam = (k / 10, (10 - k) / 10)
        self.cap = float(rng.randint(20, 80))
        self.x = rng.choice(self.inst.decisions)
        lam = f"{self.lam[0]:g},{self.lam[1]:g}"
        eps = f"_,{self.cap:g}"
        f = ["--instance", str(self.path)]
        self.commands = [
            ("validate", ["validate", *f]),
            ("efficiency", ["efficiency", *f, "--x", self.x, "--kind", "flimsy", "--rel", "l"]),
            ("solve-ws", ["solve-ws", *f, "--lambda", lam]),
            ("solve-eps", ["solve-eps", *f, "--eps", eps, "--j", "1"]),
            ("solve-pb", ["solve-pb", *f]),
            ("image-ws", ["image", "ws", *f, "--grid-k", "20"]),
            ("compare", ["compare", *f, "--lambda", lam, "--eps", eps, "--j", "1"]),
            ("verify", ["verify", "--count", "20", "--check", "remark_pb_sandwich",
                        "--seed", str(rng.randrange(1000))]),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.expected = None
        run_process(self.commands[0][1], self.env)  # warm the file cache and bytecode

    def prepare_trace(self):
        self.inproc = True

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def op_calibration(self):
        # The ops run in child processes, possibly on the other core, which
        # the parent's kernel does not track; a bare interpreter start does.
        return Calibration(interpreter_start_time, NOMINAL_START_S, every=0.0, runs=1)

    def ops(self, i):
        run = run_inproc if self.inproc else run_process
        self.last_ops = [(g, lambda argv=argv: run(argv, self.env)) for g, argv in self.commands]
        return self.last_ops

    def check(self, i, outs):
        if self.expected is None:
            self.expected = [run_inproc(argv) for _, argv in self.commands]
            good = self.check_expected()
            recorded = self.recorded()
            for k, (g, _) in enumerate(self.commands):
                if recorded is not None and recorded.get(g) != digest([self.expected[k]]):
                    good[k] = False
            self.expected_ok = good
        return [out == want and out[0] == 0 and good
                for out, want, good in zip(outs, self.expected, self.expected_ok)]

    def group_digests(self, outs=None, variant=0):
        return {g: digest([out]) for (g, _), out in zip(self.commands, self.expected)}

    def check_expected(self) -> list[bool]:
        """Oracle checks on the in-process output of each command."""
        inst, dec = self.inst, list(self.inst.decisions)
        docs = {}
        for (g, _), (rc, out) in zip(self.commands, self.expected):
            try:
                docs[g] = json.loads(out) if rc == 0 else None
            except ValueError:
                docs[g] = None

        def ok_validate(d):
            return (d["ok"] and d["decisions"] == dec and d["scenarios"] == list(inst.scenarios)
                    and d["points"] == sum(len(v) for v in inst.recourse.values()))

        def ok_efficiency(d):
            v = maro.Verdict(d["efficient"], None if d["efficient"] else maro.Witness(
                d["witness"]["xprime"], tuple(d["witness"]["scenarios"].items())))
            spec = maro.SetRelSpec(maro.SetRelFamily.LOWER)
            return VerdictOracle(inst).agrees(self.x, maro.Kind.FLIMSY,
                                              maro.Strictness.STRICT, spec, v)

        def ok_selection(d, vals):
            want = plain_minimizers(dec, vals)
            got = {x: math.inf if g == "+inf" else g for x, g in d["guarantees"].items()}
            return d["efficient"] == want and got == {x: vals[x] for x in want}

        def ok_pb(d):
            vals = {x: O.brute_f_pb(inst, x) for x in dec}
            front = set(O.brute_min_front(vals.values()))
            return (d["fpb"] == {x: list(v) for x, v in vals.items()}
                    and d["efficient"] == [x for x in dec if vals[x] in front])

        checks = {
            "validate": ok_validate,
            "efficiency": ok_efficiency,
            "solve-ws": lambda d: ok_selection(
                d, {x: O.brute_f_lambda(inst, x, self.lam) for x in dec}),
            "solve-eps": lambda d: ok_selection(
                d, {x: O.brute_f_eps_j(inst, x, (0.0, self.cap), 1) for x in dec}),
            "solve-pb": ok_pb,
            "image-ws": lambda d: len(d["points"]) > 0,
            "compare": lambda d: d["weighted_sum"]["bounds_hold"] and d["constraint"]["bounds_hold"],
            "verify": lambda d: d["pass"] and list(d["checks"]) == ["remark_pb_sandwich"],
        }
        return [docs[g] is not None and bool(checks[g](docs[g])) for g, _ in self.commands]

    def extra_layer_metrics(self, plain_lat):
        """Interpreter start, import and untraced in-process ``main`` times."""
        bare = [run_process_timed(["-c", "pass"], self.env) for _ in range(5)]
        probe = ("import time; t = time.perf_counter(); import maro.cli; "
                 "print(time.perf_counter() - t)")
        imports = [float(run_process_timed(["-c", probe], self.env, stdout=True))
                   for _ in range(5)]
        return {"cli.interp_start_ms": median(bare) * 1e3,
                "cli.import_ms": median(imports) * 1e3,
                "cli.main_ms": sum(plain_lat) / len(plain_lat) * 1e3}


def run_process(argv, env):
    proc = subprocess.run([sys.executable, "-m", "maro.cli", *argv], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    return proc.returncode, proc.stdout.decode("utf-8", "replace")


def run_process_timed(args, env, stdout=False):
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    wall = perf_counter() - t0
    return proc.stdout.decode() if stdout else wall


def run_inproc(argv, env=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = maro.cli.main(list(argv))
    return rc, buf.getvalue()


WORKLOADS = {w.name: w for w in (Battery, ScaleFronts, ScaleImages, CliCold)}
