"""In-memory span tracer that wraps maro's public functions from outside.

Every public function of the eight layer modules is replaced, at each module
attribute it is reachable through (``maro.efficiency.set_cmp`` as well as
``maro.relations.set_cmp``), by a wrapper that records one span: name, start,
end, parent span and op id.  Nothing under ``src/`` is edited; ``uninstall``
puts the original objects back.

Self time of a span is its duration minus the durations of its child spans;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import types
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("instances", "relations", "pareto", "efficiency", "scalarize", "images",
          "verify", "cli")

# Called once per point or per set pair: a span each would cost more than the
# work itself, so their time stays in the caller's self time.
LEAVES = {"relations.dot", "relations.weighted_min"}

VERDICTS = {"efficiency.maro_efficient", "efficiency.mro_efficient"}
VALUES = {"scalarize.f_lambda", "scalarize.f_eps_j", "scalarize.f_pb"}
SELECTIONS = {"scalarize.ws_efficient_set", "scalarize.eps_efficient_set",
              "scalarize.pb_efficient_set"}


def _sized(points):
    return points if hasattr(points, "__len__") else tuple(points)


def _count_nondominated(counts, args, kwargs, out):
    counts["pareto.points_in"] += len(args[0] if args else kwargs["points"])
    counts["pareto.points_out"] += len(out)


def _count_verdict(counts, args, kwargs, out):
    counts["efficiency.efficient"] += bool(out.efficient)


def _count_image(counts, args, kwargs, out):
    if hasattr(out, "feasible"):      # one constraint image point
        counts["images.points_out"] += int(out.feasible)
    elif hasattr(out, "infeasible"):  # constraint grid image
        counts["images.points_out"] += len(out.points)
    else:
        counts["images.points_out"] += len(out)


def _count_checks(counts, args, kwargs, out):
    counts["verify.checks_run"] += len(out) if isinstance(out, list) else 1


def _post_hook(name):
    if name == "pareto.nondominated":
        return _count_nondominated
    if name in VERDICTS:
        return _count_verdict
    if name.startswith("images.image_"):
        return _count_image
    if name.startswith("verify.check_"):
        return _count_checks
    return None


class Tracer:
    """Span recorder; spans live in flat arrays until ``write``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sname = array("i")
        self.sparent = array("i")
        self.sop = array("i")
        self.sstart = array("d")
        self.send = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn):
        """Run ``fn()`` inside a span named ``name``."""
        return self._span_wrapper(name, fn)()

    def _span_wrapper(self, name: str, fn):
        nid = self._nid(name)
        post = _post_hook(name)
        sized = name == "pareto.nondominated"
        names, parents, ops = self.sname, self.sparent, self.sop
        starts, ends, stack, counts = self.sstart, self.send, self.stack, self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if sized and args:
                args = (_sized(args[0]),) + args[1:]
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if post is not None:
                post(counts, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every public layer function wherever a maro module binds it."""
        mods = {layer: importlib.import_module(f"maro.{layer}") for layer in LAYERS}
        package = importlib.import_module("maro")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in LEAVES:
                    continue
                if name == "relations.vec_cmp":
                    wrappers[id(obj)] = (obj, self._count_wrapper("relations.vec_cmp_calls", obj))
                else:
                    wrappers[id(obj)] = (obj, self._span_wrapper(name, obj))
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is None or entry[0] is not obj:
                    continue
                # nondominated's own dominance tests are covered by pareto.self_s
                if mod is mods["pareto"] and attr == "vec_cmp":
                    continue
                self._patch(mod, attr, entry[1])
        instance = mods["instances"].Instance
        self._patch(instance, "points", self._span_wrapper("instances.points", instance.points))

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def write(self, path):
        """Write all spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.sstart[0] if self.sstart else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,name,parent,op,start_s,end_s\n")
            for i in range(len(self.sstart)):
                fh.write(f"{i},{self.names[self.sname[i]]},{self.sparent[i]},{self.sop[i]},"
                         f"{self.sstart[i] - t0:.9f},{self.send[i] - t0:.9f}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios over spans inside ops.

        ``instances.load_s`` also counts set-up spans, because loading the
        instance document is set-up work for every in-process workload.
        """
        n = len(self.sstart)
        starts, ends, parents, ops = self.sstart, self.send, self.sparent, self.sop
        dur = [ends[i] - starts[i] for i in range(n)]
        child = [0.0] * n
        has_front_child = bytearray(n)
        nd_id = self._ids.get("pareto.nondominated", -1)
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
                if self.sname[i] == nd_id:
                    has_front_child[p] = 1
        calls: Counter = Counter()
        self_s: Counter = Counter()
        load_s = 0.0
        front_hits = 0
        set_cmp_in_verdict = 0
        points_in_value = 0
        names = [self.names[k] for k in self.sname]
        for i in range(n):
            name = names[i]
            if name == "instances.load_instance":
                load_s += dur[i]
            if ops[i] < 0:
                continue
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            p = parents[i]
            parent = names[p] if p >= 0 else ""
            if name == "pareto.inner_efficient" and not has_front_child[i]:
                front_hits += 1
            elif name == "relations.set_cmp" and parent in VERDICTS:
                set_cmp_in_verdict += 1
            elif name == "instances.points" and parent in VALUES:
                points_in_value += 1
        layer_self: Counter = Counter()
        for name, s in self_s.items():
            layer_self[name.split(".", 1)[0]] += s

        def total(group):
            return sum(calls[name] for name in group)

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        verdicts = total(VERDICTS)
        values = total(VALUES)
        return {
            "instances.points_calls": calls["instances.points"],
            "instances.points_self_s": self_s["instances.points"],
            "instances.load_s": load_s,
            "instances.self_s": layer_self["instances"],
            "relations.set_cmp_calls": calls["relations.set_cmp"],
            "relations.set_cmp_self_s": self_s["relations.set_cmp"],
            "relations.vec_cmp_calls": c["relations.vec_cmp_calls"],
            "relations.self_s": layer_self["relations"],
            "pareto.nondominated_calls": calls["pareto.nondominated"],
            "pareto.self_s": layer_self["pareto"],
            "pareto.points_in": c["pareto.points_in"],
            "pareto.points_out": c["pareto.points_out"],
            "pareto.survivor_ratio": ratio(c["pareto.points_out"], c["pareto.points_in"]),
            "pareto.front_cache_hit_ratio": ratio(front_hits, calls["pareto.inner_efficient"]),
            "efficiency.verdicts": verdicts,
            "efficiency.self_s": layer_self["efficiency"],
            "efficiency.set_cmp_per_verdict": ratio(set_cmp_in_verdict, verdicts),
            "efficiency.efficient_ratio": ratio(c["efficiency.efficient"], verdicts),
            "scalarize.value_calls": values,
            "scalarize.selection_calls": total(SELECTIONS),
            "scalarize.self_s": layer_self["scalarize"],
            "scalarize.points_calls_per_value": ratio(points_in_value, values),
            "images.calls": sum(v for k, v in calls.items() if k.startswith("images.image_")),
            "images.self_s": layer_self["images"],
            "images.points_out": c["images.points_out"],
            "verify.checks_run": c["verify.checks_run"],
            "verify.self_s": layer_self["verify"],
            "cli.self_s": layer_self["cli"],
            "bench.self_s": layer_self["bench"],
            "trace.spans": n,
        }
