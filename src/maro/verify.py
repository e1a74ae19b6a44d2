"""Seeded instance generation and the executable property harness.

Each check replays one proved statement (or documented remark) on concrete
instances and reports violations with enough data to reproduce them.  The
battery derives every instance and parameter choice from one master seed,
so reports are byte-identical across runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

from .efficiency import Kind, maro_efficient, mro_efficient
from .images import _dominated, image_eps_grid, image_pb, simplex_grid
from .instances import DEFAULT_TOL, INF, Instance, Tolerance, Vec, _fmt
from .pareto import _contributors, inner_efficient
from .relations import SetRelFamily, SetRelSpec, Strictness, VecRel, Weight, _vec_eq, set_cmp
from .scalarize import (
    GenBound,
    check_eps_bound,
    check_ws_bound,
    eps_efficient_set,
    f_eps_j,
    f_lambda,
    f_pb,
    pb_trivial_bounds,
    ws_efficient_set,
)


@dataclass(frozen=True)
class GenConfig:
    """Desk-scale random instance parameters; generation is a pure function
    of this record."""

    seed: int
    n: int = 2
    nx: int = 3
    nu: int = 2
    ny: int = 3
    jitter: float = 0.0

    def __post_init__(self):
        checks = (
            (2 <= self.n <= 3, "n must lie in 2..3"),
            (2 <= self.nx <= 6, "nx must lie in 2..6"),
            (1 <= self.nu <= 4, "nu must lie in 1..4"),
            (1 <= self.ny <= 8, "ny must lie in 1..8"),
            (0.0 <= self.jitter < 0.3, "jitter must lie in [0, 0.3)"),
        )
        for ok, msg in checks:
            if not ok:
                raise ValueError(f"invalid generator config: {msg}")


def generate(cfg: GenConfig) -> Instance:
    """Deterministic random instance for a config, with integer coordinates
    in [0, 20] plus the config's jitter."""
    rng = random.Random(cfg.seed)
    decisions = [f"x{i + 1}" for i in range(cfg.nx)]
    scenarios = [f"u{i + 1}" for i in range(cfg.nu)]

    def coord() -> float:
        v = float(rng.randint(0, 20))
        if cfg.jitter:
            v += rng.uniform(0.0, cfg.jitter)
        return v

    recourse = {
        (x, u): tuple(
            tuple(coord() for _ in range(cfg.n)) for _ in range(cfg.ny)
        )
        for x in decisions
        for u in scenarios
    }
    tag = "j" if cfg.jitter else "i"
    name = f"gen-{tag}-s{cfg.seed}-n{cfg.n}x{cfg.nx}u{cfg.nu}y{cfg.ny}"
    return Instance(name, cfg.n, tuple(decisions), tuple(scenarios), recourse)


@dataclass(frozen=True)
class Violation:
    instance: str
    detail: str


@dataclass
class CheckReport:
    check_id: str
    instances: int = 0
    cases: int = 0
    non_vacuous: int = 0
    violations: list[Violation] = field(default_factory=list)
    notes: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def fail(self, inst: Instance, detail: str):
        self.violations.append(Violation(inst.name, detail))

    def merge(self, other: "CheckReport"):
        assert other.check_id == self.check_id
        self.instances += other.instances
        self.cases += other.cases
        self.non_vacuous += other.non_vacuous
        self.violations.extend(other.violations)
        for k, v in other.notes.items():
            self.notes[k] = self.notes.get(k, 0) + v

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "instances": self.instances,
            "cases": self.cases,
            "non_vacuous": self.non_vacuous,
            "pass": self.passed,
            "violations": [asdict(v) for v in self.violations],
            "notes": dict(sorted(self.notes.items())),
        }


def _fmt_vec(v) -> str:
    return "(" + ", ".join(map(_fmt, v)) + ")"


def _family_specs(n: int) -> list[SetRelSpec]:
    uniform = tuple(1.0 / n for _ in range(n))
    return [
        SetRelSpec(SetRelFamily.UPPER),
        SetRelSpec(SetRelFamily.LOWER),
        SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=uniform),
    ]


_CHAIN = (
    (Kind.FLIMSY, Strictness.STRICT),
    (Kind.FLIMSY, Strictness.WEAK),
    (Kind.HIGHLY, Strictness.STRICT),
    (Kind.HIGHLY, Strictness.WEAK),
    (Kind.MULTI_SCENARIO, Strictness.STRICT),
)

# (label, premise, conclusion), the notions as indices into _CHAIN
_IMPLICATIONS = (
    ("strict flimsy -> weak flimsy", 0, 1),
    ("strict highly -> weak highly", 2, 3),
    ("strict highly -> strict flimsy", 2, 0),
    ("weak highly -> weak flimsy", 3, 1),
    ("strict highly -> strict multi-scenario", 2, 4),
)


class _Context:
    """One instance and its battery parameters; the verdicts and scalar
    values the checks share are memoized on the instance.  The references
    the coherence checks compare them with (``mro_efficient``, the one
    reference relation :meth:`ref_leq` and the front-reduced instance)
    compute no verdict or scalar value of that memo, but they do read
    ``inner_efficient``'s memoized fronts, and ``set_cmp`` runs the
    verdicts' own kernel ``relations._set_leq``: a defect there is shared,
    and the README's blind spots list what the battery then misses."""

    def __init__(self, inst: Instance, tol: Tolerance, lams: list[Weight] = (),
                 gb: GenBound | None = None, eps_list: list[Vec] | None = None):
        self.inst = inst
        self.tol = tol
        self.lams = lams
        self.gb = gb
        self.eps_list = eps_list
        self.specs = _family_specs(inst.n)
        self._ref = {}

    def ref_leq(self, xp: str, x: str, u: str, spec: SetRelSpec, strict: bool) -> bool:
        """The reference relation: ``set_cmp`` of the fronts of ``xp`` and
        ``x`` in scenario ``u`` under ``spec``'s strict or non-strict variant,
        asked once per instance (here, so the instance memo gains no entry)."""
        key = (xp, x, u, spec, strict)
        if key not in self._ref:
            inst, tol = self.inst, self.tol
            self._ref[key] = set_cmp(inner_efficient(inst, xp, u, tol).points,
                                     inner_efficient(inst, x, u, tol).points, spec, tol, strict)
        return self._ref[key]


# check id -> (function(context, report) filling that instance's report,
# the battery parameters it reads), in the order of ALL_CHECKS
_CHECKS: dict = {}


def _check(cid: str, *params: str):
    def register(fn):
        _CHECKS[cid] = fn, params
        return fn
    return register


@_check("thm_ws_implies_ms", "lams")
def _thm_ws_implies_ms(ctx: _Context, rep: CheckReport):
    """Strict weighted-sum efficiency forces strict multi-scenario efficiency
    under the matching weighted-minimum set relation.  The theorem is stated
    per weight vector, so each one counts as an instance and a case."""
    inst, tol = ctx.inst, ctx.tol
    rep.instances = rep.cases = len(ctx.lams)
    for lam in ctx.lams:
        sel = ws_efficient_set(inst, lam, Strictness.STRICT, tol)
        if sel.guarantees:
            rep.non_vacuous += 1
        spec = SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=lam.values)
        for x, g in sel.guarantees.items():
            v = maro_efficient(inst, x, Kind.MULTI_SCENARIO, Strictness.STRICT, spec, tol)
            if not v.efficient:
                rep.fail(inst, f"x={x} strictly ws-efficient for lam={_fmt_vec(lam.values)} "
                               f"(value {_fmt(g)}) but multi-scenario dominated by "
                               f"{v.witness.xprime}")


@_check("thm_eps_switch", "gb")
def _thm_eps_switch(ctx: _Context, rep: CheckReport):
    """A strict constraint-efficient decision stays strict when the bound
    slot it minimized is fixed to its guarantee and any other objective is
    minimized instead."""
    inst, tol, gb = ctx.inst, ctx.tol, ctx.gb
    rep.cases = 1
    for x, g in eps_efficient_set(inst, gb, Strictness.STRICT, tol).guarantees.items():
        if g == INF:
            continue
        rep.non_vacuous = 1
        eps2 = tuple(
            g if i == gb.j - 1 else gb.eps[i] for i in range(inst.n)
        )
        for j2 in range(1, inst.n + 1):
            sel2 = eps_efficient_set(inst, GenBound(eps2, j2), Strictness.STRICT, tol)
            if x not in sel2.decisions:
                rep.fail(
                    inst,
                    f"x={x} strict for eps={_fmt_vec(gb.eps)} j={gb.j} "
                    f"(guarantee {_fmt(g)}) but not strict for "
                    f"eps'={_fmt_vec(eps2)} j={j2}; got {sel2.decisions}"
                )


@_check("thm_eps_implies_ms_lower", "gb")
def _thm_eps_implies_ms_lower(ctx: _Context, rep: CheckReport):
    """Strict constraint efficiency forces strict multi-scenario efficiency
    under the lower set relation."""
    inst, tol, gb = ctx.inst, ctx.tol, ctx.gb
    rep.cases = 1
    sel = eps_efficient_set(inst, gb, Strictness.STRICT, tol)
    if sel.guarantees:
        rep.non_vacuous = 1
    for x in sel.guarantees:
        v = maro_efficient(inst, x, Kind.MULTI_SCENARIO, Strictness.STRICT, ctx.specs[1], tol)
        if not v.efficient:
            rep.fail(inst, f"x={x} strictly eps-efficient for eps={_fmt_vec(gb.eps)} "
                           f"j={gb.j} but multi-scenario dominated by {v.witness.xprime}")


@_check("lemma_eps_image_weakly_nondominated", "eps_list")
def _eps_image_weakly_nondominated(ctx: _Context, rep: CheckReport):
    """Constraint images are weakly nondominated (feasible entries only)."""
    inst, tol = ctx.inst, ctx.tol
    for j in range(1, inst.n + 1):
        rep.cases += 1
        img = image_eps_grid(inst, tuple(GenBound(e, j) for e in ctx.eps_list), tol)
        for p in _dominated(img.points, VecRel.LT, tol):
            rep.fail(inst, f"j={j}: image point {_fmt_vec(p)} strictly dominated")


@_check("lemma_pb_image_nondominated")
def _pb_image_nondominated(ctx: _Context, rep: CheckReport):
    """Point-based image points never dominate one another."""
    inst, tol = ctx.inst, ctx.tol
    rep.cases = 1
    for p in _dominated(image_pb(inst, tol), VecRel.LEQ, tol):
        rep.fail(inst, f"image point {_fmt_vec(p)} dominated")


@_check("remark_efficiency_implication_chain")
def _implication_chain(ctx: _Context, rep: CheckReport):
    """Implications between the efficiency notions, per decision and family."""
    inst, tol = ctx.inst, ctx.tol
    for spec in ctx.specs:
        for x in inst.decisions:
            rep.cases += 1
            v = [maro_efficient(inst, x, kind, s, spec, tol).efficient for kind, s in _CHAIN]
            for label, pre, post in _IMPLICATIONS:
                if v[pre] and not v[post]:
                    rep.fail(inst, f"{label} broken for x={x}, "
                                   f"family={spec.family.value}")


@_check("remark_ws_bound", "lams")
def _ws_bound(ctx: _Context, rep: CheckReport):
    """Weighted-sum guarantees really bound every scenario."""
    inst, tol = ctx.inst, ctx.tol
    for lam in ctx.lams:
        for x, g in ws_efficient_set(inst, lam, Strictness.PLAIN, tol).guarantees.items():
            rep.cases += 1
            if not check_ws_bound(inst, x, lam, g, tol):
                rep.fail(inst, f"x={x} lam={_fmt_vec(lam.values)} guarantee {_fmt(g)}")


@_check("remark_eps_bound", "gb")
def _eps_bound(ctx: _Context, rep: CheckReport):
    """Finite constraint guarantees really bound every scenario."""
    inst, tol, gb = ctx.inst, ctx.tol, ctx.gb
    for x, g in eps_efficient_set(inst, gb, Strictness.PLAIN, tol).guarantees.items():
        if g == INF:
            continue
        rep.cases += 1
        if not check_eps_bound(inst, x, gb, g, tol):
            rep.fail(inst, f"x={x} eps={_fmt_vec(gb.eps)} j={gb.j} guarantee {_fmt(g)}")


@_check("remark_pb_sandwich")
def _pb_sandwich(ctx: _Context, rep: CheckReport):
    """Ideal-point sandwich around the point-based value."""
    for x in ctx.inst.decisions:
        rep.cases += 1
        lo, hi, holds = pb_trivial_bounds(ctx.inst, x, ctx.tol)
        if not holds:
            rep.fail(ctx.inst, f"x={x}: {_fmt_vec(lo)} !<= {_fmt_vec(f_pb(ctx.inst, x))} "
                               f"!<= {_fmt_vec(hi)}")


@_check("lemma_singleton_recourse_coherence")
def _singleton_recourse_coherence(ctx: _Context, rep: CheckReport):
    """Singleton recourse collapses the three-stage notions to the two-stage
    ones (upper/lower families); the weighted-minimum family implies them."""
    inst, tol = ctx.inst, ctx.tol
    if not all(len(pts) == 1 for pts in inst.recourse.values()):
        return
    for x in inst.decisions:
        rep.cases += 1
        for kind, s in _CHAIN:
            mro = mro_efficient(inst, x, kind, s, tol).efficient
            for spec in ctx.specs[:2]:
                maro = maro_efficient(inst, x, kind, s, spec, tol).efficient
                if maro != mro:
                    rep.fail(inst, f"x={x} {kind.value}/{s.value}: two-stage "
                                   f"{mro} vs three-stage[{spec.family.value}] {maro}")
            if maro_efficient(inst, x, kind, s, ctx.specs[2], tol).efficient and not mro:
                rep.fail(inst, f"x={x} {kind.value}/{s.value}: weighted-minimum "
                               f"efficiency without two-stage efficiency")


@_check("remark_single_scenario_coherence")
def _single_scenario_coherence(ctx: _Context, rep: CheckReport):
    """One scenario collapses every notion to one set comparison."""
    inst, tol = ctx.inst, ctx.tol
    if len(inst.scenarios) != 1:
        return
    (u,) = inst.scenarios
    for spec in ctx.specs:
        for x in inst.decisions:
            rep.cases += 1
            # no competitor relates below, strictly for the weak notions
            direct = {strict: not any(ctx.ref_leq(xp, x, u, spec, strict)
                                      for xp in inst.decisions if xp != x)
                      for strict in (False, True)}
            for kind, s in _CHAIN:
                got = maro_efficient(inst, x, kind, s, spec, tol).efficient
                want = direct[s is Strictness.WEAK]
                if got != want:
                    rep.fail(inst, f"x={x} {kind.value}/{s.value} "
                                   f"family={spec.family.value}: {got} != {want}")


@_check("front_reduction_invariance", "lams", "gb")
def _front_reduction_invariance(ctx: _Context, rep: CheckReport):
    """Replacing recourse images by their efficient fronts changes no value."""
    inst, tol, gb = ctx.inst, ctx.tol, ctx.gb
    reduced = Instance(
        inst.name + "-fronts", inst.n, inst.decisions, inst.scenarios,
        {
            (x, u): inner_efficient(inst, x, u, tol).points
            for x in inst.decisions for u in inst.scenarios
        },
    )
    for x in inst.decisions:
        rep.cases += 1
        for lam in ctx.lams:
            if not tol.eq(f_lambda(inst, x, lam), f_lambda(reduced, x, lam)):
                rep.fail(inst, f"f_lambda changed for x={x}")
        if not tol.eq(f_eps_j(inst, x, gb, tol), f_eps_j(reduced, x, gb, tol)):
            rep.fail(inst, f"f_eps_j changed for x={x}")
        if not _vec_eq(f_pb(inst, x), f_pb(reduced, x), tol):
            rep.fail(inst, f"f_pb changed for x={x}")


@_check("unit_weight_reduces_to_pb")
def _unit_weight_reduces_to_pb(ctx: _Context, rep: CheckReport):
    """Unit weights reduce the weighted sum to one point-based component."""
    inst = ctx.inst
    for x in inst.decisions:
        rep.cases += 1
        pb = f_pb(inst, x)
        for i in range(inst.n):
            e = Weight(tuple(1.0 if k == i else 0.0 for k in range(inst.n)))
            value = f_lambda(inst, x, e)
            if value != pb[i]:
                rep.fail(inst, f"x={x} objective {i + 1}: unit-weight value "
                               f"{_fmt(value)} != {_fmt(pb[i])}")


@_check("eps_value_monotone", "gb")
def _eps_value_monotone(ctx: _Context, rep: CheckReport):
    """Loosening the caps never worsens the constrained value."""
    inst, tol, gb = ctx.inst, ctx.tol, ctx.gb
    wider = GenBound(tuple(c + 2.0 for c in gb.eps), gb.j)
    for x in inst.decisions:
        rep.cases += 1
        if not tol.leq(f_eps_j(inst, x, wider, tol), f_eps_j(inst, x, gb, tol)):
            rep.fail(inst, f"x={x}: widening caps increased the value")


@_check("witness_replay")
def _witness_replay(ctx: _Context, rep: CheckReport):
    """Every negative verdict of the implication chain carries a witness
    that replays through an independent set comparison."""
    inst, tol = ctx.inst, ctx.tol
    for spec in ctx.specs:
        for x in inst.decisions:
            for kind, s in _CHAIN:
                verdict = maro_efficient(inst, x, kind, s, spec, tol)
                if verdict.efficient:
                    continue
                rep.cases += 1
                w = verdict.witness
                if kind is Kind.FLIMSY and len(w.scenario_map) != len(inst.scenarios):
                    rep.fail(inst, f"flimsy witness for x={x} misses scenarios")
                elif not all(ctx.ref_leq(xp, x, u, spec, s is Strictness.WEAK)
                             for u, xp in w.scenario_map):
                    rep.fail(inst, f"witness ({w.xprime}) for x={x} "
                                   f"kind={kind.value} does not replay")


@_check("note_weak_flimsy_via_mco")
def _weak_flimsy_via_mco(ctx: _Context, rep: CheckReport):
    """Recorded observation, never asserted: decisions contributing a point
    to the pooled outcome front tend to be weakly flimsy for the strict
    lower relation."""
    inst, tol = ctx.inst, ctx.tol
    hits, _ = _contributors(
        {x: [p for u in inst.scenarios for p in inst.points(x, u)] for x in inst.decisions}, tol)
    for x in hits:
        rep.cases += 1
        wf = maro_efficient(inst, x, Kind.FLIMSY, Strictness.WEAK, ctx.specs[1], tol).efficient
        key = "agree" if wf else "disagree"
        rep.notes[key] = rep.notes.get(key, 0) + 1


ALL_CHECKS = tuple(_CHECKS)


def _selected(check_ids) -> list[str]:
    """The named checks in registry order; every check when none is named."""
    wanted = set(check_ids) if check_ids else set(ALL_CHECKS)
    unknown = wanted - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown check ids: {sorted(unknown)}")
    return [cid for cid in ALL_CHECKS if cid in wanted]


def check_instance(inst: Instance, check_ids: list[str] | None, lams: list[Weight] = (),
                   gb: GenBound | None = None, eps_list: list[Vec] | None = None,
                   tol: Tolerance = DEFAULT_TOL) -> dict[str, CheckReport]:
    """Run the named checks (every check when none is named) on one instance
    with the given weight vectors, generating bound and bound list; one
    report per check id, in registry order.  A selected check whose
    parameter is missing or empty is refused before any check runs."""
    ctx = _Context(inst, tol, lams, gb, eps_list)
    selected = _selected(check_ids)
    for cid in selected:
        for param in _CHECKS[cid][1]:
            if not getattr(ctx, param):
                raise ValueError(f"check {cid} needs the parameter {param}")
    reports = {}
    for cid in selected:
        reports[cid] = rep = CheckReport(cid, instances=1)
        _CHECKS[cid][0](ctx, rep)
    return reports


def _battery_weights(n: int) -> list[Weight]:
    grid = simplex_grid(n, 4)
    idx = sorted({0, len(grid) // 4, len(grid) // 2, 3 * len(grid) // 4, len(grid) - 1})
    return [Weight(grid[i]) for i in idx]


@dataclass
class BatteryReport:
    seed: int
    count: int
    jitter: float
    reports: dict[str, CheckReport]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports.values())

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "jitter": self.jitter,
            "pass": self.passed,
            "checks": {cid: r.to_dict() for cid, r in sorted(self.reports.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def run_battery(seed: int, count: int = 500, check_ids: list[str] | None = None,
                jitter: float = 0.0, tol: Tolerance = DEFAULT_TOL) -> BatteryReport:
    """Run the selected checks over ``count`` generated instances.

    All randomness (instance shapes, coordinates, weights, bounds) derives
    from ``seed``; two runs with equal arguments produce identical reports.
    """
    if count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    selected = _selected(check_ids)
    rng = random.Random(seed)
    merged = {cid: CheckReport(cid) for cid in selected}
    for _ in range(count):
        cfg = GenConfig(
            seed=rng.randrange(2**32),
            n=rng.randint(2, 3),
            nx=rng.randint(2, 6),
            nu=rng.randint(1, 4),
            ny=rng.randint(1, 8),
            jitter=jitter,
        )
        inst = generate(cfg)
        lams = _battery_weights(inst.n)
        # every instance draws its bounds, whatever is selected, so each
        # check sees the same instances alone as in the full battery
        gb = GenBound(
            tuple(float(rng.randint(6, 22)) for _ in range(inst.n)),
            rng.randint(1, inst.n),
        )
        eps_list = [
            tuple(float(rng.randint(4, 22)) for _ in range(inst.n)) for _ in range(4)
        ]
        for cid, rep in check_instance(inst, selected, lams, gb, eps_list, tol).items():
            merged[cid].merge(rep)
    return BatteryReport(seed, count, jitter, merged)
