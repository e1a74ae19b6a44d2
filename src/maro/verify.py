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

from .efficiency import (
    Kind,
    Strictness,
    Verdict,
    derived_set_relation,
    maro_efficient,
    mro_efficient,
)
from .images import BoundGrid, image_eps, image_eps_grid, image_pb, image_ws, simplex_grid
from .instances import DEFAULT_TOL, INF, Instance, Tolerance, Vec, make_instance
from .pareto import Orientation, inner_efficient, nondominated
from .relations import SetRelFamily, SetRelSpec, VecRel, Weight, _vec_eq, set_cmp, vec_cmp
from .scalarize import (
    GenBound,
    check_eps_bound,
    check_ws_bound,
    eps_efficient_set,
    f_eps_j,
    f_lambda,
    f_pb,
    pb_efficient_set,
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
    coord_low: int = 0
    coord_high: int = 20
    jitter: float = 0.0

    def __post_init__(self):
        checks = (
            (2 <= self.n <= 3, "n must lie in 2..3"),
            (2 <= self.nx <= 6, "nx must lie in 2..6"),
            (1 <= self.nu <= 4, "nu must lie in 1..4"),
            (1 <= self.ny <= 8, "ny must lie in 1..8"),
            (self.coord_low <= self.coord_high, "empty coordinate range"),
            (0.0 <= self.jitter < 0.3, "jitter must lie in [0, 0.3)"),
        )
        for ok, msg in checks:
            if not ok:
                raise ValueError(f"invalid generator config: {msg}")


def generate(cfg: GenConfig) -> Instance:
    """Deterministic random instance for a config."""
    rng = random.Random(cfg.seed)
    decisions = [f"x{i + 1}" for i in range(cfg.nx)]
    scenarios = [f"u{i + 1}" for i in range(cfg.nu)]

    def coord() -> float:
        v = float(rng.randint(cfg.coord_low, cfg.coord_high))
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
    return make_instance(name, cfg.n, decisions, scenarios, recourse)


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
    return "(" + ", ".join(f"{c:.17g}" for c in v) + ")"


def check_thm_ws_implies_ms(inst: Instance, lam: Weight,
                            tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Strict weighted-sum efficiency forces strict multi-scenario efficiency
    under the matching weighted-minimum set relation."""
    rep = CheckReport("thm_ws_implies_ms", instances=1, cases=1)
    sel = ws_efficient_set(inst, lam, Strictness.STRICT, tol)
    if sel.entries:
        rep.non_vacuous = 1
    spec = SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=lam.values)
    for x, g in sel.entries:
        v = maro_efficient(inst, x, Kind.MULTI_SCENARIO, Strictness.STRICT, spec, tol)
        if not v.efficient:
            rep.fail(inst, f"x={x} strictly ws-efficient for lam={_fmt_vec(lam.values)} "
                           f"(value {g.value:.17g}) but multi-scenario dominated by "
                           f"{v.witness.xprime}")
    return rep


def check_thm_eps_switch(inst: Instance, gb: GenBound,
                         tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """A strict constraint-efficient decision stays strict when the bound
    slot it minimized is fixed to its guarantee and any other objective is
    minimized instead."""
    rep = CheckReport("thm_eps_switch", instances=1, cases=1)
    sel = eps_efficient_set(inst, gb, Strictness.STRICT, tol)
    for x, g in sel.entries:
        if g.value == INF:
            continue
        rep.non_vacuous = 1
        eps2 = tuple(
            g.value if i == gb.j - 1 else gb.eps[i] for i in range(inst.n)
        )
        for j2 in range(1, inst.n + 1):
            sel2 = eps_efficient_set(inst, GenBound(eps2, j2), Strictness.STRICT, tol)
            if x not in sel2.decisions:
                rep.fail(
                    inst,
                    f"x={x} strict for eps={_fmt_vec(gb.eps)} j={gb.j} "
                    f"(guarantee {g.value:.17g}) but not strict for "
                    f"eps'={_fmt_vec(eps2)} j={j2}; got {sel2.decisions}"
                )
    return rep


def check_thm_eps_implies_ms_lower(inst: Instance, gb: GenBound,
                                   tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Strict constraint efficiency forces strict multi-scenario efficiency
    under the lower set relation."""
    rep = CheckReport("thm_eps_implies_ms_lower", instances=1, cases=1)
    sel = eps_efficient_set(inst, gb, Strictness.STRICT, tol)
    if sel.entries:
        rep.non_vacuous = 1
    spec = SetRelSpec(SetRelFamily.LOWER)
    for x, g in sel.entries:
        v = maro_efficient(inst, x, Kind.MULTI_SCENARIO, Strictness.STRICT, spec, tol)
        if not v.efficient:
            rep.fail(inst, f"x={x} strictly eps-efficient for eps={_fmt_vec(gb.eps)} "
                           f"j={gb.j} but multi-scenario dominated by {v.witness.xprime}")
    return rep


def single_scenario_efficient(inst: Instance, x: str, spec: SetRelSpec,
                              tol: Tolerance = DEFAULT_TOL) -> bool:
    """Direct reimplementation of the one-scenario set-optimization notion:
    no competitor front relates below the front of ``x``."""
    (u,) = inst.scenarios
    mine = inner_efficient(inst, x, u, tol).points
    return not any(
        set_cmp(inner_efficient(inst, xp, u, tol).points, mine, spec, tol)
        for xp in inst.decisions if xp != x
    )


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


def _replay(inst: Instance, x: str, verdict: Verdict, spec: SetRelSpec,
            strictness: Strictness, tol: Tolerance) -> bool:
    rel = derived_set_relation(spec, strictness)
    return all(
        set_cmp(inner_efficient(inst, xp, u, tol).points,
                inner_efficient(inst, x, u, tol).points, rel, tol)
        for u, xp in verdict.witness.scenario_map
    )


def check_lemmas_and_remarks(inst: Instance, lams: list[Weight], gb: GenBound,
                             eps_list: list[Vec] | None = None,
                             tol: Tolerance = DEFAULT_TOL) -> list[CheckReport]:
    """Per-instance battery of the remaining proved statements and recorded
    observations; see the check ids for what each piece covers."""
    reps = {cid: CheckReport(cid, instances=1) for cid in (
        "lemma_eps_image_weakly_nondominated",
        "lemma_pb_image_nondominated",
        "remark_efficiency_implication_chain",
        "remark_ws_bound",
        "remark_eps_bound",
        "remark_pb_sandwich",
        "lemma_singleton_recourse_coherence",
        "remark_single_scenario_coherence",
        "front_reduction_invariance",
        "unit_weight_reduces_to_pb",
        "eps_value_monotone",
        "witness_replay",
        "note_weak_flimsy_via_mco",
    )}

    # constraint images are weakly nondominated (feasible entries only)
    if eps_list:
        for j in range(1, inst.n + 1):
            reps["lemma_eps_image_weakly_nondominated"].cases += 1
            img = image_eps_grid(inst, BoundGrid(j, tuple(eps_list)), tol)
            for p in img.points:
                if any(q != p and vec_cmp(q, p, VecRel.LT, tol) for q in img.points):
                    reps["lemma_eps_image_weakly_nondominated"].fail(
                        inst, f"j={j}: image point {_fmt_vec(p)} strictly dominated"
                    )

    # point-based image points never dominate one another
    reps["lemma_pb_image_nondominated"].cases += 1
    pb_img = image_pb(inst, tol)
    for p in pb_img:
        if any(q != p and vec_cmp(q, p, VecRel.LEQ, tol) for q in pb_img):
            reps["lemma_pb_image_nondominated"].fail(
                inst, f"image point {_fmt_vec(p)} dominated"
            )

    # implication chain between the efficiency notions, plus witness replay
    chain_rep = reps["remark_efficiency_implication_chain"]
    verdicts: dict[tuple[int, str, Kind, Strictness], Verdict] = {}
    specs = _family_specs(inst.n)
    for si, spec in enumerate(specs):
        for x in inst.decisions:
            chain_rep.cases += 1
            v = {
                (kind, s): maro_efficient(inst, x, kind, s, spec, tol)
                for kind, s in _CHAIN
            }
            for key, verdict in v.items():
                verdicts[(si, x, *key)] = verdict
            implications = (
                ("strict flimsy -> weak flimsy",
                 v[(Kind.FLIMSY, Strictness.STRICT)], v[(Kind.FLIMSY, Strictness.WEAK)]),
                ("strict highly -> weak highly",
                 v[(Kind.HIGHLY, Strictness.STRICT)], v[(Kind.HIGHLY, Strictness.WEAK)]),
                ("strict highly -> strict flimsy",
                 v[(Kind.HIGHLY, Strictness.STRICT)], v[(Kind.FLIMSY, Strictness.STRICT)]),
                ("weak highly -> weak flimsy",
                 v[(Kind.HIGHLY, Strictness.WEAK)], v[(Kind.FLIMSY, Strictness.WEAK)]),
                ("strict highly -> strict multi-scenario",
                 v[(Kind.HIGHLY, Strictness.STRICT)],
                 v[(Kind.MULTI_SCENARIO, Strictness.STRICT)]),
            )
            for label, pre, post in implications:
                if pre.efficient and not post.efficient:
                    chain_rep.fail(inst, f"{label} broken for x={x}, "
                                         f"family={spec.family.value}")

    replay_rep = reps["witness_replay"]
    for (si, x, kind, s), verdict in verdicts.items():
        if verdict.efficient:
            continue
        replay_rep.cases += 1
        w = verdict.witness
        if kind is Kind.FLIMSY and len(w.scenario_map) != len(inst.scenarios):
            replay_rep.fail(inst, f"flimsy witness for x={x} misses scenarios")
        elif not _replay(inst, x, verdict, specs[si], s, tol):
            replay_rep.fail(inst, f"witness ({w.xprime}) for x={x} "
                                  f"kind={kind.value} does not replay")

    # guarantees really bound every scenario
    for lam in lams:
        sel = ws_efficient_set(inst, lam, Strictness.PLAIN, tol)
        for x, g in sel.entries:
            reps["remark_ws_bound"].cases += 1
            if not check_ws_bound(inst, x, lam, g, tol):
                reps["remark_ws_bound"].fail(
                    inst, f"x={x} lam={_fmt_vec(lam.values)} guarantee {g.value:.17g}"
                )
    sel = eps_efficient_set(inst, gb, Strictness.PLAIN, tol)
    for x, g in sel.entries:
        if g.value == INF:
            continue
        reps["remark_eps_bound"].cases += 1
        if not check_eps_bound(inst, x, gb, g, tol):
            reps["remark_eps_bound"].fail(
                inst, f"x={x} eps={_fmt_vec(gb.eps)} j={gb.j} guarantee {g.value:.17g}"
            )

    # ideal-point sandwich around the point-based value
    for x in inst.decisions:
        reps["remark_pb_sandwich"].cases += 1
        lo, hi, holds = pb_trivial_bounds(inst, x, tol)
        if not holds:
            reps["remark_pb_sandwich"].fail(
                inst, f"x={x}: {_fmt_vec(lo)} !<= {_fmt_vec(f_pb(inst, x))} "
                      f"!<= {_fmt_vec(hi)}"
            )

    # singleton recourse collapses the three-stage notions to the two-stage
    # ones (upper/lower families); the weighted-minimum family implies them
    if all(len(pts) == 1 for pts in inst.recourse.values()):
        rep = reps["lemma_singleton_recourse_coherence"]
        for x in inst.decisions:
            rep.cases += 1
            for kind, s in _CHAIN:
                mro = mro_efficient(inst, x, kind, s, tol).efficient
                for spec in specs[:2]:
                    maro = maro_efficient(inst, x, kind, s, spec, tol).efficient
                    if maro != mro:
                        rep.fail(inst, f"x={x} {kind.value}/{s.value}: two-stage "
                                       f"{mro} vs three-stage[{spec.family.value}] {maro}")
                if maro_efficient(inst, x, kind, s, specs[2], tol).efficient and not mro:
                    rep.fail(inst, f"x={x} {kind.value}/{s.value}: weighted-minimum "
                                   f"efficiency without two-stage efficiency")

    # one scenario collapses every notion to one set comparison
    if len(inst.scenarios) == 1:
        rep = reps["remark_single_scenario_coherence"]
        for spec in specs:
            for x in inst.decisions:
                rep.cases += 1
                for kind, s in _CHAIN:
                    direct = single_scenario_efficient(
                        inst, x, derived_set_relation(spec, s), tol
                    )
                    got = maro_efficient(inst, x, kind, s, spec, tol).efficient
                    if got != direct:
                        rep.fail(inst, f"x={x} {kind.value}/{s.value} "
                                       f"family={spec.family.value}: {got} != {direct}")

    # replacing recourse images by their efficient fronts changes no value
    reduced = make_instance(
        inst.name + "-fronts", inst.n, inst.decisions, inst.scenarios,
        {
            (x, u): inner_efficient(inst, x, u, tol).points
            for x in inst.decisions for u in inst.scenarios
        },
    )
    rep = reps["front_reduction_invariance"]
    for x in inst.decisions:
        rep.cases += 1
        for lam in lams:
            if not tol.eq(f_lambda(inst, x, lam), f_lambda(reduced, x, lam)):
                rep.fail(inst, f"f_lambda changed for x={x}")
        if not tol.eq(f_eps_j(inst, x, gb, tol), f_eps_j(reduced, x, gb, tol)):
            rep.fail(inst, f"f_eps_j changed for x={x}")
        a, b = f_pb(inst, x), f_pb(reduced, x)
        if not _vec_eq(a, b, tol):
            rep.fail(inst, f"f_pb changed for x={x}")

    # unit weights reduce the weighted sum to one point-based component
    rep = reps["unit_weight_reduces_to_pb"]
    for x in inst.decisions:
        rep.cases += 1
        pb = f_pb(inst, x)
        for i in range(inst.n):
            e = Weight(tuple(1.0 if k == i else 0.0 for k in range(inst.n)))
            if f_lambda(inst, x, e) != pb[i]:
                rep.fail(inst, f"x={x} objective {i + 1}: unit-weight value "
                               f"{f_lambda(inst, x, e):.17g} != {pb[i]:.17g}")

    # loosening the caps never worsens the constrained value
    rep = reps["eps_value_monotone"]
    wider = GenBound(
        tuple(c + 2.0 for c in gb.eps), gb.j
    )
    for x in inst.decisions:
        rep.cases += 1
        if not tol.leq(f_eps_j(inst, x, wider, tol), f_eps_j(inst, x, gb, tol)):
            rep.fail(inst, f"x={x}: widening caps increased the value")

    # recorded observation, never asserted: decisions contributing a point
    # to the pooled outcome front tend to be weakly flimsy for the strict
    # lower relation
    note = reps["note_weak_flimsy_via_mco"]
    pooled = {p for pts in inst.recourse.values() for p in pts}
    front = set(nondominated(pooled, Orientation.MIN, tol).points)
    for x in inst.decisions:
        hits = any(_vec_eq(p, q, tol) for u in inst.scenarios
                   for p in inst.points(x, u) for q in front)
        if not hits:
            continue
        note.cases += 1
        wf = maro_efficient(inst, x, Kind.FLIMSY, Strictness.WEAK,
                            SetRelSpec(SetRelFamily.LOWER), tol).efficient
        key = "agree" if wf else "disagree"
        note.notes[key] = note.notes.get(key, 0) + 1

    return list(reps.values())


ALL_CHECKS = (
    "thm_ws_implies_ms",
    "thm_eps_switch",
    "thm_eps_implies_ms_lower",
    "lemma_eps_image_weakly_nondominated",
    "lemma_pb_image_nondominated",
    "remark_efficiency_implication_chain",
    "remark_ws_bound",
    "remark_eps_bound",
    "remark_pb_sandwich",
    "lemma_singleton_recourse_coherence",
    "remark_single_scenario_coherence",
    "front_reduction_invariance",
    "unit_weight_reduces_to_pb",
    "eps_value_monotone",
    "witness_replay",
    "note_weak_flimsy_via_mco",
)


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
    wanted = set(check_ids) if check_ids else set(ALL_CHECKS)
    unknown = wanted - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown check ids: {sorted(unknown)}")
    rng = random.Random(seed)
    merged: dict[str, CheckReport] = {}

    def absorb(rep: CheckReport):
        if rep.check_id not in wanted:
            return
        if rep.check_id not in merged:
            merged[rep.check_id] = rep
        else:
            merged[rep.check_id].merge(rep)

    lemma_ids = set(ALL_CHECKS[3:])
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
        gb = GenBound(
            tuple(float(rng.randint(6, 22)) for _ in range(inst.n)),
            rng.randint(1, inst.n),
        )
        eps_list = [
            tuple(float(rng.randint(4, 22)) for _ in range(inst.n)) for _ in range(4)
        ]
        if "thm_ws_implies_ms" in wanted:
            for lam in lams:
                absorb(check_thm_ws_implies_ms(inst, lam, tol))
        if "thm_eps_switch" in wanted:
            absorb(check_thm_eps_switch(inst, gb, tol))
        if "thm_eps_implies_ms_lower" in wanted:
            absorb(check_thm_eps_implies_ms_lower(inst, gb, tol))
        if wanted & lemma_ids:
            for rep in check_lemmas_and_remarks(inst, lams, gb, eps_list, tol):
                absorb(rep)
    return BatteryReport(seed, count, jitter, merged)


def compare_concepts(inst: Instance, lam: Weight, gb: GenBound,
                     tol: Tolerance = DEFAULT_TOL) -> dict:
    """Machine-readable side-by-side of the three concepts on one instance."""
    ws_plain = ws_efficient_set(inst, lam, Strictness.PLAIN, tol)
    ws_strict = ws_efficient_set(inst, lam, Strictness.STRICT, tol)
    eps_plain = eps_efficient_set(inst, gb, Strictness.PLAIN, tol)
    eps_strict = eps_efficient_set(inst, gb, Strictness.STRICT, tol)
    ws_img = image_ws(inst, lam, tol)
    eps_img = image_eps(inst, gb, tol)
    pb_img = image_pb(inst, tol)
    return {
        "instance": inst.name,
        "lambda": list(lam.values),
        "eps": list(gb.eps),
        "j": gb.j,
        "weighted_sum": {
            "plain": list(ws_plain.decisions),
            "strict": list(ws_strict.decisions),
            "strict_empty_tie": ws_strict.strict_empty_tie,
            "guarantee": {x: g.value for x, g in ws_plain.entries},
            "bounds_hold": all(
                check_ws_bound(inst, x, lam, g, tol) for x, g in ws_plain.entries
            ),
            "image": [list(p) for p in ws_img],
            "image_weakly_nondominated": not any(
                p != q and vec_cmp(q, p, VecRel.LT, tol)
                for p in ws_img for q in ws_img
            ),
        },
        "constraint": {
            "plain": list(eps_plain.decisions),
            "strict": list(eps_strict.decisions),
            "strict_empty_tie": eps_strict.strict_empty_tie,
            "infeasible": eps_plain.infeasible,
            "guarantee": {x: g.value for x, g in eps_plain.entries},
            "bounds_hold": all(
                check_eps_bound(inst, x, gb, g, tol)
                for x, g in eps_plain.entries if g.value != INF
            ),
            "image": list(eps_img.point),
            "image_feasible": eps_img.feasible,
        },
        "point_based": {
            "strict": list(pb_efficient_set(inst, Strictness.STRICT, tol)),
            "plain": list(pb_efficient_set(inst, Strictness.PLAIN, tol)),
            "weak": list(pb_efficient_set(inst, Strictness.WEAK, tol)),
            "value": {x: list(f_pb(inst, x)) for x in inst.decisions},
            "trivial_bounds": {
                x: {
                    "lo": list(lo), "hi": list(hi), "holds": holds,
                }
                for x in inst.decisions
                for lo, hi, holds in [pb_trivial_bounds(inst, x, tol)]
            },
            "image": [list(p) for p in pb_img],
            "image_nondominated": not any(
                p != q and vec_cmp(q, p, VecRel.LEQ, tol)
                for p in pb_img for q in pb_img
            ),
        },
    }
