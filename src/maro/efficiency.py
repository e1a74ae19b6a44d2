"""Efficiency checkers for finite three-stage instances.

The three-stage notions compare, per scenario, the efficient fronts of the
recourse images of two decisions under a selected set relation:

* flimsy: some scenario has no dominating competitor,
* highly: no scenario has a dominating competitor,
* multi-scenario (strict only): no competitor dominates in every scenario
  simultaneously.

Strict variants use the non-strict set relation, weak variants the strict
one.  Negative verdicts carry a replayable witness: the dominating decision
per scenario at which the defining relation held.

``mro_efficient`` evaluates the corresponding single-valued robust notions
(plus the point-based one) on instances whose recourse images are all
singletons, where the three-stage problem collapses to a two-stage one.
Both checkers return through one reduction, ``_decide``; ``mro_efficient``
supplies a vector relation on the singleton values, and reads plain
multi-scenario efficiency as that relation on the outcome vectors
concatenated over all scenarios.  ``smaro_set`` computes the stagewise
min/max/min nondominance nesting; the fixtures FIG2L/FIG2R document why
membership in it is not a trustworthy efficiency notion.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .instances import DEFAULT_TOL, Instance, InstanceError, Tolerance
from .pareto import FrontSet, Orientation, _contributors, _scenario_table, nondominated
from .relations import _VEC_REL, SetRelSpec, Strictness, _set_leq, vec_cmp


class Kind(Enum):
    FLIMSY = "flimsy"
    HIGHLY = "highly"
    MULTI_SCENARIO = "multi-scenario"
    POINT_BASED = "point-based"

    # members are singletons compared by identity; Enum's own __hash__ is a
    # Python-level call on every memo-key lookup, object's is not
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Witness:
    """Dominating competitor(s): (scenario, dominator) pairs plus the
    representative dominator.  Replaying each pair through the deciding
    relation reproduces the domination."""

    xprime: str
    scenario_map: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Verdict:
    efficient: bool
    witness: Witness | None = None

    def __post_init__(self):
        if self.efficient == (self.witness is not None):
            raise ValueError("witness present iff not efficient")


_EFFICIENT = Verdict(True, None)


def _decide(inst: Instance, x: str, kind: Kind, dominates, dominates_all) -> Verdict:
    """The flimsy/highly/multi-scenario reduction shared by both checkers.

    ``dominates(xp, i)`` decides domination of ``x`` by ``xp`` in the
    scenario of index ``i``, ``dominates_all(xp)`` over all scenarios at
    once.  Competitors are scanned in lexicographic order and scenarios in
    document order, so negative verdicts are deterministic; point-based
    witnesses name no scenario.
    """
    others = sorted(d for d in inst.decisions if d != x)
    if kind in (Kind.MULTI_SCENARIO, Kind.POINT_BASED):
        dom = next((xp for xp in others if dominates_all(xp)), None)
        if dom is None:
            return _EFFICIENT
        named = () if kind is Kind.POINT_BASED else inst.scenarios
        return Verdict(False, Witness(dom, tuple((u, dom) for u in named)))

    per_scenario: list[tuple[str, str]] = []
    for i, u in enumerate(inst.scenarios):
        dom = next((xp for xp in others if dominates(xp, i)), None)
        if dom is None and kind is Kind.FLIMSY:
            return _EFFICIENT
        if dom is not None and kind is Kind.HIGHLY:
            return Verdict(False, Witness(dom, ((u, dom),)))
        per_scenario.append((u, dom))
    if kind is Kind.HIGHLY:
        return _EFFICIENT
    # flimsy failed: every scenario produced a dominator
    return Verdict(False, Witness(per_scenario[0][1], tuple(per_scenario)))


def maro_efficient(inst: Instance, x: str, kind: Kind, strictness: Strictness,
                   spec: SetRelSpec, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Decide three-stage efficiency of ``x`` under the selected set relation,
    comparing scenario by scenario the entries of the scenario tables (inner
    efficient fronts, or their weighted minima for lambda-min); memoized."""
    family, lam, tau = spec.family, spec.lam, tol.tau
    key = ("verdict", x, kind, strictness, family, lam, tau)
    hit = inst._cache.get(key)
    if hit is not None:
        return hit
    if kind is Kind.POINT_BASED:
        raise ValueError("point-based efficiency is a vector notion; "
                         "see mro_efficient or pb_efficient_set")
    if strictness is Strictness.PLAIN:
        raise ValueError("three-stage notions come in strict/weak variants only")
    if kind is Kind.MULTI_SCENARIO and strictness is not Strictness.STRICT:
        raise ValueError("weak multi-scenario efficiency is undefined")
    strict = strictness is Strictness.WEAK

    # the table checks the decision name and the weight length; its entries
    # are sorted finite fronts, or minima it checked for NaN, so the kernel
    # skips set_cmp's checks
    mine = _scenario_table(inst, x, lam, tol)

    def dominates(xp: str, i: int) -> bool:
        return _set_leq(_scenario_table(inst, xp, lam, tol)[i], mine[i], family, strict, tau)

    hit = inst._cache[key] = _decide(inst, x, kind, dominates,
                                     lambda xp: all(dominates(xp, i) for i in range(len(mine))))
    return hit


@dataclass(frozen=True)
class SmaroResult:
    decisions: tuple[str, ...]
    front: FrontSet


def smaro_set(inst: Instance, tol: Tolerance = DEFAULT_TOL) -> SmaroResult:
    """Stagewise nesting: per (x,u) the min-front of the recourse image, per x
    the max-front of their union over scenarios, then the min-front of the
    union over decisions.  Returns the surviving points and every decision
    contributing at least one of them."""
    mid = {}
    for x in inst.decisions:
        union = {p for front in _scenario_table(inst, x, None, tol) for p in front}
        mid[x] = nondominated(union, Orientation.MAX, tol).points
    return SmaroResult(*_contributors(mid, tol))


def _singleton_values(inst: Instance) -> dict[tuple[str, str], tuple[float, ...]]:
    for (x, u), pts in inst.recourse.items():
        if len(pts) != 1:
            raise InstanceError(f"recourse.{x}.{u}: two-stage robust notions need "
                                f"singleton recourse sets, found {len(pts)} points")
    return {key: pts[0] for key, pts in inst.recourse.items()}


def mro_efficient(inst: Instance, x: str, kind: Kind, strictness: Strictness,
                  tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Two-stage robust efficiency on singleton-recourse instances.

    Strictness selects the vector relation (strict: componentwise <=;
    plain: <= and not equal; weak: componentwise <).  Multi-scenario
    efficiency (strict and plain only) applies it to the outcome vectors
    concatenated over all scenarios: <= in every scenario, and for plain
    also not equal in some.  Point-based efficiency applies it to the
    per-objective worst cases over scenarios.
    """
    us = inst.scenarios
    # Instance.points checks the decision name, before the singleton rule
    own = [inst.points(x, u)[0] for u in us]
    vals = _singleton_values(inst)
    if kind is Kind.MULTI_SCENARIO and strictness is Strictness.WEAK:
        raise ValueError("weak multi-scenario efficiency is undefined")
    rel = _VEC_REL[strictness]

    def outcome(d: str) -> tuple[float, ...]:
        if kind is Kind.POINT_BASED:
            return tuple(max(vals[(d, u)][i] for u in us) for i in range(inst.n))
        return tuple(c for u in us for c in vals[(d, u)])

    mine = outcome(x)
    return _decide(inst, x, kind,
                   lambda xp, i: vec_cmp(vals[(xp, us[i])], own[i], rel, tol),
                   lambda xp: vec_cmp(outcome(xp), mine, rel, tol))
