"""Three computational concepts for finite three-stage instances.

* weighted sum: scalarize with simplex weights first, then take the
  worst-case best recourse value, ``f_lambda``;
* constraint: cap all objectives but one, minimize the free one, worst case
  over scenarios, ``f_eps_j`` (an empty admissible set yields +inf);
* point-based: per-objective worst-case best value, ``f_pb``.

The first two come with scenario-independent guarantees; the point-based
value is bounded only by the ideal points of the reachable outcome set.
Selection semantics on scalar values: the plain efficient set is the
minimizer set, the strict one is the unique minimizer (ties empty it).

Every per-scenario minimum, and every per-scenario existence test of the
bound checkers, reads the exact (tau = 0) efficient front of the recourse
image instead of all its points.  That front drops a point q only for a
point p with p_i <= q_i in every coordinate.  Weights are finite and
non-negative and float ``*``, ``+`` and ``-`` round monotonically, so
``dot(lam, p) <= dot(lam, q)``, p meets every cap q meets, and
``p_k <= q_k``: each minimum is the same float and each test the same
boolean as over all points.  The front is taken at tau = 0, never at the
caller's tolerance, because a tau-front may drop a point better by up to
tau.  So each concept reads ``pareto._scenario_table`` at tau = 0: per
scenario the front, or its least weighted sum, which the lambda-min
verdicts at tau = 0 share.  The constraint minima test their caps with a
precomputed list of (index, cap) pairs and the inlined rule of
``Tolerance.leq``, the same for every number of objectives.  Tables, the
point-based value and the constraint minima are memoized on the instance
under every argument they depend on, so each is computed once for all its
readers (values, bound checks, images, selections); a failed call stores
nothing and raises again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instances import DEFAULT_TOL, INF, Instance, InstanceError, Tolerance, Vec
from .pareto import Orientation, _scenario_table, ideal
from .relations import _VEC_REL, Strictness, VecRel, Weight, vec_cmp

_EXACT = Tolerance(0.0)


@dataclass(frozen=True)
class GenBound:
    """Generating bound for the constraint concept: caps ``eps_i`` for every
    objective ``i`` except the (1-based) minimized index ``j``; ``eps_j`` is
    stored but never read."""

    eps: Vec
    j: int

    def __post_init__(self):
        object.__setattr__(self, "eps", tuple(float(c) for c in self.eps))
        if (isinstance(self.j, bool) or not isinstance(self.j, int)
                or self.j < 1 or self.j > len(self.eps)):
            raise ValueError(f"objective index must lie in 1..{len(self.eps)}, got {self.j}")
        for c in self.eps:
            if math.isnan(c):
                raise ValueError("generating bound entries must not be NaN")


@dataclass(frozen=True)
class Selection:
    """Efficient decisions of a scalar concept, with guarantees and flags.

    ``guarantees`` maps each selected decision, in decision order, to its
    scenario-independent bound: its worst-case scalar value.
    ``strict_empty_tie`` marks a strict selection emptied by ties, in which
    case ``plain_guarantee`` reports the minimizer-set guarantee instead;
    ``infeasible`` marks a selection where every value is +inf, as in a
    constraint selection where no decision can meet the caps.
    """

    guarantees: dict[str, float]
    strict_empty_tie: bool = False
    plain_guarantee: float | None = None
    infeasible: bool = False

    @property
    def decisions(self) -> tuple[str, ...]:
        return tuple(self.guarantees)


def _ws_minima(inst: Instance, x: str, lam: Weight) -> tuple[float, ...]:
    """Best weighted sum over recourse, per scenario in document order."""
    return _scenario_table(inst, x, lam.values, _EXACT)


def _eps_minima(inst: Instance, x: str, gb: GenBound, tol: Tolerance) -> tuple[float, ...]:
    """Least objective ``j`` over the recourse points that meet every other
    cap, per scenario in document order; +inf where no point meets them."""
    key = ("eps", x, gb.eps, gb.j, tol.tau)
    hit = inst._cache.get(key)
    if hit is None:
        if len(gb.eps) != inst.n:
            raise InstanceError(f"bound length {len(gb.eps)} != objective count {inst.n}")
        k = gb.j - 1
        caps = [(i, e) for i, e in enumerate(gb.eps) if i != k]
        tau = tol.tau
        per_scenario = []
        for front in _scenario_table(inst, x, None, _EXACT):
            best = INF
            for p in front:
                for i, e in caps:
                    c = p[i]
                    # Tolerance.leq(c, e), inlined
                    if not (c - e <= tau or c <= e):
                        break
                else:
                    if p[k] < best:
                        best = p[k]
            per_scenario.append(best)
        hit = inst._cache[key] = tuple(per_scenario)
    return hit


def f_lambda(inst: Instance, x: str, lam: Weight) -> float:
    """Worst case over scenarios of the best weighted sum over recourse."""
    return max(_ws_minima(inst, x, lam))


def f_eps_j(inst: Instance, x: str, gb: GenBound, tol: Tolerance = DEFAULT_TOL) -> float:
    """Worst case over scenarios of the capped minimum of objective ``j``;
    with at least one scenario the -inf convention for an empty outer
    maximization never fires."""
    return max(_eps_minima(inst, x, gb, tol))


def f_pb(inst: Instance, x: str) -> Vec:
    """Per-objective worst case over scenarios of the best recourse value."""
    key = ("pb", x)
    hit = inst._cache.get(key)
    if hit is None:
        ideals = [tuple(map(min, zip(*f))) for f in _scenario_table(inst, x, None, _EXACT)]
        hit = inst._cache[key] = tuple(map(max, zip(*ideals)))
    return hit


def _selection(inst: Instance, values: dict[str, float], strictness: Strictness,
               tol: Tolerance) -> Selection:
    """The minimizers of ``values`` (plain) or the unique one (strict), each
    with its value as guarantee."""
    if strictness is Strictness.WEAK:
        raise ValueError("scalar concepts come in strict/plain variants only")
    beats = tol.leq if strictness is Strictness.STRICT else tol.lt
    selected = {
        x: values[x] for x in inst.decisions
        if not any(beats(values[xp], values[x]) for xp in inst.decisions if xp != x)
    }
    strict_empty = strictness is Strictness.STRICT and not selected
    return Selection(
        selected,
        strict_empty_tie=strict_empty,
        plain_guarantee=min(values.values()) if strict_empty else None,
        infeasible=all(v == INF for v in values.values()),
    )


def ws_efficient_set(inst: Instance, lam: Weight,
                     strictness: Strictness = Strictness.PLAIN,
                     tol: Tolerance = DEFAULT_TOL) -> Selection:
    values = {x: f_lambda(inst, x, lam) for x in inst.decisions}
    return _selection(inst, values, strictness, tol)


def eps_efficient_set(inst: Instance, gb: GenBound,
                      strictness: Strictness = Strictness.PLAIN,
                      tol: Tolerance = DEFAULT_TOL) -> Selection:
    values = {x: f_eps_j(inst, x, gb, tol) for x in inst.decisions}
    return _selection(inst, values, strictness, tol)


def pb_efficient_set(inst: Instance, strictness: Strictness = Strictness.PLAIN,
                     tol: Tolerance = DEFAULT_TOL) -> tuple[str, ...]:
    """Decisions whose point-based value no competitor relates below."""
    rel = _VEC_REL[strictness]
    values = {x: f_pb(inst, x) for x in inst.decisions}
    return tuple(
        x for x in inst.decisions
        if not any(vec_cmp(values[xp], values[x], rel, tol)
                   for xp in inst.decisions if xp != x)
    )


def check_ws_bound(inst: Instance, x: str, lam: Weight, g: float,
                   tol: Tolerance = DEFAULT_TOL) -> bool:
    """Every scenario admits a recourse point with weighted sum within the
    guarantee: ``Tolerance.leq`` is monotone in its first argument, so it
    suffices to test the minimum."""
    return all(tol.leq(m, g) for m in _ws_minima(inst, x, lam))


def check_eps_bound(inst: Instance, x: str, gb: GenBound, g: float,
                    tol: Tolerance = DEFAULT_TOL) -> bool:
    """Every scenario admits a point meeting all caps and the guarantee on
    objective ``j``: by monotonicity of ``Tolerance.leq`` it suffices to
    test the capped minimum.  A scenario where no point meets the caps has
    minimum +inf and fails even an infinite guarantee."""
    return all(m < INF and tol.leq(m, g) for m in _eps_minima(inst, x, gb, tol))


def pb_trivial_bounds(inst: Instance, x: str,
                      tol: Tolerance = DEFAULT_TOL) -> tuple[Vec, Vec, bool]:
    """Ideal-point sandwich around the point-based value: the componentwise
    min and max of the outcome set reachable by ``x``, and whether the value
    lies between them."""
    union = [p for u in inst.scenarios for p in inst.points(x, u)]
    lo = ideal(union, Orientation.MIN)
    hi = ideal(union, Orientation.MAX)
    v = f_pb(inst, x)
    holds = vec_cmp(lo, v, VecRel.LEQQ, tol) and vec_cmp(v, hi, VecRel.LEQQ, tol)
    return lo, hi, holds
