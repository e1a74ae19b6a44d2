"""Brute-force reference implementations.

Deliberately naive nested loops over raw instance data, sharing no helpers
with the library.  These are the authority for every derived constant frozen
into the test suite, and the acceptance suite requires the library to match
them bit-for-bit at tolerance zero.
"""

from __future__ import annotations

import math


def dot(lam, p):
    s = 0.0
    for i in range(len(lam)):
        s += lam[i] * p[i]
    return s


def brute_f_lambda(inst, x, lam):
    """max over scenarios of (min over recourse points of lam . p)."""
    worst = -math.inf
    for u in inst.scenarios:
        best = math.inf
        for p in inst.recourse[(x, u)]:
            v = dot(lam, p)
            if v < best:
                best = v
        if best > worst:
            worst = best
    return worst


def brute_f_eps_j(inst, x, eps, j, tau=0.0):
    """max over scenarios of constrained min of objective j (1-based).

    A point is admissible when every other coordinate stays within eps
    (under slack ``tau``); an empty admissible set yields +inf for that
    scenario.
    """
    k = j - 1
    worst = -math.inf
    for u in inst.scenarios:
        best = math.inf
        for p in inst.recourse[(x, u)]:
            ok = True
            for i in range(len(p)):
                if i != k and not _tol_leq(p[i], eps[i], tau):
                    ok = False
                    break
            if ok and p[k] < best:
                best = p[k]
        if best > worst:
            worst = best
    return worst


def brute_f_pb(inst, x):
    """Componentwise max over scenarios of per-scenario coordinate minima."""
    out = []
    for i in range(inst.n):
        worst = -math.inf
        for u in inst.scenarios:
            best = math.inf
            for p in inst.recourse[(x, u)]:
                if p[i] < best:
                    best = p[i]
            if best > worst:
                worst = best
        out.append(worst)
    return tuple(out)


def brute_min_front(points):
    """Members with no distinct member componentwise <= them, exact arithmetic."""
    pts = sorted(set(map(tuple, points)))
    keep = []
    for p in pts:
        dominated = False
        for q in pts:
            if q != p and all(q[i] <= p[i] for i in range(len(p))) :
                dominated = True
                break
        if not dominated:
            keep.append(p)
    return keep


def brute_max_front(points):
    pts = sorted(set(map(tuple, points)))
    keep = []
    for p in pts:
        dominated = False
        for q in pts:
            if q != p and all(q[i] >= p[i] for i in range(len(p))):
                dominated = True
                break
        if not dominated:
            keep.append(p)
    return keep


def brute_set_leq(A, B, family, strict, lam=None):
    """Exact-arithmetic set order relations used to cross-check set_cmp."""
    if family == "u":
        if strict:
            return all(any(all(a[i] < b[i] for i in range(len(a))) for b in B) for a in A)
        return all(any(all(a[i] <= b[i] for i in range(len(a))) for b in B) for a in A)
    if family == "l":
        if strict:
            return all(any(all(a[i] < b[i] for i in range(len(a))) for a in A) for b in B)
        return all(any(all(a[i] <= b[i] for i in range(len(a))) for a in A) for b in B)
    if family == "lmin":
        ma = min(dot(lam, a) for a in A)
        mb = min(dot(lam, b) for b in B)
        return ma < mb if strict else ma <= mb
    raise ValueError(family)


def _tol_leq(a, b, tau):
    if math.isinf(a) or math.isinf(b):
        return a <= b
    return a - b <= tau


def _tol_lt(a, b, tau):
    if math.isinf(a) or math.isinf(b):
        return a < b
    return b - a > tau


def _tol_eq(a, b, tau):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tau


def tol_vec_cmp(a, b, rel, tau):
    """Vector relation "leqq", "leq" or "lt" under slack tau, per coordinate
    through the Tolerance-mirroring helpers above."""
    if rel == "lt":
        return all(_tol_lt(a[i], b[i], tau) for i in range(len(a)))
    leqq = all(_tol_leq(a[i], b[i], tau) for i in range(len(a)))
    if rel == "leqq":
        return leqq
    return leqq and not all(_tol_eq(a[i], b[i], tau) for i in range(len(a)))


def brute_check_ws_bound(inst, x, lam, g, tau):
    """Every scenario has a recourse point with weighted sum <= g within tau."""
    for u in inst.scenarios:
        if not any(_tol_leq(dot(lam, p), g, tau) for p in inst.recourse[(x, u)]):
            return False
    return True


def brute_check_eps_bound(inst, x, eps, j, g, tau):
    """Every scenario has a recourse point within all caps and with
    objective j (1-based) <= g, all under slack tau."""
    k = j - 1
    for u in inst.scenarios:
        found = False
        for p in inst.recourse[(x, u)]:
            ok = _tol_leq(p[k], g, tau)
            for i in range(len(p)):
                if i != k and not _tol_leq(p[i], eps[i], tau):
                    ok = False
            if ok:
                found = True
                break
        if not found:
            return False
    return True


def brute_image_ws(inst, lam, tau):
    """Sorted outcome vectors of the plain weighted-sum minimizers at their
    worst-case scenarios and best recourse points, equal within tau."""
    values = {x: brute_f_lambda(inst, x, lam) for x in inst.decisions}
    out = set()
    for x in inst.decisions:
        if any(_tol_lt(values[xp], values[x], tau) for xp in inst.decisions):
            continue
        for u in inst.scenarios:
            m = min(dot(lam, p) for p in inst.recourse[(x, u)])
            if not _tol_eq(m, values[x], tau):
                continue
            for p in inst.recourse[(x, u)]:
                if _tol_eq(dot(lam, p), m, tau):
                    out.add(p)
    return tuple(sorted(out))


def tol_front(points, orientation, tau):
    """Pairwise front under slack ``tau``; ``orientation`` is "min" or "max".

    q dominates p (MIN) when q_i <= p_i within tau for every i and q, p are
    not equal within tau; infinite operands compare exactly.  Points are
    scanned in lexicographic order, and a point equal within tau to an
    earlier survivor is dropped as its duplicate.
    """
    pts = sorted(tuple(p) for p in points)
    keep = []
    for p in pts:
        dominated = False
        for q in pts:
            lo, hi = (q, p) if orientation == "min" else (p, q)
            below = all(_tol_leq(lo[i], hi[i], tau) for i in range(len(p)))
            equal = all(_tol_eq(lo[i], hi[i], tau) for i in range(len(p)))
            if below and not equal:
                dominated = True
                break
        if dominated:
            continue
        if any(all(_tol_eq(p[i], k[i], tau) for i in range(len(p))) for k in keep):
            continue
        keep.append(p)
    return keep


def tol_contributors(points_of, tau):
    """The MIN front of every key's points pooled, and the keys, in order,
    with a point tau-equal to a point of that front: the quadratic
    definition, each point against the whole front."""
    front = tol_front({p for pts in points_of.values() for p in pts}, "min", tau)
    keys = tuple(k for k, pts in points_of.items()
                 if any(all(_tol_eq(a, b, tau) for a, b in zip(p, q))
                        for p in pts for q in front))
    return keys, front


def _tol_set_leq(A, B, family, strict, lam, tau):
    """Set relation A <= B under slack tau: per point with componentwise
    <= (< when strict) for the upper/lower families, on weighted minima for
    "lmin"."""
    below = _tol_lt if strict else _tol_leq
    if family == "lmin":
        return below(min(dot(lam, a) for a in A), min(dot(lam, b) for b in B), tau)

    def vec_below(a, b):
        return all(below(a[i], b[i], tau) for i in range(len(a)))

    if family == "u":
        return all(any(vec_below(a, b) for b in B) for a in A)
    return all(any(vec_below(a, b) for a in A) for b in B)


def _brute_verdict(inst, x, kind, dominates, dominates_all):
    """(efficient, xprime, scenario_map) from the full dominator table.

    Competitors are taken in lexicographic order and scenarios in document
    order.  flimsy: efficient iff some scenario has no dominator, else every
    scenario maps to its first dominator.  highly: efficient iff no scenario
    has one, else the first dominated scenario and its first dominator.
    multi-scenario and point-based: efficient iff no competitor dominates
    over all scenarios at once, else the first such competitor.
    """
    others = sorted(d for d in inst.decisions if d != x)
    if kind in ("multi-scenario", "point-based"):
        hits = [xp for xp in others if dominates_all(xp)]
        if not hits:
            return (True, None, None)
        scenarios = () if kind == "point-based" else inst.scenarios
        return (False, hits[0], tuple((u, hits[0]) for u in scenarios))
    first = {}
    for u in inst.scenarios:
        doms = [xp for xp in others if dominates(xp, u)]
        if doms:
            first[u] = doms[0]
    if kind == "flimsy":
        if len(first) < len(inst.scenarios):
            return (True, None, None)
        pairs = tuple((u, first[u]) for u in inst.scenarios)
        return (False, pairs[0][1], pairs)
    if not first:
        return (True, None, None)
    u = next(u for u in inst.scenarios if u in first)
    return (False, first[u], ((u, first[u]),))


def brute_maro_verdict(inst, x, kind, strictness, family, lam, tau):
    """Three-stage verdict of ``x`` (kind "flimsy", "highly" or
    "multi-scenario"; strictness "strict" or "weak") under the set relation
    ``family`` ("u", "l", "lmin" with weights ``lam``) on the tol_front of
    every recourse image.  Strict notions decide with the non-strict
    relation, weak notions with the strict one."""
    strict = strictness == "weak"

    def dominates(xp, u):
        return _tol_set_leq(tol_front(inst.recourse[(xp, u)], "min", tau),
                            tol_front(inst.recourse[(x, u)], "min", tau),
                            family, strict, lam, tau)

    return _brute_verdict(inst, x, kind, dominates,
                          lambda xp: all(dominates(xp, u) for u in inst.scenarios))


def brute_mro_verdict(inst, x, kind, strictness, tau):
    """Two-stage verdict of ``x`` on singleton recourse.  strictness
    "strict" reads <= in every component, "plain" <= and not equal, "weak"
    < in every component.  multi-scenario: <= in every scenario and, for
    plain, not equal in some scenario.  point-based: the relation on the
    per-objective maxima over scenarios."""
    val = {key: pts[0] for key, pts in inst.recourse.items()}

    def leqq(a, b):
        return all(_tol_leq(a[i], b[i], tau) for i in range(len(a)))

    def equal(a, b):
        return all(_tol_eq(a[i], b[i], tau) for i in range(len(a)))

    def rel(a, b):
        if strictness == "weak":
            return all(_tol_lt(a[i], b[i], tau) for i in range(len(a)))
        return leqq(a, b) and (strictness == "strict" or not equal(a, b))

    def worst(d):
        return tuple(max(val[(d, u)][i] for u in inst.scenarios) for i in range(inst.n))

    def dominates_all(xp):
        if kind == "point-based":
            return rel(worst(xp), worst(x))
        pairs = [(val[(xp, u)], val[(x, u)]) for u in inst.scenarios]
        return (all(leqq(a, b) for a, b in pairs)
                and (strictness == "strict" or any(not equal(a, b) for a, b in pairs)))

    return _brute_verdict(inst, x, kind, lambda xp, u: rel(val[(xp, u)], val[(x, u)]),
                          dominates_all)
