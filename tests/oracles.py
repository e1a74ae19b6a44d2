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
