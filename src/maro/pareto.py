"""Nondominance filtering, ideal points, and inner-stage efficient fronts."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import neg

from .instances import DEFAULT_TOL, Instance, InstanceError, Tolerance, Vec
from .relations import _refuse_nan, _refuse_nan_sum, weighted_min


class Orientation(Enum):
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class FrontSet:
    """A nondominated set, lexicographically ordered for determinism."""

    points: tuple[Vec, ...]
    orientation: Orientation

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def nondominated(points, orientation: Orientation = Orientation.MIN,
                 tol: Tolerance = DEFAULT_TOL) -> FrontSet:
    """Keep exactly the members no other member dominates; collapse duplicates.

    With d = q - p, q MIN-dominates p iff every ``d_i <= tau`` and some
    ``d_i < -tau``.  MAX dominance is MIN dominance of the negated points,
    which sort in reverse order, at every objective count: ``(-q_i) - (-p_i)``
    equals ``p_i - q_i`` bit for bit.  Finite two-objective sets take an
    exact O(m log m) kernel at every tau (:func:`_undominated2`; Kung,
    Luccio & Preparata 1975): a candidate pass drops every p that the
    point holding the prefix minimum of the second coordinate dominates,
    and each candidate left is decided at the ends of two prefixes of
    possible dominators, found by bisection and by a forward pointer.  At
    tau = 0 under MIN a one-pass sweep is cheaper still: every dominator or
    duplicate of p sorts before p, so p survives iff ``p[1]`` is smaller
    than that of the last point kept.

    Every other input, including any with an infinite coordinate, scans a
    pruned candidate range.  After the lexicographic sort, q can dominate p
    only if ``q[0] - p[0] <= tau or q[0] <= p[0]``.  Rounding is monotone,
    so the candidates form a prefix whose end only moves forward as p[0]
    grows, and the bound drops no candidate the per-pair test, which uses
    the same difference, would accept.  The scan inlines the rule of
    :class:`Tolerance`: a difference with an infinite operand is infinite
    and compares exactly, or NaN for equal infinities, which the per-pair
    test reads as equal coordinates and the bound and duplicate tests accept
    through their ``or``.  One pass then keeps each undominated point that
    is not tau-equal to one kept before it, so a run of duplicates keeps its
    lexicographically smallest member.  Points of length zero are all
    duplicates of the first.  The unpruned pairwise filter survives only as
    the test oracle ``tol_front``.

    A NaN coordinate would make the front depend on the input order, so it
    raises ``ValueError``, as in :func:`~maro.relations.set_cmp`.  This
    function sorts and checks its input, then hands it to the core
    :func:`_sorted_front`, which :func:`inner_efficient` calls directly.
    """
    pts = sorted(tuple(p) for p in points)
    if not pts:
        raise ValueError("nondominated() requires a non-empty point set")
    n = _common_length(pts)
    finite = n == 2 and all(map(math.isfinite, chain.from_iterable(pts)))
    if not finite:
        _refuse_nan(pts)
    return _sorted_front(pts, n, finite, orientation, tol.tau)


def _sorted_front(pts: list[Vec], n: int, finite: bool, orientation: Orientation,
                  tau: float) -> FrontSet:
    """The front of sorted, non-empty points of common length ``n``;
    ``finite`` says whether every coordinate is finite and is read only
    when ``n == 2``."""
    if n == 0:
        return FrontSet(tuple(pts[:1]), orientation)
    if orientation is Orientation.MIN:
        if n == 2 and finite and tau == 0.0:
            return _sweep_min_front2(pts)
        undominated = _undominated(pts, n, finite, tau)
    else:
        # MAX dominance is MIN dominance of the negated points, which sort
        # in reverse order
        last = len(pts) - 1
        undominated = [last - k for k in reversed(
            _undominated([tuple(map(neg, p)) for p in reversed(pts)], n, finite, tau))]
    keep: list[Vec] = []
    for k in undominated:
        p = pts[k]
        if not _has_duplicate(keep, p, tau):
            keep.append(p)
    return FrontSet(tuple(keep), orientation)


def _common_length(pts) -> int:
    n = len(pts[0])
    for p in pts:
        if len(p) != n:
            raise ValueError(f"length mismatch: {n} vs {len(p)}")
    return n


def _has_duplicate(keep, p: Vec, tau: float) -> bool:
    """Whether ``p`` is tau-equal to a point of ``keep``; these ascend in the
    first coordinate, so ``p[0] - k[0] >= 0`` only grows as the scan goes
    back."""
    p0 = p[0]
    for k in reversed(keep):
        if p0 - k[0] > tau:
            return False
        if all(abs(a - b) <= tau or a == b for a, b in zip(p, k)):
            return True
    return False


def _undominated(pts: list[Vec], n: int, finite: bool, tau: float) -> list[int]:
    """The ascending indices of the sorted points that no other MIN-dominates
    within tau: :func:`_undominated2` if two-objective and finite, else the
    pruned scan."""
    if n == 2 and finite:
        return _undominated2(pts, tau)
    m = len(pts)
    hi = 0  # candidates for the current p are pts[:hi]
    out = []
    for k, p in enumerate(pts):
        p0 = p[0]
        while hi < m and (pts[hi][0] - p0 <= tau or pts[hi][0] <= p0):
            hi += 1
        for j in range(hi):
            # does q = pts[j] dominate p?  d = q_i - p_i
            strict = False
            for a, b in zip(pts[j], p):
                d = a - b
                if d > tau:
                    break
                if abs(d) > tau:
                    strict = True
            else:
                if strict:
                    break
        else:
            out.append(k)
    return out


def _undominated2(pts: list[Vec], tau: float) -> list[int]:
    """The ascending indices of the sorted, finite two-objective points that
    no other MIN-dominates within tau.

    With d = q - p, q dominates p iff (A) ``d_0 < -tau`` and ``d_1 <= tau``,
    or (B) ``d_0 <= tau`` and ``d_1 < -tau``.  Float subtraction is
    monotone, so the q meeting each case's first test are a prefix of the
    sorted points whose end only moves forward as p advances, and some q in
    it meets the second test iff the prefix's least q_1, a prefix minimum
    ``pm``, does.  Both tests use the very expressions d_i.

    Pass 1 keeps as candidates only the p with ``not pm[k] - p_1 < -tau``:
    for any other p, the point holding ``pm[k]`` sorts first, so its
    ``d_0 <= 0 <= tau``, and it dominates p under (B).  Pass 2 decides the
    candidates alone.  The end of (A)'s prefix, at or before p, is p itself
    if the point before p meets (A)'s first test, stays put if the point at
    the last candidate's end fails it, and is found by bisection between
    the two otherwise.  The end of (B)'s prefix, past p, only moves forward.
    So the worst case stays O(m log m).
    """
    pm = []
    candidates = []
    best = math.inf
    for k, (_, p1) in enumerate(pts):
        if p1 < best:
            best = p1
        pm.append(best)
        if not best - p1 < -tau:
            candidates.append(k)
    m = len(pts)
    a = b = 0  # ends of the prefixes of cases (A) and (B)
    out = []
    for k in candidates:
        p0, p1 = pts[k]
        if k and pts[k - 1][0] - p0 < -tau:
            a = k
        elif pts[a][0] - p0 < -tau:
            a += 1
            hi = k - 1  # pts[k - 1] fails (A)'s first test
            while a < hi:
                mid = (a + hi) // 2
                if pts[mid][0] - p0 < -tau:
                    a = mid + 1
                else:
                    hi = mid
        if b <= k:
            b = k + 1
        while b < m and pts[b][0] - p0 <= tau:
            b += 1
        if not ((a and pm[a - 1] - p1 <= tau) or pm[b - 1] - p1 < -tau):
            out.append(k)
    return out


def _sweep_min_front2(pts: list[Vec]) -> FrontSet:
    """The exact MIN front of sorted, finite two-objective points in one pass."""
    keep: list[Vec] = []
    best = math.inf
    for p in pts:
        if p[1] < best:
            keep.append(p)
            best = p[1]
    return FrontSet(tuple(keep), Orientation.MIN)


def inner_efficient(inst: Instance, x: str, u: str,
                    tol: Tolerance = DEFAULT_TOL) -> FrontSet:
    """Efficient front of the recourse image at one (decision, scenario) pair.

    :class:`Instance` has already refused empty sets, wrong lengths and
    non-finite coordinates, so the points go straight to the front core
    after the sort, without the input scans of :func:`nondominated`."""
    key = ("front", x, u, tol.tau)
    hit = inst._cache.get(key)
    if hit is None:
        pts = sorted(inst.points(x, u))
        hit = inst._cache[key] = _sorted_front(pts, inst.n, True, Orientation.MIN, tol.tau)
    return hit


def _contributors(points_of: dict, tol: Tolerance) -> tuple[tuple, FrontSet]:
    """The MIN front of the points of every key pooled, and the keys, in
    order, with a point tau-equal to a point of that front.  ``points_of``
    maps each key to a non-empty sequence of instance points, which are
    finite.

    A front point q can be tau-equal to p only inside p's first-coordinate
    window ``abs(q[0] - p[0]) <= tau``, the rule of :func:`_has_duplicate`.
    The front ascends in its first coordinate and float subtraction is
    monotone, so the window is a run of the front, found by bisection on
    the very differences ``q[0] - p[0]``, and only its points are compared.
    """
    front = nondominated({p for pts in points_of.values() for p in pts}, Orientation.MIN, tol)
    tau = tol.tau
    firsts = [q[0] for q in front.points]

    def on_front(p):
        p0 = p[0]
        lo = bisect_left(firsts, -tau, key=lambda q0: q0 - p0)
        hi = bisect_right(firsts, tau, lo, key=lambda q0: q0 - p0)
        return _has_duplicate(front.points[lo:hi], p, tau)

    keys = tuple(k for k, pts in points_of.items() if any(map(on_front, pts)))
    return keys, front


def _scenario_table(inst: Instance, x: str, lam: Vec | None, tol: Tolerance) -> tuple:
    """One entry per scenario of ``x``, in document order: the tau-front of
    its recourse image or, with weights ``lam`` (else None), the least
    weighted sum over it, refused once if NaN.  At tau = 0 the weighted-sum
    concept and the lambda-min verdicts share each entry.  This is the one
    check of a weight vector's length against an instance."""
    key = ("table", x, lam, tol.tau)
    hit = inst._cache.get(key)
    if hit is None:
        if lam is None:
            hit = tuple(inner_efficient(inst, x, u, tol).points for u in inst.scenarios)
        else:
            fronts = _scenario_table(inst, x, None, tol)
            if len(lam) != inst.n:
                raise InstanceError(f"weight vector has length {len(lam)}, points have {inst.n}")
            # instance points are finite, so a sum is NaN only if a product
            # overflows, which takes a weight above 1
            if max(lam) > 1.0:
                for u, front in zip(inst.scenarios, fronts):
                    _refuse_nan_sum(front, lam, f"recourse.{x}.{u}: ")
            hit = tuple(weighted_min(front, lam) for front in fronts)
        inst._cache[key] = hit
    return hit


def ideal(points, orientation: Orientation = Orientation.MIN) -> Vec:
    """Componentwise minimum (MIN) or maximum (MAX) over a non-empty set;
    a NaN coordinate raises ``ValueError``, as in :func:`nondominated`."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("ideal() requires a non-empty point set")
    n = _common_length(pts)
    _refuse_nan(pts)
    agg = min if orientation is Orientation.MIN else max
    return tuple(agg(p[i] for p in pts) for i in range(n))
