"""Order relations on objective vectors and on finite sets of them.

Three componentwise vector relations (``<=`` everywhere, ``<=`` everywhere
and not equal, ``<`` everywhere), which :class:`Strictness` selects for the
strict, plain and weak variants of a vector notion, and three families of
set relations built on top of them:

* upper type: every point of A lies below some point of B,
* lower type: every point of B lies above some point of A,
* weighted minimum: the best weighted sums of A and B are compared.

For finite sets the cone-containment definitions of the upper/lower
relations reduce exactly to the pointwise exists/forall characterizations
used here.  Every relation reads the inlined rule of the injected
:class:`Tolerance` (``_below`` per vector).  The set relations are one
kernel, ``_set_leq``, over sorted points (one merge pass for two
objectives, a pairwise scan otherwise) or two weighted minima.
The rule compares infinite operands exactly without a finiteness branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .instances import DEFAULT_TOL, Tolerance, Vec


class VecRel(Enum):
    LEQQ = "leqq"  # a_i <= b_i for all i
    LEQ = "leq"    # LEQQ and a != b
    LT = "lt"      # a_i < b_i for all i


class Strictness(Enum):
    STRICT = "strict"
    PLAIN = "plain"
    WEAK = "weak"

    # members are singletons compared by identity; Enum's own __hash__ is a
    # Python-level call on every memo-key lookup, object's is not
    __hash__ = object.__hash__


_VEC_REL = {
    Strictness.STRICT: VecRel.LEQQ,
    Strictness.PLAIN: VecRel.LEQ,
    Strictness.WEAK: VecRel.LT,
}


class SetRelFamily(Enum):
    UPPER = "u"
    LOWER = "l"
    LAMBDA_MIN = "lmin"

    __hash__ = object.__hash__  # as in Strictness


# for the kernel: on Python 3.11 a member read off its class costs more than
# a lambda-min comparison, since EnumType's __getattr__ defeats the attribute cache
_UPPER, _LAMBDA_MIN = SetRelFamily.UPPER, SetRelFamily.LAMBDA_MIN


def _check_lam(lam: Vec):
    if not all(map(math.isfinite, lam)):
        raise ValueError(f"weight vector must be finite, got {lam}")
    if any(c < 0 for c in lam):
        raise ValueError(f"weight vector must be componentwise non-negative, got {lam}")
    if all(c == 0 for c in lam):
        raise ValueError("weight vector must not be the zero vector")


@dataclass(frozen=True)
class SetRelSpec:
    """A selected family of set relations, and its weights if needed; the
    strict or non-strict variant is chosen per comparison.

    ``lam`` is required exactly for the weighted-minimum family; it must be
    finite, non-negative and non-zero but need not be normalized.
    """

    family: SetRelFamily
    lam: Vec | None = None

    def __post_init__(self):
        if self.family is SetRelFamily.LAMBDA_MIN:
            if self.lam is None:
                raise ValueError("lambda-min set relation requires a weight vector")
            object.__setattr__(self, "lam", tuple(float(c) for c in self.lam))
            _check_lam(self.lam)
        elif self.lam is not None:
            raise ValueError(f"{self.family.value}: weight vector only applies to lambda-min")


@dataclass(frozen=True)
class Weight:
    """A point on the weight simplex: finite non-negative entries summing
    to one."""

    values: Vec

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(c) for c in self.values))
        _check_lam(self.values)
        s = math.fsum(self.values)
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {s!r}")


def dot(lam: Vec, p: Vec) -> float:
    s = 0.0
    for i in range(len(lam)):
        s += lam[i] * p[i]
    return s


def _below(a: Vec, b: Vec, strict: bool, tau: float) -> bool:
    """:meth:`Tolerance.lt` (strict) or :meth:`Tolerance.leq` with slack
    ``tau`` in every coordinate of ``a`` and ``b``, inlined for the
    relation kernels."""
    if strict:
        for ai, bi in zip(a, b):
            if not bi - ai > tau:
                return False
        return True
    for ai, bi in zip(a, b):
        if not (ai - bi <= tau or ai <= bi):
            return False
    return True


def _vec_eq(a: Vec, b: Vec, tol: Tolerance) -> bool:
    return all(tol.eq(a[i], b[i]) for i in range(len(a)))


def vec_cmp(a: Vec, b: Vec, rel: VecRel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Compare two objective vectors under the selected relation."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    below = _below(a, b, rel is VecRel.LT, tol.tau)
    if rel is VecRel.LEQ:
        return below and not _vec_eq(a, b, tol)
    return below


def weighted_min(points, lam: Vec) -> float:
    """Least weighted sum over a non-empty sequence of points of the weight
    vector's dimension; a NaN sum would make it depend on the point order, so
    callers refuse one (:func:`_refuse_nan_sum`).  Two objectives unroll
    ``dot`` in its summation order, so each sum is the same float."""
    if len(lam) == 2:
        l0, l1 = lam
        return min([0.0 + l0 * p0 + l1 * p1 for p0, p1 in points])
    return min([dot(lam, p) for p in points])


def _refuse_nan(points):
    """Refuse with ``ValueError``, naming the point, a NaN coordinate: no
    order relation holds for it, so an answer would depend on the point order."""
    for p in points:
        if any(map(math.isnan, p)):
            raise ValueError(f"point {p} has a NaN coordinate")


def _refuse_nan_sum(points, lam: Vec, where: str = ""):
    """Refuse with ``ValueError``, naming the point after ``where``, a NaN
    weighted sum (``inf`` against ``-inf``, or ``0 * inf``): see weighted_min."""
    for p in points:
        if math.isnan(dot(lam, p)):
            raise ValueError(f"{where}point {p} has a NaN weighted sum under weights {lam}")


def _set_leq(A, B, family: SetRelFamily, strict: bool, tau: float) -> bool:
    """``A <= B`` under ``family``'s strict or non-strict variant with slack
    ``tau``: on two weighted minima for lambda-min (``Tolerance.lt``/``leq``
    inlined), else on non-empty, sorted point sequences of one dimension,
    two objectives taking the merge kernels :func:`_upper2`/:func:`_lower2`."""
    if family is _LAMBDA_MIN:
        if strict:
            return B - A > tau
        return A - B <= tau or A <= B
    if len(A[0]) == 2:
        if family is _UPPER:
            return _upper2(A, B, strict, tau)
        return _lower2(A, B, strict, tau)
    if family is _UPPER:
        # every point of A lies below some point of B
        for a in A:
            for b in B:
                if _below(a, b, strict, tau):
                    break
            else:
                return False
        return True
    # every point of B lies above some point of A
    for b in B:
        for a in A:
            if _below(a, b, strict, tau):
                break
        else:
            return False
    return True


# The merge kernels (the prefix extremum of Kung, Luccio & Preparata 1975).
# For the upper relation, the points b of B whose first coordinate passes
# the test of some a against it form a suffix of the sorted B: the test is
# the very expression of ``_below``, and rounding is monotone, so it never
# turns from true to false as b0 grows, nor as a0 falls.  Walking A in
# descending order only extends that suffix, and some b in it passes the
# second coordinate iff the suffix's greatest b1 does.  The lower relation
# is the mirror image: a prefix of A and its least a1.  The non-strict
# tests need an empty-candidate guard: against the infinite sentinel an
# equal infinity gives a NaN difference and a true ``<=``.

def _upper2(A, B, strict: bool, tau: float) -> bool:
    """Every point of A lies below some point of B; two objectives."""
    m = j = len(B)
    best = -math.inf  # greatest b1 over the candidates B[j:]
    if strict:
        for a0, a1 in reversed(A):
            while j and B[j - 1][0] - a0 > tau:
                j -= 1
                if B[j][1] > best:
                    best = B[j][1]
            if not best - a1 > tau:
                return False
        return True
    for a0, a1 in reversed(A):
        while j and (a0 - B[j - 1][0] <= tau or a0 <= B[j - 1][0]):
            j -= 1
            if B[j][1] > best:
                best = B[j][1]
        if j == m or not (a1 - best <= tau or a1 <= best):
            return False
    return True


def _lower2(A, B, strict: bool, tau: float) -> bool:
    """Every point of B lies above some point of A; two objectives."""
    m = len(A)
    i = 0
    least = math.inf  # least a1 over the candidates A[:i]
    if strict:
        for b0, b1 in B:
            while i < m and b0 - A[i][0] > tau:
                if A[i][1] < least:
                    least = A[i][1]
                i += 1
            if not b1 - least > tau:
                return False
        return True
    for b0, b1 in B:
        while i < m and (A[i][0] - b0 <= tau or A[i][0] <= b0):
            if A[i][1] < least:
                least = A[i][1]
            i += 1
        if not i or not (least - b1 <= tau or least <= b1):
            return False
    return True


def set_cmp(A, B, spec: SetRelSpec, tol: Tolerance = DEFAULT_TOL,
            strict: bool = False) -> bool:
    """Compare two non-empty finite point sets under the selected relation,
    its strict variant when ``strict`` is set.

    Checks the input and sorts it, then runs the kernel shared with the
    efficiency checkers (``_set_leq``) on the sorted sets, or under
    lambda-min on their weighted minima; infinite coordinates are compared
    exactly.  A NaN coordinate, or under lambda-min a NaN weighted sum (say
    ``inf`` against ``-inf``, or ``0 * inf``), would make the answer depend
    on the order of the points, so it raises ``ValueError``.
    """
    A = sorted(map(tuple, A))
    B = sorted(map(tuple, B))
    if not A or not B:
        raise ValueError("set relations are defined for non-empty sets only")
    dims = {len(p) for p in A} | {len(p) for p in B}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch across sets: {sorted(dims)}")
    _refuse_nan(A + B)
    if spec.family is SetRelFamily.LAMBDA_MIN:
        if len(spec.lam) not in dims:
            raise ValueError(f"weight vector has length {len(spec.lam)}, points have {dims.pop()}")
        _refuse_nan_sum(A + B, spec.lam)
        A, B = weighted_min(A, spec.lam), weighted_min(B, spec.lam)
    return _set_leq(A, B, spec.family, strict, tol.tau)


def parse_relation(text: str) -> SetRelSpec:
    """Parse a CLI set relation selector: ``u``, ``l`` or ``lmin:<csv>``."""
    t = text.strip()
    if t in ("u", "l"):
        return SetRelSpec(SetRelFamily(t))
    if t.startswith("lmin:"):
        try:
            lam = tuple(float(c) for c in t[len("lmin:"):].split(","))
        except ValueError:
            raise ValueError(f"bad weight list in relation {text!r}") from None
        return SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=lam)
    raise ValueError(f"unknown relation {text!r}; expected one of u, l, lmin:<csv>")
