"""Vector and set order relations, weights, and the relation parser."""

import math
from dataclasses import fields
from functools import partial

import pytest
from hypothesis import given
import hypothesis.strategies as st

from maro import (
    SetRelFamily,
    SetRelSpec,
    Tolerance,
    VecRel,
    Weight,
    parse_relation,
    set_cmp,
    vec_cmp,
)

from conftest import int_vecs, near_tie_sets, point_sets, weights
from oracles import _tol_set_leq, brute_set_leq, dot, tol_vec_cmp

U = SetRelSpec(SetRelFamily.UPPER)
L = SetRelSpec(SetRelFamily.LOWER)


def lmin(lam):
    return SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=lam)


def test_vec_cmp_reflexivity_and_irreflexivity():
    assert vec_cmp((3, 7), (3, 7), VecRel.LEQQ)
    assert not vec_cmp((3, 7), (3, 7), VecRel.LEQ)
    assert not vec_cmp((3, 7), (3, 7), VecRel.LT)


def test_vec_cmp_examples():
    assert vec_cmp((2, 2), (3, 7), VecRel.LT)
    assert not vec_cmp((3, 7), (5, 5), VecRel.LEQQ)
    assert vec_cmp((3, 7), (3, 8), VecRel.LEQ)


def test_vec_cmp_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        vec_cmp((1, 2), (1, 2, 3), VecRel.LEQQ)


def test_set_cmp_lower_example():
    assert set_cmp({(2, 2), (4, 4)}, {(3, 7), (5, 5)}, L)


def test_set_cmp_singleton_equality():
    assert set_cmp({(1, 1)}, {(1, 1)}, U)
    assert not set_cmp({(1, 1)}, {(1, 1)}, U, strict=True)


def test_set_cmp_lambda_min_example():
    assert set_cmp({(2, 6), (7, 3)}, {(3, 7), (5, 5)}, lmin((0.5, 0.5)))
    assert not set_cmp({(3, 7), (5, 5)}, {(2, 6), (7, 3)}, lmin((0.5, 0.5)))


def test_set_cmp_errors():
    with pytest.raises(ValueError, match="non-empty"):
        set_cmp(set(), {(1, 1)}, U)
    with pytest.raises(ValueError, match="dimension mismatch"):
        set_cmp({(1, 1)}, {(1, 1, 1)}, U)
    with pytest.raises(ValueError, match="requires a weight"):
        SetRelSpec(SetRelFamily.LAMBDA_MIN)
    with pytest.raises(ValueError, match="non-negative"):
        SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=(-0.5, 1.5))
    with pytest.raises(ValueError, match="zero vector"):
        SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=(0.0, 0.0))
    with pytest.raises(ValueError, match="weight vector has length"):
        set_cmp({(1, 1)}, {(2, 2)}, lmin((1.0,)))
    with pytest.raises(ValueError, match="lambda-min"):
        SetRelSpec(SetRelFamily.UPPER, lam=(1.0, 0.0))


def test_weight_validation():
    Weight((0.5, 0.5))
    Weight((1.0, 0.0))
    with pytest.raises(ValueError, match="sum to 1"):
        Weight((0.5, 0.2))
    with pytest.raises(ValueError, match="non-negative"):
        Weight((1.5, -0.5))


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Weight(bad)
    with pytest.raises(ValueError, match="finite"):
        lmin(bad)


@pytest.mark.parametrize("spec", [U, L, lmin((0.3, 0.7))])
@given(A=point_sets(), B=point_sets(), C=point_sets())
def test_nonstrict_set_relations_are_preorders(spec, A, B, C):
    assert set_cmp(A, A, spec)
    if set_cmp(A, B, spec) and set_cmp(B, C, spec):
        assert set_cmp(A, C, spec)


@pytest.mark.parametrize("nonstrict,strict", [
    (partial(set_cmp, spec=spec), partial(set_cmp, spec=spec, strict=True))
    for spec in (U, L, lmin((0.4, 0.6)))])
@given(A=point_sets(), B=point_sets())
def test_strict_implies_nonstrict(nonstrict, strict, A, B):
    if strict(A, B):
        assert nonstrict(A, B)


@given(a=int_vecs(), b=int_vecs())
def test_singleton_coherence_upper_lower(a, b):
    for spec in (U, L):
        assert set_cmp({a}, {b}, spec) == vec_cmp(a, b, VecRel.LEQQ)
        assert set_cmp({a}, {b}, spec, strict=True) == vec_cmp(a, b, VecRel.LT)


@given(a=int_vecs(), b=int_vecs(), lam=weights())
def test_singleton_vector_relation_implies_lambda_min(a, b, lam):
    # one-way implication: the weighted-minimum relation is coarser
    if vec_cmp(a, b, VecRel.LEQQ):
        assert set_cmp({a}, {b}, lmin(lam))
    if vec_cmp(a, b, VecRel.LT):
        assert set_cmp({a}, {b}, lmin(lam), strict=True)


@pytest.mark.parametrize("family,strict", [("u", False), ("u", True),
                                           ("l", False), ("l", True),
                                           ("lmin", False), ("lmin", True)])
@given(A=point_sets(), B=point_sets())
def test_set_cmp_matches_bruteforce_at_zero_tolerance(family, strict, A, B):
    lam = (0.25, 0.75)
    spec = lmin(lam) if family == "lmin" else SetRelSpec(SetRelFamily(family))
    got = set_cmp(A, B, spec, Tolerance(0.0), strict)
    assert got == brute_set_leq(A, B, family, strict, lam)


def inf_tie_sets(n, tau):
    """``near_tie_sets`` with about one coordinate in four replaced by +-inf."""
    swap = st.sampled_from((None, None, None, math.inf, -math.inf))

    def replace(pts):
        masks = st.lists(st.tuples(*[swap] * n), min_size=len(pts), max_size=len(pts))
        return masks.map(lambda ms: [tuple(c if s is None else s for c, s in zip(p, m))
                                     for p, m in zip(pts, ms)])

    return near_tie_sets(n, tau, max_size=4).flatmap(replace)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tau", [0.0, 1e-9, 0.5])
@given(data=st.data())
def test_relations_match_tolerance_oracle(tau, n, data):
    # the inlined kernel against per-coordinate Tolerance semantics, on
    # near ties at the slack boundary and on infinite coordinates; opposite
    # infinities give a NaN weighted sum, which lambda-min refuses
    A = data.draw(inf_tie_sets(n, tau), label="A")
    B = data.draw(inf_tie_sets(n, tau), label="B")
    lam = data.draw(weights(n), label="lam")
    tol = Tolerance(tau)
    nan_sum = any(math.isnan(dot(lam, p)) for p in A + B)
    for strict in (False, True):
        for family in ("u", "l", "lmin"):
            spec = lmin(lam) if family == "lmin" else SetRelSpec(SetRelFamily(family))
            if family == "lmin" and nan_sum:
                with pytest.raises(ValueError, match="NaN weighted sum"):
                    set_cmp(A, B, spec, tol, strict)
                continue
            assert set_cmp(A, B, spec, tol, strict) == _tol_set_leq(A, B, family, strict, lam, tau)
    for a in A:
        for b in B:
            for rel in VecRel:
                assert vec_cmp(a, b, rel, tol) == tol_vec_cmp(a, b, rel.value, tau)


@pytest.mark.parametrize("tau", [0.0, 1e-9])
def test_relations_exact_on_infinities(tau):
    tol = Tolerance(tau)
    inf = math.inf
    # equal infinite coordinates are <= but not <
    assert set_cmp({(inf, 1.0)}, {(inf, 1.0)}, U, tol)
    assert not set_cmp({(inf, 1.0)}, {(inf, 1.0)}, U, tol, strict=True)
    assert vec_cmp((-inf, 0.0), (-inf, 0.0), VecRel.LEQQ, tol)
    assert not vec_cmp((-inf, 0.0), (-inf, 0.0), VecRel.LEQ, tol)
    assert not vec_cmp((-inf, 0.0), (-inf, 0.0), VecRel.LT, tol)
    assert set_cmp({(-inf, 0.0)}, {(-inf, 0.0)}, L, tol)
    assert not set_cmp({(-inf, 0.0)}, {(-inf, 0.0)}, L, tol, strict=True)
    assert vec_cmp((-inf, 0.0), (1.0, 1.0), VecRel.LT, tol)
    assert not vec_cmp((1.0, inf), (2.0, inf), VecRel.LT, tol)
    # both weighted minima are inf
    A, B = {(inf, 1.0), (2.0, inf)}, {(inf, 0.0)}
    assert set_cmp(A, B, lmin((0.5, 0.5)), tol)
    assert not set_cmp(A, B, lmin((0.5, 0.5)), tol, strict=True)


def test_set_cmp_refuses_nan_in_either_order():
    # a NaN weighted sum (here inf against -inf) made the lambda-min minimum
    # depend on the order of the points
    inf = math.inf
    for B in ([(0.0, 0.0), (-inf, inf)], [(-inf, inf), (0.0, 0.0)]):
        with pytest.raises(ValueError, match=r"point \(-inf, inf\) has a NaN weighted sum"):
            set_cmp([(0.0, 0.0)], B, lmin((0.5, 0.5)))
        assert set_cmp([(0.0, 0.0)], B, U) and not set_cmp([(0.0, 0.0)], B, L)
    for A in ([(1.0, inf), (2.0, 0.0)], [(2.0, 0.0), (1.0, inf)]):
        with pytest.raises(ValueError, match=r"point \(1.0, inf\) has a NaN weighted sum"):
            set_cmp(A, [(3.0, 3.0)], lmin((1.0, 0.0)))
    for spec in (U, L, lmin((0.5, 0.5))):
        with pytest.raises(ValueError, match=r"point \(nan, 1.0\) has a NaN coordinate"):
            set_cmp([(0.0, 0.0)], [(1.0, 2.0), (math.nan, 1.0)], spec)


# fixed two-objective cases of the merge kernels at the overflow edge and
# at the empty-candidate guard: (A, B, tau) -> (u, u strict, l, l strict)
BIG, HUGE = 1e308, 1.7e308
MERGE_CASES = [
    # differences that overflow to +-inf
    (([(-HUGE, 0.0)], [(HUGE, 1.0)], 0.0), (True, True, True, True)),
    (([(HUGE, 1.0)], [(-HUGE, 0.0)], 0.0), (False, False, False, False)),
    (([(-BIG, HUGE)], [(BIG, -HUGE)], 1e-9), (False, False, False, False)),
    (([(BIG, -HUGE), (HUGE, -BIG)], [(HUGE, HUGE)], 0.0), (True, False, True, True)),
    (([(-HUGE, -HUGE)], [(-BIG, HUGE), (HUGE, -BIG)], 0.5), (True, True, True, True)),
    # an a1 = -inf with an empty suffix: every b0 is below a0
    (([(1.0, -math.inf)], [(0.0, 5.0)], 0.0), (False, False, False, False)),
    (([(1.0, -math.inf)], [(0.0, -math.inf)], 1e-9), (False, False, False, False)),
    # a b1 = +inf with an empty prefix: every a0 is above b0
    (([(1.0, 0.0)], [(0.0, math.inf)], 0.0), (False, False, False, False)),
    (([(1.0, math.inf)], [(0.0, math.inf)], 1e-9), (False, False, False, False)),
    # the same points once a candidate exists
    (([(0.0, -math.inf)], [(0.0, -math.inf)], 0.0), (True, False, True, False)),
    (([(0.0, math.inf)], [(1.0, math.inf)], 0.0), (True, False, True, False)),
]


@pytest.mark.parametrize("case,expected", MERGE_CASES)
def test_merge_kernel_fixed_cases(case, expected):
    A, B, tau = case
    got = tuple(set_cmp(A, B, spec, Tolerance(tau), strict)
                for spec in (U, L) for strict in (False, True))
    assert got == expected
    assert got == tuple(_tol_set_leq(A, B, family, strict, None, tau)
                        for family in ("u", "l") for strict in (False, True))


def test_parse_relation():
    # a selector names a set relation family; the notion picks the variant
    assert [f.name for f in fields(SetRelSpec)] == ["family", "lam"]
    assert parse_relation("u") == U
    assert parse_relation("l") == L
    spec = parse_relation("lmin:0.5,0.5")
    assert spec.family is SetRelFamily.LAMBDA_MIN and spec.lam == (0.5, 0.5)
    for text in ("banana", "leqq", "lt", "l-strict", "lmin-strict:1,0"):
        with pytest.raises(ValueError, match="unknown relation"):
            parse_relation(text)
    with pytest.raises(ValueError, match="bad weight list"):
        parse_relation("lmin:a,b")
