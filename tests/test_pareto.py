"""Nondominance filtering, inner fronts, and ideal points."""

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from maro import (
    Instance,
    InstanceError,
    Orientation,
    Tolerance,
    fixture,
    ideal,
    inner_efficient,
    nondominated,
)
from maro.pareto import _contributors
from maro.relations import dot

from conftest import instances, near_tie_instances, near_tie_sets, point_sets, weights
from oracles import brute_max_front, brute_min_front, tol_contributors, tol_front

INF = math.inf


def pts(front):
    return set(front.points)


def test_min_filter_example():
    assert pts(nondominated({(3, 7), (5, 5), (4, 4)})) == {(3, 7), (4, 4)}


def test_max_filter_example():
    assert pts(nondominated({(2, 2), (4, 4)}, Orientation.MAX)) == {(4, 4)}


def test_singleton():
    assert pts(nondominated({(1, 9)})) == {(1, 9)}


def test_empty_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        nondominated([])
    with pytest.raises(ValueError, match="non-empty"):
        ideal([])


def test_duplicates_collapse_to_one_representative():
    front = nondominated([(1.0, 2.0), (1.0, 2.0), (0.5, 3.0)])
    assert front.points == ((0.5, 3.0), (1.0, 2.0))


def test_inner_efficient_examples():
    fig4 = fixture("FIG4")
    assert pts(inner_efficient(fig4, "x1", "u1")) == {(1, 9), (2, 8), (3, 7), (4, 6)}
    assert pts(inner_efficient(fixture("FIG2L"), "x1", "u2")) == {(5, 5)}
    assert pts(inner_efficient(fixture("FIG5"), "x3", "u1")) == {(7, 2), (8, 1)}
    with pytest.raises(InstanceError, match="unknown"):
        inner_efficient(fig4, "x9", "u1")


@pytest.mark.parametrize("tau", [0.0, 1e-9])
@given(data=st.data())
def test_inner_efficient_equals_the_pairwise_front(tau, data):
    # inner_efficient skips nondominated's input scans; the front must be
    # the oracle's, duplicate representatives and order included
    tol = Tolerance(tau)
    for inst in (data.draw(instances), data.draw(near_tie_instances(tau))):
        for x in inst.decisions:
            for u in inst.scenarios:
                assert (repr(inner_efficient(inst, x, u, tol).points)
                        == repr(tuple(tol_front(inst.points(x, u), "min", tau))))


def test_inner_efficient_returns_tuples_for_list_points():
    inst = Instance("lists", 2, ("x",), ("u",), {("x", "u"): [[3, 1], [2, 3], [1, 3], [2, 2]]})
    for tau in (0.0, 1e-9):
        assert repr(inner_efficient(inst, "x", "u", Tolerance(tau)).points) == \
            "((1, 3), (2, 2), (3, 1))"


def test_ideal_examples():
    fig4 = fixture("FIG4")
    union_x1 = [p for u in fig4.scenarios for p in fig4.points("x1", u)]
    union_x2 = [p for u in fig4.scenarios for p in fig4.points("x2", u)]
    assert ideal(union_x1, Orientation.MIN) == (1, 6)
    assert ideal(union_x2, Orientation.MAX) == (8, 4)
    assert ideal([(5, 4)]) == (5, 4)


@given(S=point_sets())
def test_idempotence(S):
    once = nondominated(S)
    twice = nondominated(once.points)
    assert once.points == twice.points


@given(S=point_sets(), lam=weights())
def test_weighted_minimum_is_preserved_by_filtering(S, lam):
    front = nondominated(S)
    assert min(dot(lam, p) for p in S) == min(dot(lam, p) for p in front.points)


@given(S=point_sets())
def test_ideal_sandwich(S):
    lo = ideal(S, Orientation.MIN)
    hi = ideal(S, Orientation.MAX)
    for p in S:
        assert all(lo[i] <= p[i] <= hi[i] for i in range(len(p)))


@given(S=point_sets())
def test_matches_bruteforce(S):
    tol0 = Tolerance(0.0)
    assert list(nondominated(S, Orientation.MIN, tol0).points) == brute_min_front(S)
    assert list(nondominated(S, Orientation.MAX, tol0).points) == brute_max_front(S)


def test_mixed_lengths_rejected():
    for orientation in Orientation:
        for S in ([(1.0, 2.0), (0.0, 1.0, 2.0)], [(1.0, 2.0), (0.0,)]):
            with pytest.raises(ValueError, match="length mismatch"):
                nondominated(S, orientation)
            with pytest.raises(ValueError, match="length mismatch"):
                ideal(S, orientation)


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("points", [
    [(math.nan, 0.0), (1.0, 1.0), (0.5, 2.0)],
    [(1.0, 1.0), (0.5, 2.0), (math.nan, 0.0)],
    [(1.0, 1.0, 1.0), (0.0, math.nan, 2.0)],
])
def test_nan_coordinate_is_refused_in_any_order(orientation, points):
    # no order relation holds for NaN, so a front would keep or drop the
    # point, and an ideal point take or skip the NaN, by the input order
    for call in (nondominated, ideal):
        with pytest.raises(ValueError, match=r"point \(.*nan.*\) has a NaN coordinate"):
            call(points, orientation)


@pytest.mark.parametrize("tau", [0.0, 1e-9, 0.5])
def test_infinite_coordinates(tau):
    S = [(INF, 0.0), (0.0, INF), (1.0, 1.0), (-INF, 5.0), (-INF, 5.0), (2.0, -INF)]
    tol = Tolerance(tau)
    lo = nondominated(S, Orientation.MIN, tol).points
    hi = nondominated(S, Orientation.MAX, tol).points
    assert lo == ((-INF, 5.0), (1.0, 1.0), (2.0, -INF))
    assert hi == ((0.0, INF), (1.0, 1.0), (INF, 0.0))
    assert list(lo) == tol_front(S, "min", tau)
    assert list(hi) == tol_front(S, "max", tau)


def test_candidate_bound_uses_the_checked_difference():
    # q[0] - p[0] rounds to exactly tau, so q dominates p under MIN (and p
    # dominates q under MAX), although q[0] > p[0] + tau once that rounds.
    p, q = (2.0**-54, 5.0), (0.5 + 2.0**-53, 3.0)
    tol = Tolerance(0.5)
    assert q[0] - p[0] == 0.5 and q[0] > p[0] + 0.5
    assert nondominated([p, q], Orientation.MIN, tol).points == (q,)
    assert nondominated([p, q], Orientation.MAX, tol).points == (p,)


def test_two_objective_sweep_fixed_cases():
    tol0 = Tolerance(0.0)
    # equal first coordinates and exact duplicates
    S = [(1.0, 5.0), (1.0, 3.0), (1.0, 3.0), (2.0, 3.0), (2.0, 1.0), (0.0, 9.0),
         (3.0, 0.5), (3.0, 0.5)]
    lo = nondominated(S, Orientation.MIN, tol0).points
    assert lo == ((0.0, 9.0), (1.0, 3.0), (2.0, 1.0), (3.0, 0.5))
    assert list(lo) == tol_front(S, "min", 0.0)
    # points equal up to the sign of a zero keep the first in sorted order
    for S in ([(0.0, 1.0), (-0.0, 1.0)], [(-0.0, 1.0), (0.0, 1.0)]):
        got = nondominated(S, Orientation.MIN, tol0).points
        assert repr(got) == repr(tuple(tol_front(S, "min", 0.0))) == repr((S[0],))
    # an infinite coordinate takes the pruned scan
    assert nondominated([(0.0, INF), (1.0, INF)], Orientation.MIN, tol0).points == ((0.0, INF),)
    assert nondominated([(0.0, -INF), (1.0, -INF)], Orientation.MIN, tol0).points == (
        (0.0, -INF),)


def test_two_objective_kernel_on_overflowing_differences():
    # q0 - p0 and q1 - p1 round to +-inf although every coordinate is finite
    big, huge = 1e308, 1.7e308
    S = [(-huge, huge), (huge, -huge), (big, big), (-big, -big), (-huge, -big),
         (huge, huge), (0.0, -huge), (-big, huge), (big, -huge), (-0.0, 0.0)]
    for tau in (1e-9, 0.5):
        tol = Tolerance(tau)
        lo = nondominated(S, Orientation.MIN, tol).points
        hi = nondominated(S, Orientation.MAX, tol).points
        assert lo == ((-huge, -big), (0.0, -huge))
        assert hi == ((huge, huge),)
        assert list(lo) == tol_front(S, "min", tau)
        assert list(hi) == tol_front(S, "max", tau)
        pair = [(-huge, 0.0), (huge, -big)]
        assert list(nondominated(pair, Orientation.MIN, tol).points) == pair
        assert list(nondominated(pair, Orientation.MAX, tol).points) == pair


def test_two_objective_kernel_at_the_slack_boundary():
    # d0 = -tau exactly is no strict gain: (0.5, 1.5) does not dominate
    # (1.0, 1.0) but is dropped as a duplicate of (0.25, 1.75), which keeps
    # (1.0, 1.0) alive; and d1 = -tau exactly lets (1.0, 1.0) survive
    # (1.25, 0.5), which then goes as its duplicate
    tol = Tolerance(0.5)
    for S, front in (([(0.25, 1.75), (0.5, 1.5), (1.0, 1.0)], [(0.25, 1.75), (1.0, 1.0)]),
                     ([(1.0, 1.0), (1.25, 0.5)], [(1.0, 1.0)])):
        assert list(nondominated(S, Orientation.MIN, tol).points) == front
        assert front == tol_front(S, "min", 0.5)
        neg = [(-a, -b) for a, b in S]
        assert list(nondominated(neg, Orientation.MAX, tol).points) == tol_front(neg, "max", 0.5)


def test_two_objective_signed_zero_representative_under_max():
    # tau-equal points keep the first in ascending sorted order, which for
    # equal keys is the input order
    for tau in (1e-9, 0.5):
        tol = Tolerance(tau)
        for S in ([(0.0, 1.0), (-0.0, 1.0)], [(-0.0, 1.0), (0.0, 1.0)],
                  [(1.0, -0.0), (1.0, 0.0), (-1.0, 0.0)]):
            got = nondominated(S, Orientation.MAX, tol).points
            assert repr(got) == repr(tuple(tol_front(S, "max", tau))) == repr((S[0],))


@pytest.mark.parametrize("n,max_size", [(1, 6), (2, 6), (3, 6), (4, 6), (2, 40)],
                         ids=["1", "2", "3", "4", "2-up-to-40"])
@pytest.mark.parametrize("tau", [0.0, 1e-9, 0.5])
@given(data=st.data())
def test_matches_tolerance_oracle_on_near_ties(tau, n, max_size, data):
    S = data.draw(near_tie_sets(n, tau, max_size))
    tol = Tolerance(tau)
    assert list(nondominated(S, Orientation.MIN, tol).points) == tol_front(S, "min", tau)
    assert list(nondominated(S, Orientation.MAX, tol).points) == tol_front(S, "max", tau)


# coordinates whose differences are infinite, NaN (equal infinities) or
# overflow, next to small integers and both zeros
_EXTREME = (INF, -INF, 0.0, -0.0, 1e308, -1e308, 1.0, 2.0, -1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("tau", [0.0, 1e-9, 0.5])
@given(data=st.data())
def test_matches_tolerance_oracle_on_infinite_and_overflowing_coordinates(tau, n, data):
    S = data.draw(st.lists(st.tuples(*[st.sampled_from(_EXTREME)] * n),
                           min_size=1, max_size=7))
    tol = Tolerance(tau)
    for orientation in Orientation:
        got = nondominated(S, orientation, tol).points
        assert repr(list(got)) == repr(tol_front(S, orientation.value, tau)), orientation


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_zero_length_points_keep_one_representative(tau):
    for orientation in Orientation:
        assert nondominated([(), ()], orientation, Tolerance(tau)).points == ((),)
        assert tol_front([(), ()], orientation.value, tau) == [()]


def _kernel_shape(shape, tau):
    """A seeded two-objective set of one of the shapes that drive the
    two-objective kernel down its different paths."""
    rng = random.Random(22)
    if shape == "random":
        # integer points on a quarter grid in a band along the antidiagonal,
        # shifted by offsets at the slack boundary: many candidates, and
        # differences of exactly tau
        offsets = (0.0, 0.0, tau, -tau)
        return [(g / 4 + rng.choice(offsets),
                 (80 - g + rng.randint(0, 6)) / 4 + rng.choice(offsets))
                for g in (rng.randint(0, 80) for _ in range(400))]
    if shape == "antichain":  # every point a candidate and undominated
        return rng.sample([(float(i), float(200 - i)) for i in range(200)], 200)
    if shape == "tau-cluster":  # every point tau-equal to every other
        return [(rng.uniform(0, tau), rng.uniform(0, tau)) for _ in range(200)]
    # equal-x columns and equal-y rows
    return ([(float(rng.randint(0, 3)), rng.randint(0, 200) / 4) for _ in range(200)]
            + [(rng.randint(0, 200) / 4, float(rng.randint(0, 3))) for _ in range(200)])


@pytest.mark.parametrize("tau", [1e-9, 0.5])
@pytest.mark.parametrize("shape", ["random", "antichain", "tau-cluster", "columns-rows"])
def test_two_objective_kernel_matches_the_oracle_on_large_sets(shape, tau):
    S = _kernel_shape(shape, tau)
    for orientation in Orientation:
        got = nondominated(S, orientation, Tolerance(tau)).points
        assert repr(list(got)) == repr(tol_front(S, orientation.value, tau)), orientation


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tau", [0.0, 1e-9, 0.5])
@pytest.mark.parametrize("near_ties", [False, True], ids=["point-sets", "near-ties"])
@given(data=st.data())
def test_contributors_match_the_quadratic_definition(near_ties, tau, n, data):
    # one drawn set dealt out to up to four keys: near ties then often span
    # keys, and the front keeps one representative of several tau-equal
    # points, which every key holding one of them contributes; at tau = 0.5
    # a point's first-coordinate window holds several front points
    pts = data.draw(near_tie_sets(n, tau, 12) if near_ties else point_sets(n, 12))
    points_of = {}
    for p in pts:
        points_of.setdefault(f"k{data.draw(st.integers(0, 3))}", []).append(p)
    keys, front = _contributors(points_of, Tolerance(tau))
    assert (keys, list(front.points)) == tol_contributors(points_of, tau)
