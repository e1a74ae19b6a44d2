"""Weighted-sum, constraint, and point-based concepts with their bounds."""

import json
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from maro import (
    GenBound,
    GenConfig,
    INF,
    Instance,
    InstanceError,
    Strictness,
    Tolerance,
    Weight,
    check_eps_bound,
    check_ws_bound,
    eps_efficient_set,
    f_eps_j,
    f_lambda,
    f_pb,
    fixture,
    generate,
    image_ws,
    load_instance,
    make_instance,
    pb_efficient_set,
    pb_trivial_bounds,
    simplex_grid,
    ws_efficient_set,
)

from conftest import instances, near_tie_instances
from oracles import (
    brute_check_eps_bound,
    brute_check_ws_bound,
    brute_f_eps_j,
    brute_f_lambda,
    brute_f_pb,
    brute_image_ws,
)

HALF = Weight((0.5, 0.5))


def test_f_lambda_examples():
    fig2l = fixture("FIG2L")
    assert f_lambda(fig2l, "x2", HALF) == 5
    assert f_lambda(fig2l, "x1", Weight((1.0, 0.0))) == 8
    assert f_lambda(fig2l, "x1", Weight((1.0, 0.0))) == f_pb(fig2l, "x1")[0]
    assert f_lambda(fixture("FIG4"), "x2", HALF) == 5


def test_ws_efficient_set_examples():
    fig2l = fixture("FIG2L")
    plain = ws_efficient_set(fig2l, HALF, Strictness.PLAIN)
    assert plain.decisions == ("x2",)
    assert plain.guarantees == {"x2": 5}
    strict = ws_efficient_set(fig2l, HALF, Strictness.STRICT)
    assert strict.decisions == ("x2",) and not strict.strict_empty_tie


def test_ws_tie_empties_strict_set():
    twins = make_instance(
        "twins", 2, ["a", "b"], ["u"],
        {"a": {"u": [(1, 3)]}, "b": {"u": [(1, 3)]}},
    )
    strict = ws_efficient_set(twins, HALF, Strictness.STRICT)
    assert strict.decisions == ()
    assert strict.strict_empty_tie
    assert strict.plain_guarantee == 2
    plain = ws_efficient_set(twins, HALF, Strictness.PLAIN)
    assert plain.decisions == ("a", "b")


def test_f_eps_j_examples():
    fig2l = fixture("FIG2L")
    assert f_eps_j(fig2l, "x2", GenBound((0, 7), 1)) == 7
    assert f_eps_j(fig2l, "x1", GenBound((0, 4), 1)) == INF
    assert f_eps_j(fig2l, "x1", GenBound((0, 1e9), 1)) == 8 == f_pb(fig2l, "x1")[0]


def test_eps_efficient_set_examples():
    fig2l = fixture("FIG2L")
    plain = eps_efficient_set(fig2l, GenBound((0, 7), 1), Strictness.PLAIN)
    assert plain.decisions == ("x2",)
    assert plain.guarantees == {"x2": 7}
    assert not plain.infeasible

    both_inf = eps_efficient_set(fig2l, GenBound((0, 4), 1), Strictness.PLAIN)
    assert both_inf.decisions == ("x1", "x2")
    assert both_inf.infeasible
    assert both_inf.guarantees == {"x1": INF, "x2": INF}

    strict = eps_efficient_set(fixture("FIG2R"), GenBound((0, 4), 1), Strictness.STRICT)
    assert strict.decisions == ("x2",)
    assert strict.guarantees == {"x2": 4}


def test_all_infeasible_strict_set_is_empty_and_flagged():
    sel = eps_efficient_set(fixture("FIG2L"), GenBound((0, 4), 1), Strictness.STRICT)
    assert sel.decisions == ()
    assert sel.infeasible and sel.strict_empty_tie
    assert sel.plain_guarantee == INF


def test_f_pb_examples():
    fig4 = fixture("FIG4")
    assert f_pb(fig4, "x1") == (1, 6)
    assert f_pb(fig4, "x2") == (8, 4)
    assert f_pb(fixture("FIG5"), "x1") == (2, 9)
    assert f_pb(fixture("FIG2L"), "x1") == (8, 7)
    assert f_pb(fixture("FIG2L"), "x2") == (7, 6)


def test_pb_efficient_set_examples():
    assert pb_efficient_set(fixture("FIG4")) == ("x1", "x2")
    assert pb_efficient_set(fixture("FIG2L")) == ("x2",)
    solo = make_instance("solo", 2, ["x"], ["u"], {"x": {"u": [(0, 0)]}})
    for s in Strictness:
        assert pb_efficient_set(solo, s) == ("x",)


def test_ws_bound_examples():
    fig2l = fixture("FIG2L")
    assert check_ws_bound(fig2l, "x2", HALF, 5)
    assert not check_ws_bound(fig2l, "x2", HALF, 3.9)
    assert check_ws_bound(fig2l, "x1", HALF, 1e12)


def test_eps_bound_examples():
    fig2l = fixture("FIG2L")
    gb = GenBound((0, 7), 1)
    assert check_eps_bound(fig2l, "x2", gb, 7)
    assert not check_eps_bound(fig2l, "x2", gb, 6)
    assert check_eps_bound(fixture("FIG2R"), "x2", GenBound((0, 4), 1), 4)
    # an infinite guarantee only verifies when every scenario meets the caps
    assert not check_eps_bound(fig2l, "x1", GenBound((0, 4), 1), INF)


def test_pb_trivial_bounds_examples():
    fig4 = fixture("FIG4")
    lo, hi, ok = pb_trivial_bounds(fig4, "x1")
    assert (lo, hi, ok) == ((1, 6), (4, 9), True)
    assert f_pb(fig4, "x1") == lo
    lo, hi, ok = pb_trivial_bounds(fig4, "x2")
    assert (lo, hi, ok) == ((5, 2), (8, 4), True)
    assert f_pb(fig4, "x2") == hi
    solo = make_instance("solo", 2, ["x"], ["u"], {"x": {"u": [(3, 4)]}})
    lo, hi, _ = pb_trivial_bounds(solo, "x")
    assert lo == hi == f_pb(solo, "x") == (3, 4)


def test_genbound_validation():
    with pytest.raises(ValueError, match="1..2"):
        GenBound((1, 2), 3)
    with pytest.raises(ValueError, match="1..2"):
        GenBound((1, 2), 0)
    with pytest.raises(ValueError, match="NaN"):
        GenBound((math.nan, 2), 1)
    # bool is an int subclass; True would otherwise pass as index 1
    for j in (True, False):
        with pytest.raises(ValueError, match=f"got {j}$"):
            GenBound((0.0, 5.0), j)
    with pytest.raises(ValueError, match="strict/plain"):
        ws_efficient_set(fixture("FIG2L"), HALF, Strictness.WEAK)


@given(instances)
def test_guarantees_satisfy_their_bounds(inst):
    lam = Weight(tuple(1.0 / inst.n for _ in range(inst.n)))
    for x, g in ws_efficient_set(inst, lam, Strictness.PLAIN).guarantees.items():
        assert check_ws_bound(inst, x, lam, g)
    gb = GenBound(tuple(12.0 for _ in range(inst.n)), 1)
    for x, g in eps_efficient_set(inst, gb, Strictness.PLAIN).guarantees.items():
        if g < INF:
            assert check_eps_bound(inst, x, gb, g)


@given(instances)
def test_unit_weights_reduce_to_point_based_components(inst):
    for x in inst.decisions:
        pb = f_pb(inst, x)
        for i in range(inst.n):
            e = Weight(tuple(1.0 if k == i else 0.0 for k in range(inst.n)))
            assert f_lambda(inst, x, e) == pb[i]


@given(instances)
def test_eps_value_monotone_in_caps(inst):
    tight = GenBound(tuple(8.0 for _ in range(inst.n)), 1)
    loose = GenBound(tuple(14.0 for _ in range(inst.n)), 1)
    for x in inst.decisions:
        assert f_eps_j(inst, x, loose) <= f_eps_j(inst, x, tight)


@given(instances)
def test_pb_sandwich_always_holds(inst):
    for x in inst.decisions:
        assert pb_trivial_bounds(inst, x)[2]


def test_bitwise_oracle_agreement_small():
    rng = random.Random(2024)
    tol0 = Tolerance(0.0)
    for _ in range(20):
        cfg = GenConfig(seed=rng.randrange(2**32), n=rng.randint(2, 3),
                        nx=rng.randint(2, 4), nu=rng.randint(1, 3),
                        ny=rng.randint(1, 6), jitter=0.25 if rng.random() < 0.5 else 0.0)
        inst = generate(cfg)
        raw = tuple(rng.uniform(0.1, 1.0) for _ in range(inst.n))
        lam = Weight(tuple(c / math.fsum(raw) for c in raw))
        gb = GenBound(tuple(float(rng.randint(4, 18)) for _ in range(inst.n)),
                      rng.randint(1, inst.n))
        for x in inst.decisions:
            assert f_lambda(inst, x, lam) == brute_f_lambda(inst, x, lam.values)
            assert f_eps_j(inst, x, gb, tol0) == brute_f_eps_j(inst, x, gb.eps, gb.j)
            assert f_pb(inst, x) == brute_f_pb(inst, x)


def _assert_front_reads_match_all_points(inst, tau, data):
    """The minima and bound checks read the exact front; the all-point
    oracles must give the same floats (by repr, so a signed zero shows) and
    the same booleans at and around each value."""
    tol = Tolerance(tau)
    slacks = (0.0, tau, -tau, 2 * tau, -2 * tau)
    # the grid holds the unit vectors and, for two objectives, (0.5, 0.5)
    for w in simplex_grid(inst.n, 4):
        lam = Weight(w)
        assert repr(image_ws(inst, lam, tol)) == repr(brute_image_ws(inst, w, tau))
        for x in inst.decisions:
            v = f_lambda(inst, x, lam)
            assert repr(v) == repr(brute_f_lambda(inst, x, w))
            for d in slacks:
                assert (check_ws_bound(inst, x, lam, v + d, tol)
                        == brute_check_ws_bound(inst, x, w, v + d, tau))
    pool = sorted({p for pts in inst.recourse.values() for p in pts})
    corner = data.draw(st.sampled_from(pool))
    shift = data.draw(st.sampled_from(slacks))
    gb = GenBound(tuple(c + shift for c in corner), data.draw(st.integers(1, inst.n)))
    for x in inst.decisions:
        assert repr(f_pb(inst, x)) == repr(brute_f_pb(inst, x))
        v = f_eps_j(inst, x, gb, tol)
        assert repr(v) == repr(brute_f_eps_j(inst, x, gb.eps, gb.j, tau))
        for d in slacks:
            assert (check_eps_bound(inst, x, gb, v + d, tol)
                    == brute_check_eps_bound(inst, x, gb.eps, gb.j, v + d, tau))


@pytest.mark.parametrize("tau", [0.0, 1e-9])
@given(inst=instances, data=st.data())
def test_front_reads_match_all_points_on_generated_instances(tau, inst, data):
    _assert_front_reads_match_all_points(inst, tau, data)


@pytest.mark.parametrize("tau", [0.0, 1e-9])
@given(data=st.data())
def test_front_reads_match_all_points_on_near_ties(tau, data):
    _assert_front_reads_match_all_points(data.draw(near_tie_instances(tau)), tau, data)


def test_signed_zero_values_do_not_depend_on_point_order():
    gb = GenBound((0.0, 2.0), 1)
    for pts in ([(-0.0, 1.0), (0.0, 0.5)], [(0.0, 0.5), (-0.0, 1.0)]):
        doc = json.dumps({"name": "z", "n": 2, "decisions": ["x"], "scenarios": ["u"],
                          "recourse": {"x": {"u": pts}}})
        for inst in (make_instance("z", 2, ["x"], ["u"], {"x": {"u": pts}}),
                     load_instance(doc),
                     Instance("z", 2, ("x",), ("u",), {("x", "u"): tuple(pts)})):
            assert repr(f_pb(inst, "x")) == "(0.0, 0.5)"
            assert repr(f_eps_j(inst, "x", gb)) == "0.0"


def _memo_instance():
    return make_instance("memo", 2, ["x1", "x2"], ["u1", "u2"], {
        "x1": {"u1": [(1.0, 5.0), (0.0, 5.3)], "u2": [(0.5, 1.0)]},
        "x2": {"u1": [(3.0, 0.0)], "u2": [(0.5, 4.0), (1.5, 2.0)]},
    })


def test_memoized_values_match_a_fresh_instance():
    # calls that differ in one argument only share an instance, so a memo
    # key missing that argument would return the other call's value
    calls = [
        (f_eps_j, "x1", GenBound((0.0, 5.0), 1), Tolerance(0.0)),
        (f_eps_j, "x1", GenBound((0.0, 5.0), 1), Tolerance(0.5)),
        (f_eps_j, "x1", GenBound((0.0, 5.4), 1), Tolerance(0.0)),
        (f_eps_j, "x1", GenBound((0.0, 5.0), 2), Tolerance(0.0)),
        (f_eps_j, "x2", GenBound((0.0, 5.0), 1), Tolerance(0.0)),
        (f_lambda, "x1", Weight((1.0, 0.0))),
        (f_lambda, "x1", Weight((0.0, 1.0))),
        (f_lambda, "x2", Weight((0.0, 1.0))),
        (f_pb, "x1"),
        (f_pb, "x2"),
    ]
    shared = _memo_instance()
    got = [fn(shared, *args) for fn, *args in calls]
    assert got == [fn(_memo_instance(), *args) for fn, *args in calls]
    assert got == [1.0, 0.5, 0.5, INF, 3.0, 0.5, 5.0, 2.0, (0.5, 5.0), (3.0, 2.0)]
    assert got == [fn(shared, *args) for fn, *args in calls]


def test_memoized_values_raise_again():
    shared = _memo_instance()
    bad = [
        (f_lambda, "x1", Weight((0.5, 0.25, 0.25))),
        (f_lambda, "x9", HALF),
        (f_eps_j, "x1", GenBound((0.0, 5.0, 1.0), 1)),
        (f_eps_j, "x9", GenBound((0.0, 5.0), 1)),
        (f_pb, "x9"),
    ]
    for _ in range(2):
        for fn, *args in bad:
            with pytest.raises(InstanceError):
                fn(shared, *args)
