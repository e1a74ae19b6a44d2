"""Three-stage and two-stage efficiency checkers, the nesting set, witnesses."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from maro import (
    GenConfig,
    InstanceError,
    Kind,
    SetRelFamily,
    SetRelSpec,
    Strictness,
    Tolerance,
    Weight,
    f_lambda,
    fixture,
    generate,
    inner_efficient,
    make_instance,
    maro_efficient,
    mro_efficient,
    set_cmp,
    smaro_set,
)
from maro import efficiency

from conftest import (instances, near_tie_instances, point_sets, record_stores,
                      singleton_instances, weights)
from oracles import brute_maro_verdict, brute_mro_verdict, dot, tol_front

LOWER = SetRelSpec(SetRelFamily.LOWER)
UPPER = SetRelSpec(SetRelFamily.UPPER)

MARO_COMBOS = [(Kind.FLIMSY, Strictness.STRICT), (Kind.FLIMSY, Strictness.WEAK),
               (Kind.HIGHLY, Strictness.STRICT), (Kind.HIGHLY, Strictness.WEAK),
               (Kind.MULTI_SCENARIO, Strictness.STRICT)]
MRO_COMBOS = [(kind, s) for kind in Kind for s in Strictness
              if (kind, s) != (Kind.MULTI_SCENARIO, Strictness.WEAK)]

SINGLETON = make_instance("solo", 2, ["x"], ["u"], {"x": {"u": [(0, 0)]}})


def test_fig2_left_multi_scenario_both_efficient():
    inst = fixture("FIG2L")
    for x in ("x1", "x2"):
        v = maro_efficient(inst, x, Kind.MULTI_SCENARIO, Strictness.STRICT, LOWER)
        assert v.efficient and v.witness is None


def test_fig2_right_x1_dominated_by_x2():
    inst = fixture("FIG2R")
    v = maro_efficient(inst, "x1", Kind.MULTI_SCENARIO, Strictness.STRICT, LOWER)
    assert not v.efficient
    assert v.witness.xprime == "x2"
    assert dict(v.witness.scenario_map) == {"u1": "x2", "u2": "x2"}
    assert maro_efficient(inst, "x2", Kind.MULTI_SCENARIO, Strictness.STRICT, LOWER).efficient


def test_single_decision_is_always_efficient():
    specs = [UPPER, LOWER, SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=(0.5, 0.5))]
    for spec in specs:
        for kind, s in MARO_COMBOS:
            assert maro_efficient(SINGLETON, "x", kind, s, spec).efficient


def test_unsupported_combinations_rejected():
    inst = fixture("FIG2L")
    with pytest.raises(ValueError, match="weak multi-scenario"):
        maro_efficient(inst, "x1", Kind.MULTI_SCENARIO, Strictness.WEAK, LOWER)
    with pytest.raises(ValueError, match="strict/weak"):
        maro_efficient(inst, "x1", Kind.FLIMSY, Strictness.PLAIN, LOWER)
    with pytest.raises(ValueError, match="vector notion"):
        maro_efficient(inst, "x1", Kind.POINT_BASED, Strictness.STRICT, LOWER)
    with pytest.raises(InstanceError, match="unknown decision"):
        maro_efficient(inst, "x9", Kind.FLIMSY, Strictness.STRICT, LOWER)
    with pytest.raises(ValueError, match="weak multi-scenario"):
        mro_efficient(fixture("FIG2R"), "x1", Kind.MULTI_SCENARIO, Strictness.WEAK)
    for lam in ((1.0,), (1.0, 1.0, 1.0)):
        spec = SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=lam)
        for target in (inst, SINGLETON):
            x = target.decisions[0]
            # the table's one refusal, which the weighted-sum concept shares
            with pytest.raises(InstanceError, match=f"weight vector has length {len(lam)}"):
                maro_efficient(target, x, Kind.FLIMSY, Strictness.STRICT, spec)


def test_fig2_left_smaro_keeps_only_x2():
    res = smaro_set(fixture("FIG2L"))
    assert res.decisions == ("x2",)
    assert set(res.front.points) == {(4, 4), (7, 3), (2, 6)}


def test_fig2_right_smaro_contains_x1():
    # the nesting set keeps x1 although x2 beats it in every scenario
    res = smaro_set(fixture("FIG2R"))
    assert res.decisions == ("x1", "x2")
    assert (3.0, 7.0) in res.front.points


def test_smaro_singleton():
    res = smaro_set(SINGLETON)
    assert res.decisions == ("x",)
    assert res.front.points == ((0.0, 0.0),)


def test_mro_point_based_example():
    inst = fixture("FIG2L")
    assert mro_efficient(inst, "x2", Kind.POINT_BASED, Strictness.PLAIN).efficient
    v = mro_efficient(inst, "x1", Kind.POINT_BASED, Strictness.PLAIN)
    assert not v.efficient and v.witness.xprime == "x2"


def test_mro_multi_scenario_example():
    v = mro_efficient(fixture("FIG2R"), "x1", Kind.MULTI_SCENARIO, Strictness.STRICT)
    assert not v.efficient and v.witness.xprime == "x2"


def test_mro_requires_singleton_recourse():
    with pytest.raises(InstanceError, match="singleton recourse"):
        mro_efficient(fixture("FIG4"), "x1", Kind.POINT_BASED, Strictness.PLAIN)


def test_mro_singleton_instance_efficient_everywhere():
    for kind, s in MRO_COMBOS:
        assert mro_efficient(SINGLETON, "x", kind, s).efficient


@given(instances)
def test_implication_chain(inst):
    spec = LOWER
    for x in inst.decisions:
        sf = maro_efficient(inst, x, Kind.FLIMSY, Strictness.STRICT, spec).efficient
        wf = maro_efficient(inst, x, Kind.FLIMSY, Strictness.WEAK, spec).efficient
        sh = maro_efficient(inst, x, Kind.HIGHLY, Strictness.STRICT, spec).efficient
        wh = maro_efficient(inst, x, Kind.HIGHLY, Strictness.WEAK, spec).efficient
        sm = maro_efficient(inst, x, Kind.MULTI_SCENARIO, Strictness.STRICT, spec).efficient
        assert not sf or wf
        assert not sh or wh
        assert not sh or sf
        assert not wh or wf
        assert not sh or sm


@given(instances)
def test_negative_witnesses_replay(inst):
    for x in inst.decisions:
        for kind, s in [(Kind.FLIMSY, Strictness.STRICT), (Kind.HIGHLY, Strictness.WEAK),
                        (Kind.MULTI_SCENARIO, Strictness.STRICT)]:
            v = maro_efficient(inst, x, kind, s, UPPER)
            if v.efficient:
                continue
            for u, xp in v.witness.scenario_map:
                assert set_cmp(inner_efficient(inst, xp, u).points,
                               inner_efficient(inst, x, u).points, UPPER,
                               strict=s is Strictness.WEAK)
            if kind is Kind.FLIMSY:
                assert len(v.witness.scenario_map) == len(inst.scenarios)


@given(singleton_instances)
def test_singleton_recourse_reduces_to_two_stage(inst):
    for x in inst.decisions:
        for kind, s in MARO_COMBOS:
            two_stage = mro_efficient(inst, x, kind, s).efficient
            for spec in (UPPER, LOWER):
                assert maro_efficient(inst, x, kind, s, spec).efficient == two_stage
            # the weighted-minimum relation is coarser: efficiency under it
            # implies the vector notion, never the reverse
            lam = SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=(0.5, 0.5))
            if maro_efficient(inst, x, kind, s, lam).efficient:
                assert two_stage


def test_identical_decisions_break_strict_notions():
    inst = make_instance(
        "twins", 2, ["a", "b"], ["u"],
        {"a": {"u": [(1, 2)]}, "b": {"u": [(1, 2)]}},
    )
    for x in ("a", "b"):
        assert not maro_efficient(inst, x, Kind.MULTI_SCENARIO, Strictness.STRICT, LOWER).efficient
        assert not maro_efficient(inst, x, Kind.FLIMSY, Strictness.STRICT, LOWER).efficient
        # the strict set relation is irreflexive, so weak notions survive ties
        assert maro_efficient(inst, x, Kind.FLIMSY, Strictness.WEAK, LOWER).efficient


VERDICT_INSTANCES = {
    "generated": lambda tau: instances,
    "singleton": lambda tau: singleton_instances,
    "near-tie": near_tie_instances,
    "near-tie-singleton": lambda tau: near_tie_instances(tau, max_size=1),
}


def _outcome(v):
    if v.efficient:
        return (True, None, None)
    return (False, v.witness.xprime, v.witness.scenario_map)


@pytest.mark.parametrize("tau", (0.0, 1e-9))
@pytest.mark.parametrize("source", sorted(VERDICT_INSTANCES))
@given(data=st.data())
def test_verdicts_and_witnesses_match_oracles(source, tau, data):
    inst = data.draw(VERDICT_INSTANCES[source](tau))
    tol = Tolerance(tau)
    lam = tuple(1.0 / inst.n for _ in range(inst.n))
    singleton = all(len(pts) == 1 for pts in inst.recourse.values())
    for x in inst.decisions:
        for family, w in (("u", None), ("l", None), ("lmin", lam)):
            spec = SetRelSpec(SetRelFamily(family), lam=w)
            for kind, s in MARO_COMBOS:
                assert _outcome(maro_efficient(inst, x, kind, s, spec, tol)) == \
                    brute_maro_verdict(inst, x, kind.value, s.value, family, w, tau)
        for kind, s in MRO_COMBOS if singleton else ():
            assert _outcome(mro_efficient(inst, x, kind, s, tol)) == \
                brute_mro_verdict(inst, x, kind.value, s.value, tau)


@pytest.mark.parametrize("tau", (0.0, 1e-9))
@pytest.mark.parametrize("source", ["generated", "near-tie"])
@given(data=st.data())
def test_front_reduced_instance_keeps_every_verdict(source, tau, data):
    # the tau-front is idempotent: a kept point is tau-equal to no other
    # kept point, so replacing each image by its front moves no verdict
    inst = data.draw(VERDICT_INSTANCES[source](tau))
    tol = Tolerance(tau)
    reduced = make_instance(inst.name + "-fronts", inst.n, inst.decisions, inst.scenarios, {
        (x, u): inner_efficient(inst, x, u, tol).points
        for x in inst.decisions for u in inst.scenarios
    })
    lam = tuple(1.0 / inst.n for _ in range(inst.n))
    for x in inst.decisions:
        for family, w in (("u", None), ("l", None), ("lmin", lam)):
            spec = SetRelSpec(SetRelFamily(family), lam=w)
            for kind, s in MARO_COMBOS:
                assert maro_efficient(reduced, x, kind, s, spec, tol) == \
                    maro_efficient(inst, x, kind, s, spec, tol)


EXACT = Tolerance(0.0)


def _specs(n):
    return (UPPER, LOWER, SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=tuple(1.0 / n for _ in range(n))))


@given(inst=instances, data=st.data())
def test_scenario_order_and_copies_change_no_verdict(inst, data):
    # integer instances at tau = 0.  A flimsy or multi-scenario witness
    # names every scenario, so its pairs compare as a set; a highly witness
    # names the first dominated scenario in document order
    order = data.draw(st.permutations(inst.scenarios))
    copied = data.draw(st.sampled_from(inst.scenarios))
    extra = copied + "-copy"
    permuted = make_instance(inst.name, inst.n, inst.decisions, order, dict(inst.recourse))
    doubled = make_instance(inst.name, inst.n, inst.decisions, inst.scenarios + (extra,), {
        **inst.recourse, **{(x, extra): inst.recourse[(x, copied)] for x in inst.decisions}})
    for x in inst.decisions:
        for spec in _specs(inst.n):
            for kind, s in MARO_COMBOS:
                v, p, d = (maro_efficient(i, x, kind, s, spec, EXACT)
                           for i in (inst, permuted, doubled))
                assert v.efficient == p.efficient == d.efficient
                if v.efficient:
                    continue
                pairs = set(v.witness.scenario_map)
                if kind is Kind.HIGHLY:
                    # the copy comes last, so the first dominated scenario stays
                    assert d.witness == v.witness
                    (u, xp), = p.witness.scenario_map
                    assert set_cmp(inner_efficient(inst, xp, u, EXACT).points,
                                   inner_efficient(inst, x, u, EXACT).points,
                                   spec, EXACT, s is Strictness.WEAK)
                else:
                    assert set(p.witness.scenario_map) == pairs
                    assert set(d.witness.scenario_map) == pairs | {(extra, dict(pairs)[copied])}


@given(inst=instances, data=st.data())
def test_order_preserving_renaming_changes_only_names(inst, data):
    # competitors are scanned in lexicographic order, so a renaming that
    # keeps that order maps every verdict and witness name for name
    new = data.draw(st.lists(st.text("abxy019", min_size=1, max_size=3), unique=True,
                             min_size=len(inst.decisions), max_size=len(inst.decisions)))
    name = dict(zip(sorted(inst.decisions), sorted(new)))
    renamed = make_instance(inst.name, inst.n, [name[x] for x in inst.decisions],
                            inst.scenarios,
                            {(name[x], u): pts for (x, u), pts in inst.recourse.items()})
    for x in inst.decisions:
        for spec in _specs(inst.n):
            for kind, s in MARO_COMBOS:
                v = maro_efficient(inst, x, kind, s, spec, EXACT)
                r = maro_efficient(renamed, name[x], kind, s, spec, EXACT)
                assert r.efficient == v.efficient
                if not v.efficient:
                    assert r.witness == efficiency.Witness(
                        name[v.witness.xprime],
                        tuple((u, name[xp]) for u, xp in v.witness.scenario_map))


def _lmin(lam):
    return SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=lam)


POWERS_OF_TWO = st.sampled_from((-3, -1, 1, 2, 5)).map(lambda k: 2.0**k)


@given(inst=instances, data=st.data())
def test_scaling_an_objective_by_a_power_of_two_changes_no_verdict(inst, data):
    # integer instances at tau = 0, where scaling by a power of two is
    # exact: the upper and lower relations compare coordinate by coordinate,
    # and a lambda-min relation whose weight on that objective is divided
    # by the same power sees the same weighted sums
    i = data.draw(st.integers(0, inst.n - 1), label="objective")
    f = data.draw(POWERS_OF_TWO, label="factor")
    lam = data.draw(weights(inst.n), label="lam")
    scaled = make_instance(inst.name, inst.n, inst.decisions, inst.scenarios, {
        key: tuple(tuple(c * f if j == i else c for j, c in enumerate(p)) for p in pts)
        for key, pts in inst.recourse.items()})
    back = tuple(c / f if j == i else c for j, c in enumerate(lam))
    for x in inst.decisions:
        for spec, spec_scaled in ((UPPER, UPPER), (LOWER, LOWER), (_lmin(lam), _lmin(back))):
            for kind, s in MARO_COMBOS:
                assert maro_efficient(scaled, x, kind, s, spec_scaled, EXACT) == \
                    maro_efficient(inst, x, kind, s, spec, EXACT)


@given(inst=instances, data=st.data())
def test_scaling_the_weights_by_a_power_of_two_changes_no_verdict(inst, data):
    # both weight vectors share one instance memo, keyed by the weights
    lam = data.draw(weights(inst.n), label="lam")
    f = data.draw(POWERS_OF_TWO, label="factor")
    for x in inst.decisions:
        for kind, s in MARO_COMBOS:
            assert maro_efficient(inst, x, kind, s, _lmin(tuple(c * f for c in lam)), EXACT) == \
                maro_efficient(inst, x, kind, s, _lmin(lam), EXACT)


@given(inst=instances, data=st.data())
def test_adding_a_decision_turns_no_negative_verdict_positive(inst, data):
    # integer instances at tau = 0: a dominator of x stays one when another
    # decision joins, wherever its name sorts among the competitors
    new = data.draw(st.sampled_from(("a", "x0", "x15", "zz")), label="name")
    sets = data.draw(st.lists(point_sets(inst.n), min_size=len(inst.scenarios),
                              max_size=len(inst.scenarios)), label="recourse")
    grown = make_instance(inst.name, inst.n, inst.decisions + (new,), inst.scenarios, {
        **inst.recourse, **{(new, u): pts for u, pts in zip(inst.scenarios, sets)}})
    for x in inst.decisions:
        for spec in _specs(inst.n):
            for kind, s in MARO_COMBOS:
                if not maro_efficient(inst, x, kind, s, spec, EXACT).efficient:
                    assert not maro_efficient(grown, x, kind, s, spec, EXACT).efficient


def test_lmin_verdicts_at_tau_zero_read_the_weighted_sum_minima():
    # the weighted-sum concept and the lambda-min relation read one memo
    # entry per decision and weight vector
    inst = generate(GenConfig(seed=11, n=2, nx=4, nu=3, ny=5))
    stored = record_stores(inst)
    lam = Weight((0.25, 0.75))
    for x in inst.decisions:
        f_lambda(inst, x, lam)
    filled = len(stored)
    spec = SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=lam.values)
    for x in inst.decisions:
        for kind, s in MARO_COMBOS:
            maro_efficient(inst, x, kind, s, spec, EXACT)
    assert {key[0] for key in stored[filled:]} == {"verdict"}


_NAN_SUM = r"recourse\.a\.u: point \(1e\+308, -1e\+308\) has a NaN weighted sum"


def test_lmin_verdict_refuses_a_nan_weighted_minimum():
    # an unnormalized weight overflows two products to opposite infinities;
    # a NaN sum would make the least sum depend on the order of the points
    spec = SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=(2.0, 2.0))
    for pts in ([(1e308, -1e308), (0.0, 5.0)], [(0.0, 5.0), (1e308, -1e308)]):
        inst = make_instance("nan", 2, ["a", "b"], ["u"], {"a": {"u": pts}, "b": {"u": [(0, 0)]}})
        for x in ("a", "b"):
            for kind, s in MARO_COMBOS:
                for _ in range(2):
                    with pytest.raises(ValueError, match=_NAN_SUM):
                        maro_efficient(inst, x, kind, s, spec)
                assert _outcome(maro_efficient(inst, x, kind, s, UPPER)) == \
                    brute_maro_verdict(inst, x, kind.value, s.value, "u", None, 1e-9)


_HUGE = st.sampled_from((-1.7e308, -1e308, -1.0, 0.0, 1.0, 1e308, 1.7e308))


def _huge_instances():
    """Two-objective instances with 2-3 decisions and 1-2 scenarios whose
    coordinates lie near +-1e308."""

    def build(shape):
        nx, nu = shape
        keys = [(f"x{i}", f"u{k}") for i in range(nx) for k in range(nu)]
        sets = st.lists(st.lists(st.tuples(_HUGE, _HUGE), min_size=1, max_size=3),
                        min_size=len(keys), max_size=len(keys))
        return sets.map(lambda ss: make_instance(
            "huge", 2, [f"x{i}" for i in range(nx)], [f"u{k}" for k in range(nu)],
            dict(zip(keys, ss))))

    return st.tuples(st.integers(2, 3), st.integers(1, 2)).flatmap(build)


@pytest.mark.parametrize("tau", (0.0, 1e-9))
@given(inst=_huge_instances(),
       lam=st.tuples(*[st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0))] * 2).filter(any))
def test_lmin_verdicts_near_overflow_match_oracles_or_refuse_nan(tau, inst, lam):
    # a decision whose tau-front has a NaN weighted sum is refused when its
    # table entry is read: always for x itself, and for a competitor when
    # the scan reaches it; every verdict that is given matches the oracle
    tol = Tolerance(tau)
    spec = SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=lam)
    nan_sum = {d: any(math.isnan(dot(lam, p)) for u in inst.scenarios
                      for p in tol_front(inst.recourse[(d, u)], "min", tau))
               for d in inst.decisions}
    for x in inst.decisions:
        for kind, s in MARO_COMBOS:
            try:
                got = maro_efficient(inst, x, kind, s, spec, tol)
            except ValueError as e:
                assert "NaN weighted sum" in str(e) and any(nan_sum.values())
                continue
            assert not nan_sum[x]
            assert _outcome(got) == brute_maro_verdict(inst, x, kind.value, s.value,
                                                       "lmin", lam, tau)


def test_mro_decides_without_set_relations(monkeypatch):
    # the singleton-coherence lemma compares mro_efficient with
    # maro_efficient, so the two-stage checker must not read set relations
    def forbidden(*args, **kwargs):
        raise AssertionError("mro_efficient reached a set relation")

    # maro_efficient compares the entries of the scenario tables with the
    # set-relation kernel directly
    for name in ("_set_leq", "_scenario_table", "maro_efficient"):
        monkeypatch.setattr(efficiency, name, forbidden)
    inst = make_instance("pair", 2, ["a", "b"], ["u", "v"], {
        "a": {"u": [(1, 2)], "v": [(3, 1)]}, "b": {"u": [(1, 2)], "v": [(2, 1)]},
    })
    for kind, s in MRO_COMBOS:
        mro_efficient(inst, "a", kind, s)
    v = mro_efficient(inst, "a", Kind.MULTI_SCENARIO, Strictness.PLAIN)
    assert v.witness == efficiency.Witness("b", (("u", "b"), ("v", "b")))


def _memo_instance():
    return make_instance("memo", 2, ["x1", "x2"], ["u1", "u2"], {
        "x1": {"u1": [(1.0, 1.0)], "u2": [(3.0, 0.0)]},
        "x2": {"u1": [(0.9, 0.95)], "u2": [(0.0, 3.0)]},
    })


def test_memoized_verdicts_match_a_fresh_instance():
    # calls that differ in one argument only share an instance, so a memo
    # key missing that argument would return the other call's verdict
    lmin_1 = SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=(1.0, 0.0))
    lmin_2 = SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=(0.0, 1.0))
    calls = [
        ("x1", Kind.HIGHLY, Strictness.WEAK, LOWER, 0.0),
        ("x1", Kind.HIGHLY, Strictness.WEAK, LOWER, 0.5),
        ("x1", Kind.HIGHLY, Strictness.STRICT, LOWER, 0.5),
        ("x1", Kind.FLIMSY, Strictness.WEAK, LOWER, 0.0),
        ("x2", Kind.HIGHLY, Strictness.WEAK, LOWER, 0.0),
        ("x1", Kind.FLIMSY, Strictness.STRICT, lmin_1, 0.0),
        ("x1", Kind.FLIMSY, Strictness.STRICT, lmin_2, 0.0),
    ]
    shared = _memo_instance()
    got = [maro_efficient(shared, x, kind, s, spec, Tolerance(tau))
           for x, kind, s, spec, tau in calls]
    assert got == [maro_efficient(_memo_instance(), x, kind, s, spec, Tolerance(tau))
                   for x, kind, s, spec, tau in calls]
    assert [v.efficient for v in got] == [False, True, False, True, True, False, True]


def test_memoized_verdicts_raise_again():
    shared = _memo_instance()
    bad = [
        ("x9", Kind.FLIMSY, Strictness.STRICT, LOWER, InstanceError),
        ("x1", Kind.FLIMSY, Strictness.PLAIN, LOWER, ValueError),
        ("x1", Kind.MULTI_SCENARIO, Strictness.WEAK, LOWER, ValueError),
        ("x1", Kind.FLIMSY, Strictness.STRICT,
         SetRelSpec(SetRelFamily.LAMBDA_MIN, lam=(1.0, 1.0, 1.0)), ValueError),
    ]
    for _ in range(2):
        for x, kind, s, spec, error in bad:
            with pytest.raises(error):
                maro_efficient(shared, x, kind, s, spec)
