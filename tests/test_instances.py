"""Instance model, JSON schema, tolerance policy, and built-in fixtures."""

import copy
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given

from maro import (
    FIXTURE_NAMES,
    Instance,
    InstanceError,
    Tolerance,
    Weight,
    check_instance,
    dump_instance,
    fixture,
    fixture_meta,
    image_ws,
    load_instance,
    make_instance,
)

from conftest import instances
from oracles import _tol_eq, _tol_leq, _tol_lt

FIG2L_DOC = """
{
  "name": "FIG2L", "n": 2,
  "decisions": ["x1", "x2"], "scenarios": ["u1", "u2", "u3"],
  "recourse": {
    "x1": {"u1": [[3, 7]], "u2": [[5, 5]], "u3": [[8, 4]]},
    "x2": {"u1": [[7, 3]], "u2": [[4, 4]], "u3": [[2, 6]]}
  }
}
"""


def test_load_fig2l_document():
    inst = load_instance(FIG2L_DOC)
    assert len(inst.decisions) == 2
    assert len(inst.scenarios) == 3
    assert inst.n == 2
    assert inst == fixture("FIG2L")
    assert inst.points("x1", "u1") == ((3.0, 7.0),)


def test_load_singleton_document():
    doc = {"name": "one", "n": 2, "decisions": ["x"], "scenarios": ["u"],
           "recourse": {"x": {"u": [[0, 0]]}}}
    inst = load_instance(json.dumps(doc))
    assert inst.points("x", "u") == ((0.0, 0.0),)


def test_empty_recourse_is_rejected_with_path():
    doc = json.loads(FIG2L_DOC)
    doc["recourse"]["x1"]["u2"] = []
    with pytest.raises(InstanceError, match=r"empty recourse set at \(x1,u2\)"):
        load_instance(json.dumps(doc))


@pytest.mark.parametrize("mutate,pattern", [
    (lambda d: d["recourse"]["x2"]["u1"].append([1, 2, 3]), r"recourse\.x2\.u1\[1\].*objectives"),
    (lambda d: d["decisions"].append("x1"), "duplicate identifier"),
    (lambda d: d["recourse"]["x1"].pop("u3"), r"missing recourse set at \(x1,u3\)"),
    (lambda d: d.update(n="2"), "must be an integer"),
    (lambda d: d.update(bogus=1), "unknown fields"),
    (lambda d: d["recourse"]["x1"]["u1"][0].__setitem__(0, "a"), "must be numbers"),
    (lambda d: d["recourse"].update(x9={"u1": [[1, 1]]}), "not a declared decision"),
])
def test_schema_violations_carry_paths(mutate, pattern):
    doc = json.loads(FIG2L_DOC)
    mutate(doc)
    with pytest.raises(InstanceError, match=pattern):
        load_instance(json.dumps(doc))


@pytest.mark.parametrize("mutate,message", [
    # the shape is sound, so the instance rule on n comes first, before the
    # point of the wrong length
    (lambda d: (d.update(n=-1), d["recourse"]["x1"].update(u1=[[1]])),
     "n: objective count must be a positive integer, got -1"),
    # a shape error anywhere comes before an instance rule (the empty set)
    (lambda d: (d["recourse"]["x1"].update(u1=[]), d["recourse"]["x2"].update(u1=[[1, "a"]])),
     "recourse.x2.u1[0]: coordinates must be numbers, got 'a'"),
])
def test_shape_errors_come_before_instance_rules(mutate, message):
    doc = json.loads(FIG2L_DOC)
    mutate(doc)
    with pytest.raises(InstanceError) as err:
        load_instance(json.dumps(doc))
    assert str(err.value) == message


def test_not_json_is_reported():
    with pytest.raises(InstanceError, match="not valid JSON"):
        load_instance("{nope")


def test_non_finite_entry_rejected():
    with pytest.raises(InstanceError, match="non-finite"):
        make_instance("bad", 2, ["x"], ["u"], {"x": {"u": [(1.0, math.inf)]}})


def test_unknown_identifier_lookup():
    inst = fixture("FIG2L")
    # an unknown decision wins over an unknown scenario
    for x, u, message in (("x9", "u1", "unknown decision 'x9'"),
                          ("x1", "u9", "unknown scenario 'u9'"),
                          ("x9", "u9", "unknown decision 'x9'")):
        with pytest.raises(InstanceError) as err:
            inst.points(x, u)
        assert str(err.value) == message


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trip(name):
    inst = fixture(name)
    again = load_instance(dump_instance(inst))
    assert again == inst


@given(instances)
def test_generated_round_trip(inst):
    assert load_instance(dump_instance(inst)) == inst


def test_seventeen_digit_serialization():
    inst = make_instance("frac", 2, ["x"], ["u"], {"x": {"u": [(0.1, 2 / 3)]}})
    again = load_instance(dump_instance(inst))
    assert again.points("x", "u") == ((0.1, 2 / 3),)
    assert "0.1000000000000000" in dump_instance(inst)


def test_fixture_coordinates_match_figures():
    assert fixture("FIG2R").points("x2", "u1") == ((2.0, 2.0),)
    fig4 = fixture("FIG4")
    assert fig4.points("x1", "u1") == fig4.points("x1", "u2")
    assert fig4.points("x1", "u1") == ((1.0, 9.0), (2.0, 8.0), (3.0, 7.0), (4.0, 6.0))
    assert fixture("FIG5").points("x3", "u2") == ((8.0, 3.0), (9.0, 2.0))
    assert fixture("FIG5").points("x1", "u1") == ((0.0, 10.0), (1.0, 9.0))


def test_sampled_flags():
    for name in FIXTURE_NAMES:
        assert fixture(name).sampled == fixture_meta(name)["sampled"]
    assert fixture("FIG4").sampled is False
    assert fixture("FIG3S").sampled is True
    # sampled flag survives serialization
    f3 = fixture("FIG3S")
    assert load_instance(dump_instance(f3)).sampled is True


def test_fig3s_sampling_density():
    f3 = fixture("FIG3S")
    assert len(f3.points("x1", "u1")) >= 50
    assert len(f3.points("x1", "u2")) >= 50
    assert f3.decisions == ("x1",)


def test_unknown_fixture():
    with pytest.raises(InstanceError, match="unknown fixture") as built:
        fixture("FIG9")
    with pytest.raises(InstanceError, match="unknown fixture") as meta:
        fixture_meta("FIG9")
    assert str(meta.value) == str(built.value)


def test_fig6_meta_has_frozen_witnesses():
    for name in ("FIG6L", "FIG6R"):
        sep = fixture_meta(name)["separation"]
        assert set(sep) >= {"lambda", "eps", "j", "x", "eps_efficient", "ws_efficient"}
    assert fixture_meta("FIG6L")["separation"]["eps_efficient"] is True
    assert fixture_meta("FIG6R")["separation"]["ws_efficient"] is True


def test_tolerance_policy():
    tol = Tolerance(1e-6)
    assert tol.leq(1.0, 1.0 - 5e-7)
    assert not tol.leq(1.0, 1.0 - 5e-6)
    assert tol.lt(1.0, 1.0 + 5e-6)
    assert not tol.lt(1.0, 1.0 + 5e-7)
    assert tol.eq(1.0, 1.0 + 5e-7)
    # infinities compare exactly, never within slack
    assert tol.leq(-math.inf, 5.0) and tol.leq(5.0, math.inf)
    assert tol.eq(math.inf, math.inf) and not tol.lt(math.inf, math.inf)
    assert not tol.eq(math.inf, 1e300)
    with pytest.raises(ValueError):
        Tolerance(-1e-9)
    with pytest.raises(ValueError):
        Tolerance(math.inf)


@pytest.mark.parametrize("tau", [0.0, 1e-9, 0.5])
def test_tolerance_matches_finiteness_branch_oracle(tau):
    # the branch-free expressions against the rule written with an explicit
    # finite/non-finite branch, on near ties, infinities and NaN
    inf, nan = math.inf, math.nan
    values = [0.0, 1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 5e-10, 1.5, 0.5, -1.0,
              1e12, 1e308, -1e308, 5e-324, inf, -inf, nan]
    tol = Tolerance(tau)
    for a in values:
        for b in values:
            assert tol.leq(a, b) == _tol_leq(a, b, tau), (a, b)
            assert tol.lt(a, b) == _tol_lt(a, b, tau), (a, b)
            assert tol.eq(a, b) == _tol_eq(a, b, tau), (a, b)


def test_instance_requires_nonempty_axes():
    with pytest.raises(InstanceError, match="decisions"):
        Instance("z", 2, (), ("u",), {})
    with pytest.raises(InstanceError, match="scenarios"):
        Instance("z", 2, ("x",), (), {})


def test_instance_refuses_unexpected_recourse_keys():
    with pytest.raises(InstanceError) as err:
        Instance("a", 1, ("x",), ("u",), {("x", "u"): ((1.0,),), ("y", "u"): ((1.0,),)})
    assert str(err.value) == "recourse: unexpected keys [('y', 'u')]"


@pytest.mark.parametrize("n", [True, False, 1.9])
def test_instance_refuses_a_boolean_objective_count(n):
    # bool is an int subclass; True would otherwise pass and be dumped as
    # "n": True, which is not JSON.  make_instance passes n through, so it
    # refuses what Instance refuses rather than building n=1.
    message = f"n: objective count must be a positive integer, got {n}"
    with pytest.raises(InstanceError) as err:
        Instance("a", n, ("x",), ("u",), {("x", "u"): ((1.0,),)})
    assert str(err.value) == message
    with pytest.raises(InstanceError) as err:
        make_instance("t", n, ["x"], ["u"], {"x": {"u": [(1,)]}})
    assert str(err.value) == message


@pytest.mark.parametrize("sampled", ["false", 1, None])
def test_instance_refuses_a_non_boolean_sampled_flag(sampled):
    # dump_instance would write "sampled": true for any truthy value, and
    # bool("false") is True, so make_instance passes the flag through
    for build in (lambda: Instance("a", 1, ("x",), ("u",), {("x", "u"): ((1.0,),)}, sampled),
                  lambda: make_instance("t", 1, ["x"], ["u"], {"x": {"u": [(1,)]}}, sampled)):
        with pytest.raises(InstanceError) as err:
            build()
        assert str(err.value) == "sampled: must be a boolean"


def test_recourse_is_read_only():
    raw = {("x", "u"): ((1.0, 2.0),)}
    inst = Instance("ro", 2, ("x",), ("u",), raw)
    with pytest.raises(TypeError):
        inst.recourse[("x", "u")] = ((0.0, 0.0),)
    # the instance keeps its own copy of the caller's mapping
    raw[("x", "u")] = ((0.0, 0.0),)
    assert inst.points("x", "u") == ((1.0, 2.0),)
    copy = dict(inst.recourse)
    assert copy == {("x", "u"): ((1.0, 2.0),)}
    assert Instance("ro", 2, ("x",), ("u",), copy) == inst
    # list points are copied into tuples: hashable for the memoized values,
    # and out of reach of the caller's lists
    raw = {("x", "u"): [[1.0, 2.0]], ("y", "u"): [[2.0, 1.0]]}
    inst = Instance("t", 2, ("x", "y"), ("u",), raw)
    raw[("x", "u")][0][0] = -5.0
    assert inst.points("x", "u") == ((1.0, 2.0),)
    with pytest.raises(TypeError):
        inst.recourse[("x", "u")][0][0] = -5.0
    assert image_ws(inst, Weight((0.5, 0.5))) == ((1.0, 2.0), (2.0, 1.0))
    assert not check_instance(inst, ["note_weak_flimsy_via_mco"])[
        "note_weak_flimsy_via_mco"].violations


def test_instance_pickles_and_copies():
    inst = fixture("FIG5")
    inst.points("x1", "u1")
    for other in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst), copy.copy(inst)):
        assert other == inst and other.recourse is not inst.recourse
        with pytest.raises(TypeError):
            other.recourse[("x1", "u1")] = ((0.0, 0.0),)


@pytest.mark.parametrize("pts,message", [
    ([("a", "b")], "recourse.x.u[0]: coordinate must be a real number, got 'a'"),
    ([(1.0, None)], "recourse.x.u[0]: coordinate must be a real number, got None"),
    ([(1.0, 2.0), (True, 1.0)],
     "recourse.x.u[1]: coordinate must be a real number, not a boolean, got True"),
    ([(10**400, 1.0)], "recourse.x.u[0]: coordinate too large for a float"),
    ([(1.0, 2.0), 5], "recourse.x.u[1]: point must be a sequence of numbers, got 5"),
    (5, "recourse.x.u: recourse set must be a sequence of points, got 5"),
], ids=["string", "none", "boolean", "huge-int", "scalar-point", "scalar-set"])
def test_constructors_refuse_malformed_points_with_their_path(pts, message):
    # make_instance converts only what the coordinate rule accepts, so
    # both constructors report the same path and message
    for build in (lambda: Instance("a", 2, ("x",), ("u",), {("x", "u"): pts}),
                  lambda: make_instance("a", 2, ["x"], ["u"], {"x": {"u": pts}})):
        with pytest.raises(InstanceError) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize("pts,message", [
    ([{7.0, 5.0}], "recourse.x.u[0]: point must be an ordered sequence of numbers, got a set"),
    ([(1.0, 2.0), {5.0: "a", 7.0: "b"}],
     "recourse.x.u[1]: point must be an ordered sequence of numbers, got a dict"),
    ({(5.0, 7.0), (1.0, 2.0)},
     "recourse.x.u: recourse set must be an ordered sequence of points, got a set"),
], ids=["set-point", "dict-point", "set-of-points"])
def test_constructors_refuse_unordered_containers_with_their_path(pts, message):
    # a set or a dict would be stored in its iteration order, not the
    # caller's: a set point could swap the objectives
    for build in (lambda: Instance("a", 2, ("x",), ("u",), {("x", "u"): pts}),
                  lambda: make_instance("a", 2, ["x"], ["u"], {"x": {"u": pts}})):
        with pytest.raises(InstanceError) as err:
            build()
        assert str(err.value) == message


def test_constructors_accept_fractions():
    pts = ((Fraction(1, 3), 2),)
    assert Instance("a", 2, ("x",), ("u",), {("x", "u"): pts}).points("x", "u") == pts
    assert make_instance("a", 2, ["x"], ["u"], {"x": {"u": pts}}).points("x", "u") == (
        (1 / 3, 2.0),)
