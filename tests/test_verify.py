"""Instance generator, theorem/lemma checks, battery, and the comparison table."""

import pytest

from maro import (
    INF,
    FrontSet,
    GenBound,
    GenConfig,
    Kind,
    Orientation,
    SetRelFamily,
    Strictness,
    Tolerance,
    Weight,
    check_eps_bound,
    check_instance,
    check_ws_bound,
    compare_concepts,
    dump_instance,
    eps_efficient_set,
    fixture,
    fixture_meta,
    generate,
    load_instance,
    make_instance,
    mro_efficient,
    run_battery,
    simplex_grid,
    ws_efficient_set,
)
from maro.verify import ALL_CHECKS

from conftest import record_stores
from oracles import _tol_leq, _tol_lt, _tol_set_leq, dot, tol_contributors, tol_front

HALF = Weight((0.5, 0.5))


def test_generate_is_deterministic():
    cfg = GenConfig(seed=1, n=2, nx=2, nu=2, ny=2)
    a, b = generate(cfg), generate(cfg)
    assert a == b
    assert dump_instance(a) == dump_instance(b)
    assert len(a.decisions) == 2 and len(a.scenarios) == 2
    assert all(len(pts) == 2 for pts in a.recourse.values())


def test_generated_instances_round_trip():
    inst = generate(GenConfig(seed=7))
    assert load_instance(dump_instance(inst)) == inst


def test_singleton_recourse_config_feeds_two_stage_checks():
    inst = generate(GenConfig(seed=3, ny=1))
    verdict = mro_efficient(inst, inst.decisions[0], Kind.POINT_BASED, Strictness.PLAIN)
    assert verdict.efficient in (True, False)


def test_jittered_coordinates_stay_in_band():
    plain = generate(GenConfig(seed=5))
    noisy = generate(GenConfig(seed=5, jitter=0.25))
    for key in plain.recourse:
        for p, q in zip(plain.recourse[key], noisy.recourse[key]):
            assert all(float(c).is_integer() for c in p)
            assert all(qc - pc < 0.3 for pc, qc in zip(p, q)) or p != q


def test_config_range_validation():
    with pytest.raises(ValueError, match="nx"):
        GenConfig(seed=1, nx=7)
    with pytest.raises(ValueError, match="jitter"):
        GenConfig(seed=1, jitter=0.5)
    with pytest.raises(ValueError, match="n must"):
        GenConfig(seed=1, n=4)


def _check(inst, cid, **params):
    """The report of one check on one instance."""
    return check_instance(inst, [cid], **params)[cid]


def test_thm_ws_check_on_fig2l():
    rep = _check(fixture("FIG2L"), "thm_ws_implies_ms", lams=[HALF])
    assert rep.passed and rep.non_vacuous == 1


def test_thm_ws_check_vacuous_on_ties():
    twins = make_instance(
        "twins", 2, ["a", "b"], ["u"],
        {"a": {"u": [(1, 3)]}, "b": {"u": [(1, 3)]}},
    )
    rep = _check(twins, "thm_ws_implies_ms", lams=[HALF])
    assert rep.passed and rep.non_vacuous == 0


def test_thm_eps_switch_on_fig2r():
    rep = _check(fixture("FIG2R"), "thm_eps_switch", gb=GenBound((0, 4), 1))
    assert rep.passed and rep.non_vacuous == 1


def test_thm_eps_switch_vacuous_when_infeasible():
    rep = _check(fixture("FIG2L"), "thm_eps_switch", gb=GenBound((0, 4), 1))
    assert rep.passed and rep.non_vacuous == 0


def test_thm_eps_implies_ms_lower_on_fig2r():
    rep = _check(fixture("FIG2R"), "thm_eps_implies_ms_lower", gb=GenBound((0, 4), 1))
    assert rep.passed and rep.non_vacuous == 1


def test_thm_eps_implies_ms_lower_vacuous_when_strict_set_empty():
    twins = make_instance(
        "twins", 2, ["a", "b"], ["u"],
        {"a": {"u": [(1, 3)]}, "b": {"u": [(1, 3)]}},
    )
    rep = _check(twins, "thm_eps_implies_ms_lower", gb=GenBound((9, 9), 1))
    assert rep.passed and rep.non_vacuous == 0


def test_lemma_battery_on_fixtures():
    for name in ("FIG2L", "FIG2R", "FIG4", "FIG5"):
        inst = fixture(name)
        gb = GenBound(tuple(8.0 for _ in range(inst.n)), 1)
        eps_list = [(0.0, 5.0), (0.0, 7.0), (9.0, 9.0)]
        reports = check_instance(inst, list(ALL_CHECKS), [HALF], gb, eps_list)
        assert list(reports) == list(ALL_CHECKS)
        for rep in reports.values():
            assert rep.passed, (name, rep.check_id, rep.violations)


# check id -> the battery parameters it reads
CHECK_PARAMS = {
    "thm_ws_implies_ms": {"lams"},
    "thm_eps_switch": {"gb"},
    "thm_eps_implies_ms_lower": {"gb"},
    "lemma_eps_image_weakly_nondominated": {"eps_list"},
    "remark_ws_bound": {"lams"},
    "remark_eps_bound": {"gb"},
    "front_reduction_invariance": {"lams", "gb"},
    "eps_value_monotone": {"gb"},
}


def test_check_instance_refuses_a_missing_parameter():
    # a check never runs without a parameter it reads: it would raise deep
    # inside, or pass with no cases
    inst = fixture("FIG2L")
    full = {"lams": [HALF], "gb": GenBound((8.0, 8.0), 1), "eps_list": [(0.0, 5.0)]}
    for cid in ALL_CHECKS:
        for param, missing in (("lams", None), ("lams", []), ("gb", None),
                               ("eps_list", None), ("eps_list", [])):
            params = {**full, param: missing}
            if param in CHECK_PARAMS.get(cid, ()):
                with pytest.raises(ValueError) as err:
                    check_instance(inst, [cid], **params)
                assert str(err.value) == f"check {cid} needs the parameter {param}"
            else:
                assert check_instance(inst, [cid], **params)[cid].passed, (cid, param)
    with pytest.raises(ValueError, match="eps_value_monotone needs the parameter gb"):
        check_instance(inst, ["remark_pb_sandwich", "eps_value_monotone"])


def test_fig5_point_based_domination_facts():
    # the figure's stated facts about the point-based values
    from maro import f_pb, inner_efficient, vec_cmp, VecRel

    inst = fixture("FIG5")
    v1 = f_pb(inst, "x1")
    assert v1 == (2, 9)
    assert vec_cmp((2, 8), v1, VecRel.LEQ)  # dominated inside its own outcomes
    v3 = f_pb(inst, "x3")
    assert v3 == (8, 2)
    assert all(vec_cmp(p, v3, VecRel.LEQQ) for p in inner_efficient(inst, "x3", "u1").points)
    assert all(vec_cmp(v3, p, VecRel.LEQQ) for p in inner_efficient(inst, "x3", "u2").points)


def test_battery_small_run_passes_and_is_deterministic():
    rep1 = run_battery(11, 40)
    rep2 = run_battery(11, 40)
    assert rep1.passed
    assert rep1.to_json() == rep2.to_json()
    assert set(rep1.reports) >= {"thm_ws_implies_ms", "thm_eps_switch",
                                 "thm_eps_implies_ms_lower",
                                 "remark_efficiency_implication_chain"}


def test_battery_jittered_run_passes():
    rep = run_battery(13, 30, ["thm_ws_implies_ms", "thm_eps_switch",
                               "thm_eps_implies_ms_lower"], jitter=0.25)
    assert rep.passed
    assert rep.jitter == 0.25


def test_battery_check_filter_and_unknown_id():
    rep = run_battery(5, 5, ["thm_ws_implies_ms"])
    assert set(rep.reports) == {"thm_ws_implies_ms"}
    with pytest.raises(ValueError, match="unknown check ids"):
        run_battery(5, 5, ["nope"])
    with pytest.raises(ValueError, match="unknown check ids"):
        check_instance(fixture("FIG2L"), ["nope"])


def test_battery_rejects_non_positive_count():
    for count in (0, -5):
        with pytest.raises(ValueError, match="count must be a positive integer"):
            run_battery(1, count)


def test_mco_note_records_agreement():
    rep = run_battery(17, 25, ["note_weak_flimsy_via_mco"])
    note = rep.reports["note_weak_flimsy_via_mco"]
    assert note.passed  # observational: never fails
    assert note.notes.get("agree", 0) > 0


def test_compare_concepts_fig2l_all_select_x2():
    table = compare_concepts(fixture("FIG2L"), HALF, GenBound((0.0, 7.0), 1))
    assert table["weighted_sum"]["plain"] == ["x2"]
    assert table["constraint"]["plain"] == ["x2"]
    assert table["point_based"]["plain"] == ["x2"]
    assert table["weighted_sum"]["bounds_hold"]
    assert table["constraint"]["bounds_hold"]
    assert table["point_based"]["image_nondominated"]


def test_compare_concepts_fig6_separations():
    # (weighted-sum set, constraint set) at the frozen separating parameters
    sets = {"FIG6L": (["x2"], ["x1"]), "FIG6R": (["x1"], ["x2"])}
    for name in ("FIG6L", "FIG6R"):
        sep = fixture_meta(name)["separation"]
        table = compare_concepts(
            fixture(name), Weight(sep["lambda"]), GenBound(sep["eps"], sep["j"])
        )
        assert ("x1" in table["constraint"]["plain"]) == sep["eps_efficient"]
        assert ("x1" in table["weighted_sum"]["plain"]) == sep["ws_efficient"]
        assert (table["weighted_sum"]["plain"], table["constraint"]["plain"]) == sets[name]


def test_fig6_separation_rederived_on_small_grid():
    # FIG6L's x1 is constraint efficient but not weighted-sum efficient,
    # FIG6R's the other way around; sweeping weights of the k=20 simplex
    # grid and integer caps finds the frozen (lambda, eps, j) among the
    # separating parameters
    for name in ("FIG6L", "FIG6R"):
        inst = fixture(name)
        sep = fixture_meta(name)["separation"]
        x, want_eps = sep["x"], sep["eps_efficient"]
        lam_hits = [lam for lam in simplex_grid(2, 20)
                    if (x in ws_efficient_set(inst, Weight(lam)).decisions) == sep["ws_efficient"]]
        eps_hits = []
        for j in (1, 2):
            for cap in range(11):
                eps = tuple(float(cap) if i != j - 1 else 0.0 for i in range(2))
                sel = eps_efficient_set(inst, GenBound(eps, j))
                if not sel.infeasible and (x in sel.decisions) == want_eps:
                    eps_hits.append((eps, j))
        assert want_eps != sep["ws_efficient"]
        assert tuple(sep["lambda"]) in lam_hits, name
        assert (tuple(sep["eps"]), sep["j"]) in eps_hits, name


THEOREM_CHECKS = ["thm_ws_implies_ms", "thm_eps_switch", "thm_eps_implies_ms_lower"]


@pytest.mark.parametrize("tau,jitter", [(1e-9, 0.0), (1e-9, 0.25), (0.0, 0.0), (0.0, 0.25)])
def test_battery_subsets_equal_slices_of_full_report(tau, jitter):
    # every check runs alone on the same instances and draws as in the full
    # battery; at this seed and count every check has cases
    tol = Tolerance(tau)
    full = run_battery(29, 24, jitter=jitter, tol=tol).reports
    assert list(full) == list(ALL_CHECKS)
    assert all(rep.cases > 0 for rep in full.values())
    for ids in [[cid] for cid in ALL_CHECKS] + [THEOREM_CHECKS]:
        part = run_battery(29, 24, ids, jitter=jitter, tol=tol).reports
        assert list(part) == ids
        for cid in ids:
            assert part[cid].to_dict() == full[cid].to_dict(), cid


def test_selected_check_computes_no_verdicts(monkeypatch):
    def no_verdict(*args, **kwargs):
        raise AssertionError("a verdict was computed")

    monkeypatch.setattr("maro.verify.maro_efficient", no_verdict)
    rep = run_battery(123, 20, ["remark_pb_sandwich", "eps_value_monotone"])
    assert rep.passed and set(rep.reports) == {"remark_pb_sandwich", "eps_value_monotone"}


def _drop_last_point(weighted_min):
    return lambda pts, lam: weighted_min(pts[:-1] if len(pts) > 1 else pts, lam)


def _plant_ws_min_drops_last_point(monkeypatch):
    # the weighted-sum concept's reading of the scenario table only; the
    # lambda-min verdicts read the real table
    import maro.pareto
    import maro.scalarize

    real = maro.scalarize._scenario_table
    dropped = _drop_last_point(maro.pareto.weighted_min)

    def ws_dropped(inst, x, lam, tol):
        fronts = real(inst, x, None, tol)
        return fronts if lam is None else tuple(dropped(front, lam) for front in fronts)

    monkeypatch.setattr("maro.scalarize._scenario_table", ws_dropped)


def _plant_weighted_min_drops_last_point(monkeypatch):
    # the one weighted minimum that the weighted-sum concept and the
    # lambda-min verdicts share
    import maro.pareto

    monkeypatch.setattr("maro.pareto.weighted_min", _drop_last_point(maro.pareto.weighted_min))


def _plant_eps_minima_ignore_caps(monkeypatch):
    def uncapped(inst, x, gb, tol):
        return tuple(min(p[gb.j - 1] for p in inst.points(x, u)) for u in inst.scenarios)

    monkeypatch.setattr("maro.scalarize._eps_minima", uncapped)


def _plant_bound_checks_fail(monkeypatch):
    monkeypatch.setattr("maro.verify.check_ws_bound", lambda *args, **kwargs: False)
    monkeypatch.setattr("maro.verify.check_eps_bound", lambda *args, **kwargs: False)


def _plant_multi_scenario_reads_first_scenario(monkeypatch):
    import maro.efficiency

    real = maro.efficiency._decide

    def first_only(inst, x, kind, dominates, dominates_all):
        if kind is Kind.MULTI_SCENARIO:
            return real(inst, x, kind, dominates, lambda xp: dominates(xp, 0))
        return real(inst, x, kind, dominates, dominates_all)

    monkeypatch.setattr("maro.efficiency._decide", first_only)


def _plant_flimsy_decided_as_highly(monkeypatch):
    import maro.efficiency

    real = maro.efficiency._decide

    def as_highly(inst, x, kind, dominates, dominates_all):
        if kind is Kind.FLIMSY:
            kind = Kind.HIGHLY
        return real(inst, x, kind, dominates, dominates_all)

    monkeypatch.setattr("maro.efficiency._decide", as_highly)


def _plant_set_relation_ignores_strictness(monkeypatch):
    import maro.efficiency

    real = maro.efficiency._set_leq
    monkeypatch.setattr("maro.efficiency._set_leq",
                        lambda A, B, family, strict, tau: real(A, B, family, False, tau))


def _plant_strict_selection_keeps_every_minimizer(monkeypatch):
    import maro.scalarize

    real = maro.scalarize._selection
    monkeypatch.setattr("maro.scalarize._selection",
                        lambda inst, values, strictness, tol:
                        real(inst, values, Strictness.PLAIN, tol))


# plant -> {check id: (violation count, first violation detail)} of
# run_battery(42, 60) restricted to those checks
PLANTED_DEFECTS = [
    (_plant_ws_min_drops_last_point, {
        "thm_ws_implies_ms": (20, "x=x3 strictly ws-efficient for lam=(0.5, 0.5) (value 8.5) "
                                  "but multi-scenario dominated by x1"),
    }),
    (_plant_eps_minima_ignore_caps, {
        "thm_eps_switch": (58, "x=x2 strict for eps=(10, 9) j=1 (guarantee 0) but not strict "
                               "for eps'=(0, 9) j=2; got ('x1',)"),
    }),
    (_plant_bound_checks_fail, {
        "remark_ws_bound": (333, "x=x2 lam=(1, 0) guarantee 0"),
        "remark_eps_bound": (68, "x=x4 eps=(10, 9) j=1 guarantee 3"),
    }),
    (_plant_multi_scenario_reads_first_scenario, {
        "thm_ws_implies_ms": (126, "x=x4 strictly ws-efficient for lam=(0.75, 0.25) (value 4) "
                                   "but multi-scenario dominated by x3"),
        "thm_eps_implies_ms_lower": (7, "x=x3 strictly eps-efficient for eps=(20, 14) j=1 "
                                        "but multi-scenario dominated by x2"),
    }),
    (_plant_flimsy_decided_as_highly, {
        "witness_replay": (855, "flimsy witness for x=x1 misses scenarios"),
    }),
    (_plant_set_relation_ignores_strictness, {
        "lemma_singleton_recourse_coherence": (4, "x=x1 highly/weak: two-stage True vs "
                                                  "three-stage[u] False"),
        "remark_single_scenario_coherence": (14, "x=x1 flimsy/weak family=u: False != True"),
        "witness_replay": (160, "witness (x4) for x=x1 kind=flimsy does not replay"),
    }),
    (_plant_weighted_min_drops_last_point, {
        "remark_single_scenario_coherence": (10, "x=x1 flimsy/strict family=lmin: True != False"),
        "witness_replay": (102, "witness (x1) for x=x2 kind=flimsy does not replay"),
        "unit_weight_reduces_to_pb": (227, "x=x1 objective 2: unit-weight value 11 != 2"),
    }),
    (_plant_strict_selection_keeps_every_minimizer, {
        "thm_ws_implies_ms": (14, "x=x2 strictly ws-efficient for lam=(0.5, 0.5) (value 4) "
                                  "but multi-scenario dominated by x1"),
        "thm_eps_switch": (14, "x=x1 strict for eps=(17, 13, 10) j=3 (guarantee 4) but not "
                               "strict for eps'=(17, 13, 4) j=2; got ('x5',)"),
        "thm_eps_implies_ms_lower": (1, "x=x1 strictly eps-efficient for eps=(13, 12) j=1 "
                                        "but multi-scenario dominated by x2"),
    }),
]


@pytest.mark.parametrize("plant,expected", PLANTED_DEFECTS,
                         ids=[plant.__name__[len("_plant_"):] for plant, _ in PLANTED_DEFECTS])
def test_planted_defects_fail_their_checks(monkeypatch, plant, expected):
    # each defect, planted in-process, makes exactly its checks report
    # violations, with details that format the offending guarantee or value
    assert run_battery(42, 60, check_ids=list(expected)).passed
    plant(monkeypatch)
    rep = run_battery(42, 60, check_ids=list(expected))
    got = {cid: (len(r.violations), r.violations[0].detail) for cid, r in rep.reports.items()
           if r.violations}
    assert got == expected


def test_battery_computes_each_verdict_once(monkeypatch):
    import maro.verify

    logs = []
    real = maro.verify.generate

    def recording(cfg):
        inst = real(cfg)
        logs.append(record_stores(inst))
        return inst

    monkeypatch.setattr("maro.verify.generate", recording)
    assert run_battery(29, 12).passed
    assert len(logs) == 12
    for stored in logs:
        verdicts = [key for key in stored if key[0] == "verdict"]
        assert verdicts and len(verdicts) == len(set(verdicts))


def test_battery_asks_each_reference_comparison_once(monkeypatch):
    # single-scenario coherence and witness replay share one reference
    # relation: per instance, each (x', x, u, family, lambda, strict) set
    # comparison runs once
    import maro.verify

    owner, asked = {}, []
    real_front, real_cmp = maro.verify.inner_efficient, maro.verify.set_cmp

    def front(inst, x, u, tol):
        got = real_front(inst, x, u, tol)
        # the memo keeps each front alive, and this dict each instance, so
        # no id is reused during the run
        owner[id(got.points)] = inst, x, u
        return got

    def counted(A, B, spec, tol, strict):
        (inst, xp, u), (same, x, v) = owner[id(A)], owner[id(B)]
        assert inst is same and u == v
        asked.append((id(inst), xp, x, u, spec.family, spec.lam, strict))
        return real_cmp(A, B, spec, tol, strict)

    monkeypatch.setattr("maro.verify.inner_efficient", front)
    monkeypatch.setattr("maro.verify.set_cmp", counted)
    assert run_battery(42, 60).passed
    assert asked and len(asked) == len(set(asked))


def test_compare_computes_each_selection_value_once(monkeypatch):
    # the selections, the three images, the bound checks and the point-based
    # values all read one memo: each scalar value, and each tuple of
    # per-scenario minima, is computed once
    inst = fixture("FIG6L")
    stored = record_stores(inst)
    gb = GenBound((0.0, 5.0), 1)
    table = compare_concepts(inst, HALF, gb)
    assert table["weighted_sum"]["plain"] and table["constraint"]["plain"]
    assert table["weighted_sum"]["image"] and table["point_based"]["image"]

    # later bound checks of every decision read the memoized minima alone
    def no_front(*args):
        raise AssertionError("a bound check rescanned a recourse front")

    monkeypatch.setattr("maro.pareto.inner_efficient", no_front)
    monkeypatch.setattr("maro.pareto.weighted_min", no_front)
    for x in inst.decisions:
        assert check_ws_bound(inst, x, HALF, table["weighted_sum"]["guarantee"].get(x, 1e9))
        check_eps_bound(inst, x, gb, 5.0)
    values = [key[:2] for key in stored if key[0] in ("eps", "pb")]
    values += [("ws", key[1]) for key in stored if key[0] == "table" and key[2] == HALF.values]
    assert sorted(values) == sorted((name, x) for name in ("ws", "eps", "pb")
                                    for x in inst.decisions)


def _ref_table(inst, x, lam, tol):
    """Each scenario's tau-front, or the least weighted sum over it: over
    every recourse point at tau = 0, where the exact front keeps each
    minimum."""
    if lam is None:
        return tuple(tuple(tol_front(inst.points(x, u), "min", tol.tau)) for u in inst.scenarios)
    return tuple(min(dot(lam, p) for p in (inst.points(x, u) if tol.tau == 0.0 else
                                           tol_front(inst.points(x, u), "min", tol.tau)))
                 for u in inst.scenarios)


def _ref_set_leq(A, B, family, strict, tau):
    if family is SetRelFamily.LAMBDA_MIN:
        return (_tol_lt if strict else _tol_leq)(A, B, tau)
    return _tol_set_leq(A, B, family.value, strict, None, tau)


def _ref_eps_minima(inst, x, gb, tol):
    """Least objective j over all recourse points meeting every other cap,
    per scenario; +inf where none does."""
    k = gb.j - 1
    out = []
    for u in inst.scenarios:
        best = INF
        for p in inst.points(x, u):
            if all(_tol_leq(p[i], gb.eps[i], tol.tau) for i in range(inst.n) if i != k):
                best = min(best, p[k])
        out.append(best)
    return tuple(out)


def _ref_nondominated(points, orientation, tol):
    return FrontSet(tuple(tol_front(points, orientation.value, tol.tau)), orientation)


def _ref_contributors(points_of, tol):
    keys, front = tol_contributors(points_of, tol.tau)
    return keys, FrontSet(tuple(front), Orientation.MIN)


def _swap_in_references(monkeypatch):
    """Replace every fast kernel the battery reaches with its reference."""
    for module in ("pareto", "efficiency"):
        monkeypatch.setattr(f"maro.{module}.nondominated", _ref_nondominated)
    monkeypatch.setattr(
        "maro.pareto._sorted_front",
        lambda pts, n, finite, orientation, tau:
        _ref_nondominated(pts, orientation, Tolerance(tau)))
    for module in ("pareto", "efficiency", "scalarize"):
        monkeypatch.setattr(f"maro.{module}._scenario_table", _ref_table)
    for module in ("efficiency", "verify"):
        monkeypatch.setattr(f"maro.{module}._contributors", _ref_contributors)
    monkeypatch.setattr("maro.efficiency._set_leq", _ref_set_leq)
    monkeypatch.setattr("maro.scalarize._eps_minima", _ref_eps_minima)


@pytest.mark.parametrize("tau,jitter", [(1e-9, 0.0), (1e-9, 0.25), (0.0, 0.0), (0.0, 0.25)])
def test_battery_report_equals_the_reference_kernels(monkeypatch, tau, jitter):
    # the whole battery on the fast kernels and on their references gives
    # one report; a new fast path adds its kernel to the swap list
    tol = Tolerance(tau)
    fast = run_battery(42, 60, jitter=jitter, tol=tol).to_dict()
    _swap_in_references(monkeypatch)
    assert run_battery(42, 60, jitter=jitter, tol=tol).to_dict() == fast
