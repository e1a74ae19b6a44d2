"""Acceptance gate: figure-fixture reproduction plus the property suites.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s``) and enforces the stated runtime budget.  All figure checks
on integer-coordinate fixtures are exact; sampled-front checks are
qualitative by construction.
"""

import hashlib
import math
import random
import time
from contextlib import contextmanager

import pytest

from maro import (
    GenBound,
    GenConfig,
    Kind,
    Orientation,
    SetRelFamily,
    SetRelSpec,
    Strictness,
    Tolerance,
    VecRel,
    Weight,
    WeightGrid,
    eps_efficient_set,
    f_eps_j,
    f_lambda,
    f_pb,
    fixture,
    fixture_meta,
    generate,
    ideal,
    image_ws_grid,
    inner_efficient,
    maro_efficient,
    pb_efficient_set,
    run_battery,
    smaro_set,
    vec_cmp,
    ws_efficient_set,
)
from maro.cli import main

from oracles import brute_f_eps_j, brute_f_lambda, brute_f_pb

LOWER = SetRelSpec(SetRelFamily.LOWER)

# SHA-256 of the stdout of ``maro verify --seed 42 --count 500`` (plain and with
# ``--jitter 0.25``).  A change that alters the report on purpose updates these.
VERIFY_SEED42_SHA256 = "08132da9cdce364db169f0bf3eea4032086a9245956085bd0e6735029bd801a2"
VERIFY_SEED42_JITTER_SHA256 = "7c355c0a861aee637d5645b74f1ed7ec912c2a29e4b620dd220475f9a523230a"
VERIFY_SEED42_TOL0_SHA256 = "4fcc279b03fc161d39c0b64bf6c342ecc08eb32380d05f520f53ad87ebc80505"


def report(num: int, desc: str, ok: bool):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


@contextmanager
def budget(num: int, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    report(num, f"runtime {elapsed:.2f}s within {seconds:.0f}s budget",
           elapsed < seconds)


@pytest.fixture(scope="module")
def battery_500():
    start = time.perf_counter()
    rep = run_battery(42, 500)
    return rep, time.perf_counter() - start


def test_c01_fig2_left_multi_scenario_and_nesting():
    with budget(1, 1.0):
        inst = fixture("FIG2L")
        both = all(
            maro_efficient(inst, x, Kind.MULTI_SCENARIO, Strictness.STRICT, LOWER).efficient
            for x in ("x1", "x2")
        )
        nested = smaro_set(inst).decisions == ("x2",)
    report(1, "FIG2L: x1,x2 strictly multi-scenario efficient (lower relation)", both)
    report(1, "FIG2L: nesting set keeps exactly x2", nested)


def test_c02_fig2_right_vice_versa():
    with budget(2, 1.0):
        inst = fixture("FIG2R")
        in_nested = "x1" in smaro_set(inst).decisions
        verdict = maro_efficient(inst, "x1", Kind.MULTI_SCENARIO, Strictness.STRICT, LOWER)
    report(2, "FIG2R: x1 in the nesting set", in_nested)
    report(2, "FIG2R: x1 not multi-scenario efficient, witness x2",
           not verdict.efficient and verdict.witness.xprime == "x2")


def test_c03_fig4_point_based_values_hit_ideal_points():
    with budget(3, 1.0):
        inst = fixture("FIG4")
        u1 = [p for u in inst.scenarios for p in inst.points("x1", u)]
        u2 = [p for u in inst.scenarios for p in inst.points("x2", u)]
        ok1 = f_pb(inst, "x1") == (1, 6) == ideal(u1, Orientation.MIN)
        ok2 = f_pb(inst, "x2") == (8, 4) == ideal(u2, Orientation.MAX)
        eff = pb_efficient_set(inst, Strictness.PLAIN) == ("x1", "x2")
    report(3, "FIG4: point-based value of x1 attains the lower ideal point", ok1)
    report(3, "FIG4: point-based value of x2 attains the upper ideal point", ok2)
    report(3, "FIG4: plain point-based efficient set is {x1,x2}", eff)


def test_c04_fig5_domination_facts():
    with budget(4, 1.0):
        inst = fixture("FIG5")
        v1, v3 = f_pb(inst, "x1"), f_pb(inst, "x3")
        ok1 = v1 == (2, 9) and vec_cmp((2, 8), v1, VecRel.LEQ)
        f31 = inner_efficient(inst, "x3", "u1").points
        f32 = inner_efficient(inst, "x3", "u2").points
        ok3 = (
            v3 == (8, 2)
            and all(vec_cmp(p, v3, VecRel.LEQQ) for p in f31)
            and all(vec_cmp(v3, p, VecRel.LEQQ) for p in f32)
        )
    report(4, "FIG5: f_pb(x1)=(2,9) weakly dominated by (2,8)", ok1)
    report(4, "FIG5: f_pb(x3)=(8,2) between the x3 fronts", ok3)


def test_c05_fig3s_weighted_sum_image_has_dominated_point():
    with budget(5, 5.0):
        tagged = image_ws_grid(fixture("FIG3S"), WeightGrid(2, 100))
        pts = sorted({p for _, p in tagged})
        dominated = any(
            any(q != p and vec_cmp(q, p, VecRel.LT) for q in pts) for p in pts
        )
    report(5, "FIG3S grid image (k=100) contains a strictly dominated point",
           dominated)


def test_c06_fig6_concept_separations():
    with budget(6, 5.0):
        results = {}
        for name in ("FIG6L", "FIG6R"):
            inst = fixture(name)
            sep = fixture_meta(name)["separation"]
            lam, gb = Weight(sep["lambda"]), GenBound(sep["eps"], sep["j"])
            in_eps = "x1" in eps_efficient_set(inst, gb).decisions
            in_ws = "x1" in ws_efficient_set(inst, lam).decisions
            results[name] = (in_eps, in_ws)
    report(6, "FIG6L: x1 constraint-efficient but not weighted-sum efficient",
           results["FIG6L"] == (True, False))
    report(6, "FIG6R: x1 weighted-sum efficient but not constraint-efficient",
           results["FIG6R"] == (False, True))


THEOREM_CHECKS = ("thm_ws_implies_ms", "thm_eps_switch", "thm_eps_implies_ms_lower")


def test_c07_theorem_suites_500_instances(battery_500):
    rep, elapsed = battery_500
    for cid in THEOREM_CHECKS:
        r = rep.reports[cid]
        report(7, f"{cid}: 0 violations over 500 instances (seed 42)",
               r.passed and r.instances >= 500)
        report(7, f"{cid}: non-vacuous cases {r.non_vacuous} >= 100",
               r.non_vacuous >= 100)
    report(7, f"battery runtime {elapsed:.1f}s < 60s", elapsed < 60.0)


LEMMA_CHECKS = (
    "lemma_eps_image_weakly_nondominated",
    "lemma_pb_image_nondominated",
    "remark_efficiency_implication_chain",
    "remark_ws_bound",
    "remark_eps_bound",
    "remark_pb_sandwich",
    "lemma_singleton_recourse_coherence",
    "remark_single_scenario_coherence",
    "witness_replay",
)


def test_c08_lemma_and_remark_battery(battery_500):
    rep, elapsed = battery_500
    for cid in LEMMA_CHECKS:
        r = rep.reports[cid]
        report(8, f"{cid}: 0 violations ({r.cases} cases)", r.passed)
        report(8, f"{cid}: exercised", r.cases > 0)
    report(8, f"battery runtime {elapsed:.1f}s < 60s", elapsed < 60.0)


def test_c09_bitwise_oracle_equivalence():
    with budget(9, 10.0):
        rng = random.Random(90210)
        tol0 = Tolerance(0.0)
        mismatches = 0
        for k in range(100):
            cfg = GenConfig(
                seed=rng.randrange(2**32),
                n=rng.randint(2, 3),
                nx=rng.randint(2, 6),
                nu=rng.randint(1, 4),
                ny=rng.randint(1, 8),
                jitter=0.25 if k % 2 else 0.0,
            )
            inst = generate(cfg)
            raw = tuple(rng.uniform(0.05, 1.0) for _ in range(inst.n))
            lam = Weight(tuple(c / math.fsum(raw) for c in raw))
            gb = GenBound(
                tuple(float(rng.randint(4, 20)) for _ in range(inst.n)),
                rng.randint(1, inst.n),
            )
            for x in inst.decisions:
                if f_lambda(inst, x, lam) != brute_f_lambda(inst, x, lam.values):
                    mismatches += 1
                if f_eps_j(inst, x, gb, tol0) != brute_f_eps_j(inst, x, gb.eps, gb.j):
                    mismatches += 1
                if f_pb(inst, x) != brute_f_pb(inst, x):
                    mismatches += 1
    report(9, "library matches brute-force oracle bit-for-bit on 100 instances",
           mismatches == 0)


def test_c10_cli_verify_byte_determinism(capsys):
    code1 = main(["verify", "--seed", "42", "--count", "500"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "--seed", "42", "--count", "500"])
    out2 = capsys.readouterr().out
    code3 = main(["verify", "--seed", "42", "--count", "500", "--jitter", "0.25"])
    out3 = capsys.readouterr().out
    code4 = main(["verify", "--seed", "42", "--count", "500", "--tol", "0"])
    out4 = capsys.readouterr().out
    report(10, "verify --seed 42 --count 500 exits 0 twice", code1 == code2 == 0)
    report(10, "two runs produce byte-identical reports",
           out1 == out2 and len(out1) > 0)
    report(10, "report bytes match the pinned digest",
           hashlib.sha256(out1.encode()).hexdigest() == VERIFY_SEED42_SHA256)
    report(10, "--jitter 0.25 report bytes match the pinned digest",
           code3 == 0 and hashlib.sha256(out3.encode()).hexdigest() == VERIFY_SEED42_JITTER_SHA256)
    report(10, "--tol 0 report bytes match the pinned digest",
           code4 == 0 and hashlib.sha256(out4.encode()).hexdigest() == VERIFY_SEED42_TOL0_SHA256)
