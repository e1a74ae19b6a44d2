"""Objective-space images, grids, the gap surrogate, and SVG output."""

import math
from xml.etree import ElementTree

import pytest
from hypothesis import given

from maro import (
    GenBound,
    GenConfig,
    INF,
    VecRel,
    Weight,
    WeightGrid,
    fixture,
    generate,
    image_eps,
    image_eps_grid,
    image_pb,
    image_ws,
    image_ws_grid,
    make_instance,
    render_svg,
    simplex_grid,
    vec_cmp,
    ws_image_gaps,
)

from conftest import instances

HALF = Weight((0.5, 0.5))


def test_image_ws_examples():
    assert image_ws(fixture("FIG2L"), HALF) == ((7.0, 3.0),)
    fig4 = fixture("FIG4")
    assert set(image_ws(fig4, HALF)) == {(1, 9), (2, 8), (3, 7), (4, 6), (8, 2)}
    solo = make_instance("solo", 2, ["x"], ["u"], {"x": {"u": [(2, 5)]}})
    assert image_ws(solo, HALF) == ((2.0, 5.0),)


def test_simplex_grid_combinatorics():
    assert simplex_grid(2, 1) == ((1.0, 0.0), (0.0, 1.0))
    for n, k in ((2, 1), (2, 7), (3, 4), (3, 6)):
        assert len(simplex_grid(n, k)) == math.comb(k + n - 1, n - 1)
        assert len(WeightGrid(n, k)) == math.comb(k + n - 1, n - 1)
    for lam in simplex_grid(3, 5):
        assert all(c >= 0 for c in lam)
        assert abs(sum(lam) - 1.0) < 1e-12


def test_image_ws_grid_tags_weights():
    tagged = image_ws_grid(fixture("FIG2L"), WeightGrid(2, 2))
    lams = {l for l, _ in tagged}
    assert lams == {(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)}


def test_fig3s_grid_image_contains_strictly_dominated_point():
    # so the weighted-sum image is no Pareto front
    tagged = image_ws_grid(fixture("FIG3S"), WeightGrid(2, 100))
    pts = sorted({p for _, p in tagged})
    dominated = [p for p in pts if any(q != p and vec_cmp(q, p, VecRel.LT) for q in pts)]
    assert (len(pts), len(dominated)) == (51, 27)


def test_fig3s_gap_surrogate_fires():
    gaps = ws_image_gaps(fixture("FIG3S"), WeightGrid(2, 100))
    assert [(g.lam, g.a, g.b) for g in gaps] == [
        ((0.51, 0.49), (2.3, 5.6959375), (4.2, pytest.approx(3.784))),
        ((0.5, 0.5), (2.5, 5.5234375), (4.4, pytest.approx(3.544888888888888))),
    ]
    assert [round(g.distance, 2) for g in gaps] == [2.70, 2.74]


def test_gap_surrogate_on_a_one_point_image():
    solo = make_instance("solo", 2, ["x"], ["u"], {"x": {"u": [(1, 2)]}})
    assert ws_image_gaps(solo, WeightGrid(2, 4)) == ()


def test_image_eps_examples():
    fig2l = fixture("FIG2L")
    one = image_eps(fig2l, GenBound((0, 7), 1))
    assert one.point == (7, 7) and one.feasible
    inf_img = image_eps(fig2l, GenBound((0, 4), 1))
    assert inf_img.point == (INF, 4) and not inf_img.feasible
    corrected = image_eps(fig2l, GenBound((0, 6), 1))
    assert corrected.point == (7, 6) and corrected.feasible


def test_image_eps_grid_weak_nondominance():
    fig2l = fixture("FIG2L")
    img = image_eps_grid(fig2l, tuple(GenBound((0.0, e2), 1) for e2 in (5, 6, 7, 8)))
    assert img.points == ((7, 6), (7, 7), (7, 8))
    assert img.infeasible == ((INF, 5),)
    for p in img.points:
        assert not any(q != p and vec_cmp(q, p, VecRel.LT) for q in img.points)


def test_image_eps_grid_singleton():
    img = image_eps_grid(fixture("FIG2R"), (GenBound((0.0, 4.0), 1),))
    assert img.points == ((4.0, 4.0),)


def test_fig6l_image_contains_x1_point():
    from maro import f_eps_j

    inst = fixture("FIG6L")
    gb = GenBound((0.0, 6.0), 1)
    img = image_eps(inst, gb)
    assert img.feasible
    # the realized minimum comes from decision x1
    values = {x: f_eps_j(inst, x, gb) for x in inst.decisions}
    assert min(values, key=values.get) == "x1"
    assert img.point[0] == values["x1"]


def test_image_pb_examples():
    assert image_pb(fixture("FIG4")) == ((1, 6), (8, 4))
    assert image_pb(fixture("FIG2L")) == ((7, 6),)
    solo = make_instance("solo", 2, ["x"], ["u"], {"x": {"u": [(2, 5), (1, 7)]}})
    assert image_pb(solo) == ((1, 5),)


@given(instances)
def test_pb_image_points_never_dominate_each_other(inst):
    pts = image_pb(inst)
    for p in pts:
        assert not any(q != p and vec_cmp(q, p, VecRel.LEQ) for q in pts)


@given(instances)
def test_eps_image_points_weakly_nondominated(inst):
    eps_list = tuple(
        tuple(float(6 + 3 * k) for _ in range(inst.n)) for k in range(4)
    )
    for j in range(1, inst.n + 1):
        img = image_eps_grid(inst, tuple(GenBound(e, j) for e in eps_list))
        for p in img.points:
            assert not any(q != p and vec_cmp(q, p, VecRel.LT) for q in img.points)


def test_bound_grid_validation():
    with pytest.raises(ValueError, match="at least one"):
        image_eps_grid(fixture("FIG2L"), ())
    with pytest.raises(ValueError, match="n >= 1"):
        simplex_grid(0, 3)


def test_render_svg():
    svg = render_svg([("front", [(1.0, 2.0), (3.0, 1.0)])], connect=True)
    assert svg.startswith("<svg")
    assert 'viewBox="0 0 800 800"' in svg
    assert svg.count("<circle") == 2
    assert "<polyline" in svg
    assert "f1" in svg and "f2" in svg
    with pytest.raises(ValueError, match="two objectives"):
        render_svg([("bad", [(1.0, 2.0, 3.0)])])
    with pytest.raises(ValueError, match="nothing to plot"):
        render_svg([("empty", [])])


def test_render_svg_escapes_labels():
    svg = render_svg([("R&D <x>", [(1.0, 2.0)]), ("a > b", [(3.0, 1.0)])])
    root = ElementTree.fromstring(svg)
    labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels[-2:] == ["R&D <x>", "a > b"]


def test_images_build_each_front_once(monkeypatch):
    # the scalar concepts read one table of fronts per decision, so the
    # three images together compute each (decision, scenario) front once
    import maro.pareto

    calls = []
    real = maro.pareto.inner_efficient

    def counting(inst, x, u, tol):
        calls.append((x, u))
        return real(inst, x, u, tol)

    monkeypatch.setattr("maro.pareto.inner_efficient", counting)
    inst = generate(GenConfig(seed=5, n=2, nx=5, nu=3, ny=8))
    for w in WeightGrid(2, 10).weights:
        image_ws(inst, w)
    for eps, j in (((6.0, 9.0), 1), ((12.0, 4.0), 1), ((9.0, 7.0), 2), ((3.0, 14.0), 2)):
        image_eps(inst, GenBound(eps, j))
    image_pb(inst)
    assert len(calls) == len(inst.decisions) * len(inst.scenarios)
    assert sorted(calls) == sorted((x, u) for x in inst.decisions for u in inst.scenarios)
