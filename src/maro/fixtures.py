"""Built-in desk instances with known efficiency behaviour.

Point-set fixtures (FIG2L, FIG2R, FIG4, and the fixed decisions of FIG5)
carry exact small-integer coordinates.  Continuous fronts (FIG3S, FIG6L,
FIG6R, and decision x2 of FIG5) are discretized by fixed deterministic
sampling and the resulting instances are flagged ``sampled``.
"""

from __future__ import annotations

from .instances import Instance, InstanceError, Vec, make_instance


def _polyline(vertices: list[tuple[float, float]], per_seg: int = 8) -> list[Vec]:
    """Sample a polyline at per_seg+1 evenly spaced points per segment."""
    out: list[Vec] = []
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        for i in range(per_seg + 1):
            t = i / per_seg
            p = (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
            if not out or out[-1] != p:
                out.append(p)
    return out


def _fig2l() -> Instance:
    return make_instance(
        "FIG2L", 2, ["x1", "x2"], ["u1", "u2", "u3"],
        {
            "x1": {"u1": [(3, 7)], "u2": [(5, 5)], "u3": [(8, 4)]},
            "x2": {"u1": [(7, 3)], "u2": [(4, 4)], "u3": [(2, 6)]},
        },
    )


def _fig2r() -> Instance:
    return make_instance(
        "FIG2R", 2, ["x1", "x2"], ["u1", "u2"],
        {
            "x1": {"u1": [(3, 7)], "u2": [(5, 5)]},
            "x2": {"u1": [(2, 2)], "u2": [(4, 4)]},
        },
    )


def _fig4() -> Instance:
    seg = [(1, 9), (2, 8), (3, 7), (4, 6)]
    return make_instance(
        "FIG4", 2, ["x1", "x2"], ["u1", "u2"],
        {
            "x1": {"u1": seg, "u2": seg},
            "x2": {"u1": [(5, 4)], "u2": [(8, 2)]},
        },
    )


def _fig5() -> Instance:
    # x2's two fronts are smooth curves in the drawing; piecewise-linear
    # samples through the plotted control points preserve every property
    # exercised on this instance.
    x2u1 = _polyline([(3, 6), (3.5, 4.5), (5, 4)], per_seg=4)
    x2u2 = _polyline([(4, 5), (4.5, 3.5), (6, 3)], per_seg=4)
    return make_instance(
        "FIG5", 2, ["x1", "x2", "x3"], ["u1", "u2"],
        {
            "x1": {"u1": [(0, 10), (1, 9)], "u2": [(2, 8), (3, 7)]},
            "x2": {"u1": x2u1, "u2": x2u2},
            "x3": {"u1": [(7, 2), (8, 1)], "u2": [(8, 3), (9, 2)]},
        },
        sampled=True,
    )


def _fig3s() -> Instance:
    # Two crossing quadratic fronts for a single decision; the weighted-sum
    # image over the whole weight simplex picks up dominated points here.
    u1 = [((10 + i) / 10, 23 / 180 * ((10 + i) / 10) ** 2 - 413 / 180 * ((10 + i) / 10) + 67 / 6)
          for i in range(81)]
    u2 = [((2 + i) / 10, 3 / 32 * ((2 + i) / 10) ** 2 - 21 / 16 * ((2 + i) / 10) + 263 / 32)
          for i in range(59)]
    return make_instance(
        "FIG3S", 2, ["x1"], ["u1", "u2"],
        {"x1": {"u1": u1, "u2": u2}},
        sampled=True,
    )


def _fig6l() -> Instance:
    return make_instance(
        "FIG6L", 2, ["x1", "x2", "x3"], ["u1", "u2"],
        {
            "x1": {"u1": _polyline([(2, 10), (5, 7), (10, 5)]),
                   "u2": _polyline([(2, 9), (5, 6), (10, 4)])},
            "x2": {"u1": _polyline([(1, 8), (2, 7)]),
                   "u2": _polyline([(1, 7.5), (2, 6.5)])},
            "x3": {"u1": _polyline([(8, 3), (9, 2)]),
                   "u2": _polyline([(8, 2), (9, 1)])},
        },
        sampled=True,
    )


def _fig6r() -> Instance:
    x2 = _polyline([(2, 6), (6.5, 3.2)])
    return make_instance(
        "FIG6R", 2, ["x1", "x2"], ["u1", "u2"],
        {
            "x1": {"u1": _polyline([(2, 9), (6, 3)]),
                   "u2": _polyline([(2, 5), (6, 4)])},
            "x2": {"u1": x2, "u2": x2},
        },
        sampled=True,
    )


_BUILDERS = {
    "FIG2L": _fig2l,
    "FIG2R": _fig2r,
    "FIG3S": _fig3s,
    "FIG4": _fig4,
    "FIG5": _fig5,
    "FIG6L": _fig6l,
    "FIG6R": _fig6r,
}

# Frozen separation witnesses, found by a sweep over weights and bounds that
# tests/test_verify.py re-derives on a small grid.  For FIG6L decision x1
# is constraint efficient for (eps, j) but not weighted-sum efficient for
# lambda; for FIG6R it is the other way around.
FIXTURE_META: dict[str, dict] = {
    "FIG6L": {
        "separation": {
            "lambda": (0.5, 0.5),
            "eps": (0.0, 6.0),
            "j": 1,
            "x": "x1",
            "eps_efficient": True,
            "ws_efficient": False,
        },
    },
    "FIG6R": {
        "separation": {
            "lambda": (0.3, 0.7),
            "eps": (0.0, 6.0),
            "j": 1,
            "x": "x1",
            "eps_efficient": False,
            "ws_efficient": True,
        },
    },
}

FIXTURE_NAMES = tuple(sorted(_BUILDERS))


def fixture(name: str) -> Instance:
    """Return a built-in instance by name."""
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise InstanceError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        ) from None
    return build()


def fixture_meta(name: str) -> dict:
    """Whether the built-in instance is sampled, and its separation witness
    if it has one."""
    return {"sampled": fixture(name).sampled, **FIXTURE_META.get(name, {})}
