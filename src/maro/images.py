"""Objective-space images of the three concepts, and grids to trace them.

The weighted-sum image of one weight vector collects the outcome vectors of
plainly efficient decisions at their worst-case scenarios and best recourse
points; the constraint image of one generating bound is the bound vector
with the minimized slot replaced by the best achievable value; the
point-based image collects the point-based values of the efficient set.

The weight simplex is sampled by a uniform lattice of resolution ``k``
(all coordinate multiples of 1/k); the constraint side takes an explicit
list of generating bounds.

``compare_concepts`` sets the three concepts side by side on one instance:
efficient sets, guarantees, bound checks and images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .instances import DEFAULT_TOL, INF, Instance, Tolerance, Vec
from .relations import Strictness, VecRel, Weight, dot, vec_cmp
from .scalarize import (
    GenBound,
    _ws_minima,
    check_eps_bound,
    check_ws_bound,
    eps_efficient_set,
    f_eps_j,
    f_pb,
    pb_efficient_set,
    pb_trivial_bounds,
    ws_efficient_set,
)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def simplex_grid(n: int, k: int) -> tuple[Vec, ...]:
    """All weight vectors with coordinates that are multiples of 1/k."""
    if n < 1 or k < 1:
        raise ValueError("simplex grid needs n >= 1 and resolution k >= 1")
    return tuple(tuple(c / k for c in comp) for comp in _compositions(k, n))


@dataclass(frozen=True)
class WeightGrid:
    n: int
    resolution: int

    @cached_property
    def weights(self) -> tuple[Weight, ...]:
        return tuple(Weight(v) for v in simplex_grid(self.n, self.resolution))

    def __len__(self):
        return math.comb(self.resolution + self.n - 1, self.n - 1)


def image_ws(inst: Instance, lam: Weight, tol: Tolerance = DEFAULT_TOL) -> tuple[Vec, ...]:
    """Outcome vectors realized by plainly weighted-sum efficient decisions
    at scenarios attaining their worst case and points attaining the inner
    minimum (both up to tolerance equality).

    The minimum reads the exact front; the enumeration scans every point,
    because a dominated point whose weighted sum ties the minimum belongs
    to the image too."""
    sel = ws_efficient_set(inst, lam, Strictness.PLAIN, tol)
    out: set[Vec] = set()
    for x, g in sel.guarantees.items():
        for u, m in zip(inst.scenarios, _ws_minima(inst, x, lam)):
            if not tol.eq(m, g):
                continue
            for p in inst.points(x, u):
                if tol.eq(dot(lam.values, p), m):
                    out.add(p)
    return tuple(sorted(out))


def image_ws_grid(inst: Instance, grid: WeightGrid,
                  tol: Tolerance = DEFAULT_TOL) -> tuple[tuple[Vec, Vec], ...]:
    """Union of weighted-sum images over the grid, tagged by weight vector."""
    out = []
    for w in grid.weights:
        for p in image_ws(inst, w, tol):
            out.append((w.values, p))
    return tuple(out)


@dataclass(frozen=True)
class EpsImagePoint:
    """Constraint image of one generating bound; ``feasible`` is False when
    every decision is +inf at the minimized slot."""

    point: Vec
    feasible: bool


def image_eps(inst: Instance, gb: GenBound, tol: Tolerance = DEFAULT_TOL) -> EpsImagePoint:
    best = min(f_eps_j(inst, x, gb, tol) for x in inst.decisions)
    point = tuple(best if i == gb.j - 1 else gb.eps[i] for i in range(inst.n))
    return EpsImagePoint(point, best < INF)


@dataclass(frozen=True)
class EpsGridImage:
    points: tuple[Vec, ...]
    infeasible: tuple[Vec, ...]


def image_eps_grid(inst: Instance, bounds: tuple[GenBound, ...],
                   tol: Tolerance = DEFAULT_TOL) -> EpsGridImage:
    """Union of constraint images over the bound list, in list order.

    Bounds that no decision can meet are reported separately and excluded
    from the realized front."""
    if not bounds:
        raise ValueError("bound list must contain at least one generating bound")
    feasible: list[Vec] = []
    infeasible: list[Vec] = []
    for gb in bounds:
        img = image_eps(inst, gb, tol)
        target = feasible if img.feasible else infeasible
        if img.point not in target:
            target.append(img.point)
    return EpsGridImage(tuple(feasible), tuple(infeasible))


def image_pb(inst: Instance, tol: Tolerance = DEFAULT_TOL) -> tuple[Vec, ...]:
    """Point-based values of the plainly point-based efficient decisions."""
    return tuple(sorted({f_pb(inst, x) for x in pb_efficient_set(inst, Strictness.PLAIN, tol)}))


def _dominated(points, rel: VecRel, tol: Tolerance) -> list[Vec]:
    """The image points some other image point precedes under ``rel``, in
    input order."""
    return [p for p in points if any(q != p and vec_cmp(q, p, rel, tol) for q in points)]


@dataclass(frozen=True)
class GapRecord:
    lam: Vec
    a: Vec
    b: Vec
    distance: float


# fractions of the grid image diameter: the loosened worst-case tie and the
# least gap ws_image_gaps reports
_TIE_FRAC, _GAP_FRAC = 0.005, 0.25


def ws_image_gaps(inst: Instance, grid: WeightGrid,
                  tol: Tolerance = DEFAULT_TOL) -> tuple[GapRecord, ...]:
    """Heuristic surrogate for disconnected single-weight images.

    On a sampled front an exact tie between worst-case scenarios almost
    never happens, so per-weight images degenerate to one cluster.  This
    detector therefore treats scenarios within ``_TIE_FRAC`` times the grid
    image diameter of the worst case as worst-case attainers, and flags a
    weight vector when two lexicographically adjacent points of the
    loosened image are further apart than ``_GAP_FRAC`` times that diameter
    (adjacency means no third image point lies between them, which for
    2-D fronts matches the visual gap).  Detection and reporting only;
    nothing downstream asserts on it.
    """
    tagged = image_ws_grid(inst, grid, tol)
    cloud = sorted({p for _, p in tagged})
    if len(cloud) < 2:
        return ()
    diameter = max(
        math.dist(p, q) for i, p in enumerate(cloud) for q in cloud[i + 1:]
    )
    tie = _TIE_FRAC * diameter
    gaps = []
    for w in grid.weights:
        sel = ws_efficient_set(inst, w, Strictness.PLAIN, tol)
        pts: set[Vec] = set()
        for x, g in sel.guarantees.items():
            for u, m in zip(inst.scenarios, _ws_minima(inst, x, w)):
                if m < g - tie:
                    continue
                for p in inst.points(x, u):
                    if dot(w.values, p) <= m + tie:
                        pts.add(p)
        ordered = sorted(pts)
        for a, b in zip(ordered, ordered[1:]):
            d = math.dist(a, b)
            if d > _GAP_FRAC * diameter:
                gaps.append(GapRecord(w.values, a, b, d))
    return tuple(gaps)


def compare_concepts(inst: Instance, lam: Weight, gb: GenBound,
                     tol: Tolerance = DEFAULT_TOL) -> dict:
    """Machine-readable side-by-side of the three concepts on one instance;
    every part reads the memoized scalar values, so each is computed once."""
    ws_plain = ws_efficient_set(inst, lam, Strictness.PLAIN, tol)
    ws_strict = ws_efficient_set(inst, lam, Strictness.STRICT, tol)
    eps_plain = eps_efficient_set(inst, gb, Strictness.PLAIN, tol)
    eps_strict = eps_efficient_set(inst, gb, Strictness.STRICT, tol)
    ws_img = image_ws(inst, lam, tol)
    eps_img = image_eps(inst, gb, tol)
    pb_img = image_pb(inst, tol)
    return {
        "instance": inst.name,
        "lambda": list(lam.values),
        "eps": list(gb.eps),
        "j": gb.j,
        "weighted_sum": {
            "plain": list(ws_plain.decisions),
            "strict": list(ws_strict.decisions),
            "strict_empty_tie": ws_strict.strict_empty_tie,
            "guarantee": ws_plain.guarantees,
            "bounds_hold": all(
                check_ws_bound(inst, x, lam, g, tol) for x, g in ws_plain.guarantees.items()
            ),
            "image": [list(p) for p in ws_img],
            "image_weakly_nondominated": not _dominated(ws_img, VecRel.LT, tol),
        },
        "constraint": {
            "plain": list(eps_plain.decisions),
            "strict": list(eps_strict.decisions),
            "strict_empty_tie": eps_strict.strict_empty_tie,
            "infeasible": eps_plain.infeasible,
            "guarantee": eps_plain.guarantees,
            "bounds_hold": all(
                check_eps_bound(inst, x, gb, g, tol)
                for x, g in eps_plain.guarantees.items() if g != INF
            ),
            "image": list(eps_img.point),
            "image_feasible": eps_img.feasible,
        },
        "point_based": {
            "strict": list(pb_efficient_set(inst, Strictness.STRICT, tol)),
            "plain": list(pb_efficient_set(inst, Strictness.PLAIN, tol)),
            "weak": list(pb_efficient_set(inst, Strictness.WEAK, tol)),
            "value": {x: list(f_pb(inst, x)) for x in inst.decisions},
            "trivial_bounds": {
                x: {
                    "lo": list(lo), "hi": list(hi), "holds": holds,
                }
                for x in inst.decisions
                for lo, hi, holds in [pb_trivial_bounds(inst, x, tol)]
            },
            "image": [list(p) for p in pb_img],
            "image_nondominated": not _dominated(pb_img, VecRel.LEQ, tol),
        },
    }


def _svg_coord(v: float, lo: float, hi: float, size: float, margin: float,
               flip: bool) -> float:
    if hi == lo:
        t = 0.5
    elif math.isfinite(hi - lo):
        t = (v - lo) / (hi - lo)
    else:
        # the range exceeds the float range; halving every term keeps it finite
        t = (v / 2 - lo / 2) / (hi / 2 - lo / 2)
    if flip:
        t = 1.0 - t
    return margin + t * (size - 2 * margin)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_svg(datasets: list[tuple[str, list[Vec]]], connect: bool = False) -> str:
    """Hand-emitted 2-D scatter (800x800 viewBox, margin 40, linear axes).

    ``datasets`` pairs a label with its points; only two-objective data can
    be drawn.  With ``connect`` each dataset is additionally traced by a
    polyline through its points in lexicographic order.
    """
    size, margin = 800.0, 40.0
    pts = [p for _, ps in datasets for p in ps]
    if not pts:
        raise ValueError("nothing to plot")
    if any(len(p) != 2 for p in pts):
        raise ValueError("SVG rendering supports two objectives only")
    if any(not math.isfinite(c) for p in pts for c in p):
        raise ValueError("cannot plot non-finite points")
    x_lo, x_hi = min(p[0] for p in pts), max(p[0] for p in pts)
    y_lo, y_hi = min(p[1] for p in pts), max(p[1] for p in pts)

    def sx(v):
        return _svg_coord(v, x_lo, x_hi, size, margin, flip=False)

    def sy(v):
        return _svg_coord(v, y_lo, y_hi, size, margin, flip=True)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size:g} {size:g}">',
        f'<rect width="{size:g}" height="{size:g}" fill="white"/>',
        f'<line x1="{margin:g}" y1="{size - margin:g}" x2="{size - margin:g}" '
        f'y2="{size - margin:g}" stroke="black"/>',
        f'<line x1="{margin:g}" y1="{margin:g}" x2="{margin:g}" '
        f'y2="{size - margin:g}" stroke="black"/>',
        f'<text x="{size - margin:g}" y="{size - margin / 4:g}" '
        f'text-anchor="end" font-size="16">f1</text>',
        f'<text x="{margin / 4:g}" y="{margin:g}" font-size="16">f2</text>',
        f'<text x="{margin:g}" y="{size - margin / 4:g}" font-size="12">'
        f'{x_lo:.6g} .. {x_hi:.6g}</text>',
        f'<text x="{margin / 4:g}" y="{size - margin:g}" font-size="12">'
        f'{y_lo:.6g} .. {y_hi:.6g}</text>',
    ]
    for di, (label, ps) in enumerate(datasets):
        color = _PALETTE[di % len(_PALETTE)]
        ordered = sorted(ps)
        if connect and len(ordered) > 1:
            path = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in ordered)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       f'stroke-width="1"/>')
        for p in ordered:
            out.append(f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="4" '
                       f'fill="{color}"/>')
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{size - margin:g}" y="{margin + 20 * di:g}" '
                   f'text-anchor="end" font-size="14" fill="{color}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
