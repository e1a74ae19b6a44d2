"""Command line entry point.

Non-interactive; JSON on stdout (unless another format is selected),
diagnostics on stderr.  Exit codes: 0 success, 1 check failure, 2 usage or
input error.

Building the parser needs only ``instances`` and ``fixtures``; every other
module is imported by the subcommand that runs it, so a process loads only
what its command uses.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .fixtures import FIXTURE_NAMES, fixture, fixture_meta
from .instances import (
    DEFAULT_TOL, Instance, InstanceError, Tolerance, _fmt, dump_instance, load_instance
)


class UsageError(Exception):
    pass


def _jsonable(obj):
    if isinstance(obj, float):
        if obj == math.inf:
            return "+inf"
        if obj == -math.inf:
            return "-inf"
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit_json(doc):
    sys.stdout.write(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n")


def _add_instance_args(p: argparse.ArgumentParser):
    p.add_argument("--instance", metavar="FILE", help="instance JSON document")
    p.add_argument("--fixture", metavar="NAME",
                   help=f"built-in instance ({', '.join(FIXTURE_NAMES)})")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL.tau,
                   help="comparison tolerance (default 1e-9)")


def _load(args) -> tuple[Instance, Tolerance]:
    if bool(args.instance) == bool(args.fixture):
        raise UsageError("exactly one of --instance or --fixture is required")
    tol = Tolerance(args.tol)
    if args.fixture:
        return fixture(args.fixture), tol
    try:
        with open(args.instance, encoding="utf-8") as fh:
            return load_instance(fh.read()), tol
    except OSError as e:
        raise UsageError(f"cannot read {args.instance}: {e.strerror}") from None


def _parse_weight(text: str):
    from .relations import Weight

    try:
        return Weight(tuple(float(c) for c in text.split(",")))
    except ValueError as e:
        raise UsageError(f"bad --lambda {text!r}: {e}") from None


def _gen_bound(text: str, j: int):
    """``GenBound`` of ``--eps``, where '_' may mark slot ``--j``, checked first."""
    from .scalarize import GenBound

    tokens = text.split(",")
    eps = []
    for token in tokens:
        try:
            eps.append(0.0 if token.strip() == "_" else float(token))
        except ValueError:
            raise UsageError(f"bad --eps entry {token!r}") from None
    gb = GenBound(tuple(eps), j)
    for i, token in enumerate(tokens):
        if token.strip() == "_" and i != j - 1:
            raise UsageError(f"placeholder '_' only allowed in slot {j} (the minimized one)")
    return gb


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise UsageError(f"cannot read {what}: {e}") from None


def _point(entry, path: str) -> tuple[float, ...]:
    """A JSON array of numbers, as floats; a boolean, string, NaN or integer
    beyond the float range is refused with its document path."""
    if not isinstance(entry, list):
        raise UsageError(f"{path}: cannot interpret as a point")
    out = []
    for k, c in enumerate(entry):
        if isinstance(c, bool) or not isinstance(c, (int, float)) or c != c:
            raise UsageError(f"{path}[{k}]: expected a number, got {json.dumps(c)}")
        try:
            out.append(float(c))
        except OverflowError:
            raise UsageError(f"{path}[{k}]: integer too large for a float") from None
    return tuple(out)


def _cmd_validate(args) -> int:
    inst, _ = _load(args)
    _emit_json({
        "ok": True,
        "name": inst.name,
        "n": inst.n,
        "decisions": list(inst.decisions),
        "scenarios": list(inst.scenarios),
        "points": sum(len(v) for v in inst.recourse.values()),
        "sampled": inst.sampled,
    })
    return 0


def _cmd_fixtures(args) -> int:
    if args.dump:
        sys.stdout.write(dump_instance(fixture(args.dump)))
        return 0
    _emit_json({"fixtures": {name: fixture_meta(name) for name in FIXTURE_NAMES}})
    return 0


def _cmd_efficiency(args) -> int:
    from .efficiency import Kind, maro_efficient, mro_efficient
    from .relations import Strictness, parse_relation

    inst, tol = _load(args)
    strictness = Strictness(args.strictness)
    kind = Kind(args.kind)
    if args.mro:
        if args.rel is not None:
            raise UsageError(f"--rel {args.rel}: --mro checks take their vector relation "
                             f"from --strict, --plain or --weak")
        verdict = mro_efficient(inst, args.x, kind, strictness, tol)
        relation = strictness.value
    else:
        spec = parse_relation("l" if args.rel is None else args.rel)
        relation = spec.family.value
        if spec.lam is not None:
            relation += ":" + ",".join(map(repr, spec.lam))
        if kind is Kind.POINT_BASED:
            raise UsageError("point-based is a two-stage notion; add --mro "
                             "or use solve-pb")
        verdict = maro_efficient(inst, args.x, kind, strictness, spec, tol)
    doc = {
        "instance": inst.name,
        "x": args.x,
        "kind": kind.value,
        "strictness": strictness.value,
        "relation": relation,
        "efficient": verdict.efficient,
        "witness": None if verdict.efficient else {
            "xprime": verdict.witness.xprime,
            "scenarios": {u: xp for u, xp in verdict.witness.scenario_map},
        },
    }
    _emit_json(doc)
    return 0


def _cmd_solve_ws(args) -> int:
    from .relations import Strictness
    from .scalarize import ws_efficient_set

    inst, tol = _load(args)
    lam = _parse_weight(args.lam)
    sel = ws_efficient_set(inst, lam, Strictness(args.strictness), tol)
    _emit_json({
        "concept": "ws",
        "lambda": list(lam.values),
        "strictness": args.strictness,
        "efficient": list(sel.decisions),
        "guarantees": sel.guarantees,
        "strict_empty_tie": sel.strict_empty_tie,
        "plain_guarantee": sel.plain_guarantee,
    })
    return 0


def _cmd_solve_eps(args) -> int:
    from .relations import Strictness
    from .scalarize import eps_efficient_set

    inst, tol = _load(args)
    gb = _gen_bound(args.eps, args.j)
    sel = eps_efficient_set(inst, gb, Strictness(args.strictness), tol)
    _emit_json({
        "concept": "eps",
        "eps": list(gb.eps),
        "j": gb.j,
        "strictness": args.strictness,
        "efficient": list(sel.decisions),
        "guarantees": sel.guarantees,
        "strict_empty_tie": sel.strict_empty_tie,
        "plain_guarantee": sel.plain_guarantee,
        "infeasible": sel.infeasible,
    })
    return 0


def _cmd_solve_pb(args) -> int:
    from .relations import Strictness
    from .scalarize import f_pb, pb_efficient_set

    inst, tol = _load(args)
    efficient = pb_efficient_set(inst, Strictness(args.strictness), tol)
    _emit_json({
        "strictness": args.strictness,
        "efficient": list(efficient),
        "fpb": {x: list(f_pb(inst, x)) for x in inst.decisions},
    })
    return 0


def _points_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"


# (attribute, option, the image that reads it)
_IMAGE_OPTIONS = (("lam", "--lambda", "ws"), ("grid_k", "--grid-k", "ws"),
                  ("eps", "--eps", "eps"), ("eps_list", "--eps-list", "eps"), ("j", "--j", "eps"))


def _image(args, inst: Instance, tol: Tolerance) -> tuple[dict, list[str], list[list]]:
    """The JSON document, CSV header and point rows of ``image args.what``;
    the rows of an infeasible constraint image are empty.  An option the
    image would not read is refused."""
    from .images import WeightGrid, image_eps, image_eps_grid, image_pb, image_ws, image_ws_grid
    from .scalarize import GenBound

    for attr, option, what in _IMAGE_OPTIONS:
        if getattr(args, attr) is not None and what != args.what:
            raise UsageError(f"{option} does not apply to the {args.what} image")
    if args.grid_k is not None and args.lam is not None:
        raise UsageError("--grid-k and --lambda are exclusive")
    if args.eps_list is not None and args.eps is not None:
        raise UsageError("--eps-list and --eps are exclusive")
    n = inst.n
    if args.what == "ws":
        if args.grid_k is not None:
            grid = WeightGrid(n, args.grid_k)
            tagged = image_ws_grid(inst, grid, tol)
            doc = {"concept": "ws", "grid_k": args.grid_k,
                   "points": [{"lambda": list(l), "point": list(p)} for l, p in tagged]}
            rows = [list(l) + list(p) for l, p in tagged]
            header = [f"lambda_{i+1}" for i in range(n)] + [f"f{i+1}" for i in range(n)]
        elif args.lam:
            lam = _parse_weight(args.lam)
            pts = image_ws(inst, lam, tol)
            doc = {"concept": "ws", "lambda": list(lam.values),
                   "points": [list(p) for p in pts]}
            rows = [list(p) for p in pts]
            header = [f"f{i+1}" for i in range(n)]
        else:
            raise UsageError("image ws needs --lambda or --grid-k")
    elif args.what == "eps":
        if args.j is None:
            raise UsageError("image eps needs --j")
        if args.eps_list:
            doc = _read_json(args.eps_list, "--eps-list")
            if not isinstance(doc, list) or not doc:
                raise UsageError(f"--eps-list: must be a non-empty array of length-{n} arrays")
            eps_values = [_point(e, f"--eps-list[{i}]") for i, e in enumerate(doc)]
            for i, eps in enumerate(eps_values):
                if len(eps) != n:
                    raise UsageError(f"--eps-list[{i}]: expected {n} entries, got {len(eps)}")
            img = image_eps_grid(inst, tuple(GenBound(e, args.j) for e in eps_values), tol)
            doc = {"concept": "eps", "j": args.j,
                   "points": [list(p) for p in img.points],
                   "infeasible": [list(p) for p in img.infeasible]}
            rows = [list(p) for p in img.points]
        elif args.eps:
            gb = _gen_bound(args.eps, args.j)
            one = image_eps(inst, gb, tol)
            doc = {"concept": "eps", "j": args.j, "point": list(one.point),
                   "feasible": one.feasible}
            rows = [list(one.point)] if one.feasible else []
        else:
            raise UsageError("image eps needs --eps or --eps-list")
        header = [f"f{i+1}" for i in range(n)]
    else:
        pts = image_pb(inst, tol)
        doc = {"concept": "pb", "points": [list(p) for p in pts]}
        rows = [list(p) for p in pts]
        header = [f"f{i+1}" for i in range(n)]
    return doc, header, rows


def _cmd_image(args) -> int:
    inst, tol = _load(args)
    doc, header, rows = _image(args, inst, tol)
    if args.format == "csv":
        sys.stdout.write(_points_csv(header, rows))
    else:
        _emit_json(doc)
    return 0


def _extract_points(doc) -> list[tuple[float, ...]]:
    path = "--in"
    if isinstance(doc, dict):
        if "points" in doc:
            doc, path = doc["points"], "--in.points"
        elif "point" in doc:
            return [_point(doc["point"], "--in.point")]
        else:
            raise UsageError("input JSON has no 'points' field")
    if not isinstance(doc, list):
        raise UsageError(f"{path}: must be a point list or an image document")
    pts = []
    for i, entry in enumerate(doc):
        where = f"{path}[{i}]"
        if isinstance(entry, dict):
            entry, where = entry.get("point"), f"{where}.point"
        pts.append(_point(entry, where))
    return pts


# (attribute, option) of the instance mode, which plot --in does not read
_PLOT_INSTANCE_OPTIONS = (("what", "--what"), ("lam", "--lambda"), ("eps", "--eps"),
                          ("j", "--j"), ("instance", "--instance"), ("fixture", "--fixture"))


def _cmd_plot(args) -> int:
    from .images import render_svg

    if args.infile:
        for attr, option in _PLOT_INSTANCE_OPTIONS:
            if getattr(args, attr) is not None:
                raise UsageError(f"{option} does not apply to plot --in")
        doc = _read_json(args.infile, args.infile)
        label, points = args.label or "points", _extract_points(doc)
    else:
        inst, tol = _load(args)
        if args.what is None:
            raise UsageError("plot needs --in FILE or --what ws|eps|pb")
        if args.what == "ws" and not args.lam:
            raise UsageError("plot --what ws needs --lambda")
        if args.what == "eps" and (not args.eps or args.j is None):
            raise UsageError("plot --what eps needs --eps and --j")
        label = args.label or args.what
        _, _, points = _image(args, inst, tol)
        if args.what == "eps" and not points:
            raise UsageError("constraint image is infeasible; nothing to plot")
    svg = render_svg([(label, points)], connect=args.connect)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as e:
            raise UsageError(f"cannot write {args.out}: {e.strerror}") from None
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(svg)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_battery

    report = run_battery(args.seed, args.count, args.check or None,
                         jitter=args.jitter, tol=Tolerance(args.tol))
    sys.stdout.write(report.to_json())
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    from .images import compare_concepts

    inst, tol = _load(args)
    lam = _parse_weight(args.lam)
    gb = _gen_bound(args.eps, args.j)
    table = compare_concepts(inst, lam, gb, tol)
    if args.format == "md":
        sys.stdout.write(_compare_md(table))
    else:
        _emit_json(table)
    return 0


def _compare_md(t: dict) -> str:
    ws, eps, pb = t["weighted_sum"], t["constraint"], t["point_based"]
    rows = [
        ("efficient (plain)", ws["plain"], eps["plain"], pb["plain"]),
        ("efficient (strict)", ws["strict"], eps["strict"], pb["strict"]),
        ("guarantee", ws["guarantee"], eps["guarantee"], "trivial bounds only"),
        ("bounds hold", ws["bounds_hold"], eps["bounds_hold"], "-"),
        ("image", ws["image"], eps["image"], pb["image"]),
        ("image nondominance", ws["image_weakly_nondominated"],
         "weakly nondominated by construction", pb["image_nondominated"]),
    ]
    lines = [
        f"# Concept comparison on {t['instance']}",
        "",
        f"lambda = {t['lambda']}, eps = {_jsonable(t['eps'])}, j = {t['j']}",
        "",
        "| property | weighted sum | constraint | point-based |",
        "|---|---|---|---|",
    ]
    for name, a, b, c in rows:
        lines.append(f"| {name} | {_jsonable(a)} | {_jsonable(b)} | {_jsonable(c)} |")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="maro",
        description="Efficiency concepts for multicriteria adjustable robustness "
                    "on finite instances.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an instance document")
    _add_instance_args(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("fixtures", help="list built-in instances")
    p.add_argument("--dump", metavar="NAME", help="print one fixture as JSON")
    p.set_defaults(fn=_cmd_fixtures)

    p = sub.add_parser("efficiency", help="three-stage (or --mro two-stage) efficiency check")
    _add_instance_args(p)
    p.add_argument("--x", required=True, help="decision to test")
    # the values of efficiency.Kind, spelled out so that building the parser
    # does not import efficiency (a test pins them to Kind)
    p.add_argument("--kind", required=True,
                   choices=("flimsy", "highly", "multi-scenario", "point-based"))
    g = p.add_mutually_exclusive_group()
    g.add_argument("--strict", dest="strictness", action="store_const", const="strict")
    g.add_argument("--weak", dest="strictness", action="store_const", const="weak")
    g.add_argument("--plain", dest="strictness", action="store_const", const="plain")
    p.add_argument("--rel",
                   help="set relation u, l or lmin:<csv> (default l) of a three-stage "
                        "check, whose strictness follows the notion")
    p.add_argument("--mro", action="store_true",
                   help="evaluate the two-stage robust notion (singleton recourse), "
                        "whose vector relation follows --strict, --plain or --weak")
    p.set_defaults(fn=_cmd_efficiency, strictness="strict")

    p = sub.add_parser("solve-ws", help="weighted-sum efficient set")
    _add_instance_args(p)
    p.add_argument("--lambda", dest="lam", required=True, metavar="CSV")
    p.add_argument("--strictness", choices=["plain", "strict"], default="plain")
    p.set_defaults(fn=_cmd_solve_ws)

    p = sub.add_parser("solve-eps", help="constraint efficient set")
    _add_instance_args(p)
    p.add_argument("--eps", required=True, metavar="CSV",
                   help="generating bound; '_' may mark the minimized slot")
    p.add_argument("--j", type=int, required=True, help="minimized objective (1-based)")
    p.add_argument("--strictness", choices=["plain", "strict"], default="plain")
    p.set_defaults(fn=_cmd_solve_eps)

    p = sub.add_parser("solve-pb", help="point-based efficient set")
    _add_instance_args(p)
    p.add_argument("--strictness", choices=["strict", "plain", "weak"], default="plain")
    p.set_defaults(fn=_cmd_solve_pb)

    p = sub.add_parser("image", help="objective-space image of a concept")
    _add_instance_args(p)
    p.add_argument("what", choices=["ws", "eps", "pb"])
    p.add_argument("--lambda", dest="lam", metavar="CSV")
    p.add_argument("--grid-k", type=int, help="weight simplex resolution")
    p.add_argument("--eps", metavar="CSV")
    p.add_argument("--eps-list", metavar="FILE", help="JSON array of bound vectors")
    p.add_argument("--j", type=int)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_cmd_image)

    p = sub.add_parser("plot", help="render an image set as SVG (two objectives)")
    _add_instance_args(p)
    p.add_argument("--in", dest="infile", metavar="FILE",
                   help="point list or image JSON from 'maro image'")
    p.add_argument("--label", help="legend label (default: points, or the --what image)")
    p.add_argument("--what", choices=["ws", "eps", "pb"])
    p.add_argument("--lambda", dest="lam", metavar="CSV")
    p.add_argument("--eps", metavar="CSV")
    p.add_argument("--j", type=int)
    p.add_argument("--connect", action="store_true", help="trace points with a polyline")
    p.add_argument("--format", choices=["svg"], default="svg")
    p.add_argument("--out", metavar="FILE")
    # the image options plot does not offer, so that it can share _image
    p.set_defaults(fn=_cmd_plot, grid_k=None, eps_list=None)

    p = sub.add_parser("verify", help="run the property harness on generated instances")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--check", action="append", metavar="ID",
                   help="restrict to one check id (repeatable)")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="add uniform coordinate noise below this bound")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL.tau)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("compare", help="side-by-side concept comparison")
    _add_instance_args(p)
    p.add_argument("--lambda", dest="lam", required=True, metavar="CSV")
    p.add_argument("--eps", required=True, metavar="CSV")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.set_defaults(fn=_cmd_compare)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, InstanceError, ValueError) as e:
        print(f"maro: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
