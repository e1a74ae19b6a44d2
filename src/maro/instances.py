"""Finite instances of multicriteria three-stage min-max-min problems.

An :class:`Instance` holds the first-stage decisions, the uncertainty
scenarios, and for every (decision, scenario) pair a non-empty finite set of
objective vectors: the image of the recourse stage in objective space.  All
downstream operations (order relations, efficiency checks, scalarizations)
read only this image, so recourse feasibility sets never appear explicitly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Set as AbstractSet
from dataclasses import dataclass, field
from types import MappingProxyType

Vec = tuple[float, ...]

INF = math.inf


class InstanceError(ValueError):
    """An instance document violates the schema or an instance invariant."""


@dataclass(frozen=True)
class Tolerance:
    """Comparison policy for reals: ``a <= b`` is accepted iff ``a - b <= tau``.

    Infinite operands are compared exactly; the slack applies only between
    finite values.  ``tau`` must be non-negative.

    Each test is one float expression with no finiteness branch: with an
    infinite operand the difference is infinite, so comparing it with the
    finite ``tau`` is exact, or NaN, for equal infinities only, which the
    ``or`` of ``leq`` and ``eq`` accepts.  Between finite values the ``or``
    adds nothing.
    """

    tau: float = 1e-9

    def __post_init__(self):
        if not (self.tau >= 0.0) or math.isinf(self.tau):
            raise ValueError(f"tolerance must be a finite non-negative real, got {self.tau}")

    def leq(self, a: float, b: float) -> bool:
        return a - b <= self.tau or a <= b

    def lt(self, a: float, b: float) -> bool:
        return b - a > self.tau

    def eq(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.tau or a == b


DEFAULT_TOL = Tolerance()

# a set or a mapping iterates in an order its caller did not choose, so it
# is neither a point, whose order names the objectives, nor a recourse set,
# which is stored and written out in its caller's order
_UNORDERED = (AbstractSet, Mapping)


def _coordinate_error(c) -> str | None:
    """Why ``c`` is not a coordinate, or None if it is: the one coordinate
    rule, which :class:`Instance` and :func:`make_instance` both apply.  A
    coordinate is a finite real number that a float can hold, and not a
    boolean; ``math.isfinite`` reads every real type (int, float, Fraction)
    and refuses any other with ``TypeError``."""
    try:
        if math.isfinite(c) and type(c) is not bool:
            return None
    except TypeError:
        return f"coordinate must be a real number, got {c!r}"
    except OverflowError:  # an int, or a ratio, beyond the float range
        return "coordinate too large for a float"
    if type(c) is bool:
        return f"coordinate must be a real number, not a boolean, got {c!r}"
    return f"non-finite entry {c!r}"


@dataclass(frozen=True)
class Instance:
    """A validated finite problem instance.

    ``recourse`` maps every ``(decision, scenario)`` pair to a non-empty
    sequence of objective vectors of length ``n``; it is stored as a
    read-only copy of tuples, with every ``-0.0`` coordinate read as ``0.0``.
    Instances are immutable after construction.  ``_cache``, excluded from
    equality, is the one memo of derived values (fronts, scalar values,
    verdicts), keyed by a tuple naming the value and every argument it
    depends on.
    """

    name: str
    n: int
    decisions: tuple[str, ...]
    scenarios: tuple[str, ...]
    recourse: Mapping[tuple[str, str], tuple[Vec, ...]]
    sampled: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        recourse = dict(self.recourse)
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise InstanceError(f"n: objective count must be a positive integer, got {self.n!r}")
        for label, ids in (("decisions", self.decisions), ("scenarios", self.scenarios)):
            if not ids:
                raise InstanceError(f"{label}: must be non-empty")
            seen = set()
            for d in ids:
                if d in seen:
                    raise InstanceError(f"{label}: duplicate identifier {d!r}")
                seen.add(d)
        if not isinstance(self.sampled, bool):
            raise InstanceError("sampled: must be a boolean")
        rewrite = set()
        for x in self.decisions:
            for u in self.scenarios:
                path = f"recourse.{x}.{u}"
                pts = recourse.get((x, u))
                if pts is None:
                    raise InstanceError(f"{path}: missing recourse set at ({x},{u})")
                try:
                    size = len(pts)
                except TypeError:
                    raise InstanceError(f"{path}: recourse set must be a sequence of points, "
                                        f"got {pts!r}") from None
                if size == 0:
                    raise InstanceError(f"{path}: empty recourse set at ({x},{u})")
                if type(pts) is not tuple:
                    if type(pts) is not list and isinstance(pts, _UNORDERED):
                        raise InstanceError(f"{path}: recourse set must be an ordered sequence "
                                            f"of points, got a {type(pts).__name__}")
                    rewrite.add((x, u))
                for idx, p in enumerate(pts):
                    try:
                        length = len(p)
                    except TypeError:
                        raise InstanceError(f"{path}[{idx}]: point must be a sequence of "
                                            f"numbers, got {p!r}") from None
                    if length != self.n:
                        raise InstanceError(
                            f"{path}[{idx}]: expected {self.n} objectives, got {length}"
                        )
                    for c in p:
                        # a finite float is a coordinate; the rule judges the rest
                        if type(c) is not float or not math.isfinite(c):
                            why = _coordinate_error(c)
                            if why is not None:
                                raise InstanceError(f"{path}[{idx}]: {why}")
                    if type(p) is not tuple:
                        if type(p) is not list and isinstance(p, _UNORDERED):
                            raise InstanceError(f"{path}[{idx}]: point must be an ordered "
                                                f"sequence of numbers, got a {type(p).__name__}")
                        rewrite.add((x, u))
                    elif 0.0 in p and any(math.copysign(1.0, c) < 0 for c in p if c == 0.0):
                        rewrite.add((x, u))
        if len(recourse) != len(self.decisions) * len(self.scenarios):
            extra = set(recourse) - {
                (x, u) for x in self.decisions for u in self.scenarios
            }
            raise InstanceError(f"recourse: unexpected keys {sorted(extra)}")
        # -0.0 == 0.0 but prints differently; adding 0 reads it as 0.0 and
        # keeps every other value, so no value depends on the point order.
        # _cache memoizes fronts, scalar values and verdicts, so the data
        # behind them must be tuples: hashable, and fixed after first use
        for key in rewrite:
            recourse[key] = tuple(tuple(c + 0 for c in p) for p in recourse[key])
        object.__setattr__(self, "recourse", MappingProxyType(recourse))

    def __reduce__(self):
        # a mappingproxy does not pickle; rebuild from a plain copy, with an
        # empty memo
        return (type(self), (self.name, self.n, self.decisions, self.scenarios,
                             dict(self.recourse), self.sampled))

    def points(self, x: str, u: str) -> tuple[Vec, ...]:
        """Recourse image for a pair, with identifier checking."""
        try:
            return self.recourse[(x, u)]
        except KeyError:
            pass
        if x not in self.decisions:
            raise InstanceError(f"unknown decision {x!r}")
        raise InstanceError(f"unknown scenario {u!r}")


def make_instance(
    name: str,
    n: int,
    decisions: list[str] | tuple[str, ...],
    scenarios: list[str] | tuple[str, ...],
    recourse,
    sampled: bool = False,
) -> Instance:
    """Normalize raw containers (lists, int coordinates) into a validated
    Instance: each coordinate the coordinate rule accepts becomes a float,
    and everything else, ``n``, ``sampled`` and any set or mapping given as
    a recourse set or a point included, passes through for
    :class:`Instance` to refuse with its path.

    ``recourse`` may be keyed by ``(decision, scenario)`` tuples or nested
    ``{decision: {scenario: [...]}}`` dicts.
    """
    flat: dict[tuple[str, str], tuple[Vec, ...]] = {}
    if recourse and all(isinstance(k, tuple) for k in recourse):
        items = recourse.items()
    else:
        items = (((x, u), pts) for x, by_u in recourse.items() for u, pts in by_u.items())
    for key, pts in items:
        try:
            flat[key] = pts if isinstance(pts, _UNORDERED) else tuple(
                p if isinstance(p, _UNORDERED)
                else tuple(float(c) if _coordinate_error(c) is None else c for c in p)
                for p in pts)
        except TypeError:  # a recourse set or a point that is not iterable
            flat[key] = pts
    return Instance(
        name=str(name),
        n=n,
        decisions=tuple(str(d) for d in decisions),
        scenarios=tuple(str(u) for u in scenarios),
        recourse=flat,
        sampled=sampled,
    )


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise InstanceError(f"{path}: {msg}")


def load_instance(text: str) -> Instance:
    """Parse and validate the JSON instance schema.

    Every violation is reported with the offending document path.  Shape
    errors come first, in document order; :class:`Instance` then checks the
    instance rules (positive ``n``, distinct identifiers, complete recourse).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceError(f"$: not valid JSON ({e.msg} at line {e.lineno})") from None
    except ValueError as e:  # an integer literal beyond the digit limit of int()
        raise InstanceError(f"$: not valid JSON ({e})") from None
    except RecursionError:
        raise InstanceError("$: not valid JSON (nesting too deep)") from None
    _require(isinstance(doc, dict), "$", "document must be a JSON object")
    for key in ("name", "n", "decisions", "scenarios", "recourse"):
        _require(key in doc, key, "missing required field")
    unknown = set(doc) - {"name", "n", "decisions", "scenarios", "recourse", "sampled"}
    _require(not unknown, "$", f"unknown fields {sorted(unknown)}")
    _require(isinstance(doc["name"], str), "name", "must be a string")
    _require(isinstance(doc["n"], int) and not isinstance(doc["n"], bool), "n", "must be an integer")
    for key in ("decisions", "scenarios"):
        _require(isinstance(doc[key], list) and doc[key], key, "must be a non-empty array")
        for i, d in enumerate(doc[key]):
            _require(isinstance(d, str), f"{key}[{i}]", "identifiers must be strings")
    _require(isinstance(doc["recourse"], dict), "recourse", "must be an object")
    sampled = doc.get("sampled", False)
    _require(isinstance(sampled, bool), "sampled", "must be a boolean")

    decisions, scenarios = set(doc["decisions"]), set(doc["scenarios"])
    recourse = {}
    for x, by_u in doc["recourse"].items():
        _require(x in decisions, f"recourse.{x}", "not a declared decision")
        _require(isinstance(by_u, dict), f"recourse.{x}", "must be an object")
        for u, pts in by_u.items():
            path = f"recourse.{x}.{u}"
            _require(u in scenarios, path, "not a declared scenario")
            _require(isinstance(pts, list), path, "must be an array of points")
            points = []
            for i, p in enumerate(pts):
                if not isinstance(p, list):
                    raise InstanceError(f"{path}[{i}]: point must be an array")
                for c in p:
                    # a JSON number parses to exactly int or float, true/false to bool
                    if type(c) not in (int, float):
                        raise InstanceError(f"{path}[{i}]: coordinates must be numbers, "
                                            f"got {c!r}")
                try:
                    points.append(tuple(map(float, p)))
                except OverflowError:
                    raise InstanceError(f"{path}[{i}]: integer coordinate too large "
                                        f"for a float") from None
            recourse[(x, u)] = tuple(points)
    return Instance(
        name=doc["name"],
        n=doc["n"],
        decisions=tuple(doc["decisions"]),
        scenarios=tuple(doc["scenarios"]),
        recourse=recourse,
        sampled=sampled,
    )


def _fmt(v: float) -> str:
    # 17 significant digits round-trips every float64 exactly.
    return f"{v:.17g}"


def dump_instance(inst: Instance) -> str:
    """Serialize to the JSON instance schema with 17-significant-digit reals.

    Output bytes are deterministic for equal instances; ``sampled`` is
    emitted only when set, so minimal documents keep the minimal schema.
    """
    lines = ["{"]
    lines.append(f'  "name": {json.dumps(inst.name)},')
    lines.append(f'  "n": {inst.n},')
    lines.append(f'  "decisions": {json.dumps(list(inst.decisions))},')
    lines.append(f'  "scenarios": {json.dumps(list(inst.scenarios))},')
    if inst.sampled:
        lines.append('  "sampled": true,')
    lines.append('  "recourse": {')
    for xi, x in enumerate(inst.decisions):
        lines.append(f'    {json.dumps(x)}: {{')
        for ui, u in enumerate(inst.scenarios):
            pts = ", ".join(
                "[" + ", ".join(_fmt(c) for c in p) + "]" for p in inst.recourse[(x, u)]
            )
            comma = "," if ui + 1 < len(inst.scenarios) else ""
            lines.append(f'      {json.dumps(u)}: [{pts}]{comma}')
        comma = "," if xi + 1 < len(inst.decisions) else ""
        lines.append(f'    }}{comma}')
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
