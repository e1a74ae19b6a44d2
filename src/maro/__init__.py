"""Multicriteria adjustable robustness on finite instances.

Library surface: instance model and JSON I/O, vector and set order
relations, nondominance primitives, three-stage efficiency checkers, the
three scalarization concepts with guarantees and bounds, objective-space
images, and a seeded verification harness.

The submodules are imported on first use (PEP 562), so ``import maro`` and
each CLI subcommand load only the modules they need.  The first access of a
name imports its defining module and stores the value in the package.  A
value that wraps another (it has ``__wrapped__``, as a tracer's or a
decorator's wrapper does) is not stored: such a binding is temporary, and
the package keeps reading the module's binding until it is restored.
"""

import importlib

# public names by defining module
_NAMES = {
    "efficiency": ("Kind", "SmaroResult", "Verdict", "Witness", "maro_efficient",
                   "mro_efficient", "smaro_set"),
    "fixtures": ("FIXTURE_NAMES", "fixture", "fixture_meta"),
    "images": ("EpsGridImage", "EpsImagePoint", "WeightGrid", "compare_concepts",
               "image_eps", "image_eps_grid", "image_pb", "image_ws", "image_ws_grid",
               "render_svg", "simplex_grid", "ws_image_gaps"),
    "instances": ("INF", "DEFAULT_TOL", "Instance", "InstanceError", "Tolerance",
                  "Vec", "dump_instance", "load_instance", "make_instance"),
    "pareto": ("FrontSet", "Orientation", "ideal", "inner_efficient", "nondominated"),
    "relations": ("SetRelFamily", "SetRelSpec", "Strictness", "VecRel", "Weight",
                  "parse_relation", "set_cmp", "vec_cmp"),
    "scalarize": ("GenBound", "Selection", "check_eps_bound", "check_ws_bound",
                  "eps_efficient_set", "f_eps_j", "f_lambda", "f_pb", "pb_efficient_set",
                  "pb_trivial_bounds", "ws_efficient_set"),
    "verify": ("BatteryReport", "CheckReport", "GenConfig", "check_instance", "generate",
               "run_battery"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted((*_HOME, *_NAMES))
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        if name in _NAMES:
            return importlib.import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    if not hasattr(value, "__wrapped__"):
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
