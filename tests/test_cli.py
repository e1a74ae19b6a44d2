"""Command line surface: formats, exit codes, determinism."""

import contextlib
import errno
import importlib
import io
import json
import os
import re
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import maro
from maro import Kind, dump_instance, fixture
from maro.cli import build_parser, main
from maro.images import image_pb, render_svg

from conftest import record_stores


_FIG2L = ["--fixture", "FIG2L"]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", "--fixture", "FIG2L")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["decisions"] == ["x1", "x2"]


def test_validate_bad_document_names_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "n": 2, "decisions": ["x1"], "scenarios": ["u1", "u2"],
        "recourse": {"x1": {"u1": [[1, 2]], "u2": []}},
    }))
    code, _, err = run(capsys, "validate", "--instance", str(bad))
    assert code == 2
    assert "empty recourse set at (x1,u2)" in err


@pytest.mark.parametrize("literal, path", [
    ("9" * 401, "recourse.x1.u1[0]: integer coordinate too large for a float"),
    ("-" + "9" * 401, "recourse.x1.u1[0]: integer coordinate too large for a float"),
    ("9" * 5000, "$: not valid JSON (Exceeds the limit"),
])
def test_validate_oversized_coordinate_names_path(tmp_path, capsys, literal, path):
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({
        "name": "big", "n": 1, "decisions": ["x1"], "scenarios": ["u1"],
        "recourse": {"x1": {"u1": [[0]]}},
    }).replace("[[0]]", f"[[{literal}]]"))
    code, out, err = run(capsys, "validate", "--instance", str(doc))
    assert code == 2 and out == ""
    assert err.startswith(f"maro: {path}") and "Traceback" not in err


def test_validate_deeply_nested_document(tmp_path, capsys):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "validate", "--instance", str(doc))
    assert code == 2 and out == ""
    assert err == "maro: $: not valid JSON (nesting too deep)\n"


def test_validate_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "validate", "--fixture", "FIG2L", "--instance", "x.json")
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "--instance", "/nonexistent.json")
    assert code == 2 and "cannot read" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--fixture", "FIG2L", "--bogus"])
    assert exc.value.code == 2


def test_solve_pb_matches_figure(tmp_path, capsys):
    f = tmp_path / "fig4.json"
    f.write_text(dump_instance(fixture("FIG4")))
    code, out, _ = run(capsys, "solve-pb", "--instance", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["efficient"] == ["x1", "x2"]
    assert doc["fpb"]["x1"] == [1, 6]
    assert doc["fpb"]["x2"] == [8, 4]


def test_solve_pb_computes_each_value_once(capsys, monkeypatch):
    logs = []

    def recording(name):
        inst = fixture(name)
        logs.append(record_stores(inst))
        return inst

    monkeypatch.setattr("maro.cli.fixture", recording)
    code, out, _ = run(capsys, "solve-pb", "--fixture", "FIG6L")
    assert code == 0 and json.loads(out)["efficient"]
    (stored,) = logs
    values = [key for key in stored if key[0] == "pb"]
    assert sorted(values) == [("pb", x) for x in fixture("FIG6L").decisions]


def test_solve_ws(capsys):
    code, out, _ = run(capsys, "solve-ws", "--fixture", "FIG2L", "--lambda", "0.5,0.5")
    doc = json.loads(out)
    assert code == 0
    assert doc["efficient"] == ["x2"] and doc["guarantees"]["x2"] == 5


@pytest.mark.parametrize("points", [[[1e308, -1e308], [0, 5]], [[0, 5], [1e308, -1e308]]])
@pytest.mark.parametrize("x", ["a", "b"])
def test_nan_weighted_minimum_is_a_usage_error(tmp_path, capsys, points, x):
    # an unnormalized weight overflows two products to opposite infinities
    doc = tmp_path / "nan.json"
    doc.write_text(json.dumps({
        "name": "nan", "n": 2, "decisions": ["a", "b"], "scenarios": ["u"],
        "recourse": {"a": {"u": points}, "b": {"u": [[0, 0]]}},
    }))
    code, out, err = run(capsys, "efficiency", "--instance", str(doc), "--x", x,
                         "--kind", "highly", "--rel", "lmin:2,2")
    assert (code, out, err) == (2, "", "maro: recourse.a.u: point (1e+308, -1e+308) has a "
                                       "NaN weighted sum under weights (2.0, 2.0)\n")


@pytest.mark.parametrize("lam", ["nan,1", "1,nan", "inf,1"])
def test_non_finite_weights_are_usage_errors(capsys, lam):
    code, out, err = run(capsys, "solve-ws", "--fixture", "FIG2L", "--lambda", lam)
    assert (code, out) == (2, "") and err.startswith("maro: ") and "finite" in err
    code, out, err = run(capsys, "efficiency", "--fixture", "FIG2L", "--x", "x1",
                         "--kind", "flimsy", "--rel", f"lmin:{lam}")
    assert (code, out) == (2, "") and err.startswith("maro: ") and "finite" in err


def test_solve_eps_with_placeholder(capsys):
    code, out, _ = run(capsys, "solve-eps", "--fixture", "FIG2L",
                       "--eps", "_,7", "--j", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["efficient"] == ["x2"] and doc["guarantees"]["x2"] == 7


def test_solve_eps_infinite_guarantee_serializes(capsys):
    code, out, _ = run(capsys, "solve-eps", "--fixture", "FIG2L",
                       "--eps", "_,4", "--j", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["infeasible"] is True
    assert doc["guarantees"]["x1"] == "+inf"


def test_solve_eps_misplaced_placeholder(capsys):
    code, _, err = run(capsys, "solve-eps", "--fixture", "FIG2L",
                       "--eps", "7,_", "--j", "1")
    assert code == 2 and "placeholder" in err


@pytest.mark.parametrize("command", [
    ("solve-eps",), ("image", "eps"), ("compare", "--lambda", "0.5,0.5"),
])
@pytest.mark.parametrize("eps,j", [("_,5", "3"), ("_,5", "0"), ("5,_", "0"), ("5,_", "-1")])
def test_eps_index_is_checked_before_the_placeholder(capsys, command, eps, j):
    # a placeholder can only be misplaced relative to a valid index
    code, out, err = run(capsys, *command, "--fixture", "FIG4", "--eps", eps, "--j", j)
    assert (code, out, err) == (2, "", f"maro: objective index must lie in 1..2, got {j}\n")


def test_efficiency_multi_scenario(capsys):
    code, out, _ = run(capsys, "efficiency", "--fixture", "FIG2R", "--x", "x1",
                       "--kind", "multi-scenario", "--strict", "--rel", "l")
    doc = json.loads(out)
    assert code == 0
    assert doc["efficient"] is False
    assert doc["witness"]["xprime"] == "x2"
    assert doc["witness"]["scenarios"] == {"u1": "x2", "u2": "x2"}


def test_efficiency_lambda_min_relation(capsys):
    code, out, _ = run(capsys, "efficiency", "--fixture", "FIG2L", "--x", "x2",
                       "--kind", "flimsy", "--weak", "--rel", "lmin:0.5,0.5")
    assert code == 0
    assert json.loads(out)["efficient"] is True


@pytest.mark.parametrize("lam", ["1", "1,1,1"])
def test_efficiency_weight_length_must_match(capsys, lam):
    code, out, err = run(capsys, "efficiency", "--fixture", "FIG2L", "--x", "x1",
                         "--kind", "flimsy", "--rel", f"lmin:{lam}")
    assert (code, out) == (2, "")
    assert err.startswith("maro: weight vector has length ") and "points have 2" in err


@pytest.mark.parametrize("spellings, relation", [
    (("l", " l "), "l"),
    (("u", "u\n"), "u"),
    (("lmin:0.5,0.5", " lmin:.5,5e-1"), "lmin:0.5,0.5"),
    (("lmin:1,1.0", " lmin:1.0,1"), "lmin:1.0,1.0"),
])
def test_efficiency_reports_the_parsed_relation(capsys, spellings, relation):
    # the document names the relation that decided, not the text of --rel
    outs = []
    for rel in spellings:
        code, out, _ = run(capsys, "efficiency", "--fixture", "FIG2L", "--x", "x1",
                           "--kind", "flimsy", "--rel", rel)
        assert code == 0
        outs.append(out)
    assert json.loads(outs[0])["relation"] == relation
    assert outs == outs[:1] * len(spellings)


def test_efficiency_vector_relation_requires_mro(capsys):
    # --rel selects a set relation only; a vector relation is reached through
    # --mro and a strictness flag
    code, out, err = run(capsys, "efficiency", "--fixture", "FIG2L", "--x", "x1",
                         "--kind", "flimsy", "--rel", "leqq")
    assert (code, out) == (2, "")
    assert err == "maro: unknown relation 'leqq'; expected one of u, l, lmin:<csv>\n"


def test_efficiency_mro_point_based(capsys):
    code, out, _ = run(capsys, "efficiency", "--fixture", "FIG2L", "--x", "x2",
                       "--kind", "point-based", "--plain", "--mro")
    assert code == 0
    assert json.loads(out)["efficient"] is True


def test_efficiency_default_relation_is_lower_strict(capsys):
    base = ("efficiency", "--fixture", "FIG2R", "--x", "x1", "--kind", "flimsy")
    code, out, _ = run(capsys, *base)
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "l" and doc["strictness"] == "strict"
    assert run(capsys, *base, "--strict", "--rel", "l") == (0, out, "")


@pytest.mark.parametrize("flags", [
    ("--strict", "--rel", "lmin:1,0"),
    ("--rel", "l"),
    ("--weak", "--rel", "leqq"),
    ("--strict", "--rel", "lt"),
    ("--plain", "--rel", "leqq"),
    ("--rel", "banana"),
])
def test_efficiency_mro_rejects_conflicting_relation(capsys, flags):
    # the strictness flag selects the two-stage vector relation; any --rel
    # conflicts with it
    code, out, err = run(capsys, "efficiency", "--fixture", "FIG2L", "--x", "x1",
                         "--kind", "flimsy", "--mro", *flags)
    rel = flags[flags.index("--rel") + 1]
    assert (code, out) == (2, "")
    assert err == (f"maro: --rel {rel}: --mro checks take their vector relation "
                   f"from --strict, --plain or --weak\n")


@pytest.mark.parametrize("rel", ["l-strict", "u-strict", "lmin-strict:0.5,0.5"])
def test_efficiency_rejects_strict_suffix_on_three_stage_relation(capsys, rel):
    # the notion fixes the deciding relation's strictness, so no selector
    # names a variant
    for flags in ((), ("--weak",), ("--kind", "highly")):
        code, out, err = run(capsys, "efficiency", "--fixture", "FIG2R", "--x", "x1",
                             "--kind", "flimsy", "--rel", rel, *flags)
        assert (code, out) == (2, "")
        assert err == f"maro: unknown relation {rel!r}; expected one of u, l, lmin:<csv>\n"
    with pytest.raises(SystemExit):
        main(["efficiency", "--help"])
    assert "[-strict]" not in capsys.readouterr().out


@pytest.mark.parametrize("flags, strictness", [
    ((), "strict"),
    (("--weak",), "weak"),
    (("--plain",), "plain"),
    (("--weak", "--kind", "highly"), "weak"),
    (("--plain", "--kind", "multi-scenario"), "plain"),
])
def test_efficiency_mro_reports_agreeing_strictness(capsys, flags, strictness):
    code, out, _ = run(capsys, "efficiency", "--fixture", "FIG2L", "--x", "x1",
                       "--kind", "flimsy", "--mro", *flags)
    doc = json.loads(out)
    assert code == 0
    assert doc["strictness"] == doc["relation"] == strictness


def test_efficiency_mro_rejects_multipoint_recourse(capsys):
    code, _, err = run(capsys, "efficiency", "--fixture", "FIG4", "--x", "x1",
                       "--kind", "point-based", "--mro")
    assert code == 2 and "singleton recourse" in err


def test_image_ws_grid_json_and_csv(capsys):
    code, out, _ = run(capsys, "image", "ws", "--fixture", "FIG2L", "--grid-k", "2")
    assert code == 0
    doc = json.loads(out)
    assert {"lambda", "point"} <= set(doc["points"][0])
    code, out, _ = run(capsys, "image", "ws", "--fixture", "FIG2L", "--grid-k", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda_1,lambda_2,f1,f2"
    assert len(lines) > 1


def test_image_eps_single_and_list(tmp_path, capsys):
    code, out, _ = run(capsys, "image", "eps", "--fixture", "FIG2L",
                       "--eps", "_,6", "--j", "1")
    doc = json.loads(out)
    assert code == 0 and doc["point"] == [7, 6] and doc["feasible"]
    code, out, _ = run(capsys, "image", "eps", "--fixture", "FIG2L",
                       "--eps", "_,-inf", "--j", "1")
    doc = json.loads(out)
    assert code == 0 and doc["point"] == ["+inf", "-inf"] and doc["feasible"] is False

    eps_file = tmp_path / "eps.json"
    eps_file.write_text(json.dumps([[0, 5], [0, 6], [0, 7], [0, 8]]))
    code, out, _ = run(capsys, "image", "eps", "--fixture", "FIG2L",
                       "--eps-list", str(eps_file), "--j", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["points"] == [[7, 6], [7, 7], [7, 8]]
    assert doc["infeasible"] == [["+inf", 5]]


def test_image_pb(capsys):
    code, out, _ = run(capsys, "image", "pb", "--fixture", "FIG4")
    doc = json.loads(out)
    assert code == 0 and doc["points"] == [[1, 6], [8, 4]]


def test_image_requires_parameters(capsys):
    code, _, err = run(capsys, "image", "ws", "--fixture", "FIG2L")
    assert code == 2 and "--lambda or --grid-k" in err
    code, _, err = run(capsys, "image", "eps", "--fixture", "FIG2L", "--j", "1")
    assert code == 2 and "--eps" in err


@pytest.mark.parametrize("entries,message", [
    ([[0, None]], "--eps-list[0][1]: expected a number, got null"),
    ([[0, 6], [0, [7]]], "--eps-list[1][1]: expected a number, got [7]"),
    ([["5", 6]], '--eps-list[0][0]: expected a number, got "5"'),
    ([[0, True]], "--eps-list[0][1]: expected a number, got true"),
    ([[0, 10**400]], "--eps-list[0][1]: integer too large for a float"),
    ([[0, float("nan")]], "--eps-list[0][1]: expected a number, got NaN"),
    ([[0, 6], [0]], "--eps-list[1]: expected 2 entries, got 1"),
    ([[0, 6], {"eps": [0, 6]}], "--eps-list[1]: cannot interpret as a point"),
    ([], "--eps-list: must be a non-empty array of length-2 arrays"),
])
def test_image_eps_list_rejects_non_numbers(tmp_path, capsys, entries, message):
    eps_file = tmp_path / "eps.json"
    eps_file.write_text(json.dumps(entries))
    code, out, err = run(capsys, "image", "eps", "--fixture", "FIG2L",
                         "--eps-list", str(eps_file), "--j", "1")
    assert (code, out, err) == (2, "", f"maro: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (("ws", "--grid-k", "0"), "resolution k >= 1"),
    (("eps", "--eps", "0,6", "--j", "0"), "objective index must lie in 1..2, got 0"),
])
def test_image_zero_parameters_reach_range_checks(capsys, argv, message):
    code, _, err = run(capsys, "image", *argv, "--fixture", "FIG2L")
    assert code == 2 and err.startswith("maro: ") and message in err


# arbitrary JSON, with integers past the float range, plus the array of
# pairs both file readers expect filled with arbitrary JSON
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**1100), 2**1100) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["points", "point", "x"]), inner, max_size=2),
    max_leaves=8,
)
_json_docs = _json | st.lists(st.lists(_json, min_size=2, max_size=2), max_size=3)


def test_file_inputs_end_in_exit_0_or_2(tmp_path):
    path = tmp_path / "doc.json"
    commands = (["image", "eps", "--fixture", "FIG2L", "--j", "1", "--eps-list", str(path)],
                ["plot", "--in", str(path)])

    @given(doc=_json_docs)
    def check(doc):
        path.write_text(json.dumps(doc))
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2)
            if code == 2:
                assert err.getvalue().startswith("maro: ")

    check()


class _Pairs(list):
    """A JSON object written as (key, value) pairs, so that a key can repeat."""


def _dumps(v) -> str:
    if isinstance(v, dict):
        v = _Pairs(v.items())
    if isinstance(v, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(x)}" for k, x in v) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(_dumps(x) for x in v) + "]"
    return json.dumps(v)  # NaN and Infinity as their JSON literals


_DOC = {"name": "m", "n": 2, "decisions": ["x1", "x2"], "scenarios": ["u1", "u2"],
        "recourse": {"x1": {"u1": [[1, 2]], "u2": [[2, 1], [0, 3]]},
                     "x2": {"u1": [[3, 0]], "u2": [[1, 1]]}}}
_KEYS = ("name", "n", "decisions", "scenarios", "recourse", "sampled", "bogus",
         "x1", "x9", "u2", "u9")
_VALUES = (None, True, "a", "x1", "u9", 0, -1, 2, 2.5, float("nan"), float("inf"),
           -float("inf"), 10**400, [], {}, [[]], [1], [1, 2, 3], [[1, 2]], [[1, "a"]],
           ["x1", "x1"], ["u1"], {"u1": [[0, 0]]})


def _locations(v, path=()):
    """Paths of every value in a document; a ``_Pairs`` object is a leaf."""
    yield path
    items = v.items() if isinstance(v, dict) else enumerate(v) if type(v) is list else ()
    for k, x in items:
        yield from _locations(x, path + (k,))


@st.composite
def _mutated_docs(draw):
    """Small instance documents after one to three mutations: a dropped,
    replaced, added or duplicated key or item, with values of wrong type,
    NaN and Infinity literals, 400-digit integers, empty and wrong-length
    points, and undeclared identifiers."""
    doc = json.loads(json.dumps(_DOC))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_locations(doc))))
        value = json.loads(json.dumps(draw(st.sampled_from(_VALUES))))
        op = draw(st.sampled_from(("drop", "set", "add", "dup")))
        if not path:
            doc = value if op == "set" else doc
            continue
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        key = path[-1]
        if op == "drop":
            del parent[key]
        elif op == "set":
            parent[key] = value
        elif op == "add" and isinstance(parent, dict):
            parent[draw(st.sampled_from(_KEYS))] = value
        elif op == "add":
            parent.insert(key, value)
        elif isinstance(parent, dict):
            pairs = _Pairs(parent.items())
            pairs.insert(draw(st.integers(0, len(pairs))), (key, value))
            if len(path) == 1:
                doc = pairs
            else:
                grand = doc
                for k in path[:-2]:
                    grand = grand[k]
                grand[path[-2]] = pairs
        else:
            parent.insert(key, parent[key])
    return _dumps(doc)


_ERROR_LINE = re.compile(r"maro: (\$|name|n|decisions|scenarios|recourse|sampled)"
                         r"[\w.\[\]]*: [^\n]+\n")


def test_instance_documents_end_in_exit_0_or_one_error_line(tmp_path):
    # run in-process: an exception escaping main fails the test, so no
    # document can end in a traceback
    path = tmp_path / "doc.json"

    @settings(max_examples=200)
    @given(text=_mutated_docs())
    def check(text):
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--instance", str(path)])
        if code == 0:
            assert json.loads(out.getvalue())["ok"] and err.getvalue() == ""
        else:
            assert code == 2 and out.getvalue() == ""
            assert _ERROR_LINE.fullmatch(err.getvalue()), err.getvalue()

    check()


def test_plot_from_image_output(tmp_path, capsys):
    # plot --in reads plain points and the {"lambda", "point"} entries of a grid
    for image in (("pb",), ("ws", "--grid-k", "2")):
        code, out, _ = run(capsys, "image", *image, "--fixture", "FIG4")
        assert code == 0
        points = [tuple(p["point"] if isinstance(p, dict) else p)
                  for p in json.loads(out)["points"]]
        src = tmp_path / "points.json"
        src.write_text(out)
        dst = tmp_path / "front.svg"
        code, _, err = run(capsys, "plot", "--in", str(src), "--out", str(dst))
        assert (code, err) == (0, f"wrote {dst}\n")
        assert dst.read_text() == render_svg([("points", points)])


@pytest.mark.parametrize("flags", [
    ("--what", "ws"), ("--lambda", "0.5,0.5"), ("--eps", "_,7"), ("--j", "1"),
    ("--instance", "inst.json"), ("--fixture", "NOPE"),
])
def test_plot_in_refuses_the_instance_options(tmp_path, capsys, flags):
    src = tmp_path / "points.json"
    src.write_text("[[1, 2], [3, 1]]")
    assert run(capsys, "plot", "--in", str(src), *flags) == (
        2, "", f"maro: {flags[0]} does not apply to plot --in\n")


def test_plot_labels_the_dataset(tmp_path, capsys):
    code, out, _ = run(capsys, "plot", *_FIG2L, "--what", "pb", "--label", "mine")
    assert code == 0
    assert out == render_svg([("mine", [tuple(p) for p in image_pb(fixture("FIG2L"))])])
    src = tmp_path / "points.json"
    src.write_text("[[1, 2], [3, 1]]")
    code, out, _ = run(capsys, "plot", "--in", str(src), "--label", "mine")
    assert code == 0 and out == render_svg([("mine", [(1.0, 2.0), (3.0, 1.0)])])


def test_plot_to_an_unwritable_path_is_a_usage_error(capsys):
    assert run(capsys, "plot", *_FIG2L, "--what", "pb", "--out", "/nonexistent/dir/x.svg") == (
        2, "", f"maro: cannot write /nonexistent/dir/x.svg: {os.strerror(errno.ENOENT)}\n")


def test_plot_refuses_non_finite_points(tmp_path, capsys):
    src = tmp_path / "inf.json"
    src.write_text("[[Infinity, 0], [1, 2]]")
    assert run(capsys, "plot", "--in", str(src)) == (2, "", "maro: cannot plot non-finite points\n")


def test_plot_range_beyond_the_float_range(tmp_path, capsys):
    src = tmp_path / "wide.json"
    src.write_text("[[1e308, 0], [-1e308, 1]]")
    code, out, _ = run(capsys, "plot", "--in", str(src))
    assert code == 0 and "nan" not in out
    coords = [float(c) for c in re.findall(r'c[xy]="([^"]*)"', out)]
    assert len(coords) == 4 and all(40 <= c <= 760 for c in coords)
    assert sorted(coords) == [40, 40, 760, 760]


def test_plot_direct_and_stdout(capsys):
    code, out, _ = run(capsys, "plot", "--fixture", "FIG4", "--what", "pb", "--connect")
    assert code == 0 and out.startswith("<svg")


def test_plot_errors(capsys):
    code, _, err = run(capsys, "plot", "--fixture", "FIG2L", "--what", "ws")
    assert code == 2 and "--lambda" in err


@pytest.mark.parametrize("what, flags", [
    ("pb", ()),
    ("ws", ("--lambda", "0.5,0.5")),
    ("ws", ("--lambda", "1,0")),
    ("eps", ("--eps", "_,6", "--j", "1")),
])
@pytest.mark.parametrize("connect", [(), ("--connect",)])
def test_plot_draws_the_points_of_image(capsys, what, flags, connect):
    code, out, _ = run(capsys, "image", what, "--fixture", "FIG4", *flags)
    assert code == 0
    doc = json.loads(out)
    points = [tuple(p) for p in doc["points"]] if "points" in doc else [tuple(doc["point"])]
    code, out, err = run(capsys, "plot", "--fixture", "FIG4", "--what", what, *flags, *connect)
    assert (code, err) == (0, "")
    assert out == render_svg([(what, points)], connect=bool(connect))


@pytest.mark.parametrize("argv, message", [
    (("solve-eps", *_FIG2L, "--eps", "a,1", "--j", "1"), "bad --eps entry 'a'"),
    (("image", "eps", *_FIG2L, "--eps-list", "/nonexistent/eps.json", "--j", "1"),
     f"cannot read --eps-list: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
     "'/nonexistent/eps.json'"),
    (("efficiency", *_FIG2L, "--x", "x1", "--kind", "point-based"),
     "point-based is a two-stage notion; add --mro or use solve-pb"),
    (("image", "eps", *_FIG2L, "--eps", "_,6"), "image eps needs --j"),
    (("plot", *_FIG2L, "--what", "eps", "--j", "1"), "plot --what eps needs --eps and --j"),
    (("plot", *_FIG2L, "--what", "eps", "--eps", "_,0", "--j", "1"),
     "constraint image is infeasible; nothing to plot"),
    (("plot", *_FIG2L), "plot needs --in FILE or --what ws|eps|pb"),
    # an option of an image the command does not build, or a second choice
    # within one image, is refused rather than dropped
    (("image", "ws", *_FIG2L, "--lambda", "0.5,0.5", "--grid-k", "1"),
     "--grid-k and --lambda are exclusive"),
    (("image", "ws", *_FIG2L, "--grid-k", "2", "--j", "1"), "--j does not apply to the ws image"),
    (("image", "eps", *_FIG2L, "--eps", "_,0", "--eps-list", "F", "--j", "1"),
     "--eps-list and --eps are exclusive"),
    (("image", "eps", *_FIG2L, "--eps", "_,7", "--j", "1", "--lambda", "0.5,0.5"),
     "--lambda does not apply to the eps image"),
    (("image", "eps", *_FIG2L, "--eps", "_,7", "--j", "1", "--grid-k", "2"),
     "--grid-k does not apply to the eps image"),
    (("image", "pb", *_FIG2L, "--lambda", "0.5,0.5", "--j", "1", "--eps", "1,1",
      "--grid-k", "2"), "--lambda does not apply to the pb image"),
    (("image", "pb", *_FIG2L, "--eps-list", "F"), "--eps-list does not apply to the pb image"),
    (("plot", *_FIG2L, "--what", "pb", "--lambda", "0.5,0.5"),
     "--lambda does not apply to the pb image"),
    (("plot", *_FIG2L, "--what", "ws", "--lambda", "0.5,0.5", "--j", "1"),
     "--j does not apply to the ws image"),
    (("plot", *_FIG2L, "--what", "eps", "--eps", "_,7", "--j", "1", "--lambda", "0.5,0.5"),
     "--lambda does not apply to the eps image"),
    # one owner per input rule: the weight length and the decision name
    (("solve-ws", *_FIG2L, "--lambda", "0.5,0.25,0.25"),
     "weight vector has length 3, points have 2"),
    (("image", "ws", *_FIG2L, "--lambda", "0.5,0.25,0.25"),
     "weight vector has length 3, points have 2"),
    (("compare", *_FIG2L, "--lambda", "0.5,0.25,0.25", "--eps", "_,7", "--j", "1"),
     "weight vector has length 3, points have 2"),
    (("efficiency", *_FIG2L, "--mro", "--x", "x9", "--kind", "flimsy"), "unknown decision 'x9'"),
])
def test_usage_errors_exit_2_with_one_message(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"maro: {message}\n")


def test_fixtures_listing_and_dump(capsys):
    code, out, _ = run(capsys, "fixtures")
    doc = json.loads(out)
    assert code == 0 and "FIG2L" in doc["fixtures"]
    assert doc["fixtures"]["FIG6L"]["separation"]["j"] == 1
    code, out, _ = run(capsys, "fixtures", "--dump", "FIG2R")
    assert code == 0
    assert json.loads(out)["recourse"]["x2"]["u1"] == [[2, 2]]


def test_verify_small_and_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--seed", "42", "--count", "40")
    code2, out2, _ = run(capsys, "verify", "--seed", "42", "--count", "40")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["pass"] is True
    assert doc["checks"]["thm_ws_implies_ms"]["violations"] == []


def test_verify_check_filter_and_bad_id(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--count", "5",
                       "--check", "thm_eps_switch")
    assert code == 0
    assert list(json.loads(out)["checks"]) == ["thm_eps_switch"]
    code, _, err = run(capsys, "verify", "--seed", "1", "--count", "5",
                       "--check", "nope")
    assert code == 2 and "unknown check ids" in err


def test_verify_exits_1_and_reports_a_planted_defect(capsys, monkeypatch):
    # f_pb taking the minimum over scenarios breaks the unit-weight reduction
    def f_pb_min(inst, x):
        return tuple(min(min(p[i] for p in inst.points(x, u)) for u in inst.scenarios)
                     for i in range(inst.n))

    monkeypatch.setattr("maro.verify.f_pb", f_pb_min)
    code, out, err = run(capsys, "verify", "--seed", "42", "--count", "20",
                         "--check", "unit_weight_reduces_to_pb")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["pass"] is False
    details = [v["detail"] for v in doc["checks"]["unit_weight_reduces_to_pb"]["violations"]]
    assert details and all("unit-weight value" in d for d in details)


@pytest.mark.parametrize("count", ["0", "-5"])
def test_verify_rejects_empty_battery(capsys, count):
    code, out, err = run(capsys, "verify", "--seed", "1", "--count", count)
    assert code == 2 and out == ""
    assert err == f"maro: count must be a positive integer, got {count}\n"


def test_compare_json_and_md(capsys):
    code, out, _ = run(capsys, "compare", "--fixture", "FIG2L",
                       "--lambda", "0.5,0.5", "--eps", "_,7", "--j", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["weighted_sum"]["plain"] == ["x2"]
    code, out, _ = run(capsys, "compare", "--fixture", "FIG2L",
                       "--lambda", "0.5,0.5", "--eps", "_,7", "--j", "1",
                       "--format", "md")
    assert code == 0
    assert out.startswith("# Concept comparison")
    assert "| efficient (plain) |" in out


def test_compare_md_renders_infinity_as_json_does(capsys):
    argv = ("compare", "--fixture", "FIG2L", "--lambda", "0.5,0.5", "--eps", "_,0", "--j", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["constraint"]["image"] == ["+inf", 0.0]
    code, out, _ = run(capsys, *argv, "--format", "md")
    assert code == 0
    assert "| image | [[7.0, 3.0]] | ['+inf', 0.0] | [[7.0, 6.0]] |" in out.splitlines()
    assert "inf" not in out.replace("'+inf'", "")


def test_tolerance_flag(capsys):
    # with a huge tolerance the two FIG2L decisions tie under the weighted sum
    code, out, _ = run(capsys, "solve-ws", "--fixture", "FIG2L",
                       "--lambda", "0.5,0.5", "--strictness", "strict", "--tol", "2.0")
    doc = json.loads(out)
    assert code == 0
    assert doc["efficient"] == [] and doc["strict_empty_tie"] is True
    assert doc["plain_guarantee"] == 5


# -- import footprint: each subcommand loads only the modules it runs --------

# the package surface, by defining module
SURFACE = {
    "efficiency": ("Kind", "SmaroResult", "Verdict", "Witness", "maro_efficient",
                   "mro_efficient", "smaro_set"),
    "fixtures": ("FIXTURE_NAMES", "fixture", "fixture_meta"),
    "images": ("EpsGridImage", "EpsImagePoint", "WeightGrid", "compare_concepts",
               "image_eps", "image_eps_grid", "image_pb", "image_ws", "image_ws_grid",
               "render_svg", "simplex_grid", "ws_image_gaps"),
    "instances": ("DEFAULT_TOL", "INF", "Instance", "InstanceError", "Tolerance",
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

_SRC = os.path.dirname(os.path.dirname(maro.__file__))


def _child(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports maro from this tree."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return proc.stdout


def test_module_entry_point():
    # python -m maro.cli exits with the code of main
    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "maro.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=_SRC),
                              capture_output=True, text=True)

    ok = cli("validate", *_FIG2L)
    assert (ok.returncode, ok.stderr) == (0, "") and json.loads(ok.stdout)["ok"]
    bad = cli("efficiency", *_FIG2L, "--x", "x9", "--kind", "flimsy")
    assert (bad.returncode, bad.stdout, bad.stderr) == (2, "", "maro: unknown decision 'x9'\n")


def _modules_after(argv: list[str]) -> set[str]:
    code = (
        "import contextlib, io, json, sys\n"
        "from maro import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'maro']))\n"
    )
    return set(json.loads(_child(code)))


@pytest.mark.parametrize("argv", [["validate", *_FIG2L], ["fixtures"]])
def test_instance_commands_load_only_instances_and_fixtures(argv):
    assert _modules_after(argv) == {"maro", "maro.cli", "maro.instances", "maro.fixtures"}


def test_efficiency_loads_no_scalar_concepts():
    loaded = _modules_after(["efficiency", *_FIG2L, "--x", "x1", "--kind", "flimsy"])
    assert "maro.efficiency" in loaded
    assert not loaded & {"maro.scalarize", "maro.images", "maro.verify"}


@pytest.mark.parametrize("argv", [
    ["solve-ws", *_FIG2L, "--lambda", "0.5,0.5"],
    ["solve-eps", *_FIG2L, "--eps", "_,7", "--j", "1"],
    ["solve-pb", *_FIG2L],
    ["image", "ws", *_FIG2L, "--grid-k", "4"],
    ["plot", *_FIG2L, "--what", "pb"],
    ["compare", *_FIG2L, "--lambda", "0.5,0.5", "--eps", "_,7", "--j", "1"],
])
def test_concept_commands_do_not_load_the_harness(argv):
    loaded = _modules_after(argv)
    assert "maro.scalarize" in loaded and "maro.verify" not in loaded
    # the concepts stand beside the efficiency notions, not on them
    assert "maro.efficiency" not in loaded


def test_scalar_concept_modules_load_no_efficiency_checkers():
    loaded = _child("import json, sys, maro.scalarize, maro.images\n"
                    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('maro'))))")
    assert "maro.efficiency" not in json.loads(loaded)
    assert maro.Strictness is maro.efficiency.Strictness is maro.relations.Strictness


def test_package_surface_is_pinned():
    names = [name for names in SURFACE.values() for name in names]
    assert maro.__all__ == sorted([*names, *SURFACE])
    assert len(maro.__all__) == 69
    for module, names in SURFACE.items():
        home = importlib.import_module(f"maro.{module}")
        assert getattr(maro, module) is home
        for name in names:
            assert getattr(maro, name) is getattr(home, name), name


def test_star_import_and_dir():
    namespace = {}
    exec("from maro import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(maro.__all__)
    assert set(maro.__all__) <= set(dir(maro))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(maro, "nope")


def test_import_maro_loads_no_submodule():
    loaded = _child("import json, sys, maro\n"
                    "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'maro']))")
    assert json.loads(loaded) == ["maro"]


def test_package_does_not_keep_a_temporary_wrapper():
    # a binding replaced by a wrapper (as a tracer does) is read through the
    # module while it lasts and not stored in the package
    code = (
        "import functools, maro, maro.scalarize as s\n"
        "orig = s.f_pb\n"
        "s.f_pb = functools.wraps(orig)(lambda *a: orig(*a))\n"
        "during = maro.f_pb is s.f_pb\n"
        "s.f_pb = orig\n"
        "print(during, maro.f_pb is orig, 'f_pb' in vars(maro))\n"
    )
    assert _child(code).split() == ["True", "True", "True"]


def test_kind_choices_match_the_enum():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    kind = next(a for a in sub.choices["efficiency"]._actions if a.dest == "kind")
    assert list(kind.choices) == [k.value for k in Kind]
