"""The ``hfree`` contract on generated scenario files: ``run`` returns
0, 1 or 2 and never raises, a written ``report.json`` is strict JSON in
the form that ``json.dumps(indent=2, sort_keys=True)`` gives, no
temporary file is left behind, and a ``[task]`` key that the kind does
not read fails at its line."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hfreemaps.cli import run
from hfreemaps.expr import render
from hfreemaps.errors import ScenarioError
from hfreemaps.scenario import TASK_KEYS, parse_scenario
from test_expr import _exprs

_MALFORMED = ("many", "2.5", "-3", "0", "1e999", "nan", "", "1, 2")


@st.composite
def _scenario_texts(draw):
    names = draw(st.sampled_from([("x", "y"), ("x", "y", "z")]))
    m = len(names)
    exprs = _exprs(names, partial=draw(st.booleans())).map(render)
    # at most one number of the file is malformed: the one at this index
    slots = iter(range(-draw(st.integers(0, 60)), 1000))

    def number(good):
        return draw(st.sampled_from(_MALFORMED)) if next(slots) == 0 else str(draw(good))

    def point(dim):
        return ", ".join(number(st.floats(-2, 2)) for _ in range(dim))

    def box(dim):
        return ", ".join(f"{number(st.integers(-3, -1))}:{number(st.integers(1, 3))}"
                         for _ in range(dim))

    def maybe(text):
        return [text] if draw(st.booleans()) else []

    n_fields = draw(st.sampled_from([1, 2, m + 1, 1, 0]))
    fields = [draw(st.lists(exprs, min_size=m, max_size=m)) for _ in range(n_fields)]
    components = [draw(exprs) for _ in range(draw(st.sampled_from([5, 1, 6, 3, 0])))]
    lines = [f"[chart]\ncoords = {', '.join(names)}"]
    if fields:
        lines += ["[distribution]"] + [f"field = {', '.join(f)}" for f in fields]
    if components:
        lines += ["[map]"] + [f"component = {c}" for c in components]
    lines += ["[points]", f"count = {number(st.integers(0, 4))}", f"box = {box(m)}"]
    lines += [f"point = {point(m)}" for _ in range(draw(st.integers(0, 2)))]
    lines += ["[window]", f"box = {box(2)}",
              f"grid = {number(st.integers(2, 6))}, {number(st.integers(2, 6))}"]
    kind = draw(st.sampled_from(list(TASK_KEYS)))

    def key_lines(key):
        if key in ("f", "g", "h", "casimir", "expr"):
            return [f"{key} = {draw(exprs)}" for _ in range(draw(st.integers(0, 2)))]
        if key in ("psi", "dg"):  # lists of expressions
            return [f"{key} = {', '.join(draw(st.lists(exprs, min_size=1, max_size=2)))}"
                    for _ in range(draw(st.integers(0, 2)))]
        if key == "seed" and kind == "transversal":
            # tube seeds switch transversal to its glue mode, the slowest task
            return [f"seed = {point(2)}" for _ in range(draw(st.sampled_from([0] * 5 + [1])))]
        if key == "point":
            return maybe(f"point = {point(m)}")
        if key == "box":
            return [f"box = {box(m)}"]
        if key == "curve":
            return maybe(f"curve = {draw(st.sampled_from(['exp', 'circle', 'custom: t, t^2']))}")
        good = {"weights": st.sampled_from([1, 2]), "t_span": st.sampled_from([0.5, 1.0]),
                "orientation": st.sampled_from([1, -1]), "levels": st.integers(1, 4),
                "q": st.integers(1, 8), "degree": st.integers(2, 3),
                "n_maps": st.integers(0, 3), "n_points": st.integers(0, 3),
                "seed": st.integers(0, 99)}[key]
        text = f"{key} = {number(good)}"
        return [text] if key in ("q", "degree", "n_maps", "n_points") else maybe(text)

    lines += ["[task]", f"kind = {kind}"]
    for key in TASK_KEYS[kind]:
        lines += key_lines(key)
    # now and then one key that this kind does not read, anywhere in [task]
    line = None
    if draw(st.sampled_from([False] * 7 + [True])):
        unread = sorted(set().union(*TASK_KEYS.values()) - set(TASK_KEYS[kind]))
        at = draw(st.integers(lines.index("[task]") + 1, len(lines)))
        lines.insert(at, f"{draw(st.sampled_from(unread + ['curv', 'levles']))} = 1")
        line = "\n".join(lines[:at + 1]).count("\n") + 1
    return "\n".join(lines) + "\n", line


def _strict(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@given(case=_scenario_texts())
@settings(max_examples=60, deadline=None)
def test_cli_contract_on_generated_scenarios(case):
    text, unread_line = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = run(path, out)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error: ")
            # a run that exits 1 writes no file
            assert not os.path.exists(out) or os.listdir(out) == []
        if unread_line is not None:
            # a key the kind does not read fails at its line, unless the
            # file without it already fails to parse
            assert code == 1 and not os.path.exists(os.path.join(out, "report.json"))
            rest = text.splitlines()
            del rest[unread_line - 1]
            try:
                parse_scenario("\n".join(rest), path)
            except ScenarioError:
                pass
            else:
                assert err.getvalue().startswith(f"error: {path}:{unread_line}: unknown key")
        report = os.path.join(out, "report.json")
        if os.path.exists(report):
            with open(report, encoding="utf-8") as handle:
                text = handle.read()
            assert json.dumps(_strict(text), indent=2, sort_keys=True,
                              allow_nan=False) + "\n" == text
        leftovers = [name for _, _, files in os.walk(tmp) for name in files
                     if name.endswith(".tmp")]
        assert not leftovers
