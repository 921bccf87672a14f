"""The ``hfree`` contract on generated scenario files: ``run`` returns
0, 1 or 2 and never raises, a written ``report.json`` is strict JSON,
and no temporary file is left behind."""

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
from hfreemaps.scenario import TASK_KINDS
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
    lines += ["[task]", f"kind = {draw(st.sampled_from(TASK_KINDS))}"]
    for key in ("f", "g", "h", "casimir", "expr"):
        lines += [f"{key} = {draw(exprs)}" for _ in range(draw(st.integers(0, 2)))]
    for key in ("psi", "dg"):  # lists of expressions
        lines += [f"{key} = {', '.join(draw(st.lists(exprs, min_size=1, max_size=2)))}"
                  for _ in range(draw(st.integers(0, 2)))]
    lines += maybe(f"curve = {draw(st.sampled_from(['exp', 'circle', 'custom: t, t^2']))}")
    lines += maybe(f"point = {point(m)}")
    # tube seeds switch transversal to its glue mode, the slowest task
    lines += [f"seed = {point(2)}" for _ in range(draw(st.sampled_from([0] * 5 + [1])))]
    lines += maybe(f"t_span = {number(st.sampled_from([0.5, 1.0]))}")
    lines += maybe(f"orientation = {number(st.sampled_from([1, -1]))}")
    lines += maybe(f"levels = {number(st.integers(1, 4))}")
    lines += [f"q = {number(st.integers(1, 8))}", f"degree = {number(st.integers(2, 3))}",
              f"n_maps = {number(st.integers(0, 3))}",
              f"n_points = {number(st.integers(0, 3))}", f"box = {box(m)}"]
    return "\n".join(lines) + "\n"


def _strict(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@given(text=_scenario_texts())
@settings(max_examples=60, deadline=None)
def test_cli_contract_on_generated_scenarios(text):
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
        report = os.path.join(out, "report.json")
        if os.path.exists(report):
            with open(report, encoding="utf-8") as handle:
                _strict(handle.read())
        leftovers = [name for _, _, files in os.walk(tmp) for name in files
                     if name.endswith(".tmp")]
        assert not leftovers
