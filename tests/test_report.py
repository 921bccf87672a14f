"""``report.json`` is the text of ``json.dumps(report, indent=2,
sort_keys=True)`` and a newline, with every non-finite number written as
``null``.  The oracle is that dump of the report's dict form, one dict
per point; the CLI writes the per-point table column by column."""

import glob
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfreemaps.cli import _RECORDS_PER_BLOCK, _Table, _write_report, run

SCENARIOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos",
                                          "scenarios", "*.ini")))

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                     1e308, -1e308, 1.7976931348623157e308, 1e16, 1e22, 0.1,
                     math.inf, -math.inf, math.nan]),
    st.floats())
_INTS = st.one_of(st.sampled_from([-2**63, 2**63 - 1, 0, -1]),
                  st.integers(-2**63, 2**63 - 1))
_VALUES = {float: _FLOATS, np.int64: _INTS, bool: st.booleans()}
# user text, with the report's own tokens among it
_TEXT = st.one_of(st.sampled_from(['\n  "points": null', '"points": null', '"points', "NaN",
                                   "-Infinity", "null", "%s", "%%", '\\"', "\n"]),
                  st.text(st.one_of(st.characters(), st.sampled_from('%"\\\n')),
                          max_size=8))


@st.composite
def _column(draw, n, shape, dtype):
    size = n * math.prod(shape)
    values = draw(st.lists(_VALUES[dtype], min_size=size, max_size=size))
    return np.array(values, dtype=dtype).reshape((n, *shape))


@st.composite
def _reports(draw):
    """A report's parts: the point array, the other columns of its
    table, and the rest of the report."""
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 12)))
    points = draw(_column(n, (draw(st.integers(1, 3)),), float))
    names = draw(st.lists(_TEXT.filter(lambda name: name not in ("point", "points")),
                          max_size=4, unique=True))
    columns = {}
    for name in names:
        k = draw(st.integers(0, 3))
        shape = draw(st.sampled_from([(), (k,), (k, k)]))
        columns[name] = draw(_column(n, shape, draw(st.sampled_from(list(_VALUES)))))
    rest = {"task": draw(_TEXT), "tolerance": draw(_FLOATS),
            "map": draw(st.lists(_TEXT, max_size=3)),
            "extra": {draw(_TEXT): draw(st.one_of(st.none(), _FLOATS, _TEXT))},
            "summary": {"n_points": n, "max": draw(_FLOATS),
                        "argmin": draw(st.lists(_FLOATS, max_size=2)),
                        draw(_TEXT): draw(_TEXT)}}
    return points, columns, rest


def _nulled(value):
    """``value`` with every non-finite float replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _nulled(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_nulled(v) for v in value]
    return value


def _oracle(points, columns, rest) -> tuple[str, bool]:
    """The dict form's strict dump and whether every number was finite."""
    columns = {"point": points, **columns}
    rows = zip(*(column.tolist() for column in columns.values()))
    report = {**rest, "points": [dict(zip(columns, row)) for row in rows]}
    try:
        json.dumps(report, allow_nan=False)
    except ValueError:
        finite = False
    else:
        finite = True
    text = json.dumps(_nulled(report), indent=2, sort_keys=True, allow_nan=False)
    return text + "\n", finite


def _canonical(text: str) -> bool:
    """Whether ``text`` is strict JSON in the form the CLI writes it."""
    redump = json.dumps(json.loads(text), indent=2, sort_keys=True, allow_nan=False)
    return redump + "\n" == text


@given(parts=_reports())
@settings(max_examples=300, deadline=None)
def test_table_encoder_writes_the_dump_of_the_dict_form(parts):
    points, columns, rest = parts
    with tempfile.TemporaryDirectory() as tmp:
        finite = _write_report(tmp, {**rest, "points": _Table({"point": points, **columns})})
        with open(os.path.join(tmp, "report.json"), encoding="utf-8") as handle:
            text = handle.read()
    assert (text, finite) == _oracle(points, columns, rest)


def _check_hfree_table(n, rng):
    """The columns of a check-hfree report on ``n`` points in 3-D."""
    points = rng.uniform(-2.0, 2.0, size=(n, 3))
    columns = {"certified_rank": rng.integers(0, 6, size=n),
               "smallest_retained_sv": rng.random(n), "threshold": rng.random(n) * 1e-12,
               "hfree": rng.random(n) < 0.5, "uncertain": rng.random(n) < 0.1,
               "det": rng.normal(size=n)}
    return points, columns


def test_records_split_across_blocks_are_the_dump_of_the_dict_form(tmp_path):
    # the one NaN sits in the last block, which holds a single record
    n = 2 * _RECORDS_PER_BLOCK + 1
    points, columns = _check_hfree_table(n, np.random.default_rng(4))
    columns["det"][-1] = math.nan
    rest = {"task": "check-hfree", "summary": {"n_points": n}}
    finite = _write_report(tmp_path, {**rest, "points": _Table({"point": points, **columns})})
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert (text, finite) == _oracle(points, columns, rest)
    assert finite is False


def test_report_memory_does_not_grow_with_the_point_count(tmp_path):
    n = 10_000
    points, columns = _check_hfree_table(n, np.random.default_rng(5))
    report = {"task": "check-hfree", "summary": {"n_points": n},
              "points": _Table({"point": points, **columns})}
    tracemalloc.start()
    try:
        _write_report(tmp_path, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text alone is about 2.7 MB
    assert (tmp_path / "report.json").stat().st_size > 2_000_000
    assert peak < 3_000_000


@pytest.mark.parametrize("path", SCENARIOS, ids=os.path.basename)
def test_demo_scenario_reports_are_canonical(path, tmp_path):
    assert run(path, tmp_path) == 0
    assert _canonical((tmp_path / "report.json").read_text())
