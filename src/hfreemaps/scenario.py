"""Plain-text scenario files.

The format is INI-like with repeatable keys; expression payloads pass
through verbatim (the expression grammar contains no commas, so
comma-separated lists are unambiguous)::

    # comment
    [chart]
    coords = x, y, z

    [exprs]
    f = y*exp(x)

    [distribution]
    field = 0, 1, 0
    field = 1, 0, -y

    [map]
    component = y
    component = exp(x)

    [points]
    count = 50
    box = -2:2, -2:2, -2:2
    seed = 7
    point = 0, 0, 0

    [window]
    box = -1:1, -1:1
    grid = 101, 101

    [task]
    kind = check-hfree

Exactly one ``[task]`` section is required; every other section is
optional.  An ``[exprs]`` name is an identifier of at most 240
characters, and neither a coordinate nor a function name.  The keys and
values of every section but ``[task]`` are checked when the file is
parsed; the ``[task]`` values, and whether the task finds the sections it
needs, when the task runs.  ``TASK_KEYS`` lists the ``[task]`` keys of
each kind, and any other key fails at its line, as an unknown key does in
every other section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constructions import FreeCurve
from .errors import ExprSyntaxError, ScenarioError
from .expr import _IDENT_RE, FUNCTIONS, Chart, Expr, coordinates, parse
from .geometry import Distribution
from .hfree import MapSpec
from .lie import VectorField
from .transversal import Window

# task kind -> the [task] keys its runner reads, besides ``kind``
TASK_KEYS = {
    "check-hfree": (),
    "induced-metric": (),
    "invert": ("point", "psi", "dg"),
    "construct-1d": ("f", "curve"),
    "construct-cis": ("f", "curve"),
    "construct-rp": ("casimir", "orientation", "h", "f", "curve"),
    "rp-bracket": ("casimir", "orientation", "f", "g"),
    "transversal": ("f", "seed", "weights", "t_span"),
    "genericity": ("q", "degree", "n_maps", "n_points", "seed", "box"),
    "render-levels": ("expr", "levels"),
}

# render-levels writes levels_<name>.svg through levels_<name>.svg.tmp, and
# a file name holds at most 255 bytes
_MAX_NAME = 255 - len("levels_") - len(".svg.tmp")

KNOWN_SECTIONS = ("chart", "exprs", "distribution", "map", "points", "window", "task")


@dataclass
class Entry:
    key: str
    value: str  # or, from Scenario.param, the value read from it
    line: int


@dataclass
class Scenario:
    path: str
    chart: Chart
    names: dict[str, Expr]
    frame: list[VectorField]
    map_components: list[Expr]
    task: str
    task_entries: list[Entry]
    point_rows: list[list[float]] = field(default_factory=list)  # [points] 'point' lines
    point_count: int = 0  # [points] drawn from point_box by point_seed
    point_box: np.ndarray | None = None
    point_seed: int = 0
    window: Window | None = None
    task_line: int | None = None  # line of the task's 'kind = ...'
    field_lines: list[int] = field(default_factory=list)  # line of each frame field

    # -- helpers used by the task runners ----------------------------------

    def fail(self, message: str, line: int | None = None):
        raise ScenarioError(message, self.path, line)

    def param(self, key: str, read=None, default=None, *, required: bool = False,
              each: bool = False, **options):
        """The ``[task]`` value of ``key``: the last entry wins, and its text
        is read by ``read(text, line, **options)``, so that a bad value fails
        at its line.  Without an entry, ``default``, or a failure at the task
        line when ``required``.  ``each`` returns every entry instead, as
        :class:`Entry` objects holding the read values, in file order."""
        hits = [e for e in self.task_entries if e.key == key]
        if read is not None:
            hits = [Entry(e.key, read(e.value, e.line, **options), e.line) for e in
                    (hits if each else hits[-1:])]
        if each:
            return hits
        if not hits and required:
            self.fail(f"{self.task} needs '{key} = ...'", self.task_line)
        return hits[-1].value if hits else default

    # -- readers: each turns the text of an entry into a value or fails at its line

    def expr(self, text: str, line: int | None = None) -> Expr:
        """Resolve a named expression or parse inline text."""
        name = text.strip()
        if name in self.names:
            return self.names[name]
        try:
            e = parse(text)
        except ExprSyntaxError as err:
            self.fail(f"unknown name or invalid expression {text!r}: {err}", line)
        undeclared = sorted(coordinates(e) - set(self.chart.coords))
        if undeclared:
            self.fail(f"unknown name {undeclared[0]!r} in {text!r}", line)
        return e

    def exprs(self, text: str, line: int | None = None) -> list[Expr]:
        return [self.expr(part, line) for part in text.split(",")]

    def numbers(self, text: str, line: int | None = None,
                count: int | None = None) -> list[float]:
        try:
            values = [float(part) for part in text.split(",")]
        except ValueError:
            self.fail(f"expected comma-separated numbers, got {text!r}", line)
        if count is not None and len(values) != count:
            self.fail(f"expected {count} comma-separated numbers, got {text!r}", line)
        return values

    def integer(self, text: str, line: int | None = None, low: int | None = None,
                among: tuple[int, ...] | None = None) -> int:
        try:
            value = int(text)
        except ValueError:
            self.fail(f"expected an integer, got {text!r}", line)
        if low is not None and value < low:
            self.fail(f"expected an integer of at least {low}, got {value}", line)
        if among is not None and value not in among:
            self.fail(f"expected one of {', '.join(map(str, among))}, got {value}", line)
        return value

    def box(self, text: str, line: int | None = None, dim: int | None = None) -> np.ndarray:
        """``lo:hi`` ranges, one per coordinate of the chart (or of ``dim``)."""
        dim = self.chart.dim if dim is None else dim
        ranges = []
        for part in text.split(","):
            pieces = part.split(":")
            if len(pieces) != 2:
                self.fail(f"box ranges look like lo:hi, got {part.strip()!r}", line)
            try:
                lo, hi = float(pieces[0]), float(pieces[1])
            except ValueError:
                self.fail(f"invalid box bound in {part.strip()!r}", line)
            if not np.isfinite([lo, hi]).all():
                self.fail(f"box bounds must be finite, got {part.strip()!r}", line)
            if not lo < hi:
                self.fail(f"empty box range {part.strip()!r}", line)
            ranges.append((lo, hi))
        if len(ranges) != dim:
            self.fail(f"box needs {dim} ranges, got {len(ranges)}", line)
        return np.array(ranges)

    def curve(self, text: str, line: int | None = None) -> FreeCurve:
        """``exp``, ``circle`` or ``custom: a(t), b(t)``."""
        text = text.strip()
        if text == "exp":
            return FreeCurve.exp()
        if text == "circle":
            return FreeCurve.circle()
        if text.startswith("custom:"):
            parts = text[len("custom:"):].split(",")
            if len(parts) != 2:
                self.fail("custom curve looks like 'custom: a(t), b(t)'", line)
            try:
                return FreeCurve.custom(parts[0].strip(), parts[1].strip())
            except ValueError as err:
                self.fail(str(err), line)
        self.fail(f"unknown curve {text!r} (expected exp, circle or custom: a, b)", line)

    def distribution(self) -> Distribution:
        if not self.frame:
            self.fail("task needs a [distribution] section")
        return Distribution(self.chart, tuple(self.frame))

    def one_field(self) -> Distribution:
        dist = self.distribution()
        if dist.k != 1:
            self.fail(f"{self.task} needs a one-field distribution")
        return dist

    def planar_window(self) -> Window:
        """The ``[window]`` of a task that runs on a two-dimensional chart."""
        if self.chart.dim != 2:
            self.fail(f"{self.task} needs a two-dimensional chart", self.task_line)
        if self.window is None:
            self.fail(f"{self.task} needs a [window] section")
        return self.window

    def map_spec(self) -> MapSpec:
        if not self.map_components:
            self.fail("task needs a [map] section")
        return MapSpec(self.chart, tuple(self.map_components))

    def points(self, seed_override: int | None = None) -> tuple[np.ndarray, int]:
        """Evaluation points and the seed in effect."""
        seed = self.point_seed if seed_override is None else seed_override
        pts = [np.array(self.point_rows)] if self.point_rows else []
        if self.point_count:
            rng = np.random.Generator(np.random.Philox(
                key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)))
            box, size = self.point_box, (self.point_count, self.chart.dim)
            pts.append(rng.uniform(box[:, 0], box[:, 1], size=size))
        if not pts:
            self.fail("task needs a [points] section with points")
        return np.concatenate(pts, axis=0), seed


def _parse_sections(text: str, path: str) -> dict[str, list[Entry]]:
    sections: dict[str, list[Entry]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in KNOWN_SECTIONS:
                raise ScenarioError(f"unknown section [{current}]", path, lineno)
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", path, lineno)
        if current is None:
            raise ScenarioError("key outside any section", path, lineno)
        key, _, value = line.partition("=")
        sections[current].append(Entry(key.strip(), value.strip(), lineno))
    return sections


def parse_scenario(text: str, path: str = "<scenario>") -> Scenario:
    sections = _parse_sections(text, path)

    chart_entries = sections.get("chart", [])
    coords = None
    for e in chart_entries:
        if e.key == "coords":
            coords = tuple(n.strip() for n in e.value.split(","))
            coords_line = e.line
        else:
            raise ScenarioError(f"unknown key {e.key!r} in [chart]", path, e.line)
    if coords is None:
        raise ScenarioError("scenario needs a [chart] section with coords", path)
    try:
        chart = Chart(coords)
    except ValueError as err:
        raise ScenarioError(str(err), path, coords_line) from None

    sc = Scenario(path=path, chart=chart, names={}, frame=[], map_components=[],
                  task="", task_entries=[])

    for e in sections.get("exprs", []):
        if not _IDENT_RE.match(e.key) or e.key in FUNCTIONS or e.key in chart.coords:
            sc.fail(f"invalid expression name {e.key!r}: a name is an identifier, and "
                    f"neither a coordinate nor a function name", e.line)
        if len(e.key) > _MAX_NAME:
            sc.fail(f"expression name of {len(e.key)} characters: at most {_MAX_NAME}, "
                    f"so that its SVG file name fits", e.line)
        if e.key in sc.names:
            sc.fail(f"duplicate expression name {e.key!r}", e.line)
        sc.names[e.key] = sc.expr(e.value, e.line)

    for e in sections.get("distribution", []):
        if e.key != "field":
            sc.fail(f"unknown key {e.key!r} in [distribution]", e.line)
        comps = sc.exprs(e.value, e.line)
        if len(comps) != chart.dim:
            sc.fail(f"field needs {chart.dim} components", e.line)
        if len(sc.frame) == chart.dim:
            sc.fail(f"a distribution has at most {chart.dim} fields", e.line)
        sc.frame.append(VectorField(chart, tuple(comps)))
        sc.field_lines.append(e.line)

    for e in sections.get("map", []):
        if e.key != "component":
            sc.fail(f"unknown key {e.key!r} in [map]", e.line)
        sc.map_components.append(sc.expr(e.value, e.line))
    if len(sc.map_components) == 1:
        sc.fail("a map needs at least two components", sections["map"][-1].line)

    count_line = None
    for e in sections.get("points", []):
        if e.key == "point":
            sc.point_rows.append(sc.numbers(e.value, e.line, count=chart.dim))
        elif e.key == "count":
            sc.point_count, count_line = sc.integer(e.value, e.line, low=0), e.line
        elif e.key == "box":
            sc.point_box = sc.box(e.value, e.line)
        elif e.key == "seed":
            sc.point_seed = sc.integer(e.value, e.line)
        else:
            sc.fail(f"unknown key {e.key!r} in [points]", e.line)
    if sc.point_count and sc.point_box is None:
        sc.fail("[points] with count needs a box", count_line)

    window_entries = sections.get("window", [])
    if window_entries:
        box = None
        grid = (101, 101)
        for e in window_entries:
            if e.key == "box":
                box = sc.box(e.value, e.line, dim=2)
            elif e.key == "grid":
                vals = [sc.integer(v, e.line, low=2) for v in e.value.split(",")]
                if len(vals) != 2:
                    sc.fail("grid needs two resolutions", e.line)
                grid = (vals[0], vals[1])
            else:
                sc.fail(f"unknown key {e.key!r} in [window]", e.line)
        if box is None:
            sc.fail("[window] needs a box")
        sc.window = Window(box[0, 0], box[0, 1], box[1, 0], box[1, 1],
                           grid[0], grid[1])

    task_entries = sections.get("task")
    if not task_entries:
        raise ScenarioError("scenario needs exactly one [task] section", path)
    kinds = [e for e in task_entries if e.key == "kind"]
    if len(kinds) != 1:
        raise ScenarioError("[task] needs exactly one kind", path,
                            kinds[1].line if kinds else None)
    if kinds[0].value not in TASK_KEYS:
        raise ScenarioError(
            f"unknown task kind {kinds[0].value!r} (expected one of "
            f"{', '.join(TASK_KEYS)})", path, kinds[0].line)
    sc.task = kinds[0].value
    sc.task_line = kinds[0].line
    sc.task_entries = [e for e in task_entries if e.key != "kind"]
    for e in sc.task_entries:
        if e.key not in TASK_KEYS[sc.task]:
            sc.fail(f"unknown key {e.key!r} in [task] of kind {sc.task} (it reads "
                    f"{', '.join(TASK_KEYS[sc.task]) or 'no other key'})", e.line)
    return sc


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read(), str(path))
