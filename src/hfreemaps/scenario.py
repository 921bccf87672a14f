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
characters, and neither a coordinate nor a function name.  One table
checks the keys when the file is parsed: ``SECTION_KEYS`` those of the
fixed sections, ``TASK_KEYS`` those of ``[task]`` by kind.  One method,
:meth:`Scenario.param`, reads the values of every other section: a
single value is the last entry of its key, and a bad value fails at its
line, when the file is parsed; the ``[task]`` values, and whether the
task finds the sections it needs, when the task runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constructions import FreeCurve
from .errors import ExprSyntaxError, ScenarioError
from .expr import _IDENT_RE, FUNCTIONS, Chart, Expr, coordinates, parse
from .genericity import _generator
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

# section -> the keys it reads; the names of [exprs] and, by kind, the keys
# of [task] are checked on their own
SECTION_KEYS = {"chart": ("coords",), "exprs": None, "distribution": ("field",),
                "map": ("component",), "points": ("point", "count", "box", "seed"),
                "window": ("box", "grid"), "task": None}


@dataclass
class Entry:
    key: str
    value: str  # or, from Scenario.param, the value read from it
    line: int


@dataclass
class Scenario:
    path: str
    sections: dict[str, list[Entry]]  # the entries of each section, in file order
    chart: Chart | None = None
    names: dict[str, Expr] = field(default_factory=dict)
    frame: list[VectorField] = field(default_factory=list)
    map_components: list[Expr] = field(default_factory=list)
    task: str = ""
    task_line: int | None = None  # line of the task's 'kind = ...'
    point_rows: list[list[float]] = field(default_factory=list)  # [points] 'point' lines
    point_count: int = 0  # [points] drawn from point_box by point_seed
    point_box: np.ndarray | None = None
    point_seed: int = 0
    window: Window | None = None

    # -- helpers used by the task runners ----------------------------------

    def fail(self, message: str, line: int | None = None):
        raise ScenarioError(message, self.path, line)

    def param(self, key: str, read=None, default=None, *, section: str = "task",
              required: bool = False, each: bool = False, **options):
        """The value of ``key`` in ``section``: the last entry wins, and its
        text is read by ``read(text, line, **options)``, so that a bad value
        fails at its line.  Without an entry, ``default``, or a failure at
        the task line when ``required``.  ``each`` returns every entry
        instead, as :class:`Entry` objects holding the read values, in file
        order."""
        hits = [e for e in self.sections.get(section, []) if e.key == key]
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

    def coords(self, text: str, line: int | None = None) -> Chart:
        try:
            return Chart(tuple(n.strip() for n in text.split(",")))
        except ValueError as err:
            self.fail(str(err), line)

    def vector_field(self, text: str, line: int | None = None) -> VectorField:
        comps = self.exprs(text, line)
        if len(comps) != self.chart.dim:
            self.fail(f"field needs {self.chart.dim} components", line)
        return VectorField(self.chart, tuple(comps))

    def numbers(self, text: str, line: int | None = None,
                count: int | None = None) -> list[float]:
        try:
            values = [float(part) for part in text.split(",")]
        except ValueError:
            self.fail(f"expected comma-separated numbers, got {text!r}", line)
        if count is not None and len(values) != count:
            self.fail(f"expected {count} comma-separated numbers, got {text!r}", line)
        return values

    def grid(self, text: str, line: int | None = None) -> tuple[int, int]:
        """Two resolutions of at least 2."""
        values = [self.integer(part, line, low=2) for part in text.split(",")]
        if len(values) != 2:
            self.fail("grid needs two resolutions", line)
        return values[0], values[1]

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
            box, size = self.point_box, (self.point_count, self.chart.dim)
            pts.append(_generator(seed, 0).uniform(box[:, 0], box[:, 1], size=size))
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
            if current not in SECTION_KEYS:
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
    sc = Scenario(path, _parse_sections(text, path))
    for section, keys in SECTION_KEYS.items():
        for e in sc.sections.get(section, []):
            if keys is not None and e.key not in keys:
                sc.fail(f"unknown key {e.key!r} in [{section}]", e.line)

    sc.chart = chart = sc.param("coords", sc.coords, section="chart")
    if chart is None:
        sc.fail("scenario needs a [chart] section with coords")

    for e in sc.sections.get("exprs", []):
        if not _IDENT_RE.match(e.key) or e.key in FUNCTIONS or e.key in chart.coords:
            sc.fail(f"invalid expression name {e.key!r}: a name is an identifier, and "
                    f"neither a coordinate nor a function name", e.line)
        if len(e.key) > _MAX_NAME:
            sc.fail(f"expression name of {len(e.key)} characters: at most {_MAX_NAME}, "
                    f"so that its SVG file name fits", e.line)
        if e.key in sc.names:
            sc.fail(f"duplicate expression name {e.key!r}", e.line)
        sc.names[e.key] = sc.expr(e.value, e.line)

    fields = sc.param("field", sc.vector_field, section="distribution", each=True)
    if len(fields) > chart.dim:
        sc.fail(f"a distribution has at most {chart.dim} fields", fields[chart.dim].line)
    sc.frame = [e.value for e in fields]
    components = sc.param("component", sc.expr, section="map", each=True)
    if len(components) == 1:
        sc.fail("a map needs at least two components", components[0].line)
    sc.map_components = [e.value for e in components]

    rows = sc.param("point", sc.numbers, section="points", each=True, count=chart.dim)
    sc.point_rows = [e.value for e in rows]
    sc.point_count = sc.param("count", sc.integer, 0, section="points", low=0)
    sc.point_box = sc.param("box", sc.box, section="points")
    sc.point_seed = sc.param("seed", sc.integer, 0, section="points")
    if sc.point_count and sc.point_box is None:
        sc.fail("[points] with count needs a box",
                sc.param("count", section="points", each=True)[-1].line)

    if sc.sections.get("window"):
        box = sc.param("box", sc.box, section="window", dim=2)
        grid = sc.param("grid", sc.grid, (101, 101), section="window")
        if box is None:
            sc.fail("[window] needs a box")
        sc.window = Window(box[0, 0], box[0, 1], box[1, 0], box[1, 1], grid[0], grid[1])

    if not sc.sections.get("task"):
        sc.fail("scenario needs exactly one [task] section")
    kinds = sc.param("kind", each=True)
    if len(kinds) != 1:
        sc.fail("[task] needs exactly one kind", kinds[1].line if kinds else None)
    if kinds[0].value not in TASK_KEYS:
        sc.fail(f"unknown task kind {kinds[0].value!r} (expected one of "
                f"{', '.join(TASK_KEYS)})", kinds[0].line)
    sc.task, sc.task_line = kinds[0].value, kinds[0].line
    for e in sc.sections["task"]:
        if e.key not in TASK_KEYS[sc.task] + ("kind",):
            sc.fail(f"unknown key {e.key!r} in [task] of kind {sc.task} (it reads "
                    f"{', '.join(TASK_KEYS[sc.task]) or 'no other key'})", e.line)
    return sc


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read(), str(path))
