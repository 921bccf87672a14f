"""Level-set extraction by marching squares, with SVG output.

Contours are emitted as polylines (merged from per-cell segments) at
equally spaced levels strictly between the grid minimum and maximum;
nodes outside the function's domain are NaN, and the cells that touch
them are skipped.  The SVG output is deterministic for fixed inputs: no
timestamps, fixed float formatting, and stable polyline ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import Chart, Expr, eval_value_many
from .errors import DomainError
from .transversal import Window

__all__ = ["LevelRender", "marching_squares", "render_levels", "contour_svg"]


# Cell corners 0..3 are (x0, y0), (x1, y0), (x1, y1), (x0, y1); bit i of a
# cell's code is set when corner i lies above the level.  Edge e runs from
# corner _EDGES[e][0] to corner _EDGES[e][1].
_EDGES = ((0, 1), (1, 2), (3, 2), (0, 3))
_EDGE_START, _EDGE_END = np.array(_EDGES).T


def _case_table() -> np.ndarray:
    """Edge pairs of each code, ``[code, centre_above, pair, end]``;
    -1 marks a missing second pair.  Only the saddle codes 5 and 10 depend
    on whether the cell-centre average lies above the level."""
    single = {
        1: (3, 0), 2: (0, 1), 3: (3, 1), 4: (1, 2), 6: (0, 2), 7: (3, 2),
        8: (2, 3), 9: (0, 2), 11: (1, 2), 12: (1, 3), 13: (0, 1), 14: (3, 0),
    }
    table = np.full((16, 2, 2, 2), -1, dtype=np.intp)
    for code, pair in single.items():
        table[code, :, 0] = pair
    table[5, 1] = [(3, 0), (1, 2)]
    table[5, 0] = [(3, 2), (1, 0)]
    table[10, 1] = [(0, 1), (2, 3)]
    table[10, 0] = [(0, 3), (2, 1)]
    return table


_CASES = _case_table()


def _endpoint_keys(segs: np.ndarray) -> list:
    """The keys that chain segments ``(n, 2, 2)``: each endpoint rounded
    to 9 decimals, as ``round`` rounds a numpy float, with -0.0 folded
    into 0.0; one pair of ``(x, y)`` tuples per segment."""
    return [(tuple(a), tuple(b)) for a, b in (np.round(segs, 9) + 0.0).tolist()]


def _merge_segments(segments, keys):
    """Chain shared endpoints into polylines; deterministic ordering.
    ``keys`` are the segments' endpoint keys (:func:`_endpoint_keys`)."""
    if not len(segments):
        return []

    adjacency: dict = {}
    for idx, (a, b) in enumerate(keys):
        adjacency.setdefault(a, []).append((idx, False))
        adjacency.setdefault(b, []).append((idx, True))

    used = [False] * len(segments)

    def walk(idx, reverse):
        a, b = segments[idx]
        used[idx] = True
        path = [a, b] if not reverse else [b, a]
        end = keys[idx][0 if reverse else 1]
        while True:
            links = [entry for entry in adjacency[end] if not used[entry[0]]]
            if not links:
                return path
            nxt, at_end = links[0]
            used[nxt] = True
            a, b = segments[nxt]
            path.append(a if at_end else b)
            end = keys[nxt][0 if at_end else 1]

    polylines = []
    endpoints = sorted(
        (pt for pt, entries in adjacency.items() if len(entries) == 1))
    for pt in endpoints:
        for idx, at_end in adjacency[pt]:
            if not used[idx]:
                polylines.append(walk(idx, at_end))
    for idx in range(len(segments)):  # remaining closed loops
        if not used[idx]:
            polylines.append(walk(idx, False))
    return [np.array(p) for p in polylines]


def marching_squares(xs: np.ndarray, ys: np.ndarray, values: np.ndarray,
                     level: float):
    """Polylines of ``values == level``; NaN cells are skipped and their
    indices returned separately.

    One pass over all cells: segments come out in row-major cell order,
    and each edge point is interpolated as ``p0 + t*(p1 - p0)`` with
    ``t = (level - v0) / (v1 - v0)`` clamped to [0, 1] (0 when
    ``v1 == v0``)."""
    finite = np.isfinite(values)
    cell_finite = finite[:-1, :-1] & finite[:-1, 1:] & finite[1:, 1:] & finite[1:, :-1]
    skipped = list(zip(*(i.tolist() for i in np.nonzero(~cell_finite))))

    above = values > level
    code = (above[:-1, :-1] | above[:-1, 1:] << 1 | above[1:, 1:] << 2
            | above[1:, :-1] << 3)
    iy, ix = np.nonzero(cell_finite & (code != 0) & (code != 15))
    if iy.size == 0:
        return [], skipped
    code = code[iy, ix]
    x0, x1 = xs[ix], xs[ix + 1]
    y0, y1 = ys[iy], ys[iy + 1]
    # corner values and positions in corner order, shape (4, cells)
    v = np.stack([values[iy, ix], values[iy, ix + 1],
                  values[iy + 1, ix + 1], values[iy + 1, ix]])
    cx = np.stack([x0, x1, x1, x0])
    cy = np.stack([y0, y0, y1, y1])
    start, end = _EDGE_START, _EDGE_END
    v0, v1 = v[start], v[end]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(v1 == v0, 0.0, (level - v0) / (v1 - v0))
        t = np.where(t > 0.0, t, 0.0)
        t = np.where(t < 1.0, t, 1.0)
        ex = cx[start] + t * (cx[end] - cx[start])
        ey = cy[start] + t * (cy[end] - cy[start])
        centre_above = (v[0] + v[1] + v[2] + v[3]) / 4.0 > level
    points = np.stack([ex.T, ey.T], axis=-1)              # (cells, edge, xy)
    pairs = _CASES[code, centre_above.astype(np.intp)]    # (cells, pair, end)
    cells = np.arange(code.size)[:, None, None]
    segs = points[cells, np.maximum(pairs, 0)]            # (cells, pair, end, xy)
    keep = (pairs[..., 0] >= 0) & (segs[:, :, 0] != segs[:, :, 1]).any(axis=-1)
    segs = segs[keep]
    return _merge_segments(segs.tolist(), _endpoint_keys(segs)), skipped


@dataclass(frozen=True)
class LevelRender:
    levels: np.ndarray
    polylines: dict            # level index -> list of (L, 2) arrays
    skipped_cells: list
    warnings: list = field(default_factory=list)

    def svg(self, window: Window) -> str:
        return contour_svg(window, self.levels, self.polylines)


def render_levels(f: Expr, chart: Chart, window: Window,
                  n_levels: int = 15) -> LevelRender:
    """Contours of ``f`` at ``n_levels`` equally spaced values strictly
    between the grid minimum and maximum.  The nodes a :class:`DomainError`
    flags stay NaN, and the others are evaluated again as one batch."""
    if chart.dim != 2:
        raise ValueError("level rendering needs a two-dimensional chart")
    if n_levels < 1:
        raise ValueError(f"need at least one level, got {n_levels}")
    nodes = window.nodes()
    values, todo = np.full((window.ny, window.nx), np.nan), np.arange(len(nodes))
    while todo.size:
        try:
            values.flat[todo] = eval_value_many(f, chart, nodes[todo])
            break
        except DomainError as err:
            todo = todo[~err.rows]

    finite = values[np.isfinite(values)]
    warnings = []
    if finite.size == 0:
        warnings.append("function has no finite values on the window")
        return LevelRender(np.array([]), {}, [], warnings)
    vmin, vmax = float(finite.min()), float(finite.max())
    if vmin == vmax:
        warnings.append("function is constant on the window; no contours")
        return LevelRender(np.array([]), {}, [], warnings)
    step = (vmax - vmin) / (n_levels + 1)
    levels = vmin + step * np.arange(1, n_levels + 1)

    xs, ys = window.xs(), window.ys()
    polylines = {}
    skipped_all = []
    for i, level in enumerate(levels):
        lines, skipped = marching_squares(xs, ys, values, float(level))
        polylines[i] = lines
        if i == 0:
            skipped_all = skipped
    return LevelRender(levels, polylines, skipped_all, warnings)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def contour_svg(window: Window, levels: np.ndarray, polylines: dict) -> str:
    """SVG 1.1 document; viewBox matches the window (y axis flipped by
    mirroring coordinates inside the same box)."""
    width = window.x1 - window.x0
    height = window.y1 - window.y0
    stroke = max(width, height) / 400.0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(window.x0)} {_fmt(window.y0)} {_fmt(width)} {_fmt(height)}">',
        f'<rect x="{_fmt(window.x0)}" y="{_fmt(window.y0)}" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" fill="white"/>',
    ]
    flip = window.y0 + window.y1
    for i in sorted(polylines):
        shade = 20 + int(60.0 * i / max(1, len(levels) - 1))
        colour = f"rgb({shade}%,{shade}%,{shade}%)"
        for line in polylines[i]:
            pts = " ".join(f"{_fmt(x)},{_fmt(flip - y)}" for x, y in line)
            parts.append(f'<polyline fill="none" stroke="{colour}" '
                         f'stroke-width="{_fmt(stroke)}" points="{pts}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
