"""Independent formulas that the library's batched code is tested against.

``lie2`` and ``anticommutator`` contract jets at one point with their
own formula, apart from the freedom matrix's second-order rows;
``brute_force_cis_constant`` reads the product-map determinant constant
off one numeric determinant; ``evaluate`` is the interpreter that the
evaluator's compiled plans replaced, walking the trees by identity on
every call.  ``random_poly_map`` builds a sweep's map as expressions,
the path that the sweep's monomial jets replaced,
``rp_bracket_expr`` the bracket as one cofactor expansion, and
``predicted_1d_expr`` the composition's determinant ``Dpsi(f) (L_xi f)^3``
from symbolic derivatives, where the library reads it off jets.
``FrameChange`` and ``change_frame`` compose a new frame of a
distribution symbolically, for the checks that H-freeness does not
depend on the frame.  ``sequential_integrate`` is the Dormand-Prince
loop of one batch with scalar step state, which the grouped integrator
replaced, and ``bin_raster_locate_times`` the tube location that paired
cells with nodes through a 64 x 64 raster of bins and a sort, which the
node raster replaced.  ``per_node_render_levels`` is the level render
that evaluated every node alone once the batch left the domain, which
the retry without the flagged nodes replaced.  ``two_call_lie_rows`` is
the row assembly that evaluated the map and the frame in two replays,
which the grouped replay replaced.  ``step_deriv`` is the
closed-form derivative of the tube step, which the library never needs.
"""

from dataclasses import dataclass

import numpy as np

from hfreemaps.contours import LevelRender, marching_squares
from hfreemaps.constructions import (CURVE_VAR, FreeCurve, RPBracketSpec, _det_expr,
                                     _grad_exprs, _negate, build_cis)
from hfreemaps.errors import BlowUp, DomainError
from hfreemaps.expr import (_BINARY, _UNARY, Bin, Call, Chart, Coord, Expr, Neg, Num,
                            _constant_exponent, as_expr, derivative, eval_jet2,
                            eval_jets_many, eval_value_many, fold_mul, fold_sub, substitute)
from hfreemaps.genericity import RandomMapSpec, _coefficients, _monomials
from hfreemaps.geometry import Distribution
from hfreemaps.hfree import MapSpec, freedom_matrix_many
from hfreemaps.jet import Jet2, jpow
from hfreemaps.lie import VectorField, _lie2_tensor, lie_expr, lie_rows
from hfreemaps.transversal import (_DP_A, _DP_B5, _DP_D, _DP_E, _STEP_RATE, Tube, Window,
                                   _invert_bilinear)


def lie2(xi: VectorField, eta: VectorField, f, p) -> float:
    """Iterated derivative along ``xi`` then ``eta``:
    ``sum_ab [xi^a (d_a eta^b) d_b f + xi^a eta^b d_ab f]``."""
    if xi.chart != eta.chart:
        raise ValueError("arguments must share one chart")
    jf = eval_jet2(f, xi.chart, p)
    pts = np.asarray(p, dtype=float)[None, :]
    xv = xi.values(pts)[0]
    eta_jet = eval_jets_many(eta.components, eta.chart, pts, order=1)
    ev, eg = eta_jet.value[0], eta_jet.gradient[0]  # eg[b, a] = d_a eta^b
    first = np.einsum("a,ba,b->", xv, eg, jf.gradient)
    second = np.einsum("a,b,ab->", xv, ev, jf.hessian)
    return float(first + second)


def anticommutator(xi: VectorField, eta: VectorField, f, p) -> float:
    """Symmetrized second derivative ``L_xi L_eta f + L_eta L_xi f``."""
    return lie2(xi, eta, f, p) + lie2(eta, xi, f, p)


def two_call_lie_rows(d: Distribution, F: MapSpec, points: np.ndarray):
    """Frame values, first-order rows and iterated derivatives from one
    evaluation of the map's 2-jets and another of the frame's 1-jets."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        Fjet = eval_jets_many(F.components, F.chart, points)
    comps = [comp for field in d.frame for comp in field.components]
    frame = eval_jets_many(comps, d.chart, points, 1)
    shape = (len(points), d.k, d.chart.dim)
    XV, XG = frame.value.reshape(shape), frame.gradient.reshape(shape + (d.chart.dim,))
    return XV, lie_rows(XV, Fjet.gradient), _lie2_tensor(XV, XG, Fjet.gradient, Fjet.hessian)


def brute_force_cis_constant(n: int) -> float:
    """The product-map determinant constant on one canonical instance:
    angle frames ``d/dw_i``, ``f^i = w_i`` and exponential curves, so
    every ``g_i = 1``; the numeric determinant divided by
    ``prod_i Dpsi_i(f^i)``."""
    coords = tuple(f"a{i+1}" for i in range(n)) + tuple(f"w{i+1}" for i in range(n))
    chart = Chart(coords)
    zero, one = Num(0.0), Num(1.0)
    frame = tuple(
        VectorField(chart, tuple(one if j == n + i else zero for j in range(2 * n)))
        for i in range(n))
    dist = Distribution(chart, frame)
    cis = build_cis([Coord(f"w{i+1}") for i in range(n)],
                    [FreeCurve.exp() for _ in range(n)], chart)
    angles = 0.3 * np.arange(1, n + 1) * (-1.0) ** np.arange(n)
    point = np.concatenate([np.zeros(n), angles])
    matrices, _, _, _ = freedom_matrix_many(dist, cis.map_spec, point[None, :])
    return float(np.linalg.det(matrices[0])) / float(np.prod(np.exp(angles)))


def _poly_expr(coeffs: np.ndarray, exponents: list[tuple[int, ...]],
               chart: Chart) -> Expr:
    terms: list[Expr] = []
    for c, exps in zip(coeffs, exponents):
        term: Expr = Num(float(c))
        for name, e in zip(chart.coords, exps):
            if e == 1:
                term = term * Coord(name)
            elif e > 1:
                term = term * Bin("^", Coord(name), Num(float(e)))
        terms.append(term)
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


def random_poly_map(spec: RandomMapSpec, chart: Chart) -> MapSpec:
    """Deterministic map for ``(seed, stream)``; identical inputs render
    byte-identical component expressions."""
    if chart.dim != spec.dim:
        raise ValueError(f"chart dimension {chart.dim} != spec dimension {spec.dim}")
    exponents = _monomials(spec.dim, spec.degree)
    coeffs = _coefficients(spec.seed, spec.stream, spec.q, len(exponents))
    return MapSpec(chart, tuple(_poly_expr(row, exponents, chart) for row in coeffs))


def rp_bracket_expr(spec: RPBracketSpec, f: Expr, g: Expr) -> Expr:
    """The bracket as an expression tree (Euclidean metric only)."""
    if spec.metric is not None:
        raise ValueError("symbolic bracket supports the Euclidean metric only")
    rows = [_grad_exprs(h, spec.chart) for h in spec.casimirs]
    rows.append(_grad_exprs(f, spec.chart))
    rows.append(_grad_exprs(g, spec.chart))
    det = _det_expr(rows)
    return det if spec.orientation == 1 else _negate(det)


def predicted_1d_expr(xi: VectorField, f: Expr, curve: FreeCurve) -> Expr:
    """``Dpsi(f) * (L_xi f)^3`` as one expression: the curve freeness
    ``a'b'' - a''b'`` from symbolic derivatives, substituted into ``f``,
    times the cube of the symbolic directional derivative."""
    a, b = curve.components
    da, db = derivative(a, CURVE_VAR), derivative(b, CURVE_VAR)
    dda, ddb = derivative(da, CURVE_VAR), derivative(db, CURVE_VAR)
    freeness = fold_sub(fold_mul(da, ddb), fold_mul(dda, db))
    return fold_mul(substitute(freeness, {CURVE_VAR: f}), lie_expr(xi, f) ** 3)


# each function and its slope, for term_size
_CALLS = {"sin": (np.sin, np.cos), "cos": (np.cos, lambda u: -np.sin(u)),
          "exp": (np.exp, np.exp), "log": (np.log, lambda u: 1.0 / u),
          "sqrt": (np.sqrt, lambda u: 0.5 / np.sqrt(u)),
          "tanh": (np.tanh, lambda u: 1.0 - np.tanh(u) ** 2)}


def term_size(e: Expr, chart: Chart, pts: np.ndarray) -> np.ndarray:
    """The size of the terms of ``e`` at ``pts (B, m)``: a sum weighs the
    sizes of its terms, not their sum; a product multiplies the sizes of
    its factors; a quotient scales the sizes of its operands by its
    slopes; a power or a function scales the size of its argument by its
    slope and adds its own value.  So the size is at
    least ``|e|``, and a first-order rounding error analysis bounds any
    evaluation of ``e`` that rounds ``N`` times by ``N * eps * size``:
    each rounding errs by ``eps`` times a value at most its size, and
    reaches the result through the slopes counted here."""
    memo: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def walk(node):  # (value, size)
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, Num):
            out = (np.full(len(pts), node.value), np.full(len(pts), abs(node.value)))
        elif isinstance(node, Coord):
            v = pts[:, chart.index(node.name)]
            out = (v, np.abs(v))
        elif isinstance(node, Neg):
            v, size = walk(node.arg)
            out = (-v, size)
        elif isinstance(node, Call):
            u, su = walk(node.arg)
            func, slope = _CALLS[node.func]
            out = (func(u), np.abs(slope(u)) * su + np.abs(func(u)))
        else:
            (a, sa), (b, sb) = walk(node.left), walk(node.right)
            c = _constant_exponent(node.right) if node.op == "^" else None
            if node.op in "+-":
                out = (a + b if node.op == "+" else a - b, sa + sb)
            elif node.op == "*":
                out = (a * b, sa * sb)
            elif node.op == "/":
                out = (a / b, sa / np.abs(b) + np.abs(a) * sb / b ** 2)
            elif c is not None:
                out = (a ** c, np.abs(c * a ** (c - 1)) * sa + np.abs(a ** c))
            else:
                raise ValueError("term_size takes constant exponents only")
        memo[id(node)] = out
        return out

    return walk(e)[1]


def node_count(e: Expr) -> int:
    """Nodes of the tree ``e``, a node shared by several parents once."""
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, name) for name in ("arg", "left", "right")
                         if hasattr(node, name))
    return len(seen)


def schedule(roots: tuple[Expr, ...]):
    """``(node, operands)`` for each node below ``roots`` that is distinct
    by identity, in the order a recursive left-to-right evaluation of one
    root after the other finishes them, and the number of readers of each
    node.  Each distinct root counts one reader more, so its result
    outlives the walk.  A constant exponent is read from the tree, so it
    is no operand."""
    steps = []
    readers: dict[int, int] = {}
    for root in roots:
        readers[id(root)] = 1
    expanded: set[int] = set()
    stack = list(roots[::-1])  # nodes to expand, and (node, operands) once expanded
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is tuple:  # its operands are scheduled
            steps.append(node)
            continue
        if id(node) in expanded:
            continue
        expanded.add(id(node))
        if kind is Bin:
            if node.op == "^" and _constant_exponent(node.right) is not None:
                operands = (node.left,)
            else:
                operands = (node.left, node.right)
        elif kind is Neg or kind is Call:
            operands = (node.arg,)
        elif kind is Num or kind is Coord:
            steps.append((node, ()))
            continue
        else:
            raise TypeError(f"not an expression node: {node!r}")
        stack.append((node, operands))
        for arg in reversed(operands):
            key = id(arg)
            readers[key] = readers.get(key, 0) + 1
            if key not in expanded:
                stack.append(arg)
    return steps, readers


def evaluate(roots: tuple[Expr, ...], chart: Chart, pts: np.ndarray,
             order: int) -> dict[int, Jet2]:
    """Jets of ``roots`` at ``pts`` truncated at ``order`` from one walk,
    keyed by the ``id`` of each root: each scheduled node is evaluated
    once, and every result but a root's is dropped once its last reader
    has taken it."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    steps, readers = schedule(roots)
    m, batch = chart.dim, pts.shape[:-1]
    results: dict[int, Jet2] = {}
    for node, operands in steps:
        kind = type(node)
        if kind is Num:
            jet = Jet2.constant(node.value, m, batch, order)
        elif kind is Coord:
            index = chart.index(node.name)
            jet = Jet2.coordinate(pts[..., index], index, m, order)
        else:
            args = []
            for arg in operands:
                key = id(arg)
                args.append(results[key])
                readers[key] -= 1
                if not readers[key]:
                    del results[key]
            if kind is Neg:
                jet = -args[0]
            elif kind is Call:
                jet = _UNARY[node.func](args[0])
            elif node.op != "^":
                jet = _BINARY[node.op](*args)
            elif len(args) == 2:
                jet = jpow(*args)
            else:
                c = _constant_exponent(node.right)
                jet = args[0].powi(int(c)) if float(c).is_integer() else args[0].powf(c)
        results[id(node)] = jet
    return results


@dataclass(frozen=True)
class FrameChange:
    """Pointwise-invertible ``k x k`` matrix of expressions."""

    entries: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(as_expr(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        k = len(rows)
        if any(len(row) != k for row in rows):
            raise ValueError("frame change must be square")

    @property
    def k(self) -> int:
        return len(self.entries)


def change_frame(d: Distribution, lam: FrameChange) -> Distribution:
    """New frame ``zeta_a = sum_b lam[a][b] * xi_b``, composed symbolically."""
    if lam.k != d.k:
        raise ValueError(f"frame change is {lam.k}x{lam.k}, distribution has k={d.k}")
    new_fields = []
    for row in lam.entries:
        comps = []
        for alpha in range(d.chart.dim):
            acc: Expr = row[0] * d.frame[0].components[alpha]
            for lam_ab, field in zip(row[1:], d.frame[1:]):
                acc = acc + lam_ab * field.components[alpha]
            comps.append(acc)
        new_fields.append(VectorField(d.chart, tuple(comps)))
    return Distribution(d.chart, tuple(new_fields))


def bin_raster_locate_times(tube: Tube, nodes: np.ndarray, window: Window) -> np.ndarray:
    """Flow-time coordinate of every node that lies in the tabulated tube.

    The tube chart can fold over the window (the orthogonal leaf may run
    almost parallel to distant flow lines), so a node can have several
    preimages; all cells whose bounding box meets the node's raster bin
    are tested and the preimage with the smallest ``|t|`` wins.  Nodes
    in no cell get NaN.
    """
    S, T = tube.states.shape[:2]
    p00 = tube.states[:-1, :-1].reshape(-1, 2)
    p10 = tube.states[1:, :-1].reshape(-1, 2)
    p01 = tube.states[:-1, 1:].reshape(-1, 2)
    p11 = tube.states[1:, 1:].reshape(-1, 2)
    t_lo = np.broadcast_to(tube.times[:-1], (S - 1, T - 1)).reshape(-1)
    t_dt = np.broadcast_to(np.diff(tube.times), (S - 1, T - 1)).reshape(-1)

    lo = np.minimum(np.minimum(p00, p10), np.minimum(p01, p11))
    hi = np.maximum(np.maximum(p00, p10), np.maximum(p01, p11))
    wlo = np.array([window.x0, window.y0])
    whi = np.array([window.x1, window.y1])
    diag = float(np.linalg.norm(whi - wlo))
    edge = np.maximum.reduce([
        np.linalg.norm(p10 - p00, axis=1), np.linalg.norm(p01 - p00, axis=1),
        np.linalg.norm(p11 - p10, axis=1), np.linalg.norm(p11 - p01, axis=1)])
    # discard cells sheared apart by frozen trajectories; genuine cells
    # stay small, at the scale of one sample spacing times the flow speed
    keep = (np.all(lo <= whi, axis=1) & np.all(hi >= wlo, axis=1)
            & np.all(np.isfinite(lo), axis=1) & np.all(np.isfinite(hi), axis=1)
            & (edge <= 0.25 * diag) & (edge > 0.0))
    cells = np.nonzero(keep)[0]
    best_t = np.full(len(nodes), np.nan)
    if cells.size == 0:
        return best_t

    grid = 64
    span = whi - wlo

    def to_bins(xy: np.ndarray) -> np.ndarray:
        return np.clip(((xy - wlo) / span * grid).astype(int), 0, grid - 1)

    blo = to_bins(np.maximum(lo[cells], wlo))
    bhi = to_bins(np.minimum(hi[cells], whi))
    # (bin, cell) incidence pairs, one vectorized pass per bin offset
    pair_bins, pair_cells = [], []
    spans = bhi - blo
    for dx in range(int(spans[:, 0].max()) + 1):
        for dy in range(int(spans[:, 1].max()) + 1):
            mask = (spans[:, 0] >= dx) & (spans[:, 1] >= dy)
            if not np.any(mask):
                continue
            bx = blo[mask, 0] + dx
            by = blo[mask, 1] + dy
            pair_bins.append(bx * grid + by)
            pair_cells.append(cells[mask])
    pair_bins = np.concatenate(pair_bins)
    pair_cells = np.concatenate(pair_cells)
    order = np.argsort(pair_bins, kind="stable")
    pair_bins = pair_bins[order]
    pair_cells = pair_cells[order]

    node_bins_xy = to_bins(nodes)
    node_bins = node_bins_xy[:, 0] * grid + node_bins_xy[:, 1]
    starts = np.searchsorted(pair_bins, node_bins, side="left")
    ends = np.searchsorted(pair_bins, node_bins, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return best_t
    node_rep = np.repeat(np.arange(len(nodes)), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    flat = np.arange(total) - np.repeat(offsets, counts) + np.repeat(starts, counts)
    cand = pair_cells[flat]

    inside = np.all((nodes[node_rep] >= lo[cand]) & (nodes[node_rep] <= hi[cand]), axis=1)
    node_rep, cand = node_rep[inside], cand[inside]
    if node_rep.size == 0:
        return best_t

    _, v, ok = _invert_bilinear(nodes[node_rep], p00[cand], p10[cand],
                                p01[cand], p11[cand])
    node_rep, cand, v = node_rep[ok], cand[ok], v[ok]
    if node_rep.size == 0:
        return best_t
    t_val = t_lo[cand] + v * t_dt[cand]
    order = np.lexsort((np.abs(t_val), node_rep))
    node_sorted = node_rep[order]
    first = np.unique(node_sorted, return_index=True)[1]
    best_t[node_sorted[first]] = t_val[order][first]
    return best_t


def per_node_render_levels(f: Expr, chart: Chart, window: Window,
                           n_levels: int = 15) -> LevelRender:
    """``contours.render_levels`` as it was, with its per-node fallback:
    when the batch raises :class:`DomainError`, each node is evaluated
    alone, and the nodes that raise stay NaN."""
    nodes = window.nodes()
    try:
        values = eval_value_many(f, chart, nodes).reshape(window.ny, window.nx)
    except DomainError:
        values = np.full(len(nodes), np.nan)
        for i, p in enumerate(nodes):
            try:
                values[i] = eval_value_many(f, chart, p[None, :])[0]
            except DomainError:
                pass
        values = values.reshape(window.ny, window.nx)

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


def sequential_integrate(fun, y0: np.ndarray, times, rtol: float, atol: float,
                         freeze_box=None, stop=None) -> np.ndarray:
    """States of the autonomous system ``dy/ds = fun(y)`` at ``times``,
    which move away from 0 in one direction.  The last state ends the last
    step; the others come from the dense output of the step holding them.

    ``stop`` flags batches of sampled states; the run ends before the
    first flagged one.  ``freeze_box`` holds any batch row at the end of
    the step that leaves the box, so the rest of a batch can keep
    integrating past a runaway trajectory.
    """
    y = np.atleast_2d(np.array(y0, dtype=float))
    reach = np.abs(np.asarray(times, dtype=float))
    out = np.empty((len(reach),) + y.shape)
    alive = np.ones(y.shape[0], dtype=bool)
    if freeze_box is not None:
        lo, hi = freeze_box
        alive &= np.all((y >= lo) & (y <= hi), axis=1)
    last = float(times[-1]) if len(times) else 0.0
    direction = 1.0 if last > 0 else -1.0
    remaining = abs(last)
    h = min(remaining, 0.1)
    k1 = fun(y)
    done, start = 0, 0.0  # samples written; time reached, in absolute value
    room = np.inf  # time to go to the end of the last step cut by a domain error
    with np.errstate(over="ignore", invalid="ignore"):
        while remaining > 0.0 and np.any(alive):
            # a step that would leave less than the smallest allowed one takes it
            # all; no step passes the end of a step cut by a domain error
            limit = min(remaining, room)
            h = limit if h > limit - 1e-13 else h
            if h < 1e-13:
                raise BlowUp("step size underflow (trajectory is not integrable here)")
            ks = [k1]
            try:
                for stage in range(1, 6):
                    incr = sum(a * k for a, k in zip(_DP_A[stage], ks))
                    ks.append(fun(y + direction * h * incr))
                y5 = y + direction * h * sum(b * k for b, k in zip(_DP_B5[:6], ks))
                k7 = fun(y5)
            except DomainError:
                # a long step can reach past the field's domain: retry it shorter
                if h * 0.2 < 1e-13:
                    raise
                room, h = h, h * 0.2
                continue
            ks.append(k7)
            err = direction * h * sum(e * k for e, k in zip(_DP_E, ks))
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            ratios = (err[alive] / scale[alive]) ** 2
            err_norm = float(np.sqrt(np.mean(ratios)))
            if np.isfinite(err_norm) and err_norm <= 1.0:
                remaining -= h
                room = np.inf if room == h else room - h
                end = abs(last) - remaining
                upto = np.searchsorted(reach, end)
                s = ((reach[done:upto] - start) / h)[:, None, None]
                rise, step = y5 - y, direction * h
                slope = step * k1 - rise
                fourth = step * sum(d * k for d, k in zip(_DP_D, ks))
                dense = y + s * (rise + (1 - s) * (slope + s * (rise - step * k7 - slope
                                                                 + (1 - s) * fourth)))
                out[done:upto] = np.where(alive[:, None], dense, y)
                new, done, start = slice(done, upto), upto, end
                y = np.where(alive[:, None], y5, y)
                k1 = k7
                if stop is not None and np.any(stop(out[new])):
                    break
                if not np.all(np.isfinite(y[alive])):
                    raise BlowUp("trajectory diverged to a non-finite state")
                if freeze_box is not None:
                    lo, hi = freeze_box
                    alive &= np.all((y >= lo) & (y <= hi), axis=1)
                factor = 5.0 if err_norm == 0.0 else 0.9 * err_norm ** -0.2
            else:
                k1 = ks[0]
                factor = 0.2 if not np.isfinite(err_norm) else 0.9 * err_norm ** -0.2
            h *= min(5.0, max(0.2, factor))
    out[done:] = y  # the last sample, and those after every row froze
    if stop is not None:
        out = out[:np.argmax(np.append(stop(out), True))]
    return out[:, 0] if np.ndim(y0) == 1 else out


def step_deriv(t) -> np.ndarray:
    """``d/dt`` of ``transversal.step``: ``c (1 + t^2) / (2 (1 - t^2)^2)``
    times ``sech^2(c t / (1 - t^2))`` inside ``(-1, 1)``, 0 elsewhere.  It
    underflows to 0 before ``|t|`` reaches 1 (at 0.999 for ``c = 1``)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gap = 1.0 - t * t
        out = (_STEP_RATE * (1.0 + t * t) / (2.0 * gap * gap)
               / np.cosh(_STEP_RATE * t / gap) ** 2)
    return np.where(np.abs(t) < 1.0, out, 0.0)
