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
depend on the frame.
"""

from dataclasses import dataclass

import numpy as np

from hfreemaps.constructions import (CURVE_VAR, FreeCurve, RPBracketSpec, _det_expr,
                                     _grad_exprs, _negate, build_cis)
from hfreemaps.expr import (_BINARY, _UNARY, Bin, Call, Chart, Coord, Expr, Neg, Num,
                            _constant_exponent, as_expr, derivative, eval_jet2,
                            eval_jets_many, fold_mul, fold_sub, substitute)
from hfreemaps.genericity import RandomMapSpec, _coefficients, _monomials
from hfreemaps.geometry import Distribution
from hfreemaps.hfree import MapSpec, freedom_matrix_many
from hfreemaps.jet import Jet2, jpow
from hfreemaps.lie import VectorField, lie_expr


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
