"""Explicit builders of rank-certified maps, with predicted determinants.

Three families are covered:

* products of free curves for commuting frames of integrable systems,
  whose determinant factors as ``C * prod_i g_i^(n+2) Dpsi_i(f^i)``
  with ``g_i = L_i f^i`` and the closed-form constant ``C = 2^(n(n-1)/2)``;
* the composition ``(a(f), b(f))`` of a scalar function with a free
  curve (one-dimensional distributions): the product map with ``n = 1``
  and ``C = 1``, so its determinant is ``Dpsi(f) * (L_xi f)^3``;
* compositions along Hamiltonian fields of Riemann-Poisson brackets.

The prediction reads ``g_i`` off the first-order jets of the ``f^i``
and ``Dpsi_i`` off the jets of each curve at its points ``f^i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CommutationViolation,
    DegenerateCasimirs,
    DomainError,
    NonTransversal,
    reject,
    reject_nonfinite,
)
from .expr import (
    Call,
    Chart,
    Coord,
    Expr,
    Num,
    as_expr,
    coordinates,
    derivative,
    eval_jet_groups,
    eval_jets_many,
    fold_add,
    fold_mul,
    fold_sub,
    parse,
    substitute,
)
from .geometry import DEFAULT_RANK_TOL, Distribution, _frame_parts, full_rank
from .hfree import MapSpec, freedom_certificates
from .lie import VectorField, lie_rows

CURVE_VAR = "t"
CURVE_CHART = Chart((CURVE_VAR,))


# ---------------------------------------------------------------------------
# free curves


@dataclass(frozen=True)
class FreeCurve:
    """Plane curve ``t -> (a(t), b(t))`` with ``a'b'' - a''b'`` nonvanishing."""

    kind: str
    components: tuple[Expr, Expr]
    domain: str = "line"

    @staticmethod
    def exp() -> "FreeCurve":
        return FreeCurve("exp", (Coord(CURVE_VAR), Call("exp", Coord(CURVE_VAR))))

    @staticmethod
    def circle() -> "FreeCurve":
        return FreeCurve("circle",
                         (Call("cos", Coord(CURVE_VAR)), Call("sin", Coord(CURVE_VAR))),
                         domain="circle")

    @staticmethod
    def custom(a, b, domain: str = "line",
               interval: tuple[float, float] = (-4.0, 4.0)) -> "FreeCurve":
        """Build a curve from two expressions in ``t`` alone after checking
        its freeness, and that it is defined, on ``interval`` at 1000 points."""
        a = parse(a) if isinstance(a, str) else as_expr(a)
        b = parse(b) if isinstance(b, str) else as_expr(b)
        if other := coordinates(a, b) - {CURVE_VAR}:
            raise ValueError(f"curve names coordinates other than {CURVE_VAR}: {sorted(other)}")
        curve = FreeCurve("custom", (a, b), domain=domain)
        ts = np.linspace(interval[0], interval[1], 1000)
        try:
            vals = curve_freeness_many(curve, ts)
        except DomainError as err:
            raise ValueError(f"curve is not defined on {interval}: {err} "
                             f"near t={ts[np.argmax(err.rows)]:.6g}") from None
        degenerate = (np.any(vals == 0.0) or not np.all(np.isfinite(vals))
                      or (vals.min() < 0.0 < vals.max()))  # sign change
        if degenerate:
            worst = ts[int(np.argmin(np.abs(vals)))]
            raise ValueError(f"curve is not free on {interval}: vanishes near t={worst:.6g}")
        return curve


def curve_freeness(curve: FreeCurve, t: float) -> float:
    """``a'(t) b''(t) - a''(t) b'(t)``, computed from exact jets."""
    return float(curve_freeness_many(curve, np.array([float(t)]))[0])


def curve_freeness_many(curve: FreeCurve, ts) -> np.ndarray:
    jet = eval_jets_many(curve.components, CURVE_CHART, np.asarray(ts, dtype=float)[:, None])
    d1, d2 = jet.gradient[..., 0], jet.hessian[..., 0, 0]
    return d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1]


@dataclass(frozen=True)
class PointwiseCheck:
    """Per-point determinant identity check plus the rank certificate.

    ``identity`` records agreement of the assembled determinant with the
    prediction; ``certified`` records full rank and a determinant above
    the identity tolerance; a point passes only when both hold (an
    identically zero determinant matches the prediction of a degenerate
    input but certifies nothing).  ``certificate`` holds the columns of
    :func:`~hfreemaps.hfree.freedom_certificates`, kept for reporting.
    """

    points: np.ndarray
    determinants: np.ndarray
    predicted: np.ndarray
    identity: np.ndarray
    certified: np.ndarray
    tolerance: float
    certificate: dict

    @property
    def passed(self) -> np.ndarray:
        return self.identity & self.certified

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))

    @property
    def max_mismatch(self) -> float:
        return float(np.max(np.abs(self.determinants - self.predicted)))


# ---------------------------------------------------------------------------
# products of free curves, and the one-dimensional composition


@dataclass(frozen=True)
class CisMap:
    """Curve components of each ``f^i`` followed by the products
    ``f^i f^j`` (``i < j``, lexicographic)."""

    map_spec: MapSpec
    fs: tuple[Expr, ...]
    curves: tuple[FreeCurve, ...]

    @property
    def n(self) -> int:
        return len(self.fs)


def build_cis(fs: Sequence, curves: Sequence[FreeCurve], chart: Chart) -> CisMap:
    fs = tuple(parse(f) if isinstance(f, str) else as_expr(f) for f in fs)
    curves = tuple(curves)
    if len(fs) != len(curves):
        raise ValueError("need one curve per function")
    comps: list[Expr] = []
    for f, curve in zip(fs, curves):
        comps.extend(substitute(c, {CURVE_VAR: f}) for c in curve.components)
    n = len(fs)
    for i in range(n):
        for j in range(i + 1, n):
            comps.append(fs[i] * fs[j])
    return CisMap(MapSpec(chart, tuple(comps)), fs, curves)


def compose_1d(f, curve: FreeCurve, chart: Chart) -> CisMap:
    """The map ``(a(f), b(f))``: the product map of one function."""
    return build_cis((f,), (curve,), chart)


def cis_determinant_constant(n: int) -> float:
    """The constant ``C = 2^(n(n-1)/2)`` of the product-map determinant.

    With commuting frames ``L_i f^j = 0`` and ``L_i g_j = 0`` for
    ``i != j``.  Ordering the rows as the blocks ``(i, (i, i))`` and then
    the off-diagonal pairs makes the freedom matrix block upper
    triangular: ``n`` blocks of determinant ``g_i^3 Dpsi_i(f^i)`` and one
    diagonal entry ``2 g_i g_j`` per pair ``i < j``.
    """
    return 2.0 ** (n * (n - 1) // 2)


def _verify_product(d: Distribution, built: CisMap, points, tol: float,
                    commuting: bool, rank_tol: float = DEFAULT_RANK_TOL) -> PointwiseCheck:
    """Determinants and rank certificates of the product map at each point
    against ``C * prod_i g_i^(n+2) Dpsi_i(f^i)``, to relative tolerance
    ``tol * max(1, |det|)``; ``g_i`` is the diagonal of the first-order
    rows ``L_i f^j``.  The ranks are certified at ``rank_tol``.
    ``commuting`` first enforces the bracket pattern of :func:`verify_cis`."""
    n = built.n
    if d.k != n:
        raise ValueError(f"distribution has k={d.k}, map was built for n={n}")
    pts = np.asarray(points, dtype=float)
    fjet, frame = eval_jet_groups(((built.fs, 1), (d.components, 0)), d.chart, pts)
    L = lie_rows(_frame_parts(d, frame)[0], fjet.gradient)  # L_{xi_i} f^j
    g = np.einsum("bii->bi", L).copy()
    if commuting:
        scale = np.maximum(1.0, np.max(np.abs(g), axis=1))[:, None, None]
        bad = (np.abs(L) > 1e-9 * scale) & ~np.eye(n, dtype=bool)
        if np.any(bad):
            b, i, j = (int(x[0]) for x in np.nonzero(bad))
            raise CommutationViolation(
                f"L_{i+1} f^{j+1} = {L[b, i, j]:.3e} != 0 at {pts[b]}")
        if np.any(g <= 0.0):
            b, i = np.unravel_index(int(np.argmin(g)), g.shape)
            raise CommutationViolation(
                f"g_{i+1} = {g[b, i]:.3e} <= 0 at {pts[b]}")

    predicted = np.full(len(pts), cis_determinant_constant(n))
    for i, curve in enumerate(built.curves):  # each curve at its own points f^i
        predicted *= g[:, i] ** (n + 2) * curve_freeness_many(curve, fjet.value[:, i])
    matrices, certificate = freedom_certificates(d, built.map_spec, pts, rank_tol)
    dets = np.linalg.det(matrices)
    identity = np.abs(dets - predicted) <= tol * np.maximum(1.0, np.abs(dets))
    # a determinant within the identity tolerance of zero certifies
    # nothing: with degenerate inputs the assembled entries are pure
    # rounding noise and their relative-threshold rank is meaningless
    certified = certificate["hfree"] & (np.abs(dets) > tol * np.maximum(1.0, np.abs(dets)))
    return PointwiseCheck(pts, dets, predicted, identity, certified, tol, certificate)


def verify_1d(d: Distribution, built: CisMap, points, tol: float = 1e-9,
              rank_tol: float = DEFAULT_RANK_TOL) -> PointwiseCheck:
    """Check ``det = Dpsi(f) (L_xi f)^3`` at each point: the product
    identity with ``n = 1``, without the sign check of :func:`verify_cis`,
    so a first integral (``L_xi f = 0``) gives a check that certifies no
    point."""
    if d.k != 1:
        raise ValueError("one-dimensional verification needs k = 1")
    return _verify_product(d, built, points, tol, commuting=False, rank_tol=rank_tol)


def verify_cis(d: Distribution, built: CisMap, points, tol: float = 1e-8,
               rank_tol: float = DEFAULT_RANK_TOL) -> PointwiseCheck:
    """Check the product-map determinant identity at each point.

    First enforces the bracket pattern ``L_i f^j = 0`` for ``i != j``
    and ``g_i = L_i f^i > 0`` (:class:`CommutationViolation` otherwise),
    then compares ``det`` with ``C * prod_i g_i^(n+2) Dpsi_i(f^i)``.  An
    ``L_i f^j`` counts as 0 within ``1e-9 * max(1, max_i |g_i|)``.
    """
    return _verify_product(d, built, points, tol, commuting=True, rank_tol=rank_tol)


# ---------------------------------------------------------------------------
# Riemann-Poisson brackets


@dataclass(frozen=True)
class RPBracketSpec:
    """Bracket data: ``n - 2`` pointwise-independent functions, an
    optional metric (Euclidean when omitted) and an orientation sign."""

    chart: Chart
    casimirs: tuple[Expr, ...]
    metric: tuple[tuple[Expr, ...], ...] | None = None
    orientation: int = 1

    def __post_init__(self):
        if isinstance(self.casimirs, list):
            object.__setattr__(self, "casimirs", tuple(self.casimirs))
        n = self.chart.dim
        if n < 2:
            raise ValueError("bracket needs dimension >= 2")
        if len(self.casimirs) != n - 2:
            raise ValueError(f"need {n - 2} casimirs for dimension {n}")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if self.metric is not None:
            rows = tuple(tuple(as_expr(x) for x in row) for row in self.metric)
            object.__setattr__(self, "metric", rows)
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ValueError("metric must be n x n")
            for i in range(n):
                for j in range(i + 1, n):
                    if rows[i][j] != rows[j][i]:
                        raise ValueError("metric must be symmetric")

    @property
    def n(self) -> int:
        return self.chart.dim


def _bracket(spec: RPBracketSpec, rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``orientation * det(rows) / sqrt(det metric)`` for the gradient
    rows ``(B, n, n)`` of the casimirs and both arguments."""
    if spec.metric is None:
        return spec.orientation * np.linalg.det(rows)
    G = eval_jets_many([e for row in spec.metric for e in row], spec.chart, pts, order=0)
    detg = np.linalg.det(G.value.reshape(len(pts), spec.n, spec.n))
    reject(detg <= 0.0, "metric determinant must be positive")
    return spec.orientation * np.linalg.det(rows) / np.sqrt(detg)


def rp_bracket_many(spec: RPBracketSpec, f: Expr, g: Expr, points,
                    tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Bracket values at ``points (B, n)`` from one stack of gradient rows
    of the casimirs, ``f`` and ``g``; its casimir rows serve the
    independence check.  A :class:`DomainError` in evaluating them, or at
    a non-finite casimir row, is therefore raised before
    :class:`DegenerateCasimirs`, with no numpy warning."""
    pts = np.asarray(points, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rows = eval_jets_many(spec.casimirs + (as_expr(f), as_expr(g)), spec.chart, pts,
                              order=1).gradient
    reject_nonfinite("non-finite casimir gradient values", rows[:, :-2])
    if spec.casimirs:
        bad = np.flatnonzero(~full_rank(rows[:, :-2], tol))
        if bad.size:
            raise DegenerateCasimirs(
                f"casimir differentials dependent at {pts[int(bad[0])]}")
    return _bracket(spec, rows, pts)


def rp_bracket(spec: RPBracketSpec, f, g, p, tol: float = DEFAULT_RANK_TOL) -> float:
    """Bracket value: ``orientation * det(casimir/f/g gradients) / sqrt(det metric)``."""
    f = parse(f) if isinstance(f, str) else as_expr(f)
    g = parse(g) if isinstance(g, str) else as_expr(g)
    return float(rp_bracket_many(spec, f, g, np.asarray(p, dtype=float)[None, :], tol)[0])


def _det_expr(rows: list[list[Expr]]) -> Expr:
    """Cofactor expansion of a matrix of expressions along its first row."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total: Expr = Num(0.0)
    for col in range(size):
        minor = [[row[c] for c in range(size) if c != col] for row in rows[1:]]
        term = fold_mul(rows[0][col], _det_expr(minor))
        total = fold_add(total, term) if col % 2 == 0 else fold_sub(total, term)
    return total


def _grad_exprs(e: Expr, chart: Chart) -> list[Expr]:
    return [derivative(e, name) for name in chart.coords]


def _negate(e: Expr) -> Expr:
    return fold_sub(Num(0.0), e)


def hamiltonian_field(spec: RPBracketSpec, h) -> VectorField:
    """Field ``xi_h`` with ``L_{xi_h} g = {h, g}`` for all ``g``, from the
    cofactor expansion of the casimir/h gradient matrix."""
    h = parse(h) if isinstance(h, str) else as_expr(h)
    n = spec.n
    rows = [_grad_exprs(c, spec.chart) for c in spec.casimirs]
    rows.append(_grad_exprs(h, spec.chart))
    comps: list[Expr] = []
    for beta in range(n):
        minor = [[row[c] for c in range(n) if c != beta] for row in rows]
        cof = _det_expr(minor)
        if (n - 1 + beta) % 2 == 1:
            cof = _negate(cof)
        comps.append(cof)
    if spec.metric is not None:
        G = [[spec.metric[i][j] for j in range(n)] for i in range(n)]
        denom = Call("sqrt", _det_expr(G))
        comps = [c / denom for c in comps]
    if spec.orientation == -1:
        comps = [_negate(c) for c in comps]
    return VectorField(spec.chart, tuple(comps))


@dataclass(frozen=True)
class RpMap:
    """Curve composition along a Hamiltonian direction."""

    map_spec: MapSpec
    field: VectorField
    h: Expr
    f: Expr
    curve: FreeCurve


def build_rp(spec: RPBracketSpec, h, f, curve: FreeCurve, check_points,
             tol: float = DEFAULT_RANK_TOL) -> RpMap:
    """Map ``(a(f), b(f))`` along ``xi_h``; requires ``{h, f} > 0`` at
    every check point (:class:`NonTransversal` otherwise), from finite
    casimir, ``h`` and ``f`` gradients (:class:`DomainError` otherwise)."""
    h = parse(h) if isinstance(h, str) else as_expr(h)
    f = parse(f) if isinstance(f, str) else as_expr(f)
    pts = np.asarray(check_points, dtype=float)
    # one stack of gradient rows serves the independence check of the
    # casimirs and h (its first n - 1 rows; the casimirs alone are then
    # independent too, by interlacing of singular values) and {h, f}
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rows = eval_jets_many(spec.casimirs + (h, f), spec.chart, pts, order=1).gradient
    reject_nonfinite("non-finite gradient values of the casimirs, h or f", rows)
    if not full_rank(rows[:, :-1], tol).all():
        raise DegenerateCasimirs("h is not independent from the casimirs")
    brackets = _bracket(spec, rows, pts)
    if np.any(brackets <= 0.0):
        worst = pts[int(np.argmin(brackets))]
        raise NonTransversal(
            f"{{h, f}} = {float(np.min(brackets)):.3e} <= 0 at {worst}")
    return RpMap(compose_1d(f, curve, spec.chart).map_spec, hamiltonian_field(spec, h),
                 h, f, curve)


def verify_rp(spec: RPBracketSpec, built: RpMap, points,
              tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Full-rank certification of the built map along ``span{xi_h}`` at
    each point; returns the boolean mask."""
    dist = Distribution(spec.chart, (built.field,))
    return freedom_certificates(dist, built.map_spec, points, tol)[1]["hfree"]
