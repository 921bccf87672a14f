"""Core rank certification for partial isometries.

The central object is the freedom matrix of a map ``F`` relative to a
framed distribution: ``k`` first-order rows ``L_a F``, followed by one
row per index pair ``(a, b)``, ``a <= b`` in lexicographic order, where
the diagonal row holds ``L_a L_a F`` and the off-diagonal row holds the
symmetrized ``L_a L_b F + L_b L_a F``.  The rows are the contractions of
:mod:`hfreemaps.lie`.  A map is H-free at a point when this
``(k + k(k+1)/2) x q`` matrix has full row rank; the rank is certified
through singular values with a relative threshold.

The threshold rule, ``tol * sigma_max * size``, lives in
:func:`~hfreemaps.geometry.certified_ranks`, and every rank decision goes
through it: :func:`~hfreemaps.geometry.svd_ranks` where the singular
values are reported, :func:`~hfreemaps.geometry.full_rank` where only the
verdict is.  Certificates (the freedom matrix, the H-immersion test, both
ranks of :func:`wintergarten_rank`) pass ``size = max(rows, cols)``;
checks that the inputs are independent (the frame check, ``frame_rank``,
the casimir and Hamiltonian checks of Riemann-Poisson brackets) pass 1.

All assemblies are batched over point sets; single-point entry points
wrap the batch of size one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateFrame,
    NotHFree,
    NotImmersion,
    TooFewTargets,
    reject_nonfinite,
)
from .expr import Chart, Expr, as_expr, coordinates, eval_jet_groups, parse
from .geometry import (DEFAULT_RANK_TOL, Distribution, _frame_parts, certified_ranks,
                       full_rank, svd_ranks)
from .lie import _lie2_tensor, lie_rows

__all__ = [
    "MapSpec",
    "FreedomMatrix",
    "HFreeCertificate",
    "InducedMetric",
    "parse_map",
    "pair_order",
    "freedom_matrix",
    "freedom_matrix_many",
    "freedom_certificates",
    "is_hfree_at",
    "is_h_immersion_at",
    "induced_metric",
    "induced_metric_many",
    "positive_definite_many",
    "infinitesimal_invert",
    "wintergarten_rank",
]


@dataclass(frozen=True)
class MapSpec:
    """Smooth map into Euclidean space, one component expression each."""

    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        if isinstance(self.components, list):
            object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 2:
            raise ValueError("maps need at least two components")
        undeclared = coordinates(*self.components) - set(self.chart.coords)
        if undeclared:
            raise ValueError(f"undeclared coordinates {sorted(undeclared)}")

    @property
    def q(self) -> int:
        return len(self.components)


def parse_map(chart: Chart, *component_texts: str) -> MapSpec:
    return MapSpec(chart, tuple(parse(t) for t in component_texts))


def pair_order(k: int) -> list[tuple[int, int]]:
    """Second-order row index pairs: ``(a, b)``, ``a <= b``, lexicographic."""
    return [(a, b) for a in range(k) for b in range(a, k)]


@dataclass(frozen=True)
class FreedomMatrix:
    """Assembled freedom matrix at a point, with its rank certificate."""

    entries: np.ndarray          # (k + s_k, q)
    singular_values: np.ndarray  # non-increasing
    certified_rank: int
    threshold: float
    point: np.ndarray
    k: int

    def det(self) -> float:
        rows, cols = self.entries.shape
        if rows != cols:
            raise ValueError(f"matrix is {rows}x{cols}, determinant undefined")
        return float(np.linalg.det(self.entries))


@dataclass(frozen=True)
class HFreeCertificate:
    free: bool
    matrix: FreedomMatrix

    def __bool__(self) -> bool:
        return self.free


@dataclass(frozen=True)
class InducedMetric:
    """Pullback of the Euclidean metric restricted to the distribution."""

    matrix: np.ndarray
    point: np.ndarray

    def is_positive_definite(self) -> bool:
        return bool(positive_definite_many(self.matrix[None])[0])


def positive_definite_many(metrics: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack ``(B, k, k)`` is finite and has a
    Cholesky factor: one call over the finite matrices, and one per matrix
    only when that call raises (numpy raises for the whole stack)."""
    positive = np.all(np.isfinite(metrics), axis=(-2, -1))
    try:
        np.linalg.cholesky(metrics[positive])
    except np.linalg.LinAlgError:
        for i in np.flatnonzero(positive).tolist():
            try:
                np.linalg.cholesky(metrics[i])
            except np.linalg.LinAlgError:
                positive[i] = False
    return positive


# ---------------------------------------------------------------------------
# batched jet assembly


def _stack_rows(first, L2, doubled_diagonal: bool):
    """The first-order rows followed by one row per pair ``(a, b)``."""
    rows = [first]
    for a, b in pair_order(first.shape[1]):
        if a == b:
            row = L2[:, a, a, :]
            if doubled_diagonal:
                row = 2.0 * row
        else:
            row = L2[:, a, b, :] + L2[:, b, a, :]
        rows.append(row[:, None, :])
    return np.concatenate(rows, axis=1)


def _check_frame(d: Distribution, XV: np.ndarray, tol: float, *jets):
    """Raise :class:`DomainError` where the frame values ``XV`` or the
    ``jets`` are not finite, and :class:`DegenerateFrame` where the frame
    drops rank."""
    reject_nonfinite("non-finite jet values while assembling rows", XV, *jets)
    bad = np.nonzero(~full_rank(XV, tol))[0]
    if bad.size:
        raise DegenerateFrame(
            f"frame rank < {d.k} at {bad.size} of {XV.shape[0]} points "
            f"(first batch index {int(bad[0])})")


def _map_and_frame(d: Distribution, F: MapSpec, points, map_order: int):
    """The stacked map jet at ``map_order`` and the frame values and
    gradients (order ``map_order - 1``) at ``points (B, m)``, from one
    replay; non-finite map jets pass without a warning."""
    if F.chart != d.chart:
        raise ValueError("map and distribution must share one chart")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        Fjet, frame = eval_jet_groups(((F.components, map_order),
                                       (d.components, map_order - 1)), F.chart, points)
    return Fjet, *_frame_parts(d, frame)


def _lie_rows(d: Distribution, F: MapSpec, points: np.ndarray, tol: float):
    """Frame values ``XV``, first-order rows ``L_a F^i (B, k, q)`` and the
    iterated derivatives ``L_a L_c F^i (B, k, k, q)``, from one evaluation
    of the map and frame jets."""
    Fjet, XV, XG = _map_and_frame(d, F, points, 2)
    return _jet_rows(d, Fjet.gradient, Fjet.hessian, XV, XG, tol)


def _jet_rows(d: Distribution, Fgrads: np.ndarray, Fhesses: np.ndarray,
              XV: np.ndarray, XG: np.ndarray, tol: float):
    """:func:`_lie_rows` from map jets ``Fgrads (B, q, m)`` and
    ``Fhesses (B, q, m, m)`` and frame jets ``XV (B, k, m)`` and
    ``XG (B, k, m, m)``.  Raises :class:`DomainError` on non-finite jets
    and :class:`DegenerateFrame` where the frame drops rank."""
    _check_frame(d, XV, tol, Fgrads, Fhesses, XG)
    return XV, lie_rows(XV, Fgrads), _lie2_tensor(XV, XG, Fgrads, Fhesses)


def _assemble_many(d: Distribution, F: MapSpec, points: np.ndarray,
                   tol: float, doubled_diagonal: bool = False):
    _, first, L2 = _lie_rows(d, F, points, tol)
    return _stack_rows(first, L2, doubled_diagonal)


def freedom_matrix_many(d: Distribution, F: MapSpec, points,
                        tol: float = DEFAULT_RANK_TOL):
    """Batched assembly: returns ``(matrices (B, R, q), singular values,
    thresholds, certified ranks)``."""
    pts = np.asarray(points, dtype=float)
    matrices = _assemble_many(d, F, pts, tol)
    svals, thresholds, ranks = svd_ranks(matrices, tol, max(matrices.shape[-2:]))
    return matrices, svals, thresholds, ranks


def freedom_matrix(d: Distribution, F: MapSpec, p,
                   tol: float = DEFAULT_RANK_TOL) -> FreedomMatrix:
    """Assemble and rank-certify the freedom matrix at one point."""
    pts = np.asarray(p, dtype=float)[None, :]
    matrices, svals, thresholds, ranks = freedom_matrix_many(d, F, pts, tol)
    return FreedomMatrix(
        entries=matrices[0],
        singular_values=svals[0],
        certified_rank=int(ranks[0]),
        threshold=float(thresholds[0]),
        point=np.asarray(p, dtype=float),
        k=d.k,
    )


# ---------------------------------------------------------------------------
# certificates


def required_rank(k: int) -> int:
    return k + k * (k + 1) // 2


def _required_targets(d: Distribution, F: MapSpec) -> int:
    need = required_rank(d.k)
    if F.q < need:
        raise TooFewTargets(f"need q >= {need} target components, got q={F.q}")
    return need


def freedom_certificates(d: Distribution, F: MapSpec, points,
                         tol: float = DEFAULT_RANK_TOL):
    """The freedom matrices at ``points (B, m)`` and their certificate as
    report columns: the certified rank, the smallest retained singular
    value (0 at rank 0), the threshold, the verdict ``hfree`` (full rank)
    and ``uncertain``, where the singular value that decides the verdict
    lies strictly within a factor 10 of the threshold."""
    need = _required_targets(d, F)
    matrices, svals, thresholds, ranks = freedom_matrix_many(d, F, points, tol)
    retained = np.zeros(len(ranks))
    positive = ranks > 0
    retained[positive] = svals[positive, ranks[positive] - 1]
    critical = svals[:, need - 1]
    return matrices, {"certified_rank": ranks, "smallest_retained_sv": retained,
                      "threshold": thresholds, "hfree": ranks == need,
                      "uncertain": (0.1 * thresholds < critical) & (critical < 10.0 * thresholds)}


def is_hfree_at(d: Distribution, F: MapSpec, p,
                tol: float = DEFAULT_RANK_TOL) -> HFreeCertificate:
    """Full-rank certificate, with the assembled matrix as evidence."""
    need = _required_targets(d, F)
    matrix = freedom_matrix(d, F, p, tol)
    return HFreeCertificate(free=matrix.certified_rank == need, matrix=matrix)


def is_h_immersion_at(d: Distribution, F: MapSpec, p,
                      tol: float = DEFAULT_RANK_TOL) -> bool:
    """True when the first-order block ``(L_a F^i)`` has rank ``k``."""
    Fjet, XV, _ = _map_and_frame(d, F, np.asarray(p, dtype=float)[None, :], 1)
    _check_frame(d, XV, tol, Fjet.gradient)
    block = lie_rows(XV, Fjet.gradient)
    _, _, ranks = svd_ranks(block, tol, max(block.shape[-2:]))
    return int(ranks[0]) == d.k


@lru_cache
def _upper(k: int) -> np.ndarray:
    """The upper triangle of a ``k x k`` matrix, diagonal included, as a mask."""
    mask = ~np.tri(k, k, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def induced_metric_many(d: Distribution, F: MapSpec, points) -> np.ndarray:
    """Gram matrices ``g_ab = sum_i L_a F^i L_b F^i`` at ``points (B, m)``
    as ``(B, k, k)``.  Non-finite map jets give a non-finite metric, not an
    error, and the cli records such a point as not positive definite."""
    Fjet, XV, _ = _map_and_frame(d, F, points, 1)
    block = lie_rows(XV, Fjet.gradient)
    g = block @ np.swapaxes(block, -1, -2)
    # mirror the upper triangle so symmetry is exact; + 0.0 turns -0.0 into
    # 0.0, as adding the zeroed triangle did
    return np.where(_upper(d.k), g, np.swapaxes(g, -1, -2)) + 0.0


def induced_metric(d: Distribution, F: MapSpec, p) -> InducedMetric:
    """Gram matrix ``g_ab = sum_i L_a F^i L_b F^i`` at ``p``."""
    point = np.asarray(p, dtype=float)
    return InducedMetric(matrix=induced_metric_many(d, F, point[None, :])[0], point=point)


def infinitesimal_invert(d: Distribution, F: MapSpec, p, dg, psi,
                         tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Minimum-norm solution of the linearized metric-inducing system.

    ``psi`` is a length-``k`` sequence of expressions (numbers are
    promoted to constants); ``dg`` is a symmetric ``k x k`` matrix of
    expressions.  The solved rows are::

        sum_i L_a F^i  df^i                    = psi_a(p)
        sum_i (L_a L_b + L_b L_a) F^i  df^i    = L_a psi_b + L_b psi_a - dg_ab

    for ``a <= b``.  Raises :class:`NotHFree` when the rank certificate
    fails, since the system may then be unsolvable.
    """
    k = d.k
    psi = [as_expr(x) for x in psi]
    if len(psi) != k:
        raise ValueError(f"psi needs {k} entries")
    dg = [[as_expr(x) for x in row] for row in dg]
    if len(dg) != k or any(len(row) != k for row in dg):
        raise ValueError(f"dg must be {k}x{k}")
    for a in range(k):
        for b in range(a + 1, k):
            if dg[a][b] != dg[b][a]:
                raise ValueError("dg must be symmetric")

    need = _required_targets(d, F)
    # one evaluation of the map and frame jets gives both the certified
    # freedom matrix and the system with doubled diagonal rows
    pts = np.asarray(p, dtype=float)[None, :]
    XV, first, L2 = _lie_rows(d, F, pts, tol)
    matrices = _stack_rows(first, L2, False)
    _, _, ranks = svd_ranks(matrices, tol, max(matrices.shape[-2:]))
    if int(ranks[0]) != need:
        raise NotHFree(f"certified rank {int(ranks[0])} < {need} at {p}")
    system = _stack_rows(first, L2, True)[0]

    # the right-hand side reads values of psi and dg and gradients of psi
    psi_jet, dg_jet = eval_jet_groups(((psi, 1), ([dg[a][b] for a, b in pair_order(k)], 0)),
                                      d.chart, pts)
    dg_values = dg_jet.value[0]
    L_psi = lie_rows(XV, psi_jet.gradient)[0]  # L_a psi_b
    rhs = [float(v) for v in psi_jet.value[0]]
    for (a, b), dg_ab in zip(pair_order(k), dg_values):
        rhs.append(float(L_psi[a, b] + L_psi[b, a]) - float(dg_ab))
    rhs = np.array(rhs)

    df, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    residual = float(np.linalg.norm(system @ df - rhs))
    bound = 1e-8 * (1.0 + float(np.linalg.norm(rhs)))
    if residual > bound:
        raise NotHFree(f"residual {residual:.3e} exceeds bound {bound:.3e}")
    return df


def wintergarten_rank(d: Distribution, F: MapSpec, p,
                      tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of the normal-to-symmetric-tensor map built from the
    second-order rows; equals ``k(k+1)/2`` exactly when the map is
    H-free at ``p``."""
    k = d.k
    pts = np.asarray(p, dtype=float)[None, :]
    _, first, L2 = _lie_rows(d, F, pts, tol)
    rows = _stack_rows(first, L2, doubled_diagonal=True)[0]
    first, second = rows[:k], rows[k:]
    # one full SVD of the first-order block gives both the H-immersion
    # test (the rule of is_h_immersion_at) and an orthonormal basis of the
    # normal space, so the two cannot disagree on the rank
    _, svals, vh = np.linalg.svd(first, full_matrices=True)
    if int(certified_ranks(svals, tol, max(first.shape))[1]) != k:
        raise NotImmersion(f"first-order rows are rank deficient at {p}")
    normal_basis = vh[k:]
    if normal_basis.shape[0] == 0:
        return 0
    image = second @ normal_basis.T  # (s_k, q - k)
    return int(svd_ranks(image, tol, max(image.shape))[2])
