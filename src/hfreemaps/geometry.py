"""Distributions given by explicit frames."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import Chart, Expr, eval_jets_many
from .jet import Jet2
from .lie import VectorField

DEFAULT_RANK_TOL = 1e-9

# unit roundoff of float64
_U = 2.0 ** -53
# assumed accuracy of LAPACK's singular values: each computed value lies
# within _SVD_ERROR * _U * sigma_max of the exact one
_SVD_ERROR = 1000.0
# stacks of at least this many matrices try the Gram bound before the SVD;
# the bound costs about 25 us per call against about 4 us for one small
# SVD, but 0.6 ms against 7 ms on ten thousand 2 x 3 matrices
_PROOF_BATCH = 64


def certified_ranks(svals: np.ndarray, tol: float, size):
    """Thresholds and ranks for singular values ``svals (..., r)``: the rank
    counts the values above ``tol * sigma_max * size``.  Certificates pass
    ``size = max(rows, cols)``; the checks that rows are independent pass 1."""
    thresholds = tol * svals[..., 0] * size
    return thresholds, (svals > thresholds[..., None]).sum(axis=-1)


def svd_ranks(matrices: np.ndarray, tol: float, size):
    """Singular values, thresholds and ranks of a stack of matrices
    ``(..., rows, cols)`` by the rule of :func:`certified_ranks`."""
    svals = np.linalg.svd(matrices, compute_uv=False)
    return (svals, *certified_ranks(svals, tol, size))


def full_rank(matrices: np.ndarray, tol: float, size=1, margin: float = 1.0) -> np.ndarray:
    """Whether each matrix of a stack ``(..., rows, cols)`` has full row
    rank, its ``rows``-th singular value above ``margin`` times the
    threshold of :func:`certified_ranks`; never with more rows than
    columns.  On stacks of at least ``_PROOF_BATCH`` matrices, those that
    :func:`full_rank_proven` proves need no SVD."""
    rows, cols = matrices.shape[-2:]
    if rows > cols:
        return np.zeros(matrices.shape[:-2], dtype=bool)
    stack = matrices.reshape(-1, rows, cols)
    if len(stack) < _PROOF_BATCH:
        svals, thresholds, _ = svd_ranks(matrices, tol, size)
        return svals[..., rows - 1] > margin * thresholds
    full = full_rank_proven(stack, margin * tol * size)
    rest = ~full
    if rest.any():
        svals, thresholds, _ = svd_ranks(stack[rest], tol, size)
        full[rest] = svals[:, rows - 1] > margin * thresholds
    return full.reshape(matrices.shape[:-2])


def full_rank_proven(matrices: np.ndarray, ratio: float) -> np.ndarray:
    """Which matrices of a stack ``(B, s, q)``, ``s <= q``, the SVD rule is
    certain to call full row rank: ``sigma_s > ratio * sigma_max`` for the
    singular values that ``np.linalg.svd`` returns, with the threshold
    product rounded, given that each returned value is within
    ``_SVD_ERROR * u * sigma_max`` of the exact one (an assumption).

    That holds when the exact values satisfy ``sigma_s > kappa * sigma_max``
    with ``kappa = ratio (1 + 8u)(1 + 1000u) + 1000u``.  Each matrix is
    scaled by a power of two to a largest entry in [1/2, 1), and is proven
    when the floating-point Cholesky of its Gram matrix minus ``alpha * I``
    succeeds, with ``alpha`` twice ``kappa**2 + (s + q + 2) u`` times the
    trace.  The ``(s + q + 2) u`` part covers the rounding of the Gram
    product, of the shift and of the factorization (Rump, "Verification of
    positive definiteness", BIT 46, 2006); the terms in ``2**-400`` and
    ``2**-900`` cover underflow.  A matrix with a non-finite entry, or a
    largest entry outside [2**-500, 2**500], is never proven."""
    B, s, q = matrices.shape
    # a copy, since it is scaled in place: for B = 1 or 1 x 1 matrices the
    # moved axes alone would be a view of the caller's array
    x = np.moveaxis(matrices, 0, -1).copy()  # (s, q, B)
    flat = x.reshape(s * q, B)
    big = np.maximum(flat.max(axis=0), -flat.min(axis=0))  # nan when any entry is nan
    proven = (big >= 2.0 ** -500) & (big <= 2.0 ** 500)
    if not proven.all():
        x[..., ~proven] = 0.0
    _, exponents = np.frexp(np.where(proven, big, 1.0))
    np.ldexp(x, -exponents, out=x)
    kappa = ratio * (1 + 8 * _U) * (1 + _SVD_ERROR * _U) + _SVD_ERROR * _U + 2.0 ** -400
    rho = 2.0 * (kappa * kappa + (s + q + 2) * _U + 2.0 ** -900)
    # the upper triangle of the Gram matrix, one entry per (B,) array
    gram = [[None] * s for _ in range(s)]
    for i in range(s):
        for j in range(i, s):
            gram[i][j] = x[i, 0] * x[j, 0]
            for k in range(1, q):
                gram[i][j] += x[i, k] * x[j, k]
    alpha = rho * sum(gram[j][j] for j in range(s))
    factor = [[None] * s for _ in range(s)]
    # a failed pivot makes later entries of its matrix inf or nan; they
    # only reach later pivots of the same matrix, which then fail as well
    with np.errstate(all="ignore"):
        for j in range(s):
            pivot = gram[j][j] - alpha
            for k in range(j):
                pivot = pivot - factor[k][j] * factor[k][j]
            proven &= pivot > 0.0
            root = np.sqrt(pivot)
            for i in range(j + 1, s):
                entry = gram[j][i]
                for k in range(j):
                    entry = entry - factor[k][j] * factor[k][i]
                factor[j][i] = entry / root
    return proven


@dataclass(frozen=True)
class Distribution:
    """Span of ``k`` vector fields on a chart of dimension ``m >= k``."""

    chart: Chart
    frame: tuple[VectorField, ...]

    def __post_init__(self):
        if isinstance(self.frame, list):
            object.__setattr__(self, "frame", tuple(self.frame))
        k = len(self.frame)
        if not 1 <= k <= self.chart.dim:
            raise ValueError(f"frame size {k} out of range for dimension {self.chart.dim}")
        for field in self.frame:
            if field.chart != self.chart:
                raise ValueError("frame fields must live on the distribution chart")

    @property
    def k(self) -> int:
        return len(self.frame)

    @cached_property
    def components(self) -> tuple[Expr, ...]:
        """The components of the frame, field by field: one group of roots."""
        return tuple(comp for field in self.frame for comp in field.components)


def _frame_parts(d: Distribution, jet: Jet2):
    """Frame values ``XV (B, k, m)`` and, above order 0, gradients
    ``XG (B, k, m, m)`` with ``XG[b, a, alpha, beta] = d_beta xi_a^alpha``,
    from the stacked jet of ``d.components``."""
    shape = (len(jet.value), d.k, d.chart.dim)
    return (jet.value.reshape(shape),
            None if jet.gradient is None else jet.gradient.reshape(shape + (d.chart.dim,)))


def frame_rank(d: Distribution, p, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of the ``k x m`` frame component matrix at ``p``."""
    jet = eval_jets_many(d.components, d.chart, np.asarray(p, dtype=float)[None, :], 0)
    return int(svd_ranks(_frame_parts(d, jet)[0], tol, 1)[2][0])
