"""Distributions given by explicit frames."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Chart, eval_jets_many
from .jet import Jet2
from .lie import VectorField

DEFAULT_RANK_TOL = 1e-9


def certified_ranks(svals: np.ndarray, shape, tol: float, sized: bool = True):
    """Thresholds and ranks for singular values ``svals (..., r)`` of
    matrices of ``shape (..., rows, cols)``: the rank counts the values
    above ``tol * sigma_max``, times ``max(rows, cols)`` when ``sized``."""
    if sized:
        thresholds = tol * svals[..., 0] * max(shape[-2], shape[-1])
        return thresholds, (svals > thresholds[..., None]).sum(axis=-1)
    with np.errstate(invalid="ignore"):
        thresholds = tol * svals[..., 0]
        return thresholds, (svals > thresholds[..., None]).sum(axis=-1)


def unsized_ranks(matrices: np.ndarray, tol: float) -> np.ndarray:
    """Ranks of a stack of matrices ``(..., rows, cols)`` by the unsized
    rule of :func:`certified_ranks`: the check that rows are independent.
    One row's singular value is its 2-norm, which ``hypot`` keeps in range."""
    svals = (np.hypot.reduce(matrices, axis=-1) if matrices.shape[-2] == 1
             else np.linalg.svd(matrices, compute_uv=False))
    return certified_ranks(svals, matrices.shape, tol, sized=False)[1]


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


def _frame_jets(d: Distribution, points, order: int = 0) -> Jet2:
    """Jets of the frame components at ``points (B, m)`` from one walk:
    value ``XV (B, k, m)`` and, at ``order`` 1, gradient
    ``XG (B, k, m, m)`` with ``XG[b, a, alpha, beta] = d_beta xi_a^alpha``."""
    comps = [comp for field in d.frame for comp in field.components]
    jet = eval_jets_many(comps, d.chart, points, order)
    shape = (len(jet.value), d.k, d.chart.dim)
    return Jet2(*(None if part is None else part.reshape(shape + part.shape[2:])
                  for part in (jet.value, jet.gradient, jet.hessian)))


def frame_rank(d: Distribution, p, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of the ``k x m`` frame component matrix at ``p``."""
    return int(unsized_ranks(_frame_jets(d, np.asarray(p, dtype=float)[None, :]).value,
                             tol)[0])
