"""Lie-derivative calculus on second-order jets.

This module holds the only contractions of frame values with jets.
:func:`lie_rows` gives the first-order derivatives ``L_a F^i`` of a
batch, and :func:`_lie2_tensor` the iterated ones ``L_a L_c F^i``; the
freedom matrix, the induced metric, the linearized inversion and the
transversal and product-map checks all read them.  The single-point
:func:`lie` is a batch of one, so it equals the batched contraction bit
for bit.  Jets are evaluated at the lowest order the formula reads, and
the components of a field are evaluated together, in one walk of the
evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (Chart, Expr, Num, _is_zero, coordinates, derivative, eval_jet_groups,
                   eval_jets_many, fold_add, fold_mul, parse)


@dataclass(frozen=True)
class VectorField:
    """Vector field on a chart, one component expression per coordinate."""

    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        if isinstance(self.components, list):
            object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.chart.dim:
            raise ValueError(
                f"field needs {self.chart.dim} components, got {len(self.components)}")
        undeclared = coordinates(*self.components) - set(self.chart.coords)
        if undeclared:
            raise ValueError(f"undeclared coordinates {sorted(undeclared)}")

    def values(self, points) -> np.ndarray:
        """Component values at ``points (B, m)`` as ``(B, m)``."""
        return eval_jets_many(self.components, self.chart, points, order=0).value


def parse_field(chart: Chart, *component_texts: str) -> VectorField:
    return VectorField(chart, tuple(parse(t) for t in component_texts))


def lie_rows(XV: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """First-order derivatives ``L_a F^i = sum_o xi_a^o d_o F^i`` as
    ``(B, k, q)``, from frame values ``XV (B, k, m)`` and gradients
    ``grads (B, q, m)``.  The two-operand contraction gives the same bits
    for any ``k`` and ``q``, so a sliced batch matches the full one."""
    return np.einsum("bao,bio->bai", XV, grads)


def _lie2_tensor(XV, XG, Fgrads, Fhesses):
    """Iterated derivatives ``L_a L_c F^i (B, k, k, q)`` from frame jets
    ``XV (B, k, m)``, ``XG (B, k, m, m)`` and map jets ``Fgrads (B, q, m)``,
    ``Fhesses (B, q, m, m)``."""
    # L_a L_c F^i  =  xi_a^o d_o xi_c^p d_p F^i  +  xi_a^o xi_c^p d_op F^i
    first = np.einsum("bao,bcpo,bip->baci", XV, XG, Fgrads)
    second = np.einsum("bao,bcp,biop->baci", XV, XV, Fhesses)
    return first + second


def lie(xi: VectorField, f: Expr, p) -> float:
    """Directional derivative of ``f`` along ``xi`` at ``p``: the batch of
    one of :func:`value_and_lie`."""
    return float(value_and_lie(xi, f, np.asarray(p, dtype=float)[None, :])[1][0])


def value_and_lie(xi: VectorField, f: Expr, points: np.ndarray):
    """Values of ``f`` and of its derivative along ``xi`` at
    ``points (B, m)``, both ``(B,)``, from one replay of ``f`` at order 1
    and ``xi`` at order 0."""
    fjet, field = eval_jet_groups((((f,), 1), (xi.components, 0)), xi.chart, points)
    return fjet.value[:, 0], lie_rows(field.value[:, None, :], fjet.gradient)[:, 0, 0]


def lie_expr(xi: VectorField, f: Expr) -> Expr:
    """The directional derivative along ``xi`` as an expression tree."""
    out: Expr = Num(0.0)
    for name, comp in zip(xi.chart.coords, xi.components):
        if not _is_zero(comp):  # its term would fold to 0: build no derivative
            out = fold_add(out, fold_mul(comp, derivative(f, name)))
    return out
