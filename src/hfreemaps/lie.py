"""Lie-derivative calculus on second-order jets.

Everything here is pointwise and exact: ``lie2`` composes the jets of
the function and of the second field's components in a single pass
rather than differentiating through a closure.  Each jet is evaluated
at the lowest order the formula reads: values of the first field,
gradients of the second field, and the jet of ``f`` to order 1 in
``lie`` and order 2 in ``lie2``.  The components of a field are
evaluated together, in one walk of the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (Chart, Expr, coordinates, derivative, eval_jet2, eval_jet2_many,
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
        declared = set(self.chart.coords)
        for comp in self.components:
            undeclared = coordinates(comp) - declared
            if undeclared:
                raise ValueError(f"undeclared coordinates {sorted(undeclared)}")

    def values(self, points) -> np.ndarray:
        """Component values at ``points (B, m)`` as ``(B, m)``."""
        return eval_jets_many(self.components, self.chart, points, order=0).value


def parse_field(chart: Chart, *component_texts: str) -> VectorField:
    return VectorField(chart, tuple(parse(t) for t in component_texts))


def _check_shared_chart(*objs):
    charts = {obj.chart for obj in objs}
    if len(charts) != 1:
        raise ValueError("arguments must share one chart")


def lie(xi: VectorField, f: Expr, p) -> float:
    """Directional derivative of ``f`` along ``xi`` at ``p``."""
    pts = np.asarray(p, dtype=float)[None, :]
    gradient = eval_jet2_many(f, xi.chart, pts, order=1).gradient[0]
    return float(xi.values(pts)[0] @ gradient)


def lie2(xi: VectorField, eta: VectorField, f: Expr, p) -> float:
    """Iterated derivative along ``xi`` then ``eta``:
    ``sum_ab [xi^a (d_a eta^b) d_b f + xi^a eta^b d_ab f]``."""
    _check_shared_chart(xi, eta)
    jf = eval_jet2(f, xi.chart, p)
    pts = np.asarray(p, dtype=float)[None, :]
    xv = xi.values(pts)[0]
    eta_jet = eval_jets_many(eta.components, eta.chart, pts, order=1)
    ev, eg = eta_jet.value[0], eta_jet.gradient[0]  # eg[b, a] = d_a eta^b
    first = np.einsum("a,ba,b->", xv, eg, jf.gradient)
    second = np.einsum("a,b,ab->", xv, ev, jf.hessian)
    return float(first + second)


def anticommutator(xi: VectorField, eta: VectorField, f: Expr, p) -> float:
    """Symmetrized second derivative ``L_xi L_eta f + L_eta L_xi f``."""
    return lie2(xi, eta, f, p) + lie2(eta, xi, f, p)


def lie_expr(xi: VectorField, f: Expr) -> Expr:
    """The directional derivative along ``xi`` as an expression tree."""
    out: Expr = fold_mul(xi.components[0], derivative(f, xi.chart.coords[0]))
    for name, comp in zip(xi.chart.coords[1:], xi.components[1:]):
        out = fold_add(out, fold_mul(comp, derivative(f, name)))
    return out
