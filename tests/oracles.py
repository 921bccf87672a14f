"""Independent formulas that the library's batched code is tested against.

``lie2`` and ``anticommutator`` contract jets at one point with their
own formula, apart from the freedom matrix's second-order rows;
``brute_force_cis_constant`` reads the product-map determinant constant
off one numeric determinant.
"""

import numpy as np

from hfreemaps.constructions import FreeCurve, build_cis
from hfreemaps.expr import Chart, Coord, Num, eval_jet2, eval_jets_many
from hfreemaps.geometry import Distribution
from hfreemaps.hfree import freedom_matrix_many
from hfreemaps.lie import VectorField


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
