"""Monte-Carlo estimation of how often random maps are rank-certified.

Random polynomial maps are generated from a counter-based generator
(Philox) keyed by ``(seed, stream)``, so every worker regenerates its
own stream and results are bit-identical for any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .artifacts import write_text
from .expr import Bin, Chart, Coord, Expr, Num
from .geometry import DEFAULT_RANK_TOL, Distribution
from .hfree import MapSpec, freedom_matrix_many, required_rank

_Z95 = 1.959963984540054

__all__ = ["RandomMapSpec", "GenericityResult", "random_poly_map",
           "genericity_trial", "write_trials_csv"]


@dataclass(frozen=True)
class RandomMapSpec:
    """Dense random polynomial map: ``q`` components of total degree
    ``degree`` in ``dim`` variables, coefficients uniform on [-1, 1]."""

    dim: int
    q: int
    degree: int
    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("degree must be at least 2 "
                             "(lower degrees kill all second-order rows)")
        if self.q < 2:
            raise ValueError("need at least two components")


def _monomials(dim: int, degree: int) -> list[tuple[int, ...]]:
    out = [e for e in product(range(degree + 1), repeat=dim) if sum(e) <= degree]
    out.sort()
    return out


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    rng = _generator(spec.seed, spec.stream)
    coeffs = rng.uniform(-1.0, 1.0, size=(spec.q, len(exponents)))
    return MapSpec(chart, tuple(_poly_expr(row, exponents, chart) for row in coeffs))


@dataclass(frozen=True)
class GenericityResult:
    q: int
    degree: int
    n_pairs: int
    successes: int
    marginals: int
    fraction: float
    ci_low: float
    ci_high: float
    seed: int
    too_few_targets: bool = False
    failures: list = field(default_factory=list)       # (map_index, point)
    marginal_pairs: list = field(default_factory=list)


def _wilson(successes: int, n: int) -> tuple[float, float]:
    if n == 0:
        return 0.0, 0.0
    p = successes / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2 * n)) / denom
    half = _Z95 * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def genericity_trial(d: Distribution, q: int, degree: int, n_maps: int,
                     n_points: int, seed: int, box,
                     threads: int = 1, tol: float = DEFAULT_RANK_TOL) -> GenericityResult:
    """Fraction of (map, point) pairs whose freedom matrix is full rank.

    ``box`` is an ``(m, 2)`` array of per-coordinate bounds.  Pairs whose
    smallest required singular value lands within a factor 10 of the
    rank threshold are counted as marginal, not as successes.
    """
    box = np.asarray(box, dtype=float)
    m = d.chart.dim
    if box.shape != (m, 2):
        raise ValueError(f"box must have shape ({m}, 2)")
    need = required_rank(d.k)
    n_pairs = n_maps * n_points
    if q < need:
        return GenericityResult(q, degree, n_pairs, 0, 0, 0.0, 0.0, 0.0, seed,
                                too_few_targets=True)

    def run_map(index: int):
        spec = RandomMapSpec(m, q, degree, seed, stream=index + 1)
        F = random_poly_map(spec, d.chart)
        rng = _generator(seed, (1 << 32) + index + 1)
        pts = rng.uniform(box[:, 0], box[:, 1], size=(n_points, m))
        _, svals, thresholds, _ = freedom_matrix_many(d, F, pts, tol)
        smallest = svals[:, need - 1]
        clear_success = smallest > 10.0 * thresholds
        clear_failure = smallest < 0.1 * thresholds
        marginal = ~clear_success & ~clear_failure
        return (int(np.count_nonzero(clear_success)),
                int(np.count_nonzero(marginal)),
                [(index, pts[i].copy()) for i in np.nonzero(clear_failure)[0]],
                [(index, pts[i].copy()) for i in np.nonzero(marginal)[0]])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_map, range(n_maps)))
    else:
        results = [run_map(i) for i in range(n_maps)]

    successes = sum(r[0] for r in results)
    marginals = sum(r[1] for r in results)
    failures = [pair for r in results for pair in r[2]]
    marginal_pairs = [pair for r in results for pair in r[3]]
    fraction = successes / n_pairs if n_pairs else 0.0
    ci_low, ci_high = _wilson(successes, n_pairs)
    return GenericityResult(q, degree, n_pairs, successes, marginals, fraction,
                            ci_low, ci_high, seed, failures=failures,
                            marginal_pairs=marginal_pairs)


def write_trials_csv(path, results: list[GenericityResult]) -> None:
    lines = ["q,degree,n,successes,marginals,fraction,ci_low,ci_high,seed"]
    for r in results:
        lines.append(f"{r.q},{r.degree},{r.n_pairs},{r.successes},{r.marginals},"
                     f"{r.fraction!r},{r.ci_low!r},{r.ci_high!r},{r.seed}")
    write_text(path, "\n".join(lines) + "\n")
