"""Monte-Carlo estimation of how often random maps are rank-certified.

Random polynomial maps are generated from a counter-based generator
(Philox) keyed by ``(seed, stream)``: map ``i`` of a sweep draws its
coefficients from stream ``i + 1`` and its points from stream
``2**32 + i + 1``.  The sweep runs in blocks of whole maps.  Each block
evaluates the jets of every monomial once at all of its points and
contracts them with the maps' coefficients, so no expression is built;
results do not depend on how the maps are split into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .artifacts import write_text
from .expr import eval_jets_many
from .geometry import (_PROOF_BATCH, DEFAULT_RANK_TOL, Distribution, _frame_parts,
                       full_rank_proven, svd_ranks)
from .hfree import _jet_rows, _stack_rows, required_rank

_Z95 = 1.959963984540054

# (map, point) pairs per block of a sweep; bounds the memory of the
# basis jets, which grows with the pairs times the monomials
_BLOCK_PAIRS = 4096

__all__ = ["RandomMapSpec", "GenericityResult", "genericity_trial", "write_trials_csv"]


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


def _coefficients(seed: int, stream: int, q: int, n_terms: int) -> np.ndarray:
    """``(q, n_terms)`` coefficients, one row per component, in the order
    of :func:`_monomials`."""
    return _generator(seed, stream).uniform(-1.0, 1.0, size=(q, n_terms))


def _poly_jets(coeffs: np.ndarray, exponents: np.ndarray, pts: np.ndarray):
    """Gradients ``(K*P, q, m)`` and Hessians ``(K*P, q, m, m)`` of the
    polynomial maps ``F_k^i = sum_n coeffs[k, i, n] x^exponents[n]`` at
    the points ``pts[k] (P, m)`` of each map ``k``, pairs in map-major
    order."""
    K, P, m = pts.shape
    q, N = coeffs.shape[1:]
    powers = np.arange(int(exponents.max()) + 1)
    # table[j, o, k, e, p]: the o-th derivative of x_j^e at point p of map k
    x = pts.transpose(2, 0, 1)[:, :, None, :]
    table = np.zeros((m, 3, K, powers.size, P))
    table[:, 0] = x ** powers[:, None]
    table[:, 1, :, 1:] = powers[1:, None] * table[:, 0, :, :-1]
    table[:, 2, :, 2:] = (powers[2:] * (powers[2:] - 1))[:, None] * table[:, 0, :, :-2]
    # factors[j][o]: (K, N, P), the o-th derivative of x_j^(exponent of x_j)
    factors = [table[j][:, :, exponents[:, j]] for j in range(m)]

    def basis(orders):
        out = factors[0][orders[0]]
        for j in range(1, m):
            out = out * factors[j][orders[j]]
        return out

    pairs = [(a, b) for a in range(m) for b in range(a, m)]
    unit = np.eye(m, dtype=int)
    G = np.stack([basis(unit[j]) for j in range(m)], axis=-1)
    H = np.stack([basis(unit[a] + unit[b]) for a, b in pairs], axis=-1)

    def contract(basis_jets):
        # one matmul per map: (q, N) @ (N, P * width)
        width = basis_jets.shape[-1]
        out = coeffs @ basis_jets.reshape(K, N, P * width)
        return out.reshape(K, q, P, width).transpose(0, 2, 1, 3).reshape(K * P, q, width)

    upper = np.empty((m, m), dtype=int)
    for i, (a, b) in enumerate(pairs):
        upper[a, b] = upper[b, a] = i
    return contract(G), contract(H)[..., upper]


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


def _sweep(d: Distribution, q: int, degree: int, n_maps: int, n_points: int,
           seed: int, box: np.ndarray, tol: float):
    """Certify the sweep's maps in blocks of whole maps, at most
    ``_BLOCK_PAIRS`` pairs each (one map when it alone has more points).
    Yields ``(first map index, points (K, P, m), success (K*P,), singular
    values (U, R), thresholds (U,))`` per block, pairs in map-major order:
    ``success`` marks the clear successes, and the singular values and
    thresholds are those of the ``U`` others."""
    m = d.chart.dim
    if n_maps > 0:
        RandomMapSpec(m, q, degree, seed)  # validates the degree
    exponents = np.array(_monomials(m, degree))
    per_block = max(1, _BLOCK_PAIRS // max(n_points, 1))
    for start in range(0, n_maps, per_block):
        maps = range(start, min(start + per_block, n_maps))
        coeffs = np.stack([_coefficients(seed, i + 1, q, len(exponents)) for i in maps])
        pts = np.stack([_generator(seed, (1 << 32) + i + 1).uniform(
            box[:, 0], box[:, 1], size=(n_points, m)) for i in maps])
        Fgrads, Fhesses = _poly_jets(coeffs, exponents, pts)
        frame = eval_jets_many(d.components, d.chart, pts.reshape(-1, m), 1)
        _, first, L2 = _jet_rows(d, Fgrads, Fhesses, *_frame_parts(d, frame), tol)
        matrices = _stack_rows(first, L2, False)
        # a clear success keeps sigma_need above 10 times the sized threshold:
        # the Gram bound proves most, as in full_rank, and one SVD splits the rest
        size = max(matrices.shape[-2:])
        success = (full_rank_proven(matrices, 10.0 * tol * size) if len(matrices) >= _PROOF_BATCH
                   else np.zeros(len(matrices), dtype=bool))
        svals, thresholds, _ = svd_ranks(matrices[~success], tol, size)
        clear = svals[:, matrices.shape[1] - 1] > 10.0 * thresholds
        success[~success] = clear
        yield start, pts, success, svals[~clear], thresholds[~clear]


def genericity_trial(d: Distribution, q: int, degree: int, n_maps: int,
                     n_points: int, seed: int, box,
                     threads: int = 1, tol: float = DEFAULT_RANK_TOL) -> GenericityResult:
    """Fraction of (map, point) pairs whose freedom matrix is full rank.

    ``box`` is an ``(m, 2)`` array of per-coordinate bounds.  Pairs whose
    smallest required singular value lands within a factor 10 of the
    rank threshold are counted as marginal, not as successes.
    ``threads`` is accepted and ignored: the sweep is one numpy pass,
    and its results never depended on the thread count.
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

    successes = marginals = 0
    failures, marginal_pairs = [], []
    for start, pts, success, svals, thresholds in _sweep(d, q, degree, n_maps, n_points,
                                                         seed, box, tol):
        rest = np.flatnonzero(~success)
        clear_failure = svals[:, need - 1] < 0.1 * thresholds
        marginal = ~clear_failure
        successes += int(np.count_nonzero(success))
        marginals += int(np.count_nonzero(marginal))
        flat = pts.reshape(-1, m)
        failures += [(start + i // n_points, flat[i].copy())
                     for i in rest[clear_failure].tolist()]
        marginal_pairs += [(start + i // n_points, flat[i].copy())
                           for i in rest[marginal].tolist()]

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
    write_text(path, ("\n".join(lines) + "\n",))
