"""Jets of order 0, 1 or 2 and their arithmetic.

A :class:`Jet2` packs the value, gradient and Hessian of a scalar
function at a point, truncated at its order: order 0 keeps the value,
order 1 adds the gradient, order 2 the Hessian; missing parts are
``None``.  Each rule is written once and stops at the order of its
operands (forward-mode Taylor arithmetic truncated at the needed order;
Griewank & Walther, *Evaluating Derivatives*, SIAM 2008), so a lower
order keeps the leading parts of the full jet bit for bit.  All rules
are exact (no numerical differencing), and every rule assembles the
Hessian from entrywise symmetric operations, so
``hessian[i, j] == hessian[j, i]`` holds bit-for-bit.  Domain checks
read values only, so they fire at every order; a failing one raises
``DomainError`` with the batch rows it rejected as its ``rows``.

Arrays may carry a leading batch axis: ``value (B,)``,
``gradient (B, m)``, ``hessian (B, m, m)`` evaluate a whole point set in
one pass.  Scalar jets use shapes ``()``, ``(m,)``, ``(m, m)``.  A
binary operation stops at the lower of its operands' orders, so a jet
that one caller reads at a higher order serves another as it is.
"""

from __future__ import annotations

import numpy as np

from .errors import reject


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...j->...ij", a, b)


def _sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a_i b_j + b_i a_j: entry (i, j) and (j, i) add the same two products,
    # so the result is exactly symmetric in floating point.
    return _outer(a, b) + _outer(b, a)


def _zero_parts(shape: tuple[int, ...], m: int, order: int):
    """Gradient and Hessian of a constant, ``None`` above ``order``."""
    return (np.zeros(shape + (m,)) if order >= 1 else None,
            np.zeros(shape + (m, m)) if order == 2 else None)


class Jet2:
    """Value, gradient and symmetric Hessian of a scalar at a point, up to
    :attr:`order`; never modified once built."""

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value, gradient=None, hessian=None):
        self.value, self.gradient, self.hessian = value, gradient, hessian

    def __repr__(self) -> str:
        return f"Jet2(value={self.value!r}, gradient={self.gradient!r}, hessian={self.hessian!r})"

    @property
    def order(self) -> int:
        return 0 if self.gradient is None else 1 if self.hessian is None else 2

    @staticmethod
    def constant(c, m: int, batch: tuple[int, ...] = (), order: int = 2) -> "Jet2":
        value = np.empty(batch)
        value.fill(float(c))  # np.full, without its Python-level overhead
        return Jet2(value, *_zero_parts(batch, m, order)) if order else Jet2(value)

    @staticmethod
    def coordinate(values: np.ndarray, index: int, m: int, order: int = 2) -> "Jet2":
        values = np.asarray(values, dtype=float)
        if order == 0:
            return Jet2(values)
        grad, hess = _zero_parts(values.shape, m, order)
        grad[..., index] = 1.0
        return Jet2(values, grad, hess)

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "Jet2":
        if self.gradient is None:
            return Jet2(-self.value)
        hess = None if self.hessian is None else -self.hessian
        return Jet2(-self.value, -self.gradient, hess)

    def __add__(self, other: "Jet2") -> "Jet2":
        if self.gradient is None or other.gradient is None:
            return Jet2(self.value + other.value)
        if self.hessian is None or other.hessian is None:
            return Jet2(self.value + other.value, self.gradient + other.gradient)
        return Jet2(self.value + other.value, self.gradient + other.gradient,
                    self.hessian + other.hessian)

    def __sub__(self, other: "Jet2") -> "Jet2":
        if self.gradient is None or other.gradient is None:
            return Jet2(self.value - other.value)
        if self.hessian is None or other.hessian is None:
            return Jet2(self.value - other.value, self.gradient - other.gradient)
        return Jet2(self.value - other.value, self.gradient - other.gradient,
                    self.hessian - other.hessian)

    def __mul__(self, other: "Jet2") -> "Jet2":
        value = self.value * other.value
        if self.gradient is None or other.gradient is None:
            return Jet2(value)
        u, v = self.value[..., None], other.value[..., None]
        grad = u * other.gradient + v * self.gradient
        if self.hessian is None or other.hessian is None:
            return Jet2(value, grad)
        hess = (self.value[..., None, None] * other.hessian
                + other.value[..., None, None] * self.hessian
                + _sym_outer(self.gradient, other.gradient))
        return Jet2(value, grad, hess)

    def __truediv__(self, other: "Jet2") -> "Jet2":
        reject(other.value == 0.0, "division by zero")
        q = self.value / other.value
        if self.gradient is None or other.gradient is None:
            return Jet2(q)
        grad = (self.gradient - q[..., None] * other.gradient) / other.value[..., None]
        if self.hessian is None or other.hessian is None:
            return Jet2(q, grad)
        hess = (self.hessian
                - q[..., None, None] * other.hessian
                - _sym_outer(grad, other.gradient)) / other.value[..., None, None]
        return Jet2(q, grad, hess)

    def powi(self, n: int) -> "Jet2":
        """Integer power; valid for any base sign."""
        if n == 0:
            zeros = [np.zeros_like(p) for p in (self.gradient, self.hessian) if p is not None]
            return Jet2(np.ones_like(self.value), *zeros)
        if n == 1:
            return self
        if n < 0:
            reject(self.value == 0.0, "zero raised to a negative power")
        v = self.value
        return self._chain(v ** n, lambda: n * v ** (n - 1),
                           lambda: n * (n - 1) * v ** (n - 2))

    def powf(self, r: float) -> "Jet2":
        """Real power; requires a strictly positive base."""
        reject(self.value <= 0.0, "non-integer power of a non-positive base")
        v = self.value
        return self._chain(v ** r, lambda: r * v ** (r - 1.0),
                           lambda: r * (r - 1.0) * v ** (r - 2.0))

    # -- chain rule --------------------------------------------------------

    def _chain(self, g0: np.ndarray, g1, g2) -> "Jet2":
        """Compose with a scalar function ``g``: ``g0`` is its value at
        ``self.value``; ``g1`` and ``g2`` return its first and second
        derivatives there and are called only at the orders that use them."""
        if self.gradient is None:
            return Jet2(g0)
        d1 = g1()
        grad = d1[..., None] * self.gradient
        if self.hessian is None:
            return Jet2(g0, grad)
        hess = (d1[..., None, None] * self.hessian
                + g2()[..., None, None] * _outer(self.gradient, self.gradient))
        return Jet2(g0, grad, hess)


def jsin(j: Jet2) -> Jet2:
    v = j.value
    s = np.sin(v)
    return j._chain(s, lambda: np.cos(v), lambda: -s)


def jcos(j: Jet2) -> Jet2:
    v = j.value
    c = np.cos(v)
    return j._chain(c, lambda: -np.sin(v), lambda: -c)


def jexp(j: Jet2) -> Jet2:
    e = np.exp(j.value)
    return j._chain(e, lambda: e, lambda: e)


def jlog(j: Jet2) -> Jet2:
    reject(j.value <= 0.0, "log of a non-positive argument")
    v = j.value
    return j._chain(np.log(v), lambda: 1.0 / v, lambda: -1.0 / (v * v))


def jsqrt(j: Jet2) -> Jet2:
    reject(j.value < 0.0, "sqrt of a negative argument")
    v = j.value
    s = np.sqrt(v)
    if j.order == 0:
        return Jet2(s)
    with np.errstate(divide="ignore", invalid="ignore"):  # infinite slope at 0
        g1 = 0.5 / s
        g2 = -0.25 / (s * v) if j.order == 2 else None
    return j._chain(s, lambda: g1, lambda: g2)


def jtanh(j: Jet2) -> Jet2:
    t = np.tanh(j.value)
    sech2 = 1.0 - t * t if j.order else None
    return j._chain(t, lambda: sech2, lambda: -2.0 * t * sech2)


def jpow(base: Jet2, exponent: Jet2) -> Jet2:
    """General power a^b computed as exp(b * log(a))."""
    return jexp(exponent * jlog(base))
