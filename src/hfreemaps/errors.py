"""Exception types shared across the library."""

from __future__ import annotations

import numpy as np


class HfreeError(Exception):
    """Base class for every error raised by this package."""


class ExprSyntaxError(HfreeError, ValueError):
    """Malformed expression text.

    Carries the byte offset of the offending position and the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class UnknownFunction(ExprSyntaxError):
    """Call syntax used with a name that is not a built-in function."""

    def __init__(self, name: str, offset: int):
        self.name = name
        super().__init__(f"unknown function '{name}'", offset)


class UnknownCoordinate(HfreeError, KeyError):
    """Expression references a coordinate the chart does not declare."""


class DomainError(HfreeError, ArithmeticError):
    """Evaluation left the domain of a partial function (log, sqrt, /, ^),
    or a batch check met a non-finite jet; :func:`reject` sets ``rows``,
    the mask of the batch rows it rejected."""

    rows = None


def reject(rows, message: str) -> None:
    """Raise ``DomainError(message)`` flagging ``rows`` if any is set."""
    if np.any(rows):
        err = DomainError(message)
        err.rows = rows
        raise err


def reject_nonfinite(message: str, *arrays) -> None:
    """:func:`reject` the batch rows (the first axis) where any of ``arrays``
    holds a non-finite entry; the mask is built only when there is one."""
    if not all(np.isfinite(a).all() for a in arrays):
        reject(np.logical_or.reduce([~np.isfinite(a.reshape(len(a), -1)).all(1)
                                     for a in arrays]), message)


class DegenerateFrame(HfreeError):
    """Frame fields fail to span the declared distribution dimension."""


class TooFewTargets(HfreeError):
    """Target dimension is too small for the requested rank certificate."""


class NotHFree(HfreeError):
    """Rank certificate failed where full rank was required."""


class NotImmersion(HfreeError):
    """First-order rows are rank deficient where an immersion was required."""


class CommutationViolation(HfreeError):
    """Integrable-system inputs break the required bracket pattern."""


class NonTransversal(HfreeError):
    """A bracket that must be strictly positive vanished or changed sign."""


class DegenerateCasimirs(HfreeError):
    """Casimir differentials are linearly dependent at the queried point."""


class BlowUp(HfreeError):
    """Flow integration failed: a diverged state, a step size underflow,
    or an orthogonal leaf that meets a zero of the field."""


class OutsideTube(HfreeError):
    """Grid point could not be located in or classified against a tube."""


class CoverageGap(HfreeError):
    """Some grid cells are not covered by any tube band.

    ``cells`` lists ``(iy, ix, x, y)`` for every uncovered node.
    """

    def __init__(self, cells):
        self.cells = list(cells)
        preview = ", ".join(f"({c[2]:.3g}, {c[3]:.3g})" for c in self.cells[:5])
        more = "" if len(self.cells) <= 5 else f" and {len(self.cells) - 5} more"
        super().__init__(f"{len(self.cells)} grid nodes uncovered: {preview}{more}")


class ScenarioError(HfreeError):
    """Invalid scenario file; carries file and line context."""

    def __init__(self, message: str, path: str = "?", line: int | None = None):
        self.path = path
        self.line = line
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
