import contextlib
import signal

import numpy as np
import pytest

from hfreemaps.expr import Chart, parse
from hfreemaps.geometry import Distribution
from hfreemaps.hfree import parse_map
from hfreemaps.lie import parse_field


@pytest.fixture
def plane():
    return Chart(("x", "y"))


@pytest.fixture
def space():
    return Chart(("x", "y", "z"))


@pytest.fixture
def contact(space):
    """Contact frame on R^3 with the five-component exponential map."""
    xi1 = parse_field(space, "0", "1", "0")
    xi2 = parse_field(space, "1", "0", "-y")
    dist = Distribution(space, (xi1, xi2))
    F = parse_map(space, "y", "x", "exp(y)", "exp(x)", "z")
    return dist, F


@pytest.fixture
def stripe(plane):
    """One-dimensional distribution spanned by (2y, 1 - y^2), with the
    transversal function y e^x and its first integral (y^2 - 1) e^x."""
    xi = parse_field(plane, "2*y", "1-y^2")
    dist = Distribution(plane, (xi,))
    return dist, parse("y*exp(x)"), parse("(y^2-1)*exp(x)")


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``deadline(seconds)`` raises TimeoutError in its block once the block
    has run that long, so that a test of a former hang fails instead."""
    return _deadline


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def sample_box(rng, box, n):
    box = np.asarray(box, dtype=float)
    return rng.uniform(box[:, 0], box[:, 1], size=(n, box.shape[0]))
