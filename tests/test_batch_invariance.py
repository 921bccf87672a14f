"""A point's row does not depend on its batch.

A single point is a batch of one, and a retry drops the flagged points
from a batch, so every batched quantity must give each point the same
bits alone, in the full batch, permuted, and in batches of 63, 64 and 65,
across the size at which ``geometry.full_rank`` tries its Gram bound
first."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfreemaps.constructions import (FreeCurve, RPBracketSpec, compose_1d, rp_bracket,
                                     rp_bracket_many, verify_1d)
from hfreemaps.errors import DegenerateFrame
from hfreemaps.expr import Chart, eval_jets_many, eval_value, parse
from hfreemaps.geometry import (_PROOF_BATCH, DEFAULT_RANK_TOL, Distribution, _frame_parts,
                                frame_rank, full_rank)
from hfreemaps.hfree import (_check_frame, freedom_certificates, induced_metric,
                             induced_metric_many, is_hfree_at, parse_map)
from hfreemaps.lie import lie, parse_field, value_and_lie

_CHUNKS = (_PROOF_BATCH - 1, _PROOF_BATCH, _PROOF_BATCH + 1)
_SPACE = Chart(("x", "y", "z"))
_PLANE = Chart(("x", "y"))
_CONTACT = Distribution(_SPACE, (parse_field(_SPACE, "0", "1", "0"),
                                 parse_field(_SPACE, "1", "0", "-y")))
_CONTACT_MAP = parse_map(_SPACE, "y", "x", "exp(y)", "exp(x)", "z")
_STRIPE = Distribution(_PLANE, (parse_field(_PLANE, "2*y", "1-y^2"),))
_STRIPE_F = parse("y*exp(x)")
_SPEC = RPBracketSpec(_SPACE, (parse("x^2+y"),),
                      (("1", "0", "0"), ("0", "1+x^2", "0"), ("0", "0", "1")))
# sigma_2 / sigma_1 is about 5e-8 |x - y|^3: the Gram bound proves the
# frames where |x - y| > 0.93 or so, the SVD decides the others, and those
# where |x - y| < 0.27 fall below the frame threshold 1e-9
_THIN = Distribution(_PLANE, (parse_field(_PLANE, "1", "0"),
                              parse_field(_PLANE, "1", "1e-7*(x-y)^3")))


def _certificates(pts):
    matrices, columns = freedom_certificates(_CONTACT, _CONTACT_MAP, pts)
    return {"matrix": matrices, **columns}


def _hfree_at(p):
    cert = is_hfree_at(_CONTACT, _CONTACT_MAP, p)
    return {"matrix": cert.matrix.entries, "certified_rank": cert.matrix.certified_rank,
            "threshold": cert.matrix.threshold, "hfree": cert.free}


def _value_and_lie(pts):
    values, lies = value_and_lie(_STRIPE.frame[0], _STRIPE_F, pts)
    return {"value": values, "lie": lies}


def _verify_product(pts):
    check = verify_1d(_STRIPE, compose_1d(_STRIPE_F, FreeCurve.exp(), _PLANE), pts)
    return {"determinant": check.determinants, "predicted": check.predicted,
            "identity": check.identity, "certified": check.certified, **check.certificate}


def _frame_verdicts(pts):
    """The verdicts of the frame check, and that the check raises exactly
    where they fail, naming their count and first index."""
    XV = _frame_parts(_THIN, eval_jets_many(_THIN.components, _PLANE, pts, 0))[0]
    verdicts = full_rank(XV, DEFAULT_RANK_TOL)
    bad = np.flatnonzero(~verdicts)
    if bad.size:
        with pytest.raises(DegenerateFrame, match=rf"at {bad.size} of {len(pts)} points "
                                                  rf"\(first batch index {bad[0]}\)"):
            _check_frame(_THIN, XV, DEFAULT_RANK_TOL)
    else:
        _check_frame(_THIN, XV, DEFAULT_RANK_TOL)
    return {"full_rank": verdicts}


# each quantity: its columns over a batch, its single-point function (None
# where there is none) and the box its points are drawn from
_QUANTITIES = {
    "freedom_certificates": (_certificates, _hfree_at, 3, 2.0),
    "induced_metric_many": (
        lambda pts: {"metric": induced_metric_many(_CONTACT, _CONTACT_MAP, pts)},
        lambda p: {"metric": induced_metric(_CONTACT, _CONTACT_MAP, p).matrix}, 3, 2.0),
    "rp_bracket_many": (
        lambda pts: {"bracket": rp_bracket_many(_SPEC, "y", "z*x", pts)},
        lambda p: {"bracket": rp_bracket(_SPEC, "y", "z*x", p)}, 3, 2.0),
    "value_and_lie": (
        _value_and_lie,
        lambda p: {"value": eval_value(_STRIPE_F, _PLANE, p),
                   "lie": lie(_STRIPE.frame[0], _STRIPE_F, p)}, 2, 1.5),
    "verify_product": (_verify_product, None, 2, 1.5),
    "check_frame": (_frame_verdicts,
                    lambda p: {"full_rank": frame_rank(_THIN, p) == _THIN.k}, 2, 1.0),
}


def _rows(columns, dtypes=None):
    """Per point, the bytes of its entry in each column."""
    dtypes = dtypes or {name: np.asarray(col).dtype for name, col in columns.items()}
    return [{name: np.asarray(col, dtype=dtypes[name])[b].tobytes()
             for name, col in columns.items()}
            for b in range(len(next(iter(columns.values()))))]


@pytest.mark.parametrize("name", list(_QUANTITIES))
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(_PROOF_BATCH + 2, 2 * _PROOF_BATCH))
@settings(max_examples=10, deadline=None)
def test_each_point_keeps_its_bits_in_any_batch(name, seed, n):
    columns, single, m, half = _QUANTITIES[name]
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-half, half, size=(n, m))
    pts[::9, 1] = pts[::9, 0]  # where the thin frame's second row is exactly (1, 0)
    full_columns = columns(pts)
    full = _rows(full_columns)
    dtypes = {key: np.asarray(col).dtype for key, col in full_columns.items()}
    perm = rng.permutation(n)
    assert _rows(columns(pts[perm])) == [full[i] for i in perm]
    for size in _CHUNKS:
        assert [row for start in range(0, n, size)
                for row in _rows(columns(pts[start:start + size]))] == full
    alone = [_rows(columns(p[None, :]))[0] for p in pts] if single is None else [
        _rows({key: [value] for key, value in single(p).items()}, dtypes)[0] for p in pts]
    assert alone == [{key: row[key] for key in one} for row, one in zip(full, alone)]
