import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfreemaps.constructions import FreeCurve, RPBracketSpec, build_rp, rp_bracket
from hfreemaps.errors import DegenerateFrame
from hfreemaps.expr import Chart, Num, eval_jets_many, eval_value, parse
from hfreemaps.geometry import (
    _PROOF_BATCH,
    DEFAULT_RANK_TOL,
    Distribution,
    _frame_parts,
    certified_ranks,
    frame_rank,
    full_rank,
    full_rank_proven,
    svd_ranks,
)
from hfreemaps.hfree import (_check_frame, freedom_matrix, freedom_matrix_many,
                             is_h_immersion_at, parse_map)
from hfreemaps.lie import parse_field

from oracles import FrameChange, change_frame


def test_contact_frame_rank(contact, rng):
    dist, _ = contact
    for p in rng.uniform(-3, 3, size=(20, 3)):
        assert frame_rank(dist, p) == 2


def test_zero_field_rank(plane):
    dist = Distribution(plane, (parse_field(plane, "0", "0"),))
    assert frame_rank(dist, (0.3, 0.7)) == 0


def test_colinear_frame_rank(plane):
    dist = Distribution(plane, (parse_field(plane, "1", "0"),
                                parse_field(plane, "2", "0")))
    assert frame_rank(dist, (1.0, -1.0)) == 1


# sigma_min / sigma_max of the rows (1, 0), (1, 3e-9) is about 1.5e-9: above
# tol = 1e-9, below tol * max(rows, cols) = 2e-9
NEAR = np.array([[1.0, 0.0], [1.0, 3e-9]])


def _near_frame():
    plane = Chart(("x", "y"))
    return Distribution(plane, (parse_field(plane, "1", "0"),
                                parse_field(plane, "1", "3e-9")))


def _frame_values(d, points):
    return _frame_parts(d, eval_jets_many(d.components, d.chart, points, 0))[0]


def _rank_two(matrix, sized):
    return svd_ranks(matrix, DEFAULT_RANK_TOL, max(matrix.shape) if sized else 1)[2] == 2


def _frame_check_passes():
    d = _near_frame()
    # raises DegenerateFrame when the frame rank drops
    _check_frame(d, _frame_values(d, np.zeros((1, 2))), DEFAULT_RANK_TOL)
    return True


def _casimirs_independent():
    chart = Chart(("w", "x", "y", "z"))
    spec = RPBracketSpec(chart, (parse("x"), parse("x + 3e-9*y")))
    rp_bracket(spec, "w", "z", (0.0, 0.0, 0.0, 0.0))  # or DegenerateCasimirs
    return True


def _hamiltonian_independent():
    space = Chart(("x", "y", "z"))
    spec = RPBracketSpec(space, (parse("x"),))
    # raises DegenerateCasimirs when h depends on the casimir
    build_rp(spec, "x + 3e-9*y", "z", FreeCurve.exp(), np.zeros((1, 3)))
    return True


RANK_CHECKS = {
    # unsized: tol * sigma_max
    "unsized rule": lambda: _rank_two(NEAR, sized=False),
    "frame_rank": lambda: frame_rank(_near_frame(), (0.0, 0.0)) == 2,
    "frame check": _frame_check_passes,
    "casimir check": _casimirs_independent,
    "hamiltonian check": _hamiltonian_independent,
    # sized: tol * sigma_max * max(rows, cols)
    "sized rule": lambda: _rank_two(NEAR, sized=True),
    "immersion certificate": lambda: is_h_immersion_at(
        _near_frame(), parse_map(Chart(("x", "y")), "x", "y"), (0.0, 0.0)),
}


@pytest.mark.parametrize("check, counts_small", [
    ("unsized rule", True), ("frame_rank", True), ("frame check", True),
    ("casimir check", True), ("hamiltonian check", True),
    ("sized rule", False), ("immersion certificate", False)])
def test_rank_rule_of_each_check(check, counts_small):
    """Frame, casimir and Hamiltonian checks keep a singular value above
    tol * sigma_max; certificates drop it unless it is above
    tol * sigma_max * max(rows, cols)."""
    assert RANK_CHECKS[check]() == counts_small


@pytest.mark.parametrize("scale", [1.0, 0.0, 1e-310, 1e300])
@pytest.mark.parametrize("tol", [1e-9, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [1, 3])
def test_one_field_rank_agrees_with_the_svd(rng, scale, tol, m):
    # one row on a large stack goes through the Gram bound first; random,
    # zero, subnormal and huge fields get the verdicts the SVD gives them
    fields = rng.normal(size=(200, 1, m)) * scale
    fields[:5] = 0.0
    fields[5:10, 0, 1:] = 0.0  # one non-zero entry
    svals = np.linalg.svd(fields, compute_uv=False)
    want = certified_ranks(svals, tol, 1)[1] == 1
    assert np.array_equal(full_rank(fields, tol), want)
    assert np.array_equal(full_rank(fields[0], tol), want[0])


# ---------------------------------------------------------------------------
# the Gram bound against the SVD rule it stands in for


def _stack(seed, s, q, log_ratio, scale, defect, n=24):
    """``n`` matrices ``U diag(sigma) V^T`` of shape ``s x q`` with
    ``sigma_s / sigma_1`` spread around ``10**log_ratio``, times ``2**scale``,
    and the defect (zero rows, subnormal, nan or infinite entries) put into
    every third matrix."""
    rng = np.random.default_rng(seed)
    ratios = 10.0 ** np.clip(log_ratio + rng.uniform(-1.0, 1.0, n), -17.0, 0.0)
    out = np.empty((n, s, q))
    for b, ratio in enumerate(ratios):
        u = np.linalg.qr(rng.normal(size=(s, s)))[0]
        v = np.linalg.qr(rng.normal(size=(q, s)))[0]
        sigma = np.sort(np.exp(rng.uniform(np.log(ratio), 0.0, s)))[::-1]
        sigma[0], sigma[-1] = 1.0, ratio if s > 1 else 1.0
        out[b] = (u * sigma) @ v.T
    out = np.ldexp(out, scale)
    hit = out[::3]
    if defect == "zero row":
        hit[:, rng.integers(s)] = 0.0
    elif defect == "subnormal":
        hit[rng.uniform(size=hit.shape) < 0.5] = 5e-324 * rng.integers(1, 1 << 20)
    elif defect in ("nan", "inf", "-inf"):
        hit[:, rng.integers(s), rng.integers(q)] = float(defect)
    return out


def _svd_full_rank(stack, tol, rule):
    """Whether the SVD rule calls each matrix full row rank; a matrix whose
    SVD does not converge is not."""
    s = stack.shape[-2]
    out = np.zeros(len(stack), dtype=bool)
    for b, matrix in enumerate(stack):
        try:
            svals = np.linalg.svd(matrix, compute_uv=False)
        except np.linalg.LinAlgError:
            continue
        thresholds, ranks = certified_ranks(svals, tol,
                                            1 if rule == "unsized" else max(matrix.shape))
        out[b] = (svals[s - 1] > 10.0 * thresholds if rule == "clear success"
                  else ranks == s)
    return out


def _rule_ratio(tol, rule, s, q):
    return {"unsized": tol, "sized": tol * max(s, q),
            "clear success": 10.0 * tol * max(s, q)}[rule]


RULES = st.sampled_from(["unsized", "sized", "clear success"])
TOLS = st.sampled_from([DEFAULT_RANK_TOL, 1e-12, 1e-6, 1e-3, 0.1])


@st.composite
def _shapes(draw):
    s = draw(st.integers(1, 4))
    return s, draw(st.integers(s, 8))


@settings(max_examples=300, deadline=None)
@given(shape=_shapes(), seed=st.integers(0, 2**32 - 1), log_ratio=st.floats(-17.0, 0.0),
       scale=st.integers(-1000, 1000), tol=TOLS, rule=RULES,
       defect=st.sampled_from(["none", "zero row", "subnormal", "nan", "inf", "-inf"]))
def test_gram_bound_never_proves_what_the_svd_rule_rejects(shape, seed, log_ratio, scale,
                                                         tol, rule, defect):
    s, q = shape
    stack = _stack(seed, s, q, log_ratio, scale, defect)
    proven = full_rank_proven(stack, _rule_ratio(tol, rule, s, q))
    assert proven.dtype == bool and proven.shape == (len(stack),)
    assert not np.any(proven & ~_svd_full_rank(stack, tol, rule))


@settings(max_examples=150, deadline=None)
@given(shape=_shapes(), seed=st.integers(0, 2**32 - 1), log_ratio=st.floats(-5.0, 0.0),
       scale=st.integers(-450, 450), rule=RULES)
def test_gram_bound_proves_well_conditioned_stacks(shape, seed, log_ratio, scale, rule):
    # sigma_s / sigma_1 >= 1e-6 at the default tolerance: a bound that
    # always fell back to the SVD would fail here
    s, q = shape
    stack = _stack(seed, s, q, log_ratio, scale, "none")
    assert np.all(full_rank_proven(stack, _rule_ratio(DEFAULT_RANK_TOL, rule, s, q)))


def test_full_rank_on_large_mixed_stacks(rng):
    # above the proof batch, proven matrices skip the SVD; the verdicts stay
    # those of the SVD rule, also for batch shapes of more than one axis
    stack = np.concatenate([_stack(seed, 2, 3, log_ratio, 0, defect)
                            for seed, log_ratio, defect in
                            [(1, -1.0, "none"), (2, -9.0, "zero row"), (3, -15.0, "none"),
                             (4, -3.0, "subnormal"), (5, -8.5, "none")]])
    assert len(stack) >= _PROOF_BATCH
    svals = np.linalg.svd(stack, compute_uv=False)
    want = certified_ranks(svals, DEFAULT_RANK_TOL, 1)[1] == 2
    assert 0 < np.count_nonzero(want) < len(stack)
    assert np.array_equal(full_rank(stack, DEFAULT_RANK_TOL), want)
    assert np.array_equal(full_rank(stack.reshape(4, 30, 2, 3), DEFAULT_RANK_TOL),
                          want.reshape(4, 30))


@pytest.mark.parametrize("shape", [(1, 2, 3), (1, 1, 4), (100, 1, 1), (100, 1, 2),
                                   (100, 2, 2)])
def test_gram_bound_leaves_its_input_unchanged(rng, shape):
    # the bound scales its matrices in place: for B = 1 or 1 x 1 matrices
    # the moved axes are a view of the input, which must not be touched
    stack = rng.normal(size=shape) * 1e3
    stack[3::7] = 0.0
    stack[5::7] = np.inf
    before = stack.copy()
    full_rank_proven(stack, DEFAULT_RANK_TOL)
    assert np.array_equal(stack, before)


def test_one_dimensional_chart_batch_equals_each_point():
    # 100 one-field frames on a 1-D chart reach the Gram bound as 1 x 1
    # matrices; the freedom matrices assembled after it are those of each point
    line = Chart(("t",))
    dist = Distribution(line, (parse_field(line, "3"),))
    F = parse_map(line, "t", "t^2")
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(100, 1))
    matrices, svals, thresholds, ranks = freedom_matrix_many(dist, F, pts)
    for b, p in enumerate(pts):
        one = freedom_matrix(dist, F, p)
        assert np.array_equal(matrices[b], one.entries)
        assert np.array_equal(svals[b], one.singular_values)
        assert thresholds[b] == one.threshold and ranks[b] == one.certified_rank


def test_frame_batch_with_degenerate_frames_raises_the_svd_message(contact, rng):
    # 10^4 contact frames, five of them made rank one: the message names
    # the count and the first batch index, as the SVD-only rule does
    dist, _ = contact
    XV = _frame_values(dist, rng.uniform(-3, 3, size=(10_000, 3)))
    bad = [17, 4000, 4001, 7777, 9999]
    XV[bad, 1] = 3.0 * XV[bad, 0]
    svals = np.linalg.svd(XV, compute_uv=False)
    ranks = certified_ranks(svals, DEFAULT_RANK_TOL, 1)[1]
    assert np.flatnonzero(ranks < 2).tolist() == bad
    with pytest.raises(DegenerateFrame) as err:
        _check_frame(dist, XV, DEFAULT_RANK_TOL)
    assert str(err.value) == "frame rank < 2 at 5 of 10000 points (first batch index 17)"


def test_frame_size_bounds(plane):
    with pytest.raises(ValueError):
        Distribution(plane, (parse_field(plane, "1", "0"),
                             parse_field(plane, "0", "1"),
                             parse_field(plane, "1", "1")))


class TestChangeFrame:
    def test_identity(self, contact, rng):
        dist, _ = contact
        lam = FrameChange(((Num(1.0), Num(0.0)), (Num(0.0), Num(1.0))))
        changed = change_frame(dist, lam)
        p = rng.uniform(-1, 1, size=3)
        for old, new in zip(dist.frame, changed.frame):
            for a, b in zip(old.components, new.components):
                assert eval_value(a, dist.chart, p) == eval_value(b, dist.chart, p)

    def test_scalar_rescale(self, plane):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        lam = FrameChange(((parse("exp(x)"),),))
        changed = change_frame(dist, lam)
        p = (0.5, 2.0)
        assert np.isclose(eval_value(changed.frame[0].components[0], plane, p),
                          np.exp(0.5))
        assert eval_value(changed.frame[0].components[1], plane, p) == 0.0

    def test_rank_preserved_under_random_constant_changes(self, contact, rng):
        dist, _ = contact
        pts = rng.uniform(-2, 2, size=(100, 3))
        for _ in range(10):
            mat = rng.normal(size=(2, 2))
            while abs(np.linalg.det(mat)) < 0.3:
                mat = rng.normal(size=(2, 2))
            lam = FrameChange(tuple(tuple(Num(float(v)) for v in row) for row in mat))
            changed = change_frame(dist, lam)
            for p in pts[:20]:
                assert frame_rank(changed, p) == frame_rank(dist, p) == 2

    def test_shape_mismatch(self, contact):
        dist, _ = contact
        with pytest.raises(ValueError):
            change_frame(dist, FrameChange(((Num(1.0),),)))


def test_frame_rank_preserved_under_expr_change(contact, rng):
    dist, _ = contact
    lam = FrameChange((
        (parse("exp(x/3)"), parse("sin(y)*z")),
        (Num(0.0), parse("2+tanh(z)")),
    ))
    changed = change_frame(dist, lam)
    for p in rng.uniform(-2, 2, size=(40, 3)):
        assert frame_rank(changed, p) == frame_rank(dist, p)


def test_rank_of_assembled_matrix_survives_expr_change(contact, rng):
    dist, F = contact
    lam = FrameChange((
        (parse("2+sin(x)"), parse("y")),
        (Num(0.0), parse("exp(y/2)")),
    ))
    changed = change_frame(dist, lam)
    for p in rng.uniform(-2, 2, size=(25, 3)):
        before = freedom_matrix(dist, F, p).certified_rank
        after = freedom_matrix(changed, F, p).certified_rank
        assert before == after == 5
