import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from hfreemaps import genericity
from hfreemaps.errors import DegenerateFrame, DomainError
from hfreemaps.expr import render
from hfreemaps.geometry import Distribution
from hfreemaps.genericity import (
    RandomMapSpec,
    genericity_trial,
    write_trials_csv,
)
from hfreemaps.hfree import freedom_matrix_many, is_hfree_at, required_rank
from hfreemaps.lie import parse_field

from oracles import random_poly_map

BOX = np.array([[-2.0, 2.0], [-2.0, 2.0]])


@pytest.fixture
def line_dist(plane):
    return Distribution(plane, (parse_field(plane, "1", "0"),))


def test_degree_below_two_rejected():
    with pytest.raises(ValueError):
        RandomMapSpec(2, 5, 1, seed=3)


def test_rendered_components_are_reproducible(plane):
    spec = RandomMapSpec(2, 5, 3, seed=42)
    a = random_poly_map(spec, plane)
    b = random_poly_map(spec, plane)
    assert [render(c) for c in a.components] == [render(c) for c in b.components]


def test_different_streams_differ(plane):
    a = random_poly_map(RandomMapSpec(2, 3, 2, seed=42, stream=1), plane)
    b = random_poly_map(RandomMapSpec(2, 3, 2, seed=42, stream=2), plane)
    assert render(a.components[0]) != render(b.components[0])


def test_smoke_maps_are_certifiable(plane, line_dist, rng):
    F = random_poly_map(RandomMapSpec(2, 5, 3, seed=42), plane)
    for p in rng.uniform(-2, 2, size=(10, 2)):
        assert is_hfree_at(line_dist, F, p).free


def test_q1_fraction_exactly_zero(line_dist):
    res = genericity_trial(line_dist, q=1, degree=3, n_maps=10, n_points=10,
                           seed=5, box=BOX)
    assert res.fraction == 0.0
    assert res.too_few_targets


def test_high_q_fraction(line_dist):
    res = genericity_trial(line_dist, q=5, degree=3, n_maps=20, n_points=50,
                           seed=5, box=BOX)
    assert res.fraction >= 0.99
    assert res.ci_low <= res.fraction <= res.ci_high


def test_deterministic_across_thread_counts(line_dist):
    kwargs = dict(q=5, degree=3, n_maps=16, n_points=25, seed=123, box=BOX)
    serial = genericity_trial(line_dist, threads=1, **kwargs)
    parallel = genericity_trial(line_dist, threads=4, **kwargs)
    assert serial.fraction == parallel.fraction
    assert serial.successes == parallel.successes
    assert serial.marginals == parallel.marginals
    assert len(serial.failures) == len(parallel.failures)


def test_q2_threshold_probe_is_archived(line_dist):
    # measurement only: the pointwise fraction at the minimal admissible
    # target count is recorded, with no pass bound attached
    res = genericity_trial(line_dist, q=2, degree=3, n_maps=20, n_points=50,
                           seed=17, box=BOX)
    assert 0.0 <= res.fraction <= 1.0
    assert res.successes + res.marginals <= res.n_pairs


def test_monotone_in_q(line_dist):
    fractions = []
    for q in (2, 3, 4, 5, 6):
        res = genericity_trial(line_dist, q=q, degree=3, n_maps=10, n_points=40,
                               seed=31, box=BOX)
        fractions.append(res.fraction)
    widths = 2.0 * np.sqrt(np.array(fractions) * (1 - np.array(fractions)) / 400 + 1e-12)
    for lo, hi, w in zip(fractions, fractions[1:], widths):
        assert hi >= lo - 2 * w


def test_csv_output(tmp_path, line_dist):
    res = genericity_trial(line_dist, q=5, degree=3, n_maps=5, n_points=10,
                           seed=2, box=BOX)
    path = tmp_path / "trials.csv"
    write_trials_csv(path, [res])
    lines = path.read_text().splitlines()
    assert lines[0] == "q,degree,n,successes,marginals,fraction,ci_low,ci_high,seed"
    fields = lines[1].split(",")
    assert fields[0] == "5" and fields[2] == "50"
    float(fields[5])  # fraction parses with '.' decimals


def test_csv_write_is_atomic(tmp_path, line_dist, monkeypatch):
    res = genericity_trial(line_dist, q=5, degree=3, n_maps=2, n_points=5,
                           seed=2, box=BOX)
    path = tmp_path / "trials.csv"
    path.write_text("old contents\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_trials_csv(path, [res])
    assert path.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trials.csv"]


# ---------------------------------------------------------------------------
# the blocked sweep against the per-map path through expression maps


def per_map_sweep(d, q, degree, n_maps, n_points, seed, box, tol):
    """The sweep one map at a time: ``freedom_matrix_many`` on the
    expression map of ``random_poly_map``, at the points of the map's
    own stream.  Returns the singular values and the clear-success mask of
    every pair and the classified pairs, map by map."""
    m = d.chart.dim
    need = required_rank(d.k)
    svals, clear, successes, marginals, failures, marginal_pairs = [], [], 0, 0, [], []
    for index in range(n_maps):
        F = random_poly_map(RandomMapSpec(m, q, degree, seed, stream=index + 1), d.chart)
        rng = genericity._generator(seed, (1 << 32) + index + 1)
        pts = rng.uniform(box[:, 0], box[:, 1], size=(n_points, m))
        _, s, thresholds, _ = freedom_matrix_many(d, F, pts, tol)
        svals.append(s)
        smallest = s[:, need - 1]
        success = smallest > 10.0 * thresholds
        clear.append(success)
        failure = smallest < 0.1 * thresholds
        marginal = ~success & ~failure
        successes += int(np.count_nonzero(success))
        marginals += int(np.count_nonzero(marginal))
        failures += [(index, pts[i]) for i in np.nonzero(failure)[0]]
        marginal_pairs += [(index, pts[i]) for i in np.nonzero(marginal)[0]]
    return svals, clear, successes, marginals, failures, marginal_pairs


def same_pairs(got, want):
    return (len(got) == len(want)
            and all(i == j and type(i) is int and np.array_equal(p, r)
                    for (i, p), (j, r) in zip(got, want)))


@pytest.mark.parametrize("dim, q, degree, n_maps, n_points, tol, blocks", [
    (2, 5, 2, 6, 40, 1e-9, 1),
    (2, 5, 3, 6, 40, 1e-9, 1),
    (2, 4, 4, 6, 40, 1e-9, 1),
    (2, 2, 3, 20, 50, 1e-2, 1),        # the q=2 probe: marginals and failures
    (3, 5, 3, 5, 30, 1e-9, 1),         # contact frame, k=2: need = 5
    (3, 7, 4, 4, 30, 1e-3, 1),
    (2, 2, 3, 45, 100, 1e-2, 2),       # 40 maps, then 5
    (2, 2, 2, 3, 5000, 1e-2, 3),       # one map per block, above the budget
])
def test_blocked_sweep_matches_per_map_path(line_dist, contact, dim, q, degree, n_maps,
                                            n_points, tol, blocks):
    d = line_dist if dim == 2 else contact[0]
    box = np.array([[-2.0, 2.0]] * dim)
    svals, clear, successes, marginals, failures, marginal_pairs = per_map_sweep(
        d, q, degree, n_maps, n_points, 11, box, tol)
    swept = list(genericity._sweep(d, q, degree, n_maps, n_points, 11, box, tol))
    assert len(swept) == blocks
    proven = np.concatenate([p for _, _, p, _, _ in swept])
    assert proven.any()
    got, want = np.concatenate([s for *_, s, _ in swept]), np.concatenate(svals)
    # the pairs the Gram bound proves are clear successes by the SVD rule
    assert np.all(np.concatenate(clear)[proven])
    # rounding moves every singular value by a multiple of the matrix norm
    # sigma_max, so the tolerance is relative to it, not to each value
    want = want[~proven]
    assert np.all(np.abs(got - want) <= 1e-12 * want[:, :1])
    res = genericity_trial(d, q, degree, n_maps, n_points, 11, box, tol=tol)
    assert (res.successes, res.marginals) == (successes, marginals)
    assert same_pairs(res.failures, failures)
    assert same_pairs(res.marginal_pairs, marginal_pairs)
    if (q, tol) == (2, 1e-2):
        assert res.marginals > 0 and res.failures


def test_every_block_keeps_pairs_times_monomials_within_the_budget(contact):
    # degree 12 in 3-D has 455 monomials: three maps of 30 points fill a block
    n_maps, n_points, n_terms = 10, 30, 455
    assert len(genericity._monomials(3, 12)) == n_terms
    blocks = [(start, pts.shape[:2]) for start, pts, *_ in genericity._sweep(
        contact[0], 5, 12, n_maps, n_points, 0, np.array([[-1.0, 1.0]] * 3), 1e-9)]
    assert [start for start, _ in blocks] == [0, 3, 6, 9]
    for _, (maps, points) in blocks:
        assert points == n_points
        assert maps * points * n_terms <= genericity._BLOCK_ENTRIES


def test_sweep_decomposes_each_pair_at_most_once(contact, monkeypatch):
    # at tol = 1e-3 the Gram bound leaves most pairs of this contact sweep
    # unproven, and one SVD splits them into clear successes and the rest
    decomposed = []
    svd = np.linalg.svd

    def counting(matrices, *args, **kwargs):
        if matrices.shape[-2:] == (5, 5):  # freedom matrices: need = q = 5
            decomposed.append(len(matrices))
        return svd(matrices, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counting)
    res = genericity_trial(contact[0], q=5, degree=3, n_maps=20, n_points=40, seed=0,
                           box=np.array([[-1.0, 1.0]] * 3), tol=1e-3)
    # as when the unproven pairs were decomposed twice (1,208 matrices)
    assert (res.successes, res.marginals, len(res.failures)) == (284, 510, 6)
    assert res.marginals + len(res.failures) <= sum(decomposed) <= res.n_pairs


def test_sweep_below_needed_targets_and_empty_sweeps(contact, line_dist):
    res = genericity_trial(contact[0], q=4, degree=3, n_maps=3, n_points=3,
                           seed=1, box=np.array([[-1.0, 1.0]] * 3))
    assert res.too_few_targets and res.successes == 0 and res.n_pairs == 9
    for n_maps, n_points in ((0, 10), (10, 0), (0, 0)):
        res = genericity_trial(line_dist, q=5, degree=3, n_maps=n_maps,
                               n_points=n_points, seed=1, box=BOX)
        assert (res.n_pairs, res.successes, res.marginals) == (0, 0, 0)
        assert res.failures == [] and res.marginal_pairs == []
        assert not res.too_few_targets


def test_sweep_raises_domain_errors_and_degenerate_frames(plane, line_dist):
    # overflowing map jets, and a frame that cannot be evaluated
    with pytest.raises(DomainError), np.errstate(over="ignore", invalid="ignore"):
        genericity_trial(line_dist, q=3, degree=3, n_maps=2, n_points=5, seed=1,
                         box=np.array([[1e200, 2e200], [-1.0, 1.0]]))
    with pytest.raises(DomainError):
        genericity_trial(Distribution(plane, (parse_field(plane, "log(x)", "1"),)),
                         q=3, degree=3, n_maps=2, n_points=5, seed=1, box=BOX)
    with pytest.raises(DegenerateFrame):
        genericity_trial(Distribution(plane, (parse_field(plane, "0", "0"),)), q=3,
                         degree=3, n_maps=2, n_points=5, seed=1, box=BOX)


ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted(path.stem for path in (ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    if demo == "08_genericity_and_contours":
        for name in ("genericity.csv", "levels_f.svg", "levels_g.svg"):
            assert (tmp_path / name).is_file()
