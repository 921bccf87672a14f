import numpy as np
import pytest

from hfreemaps.expr import render
from hfreemaps.geometry import Distribution
from hfreemaps.genericity import (
    RandomMapSpec,
    genericity_trial,
    random_poly_map,
    write_trials_csv,
)
from hfreemaps.hfree import is_hfree_at
from hfreemaps.lie import parse_field

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
