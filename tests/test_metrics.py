import math

import numpy as np
import pytest

from nfplcache.metrics import (
    AggregateResult,
    RunResult,
    aggregate,
    default_checkpoints,
    read_series_csv,
    write_series_csv,
)


def make_run(final, seed=0, checkpoints=(1, 2, 4), series=None, **kw):
    if series is None:
        series = (final, final, final)
    fields = dict(
        policy="s-nfpl",
        seed=seed,
        checkpoints=checkpoints,
        miss_series=series,
        total_misses=int(final * checkpoints[-1]),
        opt_misses=0,
        regret=int(final * checkpoints[-1]),
        heap_ops=0,
        cache_refreshes=0,
        sampled_steps=0,
        score_changes=0,
        wall_time=0.1,
    )
    fields.update(kw)
    return RunResult(**fields)


def test_identical_runs_have_zero_halfwidth():
    with pytest.warns(UserWarning):
        agg = aggregate([make_run(0.4, seed=0), make_run(0.4, seed=1)])
    assert agg.ci95_series == (0.0, 0.0, 0.0)
    assert agg.final_mean_miss_ratio == 0.4


def test_two_run_halfwidth_arithmetic():
    with pytest.warns(UserWarning):
        agg = aggregate([make_run(0.4, seed=0), make_run(0.6, seed=1)])
    assert agg.final_mean_miss_ratio == pytest.approx(0.5)
    expected = 1.96 * np.std([0.4, 0.6], ddof=1) / math.sqrt(2)
    assert agg.final_ci95 == pytest.approx(expected)
    assert agg.final_ci95 == pytest.approx(0.196, abs=1e-3)


def test_aggregation_is_permutation_invariant():
    runs = [make_run(0.1 * k, seed=k) for k in range(5)]
    with pytest.warns(UserWarning):
        a = aggregate(runs)
    with pytest.warns(UserWarning):
        b = aggregate(list(reversed(runs)))
    assert a == b


def test_single_run_aggregates_to_itself():
    with pytest.warns(UserWarning):
        agg = aggregate([make_run(0.25)])
    assert agg.mean_miss_series == (0.25, 0.25, 0.25)
    assert agg.ci95_series == (0.0, 0.0, 0.0)


def test_mismatched_grids_rejected():
    with pytest.raises(ValueError, match="mismatched"):
        aggregate([make_run(0.4), make_run(0.4, seed=1, checkpoints=(1, 2, 8))])


def test_checkpoint_grid_shape():
    grid = default_checkpoints(200_000)
    assert grid[0] == 1
    assert grid[-1] == 200_000
    assert len(grid) <= 200
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert default_checkpoints(50) == tuple(range(1, 51))
    with pytest.raises(ValueError):
        default_checkpoints(200_000, 0)


def test_miss_series_is_valid_cumulative_average():
    # entry at t2 must lie between entry at t1 and the interval average
    rng = np.random.default_rng(0)
    hits = rng.random(500) < 0.6
    grid = default_checkpoints(500, points=40)
    misses = np.cumsum(~hits)
    series = [misses[t - 1] / t for t in grid]
    for (t1, s1), (t2, s2) in zip(zip(grid, series), zip(grid[1:], series[1:])):
        interval = (misses[t2 - 1] - misses[t1 - 1]) / (t2 - t1)
        assert min(s1, interval) - 1e-12 <= s2 <= max(s1, interval) + 1e-12


def test_series_csv_round_trip(tmp_path):
    with pytest.warns(UserWarning):
        agg = aggregate([make_run(1 / 3, seed=0), make_run(0.25, seed=1)])
    path = tmp_path / "series.csv"
    write_series_csv(path, agg)
    rows = read_series_csv(path)
    assert [r[0] for r in rows] == list(agg.checkpoints)
    assert [r[1] for r in rows] == list(agg.mean_miss_series)
    assert [r[2] for r in rows] == list(agg.ci95_series)


def test_runresult_equality_ignores_wall_time():
    a = make_run(0.4, wall_time=0.5)
    b = make_run(0.4, wall_time=9.9)
    assert a == b
