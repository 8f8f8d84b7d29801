"""Miss-ratio series, regret, confidence intervals, and counter summaries."""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def default_checkpoints(horizon: int, points: int = 200) -> tuple[int, ...]:
    """Logarithmically spaced request counts at which the series is sampled.

    Always ends exactly at the horizon so the last entry of a miss series
    is the overall miss ratio.
    """
    if horizon < 1 or points < 1:
        raise ValueError("horizon and points must be positive")
    if horizon <= points:
        return tuple(range(1, horizon + 1))
    grid = np.unique(np.round(np.logspace(0, math.log10(horizon), points)).astype(int))
    grid = grid[(grid >= 1) & (grid <= horizon)]
    if grid[-1] != horizon:
        grid = np.append(grid, horizon)
    return tuple(int(t) for t in grid)


@dataclass(frozen=True)
class RunResult:
    """Everything measured in one (policy, seed) simulation."""

    policy: str
    seed: int
    checkpoints: tuple[int, ...]
    miss_series: tuple[float, ...]  # cumulative average miss ratio at checkpoints
    total_misses: int
    opt_misses: int
    regret: int
    heap_ops: int
    cache_refreshes: int
    sampled_steps: int
    score_changes: int
    wall_time: float = field(compare=False, default=0.0)

    @property
    def final_miss_ratio(self) -> float:
        return self.miss_series[-1]


@dataclass(frozen=True)
class AggregateResult:
    """Per-checkpoint mean and 95% confidence halfwidth over M runs."""

    policy: str
    checkpoints: tuple[int, ...]
    mean_miss_series: tuple[float, ...]
    ci95_series: tuple[float, ...]
    runs: tuple[RunResult, ...]

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def final_mean_miss_ratio(self) -> float:
        return self.mean_miss_series[-1]

    @property
    def final_ci95(self) -> float:
        return self.ci95_series[-1]

    @property
    def final_variance(self) -> float:
        finals = [r.final_miss_ratio for r in self.runs]
        return float(np.var(finals, ddof=1)) if len(finals) > 1 else 0.0

    @property
    def mean_regret(self) -> float:
        return float(np.mean([r.regret for r in self.runs]))

    @property
    def mean_heap_ops(self) -> float:
        return float(np.mean([r.heap_ops for r in self.runs]))

    @property
    def mean_cache_refreshes(self) -> float:
        return float(np.mean([r.cache_refreshes for r in self.runs]))

    @property
    def mean_wall_time(self) -> float:
        return float(np.mean([r.wall_time for r in self.runs]))


def aggregate(results: list[RunResult]) -> AggregateResult:
    """Normal-approximation aggregation of runs on one checkpoint grid.

    The halfwidth is 1.96 * sample stddev / sqrt(M) per checkpoint; a
    single run aggregates to itself with zero halfwidth. A warning is
    emitted below 30 runs, where the normal approximation is shaky.
    """
    if not results:
        raise ValueError("no runs to aggregate")
    # fixed accumulation order makes aggregation permutation-invariant
    results = sorted(results, key=lambda r: r.seed)
    grid = results[0].checkpoints
    policy = results[0].policy
    for r in results[1:]:
        if r.checkpoints != grid:
            raise ValueError("runs use mismatched checkpoint grids")
    m = len(results)
    if m < 30:
        warnings.warn(
            f"only {m} runs: 95% confidence intervals use a normal "
            "approximation that expects at least 30",
            stacklevel=2,
        )
    series = np.array([r.miss_series for r in results], dtype=float)
    mean = series.mean(axis=0)
    if m > 1:
        half = 1.96 * series.std(axis=0, ddof=1) / math.sqrt(m)
    else:
        half = np.zeros_like(mean)
    return AggregateResult(
        policy=policy,
        checkpoints=grid,
        mean_miss_series=tuple(float(x) for x in mean),
        ci95_series=tuple(float(x) for x in half),
        runs=tuple(results),
    )


def write_series_csv(path: str | Path, agg: AggregateResult) -> None:
    """Emit checkpoint_t,mean_miss_ratio,ci95_halfwidth rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["checkpoint_t", "mean_miss_ratio", "ci95_halfwidth"])
        for t, mean, half in zip(agg.checkpoints, agg.mean_miss_series, agg.ci95_series):
            writer.writerow([t, repr(mean), repr(half)])


def read_series_csv(path: str | Path) -> list[tuple[int, float, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            (
                int(row["checkpoint_t"]),
                float(row["mean_miss_ratio"]),
                float(row["ci95_halfwidth"]),
            )
            for row in reader
        ]


SUMMARY_COLUMNS = (
    "policy",
    "mean_final_miss_ratio",
    "variance",
    "mean_regret",
    "regret_bound",
    "mean_heap_ops",
    "mean_cache_refreshes",
    "mean_wall_time_sec",
)


def write_summary_table(path: str | Path, rows: list[dict], fmt: str = "csv") -> None:
    """Summary table, one row per policy, csv or tsv."""
    if fmt not in ("csv", "tsv"):
        raise ValueError("fmt must be 'csv' or 'tsv'")
    delim = "," if fmt == "csv" else "\t"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS, delimiter=delim)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in SUMMARY_COLUMNS})


def write_summary_json(path: str | Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
