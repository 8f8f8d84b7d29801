"""Workload definitions and the metric catalogue of the benchmark.

``BENCHMARK.json`` at the repository root carries only the fields the
benchmark contract allows (names, units, directions, bounds). This module
is the full record: every workload's parameters and reason, and for every
metric its layer, its meaning, and for a per-layer metric the end-to-end
metric it should move and on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a synthetic trace, a policy set and how it runs.

    ``policies`` pairs each policy name with its batch size B. Every
    policy uses q = 1 and the experimental noise magnitude
    ``p * sqrt(eta_batch * T / 2C)`` (the CLI's ``--eta auto-exp``).
    ``runs`` seeds go through one ``run_experiment`` call per pass, over
    ``workers`` processes (1 means in-process, no pool).
    """

    name: str
    why: str
    trace_kind: str
    n_files: int
    length: int
    capacity: int
    observe_prob: float
    policies: tuple[tuple[str, int], ...]
    eta_batch: int = 1
    alpha: float = 1.0
    runs: int = 1
    workers: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="zipf-loop",
            why="stationary Zipf at acceptance size; the per-request path "
            "(engine loop, policy step, heap bump) does almost all the work",
            trace_kind="zipf",
            n_files=10_000,
            length=200_000,
            capacity=100,
            observe_prob=0.5,
            policies=(("s-nfpl", 1), ("l-nfpl", 1), ("fpl", 1), ("lfu", 1), ("lru", 1)),
        ),
        Workload(
            name="rr-refresh",
            why="adversarial zipf-rr with d-nfpl at B=100; full re-sorts and "
            "noise redraws dominate and the top-C heap is never used",
            trace_kind="zipf-rr",
            n_files=10_000,
            length=200_000,
            capacity=100,
            observe_prob=0.5,
            policies=(("d-nfpl", 100),),
            eta_batch=100,
        ),
        Workload(
            name="acceptance-pool",
            why="acceptance criterion 1 setup at p=1 through the 2-worker pool, "
            "aggregation and writers; the path of nfplcache run --parallel",
            trace_kind="zipf-rr",
            n_files=10_000,
            length=200_000,
            capacity=100,
            observe_prob=1.0,
            policies=(("s-nfpl", 1), ("l-nfpl", 1), ("d-nfpl", 100), ("lfu", 1), ("lru", 1)),
            runs=4,
            workers=2,
        ),
        Workload(
            name="small-catalog-long",
            why="N=120, C=100, T=1M: hits dominate and the long horizon exposes "
            "state that grows with T, such as the LFU heap",
            trace_kind="zipf",
            n_files=120,
            length=1_000_000,
            capacity=100,
            observe_prob=0.5,
            policies=(("s-nfpl", 1), ("l-nfpl", 1), ("lfu", 1), ("lru", 1)),
        ),
    )
}


# Runnable with run.py but left out of BENCHMARK.json, so that the two gated
# workloads can run 45 s each (a small-catalog-long pass takes 6-9 s) within
# the time the whole gate may take. Before times were host-scaled, ten
# zipf-loop runs spread by 0.30 in raw wall_s (quartile distance over median);
# it has not been measured with scaling. rr-refresh's d-nfpl refresh path
# still runs in acceptance-pool, whose traced run reports
# policies.refresh_us, policies.refresh_share and core.uniform_us.
UNGATED = ("zipf-loop", "rr-refresh")


@dataclass(frozen=True)
class Metric:
    """A reported number. ``bound`` is set for end-to-end metrics only."""

    name: str
    unit: str
    better: str
    layer: str
    meaning: str
    bound: float | None = None
    moves: str = ""
    workloads: str = ""


# Measured with tracing off, one value per run. Times are host-scaled
# (see hostref.py): each piece of work is timed together with a fixed
# reference routine run just before it on the same vCPU, and reported as
# seconds at the speed where that routine takes hostref.NOMINAL_S.
END_TO_END = (
    Metric("wall_s", "s", "lower", "bench",
           "host-scaled time of one pass (trace build, simulate, aggregate, "
           "outputs written): the sum over the pass's segments of each "
           "segment's median over passes",
           bound=0.25),
    Metric("requests_per_s", "req/s", "higher", "bench",
           "(policy, seed, request) steps per host-scaled second of the "
           "simulate segments (every run_one, or the pool phase)",
           bound=0.25),
    Metric("setup_s", "s", "lower", "bench",
           "median host-scaled cold `import nfplcache` (fresh interpreters) "
           "plus the median host-scaled time from pass start to the first "
           "run_one: make_trace, checkpoint grid, opt_static and, where "
           "used, the pool start",
           bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", "bench",
           "peak resident set of the benchmark process plus, for each pool "
           "worker, how far its peak rose past its resident set at fork",
           bound=0.10),
)

# Reported in the results file and on stdout but not listed in
# BENCHMARK.json: it is 0 whenever the program is correct, and the
# contract's result line already carries attempted and failed.
ERROR_RATE = Metric("error_rate", "ratio", "lower", "bench",
                    "failed (policy, seed) runs / attempted; a run fails if it "
                    "raises or any output check fails")

# Measured in the traced run; every one of these is reported on every
# workload, so each is defined for any policy mix.
PER_LAYER = (
    Metric("traces.gen_ms", "ms", "lower", "traces", "make_trace per pass",
           moves="setup_s", workloads="all"),
    Metric("traces.mask_ms", "ms", "lower", "traces", "bpo_mask, mean per call",
           moves="wall_s", workloads="all; acceptance-pool draws one per (policy, seed)"),
    Metric("oracle.opt_static_ms", "ms", "lower", "oracle", "opt_static, mean per call",
           moves="setup_s", workloads="all; largest on small-catalog-long (T=1M)"),
    Metric("policies.ns_per_request", "ns", "lower", "policies",
           "step() time, children included, per request over all policies",
           moves="requests_per_s", workloads="small-catalog-long, acceptance-pool"),
    Metric("policies.refresh_us", "us", "lower", "policies",
           "median step() time of the steps that refreshed the cache",
           moves="requests_per_s", workloads="acceptance-pool (d-nfpl at B=100); "
           "predicted no effect on small-catalog-long, which runs no d-nfpl"),
    Metric("policies.refresh_share", "ratio", "lower", "policies",
           "refreshing steps' share of all step() time",
           moves="requests_per_s", workloads="acceptance-pool"),
    Metric("policies.cache_refreshes", "count", "lower", "policies",
           "sum over (policy, seed) runs of one pass",
           moves="requests_per_s", workloads="all"),
    Metric("policies.score_changes", "count", "lower", "policies",
           "sum over (policy, seed) runs of one pass",
           moves="requests_per_s", workloads="small-catalog-long (l-nfpl vs s-nfpl)"),
    Metric("policies.sampled_steps", "count", "lower", "policies",
           "sum over (policy, seed) runs of one pass",
           moves="requests_per_s", workloads="all"),
    Metric("policies.peak_kib", "KiB", "lower", "policies",
           "largest tracemalloc peak over one run_one per policy",
           moves="peak_rss_mb", workloads="small-catalog-long"),
    Metric("topk.heap_ops", "count", "lower", "topk",
           "TopCTracker heap operations, sum over (policy, seed) runs of one pass",
           moves="requests_per_s", workloads="acceptance-pool, small-catalog-long; 0 on the ungated rr-refresh"),
    Metric("topk.bumps", "count", "lower", "topk",
           "TopCTracker.bump calls in one pass",
           moves="requests_per_s", workloads="acceptance-pool, small-catalog-long; 0 on the ungated rr-refresh"),
    Metric("core.uniform_us", "us", "lower", "core", "RngStream.uniform, mean per call",
           moves="requests_per_s", workloads="acceptance-pool (d-nfpl noise redraw per refresh)"),
    Metric("core.bernoulli_us", "us", "lower", "core", "RngStream.bernoulli, mean per call",
           moves="requests_per_s", workloads="acceptance-pool, small-catalog-long"),
    Metric("engine.self_ns_per_request", "ns", "lower", "engine",
           "run_one time outside step(), make_policy and other traced calls, per request",
           moves="requests_per_s", workloads="small-catalog-long"),
    Metric("engine.pool_start_ms", "ms", "lower", "engine",
           "from the end of run_experiment's opt_static to the first traced call "
           "of a seed; the pool start where there is a pool, a call otherwise",
           moves="setup_s", workloads="acceptance-pool"),
    Metric("engine.parallel_efficiency", "ratio", "higher", "engine",
           "sum of run_one times / (workers x run_experiment time)",
           moves="wall_s", workloads="acceptance-pool"),
    Metric("metrics.aggregate_ms", "ms", "lower", "metrics", "aggregate, summed over one pass",
           moves="wall_s", workloads="acceptance-pool"),
    Metric("cli.write_ms", "ms", "lower", "cli",
           "series CSVs, summary table and summary JSON, summed over one pass",
           moves="wall_s", workloads="acceptance-pool"),
)
