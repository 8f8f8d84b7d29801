import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

from nfplcache import engine, oracle
from nfplcache.core import (
    STREAM_BPO,
    STREAM_POLICY,
    Catalog,
    PolicyConfig,
    Trace,
    default_eta,
    spawn_stream,
)
from nfplcache.engine import (
    PolicySpec,
    TraceSpec,
    make_trace,
    run_experiment,
    run_one,
)
from nfplcache.policies import POLICY_NAMES, make_policy
from nfplcache.traces import bpo_mask


def small_setup(kind="zipf", n=50, t=2000, c=5, **cfg_kw):
    spec = TraceSpec(kind=kind, n_files=n, length=t, alpha=1.0, seed=3)
    trace = make_trace(spec)
    defaults = dict(cache_capacity=c, eta=default_eta(cfg_kw.get("batch_size", 1), c, t))
    defaults.update(cfg_kw)
    return spec, trace, PolicyConfig(**defaults)


def test_run_one_is_deterministic():
    _, trace, cfg = small_setup()
    a = run_one(trace, PolicySpec("l-nfpl", cfg), seed=11)
    b = run_one(trace, PolicySpec("l-nfpl", cfg), seed=11)
    assert a == b  # bit-identical apart from wall time
    c = run_one(trace, PolicySpec("l-nfpl", cfg), seed=12)
    assert a != c


@pytest.mark.parametrize("name, batch", [("s-nfpl", 1), ("l-nfpl", 1), ("d-nfpl", 8),
                                         ("lfu", 1)])
def test_checkpoints_straddling_block_edges_match_step_replay(name, batch):
    # the trace spans more than two 65 536-request segments, and the
    # checkpoints sit on and around their edges
    t = 140_000
    trace = make_trace(TraceSpec(kind="zipf", n_files=200, length=t, seed=4))
    cfg = PolicyConfig(cache_capacity=10, batch_size=batch, observe_prob=0.5,
                       sample_prob=0.5, eta=default_eta(batch, 10, t))
    mask = bpo_mask(t, 0.5, spawn_stream(7, 0))
    checkpoints = (1, 65_535, 65_536, 65_537, 131_072, t)
    res = run_one(trace, PolicySpec(name, cfg), seed=7, mask=mask, checkpoints=checkpoints)

    policy = make_policy(name, cfg, trace.catalog, t, spawn_stream(7, STREAM_POLICY))
    misses = 0
    want = []
    for i, (f, obs) in enumerate(zip(trace.requests.tolist(), mask.bits.tolist()), start=1):
        misses += not policy.step(i, f, obs).hit
        if i in checkpoints:
            want.append(misses / i)
    assert res.checkpoints == checkpoints
    assert res.miss_series == tuple(want)
    assert res.total_misses == misses


@pytest.mark.parametrize("checkpoints", [(10, 200), (5, 3, 10), (10, 10, 20), ()])
def test_run_one_rejects_bad_checkpoints(checkpoints):
    _, trace, cfg = small_setup(t=100)
    with pytest.raises(ValueError, match="checkpoints"):
        run_one(trace, PolicySpec("lfu", cfg), seed=0, checkpoints=checkpoints)


@pytest.mark.parametrize("regen", [False, True])
@pytest.mark.parametrize("checkpoints", [(10, 200), ()])
def test_run_experiment_rejects_bad_checkpoints(checkpoints, regen):
    spec, trace, cfg = small_setup(t=100)
    with pytest.raises(ValueError, match="checkpoints"):
        run_experiment(spec, [PolicySpec("lfu", cfg)], runs=1, base_seed=0,
                       regen_trace_per_run=regen, checkpoints=checkpoints)


def test_regen_trace_per_run_needs_a_synthetic_spec():
    cfg = PolicyConfig(cache_capacity=1, eta=1.0)
    with pytest.raises(ValueError, match="synthetic"):
        run_experiment(None, [PolicySpec("lfu", cfg)],
                       runs=1, base_seed=0, regen_trace_per_run=True)


def test_make_trace_kinds():
    for kind in ("zipf", "zipf-rr", "round-robin"):
        trace = make_trace(TraceSpec(kind=kind, n_files=10, length=100, seed=0))
        assert len(trace) == 100
        assert trace.catalog.n_files == 10
    with pytest.raises(ValueError):
        TraceSpec(kind="wat", n_files=10, length=100)


def test_run_one_counts_misses_against_entering_state():
    # single file, C=1: after the file enters the cache everything hits
    trace = Trace(Catalog(2), [1, 1, 1, 1])
    cfg = PolicyConfig(cache_capacity=1, eta=1.0)
    res = run_one(trace, PolicySpec("s-nfpl", cfg), seed=0)
    assert res.total_misses <= 1
    assert res.miss_series[-1] == res.total_misses / 4


def test_run_matching_opt_allocation_has_zero_regret():
    trace = Trace(Catalog(2), [0, 0, 0])
    cfg = PolicyConfig(cache_capacity=1, eta=1.0)
    res = run_one(trace, PolicySpec("lfu", cfg), seed=0)  # starts with {0} cached
    assert res.total_misses == 0
    assert res.opt_misses == 0
    assert res.regret == 0


def test_paired_masks_are_shared_across_policies():
    spec, trace, cfg = small_setup(observe_prob=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_experiment(
            spec, [PolicySpec("lfu", cfg), PolicySpec("lru", cfg)],
            runs=3, base_seed=0, trace=trace,
        )
    for a, b in zip(out["lfu"].runs, out["lru"].runs):
        # both classic policies count every observed request
        assert a.sampled_steps == b.sampled_steps


def test_unpaired_masks_differ():
    spec, trace, cfg = small_setup(observe_prob=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_experiment(
            spec, [PolicySpec("lfu", cfg), PolicySpec("lru", cfg)],
            runs=2, base_seed=0, trace=trace, paired=False,
        )
    diffs = [
        a.sampled_steps != b.sampled_steps
        for a, b in zip(out["lfu"].runs, out["lru"].runs)
    ]
    assert any(diffs)


def test_parallelism_does_not_change_results():
    spec, trace, cfg = small_setup(t=1000)
    specs = [PolicySpec("s-nfpl", cfg), PolicySpec("lru", cfg)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        serial = run_experiment(spec, specs, runs=4, base_seed=5, trace=trace,
                                parallelism=1)
        parallel = run_experiment(spec, specs, runs=4, base_seed=5, trace=trace,
                                  parallelism=2)
    assert serial == parallel


def test_single_run_experiment_has_zero_halfwidth():
    spec, trace, cfg = small_setup(t=500)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_experiment(spec, [PolicySpec("lfu", cfg)], runs=1, base_seed=0,
                             trace=trace)
    agg = out["lfu"]
    assert agg.n_runs == 1
    assert all(h == 0.0 for h in agg.ci95_series)


def test_regen_trace_per_run_varies_the_trace():
    spec, _, cfg = small_setup(t=800)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_experiment(spec, [PolicySpec("lfu", cfg)], runs=3, base_seed=0,
                             regen_trace_per_run=True)
    opts = {r.opt_misses for r in out["lfu"].runs}
    assert len(opts) > 1  # each seed drew its own trace


def test_failed_run_identifies_seed():
    spec, _, _ = small_setup()
    bad = PolicyConfig(cache_capacity=50, eta=1.0)  # capacity == catalog size
    with pytest.raises(RuntimeError, match="seed 4"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_experiment(spec, [PolicySpec("lfu", bad)], runs=1, base_seed=4,
                           regen_trace_per_run=True)


def test_failed_in_process_run_clears_the_worker_context():
    spec, _, _ = small_setup()
    bad = PolicyConfig(cache_capacity=50, eta=1.0)  # capacity == catalog size
    with pytest.raises(RuntimeError, match="seed 0"):
        run_experiment(spec, [PolicySpec("s-nfpl", bad)], runs=1, base_seed=0,
                       regen_trace_per_run=True)
    assert engine._CTX == {}


def test_regen_trace_per_run_rejects_a_prebuilt_trace():
    spec, trace, cfg = small_setup()
    with pytest.raises(ValueError, match="pass no trace"):
        run_experiment(spec, [PolicySpec("lfu", cfg)], runs=1, base_seed=0,
                       regen_trace_per_run=True, trace=trace)


@pytest.mark.parametrize("regen", [False, True])
def test_one_optimum_per_trace_and_capacity(monkeypatch, regen):
    spec, trace, cfg = small_setup(t=800)
    wide = PolicyConfig(cache_capacity=8, eta=cfg.eta)
    specs = [PolicySpec("s-nfpl", cfg), PolicySpec("lfu", cfg), PolicySpec("lru", wide),
             PolicySpec("fpl", wide)]
    calls = []

    def counted(tr, c):
        calls.append(c)
        return oracle.opt_static(tr, c)

    monkeypatch.setattr(engine, "opt_static", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_experiment(spec, specs, runs=2, base_seed=0, regen_trace_per_run=regen,
                             trace=None if regen else trace)
    assert calls == ([5, 8] * 2 if regen else [5, 8])
    for s in specs:
        for r in out[s.name].runs:
            seeded = make_trace(spec, seed=r.seed) if regen else trace
            assert r.opt_misses == oracle.opt_static(seeded, s.config.cache_capacity)[1]


@pytest.mark.parametrize("name, batch, t, given_mask", [
    ("s-nfpl", 1, 1_000_000, True), ("l-nfpl", 1, 1_000_000, True),
    ("d-nfpl", 100, 1_000_000, True), ("fpl", 1, 1_000_000, True),
    ("lfu", 1, 1_000_000, True), ("lru", 1, 1_000_000, True),
    # run_one draws the mask: a T-byte mask alone would take 3.8 MiB
    ("lru", 1, 4_000_000, False),
    ("l-nfpl", 10, 1_000_000, True),
], ids=["s-nfpl-1", "l-nfpl-1", "d-nfpl-100", "fpl-1", "lfu-1", "lru-1", "lru-1-drawn-mask",
        "l-nfpl-10"])
def test_run_one_memory_does_not_grow_with_the_horizon(name, batch, t, given_mask):
    # the trace and a given mask are inputs, built first; a copy of the
    # 1M-request trace as a list of ids alone would take 8 MiB
    n, c = 120, 100
    trace = make_trace(TraceSpec(kind="zipf", n_files=n, length=t, seed=5))
    mask = bpo_mask(t, 0.5, spawn_stream(1, 0)) if given_mask else None
    cfg = PolicyConfig(cache_capacity=c, batch_size=batch, observe_prob=0.5,
                       eta=default_eta(batch, c, t))
    opt_misses = None if given_mask else 0  # skips the optimum's pass over 4M ids
    tracemalloc.start()
    try:
        run_one(trace, PolicySpec(name, cfg), seed=1, mask=mask, opt_misses=opt_misses)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{name}: peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("name", POLICY_NAMES)
@pytest.mark.parametrize("batch", [1, 4])
def test_run_one_leaks_no_numpy_scalars(monkeypatch, name, batch):
    # blocks arrive as numpy arrays; a numpy id in a cache set or heap slows
    # the list loops, and a numpy counter changes its repr in the outputs
    made = []

    def keep(*args, **kwargs):
        made.append(make_policy(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(engine, "make_policy", keep)
    _, trace, cfg = small_setup(batch_size=batch, observe_prob=0.7, sample_prob=0.5)
    res = run_one(trace, PolicySpec(name, cfg), seed=2)
    (policy,) = made
    assert {type(f) for f in policy.cache} == {int}
    counters = (res.total_misses, res.opt_misses, res.regret, res.heap_ops,
                res.cache_refreshes, res.sampled_steps, res.score_changes)
    assert {type(v) for v in counters} == {int}
    assert {type(v) for v in res.miss_series} == {float}


def test_unknown_policy_is_rejected_before_any_work(monkeypatch):
    spec, trace, cfg = small_setup()

    def no_work(*args):
        raise AssertionError("opt_static ran")

    monkeypatch.setattr(engine, "opt_static", no_work)
    with pytest.raises(ValueError, match="unknown policy 'nope'"):
        run_experiment(spec, [PolicySpec("lru", cfg), PolicySpec("nope", cfg)],
                       runs=1, base_seed=0, trace=trace, parallelism=2)


def test_empty_policy_list_is_rejected_before_any_work(monkeypatch):
    spec, _, _ = small_setup()

    def no_work(*args, **kwargs):
        raise AssertionError("set-up ran")

    monkeypatch.setattr(engine, "make_trace", no_work)
    monkeypatch.setattr(engine, "opt_static", no_work)
    with pytest.raises(ValueError, match="need at least one policy"):
        run_experiment(spec, [], runs=3, base_seed=0)


def test_pool_gets_no_more_workers_than_seeds(monkeypatch):
    # the wrapper records the pool size asked for but starts at most two
    # workers, so the test forks no more even where the cap is missing
    spec, trace, cfg = small_setup(t=500)
    specs = [PolicySpec("s-nfpl", cfg)]
    asked = []
    pool = futures.ProcessPoolExecutor

    def capped_pool(max_workers, **kwargs):
        asked.append(max_workers)
        return pool(max_workers=min(max_workers, 2), **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", capped_pool)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        two = run_experiment(spec, specs, runs=2, base_seed=0, trace=trace, parallelism=16)
        one = run_experiment(spec, specs, runs=1, base_seed=0, trace=trace, parallelism=16)
        assert two == run_experiment(spec, specs, runs=2, base_seed=0, trace=trace)
        assert one == run_experiment(spec, specs, runs=1, base_seed=0, trace=trace)
    assert asked == [2]


def test_import_loads_no_process_pool():
    # a fresh interpreter, so modules other tests loaded do not count
    src = str(Path(engine.__file__).parents[1])
    code = ("import sys, nfplcache; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures.process', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"


def test_only_seedless_policies_fork_no_pool(monkeypatch):
    # lfu and lru at p = 1 on a shared trace need one simulation each, so
    # no seed is left for a worker
    spec, trace, cfg = small_setup(t=500)
    specs = [PolicySpec("lfu", cfg), PolicySpec("lru", cfg)]
    asked = []
    pool = futures.ProcessPoolExecutor

    def capped_pool(max_workers, **kwargs):
        asked.append(max_workers)
        return pool(max_workers=min(max_workers, 2), **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", capped_pool)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_experiment(spec, specs, runs=4, base_seed=0, trace=trace, parallelism=4)
        assert out == run_experiment(spec, specs, runs=4, base_seed=0, trace=trace)
    assert asked == []
    assert [r.seed for r in out["lru"].runs] == [0, 1, 2, 3]


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("paired", [True, False])
def test_seedless_copies_equal_their_own_runs(parallelism, paired):
    spec, trace, cfg = small_setup(t=1000)
    specs = [PolicySpec(name, cfg) for name in ("lfu", "lru", "s-nfpl")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_experiment(spec, specs, runs=3, base_seed=4, trace=trace,
                             parallelism=parallelism, paired=paired)
    for s in specs:
        runs = out[s.name].runs
        assert [r.seed for r in runs] == [4, 5, 6]
        for r in runs:
            assert r == run_one(trace, s, r.seed)


@pytest.mark.parametrize("p, regen, calls", [(1.0, False, 3 * 1 + 2), (0.5, False, 9),
                                             (1.0, True, 9)])
def test_seedless_policies_run_once_per_experiment(monkeypatch, p, regen, calls):
    spec, trace, cfg = small_setup(t=600, observe_prob=p)
    specs = [PolicySpec(name, cfg) for name in ("lfu", "s-nfpl", "lru")]
    ran = []

    def counted(trace, spec, seed, **kwargs):
        ran.append((spec.name, seed))
        return run_one(trace, spec, seed, **kwargs)

    monkeypatch.setattr(engine, "run_one", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_experiment(spec, specs, runs=3, base_seed=0, regen_trace_per_run=regen,
                             trace=None if regen else trace)
    assert len(ran) == calls
    assert [seed for name, seed in ran if name == "s-nfpl"] == [0, 1, 2]
    assert all(len(agg.runs) == 3 for agg in out.values())


def test_skipped_seedless_runs_keep_the_unpaired_mask_substreams():
    # s-nfpl is second in the list, so its mask comes from substream 1 on
    # every seed, also where lfu before it is not simulated
    spec, trace, cfg = small_setup(t=1000)
    half = PolicyConfig(cache_capacity=cfg.cache_capacity, eta=cfg.eta, observe_prob=0.5)
    specs = [PolicySpec("lfu", cfg), PolicySpec("s-nfpl", half)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_experiment(spec, specs, runs=3, base_seed=0, trace=trace, paired=False)
    for r in out["s-nfpl"].runs:
        mask = bpo_mask(len(trace), 0.5, spawn_stream(r.seed, STREAM_BPO).substream(1))
        assert r == run_one(trace, specs[1], r.seed, mask=mask)


def test_paired_mode_requires_single_observe_prob():
    spec, trace, cfg = small_setup()
    other = PolicyConfig(cache_capacity=5, eta=cfg.eta, observe_prob=0.5)
    with pytest.raises(ValueError, match="paired"):
        run_experiment(spec, [PolicySpec("lfu", cfg), PolicySpec("lru", other)],
                       runs=1, base_seed=0, trace=trace)


def test_duplicate_policy_names_rejected():
    spec, trace, cfg = small_setup()
    with pytest.raises(ValueError, match="unique"):
        run_experiment(spec, [PolicySpec("lfu", cfg), PolicySpec("lfu", cfg)],
                       runs=1, base_seed=0, trace=trace)


def test_explicit_mask_must_match_trace_length():
    _, trace, cfg = small_setup(t=100)
    mask = bpo_mask(99, 1.0, spawn_stream(0, 0))
    with pytest.raises(ValueError, match="mask"):
        run_one(trace, PolicySpec("lfu", cfg), seed=0, mask=mask)


def test_dnfpl_resort_count_equals_nonempty_batches():
    n, t, b = 40, 1200, 8
    spec = TraceSpec(kind="zipf", n_files=n, length=t, alpha=1.0, seed=2)
    trace = make_trace(spec)
    cfg = PolicyConfig(cache_capacity=4, batch_size=b, observe_prob=0.3,
                       eta=default_eta(b, 4, t))
    res = run_one(trace, PolicySpec("d-nfpl", cfg), seed=6)
    mask = bpo_mask(t, 0.3, spawn_stream(6, 0)).bits
    full = (t // b) * b
    nonempty = int(mask[:full].reshape(-1, b).any(axis=1).sum())
    assert res.cache_refreshes == nonempty
    assert res.cache_refreshes < t // b
