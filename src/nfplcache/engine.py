"""Experiment orchestration: one trace, a policy set, M seeds, run in parallel.

Results are deterministic functions of (trace spec, policy specs, base
seed): seeds are processed independently and aggregated in seed order,
so the output is identical at any parallelism level. Within one seed all
policies see the same observation mask by default, which pairs the
comparison; ``paired=False`` gives each policy its own mask substream.

``run_one`` owns the checkpoints: it cuts the trace and mask at every
checkpoint and every 65 536 requests, hands each segment to the policy's
``run_block`` as numpy views and reads the miss ratio where a segment ends
on a checkpoint; no per-request call is made from here.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .core import (
    STREAM_BPO,
    STREAM_POLICY,
    STREAM_TRACE,
    Catalog,
    PolicyConfig,
    Trace,
    spawn_stream,
)
from .metrics import AggregateResult, RunResult, aggregate, default_checkpoints
from .oracle import opt_static
from .policies import POLICY_NAMES, make_policy
from .traces import (
    ObservationMask,
    bpo_mask,
    gen_round_robin,
    gen_zipf,
    gen_zipf_rr,
    load_trace,
)

TRACE_KINDS = ("zipf", "zipf-rr", "round-robin", "file")


@dataclass(frozen=True)
class PolicySpec:
    """A named policy plus its full configuration."""

    name: str
    config: PolicyConfig


@dataclass(frozen=True)
class TraceSpec:
    """Recipe for building a trace, so workers can regenerate it."""

    kind: str
    n_files: int = 0
    length: int = 0
    alpha: float = 1.0
    seed: int = 0
    path: str | None = None
    id_column: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ValueError(f"trace kind must be one of {TRACE_KINDS}")


def make_trace(spec: TraceSpec, seed: int | None = None) -> Trace:
    """Materialize a trace; ``seed`` overrides the spec's own seed."""
    if spec.kind == "file":
        if not spec.path:
            raise ValueError("file traces need a path")
        return load_trace(spec.path, id_column=spec.id_column)
    rng = spawn_stream(spec.seed if seed is None else seed, STREAM_TRACE)
    catalog = Catalog(spec.n_files)
    if spec.kind == "zipf":
        return gen_zipf(catalog, spec.length, spec.alpha, rng)
    if spec.kind == "zipf-rr":
        return gen_zipf_rr(catalog, spec.length, spec.alpha, rng)
    return gen_round_robin(catalog, spec.length)


def _checked_checkpoints(checkpoints, horizon: int) -> tuple[int, ...]:
    """The default grid for None; else the checkpoints, if they are valid."""
    if checkpoints is None:
        return default_checkpoints(horizon)
    checkpoints = tuple(checkpoints)
    if not checkpoints or any(
        not prev < t <= horizon for prev, t in zip((0, *checkpoints), checkpoints)
    ):
        raise ValueError(f"checkpoints must be strictly ascending within [1, {horizon}]")
    return checkpoints


def run_one(
    trace: Trace,
    spec: PolicySpec,
    seed: int,
    mask: ObservationMask | None = None,
    checkpoints: tuple[int, ...] | None = None,
    opt_misses: int | None = None,
) -> RunResult:
    """Simulate one policy over one trace with one seed.

    The observation mask comes from the seed's BPO stream unless given,
    drawn segment by segment: ``RngStream.bernoulli`` gives the same bits
    however a draw is split, so these are the bits of
    :func:`~nfplcache.traces.bpo_mask` over the whole trace, and memory
    stays O(N + C) for any horizon. Policy randomness always comes from the
    seed's policy stream. Each segment goes to the policy's ``run_block``
    as views of the trace's ids and of the mask's bits (an int and a bool
    array).
    ``checkpoints`` must be strictly ascending request numbers in
    ``[1, len(trace)]``; the miss series has one entry for each.
    ``opt_misses`` is the trace's optimum at the policy's capacity, computed
    here when not given.
    """
    horizon = len(trace)
    if mask is None:
        bpo, p = spawn_stream(seed, STREAM_BPO), spec.config.observe_prob
    elif len(mask) != horizon:
        raise ValueError("mask length must match the trace")
    checkpoints = _checked_checkpoints(checkpoints, horizon)
    if opt_misses is None:
        _, opt_misses = opt_static(trace, spec.config.cache_capacity)
    policy = make_policy(
        spec.name, spec.config, trace.catalog, horizon, spawn_stream(seed, STREAM_POLICY)
    )

    run_block = policy.run_block
    requests = trace.requests
    wanted = set(checkpoints)
    misses = 0
    series = []
    start = 0
    started = time.perf_counter()
    # segments of at most 65 536 requests keep working state O(N + C)
    for end in sorted({*range(65_536, horizon, 65_536), *checkpoints, horizon}):
        bits = mask.bits[start:end] if mask is not None else bpo.bernoulli(p, end - start)
        misses += run_block(start, requests[start:end], bits)
        if end in wanted:
            series.append(misses / end)
        start = end
    wall = time.perf_counter() - started

    return RunResult(
        policy=spec.name,
        seed=seed,
        checkpoints=checkpoints,
        miss_series=tuple(series),
        total_misses=misses,
        opt_misses=opt_misses,
        regret=misses - opt_misses,
        heap_ops=policy.heap_ops,
        cache_refreshes=policy.cache_refreshes,
        sampled_steps=policy.sampled_steps,
        score_changes=policy.score_changes,
        wall_time=wall,
    )


# Worker context is installed once per process by the pool initializer so
# the trace is not re-pickled for every seed.
_CTX: dict = {}


def _init_worker(ctx: dict) -> None:
    _CTX.update(ctx)


def _run_seed(seed: int) -> list[RunResult]:
    ctx = _CTX
    trace = ctx["trace"]
    if trace is None:
        trace = make_trace(ctx["trace_spec"], seed=seed)
    specs = ctx["specs"]
    checkpoints = ctx["checkpoints"]
    opts = dict(ctx["opt_misses"])  # empty for a per-seed trace, filled as runs compute it
    results = []
    try:
        # paired: every policy shares the seed's mask; unpaired: each policy
        # draws its own from a substream of the seed's BPO stream
        bpo = spawn_stream(seed, STREAM_BPO)
        shared = None
        if ctx["paired"]:
            shared = bpo_mask(len(trace), specs[0].config.observe_prob, bpo)
        for idx, spec in enumerate(specs):
            mask = shared
            if mask is None:
                mask = bpo_mask(len(trace), spec.config.observe_prob, bpo.substream(idx))
            c = spec.config.cache_capacity
            res = run_one(trace, spec, seed, mask=mask, checkpoints=checkpoints,
                          opt_misses=opts.get(c))
            opts[c] = res.opt_misses
            results.append(res)
    except Exception as exc:
        raise RuntimeError(f"run failed for seed {seed}: {exc}") from exc
    return results


def run_experiment(
    trace_spec: TraceSpec,
    policy_specs: list[PolicySpec],
    runs: int,
    base_seed: int,
    parallelism: int = 1,
    paired: bool = True,
    regen_trace_per_run: bool = False,
    checkpoints: tuple[int, ...] | None = None,
    trace: Trace | None = None,
) -> dict[str, AggregateResult]:
    """Run every policy over seeds base_seed..base_seed+runs-1 and aggregate.

    ``paired=True`` requires a single observation probability across the
    policy set (all policies share each seed's mask). A pre-built trace
    may be passed to skip generation; otherwise the trace is built once
    from the spec, or per run of a synthetic spec when
    ``regen_trace_per_run`` is set, which takes no pre-built trace. The
    optimum is computed once per trace and capacity. Checkpoints and policy
    names are checked before any run. The pool gets no more workers than
    there are seeds; with one worker the seeds run in this process.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    names = [s.name for s in policy_specs]
    unknown = [name for name in names if name not in POLICY_NAMES]
    if unknown:
        raise ValueError(
            f"unknown policy {unknown[0]!r}; valid names: {', '.join(POLICY_NAMES)}"
        )
    if len(set(names)) != len(names):
        raise ValueError("policy names must be unique within one experiment")
    if paired:
        probs = {s.config.observe_prob for s in policy_specs}
        if len(probs) > 1:
            raise ValueError(
                "paired masks need a single observe_prob across policies; "
                "use paired=False for mixed settings"
            )

    opt_cache: dict[int, int] = {}
    if regen_trace_per_run:
        if trace_spec.kind == "file":
            raise ValueError("regen_trace_per_run needs a synthetic trace spec")
        if trace is not None:
            raise ValueError("regen_trace_per_run draws every run's trace; pass no trace")
        shared_trace = None
        checkpoints = _checked_checkpoints(checkpoints, trace_spec.length)
    else:
        shared_trace = trace if trace is not None else make_trace(trace_spec)
        checkpoints = _checked_checkpoints(checkpoints, len(shared_trace))
        for spec in policy_specs:
            c = spec.config.cache_capacity
            if c not in opt_cache:
                opt_cache[c] = opt_static(shared_trace, c)[1]

    ctx = {
        "trace": shared_trace,
        "trace_spec": trace_spec,
        "specs": tuple(policy_specs),
        "checkpoints": checkpoints,
        "paired": paired,
        "opt_misses": opt_cache,
    }
    seeds = list(range(base_seed, base_seed + runs))

    workers = min(parallelism, runs)
    if workers <= 1:
        _init_worker(ctx)
        try:
            per_seed = [_run_seed(s) for s in seeds]
        finally:
            _CTX.clear()
    else:
        # the pool forks all its workers up front, so it gets no more than
        # there are seeds
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            per_seed = list(pool.map(_run_seed, seeds))

    by_policy: dict[str, list[RunResult]] = {s.name: [] for s in policy_specs}
    for results in per_seed:  # seed order, independent of completion order
        for spec, res in zip(policy_specs, results):
            by_policy[spec.name].append(res)
    return {name: aggregate(rs) for name, rs in by_policy.items()}
