"""Experiment orchestration: one trace, a policy set, M seeds, run in parallel.

Results are deterministic functions of (trace spec, policy specs, base
seed): seeds are processed independently and aggregated in seed order,
so the output is identical at any parallelism level. Within one seed all
policies see the same observation mask by default, which pairs the
comparison; ``paired=False`` gives each policy its own mask substream.

LFU and LRU (``policies.SEEDLESS``) read no randomness, so at full
observation (``observe_prob == 1``) on a shared trace every seed's run of
them is the same run: they are simulated once, on the first seed, and the
other seeds' records are copies with ``seed`` replaced. A copy keeps the
one run's ``wall_time``. At p < 1 the mask, and under
``regen_trace_per_run`` the trace, differs between seeds, so every seed runs.

``run_one`` owns the checkpoints: it cuts the trace and mask at every
checkpoint and every 65 536 requests, hands each segment to the policy's
``run_block`` as numpy views and reads the miss ratio where a segment ends
on a checkpoint; no per-request call is made from here.

The process pool is imported when ``run_experiment`` first starts one, so
importing the package loads neither ``concurrent.futures.process`` nor
``multiprocessing``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import zip_longest

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
from .policies import POLICY_NAMES, SEEDLESS, make_policy
from .traces import (
    ObservationMask,
    bpo_mask,
    gen_round_robin,
    gen_zipf,
    gen_zipf_rr,
)

TRACE_KINDS = ("zipf", "zipf-rr", "round-robin")


@dataclass(frozen=True)
class PolicySpec:
    """A named policy plus its full configuration."""

    name: str
    config: PolicyConfig


@dataclass(frozen=True)
class TraceSpec:
    """Recipe for building a trace, so workers can regenerate it."""

    kind: str
    n_files: int
    length: int
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ValueError(f"trace kind must be one of {TRACE_KINDS}")


def make_trace(spec: TraceSpec, seed: int | None = None) -> Trace:
    """Materialize a trace; ``seed`` overrides the spec's own seed."""
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
    # seedless runs happen on the first seed only; the others copy them
    skipped = ctx["seedless"] if seed != ctx["base_seed"] else ()
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
        # idx is the spec's place in the full list: it picks the unpaired
        # mask substream, so skipped specs must not shift it
        for idx, spec in enumerate(specs):
            if spec.name in skipped:
                continue
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
    trace_spec: TraceSpec | None,
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
    may be passed with ``trace_spec=None``, when no spec can regenerate it,
    or to skip generation; otherwise the trace is built once from the spec, or
    per run when ``regen_trace_per_run`` is set, which takes a spec and no
    pre-built trace. The optimum is computed once per trace and capacity.
    Checkpoints and policy names are checked before any run. The pool gets
    no more workers than there are seeds with runs to do; with one worker
    the seeds run in this process.

    LFU and LRU at ``observe_prob == 1`` on a shared trace read no
    randomness, so they are simulated on ``base_seed`` only; every other
    seed's record is a copy of that ``RunResult`` with ``seed`` replaced,
    and keeps its ``wall_time``. An experiment of only such policies runs
    one seed, in this process.

    The experiment holds O(T) memory by design: the trace takes 8 bytes a
    request, and each seed's observation mask is drawn whole (unpaired, one
    policy's at a time), one byte a request more. Only ``run_one``'s own
    state is O(N + C). Drawing the mask inside each ``run_one`` instead
    would repeat the draw once per policy whenever p < 1.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if parallelism < 1:
        raise ValueError("parallelism must be positive")
    if not policy_specs:
        raise ValueError("need at least one policy")
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
        if trace_spec is None:
            raise ValueError("regen_trace_per_run needs a synthetic trace spec")
        if trace is not None:
            raise ValueError("regen_trace_per_run draws every run's trace; pass no trace")
        shared_trace = None
        checkpoints = _checked_checkpoints(checkpoints, trace_spec.length)
    else:
        if trace is None and trace_spec is None:
            raise ValueError("run_experiment needs a trace spec or a trace")
        shared_trace = trace if trace is not None else make_trace(trace_spec)
        checkpoints = _checked_checkpoints(checkpoints, len(shared_trace))
        for spec in policy_specs:
            c = spec.config.cache_capacity
            if c not in opt_cache:
                opt_cache[c] = opt_static(shared_trace, c)[1]

    # no seed can change the run of a seedless policy at full observation
    # on a shared trace
    seedless = frozenset() if regen_trace_per_run else frozenset(
        s.name for s in policy_specs if s.name in SEEDLESS and s.config.observe_prob == 1.0
    )
    ctx = {
        "trace": shared_trace,
        "trace_spec": trace_spec,
        "specs": tuple(policy_specs),
        "checkpoints": checkpoints,
        "paired": paired,
        "opt_misses": opt_cache,
        "seedless": seedless,
        "base_seed": base_seed,
    }
    seeds = list(range(base_seed, base_seed + runs))
    # the seeds with runs to do; the first carries the seedless runs, the
    # longest task, and pool.map submits it first
    busy = seeds[:1] if len(seedless) == len(policy_specs) else seeds

    workers = min(parallelism, len(busy))
    if workers <= 1:
        _init_worker(ctx)
        try:
            per_seed = [_run_seed(s) for s in busy]
        finally:
            _CTX.clear()
    else:
        # imported here, so that a run without a pool never loads it; the
        # pool forks all its workers up front, so it gets no more than there
        # are seeds
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            per_seed = list(pool.map(_run_seed, busy))

    by_policy: dict[str, list[RunResult]] = {s.name: [] for s in policy_specs}
    # seed order, independent of completion order; the first seed ran every
    # policy, and a policy skipped later is a copy of its first run
    for seed, results in zip_longest(seeds, per_seed, fillvalue=()):
        ran = {res.policy: res for res in results}
        for name, runs_of in by_policy.items():
            runs_of.append(ran[name] if name in ran else replace(runs_of[0], seed=seed))
    return {name: aggregate(rs) for name, rs in by_policy.items()}
