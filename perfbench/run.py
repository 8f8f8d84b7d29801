"""Benchmark for nfplcache: one workload, timed passes, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload acceptance-pool --seed 0 --seconds 45 --trace 0

A pass is what ``nfplcache run`` does: build the trace, run every policy
over the pass's seeds through ``engine.run_experiment`` (which computes
``opt_static``, simulates and aggregates), then write the per-policy
series CSVs and the summary table and JSON. Every pass of a run uses the
same inputs, all derived from ``--seed``, so each pass after the first
must reproduce the first exactly; passes repeat until ``--seconds`` is
used. ``--trace 0`` reports the end-to-end metrics, whose times are
host-scaled (see hostref.py), ``--trace 1`` the per-layer metrics from a
traced run (see tracing.py). The last stdout line is the JSON result;
the full record, with a manifest, is written to ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from time import perf_counter_ns

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
from tracing import Probe, Tracer, duration, patched, self_times  # noqa: E402
from workloads import END_TO_END, ERROR_RATE, PER_LAYER, WORKLOADS  # noqa: E402

BASELINE = HERE / "baseline" / "seed-commit"
IMPORT_SAMPLES = 5

_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
import hostref
ref = hostref.reference_s()
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import nfplcache
took = time.perf_counter() - t
if not nfplcache.__file__.startswith(sys.argv[1]):
    sys.exit("nfplcache imported from outside " + sys.argv[1])
print(repr(took), repr(ref))
"""


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources, bad arguments)."""


def load_package():
    """Import nfplcache from this checkout's ``src`` and nowhere else."""
    if not (SRC / "nfplcache" / "__init__.py").is_file():
        raise SetupError(f"no nfplcache sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nfplcache
    import nfplcache.cli  # noqa: F401  (the summary rows ``nfplcache run`` writes)

    if not Path(nfplcache.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"nfplcache was imported from {nfplcache.__file__}, not {SRC}")
    return nfplcache


def cold_import_seconds(samples: int) -> list[float]:
    """Time ``import nfplcache`` in fresh interpreters, one after another.

    Each time is scaled by the host speed the interpreter read just before
    the import (see hostref.py).
    """
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-s", "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise SetupError(f"import probe failed: {proc.stderr.strip()}")
        took, ref = (float(x) for x in proc.stdout.split())
        times.append(took * hostref.NOMINAL_S / ref)
    return times


def policy_specs(nf, w):
    eta = nf.core.default_eta(w.eta_batch, w.capacity, w.length, w.observe_prob,
                              kind="experimental")
    return [
        nf.engine.PolicySpec(name, nf.core.PolicyConfig(
            cache_capacity=w.capacity, batch_size=batch,
            observe_prob=w.observe_prob, eta=eta))
        for name, batch in w.policies
    ]


def run_digest(r) -> str:
    """Fingerprint of every simulated statistic of one (policy, seed) run."""
    stats = [r.policy, r.seed, r.total_misses, r.opt_misses, r.regret, r.heap_ops,
             r.cache_refreshes, r.sampled_steps, r.score_changes,
             list(r.checkpoints), [repr(x) for x in r.miss_series]]
    return hashlib.sha256(json.dumps(stats).encode()).hexdigest()[:16]


@dataclasses.dataclass
class Pass:
    """One pass: its timings, its (policy, seed) results and what failed."""

    keys: list[tuple[str, int]]
    results: dict = dataclasses.field(default_factory=dict)
    failed: set = dataclasses.field(default_factory=set)
    messages: list[str] = dataclasses.field(default_factory=list)
    wall_ns: int = 0
    segments: list[tuple[float, float]] = dataclasses.field(default_factory=list)
    references_ns: list[int] = dataclasses.field(default_factory=list)
    worker_rss_kib: int = 0
    spans: list = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results)

    def fail(self, keys, message: str) -> None:
        self.failed.update(keys)
        self.messages.append(message)


def _write_outputs(nf, w, seed, specs, aggs, opt_misses, out_dir: Path) -> None:
    """What ``nfplcache run`` writes: series CSVs, summary table and JSON.

    Rows come from the CLI's own ``_summary_row``, the policies in the CLI's
    ``NFPL_FAMILY`` get a regret bound, and the JSON payload has the fields
    ``cli.cmd_run`` writes. The CLI takes one config for all policies; the
    experiment block shows the first policy's.
    """
    m = nf.metrics
    rows, payload = [], {}
    for spec in specs:
        name, cfg, agg = spec.name, spec.config, aggs[spec.name]
        m.write_series_csv(out_dir / f"{name}_series.csv", agg)
        bound = None
        if name in nf.cli.NFPL_FAMILY:
            bound = nf.oracle.regret_bound_caching(
                cfg.batch_size, cfg.cache_capacity, w.length, cfg.observe_prob, cfg.sample_prob)
        rows.append(nf.cli._summary_row(name, agg, bound))
        payload[name] = {
            "mean_final_miss_ratio": agg.final_mean_miss_ratio,
            "variance": agg.final_variance,
            "mean_total_misses": float(sum(r.total_misses for r in agg.runs)) / agg.n_runs,
            "opt_misses": opt_misses,
            "mean_regret": agg.mean_regret,
            "regret_bound": bound,
            "mean_heap_ops": agg.mean_heap_ops,
            "mean_cache_refreshes": agg.mean_cache_refreshes,
            "mean_wall_time_sec": agg.mean_wall_time,
            "runs": agg.n_runs,
        }
    cfg = specs[0].config
    payload["experiment"] = {
        "trace_kind": w.trace_kind,
        "n_files": w.n_files,
        "horizon": w.length,
        "cache_capacity": cfg.cache_capacity,
        "batch_size": cfg.batch_size,
        "observe_prob": cfg.observe_prob,
        "sample_prob": cfg.sample_prob,
        "eta": cfg.eta,
        "base_seed": seed,
        "opt_miss_ratio": opt_misses / w.length,
    }
    m.write_summary_table(out_dir / "summary.csv", rows, "csv")
    m.write_summary_json(out_dir / "summary.json", payload)


def run_pass(nf, w, seed, specs, out_dir: Path, probe: Probe, tracer: Tracer | None) -> Pass:
    keys = [(s.name, seed + i) for s in specs for i in range(w.runs)]
    p = Pass(keys)
    engine = nf.engine
    captured = {}

    def body():
        trace_spec = engine.TraceSpec(kind=w.trace_kind, n_files=w.n_files,
                                      length=w.length, alpha=w.alpha, seed=seed)
        trace = engine.make_trace(trace_spec)
        checkpoints = nf.metrics.default_checkpoints(len(trace))
        aggs = engine.run_experiment(trace_spec, specs, runs=w.runs, base_seed=seed,
                                     parallelism=w.workers, trace=trace,
                                     checkpoints=checkpoints)
        opt_set, opt_misses = nf.oracle.opt_static(trace, w.capacity)
        _write_outputs(nf, w, seed, specs, aggs, opt_misses, out_dir)
        captured.update(trace=trace, checkpoints=checkpoints, aggs=aggs,
                        opt_set=opt_set, opt_misses=opt_misses)

    if tracer is not None:
        body = tracer.coarse("bench.pass", body)
    pass_ref_ns = round(probe.reference() * 1e9) if probe.reference else 0
    start = perf_counter_ns()
    try:
        body()
    except Exception as exc:  # a raising run is a failed run, never a dropped one
        p.fail(keys, f"pass raised {type(exc).__name__}: {exc}")
        return p
    finally:
        end = perf_counter_ns()
        calls, worker_rss = probe.collect()
        if tracer is not None:
            p.spans = tracer.collect()
    p.wall_ns = end - start
    if pass_ref_ns:
        pass_ref_ns = (pass_ref_ns + round(probe.reference() * 1e9)) // 2
        p.segments = segments(start, end, calls, pass_ref_ns, w.workers)
        p.references_ns = [pass_ref_ns] + [c[4] for c in calls]
    p.worker_rss_kib = sum(worker_rss.values())
    for spec in specs:
        for r in captured["aggs"][spec.name].runs:
            p.results[(r.policy, r.seed)] = r
    check_pass(nf, w, p, captured, out_dir)
    return p


def segments(start: int, end: int, calls: list[tuple[int, ...]],
             pass_ref_ns: int, workers: int) -> list[tuple[float, float]]:
    """Split a pass into consecutive segments, each as ``(seconds, host factor)``.

    The segments add up to the pass's wall time less the reference runs the
    probe made around each ``run_one``. Set-up runs up to the first
    reference; the finish (aggregate, writes) from the last reference's end.
    Between them, an in-process pass has one segment per ``run_one`` (the
    call and the gap before it); a pool pass has one segment for the whole
    pool phase, since its calls overlap, and that one includes the workers'
    reference runs (about 1% of it). A segment's host factor is
    ``NOMINAL_S`` over the mean reference read around it: the pass's own for
    set-up and finish, the call's for an in-process ``run_one``, and the
    mean over the calls for a pool phase.
    """
    calls = sorted(calls, key=lambda c: c[1])
    nominal_ns = hostref.NOMINAL_S * 1e9
    last_end = max(c[3] for c in calls)
    parts = [(calls[0][0] - start, nominal_ns / pass_ref_ns)]
    if workers == 1:
        previous = calls[0][0]
        for ref_start, enter, leave, ref_end, ref_ns in calls:
            parts.append((leave - enter + ref_start - previous, nominal_ns / ref_ns))
            previous = ref_end
    else:
        mean_ref = statistics.fmean(c[4] for c in calls)
        parts.append((last_end - calls[0][0], nominal_ns / mean_ref))
    parts.append((end - last_end, nominal_ns / pass_ref_ns))
    return [(ns / 1e9, factor) for ns, factor in parts]


def segment_names(w, seed: int) -> list[str]:
    """Names of the segments ``segments`` returns, in order.

    In-process, ``run_experiment`` runs every policy of one seed before the next seed.
    """
    middle = ([f"{name}.{seed + i}" for i in range(w.runs) for name, _ in w.policies]
              if w.workers == 1 else ["pool"])
    return ["setup", *middle, "finish"]


def check_pass(nf, w, p: Pass, c: dict, out_dir: Path) -> None:
    """Output checks; each failing (policy, seed) run is marked failed."""
    trace, horizon = c["trace"], w.length
    counts = np.bincount(trace.requests, minlength=w.n_files).tolist()
    if set(c["opt_set"].stored) != nf.oracle.top_c_reference(counts, w.capacity):
        p.fail(p.keys, "opt_static set differs from top_c_reference")
    missing = set(p.keys) - set(p.results)
    if missing:
        p.fail(missing, f"no result for {sorted(missing)}")
    for key, r in p.results.items():
        problems = []
        if r.regret != r.total_misses - r.opt_misses:
            problems.append("regret != total_misses - opt_misses")
        if r.opt_misses != c["opt_misses"]:
            problems.append("opt_misses differs from opt_static")
        if tuple(r.checkpoints) != tuple(c["checkpoints"]) or r.miss_series[-1] != r.total_misses / horizon:
            problems.append("last series point != total_misses / T")
        if problems:
            p.fail([key], f"{key}: " + "; ".join(problems))
    for name, agg in c["aggs"].items():
        expect = list(zip(agg.checkpoints, agg.mean_miss_series, agg.ci95_series))
        if nf.metrics.read_series_csv(out_dir / f"{name}_series.csv") != expect:
            p.fail([k for k in p.keys if k[0] == name], f"{name}_series.csv does not read back")


def check_against(p: Pass, reference: dict, digests: dict) -> None:
    """Simulated statistics must repeat the reference pass and the recorded digest."""
    for key, r in p.results.items():
        ref = reference.get(key)
        if ref is not None and r != ref:
            p.fail([key], f"{key}: statistics differ from the first pass of this run")
        want = digests.get(f"{key[0]}/{key[1]}")
        if want is not None and run_digest(r) != want:
            p.fail([key], f"{key}: statistics differ from the recorded digest")


def summary(values: list[float], unit: str) -> dict:
    """Median with its sample count and spread; counts keep their exact value."""
    values = sorted(values)
    median = statistics.median_low(values) if unit == "count" else statistics.median(values)
    out = {"value": median, "unit": unit, "n": len(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    return out


def _by_name(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def _mean_ns(spans: list[dict], name: str) -> float:
    """Mean duration per call, 0 when the call did not happen."""
    calls = sum(s.get("count", 1) for s in _by_name(spans, name))
    return sum(duration(s) for s in _by_name(spans, name)) / calls if calls else 0.0


def layer_values(w, p: Pass) -> dict[str, float]:
    """Per-layer numbers of one traced pass (the tracemalloc peak is added later)."""
    spans = p.spans
    results = list(p.results.values())
    run_ones = {s["id"]: s for s in _by_name(spans, "engine.run_one")}
    steps = _by_name(spans, "policies.step")
    requests = sum(s["count"] for s in steps) or len(results) * w.length
    step_ns = sum(s["total_ns"] for s in steps)

    v: dict[str, float] = {
        "traces.gen_ms": sum(duration(s) for s in _by_name(spans, "traces.make_trace")) / 1e6,
        "traces.mask_ms": _mean_ns(spans, "traces.bpo_mask") / 1e6,
        "oracle.opt_static_ms": _mean_ns(spans, "oracle.opt_static") / 1e6,
        "policies.ns_per_request": step_ns / requests,
        "policies.refresh_share": sum(s["refresh_ns"] for s in steps) / step_ns if step_ns else 0.0,
        "policies.cache_refreshes": sum(r.cache_refreshes for r in results),
        "policies.score_changes": sum(r.score_changes for r in results),
        "policies.sampled_steps": sum(r.sampled_steps for r in results),
        "topk.heap_ops": sum(r.heap_ops for r in results),
        "topk.bumps": sum(s["count"] for s in _by_name(spans, "topk.bump")),
        "core.uniform_us": _mean_ns(spans, "core.uniform") / 1e3,
        "core.bernoulli_us": _mean_ns(spans, "core.bernoulli") / 1e3,
        "metrics.aggregate_ms": sum(duration(s) for s in _by_name(spans, "metrics.aggregate")) / 1e6,
        "cli.write_ms": sum(duration(s) for s in spans if s["name"].startswith("cli.")) / 1e6,
    }

    own_children: dict[str, int] = {}
    for s in spans:
        parent = s["parent"]
        if parent in run_ones and run_ones[parent]["pid"] == s["pid"]:
            own_children[parent] = own_children.get(parent, 0) + duration(s)
    run_one_self = sum(duration(s) - own_children.get(i, 0) for i, s in run_ones.items())
    v["engine.self_ns_per_request"] = run_one_self / requests

    (experiment,) = _by_name(spans, "engine.run_experiment")
    inside = [s for s in spans if s["parent"] == experiment["id"]]
    opt_end = max((s["end"] for s in inside if s["name"] == "oracle.opt_static"),
                  default=experiment["start"])
    per_seed = [s for s in inside if s["name"] not in ("oracle.opt_static", "metrics.aggregate")]
    first = min(s["start"] for s in per_seed if s["start"] >= opt_end)
    v["engine.pool_start_ms"] = (first - opt_end) / 1e6
    v["engine.parallel_efficiency"] = (
        sum(duration(s) for s in per_seed) / (w.workers * duration(experiment)))

    # per-policy detail and the worst median refresh step
    refresh_medians = {}
    for name, _ in w.policies:
        mine = [s for s in steps if run_ones[s["parent"]]["policy"] == name]
        count = sum(s["count"] for s in mine)
        total = sum(s["total_ns"] for s in mine)
        v[f"policies.{name}.ns_per_request"] = total / count if count else 0.0
        v[f"policies.{name}.refresh_share"] = sum(s["refresh_ns"] for s in mine) / total if total else 0.0
        medians = [s["refresh_median_ns"] for s in mine if s["refresh_median_ns"] is not None]
        if medians:
            refresh_medians[name] = statistics.median(medians) / 1e3
            v[f"policies.{name}.refresh_us"] = refresh_medians[name]
        mine_runs = [r for r in results if r.policy == name]
        for field in ("cache_refreshes", "score_changes", "sampled_steps"):
            v[f"policies.{name}.{field}"] = sum(getattr(r, field) for r in mine_runs)
        v[f"topk.{name}.heap_ops"] = sum(r.heap_ops for r in mine_runs)
    v["policies.refresh_us"] = max(refresh_medians.values(), default=0.0)
    bumps = _by_name(spans, "topk.bump")
    if v["topk.bumps"]:
        v["topk.bump_ns"] = sum(s["total_ns"] for s in bumps) / v["topk.bumps"]
        v["topk.swap_ratio"] = sum(s["swaps"] for s in bumps) / v["topk.bumps"]
    for layer, ns in self_times(spans).items():
        v[f"{layer}.self_ms"] = ns / 1e6
    return v


def trace_targets(nf, tracer: Tracer) -> list:
    """The entry points a traced pass wraps, as ``(owner, attribute, wrapper)``."""
    engine, metrics, oracle = nf.engine, nf.metrics, nf.oracle

    def traced_policy(policy, args, kwargs):
        tracer.wrap_step(policy)
        return policy

    targets = [
        (engine, "make_trace", tracer.coarse("traces.make_trace", engine.make_trace)),
        (engine, "bpo_mask", tracer.coarse("traces.bpo_mask", engine.bpo_mask)),
        (engine, "opt_static", tracer.coarse("oracle.opt_static", engine.opt_static)),
        (oracle, "opt_static", tracer.coarse("oracle.opt_static", oracle.opt_static)),
        (engine, "make_policy", tracer.coarse("policies.make_policy", engine.make_policy,
                                              on_result=traced_policy)),
        (engine, "run_one", tracer.coarse(
            "engine.run_one", engine.run_one,
            attrs=lambda a, k: {"policy": a[1].name, "seed": a[2]})),
        (engine, "run_experiment", tracer.coarse("engine.run_experiment", engine.run_experiment)),
        (engine, "aggregate", tracer.coarse("metrics.aggregate", engine.aggregate)),
    ]
    for name in ("write_series_csv", "write_summary_table", "write_summary_json"):
        targets.append((metrics, name, tracer.coarse(f"cli.{name}", getattr(metrics, name))))
    tracker = nf.topk.TopCTracker
    targets.append((tracker, "bump", tracer.leaf("topk.bump", tracker.bump, count_swaps=True)))
    stream = nf.core.RngStream
    for name in ("uniform", "bernoulli", "random", "multinomial", "integers", "permutation"):
        if hasattr(stream, name):
            targets.append((stream, name, tracer.leaf(f"core.{name}", getattr(stream, name))))
    return targets


def step_replay(nf, trace, mask, spec, seed, ref) -> str | None:
    """Drive a fresh policy through ``step()`` and compare with ``run_one``."""
    core = nf.core
    policy = nf.policies.make_policy(spec.name, spec.config, trace.catalog, len(trace),
                                     core.spawn_stream(seed, core.STREAM_POLICY))
    step = policy.step
    misses = 0
    for t, (f, obs) in enumerate(zip(trace.requests.tolist(), mask.bits.tolist()), start=1):
        if not step(t, f, obs).hit:
            misses += 1
    got = (misses, policy.heap_ops, policy.cache_refreshes, policy.sampled_steps,
           policy.score_changes)
    want = (ref.total_misses, ref.heap_ops, ref.cache_refreshes, ref.sampled_steps,
            ref.score_changes)
    if got != want:
        return f"step() replay of {spec.name}/{seed} gives {got}, run_one gave {want}"
    return None


def single_run_checks(nf, w, seed, specs, reference: dict) -> tuple[dict, list, set]:
    """tracemalloc peak around one run_one per policy, then the step() replay.

    Returns the peaks in KiB, messages, and the (policy, seed) keys that failed.
    """
    core, engine = nf.core, nf.engine
    trace = engine.make_trace(engine.TraceSpec(kind=w.trace_kind, n_files=w.n_files,
                                               length=w.length, alpha=w.alpha, seed=seed))
    checkpoints = nf.metrics.default_checkpoints(len(trace))
    opt_misses = nf.oracle.opt_static(trace, w.capacity)[1]
    peaks, messages, failed = {}, [], set()
    for spec in specs:
        key = (spec.name, seed)
        mask = nf.traces.bpo_mask(len(trace), spec.config.observe_prob,
                                  core.spawn_stream(seed, core.STREAM_BPO))
        tracemalloc.start()
        try:
            r = engine.run_one(trace, spec, seed, mask=mask, checkpoints=checkpoints,
                               opt_misses=opt_misses)
            peaks[spec.name] = tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()
        if r != reference.get(key):
            failed.add(key)
            messages.append(f"{key}: run_one under tracemalloc differs from the pass")
        problem = step_replay(nf, trace, mask, spec, seed, reference[key])
        if problem:
            failed.add(key)
            messages.append(problem)
    return peaks, messages, failed


def recorded_digests(workload: str, seed: int) -> dict[str, str]:
    """Per-(policy, seed) digests of the seed commit's baseline runs of this workload and seed."""
    digests: dict[str, str] = {}
    for path in sorted(BASELINE.glob(f"*/{workload}-seed{seed}-trace*.json")):
        for r in json.loads(path.read_text(encoding="utf-8"))["runs"]:
            key = f"{r['policy']}/{r['seed']}"
            if digests.setdefault(key, r["digest"]) != r["digest"]:
                raise SetupError(f"baseline results disagree on {workload} {key}")
    return digests


def read_git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(nf, w, seed: int, seconds: float, trace: bool, started: time.struct_time) -> dict:
    return {
        "git_commit": read_git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nfplcache": getattr(nf, "__version__", None),
        "platform": platform.platform(),
        "workload": w.name,
        "workload_params": dataclasses.asdict(w),
        "seed": seed,
        "seconds": seconds,
        "workers": w.workers,
        "tracing": trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", started),
    }


def measure(nf, w, seed: int, seconds: float, trace: bool, out_dir: Path,
            digests: dict | None = None, import_samples: int = IMPORT_SAMPLES) -> dict:
    """Run one workload for about ``seconds``; returns its full record.

    With ``trace`` the first pass runs untraced (the reference that traced
    passes must reproduce, and the base of the tracing overhead); the
    passes after it are traced, and one run_one per policy is then
    repeated under tracemalloc and replayed through ``step()``. Without
    ``trace``, a cold import is timed before each pass (at least
    ``import_samples`` in all), so they sample the same stretch of time.
    """
    digests = digests or {}
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    specs = policy_specs(nf, w)
    # Traced passes run no reference: it would sit inside the run_one spans.
    probe = Probe(work, reference=None if trace else hostref.reference_s)
    tracer = Tracer(work) if trace else None
    try:
        with patched([(nf.engine, "run_one", probe.wrap(nf.engine.run_one))]):
            import_s = [] if trace else cold_import_seconds(1)
            started = time.perf_counter()
            first = run_pass(nf, w, seed, specs, work, probe, None)
            reference = dict(first.results)
            check_against(first, reference, digests)
            passes = [first]
            timed = [] if trace else [first]
            with patched(trace_targets(nf, tracer) if trace else []):
                while True:
                    ok = [p.wall_ns for p in timed if p.ok]
                    elapsed = time.perf_counter() - started
                    if ok and elapsed + statistics.median(ok) / 2e9 >= seconds:
                        break
                    if timed and not ok and elapsed >= seconds:
                        break
                    if not trace:
                        import_s += cold_import_seconds(1)
                    p = run_pass(nf, w, seed, specs, work, probe, tracer)
                    reference = reference or dict(p.results)
                    check_against(p, reference, digests)
                    passes.append(p)
                    timed.append(p)
            if not trace and len(import_s) < import_samples:
                import_s += cold_import_seconds(import_samples - len(import_s))
        single = None
        if trace and first.ok:
            single = single_run_checks(nf, w, seed, specs, reference)
        spans = [s for p in timed for s in p.spans]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.keys) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    messages = [m for p in passes for m in p.messages]
    good = [p for p in timed if p.ok]
    record: dict = {"metrics": {}, "detail": {}, "spans": spans}
    if trace:
        per_pass = [layer_values(w, p) for p in good]
        for name in sorted({k for v in per_pass for k in v}):
            record["detail"][name] = summary([v[name] for v in per_pass if name in v],
                                             unit_of(name))
        if single is not None:
            peaks, extra, bad = single
            attempted += len(specs)
            failed += len(bad)
            messages.extend(extra)
            for name, kib in peaks.items():
                record["detail"][f"policies.{name}.peak_kib"] = summary([kib], "KiB")
            record["detail"]["policies.peak_kib"] = summary([max(peaks.values())], "KiB")
        if good and first.ok:
            traced_wall = statistics.median(p.wall_ns for p in good) / 1e9
            record["detail"]["trace.overhead_s"] = summary(
                [traced_wall - first.wall_ns / 1e9], "s")
        for metric in PER_LAYER:
            if metric.name in record["detail"]:
                record["metrics"][metric.name] = record["detail"].pop(metric.name)
    elif good:
        steps = len(first.keys) * w.length
        import_med = statistics.median(import_s)
        worker_rss = max(p.worker_rss_kib for p in passes)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Each segment's median over the passes of its host-scaled time.
        segs = [statistics.median(sec * factor for sec, factor in seg)
                for seg in zip(*(p.segments for p in good))]
        n = len(good)
        record["metrics"] = {
            "wall_s": {"value": sum(segs), "unit": "s", "n": n},
            "requests_per_s": {"value": steps / sum(segs[1:-1]), "unit": "req/s", "n": n},
            "setup_s": {"value": import_med + segs[0], "unit": "s", "n": n},
            "peak_rss_mb": summary([(self_rss + worker_rss) / 1024], "MiB"),
        }
        detail = record["detail"]
        detail["pass.wall_s"] = summary([p.wall_ns / 1e9 for p in good], "s")
        detail["host.reference_ms"] = summary(
            [ns / 1e6 for p in good for ns in p.references_ns], "ms")
        detail["setup.import_s"] = summary(import_s, "s")
        for i, name in enumerate(segment_names(w, seed)):
            detail[f"segment.{name}_s"] = summary(
                [p.segments[i][0] * p.segments[i][1] for p in good], "s")
        for name, _ in w.policies:
            detail[f"policies.{name}.loop_ns_per_request"] = summary(
                [sum(r.wall_time for k, r in p.results.items() if k[0] == name)
                 / (w.runs * w.length) * 1e9 for p in good], "ns")
    record["detail"][ERROR_RATE.name] = summary([failed / attempted], ERROR_RATE.unit)
    record.update(
        correct=failed == 0 and bool(good),
        attempted=attempted,
        failed=failed,
        failures=messages,
        passes=len(passes),
        runs=[{"policy": r.policy, "seed": r.seed, "total_misses": r.total_misses,
               "opt_misses": r.opt_misses, "regret": r.regret, "heap_ops": r.heap_ops,
               "cache_refreshes": r.cache_refreshes, "sampled_steps": r.sampled_steps,
               "score_changes": r.score_changes, "digest": run_digest(r)}
              for r in first.results.values()],
    )
    return record


_UNITS = {"s": "s", "ms": "ms", "us": "us", "ns": "ns", "request": "ns", "kib": "KiB",
          "share": "ratio", "ratio": "ratio", "efficiency": "ratio"}


def unit_of(name: str) -> str:
    """Per-layer names end in their unit (``_ms``, ``_per_request``, ...); others count."""
    return _UNITS.get(name.replace(".", "_").rsplit("_", 1)[-1], "count")


def _fmt(name: str, m: dict) -> str:
    spread = f" q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
    return f"{name:<36} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}{spread}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for the results file and span dump")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    w = WORKLOADS[args.workload]
    try:
        nf = load_package()
        recorded = recorded_digests(w.name, args.seed)
        out = args.out.resolve()
        out.mkdir(parents=True, exist_ok=True)
        started = time.gmtime()
        record = measure(nf, w, args.seed, args.seconds, bool(args.trace), out, recorded)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    listed = END_TO_END if not args.trace else PER_LAYER
    missing = [m.name for m in listed if m.name not in record["metrics"]]
    if missing:
        print(f"perfbench: not measured: {', '.join(missing)}; failures: "
              + "; ".join(record["failures"][:5]), file=sys.stderr)
        return 1

    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    if spans:
        with open(out / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    record = {"manifest": manifest(nf, w, args.seed, args.seconds, bool(args.trace),
                                  started),
              "why": w.why, **record}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for message in record["failures"]:
        print(f"FAILED {message}")
    print(f"# {w.name} seed={args.seed} trace={args.trace} passes={record['passes']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for name, m in record["metrics"].items():
        print(_fmt(name, m))
    for name, m in sorted(record["detail"].items()):
        print(_fmt(name, m))
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m.name: {"value": record["metrics"][m.name]["value"], "unit": m.unit}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    warnings.filterwarnings("ignore", message="only .* runs")
    sys.exit(main())
