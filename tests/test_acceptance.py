"""End-to-end acceptance suite at desk scale.

Each test covers one exit criterion at its stated tolerance and prints a
single PASS line with the measured numbers. The full-scale comparisons
run tens of seeds over 2e5-request traces, so this module takes a few
minutes; engine workers parallelize what they can.
"""

import itertools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats

from nfplcache.cli import main as cli_main
from nfplcache.core import Catalog, PolicyConfig, default_eta, spawn_stream
from nfplcache.engine import PolicySpec, TraceSpec, make_trace, run_experiment, run_one
from nfplcache.oracle import opt_static, regret_bound_caching, top_c_reference
from nfplcache.policies import NfplPolicy
from nfplcache.topk import TopCTracker
from nfplcache.traces import bpo_mask, gen_zipf

warnings.filterwarnings("ignore", message="only .* runs")

FULL_N = 10_000
FULL_C = 100
FULL_T = 200_000
RUNS = 50
WORKERS = 2


def report(label: str, detail: str) -> None:
    print(f"[acceptance] {label}: PASS ({detail})")


def full_scale_specs():
    # one noise magnitude for every variant, from the B=1 horizon formula
    eta = default_eta(1, FULL_C, FULL_T, 1.0, kind="experimental")
    unit = PolicyConfig(cache_capacity=FULL_C, batch_size=1, eta=eta)
    batched = PolicyConfig(cache_capacity=FULL_C, batch_size=100, eta=eta)
    return [
        PolicySpec("s-nfpl", unit),
        PolicySpec("l-nfpl", unit),
        PolicySpec("d-nfpl", batched),
        PolicySpec("lfu", unit),
        PolicySpec("lru", unit),
    ]


@pytest.mark.slow
def test_criterion_1_adversarial_trace_comparison():
    spec = TraceSpec(kind="zipf-rr", n_files=FULL_N, length=FULL_T, alpha=1.0, seed=2024)
    trace = make_trace(spec)
    out = run_experiment(spec, full_scale_specs(), runs=RUNS, base_seed=0,
                         parallelism=WORKERS, trace=trace)
    finals = {name: agg.final_mean_miss_ratio for name, agg in out.items()}
    for name in ("s-nfpl", "l-nfpl", "d-nfpl"):
        assert 0.45 <= finals[name] <= 0.51, (name, finals[name])
    for name in ("lfu", "lru"):
        assert 0.54 <= finals[name] <= 0.60, (name, finals[name])
    report("1 adversarial-trace comparison",
           " ".join(f"{k}={v:.4f}" for k, v in finals.items()))


@pytest.mark.slow
def test_criterion_2_stationary_trace_ordering():
    spec = TraceSpec(kind="zipf", n_files=FULL_N, length=FULL_T, alpha=1.0, seed=2024)
    trace = make_trace(spec)
    out = run_experiment(spec, full_scale_specs(), runs=RUNS, base_seed=0,
                         parallelism=WORKERS, trace=trace)
    finals = {name: agg.final_mean_miss_ratio for name, agg in out.items()}
    assert 0.44 <= finals["lfu"] <= 0.50, finals["lfu"]
    for name in ("s-nfpl", "l-nfpl", "d-nfpl"):
        assert finals[name] <= finals["lfu"] + 0.04, (name, finals[name])
    assert 0.58 <= finals["lru"] <= 0.64, finals["lru"]
    report("2 stationary-trace ordering",
           " ".join(f"{k}={v:.4f}" for k, v in finals.items()))


@pytest.mark.slow
def test_criterion_3_regret_stays_below_closed_form_bound():
    n, t, seeds = 100, 10_000, 100
    worst = (None, 0.0)
    for kind in ("zipf", "zipf-rr", "round-robin"):
        spec = TraceSpec(kind=kind, n_files=n, length=t, alpha=1.0, seed=777)
        trace = make_trace(spec)
        for p, q, b, c in itertools.product((1.0, 0.5), (1.0, 0.5), (1, 10), (2, 10)):
            cfg = PolicyConfig(cache_capacity=c, batch_size=b, observe_prob=p,
                               sample_prob=q, eta=default_eta(b, c, t))
            out = run_experiment(spec, [PolicySpec("s-nfpl", cfg)], runs=seeds,
                                 base_seed=0, parallelism=WORKERS, trace=trace)
            mean_regret = out["s-nfpl"].mean_regret
            bound = regret_bound_caching(b, c, t, p, q)
            assert mean_regret <= bound, (kind, p, q, b, c, mean_regret, bound)
            if mean_regret / bound > worst[1]:
                worst = ((kind, p, q, b, c), mean_regret / bound)
    report("3 regret below closed-form bound",
           f"48 grid cells x {seeds} seeds, worst ratio {worst[1]:.3f} at {worst[0]}")


def test_criterion_4_lazy_change_frequency():
    n, c, t = 100, 10, 100_000
    eta = default_eta(1, c, t)
    spec = TraceSpec(kind="zipf", n_files=n, length=t, alpha=1.0, seed=31)
    trace = make_trace(spec)
    cfg = PolicyConfig(cache_capacity=c, batch_size=1, eta=eta)
    res = run_one(trace, PolicySpec("l-nfpl", cfg), seed=0)
    assert res.sampled_steps == t
    fraction = res.score_changes / res.sampled_steps
    limit = 1 / eta + 5 * math.sqrt((1 / eta) * (1 - 1 / eta) / t)
    assert fraction <= limit, (fraction, limit)
    report("4 lazy change frequency",
           f"fraction={fraction:.5f} <= {limit:.5f} (1/eta={1 / eta:.5f})")


def test_criterion_5_amortized_update_scaling():
    n, c = 100, 10
    ops = {}
    for t in (100_000, 400_000):
        spec = TraceSpec(kind="zipf", n_files=n, length=t, alpha=1.0, seed=5)
        trace = make_trace(spec)
        cfg = PolicyConfig(cache_capacity=c, batch_size=1,
                           eta=default_eta(1, c, t))
        runs = [run_one(trace, PolicySpec("l-nfpl", cfg), seed=s) for s in range(3)]
        ops[t] = np.mean([r.heap_ops for r in runs])
    ratio = ops[400_000] / ops[100_000]
    assert 2 * 0.75 <= ratio <= 2 * 1.25, (ops, ratio)

    # full re-sort count: every non-empty batch, and only those
    n2, t2, b2 = 200, 30_000, 10
    spec = TraceSpec(kind="zipf", n_files=n2, length=t2, alpha=1.0, seed=6)
    trace = make_trace(spec)
    cfg = PolicyConfig(cache_capacity=10, batch_size=b2, observe_prob=0.5,
                       eta=default_eta(b2, 10, t2))
    res = run_one(trace, PolicySpec("d-nfpl", cfg), seed=9)
    mask = bpo_mask(t2, 0.5, spawn_stream(9, 0)).bits
    nonempty = int(mask[: (t2 // b2) * b2].reshape(-1, b2).any(axis=1).sum())
    assert res.cache_refreshes == nonempty
    cfg_full = PolicyConfig(cache_capacity=10, batch_size=b2,
                            eta=default_eta(b2, 10, t2))
    res_full = run_one(trace, PolicySpec("d-nfpl", cfg_full), seed=9)
    assert res_full.cache_refreshes == t2 // b2
    report("5 amortized update scaling",
           f"lazy heap-op ratio at 4x horizon = {ratio:.3f}; "
           f"resorts {res.cache_refreshes}/{t2 // b2} match non-empty batches")


def _tracker_mismatches(n: int) -> int:
    bad = 0
    for c in range(1, n):
        for seed in range(50):
            rng = np.random.default_rng((n, c, seed))
            scores = [0.0] * n
            tracker = TopCTracker(scores, c)
            files = rng.integers(0, n, 10_000).tolist()
            grow = (rng.integers(0, 3, 10_000) * rng.random(10_000)).tolist()
            for f, g in zip(files, grow):
                scores[f] += g
                tracker.bump(f, scores[f])
            if tracker.members() != top_c_reference(scores, c):
                bad += 1
    return bad


@pytest.mark.slow
def test_criterion_6_oracle_equivalence():
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        mismatches = sum(pool.map(_tracker_mismatches, range(2, 31)))
    assert mismatches == 0

    rng = np.random.default_rng(123)
    opt_bad = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        t = int(rng.integers(1, 21))
        c = int(rng.integers(1, n))
        requests = rng.integers(0, n, size=t)
        counts = np.bincount(requests, minlength=n)
        best = min(
            t - int(counts[list(sub)].sum())
            for sub in itertools.combinations(range(n), c)
        )
        from nfplcache.core import Trace

        if opt_static(Trace(Catalog(n), requests), c)[1] != best:
            opt_bad += 1
    assert opt_bad == 0
    report("6 oracle equivalence",
           "435 (N,C) pairs x 50 seeds x 1e4 bumps, 0 tracker mismatches; "
           "200 traces, 0 static-optimum mismatches")


def _lazy_gamma_sample(seed: int, eta: float) -> float:
    cfg = PolicyConfig(cache_capacity=2, batch_size=1, eta=eta)
    pol = NfplPolicy("l-nfpl", cfg, Catalog(8), 40, spawn_stream(seed, 1))
    cycle = list(range(7, -1, -1)) * 5
    for i, f in enumerate(cycle):
        pol.step(i + 1, f, True)
    return float(pol.gamma[0])


def _cache_set_histogram(name: str, seeds: range) -> dict[int, np.ndarray]:
    """Distribution of the stored pair after each step of a fixed tiny run."""
    trace = [3, 1, 3, 2, 0, 1]
    pairs = {frozenset(p): i for i, p in enumerate(itertools.combinations(range(4), 2))}
    hist = {t: np.zeros(len(pairs), dtype=np.int64) for t in range(1, len(trace) + 1)}
    cfg = PolicyConfig(cache_capacity=2, batch_size=1, eta=2.5)
    cat = Catalog(4)
    for seed in seeds:
        pol = NfplPolicy(name, cfg, cat, len(trace), spawn_stream(seed, 1))
        for t, f in enumerate(trace, start=1):
            pol.step(t, f, True)
            hist[t][pairs[frozenset(pol.cache)]] += 1
    return hist


@pytest.mark.slow
def test_criterion_7_noise_marginal_and_variant_equivalence():
    eta = 3.0
    samples = [_lazy_gamma_sample(seed, eta) for seed in range(10_000)]
    _, pvalue = stats.kstest(samples, "uniform", args=(0.0, eta))
    assert pvalue > 1e-3, pvalue

    m = 100_000
    hists = {
        "static": _cache_set_histogram("s-nfpl", range(0, m)),
        "dynamic": _cache_set_histogram("d-nfpl", range(m, 2 * m)),
        "lazy": _cache_set_histogram("l-nfpl", range(2 * m, 3 * m)),
    }
    worst_p = 1.0
    for t in hists["static"]:
        table = np.vstack([hists[v][t] for v in ("static", "dynamic", "lazy")])
        table = table[:, table.sum(axis=0) > 0]
        _, p_t, _, _ = stats.chi2_contingency(table)
        worst_p = min(worst_p, p_t)
        assert p_t > 1e-3, (t, p_t)
    report("7 noise marginal + variant equivalence",
           f"KS p={pvalue:.4f}; worst per-step chi-square p={worst_p:.4f} over 1e5 seeds/variant")


def strip_timing(text: str) -> str:
    lines = []
    for line in text.splitlines():
        cells = line.split(",")
        lines.append(",".join(cells[:-1]))
    return "\n".join(lines)


def test_criterion_8_parallelism_determinism(tmp_path):
    flags = ["run", "--gen-kind", "zipf", "--n", "500", "--t", "20000",
             "--policies", "s-nfpl,l-nfpl,lfu", "--c", "20", "--runs", "6",
             "--seed", "11"]
    outs = []
    for par, sub in (("1", "p1"), ("8", "p8")):
        out = tmp_path / sub
        assert cli_main(flags + ["--parallel", par, "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    for name in ("s-nfpl_series.csv", "l-nfpl_series.csv", "lfu_series.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert strip_timing((a / "summary.csv").read_text()) == strip_timing(
        (b / "summary.csv").read_text()
    )
    report("8 parallelism determinism",
           "series byte-identical and summaries equal at 1 vs 8 workers")


def test_ingestion_pipeline_on_synthetic_stand_in(tmp_path):
    trace_path = tmp_path / "standin.txt"
    assert cli_main(["gen", "--kind", "zipf", "--n", "300", "--t", "10000",
                     "--seed", "4", "--out", str(trace_path)]) == 0
    out = tmp_path / "res"
    assert cli_main(["run", "--trace", str(trace_path), "--policies",
                     "s-nfpl,lfu,lru", "--c", "10", "--runs", "3",
                     "--out", str(out)]) == 0
    import json

    payload = json.loads((out / "summary.json").read_text())
    ratios = [payload[n]["mean_final_miss_ratio"] for n in ("s-nfpl", "lfu", "lru")]
    assert all(0.0 < r < 1.0 for r in ratios)
    assert payload["experiment"]["opt_miss_ratio"] <= min(ratios) + 1e-9
    report("ingestion stand-in pipeline",
           f"file-trace run produced ratios {['%.3f' % r for r in ratios]}")
