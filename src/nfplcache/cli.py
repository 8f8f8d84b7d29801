"""Command-line front end: generate traces, run experiments, sweep sampling rates.

Exit codes: 0 on success, 2 for usage errors, 3 for runtime failures.
Every command is deterministic given its flags; the seed is a flag.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from .core import Catalog, PolicyConfig, Trace, default_eta
from .engine import TRACE_KINDS, PolicySpec, TraceSpec, make_trace, run_experiment
from .metrics import (
    SUMMARY_COLUMNS,
    default_checkpoints,
    write_series_csv,
    write_summary_json,
    write_summary_table,
)
from .oracle import regret_bound_of
from .policies import NFPL_VARIANTS, POLICY_NAMES
from .traces import load_trace, save_trace

NFPL_FAMILY = tuple(NFPL_VARIANTS)  # the policies that sample and carry a regret bound


def _parse_policies(value: str) -> list[str]:
    names = [v.strip() for v in value.split(",") if v.strip()]
    bad = [n for n in names if n not in POLICY_NAMES]
    if bad or not names:
        raise argparse.ArgumentTypeError(
            f"unknown policy name(s) {bad}; valid names: {', '.join(POLICY_NAMES)}"
        )
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"policy names must be unique, repeated: {repeated}")
    return names


def _parse_rates(value: str) -> list[float]:
    try:
        rates = [float(v) for v in value.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad rate list: {exc}")
    if not rates:
        raise argparse.ArgumentTypeError("rate grid must not be empty")
    if any(not 0.0 < r <= 1.0 for r in rates):
        raise argparse.ArgumentTypeError("rates must lie in (0, 1]")
    repeated = sorted({r for r in rates if rates.count(r) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"rates must be distinct, repeated: {repeated}")
    return rates


def _add_trace_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", help="path to a trace file (lines or csv)")
    source.add_argument("--gen-kind", choices=TRACE_KINDS, help="generate a synthetic trace")
    parser.add_argument("--id-column", help="csv column holding request ids")
    parser.add_argument("--n-files", type=int, help="catalog size override for file traces")
    parser.add_argument("--n", type=int, help="catalog size for synthetic traces")
    parser.add_argument("--t", type=int, help="trace length for synthetic traces")
    parser.add_argument("--alpha", type=float, help="zipf exponent (default: 1.0)")
    parser.add_argument("--trace-seed", type=int, help="seed for trace generation (default: --seed)")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policies", type=_parse_policies, required=True,
                        help="comma-separated policy names")
    parser.add_argument("--c", type=int, required=True, help="cache capacity")
    parser.add_argument("--b", type=int, default=1, help="batch size")
    parser.add_argument("--p", type=float, default=1.0, help="observation probability")
    parser.add_argument("--eta", default="auto",
                        help="noise magnitude: auto (sqrt(BT/2C)), auto-exp (p*sqrt(BT/2C)), or a number")
    parser.add_argument("--runs", type=int, default=1, help="number of seeded runs")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--parallel", type=int, default=1,
                        help="worker processes (env NFPL_THREADS overrides)")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--unpaired", action="store_true",
                        help="give each policy its own observation mask stream")
    parser.add_argument("--regen-trace-per-run", action="store_true",
                        help="redraw the synthetic trace for every seed")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="nfplcache",
        description="Trace-driven cache simulation under Bernoulli partial observation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic trace file")
    gen.add_argument("--kind", choices=TRACE_KINDS, required=True)
    gen.add_argument("--n", type=int, required=True, help="catalog size")
    gen.add_argument("--t", type=int, required=True, help="trace length")
    gen.add_argument("--alpha", type=float, help="zipf exponent (default: 1.0)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output trace path")

    run = sub.add_parser("run", help="run policies over a trace and summarize")
    _add_trace_source(run)
    _add_run_options(run)
    run.add_argument("--q", type=float, default=1.0, help="request sampling probability")
    run.add_argument("--fixed-b", type=int, help="sample exactly this many requests per batch")
    run.add_argument("--format", choices=("csv", "tsv"), default="csv",
                     help="summary table format")
    run.add_argument("--checkpoints", type=int, default=200,
                     help="number of log-spaced miss-ratio checkpoints")
    run.add_argument("--emit-plot-script", action="store_true",
                     help="also write a matplotlib script for the emitted csv files")

    sweep = sub.add_parser("sweep", help="sweep the request sampling rate")
    _add_trace_source(sweep)
    _add_run_options(sweep)
    sweep.add_argument("--rates", type=_parse_rates, required=True,
                       help="comma-separated sampling rates in (0, 1]")
    sweep.add_argument("--mode", choices=("var", "fix", "both"), default="var",
                       help="per-request Bernoulli sampling, per-batch fixed, or both")
    sweep.set_defaults(q=1.0, fixed_b=None)  # its rates set the sampling
    return parser, sub.choices


def _resolve_parallelism(requested: int, parser) -> int:
    env = os.environ.get("NFPL_THREADS")
    if env:
        try:
            requested = int(env)
        except ValueError:
            parser.error(f"NFPL_THREADS must be an integer, got {env!r}")
        if requested < 1:
            parser.error(f"NFPL_THREADS must be at least 1, got {env!r}")
    elif requested < 1:
        parser.error(f"--parallel must be at least 1, got {requested}")
    return requested


def _synthetic_spec(parser, kind: str, n, t, alpha, seed: int) -> TraceSpec:
    if n is None or t is None:
        parser.error("--gen-kind needs --n and --t")
    if n < 1 or t < 1:
        parser.error("--n and --t must be positive")
    if kind == "round-robin" and alpha is not None:
        parser.error("--alpha applies only to zipf traces")
    alpha = 1.0 if alpha is None else alpha
    if kind in ("zipf", "zipf-rr") and alpha <= 0:
        parser.error("--alpha must be positive for zipf traces")
    return TraceSpec(kind=kind, n_files=n, length=t, alpha=alpha, seed=seed)


def _resolve_trace(args, parser) -> tuple:
    """The trace spec and the shared trace. A trace file has no spec; under
    ``--regen-trace-per-run`` there is no shared trace, as every run draws
    its own. A flag that only the other trace source reads is a usage error."""
    source = "--trace" if args.trace is not None else "--gen-kind"
    if source == "--trace":
        other = {"--n": args.n, "--t": args.t, "--alpha": args.alpha,
                 "--trace-seed": args.trace_seed}
    else:
        other = {"--id-column": args.id_column, "--n-files": args.n_files}
    given = [flag for flag, value in other.items() if value is not None]
    if given:
        parser.error(f"{', '.join(given)} cannot be used with {source}")
    if source == "--trace":
        if args.regen_trace_per_run:
            parser.error("--regen-trace-per-run needs a synthetic trace (--gen-kind)")
        trace = load_trace(args.trace, id_column=args.id_column)
        if args.n_files is not None:
            if args.n_files < trace.catalog.n_files:
                parser.error("--n-files smaller than the ids present in the trace")
            trace = Trace(Catalog(args.n_files), trace.requests)
        return None, trace
    if args.regen_trace_per_run and args.trace_seed is not None:
        parser.error("--trace-seed has no effect with --regen-trace-per-run, "
                     "which draws each run's trace from the run's seed")
    seed = args.trace_seed if args.trace_seed is not None else args.seed
    spec = _synthetic_spec(parser, args.gen_kind, args.n, args.t, args.alpha, seed)
    return spec, None if args.regen_trace_per_run else make_trace(spec)


def _resolve_eta(value: str, batch: int, capacity: int, horizon: int, p: float) -> float:
    if value == "auto":
        return default_eta(batch, capacity, horizon)
    if value == "auto-exp":
        return default_eta(batch, capacity, horizon, p, kind="experimental")
    return float(value)


def _setup(args, parser) -> tuple:
    """The parallelism, trace spec (None for a trace file), shared trace
    (None under ``--regen-trace-per-run``), catalog size, horizon and base
    policy config of ``run`` and ``sweep``."""
    if args.runs < 1:
        parser.error("--runs must be positive")
    parallelism = _resolve_parallelism(args.parallel, parser)
    trace_spec, trace = _resolve_trace(args, parser)
    if trace is None:
        n_files, horizon = trace_spec.n_files, trace_spec.length
    else:
        n_files, horizon = trace.catalog.n_files, len(trace)
    if args.c >= n_files:
        parser.error(f"--c must be smaller than the catalog ({n_files} files), got {args.c}")
    try:
        config = PolicyConfig(
            cache_capacity=args.c, batch_size=args.b, observe_prob=args.p,
            sample_prob=args.q, eta=_resolve_eta(args.eta, args.b, args.c, horizon, args.p),
            fixed_per_batch=args.fixed_b,
        )
    except ValueError as exc:
        parser.error(str(exc))
    return parallelism, trace_spec, trace, n_files, horizon, config


def _opt_misses(agg):
    """The runs' optimum: their shared value, or the mean of their traces' optima."""
    return statistics.mean(r.opt_misses for r in agg.runs)


def _policy_summary(agg, bound: float | None) -> dict:
    """One policy's ``summary.json`` entry."""
    return {
        "mean_final_miss_ratio": agg.final_mean_miss_ratio,
        "variance": agg.final_variance,
        "mean_total_misses": float(sum(r.total_misses for r in agg.runs)) / agg.n_runs,
        "opt_misses": _opt_misses(agg),
        "mean_regret": agg.mean_regret,
        "regret_bound": bound,
        "mean_heap_ops": agg.mean_heap_ops,
        "mean_cache_refreshes": agg.mean_cache_refreshes,
        "mean_wall_time_sec": agg.mean_wall_time,
        "runs": agg.n_runs,
    }


def _summary_row(name: str, agg, bound: float | None) -> dict:
    """The summary-table row: the ``repr`` of the entry's table fields."""
    entry = _policy_summary(agg, bound)
    return {"policy": name, **{
        c: "" if entry[c] is None else repr(entry[c]) for c in SUMMARY_COLUMNS[1:]
    }}


def write_run_outputs(out_dir, results, specs, *, trace_kind: str, n_files: int,
                      horizon: int, base_seed: int, fmt: str = "csv") -> list[dict]:
    """Write ``nfplcache run``'s ``<policy>_series.csv`` files, ``summary.<fmt>``
    and ``summary.json``, and return the summary rows. Each NFPL-family policy
    gets the regret bound of its own config; ``experiment`` shows the first's."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows, payload = [], {}
    for spec in specs:
        name, cfg, agg = spec.name, spec.config, results[spec.name]
        write_series_csv(out / f"{name}_series.csv", agg)
        bound = None
        if name in NFPL_FAMILY:
            bound = regret_bound_of(cfg, horizon)
        rows.append(_summary_row(name, agg, bound))
        payload[name] = _policy_summary(agg, bound)
    cfg = specs[0].config
    payload["experiment"] = {
        "trace_kind": trace_kind,
        "n_files": n_files,
        "horizon": horizon,
        "cache_capacity": cfg.cache_capacity,
        "batch_size": cfg.batch_size,
        "observe_prob": cfg.observe_prob,
        "sample_prob": cfg.sample_prob,
        "fixed_per_batch": cfg.fixed_per_batch,
        "eta": cfg.eta,
        "base_seed": base_seed,
        "opt_miss_ratio": payload[specs[0].name]["opt_misses"] / horizon,
    }
    write_summary_table(out / f"summary.{fmt}", rows, fmt)
    write_summary_json(out / "summary.json", payload)
    return rows


def _print_summary(rows: list[dict]) -> None:
    print("  ".join(f"{c:>22s}" for c in SUMMARY_COLUMNS))
    for row in rows:
        cells = []
        for c in SUMMARY_COLUMNS:
            v = row[c]
            try:
                cells.append(f"{float(v):>22.6g}")
            except (TypeError, ValueError):
                cells.append(f"{str(v):>22s}")
        print("  ".join(cells))


PLOT_SCRIPT = """\
# Auto-generated plotting helper; run with: python plot_results.py
import csv
import sys
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).parent
for path in sorted(here.glob("*_series.csv")):
    ts, ys = [], []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            ts.append(int(row["checkpoint_t"]))
            ys.append(float(row["mean_miss_ratio"]))
    plt.plot(ts, ys, label=path.stem.replace("_series", ""))
plt.xscale("log")
plt.xlabel("requests")
plt.ylabel("average miss ratio")
plt.legend()
plt.savefig(here / "miss_ratio.png", dpi=150)
print("wrote", here / "miss_ratio.png")
"""


def cmd_gen(args, parser) -> int:
    spec = _synthetic_spec(parser, args.kind, args.n, args.t, args.alpha, args.seed)
    trace = make_trace(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_trace(trace, out)
    print(f"wrote {len(trace)} requests over {trace.catalog.n_files} files to {out}")
    return 0


def cmd_run(args, parser) -> int:
    if args.checkpoints < 1:
        parser.error("--checkpoints must be positive")
    parallelism, trace_spec, trace, n_files, horizon, config = _setup(args, parser)
    specs = [PolicySpec(name, config) for name in args.policies]
    results = run_experiment(
        trace_spec, specs, runs=args.runs, base_seed=args.seed,
        parallelism=parallelism, paired=not args.unpaired,
        regen_trace_per_run=args.regen_trace_per_run,
        checkpoints=default_checkpoints(horizon, args.checkpoints), trace=trace,
    )
    out = Path(args.out)
    rows = write_run_outputs(out, results, specs, trace_kind=args.gen_kind or "file",
                             n_files=n_files, horizon=horizon,
                             base_seed=args.seed, fmt=args.format)
    if args.emit_plot_script:
        (out / "plot_results.py").write_text(PLOT_SCRIPT, encoding="utf-8")
    _print_summary(rows)
    print(f"opt miss ratio: {_opt_misses(results[specs[0].name]) / horizon:.4f}; "
          f"results in {out}/")
    return 0


def cmd_sweep(args, parser) -> int:
    bad = [n for n in args.policies if n not in NFPL_FAMILY]
    if bad:
        parser.error(f"sweep only applies to sampling policies, got {bad}")
    parallelism, trace_spec, trace, _, horizon, base = _setup(args, parser)
    modes = ("var", "fix") if args.mode == "both" else (args.mode,)
    fixed = {rate: min(args.b, max(1, round(rate * args.b))) for rate in args.rates}  # b of B
    same = [f"{r} -> b = {b}" for r, b in fixed.items() if list(fixed.values()).count(b) > 1]
    if "fix" in modes and same:  # two rates with one b would run one simulation twice
        parser.error(f"--mode {args.mode} repeats a run: rates {', '.join(same)} of B = {args.b}")

    curves: dict[str, list[tuple[float, float, float]]] = {}
    for rate in args.rates:
        for mode in modes:
            if mode == "var":
                config = replace(base, sample_prob=rate)
            else:
                config = replace(base, fixed_per_batch=fixed[rate])
            specs = [PolicySpec(name, config) for name in args.policies]
            results = run_experiment(
                trace_spec, specs, runs=args.runs, base_seed=args.seed,
                parallelism=parallelism, paired=not args.unpaired,
                regen_trace_per_run=args.regen_trace_per_run, trace=trace,
            )
            effective = rate if mode == "var" else config.fixed_per_batch / args.b
            for name in args.policies:
                label = name if len(modes) == 1 else f"{name}-{mode}"
                agg = results[name]
                curves.setdefault(label, []).append(
                    (effective, agg.final_mean_miss_ratio, agg.final_ci95)
                )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # every experiment ran the same seeds, so the last one gives the runs' optimum
    opt_ratio = _opt_misses(agg) / horizon
    opt_line = [(float(rate), opt_ratio, 0.0) for rate in args.rates]
    for label, points in {**curves, "opt": opt_line}.items():
        with open(out / f"{label}_sweep.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sampling_rate", "mean_miss_ratio", "ci95"])
            for rate, mean, ci in points:
                writer.writerow([repr(rate), repr(mean), repr(ci)])
    for label, points in sorted(curves.items()):
        series = ", ".join(f"{r:.3g}->{m:.4f}" for r, m, _ in points)
        print(f"{label}: {series}")
    print(f"opt miss ratio: {opt_ratio:.4f}; results in {out}/")
    return 0


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    # a usage error after parsing prints the subcommand's usage line
    command = commands[args.command]
    try:
        if args.command == "gen":
            return cmd_gen(args, command)
        if args.command == "run":
            return cmd_run(args, command)
        return cmd_sweep(args, command)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
