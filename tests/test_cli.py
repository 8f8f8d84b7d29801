import csv
import json
import warnings

import pytest
from scipy import stats

from nfplcache import cli, engine
from nfplcache.cli import main, write_run_outputs
from nfplcache.core import PolicyConfig, default_eta
from nfplcache.engine import PolicySpec, TraceSpec, make_trace, run_experiment
from nfplcache.oracle import opt_static
from nfplcache.metrics import default_checkpoints, read_series_csv, write_series_csv


def run_cli(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(args)


def test_gen_round_robin_file(tmp_path):
    out = tmp_path / "rr.txt"
    assert run_cli(["gen", "--kind", "round-robin", "--n", "3", "--t", "7",
                    "--out", str(out)]) == 0
    assert out.read_text().split() == ["2", "1", "0", "2", "1", "0", "2"]


def test_gen_zipf_zero_alpha_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "--kind", "zipf", "--n", "3", "--t", "7",
                 "--alpha", "0", "--out", str(tmp_path / "z.txt")])
    assert exc.value.code == 2
    # the usage line is the subcommand's, not the top-level one
    assert capsys.readouterr().err.startswith("usage: nfplcache gen ")


@pytest.mark.parametrize("command", [
    ["gen", "--kind", "round-robin", "--n", "30", "--t", "300"],
    ["run", "--gen-kind", "round-robin", "--n", "30", "--t", "300",
     "--policies", "lru", "--c", "3"],
    ["sweep", "--gen-kind", "round-robin", "--n", "30", "--t", "300",
     "--policies", "s-nfpl", "--c", "3", "--rates", "0.5"],
], ids=["gen", "run", "sweep"])
def test_alpha_with_a_round_robin_trace_is_usage_error(tmp_path, command):
    # a round-robin trace reads no exponent
    with pytest.raises(SystemExit) as exc:
        run_cli([*command, "--alpha", "5", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    flags = ["gen", "--kind", "zipf", "--n", "50", "--t", "500", "--seed", "9"]
    run_cli(flags + ["--out", str(a)])
    run_cli(flags + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_unknown_policy_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--gen-kind", "zipf", "--n", "20", "--t", "100",
                 "--policies", "nope", "--c", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_repeated_policy_name_is_usage_error(tmp_path, capsys, command):
    extra = ["--rates", "0.5"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--gen-kind", "zipf", "--n", "50", "--t", "200",
                 "--policies", "s-nfpl,s-nfpl", "--c", "2", "--out", str(tmp_path)] + extra)
    assert exc.value.code == 2
    assert "policy names must be unique, repeated: ['s-nfpl']" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_zero_runs_is_usage_error_with_the_subcommand_usage(tmp_path, capsys, command):
    rates = ["--rates", "0.5"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--gen-kind", "zipf", "--n", "20", "--t", "100",
                 "--policies", "s-nfpl", "--c", "2", "--runs", "0", *rates,
                 "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: nfplcache {command} ")
    assert f"nfplcache {command}: error: --runs must be positive" in err


def test_zero_checkpoints_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--gen-kind", "zipf", "--n", "20", "--t", "100",
                 "--policies", "lfu", "--c", "2", "--checkpoints", "0",
                 "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--p", "0"],
    ["--q", "1.5"],
    ["--b", "0"],
    ["--sampling", "fixed"],
    ["--b", "10", "--fixed-b", "0"],
    ["--b", "10", "--fixed-b", "11"],
    ["--b", "10", "--fixed-b", "3", "--q", "0.5"],
    ["--runs", "0"],
    ["--t", "0"],
    ["--n", "0"],
    ["--eta", "inf"],
    ["--parallel", "0"],
])
def test_bad_flag_values_are_usage_errors(tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--gen-kind", "zipf", "--n", "20", "--t", "100",
                 "--policies", "s-nfpl", "--c", "2", "--out", str(tmp_path)] + flags)
    assert exc.value.code == 2


def test_fixed_sampling_matches_the_library(tmp_path):
    n, t, c, b = 50, 2000, 5, 10
    common = ["run", "--gen-kind", "zipf", "--n", str(n), "--t", str(t),
              "--policies", "s-nfpl", "--c", str(c), "--b", str(b), "--p", "0.5",
              "--runs", "2", "--seed", "1"]
    assert run_cli(common + ["--fixed-b", "3", "--out", str(tmp_path / "fixed")]) == 0
    assert run_cli(common + ["--out", str(tmp_path / "bern")]) == 0
    cfg = PolicyConfig(cache_capacity=c, batch_size=b, observe_prob=0.5,
                       eta=default_eta(b, c, t), fixed_per_batch=3)
    spec = TraceSpec(kind="zipf", n_files=n, length=t, alpha=1.0, seed=1)
    agg = run_experiment(spec, [PolicySpec("s-nfpl", cfg)], runs=2, base_seed=1)["s-nfpl"]
    write_series_csv(tmp_path / "lib.csv", agg)
    fixed = (tmp_path / "fixed" / "s-nfpl_series.csv").read_bytes()
    assert fixed == (tmp_path / "lib.csv").read_bytes()
    assert fixed != (tmp_path / "bern" / "s-nfpl_series.csv").read_bytes()


def test_regret_bound_under_fixed_sampling_holds(tmp_path):
    # one of every ten requests is counted; a bound taken at q = 1 (1265.5)
    # lies below this cell's mean regret (1427.6)
    out = tmp_path / "fixed"
    assert run_cli(["run", "--gen-kind", "zipf-rr", "--n", "100", "--t", "10000",
                    "--trace-seed", "777", "--policies", "s-nfpl", "--c", "2", "--b", "10",
                    "--fixed-b", "1", "--runs", "100", "--parallel", "2",
                    "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["s-nfpl"]["mean_regret"] <= payload["s-nfpl"]["regret_bound"]
    assert payload["experiment"]["fixed_per_batch"] == 1


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("source", ["gen", "trace"])
@pytest.mark.parametrize("c", [20, 21])
def test_capacity_at_or_above_catalog_size_is_usage_error(tmp_path, capsys, command,
                                                          source, c):
    # the static optimum caches C files of N, so it needs C < N
    if source == "gen":
        flags = ["--gen-kind", "zipf", "--n", "20", "--t", "100"]
    else:
        trace_path = tmp_path / "t.txt"
        run_cli(["gen", "--kind", "round-robin", "--n", "20", "--t", "100",
                 "--out", str(trace_path)])
        flags = ["--trace", str(trace_path)]
    rates = ["--rates", "0.5"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        run_cli([command, *flags, "--policies", "s-nfpl", "--c", str(c), *rates,
                 "--out", str(tmp_path / "res")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "catalog" in err
    assert err.startswith(f"usage: nfplcache {command} ")
    assert not (tmp_path / "res").exists()


def test_run_writes_series_summary_and_json(tmp_path):
    out = tmp_path / "res"
    code = run_cli([
        "run", "--gen-kind", "zipf", "--n", "50", "--t", "2000",
        "--policies", "s-nfpl,l-nfpl,lfu,lru", "--c", "5", "--runs", "3",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    for name in ("s-nfpl", "l-nfpl", "lfu", "lru"):
        rows = read_series_csv(out / f"{name}_series.csv")
        assert rows[-1][0] == 2000
        assert 0.0 <= rows[-1][1] <= 1.0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["experiment"]["horizon"] == 2000
    assert payload["s-nfpl"]["regret_bound"] is not None
    assert payload["lfu"]["regret_bound"] is None
    with open(out / "summary.csv") as fh:
        table = list(csv.DictReader(fh))
    assert {r["policy"] for r in table} == {"s-nfpl", "l-nfpl", "lfu", "lru"}


def strip_timing(text: str) -> str:
    """Drop the measured wall-time column, the one legitimately noisy field."""
    lines = []
    for line in text.splitlines():
        cells = line.split(",")
        lines.append(",".join(c for i, c in enumerate(cells) if i != len(cells) - 1))
    return "\n".join(lines)


def test_run_outputs_are_deterministic(tmp_path):
    flags = ["run", "--gen-kind", "zipf-rr", "--n", "40", "--t", "1500",
             "--policies", "s-nfpl,lru", "--c", "4", "--runs", "2", "--seed", "3"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_cli(flags + ["--out", str(out1)])
    run_cli(flags + ["--out", str(out2)])
    for name in ("s-nfpl_series.csv", "lru_series.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert strip_timing((out1 / "summary.csv").read_text()) == strip_timing(
        (out2 / "summary.csv").read_text()
    )


def test_eta_auto_and_auto_exp(tmp_path):
    common = ["run", "--gen-kind", "zipf", "--n", "30", "--t", "800",
              "--policies", "s-nfpl", "--c", "4", "--p", "0.5", "--runs", "1"]
    run_cli(common + ["--eta", "auto", "--out", str(tmp_path / "a")])
    run_cli(common + ["--eta", "auto-exp", "--out", str(tmp_path / "b")])
    run_cli(common + ["--eta", "7.5", "--out", str(tmp_path / "c")])
    eta_a = json.loads((tmp_path / "a" / "summary.json").read_text())["experiment"]["eta"]
    eta_b = json.loads((tmp_path / "b" / "summary.json").read_text())["experiment"]["eta"]
    eta_c = json.loads((tmp_path / "c" / "summary.json").read_text())["experiment"]["eta"]
    assert eta_a == pytest.approx((1 * 800 / (2 * 4)) ** 0.5)
    assert eta_b == pytest.approx(0.5 * eta_a)
    assert eta_c == 7.5


def test_run_on_saved_trace_file(tmp_path):
    trace_path = tmp_path / "trace.txt"
    run_cli(["gen", "--kind", "round-robin", "--n", "30", "--t", "900",
             "--out", str(trace_path)])
    out = tmp_path / "res"
    code = run_cli(["run", "--trace", str(trace_path), "--policies", "lru",
                    "--c", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["experiment"]["n_files"] == 30


def test_id_column_with_a_plain_lines_trace_is_runtime_error(tmp_path, capsys):
    trace_path = tmp_path / "t.txt"
    run_cli(["gen", "--kind", "round-robin", "--n", "30", "--t", "300",
             "--out", str(trace_path)])
    code = run_cli(["run", "--trace", str(trace_path), "--id-column", "nope",
                    "--policies", "lru", "--c", "3", "--out", str(tmp_path / "res")])
    assert code == 3
    assert "id column" in capsys.readouterr().err


@pytest.mark.parametrize("n_files, code", [(45, 0), (30, 0), (29, 2), (0, 2)])
def test_n_files_sizes_the_catalog_of_a_trace_file(tmp_path, n_files, code):
    # the file requests files 0..29; a larger catalog keeps files that are
    # never requested, and one that cannot hold every id is a usage error
    trace_path = tmp_path / "trace.txt"
    run_cli(["gen", "--kind", "round-robin", "--n", "30", "--t", "900",
             "--out", str(trace_path)])
    out = tmp_path / "res"
    flags = ["run", "--trace", str(trace_path), "--policies", "s-nfpl,lru", "--c", "3",
             "--n-files", str(n_files), "--out", str(out)]
    if code:
        with pytest.raises(SystemExit) as exc:
            run_cli(flags)
        assert exc.value.code == code
    else:
        assert run_cli(flags) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert payload["experiment"]["n_files"] == n_files


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("source", [
    ["--trace", "TRACE", "--gen-kind", "zipf", "--n", "50", "--t", "900"],
    ["--gen-kind", "zipf", "--n", "50", "--t", "500", "--n-files", "10"],
    ["--gen-kind", "zipf", "--n", "50", "--t", "500", "--id-column", "x"],
    ["--trace", "TRACE", "--n", "7", "--t", "9"],
    ["--trace", "TRACE", "--trace-seed", "3"],
    ["--trace", "TRACE", "--alpha", "2"],
], ids=["both-sources", "n-files", "id-column", "n-and-t", "trace-seed", "alpha"])
def test_flags_of_the_other_trace_source_are_usage_errors(tmp_path, command, source):
    # a file trace reads no generator flag and a generated one no file flag
    trace_path = tmp_path / "t.txt"
    run_cli(["gen", "--kind", "round-robin", "--n", "50", "--t", "500",
             "--out", str(trace_path)])
    source = [str(trace_path) if flag == "TRACE" else flag for flag in source]
    rates = ["--rates", "0.5"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        run_cli([command, *source, "--policies", "s-nfpl", "--c", "3", *rates,
                 "--out", str(tmp_path / "res")])
    assert exc.value.code == 2


REGEN = ["--gen-kind", "zipf", "--n", "200", "--t", "5000", "--c", "10", "--runs", "3",
         "--seed", "4", "--regen-trace-per-run"]


def regen_mean_optimum() -> float:
    """The mean optimum of the traces that REGEN's three runs simulate."""
    spec = TraceSpec(kind="zipf", n_files=200, length=5000)
    opts = [opt_static(make_trace(spec, seed=s), 10)[1] for s in (4, 5, 6)]
    assert len(set(opts)) > 1
    return sum(opts) / 3


def test_trace_seed_with_regen_is_usage_error(tmp_path):
    # every run draws its trace from its own seed, so --trace-seed would change nothing
    for command in (["run", "--policies", "s-nfpl"],
                    ["sweep", "--policies", "s-nfpl", "--rates", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(command + REGEN + ["--trace-seed", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2


def test_regen_summary_optimum_is_the_runs_optimum(tmp_path):
    out = tmp_path / "regen"
    assert run_cli(["run", "--policies", "s-nfpl,d-nfpl,lfu,lru"] + REGEN
                   + ["--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    opt = regen_mean_optimum()
    for name in ("s-nfpl", "d-nfpl", "lfu", "lru"):
        entry = payload[name]
        assert entry["opt_misses"] == pytest.approx(opt, rel=1e-12)
        assert entry["mean_total_misses"] - entry["opt_misses"] == pytest.approx(
            entry["mean_regret"], rel=1e-12)
    assert payload["experiment"]["opt_miss_ratio"] == pytest.approx(opt / 5000, rel=1e-12)


def test_regen_opt_sweep_is_the_runs_mean_optimum(tmp_path):
    out = tmp_path / "sw"
    assert run_cli(["sweep", "--policies", "s-nfpl", "--rates", "0.5,1.0"] + REGEN
                   + ["--out", str(out)]) == 0
    with open(out / "opt_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["sampling_rate"]) for r in rows] == [0.5, 1.0]
    for row in rows:
        assert float(row["mean_miss_ratio"]) == pytest.approx(regen_mean_optimum() / 5000,
                                                              rel=1e-12)


def test_regen_draws_each_run_trace_once(tmp_path, monkeypatch):
    # the runs' spec holds the horizon and catalog size, so no trace is drawn
    # for --seed alone, and the outputs are those of the library's regen runs
    calls = []
    real = engine.make_trace

    def counting(spec, seed=None):
        calls.append(seed)
        return real(spec, seed)

    monkeypatch.delenv("NFPL_THREADS", raising=False)
    monkeypatch.setattr(engine, "make_trace", counting)
    monkeypatch.setattr(cli, "make_trace", counting)
    names = ("s-nfpl", "d-nfpl", "lru")
    assert run_cli(["run", "--policies", ",".join(names), "--eta", "auto-exp", "--p", "0.5"]
                   + REGEN + ["--out", str(tmp_path / "cli")]) == 0
    assert calls == [4, 5, 6]

    cfg = PolicyConfig(cache_capacity=10, observe_prob=0.5,
                       eta=default_eta(1, 10, 5000, 0.5, kind="experimental"))
    specs = [PolicySpec(name, cfg) for name in names]
    spec = TraceSpec(kind="zipf", n_files=200, length=5000, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = run_experiment(spec, specs, runs=3, base_seed=4, regen_trace_per_run=True,
                                 checkpoints=default_checkpoints(5000, 200))
    write_run_outputs(tmp_path / "lib", results, specs, trace_kind="zipf", n_files=200,
                      horizon=5000, base_seed=4)
    cli_out, lib = tmp_path / "cli", tmp_path / "lib"
    for name in names:
        path = f"{name}_series.csv"
        assert (cli_out / path).read_bytes() == (lib / path).read_bytes()
    assert strip_timing((cli_out / "summary.csv").read_text()) == strip_timing(
        (lib / "summary.csv").read_text())
    payloads = [json.loads((d / "summary.json").read_text()) for d in (cli_out, lib)]
    for payload in payloads:
        for name in names:
            payload[name].pop("mean_wall_time_sec")
    assert payloads[0] == payloads[1]


def test_write_run_outputs_matches_the_run_command(tmp_path):
    # the keywords a benchmark harness holds; only the timing columns may differ
    n, t, c, b = 300, 3000, 6, 10
    assert run_cli(["run", "--gen-kind", "zipf-rr", "--n", str(n), "--t", str(t),
                    "--policies", "s-nfpl,d-nfpl,lfu", "--c", str(c), "--b", str(b),
                    "--p", "0.5", "--fixed-b", "3", "--runs", "2", "--seed", "7",
                    "--out", str(tmp_path / "cli")]) == 0
    cfg = PolicyConfig(cache_capacity=c, batch_size=b, observe_prob=0.5,
                       eta=default_eta(b, c, t), fixed_per_batch=3)
    specs = [PolicySpec(name, cfg) for name in ("s-nfpl", "d-nfpl", "lfu")]
    spec = TraceSpec(kind="zipf-rr", n_files=n, length=t, alpha=1.0, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = run_experiment(spec, specs, runs=2, base_seed=7)
    rows = write_run_outputs(tmp_path / "lib", results, specs, trace_kind="zipf-rr",
                             n_files=n, horizon=t, base_seed=7)
    assert [r["policy"] for r in rows] == ["s-nfpl", "d-nfpl", "lfu"]
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    assert sorted(p.name for p in cli.iterdir()) == sorted(p.name for p in lib.iterdir())
    for name in ("s-nfpl", "d-nfpl", "lfu"):
        path = f"{name}_series.csv"
        assert (cli / path).read_bytes() == (lib / path).read_bytes()
    assert strip_timing((cli / "summary.csv").read_text()) == strip_timing(
        (lib / "summary.csv").read_text())
    timed = [json.loads((d / "summary.json").read_text()) for d in (cli, lib)]
    for payload in timed:
        for name in ("s-nfpl", "d-nfpl", "lfu"):
            assert payload[name].pop("mean_wall_time_sec") > 0
    assert json.dumps(timed[0], sort_keys=True) == json.dumps(timed[1], sort_keys=True)


def test_sweep_degenerate_grid_matches_run(tmp_path):
    common = ["--gen-kind", "zipf", "--n", "40", "--t", "1200", "--policies",
              "s-nfpl", "--c", "4", "--runs", "2", "--seed", "5"]
    run_cli(["run"] + common + ["--out", str(tmp_path / "run")])
    run_cli(["sweep"] + common + ["--rates", "1.0", "--mode", "var",
                                  "--out", str(tmp_path / "sweep")])
    run_payload = json.loads((tmp_path / "run" / "summary.json").read_text())
    with open(tmp_path / "sweep" / "s-nfpl_sweep.csv") as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["sampling_rate"]) == 1.0
    assert float(row["mean_miss_ratio"]) == pytest.approx(
        run_payload["s-nfpl"]["mean_final_miss_ratio"]
    )


def test_sweep_rejects_non_sampling_policies(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--gen-kind", "zipf", "--n", "20", "--t", "100",
                 "--policies", "lru", "--c", "2", "--rates", "0.5",
                 "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_sweep_round_robin_trend_and_fix_var_gap(tmp_path):
    out = tmp_path / "sw"
    code = run_cli([
        "sweep", "--gen-kind", "round-robin", "--n", "100", "--t", "20000",
        "--policies", "s-nfpl", "--c", "10", "--b", "10", "--runs", "6",
        "--rates", "0.1,0.3,0.6,1.0", "--mode", "both", "--out", str(out),
    ])
    assert code == 0
    curves = {}
    for label in ("s-nfpl-var", "s-nfpl-fix"):
        with open(out / f"{label}_sweep.csv") as fh:
            curves[label] = [
                (float(r["sampling_rate"]), float(r["mean_miss_ratio"]))
                for r in csv.DictReader(fh)
            ]
    rates = [r for r, _ in curves["s-nfpl-var"]]
    means = [m for _, m in curves["s-nfpl-var"]]
    rho, _ = stats.spearmanr(rates, means)
    assert rho > 0  # equal-popularity cycling punishes precise counts
    gap = max(
        abs(v - f)
        for (_, v), (_, f) in zip(curves["s-nfpl-var"], curves["s-nfpl-fix"])
    )
    assert gap < 0.03
    with open(out / "opt_sweep.csv") as fh:
        opt_rows = list(csv.DictReader(fh))
    assert len(opt_rows) == 4
    assert float(opt_rows[0]["mean_miss_ratio"]) == pytest.approx(0.9)


@pytest.mark.parametrize("flag", [["--format", "tsv"], ["--checkpoints", "0"],
                                  ["--emit-plot-script"], ["--q", "0.5"]])
def test_sweep_rejects_run_only_flags(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--gen-kind", "zipf", "--n", "20", "--t", "100",
                 "--policies", "s-nfpl", "--c", "2", "--rates", "0.5",
                 "--out", str(tmp_path)] + flag)
    assert exc.value.code == 2


@pytest.mark.parametrize("flags, message", [
    (["--b", "1", "--rates", "0.1,0.5", "--mode", "fix"], "0.1 -> b = 1, 0.5 -> b = 1 of B = 1"),
    (["--b", "4", "--rates", "0.1,0.2,1.0", "--mode", "both"],
     "0.1 -> b = 1, 0.2 -> b = 1 of B = 4"),
], ids=["fix-b1", "both-b4"])
def test_sweep_rates_that_round_to_one_fixed_b_are_usage_errors(tmp_path, capsys, flags,
                                                                message):
    # fixed sampling takes b = round(rate * B) of each batch, so two such
    # rates would run one simulation twice
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--gen-kind", "zipf", "--n", "20", "--t", "100",
                 "--policies", "s-nfpl", "--c", "2", "--out", str(tmp_path)] + flags)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode", ["var", "fix", "both"])
def test_sweep_repeated_rate_is_usage_error(tmp_path, capsys, mode):
    # "0.5" and "0.50" are one rate, which would be simulated twice
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--gen-kind", "zipf", "--n", "200", "--t", "5000",
                 "--policies", "s-nfpl", "--c", "5", "--rates", "0.2,0.5,0.50",
                 "--mode", mode, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "rates must be distinct, repeated: [0.5]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_empty_rate_grid_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--gen-kind", "zipf", "--n", "20", "--t", "100",
                 "--policies", "s-nfpl", "--c", "2", "--rates", "",
                 "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_parallel_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("NFPL_THREADS", "2")
    out = tmp_path / "par"
    code = run_cli(["run", "--gen-kind", "zipf", "--n", "30", "--t", "600",
                    "--policies", "lfu", "--c", "3", "--runs", "2",
                    "--parallel", "1", "--out", str(out)])
    assert code == 0
    assert (out / "summary.json").exists()


def test_parallel_env_override_must_be_an_integer(tmp_path, monkeypatch):
    for value in ("abc", "0"):
        monkeypatch.setenv("NFPL_THREADS", value)
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--gen-kind", "zipf", "--n", "30", "--t", "600",
                     "--policies", "lfu", "--c", "3", "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2


def test_plot_script_emission(tmp_path):
    out = tmp_path / "plot"
    run_cli(["run", "--gen-kind", "zipf", "--n", "20", "--t", "300",
             "--policies", "lfu", "--c", "2", "--out", str(out),
             "--emit-plot-script"])
    script = (out / "plot_results.py").read_text()
    assert "matplotlib" in script
