"""Smoke tests of the benchmark at tiny sizes: python3 -m pytest perfbench -q"""

import dataclasses
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from tracing import patched  # noqa: E402
from workloads import END_TO_END, PER_LAYER, UNGATED, WORKLOADS  # noqa: E402

warnings.filterwarnings("ignore", message="only .* runs")
NF = run.load_package()


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], n_files=50, length=2_000, capacity=10)


def test_catalogue_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    gated = [w for w in WORKLOADS.values() if w.name not in UNGATED]
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in gated]
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in gated]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    assert all(run.unit_of(m.name) == m.unit for m in PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_is_correct_and_complete(tmp_path, name, trace):
    record = run.measure(NF, tiny(name), 3, 1.0, trace, tmp_path, import_samples=1)
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] >= len(WORKLOADS[name].policies)
    listed = PER_LAYER if trace else END_TO_END
    assert [m.name for m in listed] == list(record["metrics"])
    assert record["passes"] >= 2


def test_segments_add_up_to_the_pass_less_the_references():
    nominal = run.hostref.NOMINAL_S * 1e9
    # (reference start, entry, exit, reference end, mean reference ns)
    calls = [(10, 12, 50, 52, nominal), (60, 62, 90, 93, nominal / 2)]
    serial = run.segments(0, 100, calls, nominal * 2, workers=1)
    assert serial == [(10e-9, 0.5), (38e-9, 1.0), (36e-9, 2.0), (7e-9, 0.5)]
    assert sum(sec for sec, _ in serial) == pytest.approx((100 - 2 - 2 - 2 - 3) / 1e9)
    pooled = run.segments(0, 100, calls, nominal, workers=2)
    assert pooled == [(10e-9, 1.0), (83e-9, pytest.approx(4 / 3)), (7e-9, 1.0)]


def test_failed_checks_are_counted_not_dropped(tmp_path):
    w = tiny("zipf-loop")
    real = NF.engine.opt_static

    def off_by_one(trace, capacity):
        state, misses = real(trace, capacity)
        return state, misses + 1

    with patched([(NF.engine, "opt_static", off_by_one)]):
        record = run.measure(NF, w, 0, 0.2, False, tmp_path, import_samples=1)
    assert not record["correct"]
    assert record["failed"] == record["attempted"]
    assert record["metrics"]["wall_s"]["n"] == record["passes"]


def test_digest_mismatch_fails_that_run(tmp_path):
    w = tiny("zipf-loop")
    digests = {"lru/0": "0" * 16}
    record = run.measure(NF, w, 0, 0.1, False, tmp_path, digests, import_samples=1)
    assert record["failed"] == record["passes"]
    assert all("lru" in m for m in record["failures"])


def test_default_seed_has_recorded_digests():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        digests = run.recorded_digests(w["name"], 0)
        runs = WORKLOADS[w["name"]].runs
        assert sorted(digests) == sorted(f"{name}/{seed}" for name, _ in WORKLOADS[w["name"]].policies
                                         for seed in range(runs))


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zipf-loop", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _record(workload, seed, value):
    return {"manifest": {"workload": workload, "tracing": False, "seed": seed,
                         "started_utc": "t"},
            "metrics": {"wall_s": {"value": value, "unit": "s"}}}


@pytest.mark.parametrize("parent, change, expected", [
    ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0], None, "unchanged"),
    ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0], 1.5, "regression"),
    ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0], 0.8, "improved"),
    ([1.0, 2.0, 0.5, 1.0, 2.0, 0.5, 1.0, 2.0, 0.5, 1.0], 1.0, "unresolved"),
])
def test_compare_verdicts(tmp_path, parent, change, expected):
    for side, values in (("parent", parent), ("change", [change * v if change else v for v in parent])):
        (tmp_path / side).mkdir()
        for seed, value in enumerate(values):
            (tmp_path / side / f"{seed}.json").write_text(json.dumps(_record("w", seed, value)))
    (row,) = compare.compare(tmp_path / "parent", tmp_path / "change")
    assert row["verdict"] == expected
