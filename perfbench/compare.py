"""Compare two result sets of the benchmark: a parent commit and a change.

Usage:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the results files that ``run.py --out DIR`` wrote.
Runs should have been made in pairs, alternating which side ran first,
with the same seeds on both sides; the i-th parent run of a workload is
paired with the i-th change run (both ordered by seed, then start time).

One row per workload and metric: each side's median and quartiles, the
change's relative difference, the share of pairs the change won (ties
count for neither side), and a verdict:

* ``unresolved``  the parent's own spread (quartile distance over median)
  exceeds the bound, unless every change run beats every parent run;
* ``regression``  the change's median is worse by more than the bound;
* ``improved``    the change won at least 9 in 10 pairs and the medians
  differ by more than the parent's quartile distance;
* ``worse``       the same test in the other direction, for metrics
  without a bound;
* ``unchanged``   otherwise.

A last line gives each side's median ``host.reference_ms``: the time of the
fixed routine in hostref.py, to read a difference against host drift.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import END_TO_END, PER_LAYER  # noqa: E402

CATALOGUE = {m.name: m for m in END_TO_END + PER_LAYER}


def load(directory: Path) -> dict[tuple[str, bool], list[dict]]:
    """Results files grouped by (workload, tracing), in pairing order."""
    groups: dict[tuple[str, bool], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if "manifest" not in record:
            continue
        man = record["manifest"]
        groups.setdefault((man["workload"], man["tracing"]), []).append(record)
    for runs in groups.values():
        runs.sort(key=lambda r: (r["manifest"]["seed"], r["manifest"]["started_utc"]))
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple[float, str]:
    """Share of pairs the change won, and the verdict for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0) / len(pairs)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    spread = p3 - p1
    gain = sign * (cm - pm)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if bound is not None:
        if pm and spread / abs(pm) > bound and not all_better:
            return wins, "unresolved"
        if pm and -gain / abs(pm) > bound:
            return wins, "regression"
    if wins >= 0.9 and gain > spread:
        return wins, "improved"
    if bound is None and losses >= 0.9 and -gain > spread:
        return wins, "worse"
    return wins, "unchanged"


def compare(parent_dir: Path, change_dir: Path) -> list[dict]:
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        n = min(len(p_runs), len(c_runs))
        names = [m for m in p_runs[0]["metrics"] if m in c_runs[0]["metrics"]]
        for name in names:
            p_vals = [r["metrics"][name]["value"] for r in p_runs[:n]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs[:n]]
            metric = CATALOGUE.get(name)
            better = metric.better if metric else "lower"
            bound = metric.bound if metric else None
            wins, call = verdict(p_vals, c_vals, better, bound)
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            rows.append({
                "workload": key[0], "traced": key[1], "metric": name,
                "unit": p_runs[0]["metrics"][name]["unit"], "pairs": n,
                "parent": (p1, pm, p3), "change": (c1, cm, c3),
                "delta": (cm - pm) / pm if pm else float("nan"),
                "wins": wins, "verdict": call,
            })
    return rows


def host_reference_ms(directory: Path) -> float | None:
    """Median over a result set's runs of their median host reference time."""
    times = [r["detail"]["host.reference_ms"]["value"] for runs in load(directory).values()
             for r in runs if "host.reference_ms" in r.get("detail", {})]
    return statistics.median(times) if times else None


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]))
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 1
    header = (f"{'workload':<20} {'metric':<30} {'unit':<6} {'n':>3} "
              f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
              f"{'delta':>8} {'won':>5}  verdict")
    print(header)
    for r in rows:
        print(f"{r['workload']:<20} {r['metric']:<30} {r['unit']:<6} {r['pairs']:>3} "
              f"{_cell(r['parent']):>34} {_cell(r['change']):>34} "
              f"{r['delta']:>+8.2%} {r['wins']:>5.0%}  {r['verdict']}")
    parent_ms, change_ms = host_reference_ms(Path(argv[0])), host_reference_ms(Path(argv[1]))
    if parent_ms and change_ms:
        print(f"host reference median: parent {parent_ms:.4g} ms, change {change_ms:.4g} ms "
              f"({change_ms / parent_ms - 1:+.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
