"""Golden-output regression: fixed-seed runs must stay bit-identical.

``golden_runs.json`` holds every ``RunResult`` counter and the ``repr`` of
the miss series for each case below, recorded from the per-request
``step()`` engine before the block kernels replaced it. Any change to the
simulation path that alters a single miss, draw or counter fails here.
Print the current values with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from nfplcache.core import PolicyConfig, default_eta
from nfplcache.engine import PolicySpec, TraceSpec, make_trace, run_one
from nfplcache.policies import POLICY_NAMES

GOLDEN = Path(__file__).with_name("data") / "golden_runs.json"
N, T, C, P = 200, 5000, 10, 0.5
SEEDS = (0, 1, 2)
FIELDS = ("total_misses", "opt_misses", "regret", "heap_ops", "cache_refreshes",
          "sampled_steps", "score_changes")


def cases():
    """(key, trace kind, PolicySpec) for every policy under both sampling modes."""
    for kind in ("zipf", "zipf-rr"):
        for name in POLICY_NAMES:
            b = 10 if name == "d-nfpl" else 1
            bern = PolicyConfig(cache_capacity=C, batch_size=b, observe_prob=P,
                                sample_prob=0.5, eta=default_eta(b, C, T, P, "experimental"))
            fixed = PolicyConfig(cache_capacity=C, batch_size=10, observe_prob=P,
                                 eta=default_eta(10, C, T, P, "experimental"),
                                 fixed_per_batch=3)
            yield f"{kind}/{name}/bernoulli", kind, PolicySpec(name, bern)
            yield f"{kind}/{name}/fixed", kind, PolicySpec(name, fixed)


def record() -> dict[str, dict]:
    traces = {kind: make_trace(TraceSpec(kind=kind, n_files=N, length=T, seed=2024))
              for kind in ("zipf", "zipf-rr")}
    out = {}
    for key, kind, spec in cases():
        for seed in SEEDS:
            r = run_one(traces[kind], spec, seed)
            row = {f: getattr(r, f) for f in FIELDS}
            row["miss_series"] = repr(r.miss_series)
            out[f"{key}/{seed}"] = row
    return out


def test_fixed_seed_runs_match_golden_output():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = record()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
