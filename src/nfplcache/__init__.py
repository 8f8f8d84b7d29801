"""Trace-driven cache simulation with perturbed-leader policies under
Bernoulli partial observation."""

from .core import (
    CacheState,
    Catalog,
    PolicyConfig,
    RngStream,
    Trace,
    default_eta,
    spawn_stream,
)
from .engine import PolicySpec, TraceSpec, make_trace, run_experiment, run_one
from .metrics import AggregateResult, RunResult, aggregate
from .oracle import (
    BoundParams,
    minimized_regret_bound,
    minimizing_eta,
    opt_static,
    regret_bound_caching,
    regret_bound_general,
    regret_bound_of,
    top_c_reference,
)
from .policies import LfuPolicy, LruPolicy, NfplPolicy, PolicyStep, make_policy
from .topk import TopCTracker
from .traces import (
    ObservationMask,
    bpo_mask,
    gen_round_robin,
    gen_zipf,
    gen_zipf_rr,
    load_trace,
    save_trace,
    zipf_probs,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "BoundParams",
    "CacheState",
    "Catalog",
    "LfuPolicy",
    "LruPolicy",
    "NfplPolicy",
    "ObservationMask",
    "PolicyConfig",
    "PolicySpec",
    "PolicyStep",
    "RngStream",
    "RunResult",
    "TopCTracker",
    "Trace",
    "TraceSpec",
    "aggregate",
    "bpo_mask",
    "default_eta",
    "gen_round_robin",
    "gen_zipf",
    "gen_zipf_rr",
    "load_trace",
    "make_policy",
    "make_trace",
    "minimized_regret_bound",
    "minimizing_eta",
    "opt_static",
    "regret_bound_caching",
    "regret_bound_general",
    "regret_bound_of",
    "run_experiment",
    "run_one",
    "save_trace",
    "spawn_stream",
    "top_c_reference",
    "zipf_probs",
]
