"""Ground-truth references: static optimum, sort-based top-C, bound calculators.

The static optimum is always evaluated on the true trace; partial
observation degrades only the policies, never the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CacheState, PolicyConfig, Trace
from .topk import top_c_indices


def opt_static(trace: Trace, cache_capacity: int) -> tuple[CacheState, int]:
    """Best fixed cache in hindsight and its miss count.

    Stores the C files with the largest total request counts (ties to the
    lower id); misses everything else.
    """
    n = trace.catalog.n_files
    if cache_capacity >= n:
        raise ValueError("cache capacity must be smaller than the catalog")
    counts = np.bincount(trace.requests, minlength=n)
    top = top_c_indices(counts, cache_capacity)
    misses = len(trace) - int(counts[top].sum())
    return CacheState(frozenset(int(f) for f in top)), misses


def top_c_reference(scores, cache_capacity: int) -> set[int]:
    """Full-sort top-C under (score desc, id asc); test oracle only."""
    n = len(scores)
    if cache_capacity > n:
        raise ValueError(f"capacity {cache_capacity} exceeds file count {n}")
    order = sorted(range(n), key=lambda f: (-scores[f], f))
    return set(order[:cache_capacity])


def regret_bound_caching(
    batch_size: int, cache_capacity: int, horizon: int, p: float, q: float
) -> float:
    """Worst-case regret guarantee for the caching policy.

    Evaluates (2*sqrt(2BC)/(pq)) * (sqrt(T) + (B/2)/sqrt(T)); valid for
    the noise magnitude eta = sqrt(BT/2C).
    """
    if batch_size < 1 or cache_capacity < 1 or horizon < 1:
        raise ValueError("batch_size, cache_capacity and horizon must be positive")
    if not (0.0 < p <= 1.0 and 0.0 < q <= 1.0):
        raise ValueError("p and q must lie in (0, 1]")
    root_t = math.sqrt(horizon)
    lead = 2.0 * math.sqrt(2.0 * batch_size * cache_capacity) / (p * q)
    return lead * (root_t + batch_size / (2.0 * root_t))


def regret_bound_of(config: PolicyConfig, horizon: int) -> float:
    """:func:`regret_bound_caching` at a policy config's B, C, p and q.

    Under fixed sampling (``fixed_per_batch = b``) q is taken as b/B, the
    probability that a given request is sampled. This is an assumption:
    the bound is proved for Bernoulli(q) sampling, and the paper states no
    bound for exactly b samples per batch.
    """
    b = config.fixed_per_batch
    q = config.sample_prob if b is None else b / config.batch_size
    return regret_bound_caching(config.batch_size, config.cache_capacity, horizon,
                                config.observe_prob, q)


@dataclass(frozen=True)
class BoundParams:
    """Constants of the generic online linear learning bound.

    ``r_hat`` bounds the per-round cost, ``a_hat`` the l1 norm of any
    cost estimate, ``diameter`` the l1 diameter of the decision set, and
    ``t_rounds`` the number of decision rounds.

    For caching with batch size B, capacity C, horizon T and probabilities
    p and q, ``r_hat = a_hat = B/(pq)``, ``diameter = 2C``,
    ``t_rounds = T/B + 1`` (not always an integer) and ``p = pq``; at
    ``eta = sqrt(BT/2C)`` the generic bound equals
    :func:`regret_bound_caching`.
    """

    r_hat: float
    a_hat: float
    diameter: float
    t_rounds: float
    eta: float
    p: float = 1.0

    def __post_init__(self) -> None:
        if min(self.r_hat, self.a_hat, self.eta, self.p) <= 0 or self.t_rounds <= 0:
            raise ValueError("bound parameters must be positive")
        if self.diameter < 0:
            raise ValueError("diameter must be non-negative")


def regret_bound_general(params: BoundParams) -> float:
    """Generic bound (p/eta)*R*A*T' + (eta/p)*D for any eta."""
    first = params.p / params.eta * params.r_hat * params.a_hat * params.t_rounds
    second = params.eta / params.p * params.diameter
    return first + second

