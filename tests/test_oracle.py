import itertools

import numpy as np
import pytest

from nfplcache.core import Catalog, PolicyConfig, Trace
from nfplcache.oracle import (
    BoundParams,
    opt_static,
    regret_bound_caching,
    regret_bound_general,
    regret_bound_of,
    top_c_reference,
)


def exhaustive_opt(requests, n, c):
    """Minimum misses over every C-subset, by enumeration."""
    counts = np.bincount(requests, minlength=n)
    best = None
    for subset in itertools.combinations(range(n), c):
        misses = len(requests) - int(counts[list(subset)].sum())
        if best is None or misses < best:
            best = misses
    return best


def test_opt_static_hand_example():
    trace = Trace(Catalog(4), [1, 1, 2, 3])
    cache, misses = opt_static(trace, 1)
    assert cache.stored == {1}
    assert misses == 2


def test_opt_static_covers_all_distinct_files():
    trace = Trace(Catalog(4), [0, 1, 0, 1])
    _, misses = opt_static(trace, 3)
    assert misses == 0


def test_opt_static_matches_exhaustive_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        t = int(rng.integers(1, 21))
        c = int(rng.integers(1, n))
        requests = rng.integers(0, n, size=t)
        trace = Trace(Catalog(n), requests)
        _, misses = opt_static(trace, c)
        assert misses == exhaustive_opt(requests, n, c)


def test_opt_static_lower_bounds_any_static_cache():
    rng = np.random.default_rng(2)
    n, t, c = 10, 60, 3
    requests = rng.integers(0, n, size=t)
    trace = Trace(Catalog(n), requests)
    _, opt_misses = opt_static(trace, c)
    counts = np.bincount(requests, minlength=n)
    for _ in range(30):
        cache = rng.choice(n, size=c, replace=False)
        assert t - counts[cache].sum() >= opt_misses


def test_opt_static_tie_break_by_lower_id():
    trace = Trace(Catalog(3), [0, 1, 2])
    cache, _ = opt_static(trace, 2)
    assert cache.stored == {0, 1}


def test_opt_static_rejects_full_catalog():
    trace = Trace(Catalog(3), [0])
    with pytest.raises(ValueError):
        opt_static(trace, 3)


def test_caching_bound_arithmetic():
    got = regret_bound_caching(1, 2, 8, 1.0, 1.0)
    assert got == pytest.approx(12.0208, abs=1e-3)


def test_caching_bound_scales_inversely_with_p():
    full = regret_bound_caching(1, 2, 100, 1.0, 1.0)
    half = regret_bound_caching(1, 2, 100, 0.5, 1.0)
    assert half == pytest.approx(2 * full)


def test_caching_bound_dominates_leading_term():
    lead = 2 * (2 * 1 * 2) ** 0.5 * 8**0.5
    assert regret_bound_caching(1, 2, 8, 1.0, 1.0) > lead


def test_caching_bound_rejects_bad_domain():
    with pytest.raises(ValueError):
        regret_bound_caching(0, 2, 8, 1.0, 1.0)
    with pytest.raises(ValueError):
        regret_bound_caching(1, 2, 8, 0.0, 1.0)
    with pytest.raises(ValueError):
        regret_bound_caching(1, 2, 8, 1.0, 1.5)


@pytest.mark.parametrize("sampling, q", [({"sample_prob": 0.4}, 0.4), ({}, 1.0),
                                         ({"fixed_per_batch": 3}, 0.3),
                                         ({"fixed_per_batch": 10}, 1.0)])
def test_bound_of_a_config_reads_q_as_the_sampled_share(sampling, q):
    # fixed sampling counts b of every B requests: q is b/B, not the
    # sample_prob of 1 that fixed sampling requires
    config = PolicyConfig(cache_capacity=4, batch_size=10, observe_prob=0.5, eta=1.0, **sampling)
    assert regret_bound_of(config, 5000) == regret_bound_caching(10, 4, 5000, 0.5, q)


@pytest.mark.parametrize("b, c, t, p, q", [
    (1, 100, 200_000, 1.0, 1.0),
    (10, 10, 10_000, 0.5, 0.5),
    (100, 100, 200_000, 1.0, 0.5),
    (7, 3, 1000, 0.3, 0.9),
])
def test_general_bound_with_caching_constants_is_the_caching_bound(b, c, t, p, q):
    params = BoundParams(
        r_hat=b / (p * q),
        a_hat=b / (p * q),
        diameter=2 * c,
        t_rounds=t / b + 1,
        eta=(b * t / (2 * c)) ** 0.5,
        p=p * q,
    )
    assert regret_bound_general(params) == pytest.approx(
        regret_bound_caching(b, c, t, p, q), rel=1e-12)


def test_general_bound_degenerate_diameter():
    params = BoundParams(r_hat=2.0, a_hat=3.0, diameter=0.0, t_rounds=10, eta=1.5, p=1.0)
    assert regret_bound_general(params) == pytest.approx(2.0 * 3.0 * 10 / 1.5)


def test_general_bound_first_term_is_linear_in_r():
    base = BoundParams(1.0, 2.0, 4.0, 10, 2.0, 0.5)
    scaled = BoundParams(3.0, 2.0, 4.0, 10, 2.0, 0.5)
    diff = regret_bound_general(scaled) - regret_bound_general(base)
    first_term = base.p / base.eta * base.r_hat * base.a_hat * base.t_rounds
    assert diff == pytest.approx(2 * first_term)


def test_top_c_reference_examples():
    assert top_c_reference([5, 1, 9], 2) == {2, 0}
    assert top_c_reference([3, 3, 1], 1) == {0}
    with pytest.raises(ValueError):
        top_c_reference([1, 2], 3)
