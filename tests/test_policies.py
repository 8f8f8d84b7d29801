import math

import numpy as np
import pytest

from nfplcache.core import Catalog, PolicyConfig, default_eta, spawn_stream
from nfplcache.oracle import top_c_reference
from nfplcache.policies import (
    POLICY_NAMES,
    LfuPolicy,
    LruPolicy,
    NfplPolicy,
    _in_reach,
    _top_by_noise,
    make_policy,
)
from nfplcache.topk import top_c_indices
from nfplcache.traces import gen_zipf


def nfpl(n, c, horizon, *, b=1, eta=1.0, name="s-nfpl", seed=0, **kw):
    cfg = PolicyConfig(cache_capacity=c, batch_size=b, eta=eta)
    return NfplPolicy(name, cfg, Catalog(n), horizon, spawn_stream(seed, 1), **kw)


def drive(policy, requests, observed=None):
    steps = []
    for t, f in enumerate(requests, start=1):
        obs = True if observed is None else observed[t - 1]
        steps.append(policy.step(t, f, obs))
    return steps


# ---------------------------------------------------------------- construction

def test_new_policy_counts_zero_and_cache_is_top_gamma0():
    pol = nfpl(5, 2, 10, gamma0=[0.3, 0.9, 0.1, 0.8, 0.5])
    assert pol.counts.tolist() == [0] * 5
    assert pol.cache == {1, 3}


def test_same_seed_gives_identical_gamma0():
    a = nfpl(100, 5, 10, eta=2.0, seed=7)
    b = nfpl(100, 5, 10, eta=2.0, seed=7)
    assert np.array_equal(a.gamma0, b.gamma0)
    c = nfpl(100, 5, 10, eta=2.0, seed=8)
    assert not np.array_equal(a.gamma0, c.gamma0)


def test_zero_eta_rejected_by_config():
    with pytest.raises(ValueError):
        PolicyConfig(cache_capacity=1, eta=0.0)


def test_capacity_must_be_below_catalog():
    with pytest.raises(ValueError):
        nfpl(3, 3, 10)
    with pytest.raises(ValueError):
        LfuPolicy(3, Catalog(3))
    with pytest.raises(ValueError):
        LruPolicy(3, Catalog(3))


def test_gamma0_hook_validated():
    with pytest.raises(ValueError):
        nfpl(2, 1, 4, eta=1.0, gamma0=[0.5, 1.0])  # 1.0 outside [0, eta)
    with pytest.raises(ValueError):
        nfpl(2, 1, 4, gamma0=[0.5])
    # NaN fails every comparison, so a min/max range check would pass it
    with pytest.raises(ValueError, match="gamma0"):
        nfpl(5, 2, 4, gamma0=[0.1, 0.2, math.nan, 0.3, 0.4])


# --------------------------------------------------------------- step dynamics

def test_hand_traced_two_file_run():
    pol = nfpl(2, 1, 2, gamma0=[0.9, 0.1])
    assert pol.cache == {0}
    s1 = pol.step(1, 1, True)
    assert not s1.hit  # scored against the initial cache {0}
    assert pol.counts.tolist() == [0, 1]
    assert pol.cache == {1}  # refresh at t=1 moved file 1 in
    s2 = pol.step(2, 1, True)
    assert s2.hit


def test_unobserved_run_never_changes_cache():
    pol = nfpl(6, 2, 50, name="d-nfpl", eta=2.0, seed=3)
    initial = set(pol.cache)
    rng = np.random.default_rng(0)
    drive(pol, rng.integers(0, 6, 50).tolist(), observed=[False] * 50)
    assert set(pol.cache) == initial
    assert pol.cache_refreshes == 0
    assert pol.counts.sum() == 0


def test_batch_gating_updates_only_at_boundaries():
    pol = nfpl(3, 1, 12, b=4, gamma0=[0.9, 0.1, 0.2])
    observed = [t == 2 for t in range(1, 13)]
    snapshots = []
    for t in range(1, 13):
        pol.step(t, 1, observed[t - 1])
        snapshots.append(frozenset(pol.cache))
    assert snapshots[0] == snapshots[1] == snapshots[2] == frozenset({0})
    assert snapshots[3] == frozenset({1})  # refresh at t=4
    assert all(s == frozenset({1}) for s in snapshots[4:])
    assert pol.cache_refreshes == 1


def test_cache_read_is_a_snapshot_across_a_waiting_swap():
    # file 1 beats file 0 at t=1, but its swap waits for the batch to end
    # at t=2, in the next block; the set read before that block keeps file 0
    pol = nfpl(3, 1, 4, b=2, gamma0=[0.5, 0.0, 0.0])
    assert pol.run_block(0, np.array([1]), np.ones(1, dtype=bool)) == 1
    assert len(pol._waiting) == 1 and pol.tracker.heap == [1]
    before = pol.cache
    assert before == {0}
    assert pol.run_block(1, np.array([2, 1]), np.ones(2, dtype=bool)) == 1
    assert before == {0}
    assert pol.cache == {1}


def test_cache_read_is_a_snapshot_across_a_dynamic_refresh():
    pol = nfpl(3, 1, 4, name="d-nfpl", eta=0.5, gamma0=[0.4, 0.0, 0.0])
    before = pol.cache
    assert before == {0}
    assert pol.run_block(0, np.array([2, 2]), np.ones(2, dtype=bool)) == 1
    assert before == {0}
    assert pol.cache == {2}  # two counts outweigh any noise below 0.5


def test_out_of_order_steps_rejected():
    pol = nfpl(3, 1, 10)
    pol.step(1, 0, True)
    with pytest.raises(ValueError, match="arrive in order"):
        pol.step(3, 0, True)
    with pytest.raises(ValueError, match="arrive in order"):
        pol.step(1, 0, True)


def test_horizon_overrun_rejected():
    pol = nfpl(3, 1, 2)
    drive(pol, [0, 1])
    with pytest.raises(ValueError, match="beyond horizon"):
        pol.step(3, 0, True)
    with pytest.raises(ValueError, match="horizon must be positive"):
        nfpl(3, 1, 0)


@pytest.mark.parametrize("name", ["s-nfpl", "d-nfpl", "l-nfpl", "fpl"])
def test_run_block_rejects_a_block_out_of_order_or_past_the_horizon(name):
    pol = nfpl(4, 1, 6, b=2, name=name)
    ids, bits = np.array([0, 1, 2]), np.ones(3, dtype=bool)
    for t0 in (1, -1):
        with pytest.raises(ValueError, match="arrive in order"):
            pol.run_block(t0, ids, bits)
    pol.run_block(0, ids, bits)
    for t0 in (0, 4):
        with pytest.raises(ValueError, match="arrive in order"):
            pol.run_block(t0, ids, bits)
    with pytest.raises(ValueError, match="arrive in order"):
        pol.step(5, 0, True)
    with pytest.raises(ValueError, match="beyond horizon"):
        pol.run_block(3, np.array([0, 1, 2, 3]), np.ones(4, dtype=bool))
    pol.run_block(3, ids, bits)
    assert pol.counts.sum() == pol.sampled_steps == 6  # the rejected blocks counted nothing


@pytest.mark.parametrize("name", POLICY_NAMES)
@pytest.mark.parametrize("file_id", [-1, 5])
def test_step_rejects_an_unknown_id(name, file_id):
    # -1 would index the last file's slot and 5 is past the end; the id is
    # rejected before it reaches the policy, which is left as it was
    cfg = PolicyConfig(cache_capacity=2, eta=3.0)
    pol = make_policy(name, cfg, Catalog(5), 10, spawn_stream(0, 1))
    cache = set(pol.cache)
    counts = list(getattr(pol, "counts", []))  # LRU keeps none
    with pytest.raises(ValueError, match="unknown file id"):
        pol.step(1, file_id, True)
    assert set(pol.cache) == cache
    assert list(getattr(pol, "counts", [])) == counts
    assert pol.step(1, 4, True).request == 4  # still expects request 1


@pytest.mark.parametrize("name", ["s-nfpl", "fpl"])
@pytest.mark.parametrize("gamma0", [[2.9, 2.8, 0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 2.8, 2.9]])
def test_static_noise_rejects_a_negative_id(name, gamma0):
    # -1 would index the last file's slot, which the first gamma0 leaves out
    # of the cache, below its weakest member, and the second caches
    cfg = PolicyConfig(cache_capacity=2, eta=3.0)
    pol = make_policy(name, cfg, Catalog(5), 10, spawn_stream(0, 1), gamma0=gamma0)
    cache = set(pol.cache)
    with pytest.raises(ValueError, match="unknown file id"):
        pol.step(1, -1, True)
    assert set(pol.cache) == cache
    assert pol.counts.tolist() == [0] * 5


def test_lfu_hit_on_a_negative_id_is_rejected():
    # the observed miss on -1 raises, so -1 never enters the cache and the
    # request after it cannot hit on the last file's count
    pol = LfuPolicy(2, Catalog(5))
    for t in (1, 2):
        with pytest.raises(ValueError, match="unknown file id"):
            pol.step(t, -1, True)
    assert set(pol.cache) == {0, 1}
    assert list(pol.counts) == [0] * 5


@pytest.mark.parametrize("policy", [LfuPolicy, LruPolicy])
@pytest.mark.parametrize("file_id", [-1, 5])
def test_observed_miss_on_an_unknown_id_is_rejected(policy, file_id):
    # a packed LFU key for -1 or n would alias another file's key
    pol = policy(2, Catalog(5))
    with pytest.raises(ValueError, match="unknown file id"):
        pol.step(1, file_id, True)
    assert set(pol.cache) == {0, 1}
    with pytest.raises(ValueError, match="unknown file id"):
        pol.step(1, file_id, False)  # step() checks unobserved ids too
    assert set(pol.cache) == {0, 1}


def test_exact_counts_under_full_observation():
    n, t = 20, 500
    trace = gen_zipf(Catalog(n), t, 1.0, spawn_stream(5, 2))
    pol = nfpl(n, 4, t, eta=5.0, seed=1)
    drive(pol, trace.requests.tolist())
    assert pol.counts.tolist() == np.bincount(trace.requests, minlength=n).tolist()


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("name", ["s-nfpl", "l-nfpl", "d-nfpl"])
def test_counts_recount_under_partial_observation(name, b):
    n, t = 10, 300
    rng = np.random.default_rng(4)
    requests = rng.integers(0, n, t).tolist()
    observed = (rng.random(t) < 0.5).tolist()
    cfg = PolicyConfig(cache_capacity=3, batch_size=b, eta=2.0, sample_prob=0.7)
    pol = NfplPolicy(name, cfg, Catalog(n), t, spawn_stream(0, 1))
    drive(pol, requests, observed=observed)
    # only observed requests draw a sampling bit, in order, from substream 1
    sampled = iter(spawn_stream(0, 1).substream(1).bernoulli(0.7, sum(observed)).tolist())
    expected = [0] * n
    for f, d in zip(requests, observed):
        if d and next(sampled):
            expected[f] += 1
    assert pol.counts.tolist() == expected
    assert pol.sampled_steps == sum(expected)


def test_cache_cardinality_invariant_all_policies():
    n, c, t = 12, 4, 400
    trace = gen_zipf(Catalog(n), t, 1.0, spawn_stream(8, 2))
    mask = spawn_stream(8, 0).bernoulli(0.6, t).tolist()
    cfg = PolicyConfig(cache_capacity=c, batch_size=3, eta=4.0)
    for name in ("s-nfpl", "d-nfpl", "l-nfpl", "fpl", "lfu", "lru"):
        pol = make_policy(name, cfg, Catalog(n), t, spawn_stream(8, 1))
        for i, f in enumerate(trace.requests.tolist()):
            pol.step(i + 1, f, mask[i])
            assert len(pol.cache) == c


# ----------------------------------------------------------------- noise modes

def test_static_noise_never_moves():
    pol = nfpl(10, 3, 200, eta=3.0, seed=2)
    drive(pol, np.random.default_rng(0).integers(0, 10, 200).tolist())
    assert np.array_equal(pol.gamma, pol.gamma0)


def test_dynamic_noise_redraws_at_refresh():
    pol = nfpl(10, 3, 9, b=3, name="d-nfpl", eta=3.0, seed=2)
    g0 = pol.gamma.copy()
    drive(pol, [1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert pol.cache_refreshes == 3
    assert not np.array_equal(pol.gamma, g0)
    assert pol.gamma.min() >= 0.0 and pol.gamma.max() < 3.0


def test_candidate_filter_keeps_a_file_that_ties_the_floor_by_rounding():
    # File 1 is cached at count 10**6 with noise 0. File 0 counts one less,
    # so count + eta equals the floor, yet its noise 1 - 2**-53 rounds its
    # score up to 10**6: it ties file 1 and wins on its lower id. A strict
    # rule (keep count + eta > floor) would drop it and keep file 1.
    counts = np.array([999_999, 1_000_000, 5], dtype=np.int64)
    noise = np.array([1.0 - 2.0**-53, 0.0, 0.5])
    floor, eta = 1_000_000, 1.0
    assert counts[0] + noise[0] == floor
    kept = np.flatnonzero(_in_reach(counts, np.arange(3), floor, eta))
    assert kept.tolist() == [0, 1]
    top = _top_by_noise(counts, kept, 1, noise[:2])  # file 2 draws no noise
    assert top.tolist() == [0] == top_c_indices(counts + noise, 1).tolist()


def test_lazy_gamma_equals_gamma0_before_any_count():
    pol = nfpl(6, 2, 10, name="l-nfpl", eta=2.0, seed=4)
    assert np.array_equal(pol.gamma, pol.gamma0)


def test_lazy_closed_form_hand_trace():
    pol = nfpl(2, 1, 4, name="l-nfpl", eta=2.0, gamma0=[0.5, 1.2])
    m_before = pol.tracker.scores[0]
    pol.step(1, 0, True)
    assert pol.gamma[0] == pytest.approx(1.5)
    assert pol.tracker.scores[0] - m_before == pytest.approx(2.0)  # one eta jump
    pol.step(2, 0, True)
    assert pol.gamma[0] == pytest.approx(0.5)
    assert pol.tracker.scores[0] == pytest.approx(2.5)  # no second jump


def test_lazy_closed_form_invariant_at_boundaries():
    n, t, eta = 15, 300, 4.0
    pol = nfpl(n, 5, t, name="l-nfpl", eta=eta, seed=6)
    rng = np.random.default_rng(1)
    for i, f in enumerate(rng.integers(0, n, t).tolist()):
        pol.step(i + 1, f, True)
        expected = pol.gamma0 + eta * np.ceil((pol.counts - pol.gamma0) / eta) - pol.counts
        assert np.allclose(pol.gamma, expected, atol=1e-9 * eta)
        assert pol.gamma.min() >= 0.0 and pol.gamma.max() < eta


def test_lazy_jump_is_zero_or_exactly_eta():
    n, t, eta = 30, 2000, 7.0
    pol = nfpl(n, 6, t, name="l-nfpl", eta=eta, seed=9)
    trace = gen_zipf(Catalog(n), t, 1.0, spawn_stream(10, 2))
    jumps = 0
    for i, f in enumerate(trace.requests.tolist()):
        before = pol.tracker.scores[f]
        pol.step(i + 1, f, True)
        delta = pol.tracker.scores[f] - before
        assert delta == pytest.approx(0.0, abs=1e-9 * eta) or delta == pytest.approx(
            eta, abs=1e-9 * eta
        )
        if delta > eta / 2:
            jumps += 1
    assert jumps == pol.score_changes > 0


def test_lazy_change_rate_bounded_by_inverse_eta():
    n, c, t = 50, 5, 20_000
    eta = default_eta(1, c, t)
    cfg = PolicyConfig(cache_capacity=c, eta=eta)
    pol = NfplPolicy("l-nfpl", cfg, Catalog(n), t, spawn_stream(3, 1))
    trace = gen_zipf(Catalog(n), t, 1.0, spawn_stream(3, 2))
    drive(pol, trace.requests.tolist())
    rate = pol.score_changes / pol.sampled_steps
    se = math.sqrt((1 / eta) * (1 - 1 / eta) / pol.sampled_steps)
    assert rate <= 1 / eta + 5 * se


def test_lazy_tracker_matches_full_sort_after_run():
    n, c, t = 25, 6, 1500
    pol = nfpl(n, c, t, name="l-nfpl", eta=3.0, seed=12)
    trace = gen_zipf(Catalog(n), t, 1.2, spawn_stream(12, 2))
    drive(pol, trace.requests.tolist())
    assert pol.cache == top_c_reference(pol.tracker.scores, c)


# -------------------------------------------------------------------- sampling

def test_fixed_sampling_takes_exactly_b_per_batch():
    cfg = PolicyConfig(cache_capacity=2, batch_size=10, eta=2.0, fixed_per_batch=3)
    pol = NfplPolicy("s-nfpl", cfg, Catalog(20), 100, spawn_stream(5, 1))
    rng = np.random.default_rng(0)
    per_batch = []
    for batch in range(10):
        before = pol.sampled_steps
        for j in range(10):
            pol.step(batch * 10 + j + 1, int(rng.integers(0, 20)), True)
        per_batch.append(pol.sampled_steps - before)
    assert per_batch == [3] * 10


def test_fixed_sampling_counts_b_per_batch_when_fully_observed():
    cfg = PolicyConfig(cache_capacity=2, batch_size=8, eta=2.0, fixed_per_batch=2)
    pol = NfplPolicy("s-nfpl", cfg, Catalog(30), 64, spawn_stream(6, 1))
    drive(pol, list(range(30)) + list(range(30)) + [0, 1, 2, 3])
    assert pol.sampled_steps == 16


def test_bernoulli_sampling_rate_is_roughly_q():
    t = 20_000
    cfg = PolicyConfig(cache_capacity=2, eta=2.0, sample_prob=0.3)
    pol = NfplPolicy("s-nfpl", cfg, Catalog(10), t, spawn_stream(7, 1))
    rng = np.random.default_rng(1)
    drive(pol, rng.integers(0, 10, t).tolist())
    assert pol.sampled_steps / t == pytest.approx(0.3, abs=0.02)


# ------------------------------------------------------------------- baselines

def test_lfu_always_evicts_least_frequent_on_miss():
    pol = LfuPolicy(1, Catalog(2))
    steps = drive(pol, [0, 0, 1])
    assert [s.hit for s in steps] == [True, True, False]
    assert pol.cache == {1}  # admitted despite the lower count


def test_lfu_unobserved_requests_change_nothing():
    pol = LfuPolicy(2, Catalog(5))
    drive(pol, [3, 4, 3, 4], observed=[False] * 4)
    assert pol.cache == {0, 1}
    assert pol.counts == [0] * 5


def test_lfu_tie_evicts_higher_id():
    pol = LfuPolicy(2, Catalog(4))
    # equalize counts of cached 0 and 1, then miss on 2
    drive(pol, [0, 1, 2])
    assert pol.cache == {0, 2}  # victim was id 1 (tie on count 1... counts 1,1)


def test_lru_hand_trace():
    pol = LruPolicy(2, Catalog(3))
    drive(pol, [0, 1, 0, 2])
    assert set(pol.cache) == {0, 2}


def test_lru_repeated_file_always_hits_after_first_observation():
    pol = LruPolicy(2, Catalog(5))
    steps = drive(pol, [4, 4, 4, 4])
    assert [s.hit for s in steps] == [False, True, True, True]


def test_lru_frozen_without_observations():
    pol = LruPolicy(2, Catalog(5))
    drive(pol, [4, 3, 4, 3], observed=[False] * 4)
    assert set(pol.cache) == {0, 1}


# -------------------------------------------------------------------- dispatch

def test_make_policy_dispatch_and_unknown_name():
    cfg = PolicyConfig(cache_capacity=2, eta=1.0)
    cat = Catalog(5)
    assert isinstance(make_policy("lfu", cfg, cat, 10, spawn_stream(0, 1)), LfuPolicy)
    assert isinstance(make_policy("lru", cfg, cat, 10, spawn_stream(0, 1)), LruPolicy)
    for name in ("s-nfpl", "d-nfpl", "l-nfpl", "fpl"):
        assert isinstance(make_policy(name, cfg, cat, 10, spawn_stream(0, 1)), NfplPolicy)
    with pytest.raises(ValueError, match="valid names"):
        make_policy("nope", cfg, cat, 10, spawn_stream(0, 1))
    with pytest.raises(ValueError, match="valid names"):
        NfplPolicy("lfu", cfg, cat, 10, spawn_stream(0, 1))


@pytest.mark.parametrize("name", ["lfu", "lru"])
def test_make_policy_rejects_hooks_for_lfu_and_lru(name):
    # neither policy draws noise, so the hook would be ignored
    cfg = PolicyConfig(cache_capacity=2, eta=1.0)
    with pytest.raises(TypeError, match="gamma0"):
        make_policy(name, cfg, Catalog(5), 10, spawn_stream(0, 1), gamma0=[0.1] * 5)


def test_fpl_ignores_the_observation_mask():
    cfg = PolicyConfig(cache_capacity=1, eta=1.0)
    pol = make_policy("fpl", cfg, Catalog(3), 4, spawn_stream(0, 1),
                      gamma0=[0.9, 0.1, 0.2])
    drive(pol, [1, 1, 1, 1], observed=[False] * 4)
    assert pol.counts.tolist() == [0, 4, 0]
    assert pol.cache == {1}
