"""Block kernels against the per-request reference they replaced.

The ``Ref*`` classes below are the per-request ``step()`` logic that the
policies ran before ``run_block`` existed, kept verbatim as the oracle
apart from naming, ``RefNfpl``'s ``gamma0`` hook, and ``RefNfpl`` taking
its noise mode and mask flag as arguments: same draws from the same
streams, same counters, same tie-breaks, and for NFPL the same
tracker scores and heap layout. Every policy's ``run_block`` must agree
with them on random traces cut into random blocks; checkpoints are cut by
the engine and tested in ``test_engine.py``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import replace
from heapq import heapify, heappop, heappush

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nfplcache.core import Catalog, PolicyConfig, RngStream, default_eta, spawn_stream
from nfplcache.policies import LfuPolicy, make_policy
from nfplcache.topk import TopCTracker
from nfplcache.traces import gen_zipf, gen_zipf_rr

# ----------------------------------------------------------------- reference


class RefNfpl:
    def __init__(self, mode, ignore_mask, config, catalog, horizon, rng, gamma0=None):
        n = catalog.n_files
        self.config = config
        self.n_files = n
        self.eta = config.eta
        self._rng = rng
        self._ignore_mask = ignore_mask
        self._batch = config.batch_size
        self._mode = mode
        if gamma0 is None:
            gamma0 = rng.uniform(0.0, self.eta, n)
        gamma0 = np.asarray(gamma0, dtype=float)
        self.gamma0 = gamma0
        self._beta_rng = rng.substream(1)
        self._always_sample = False
        self._beta_buf = []
        self._beta_pos = 0
        self._batch_bits = []
        self._drawn_batch = -1
        if config.fixed_per_batch is not None:
            if config.fixed_per_batch == config.batch_size:
                self._always_sample = True
        elif config.sample_prob >= 1.0:
            self._always_sample = True
        self.counts = np.zeros(n, dtype=np.int64)
        self.gamma = gamma0.copy()
        self.flag = False
        self.cache_refreshes = 0
        self.sampled_steps = 0
        self.score_changes = 0
        self._dirty = set()
        self._pending = []
        if self._mode == "dynamic":
            self.tracker = None
            order = np.argsort(-gamma0, kind="stable")[: config.cache_capacity]
            self.cache = set(order.tolist())
        else:
            self.tracker = TopCTracker(gamma0.tolist(), config.cache_capacity)
            self.cache = self.tracker.members()

    @property
    def heap_ops(self):
        return self.tracker.op_counter if self.tracker is not None else 0

    def _beta_at(self, t):
        if self._always_sample:
            return True
        cfg = self.config
        if cfg.fixed_per_batch is not None:
            batch_idx = (t - 1) // cfg.batch_size
            if batch_idx != self._drawn_batch:
                bits = [False] * cfg.batch_size
                for pos in self._beta_rng.permutation(cfg.batch_size)[: cfg.fixed_per_batch]:
                    bits[pos] = True
                self._batch_bits = bits
                self._drawn_batch = batch_idx
            return self._batch_bits[(t - 1) % cfg.batch_size]
        if self._beta_pos >= len(self._beta_buf):
            self._beta_buf = self._beta_rng.bernoulli(cfg.sample_prob, 8192).tolist()
            self._beta_pos = 0
        bit = self._beta_buf[self._beta_pos]
        self._beta_pos += 1
        return bit

    def step(self, t, request, observed):
        hit = request in self.cache
        if (observed or self._ignore_mask) and self._beta_at(t):
            self.counts[request] += 1
            self.sampled_steps += 1
            self.flag = True
            if self._mode == "static":
                swap = self.tracker.bump(request, self.tracker.scores[request] + 1.0)
                self.score_changes += 1
                if swap[0] is not None:
                    self._pending.append(swap)
            elif self._mode == "lazy":
                self._dirty.add(request)
        if self.flag and t % self._batch == 0:
            self._refresh()
            self.flag = False
            self.cache_refreshes += 1
        return hit

    def _refresh(self):
        if self._mode == "dynamic":
            gamma = self._rng.uniform(0.0, self.eta, self.n_files)
            self.gamma = gamma
            perturbed = self.counts + gamma
            order = np.argsort(-perturbed, kind="stable")[: self.config.cache_capacity]
            self.cache = set(order.tolist())
            return
        if self._mode == "lazy":
            eta = self.eta
            tracker = self.tracker
            for f in self._dirty:
                g0 = self.gamma0[f]
                c = int(self.counts[f])
                new_score = g0 + eta * math.ceil((c - g0) / eta)
                if new_score > tracker.scores[f]:
                    self.score_changes += 1
                    swap = tracker.bump(f, new_score)
                    if swap[0] is not None:
                        self._pending.append(swap)
                self.gamma[f] = new_score - c
            self._dirty.clear()
        if self._pending:
            for evicted, admitted in self._pending:
                self.cache.discard(evicted)
                self.cache.add(admitted)
            self._pending.clear()


class RefLfu:
    heap_ops = cache_refreshes = score_changes = 0

    def __init__(self, cache_capacity, catalog, admission_threshold=False):
        self.counts = [0] * catalog.n_files
        self.cache = set(range(cache_capacity))
        self.admission_threshold = admission_threshold
        self.sampled_steps = 0
        self._heap = [(0, -f, f) for f in range(cache_capacity)]
        heapify(self._heap)

    def _least_frequent(self):
        heap = self._heap
        while True:
            cnt, _, f = heap[0]
            if f in self.cache and self.counts[f] == cnt:
                return cnt, f
            heappop(heap)

    def step(self, t, request, observed):
        hit = request in self.cache
        if observed:
            self.sampled_steps += 1
            c = self.counts[request] + 1
            self.counts[request] = c
            if hit:
                heappush(self._heap, (c, -request, request))
            else:
                min_count, victim = self._least_frequent()
                if not self.admission_threshold or c > min_count:
                    heappop(self._heap)
                    self.cache.remove(victim)
                    self.cache.add(request)
                    heappush(self._heap, (c, -request, request))
        return hit


class RefLru:
    heap_ops = cache_refreshes = score_changes = 0

    def __init__(self, cache_capacity, catalog):
        self._recency = OrderedDict((f, None) for f in range(cache_capacity))
        self.sampled_steps = 0

    @property
    def cache(self):
        return self._recency.keys()

    def step(self, t, request, observed):
        hit = request in self._recency
        if observed:
            self.sampled_steps += 1
            if hit:
                self._recency.move_to_end(request)
            else:
                self._recency.popitem(last=False)
                self._recency[request] = None
        return hit


def make_reference(name, config, catalog, horizon, rng, **hooks):
    if name == "lfu":
        return RefLfu(config.cache_capacity, catalog)
    if name == "lfu-threshold":
        return RefLfu(config.cache_capacity, catalog, admission_threshold=True)
    if name == "lru":
        return RefLru(config.cache_capacity, catalog)
    if name == "fpl":
        return RefNfpl("static", True, config, catalog, horizon, rng, **hooks)
    mode = {"s-nfpl": "static", "d-nfpl": "dynamic", "l-nfpl": "lazy"}[name]
    return RefNfpl(mode, False, config, catalog, horizon, rng, **hooks)


def make_subject(name, config, catalog, horizon, rng, **hooks):
    if name == "lfu-threshold":
        return LfuPolicy(config.cache_capacity, catalog, admission_threshold=True)
    return make_policy(name, config, catalog, horizon, rng, **hooks)


def state(policy, with_gamma=True) -> tuple:
    """Counters, cache and counts, plus an NFPL policy's tracker scores, heap
    layout and noise. Lazy noise is compared only at batch boundaries: in
    between, the reference still holds the previous boundary's offsets."""
    counts = getattr(policy, "counts", [])  # LRU keeps none
    tracker = getattr(policy, "tracker", None)  # NFPL only; d-nfpl has none
    gamma = getattr(policy, "gamma", None)
    return (
        set(policy.cache),
        policy.heap_ops,
        policy.cache_refreshes,
        policy.sampled_steps,
        policy.score_changes,
        list(counts) if isinstance(counts, list) else counts.tolist(),
        None if tracker is None else (list(tracker.scores), list(tracker.heap)),
        None if gamma is None or not with_gamma else gamma.tolist(),
    )


# ---------------------------------------------------------------- properties

NAMES = ("s-nfpl", "l-nfpl", "d-nfpl", "fpl", "lfu", "lru", "lfu-threshold")


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 25))
    c = draw(st.integers(1, n - 1))
    horizon = draw(st.integers(1, 400))
    batch = draw(st.integers(1, 6))
    sampling = draw(st.sampled_from(("bernoulli", "fixed")))
    kw = {}
    if sampling == "fixed":
        kw["fixed_per_batch"] = draw(st.integers(1, batch))
    else:
        kw["sample_prob"] = draw(st.sampled_from((0.3, 0.7, 1.0)))
    config = PolicyConfig(
        cache_capacity=c,
        batch_size=batch,
        observe_prob=draw(st.sampled_from((0.5, 1.0))),
        eta=draw(st.sampled_from((0.5, 1.0, 3.0, 7.5))),
        **kw,
    )
    # small alphabets and a skewed trace make ties in counts and noise common
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    requests = (rng.zipf(1.3, horizon) % n).tolist()
    observed = (rng.random(horizon) < config.observe_prob).tolist()
    cuts = sorted(set(draw(st.lists(st.integers(1, horizon), max_size=8))) - {horizon})
    return n, config, requests, observed, [0, *cuts, horizon]


def check_blocks_against_reference(name, scenario, seed, **hooks):
    n, config, requests, observed, bounds = scenario
    catalog = Catalog(n)
    horizon = len(requests)
    ref = make_reference(name, config, catalog, horizon, spawn_stream(seed, 1), **hooks)
    pol = make_subject(name, config, catalog, horizon, spawn_stream(seed, 1), **hooks)

    def with_gamma(t):
        return name != "l-nfpl" or t % config.batch_size == 0

    ref_misses = []  # cumulative misses after each request
    ref_states = {}
    total = 0
    for t, (f, obs) in enumerate(zip(requests, observed), start=1):
        total += not ref.step(t, f, obs)
        ref_misses.append(total)
        if t in bounds:
            ref_states[t] = state(ref, with_gamma(t))

    total = 0
    for lo, hi in zip(bounds, bounds[1:]):
        total += pol.run_block(lo, np.asarray(requests[lo:hi]), np.asarray(observed[lo:hi]))
        assert total == ref_misses[hi - 1]
        assert state(pol, with_gamma(hi)) == ref_states[hi]
        assert len(pol.cache) == config.cache_capacity
    return pol


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(NAMES), scenario=scenarios(), seed=st.integers(0, 10**6))
def test_run_block_matches_per_request_reference(name, scenario, seed):
    check_blocks_against_reference(name, scenario, seed)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(("l-nfpl", "s-nfpl", "fpl")), scenario=scenarios(),
       seed=st.integers(0, 10**6), data=st.data())
def test_noise_on_a_half_integer_lattice(name, scenario, seed, data):
    # gamma0 in {0, 0.5} makes ties between perturbed counts common, and
    # puts lazy grid points gamma0 + eta * k exactly on integer counts or
    # halfway between them, where a count meets its grid line with no
    # rounding slack
    n, config, requests, observed, bounds = scenario
    eta = data.draw(st.sampled_from((0.5, 1.0, 2.0, 3.0)))
    offsets = [g for g in (0.0, 0.5) if g < eta]
    gamma0 = data.draw(st.lists(st.sampled_from(offsets), min_size=n, max_size=n))
    config = replace(config, eta=eta)
    if data.draw(st.booleans()):  # B = 1, where lazy noise skips files below the grid
        config = replace(config, batch_size=1, fixed_per_batch=config.fixed_per_batch and 1)
    scenario = (n, config, requests, observed, bounds)
    check_blocks_against_reference(name, scenario, seed, gamma0=gamma0)


@pytest.mark.parametrize("seed", range(3))
def test_lazy_refresh_bump_order_at_large_batches(seed):
    # several files cross a grid line in one batch of 10, and heap_ops and
    # the heap layout depend on the order in which the refresh bumps them
    n, horizon = 150, 3000
    config = PolicyConfig(cache_capacity=12, batch_size=10, eta=3.0)
    rng = np.random.default_rng(seed)
    requests = (rng.zipf(1.2, horizon) % n).tolist()
    scenario = (n, config, requests, [True] * horizon, [0, 1234, horizon])
    check_blocks_against_reference("l-nfpl", scenario, seed)


@pytest.mark.parametrize(
    "n, horizon, batch, eta, p, sampling, seed",
    [
        (50, 2000, 5, 0.5, 1.0, {"sample_prob": 0.7}, 0),
        (80, 3000, 7, 0.75, 0.5, {"sample_prob": 0.5}, 1),
        (120, 5000, 20, 1.0, 0.5, {}, 2),
        (200, 4000, 10, 1.5, 0.5, {"fixed_per_batch": 3}, 3),
        (300, 5000, 50, 2.0, 1.0, {"fixed_per_batch": 10}, 4),
    ],
)
def test_dynamic_refresh_over_long_runs_ranks_only_candidates(
    monkeypatch, n, horizon, batch, eta, p, sampling, seed
):
    # Long enough for the counts to spread more than eta apart, so that
    # refreshes exclude files and draw a strict prefix of the noise; the
    # reference still draws and ranks all N files. Cuts fall mid-batch, and
    # each one compares misses, counts, the cache and the full gamma.
    draws = []
    prefix = RngStream.random_prefix

    def spy(stream, m, size):
        draws.append((m, size))
        return prefix(stream, m, size)

    monkeypatch.setattr(RngStream, "random_prefix", spy)
    config = PolicyConfig(cache_capacity=max(2, n // 20), batch_size=batch, observe_prob=p,
                          eta=eta, **sampling)
    rng = np.random.default_rng(seed)
    requests = (rng.zipf(1.2, horizon) % n).tolist()
    observed = (rng.random(horizon) < p).tolist()
    cuts = sorted({int(x) for x in rng.integers(1, horizon, 12)} - {horizon})
    assert any(cut % batch for cut in cuts)
    scenario = (n, config, requests, observed, [0, *cuts, horizon])
    pol = check_blocks_against_reference("d-nfpl", scenario, seed)
    assert len(pol._candidates) < n
    assert any(0 < m < n for m, size in draws if size == n)


def test_lfu_heap_stays_at_capacity_over_a_long_trace():
    n, c, t = 120, 100, 1_000_000
    trace = gen_zipf(Catalog(n), t, 1.0, spawn_stream(0, 2))
    observed = spawn_stream(0, 0).bernoulli(0.5, t).tolist()
    pol = LfuPolicy(c, Catalog(n))
    pol.run_block(0, trace.requests, np.asarray(observed))
    heap = pol._heap
    assert len(heap) == c
    assert {n - 1 - key % n for key in heap} == pol.cache
    # a hit leaves its key behind: a stored key may lag but never lead
    assert all(key <= pol.counts[n - 1 - key % n] * n + key % n for key in heap)


def test_sampling_bits_refill_across_chunks():
    # Bernoulli bits come in chunks of 8192; cross several chunk edges
    # with block edges that do not line up with them
    n, horizon = 40, 30_000
    config = PolicyConfig(cache_capacity=5, batch_size=3, sample_prob=0.4, eta=4.0)
    trace = gen_zipf(Catalog(n), horizon, 1.0, spawn_stream(1, 2)).requests.tolist()
    observed = spawn_stream(1, 0).bernoulli(0.8, horizon).tolist()
    ref = make_reference("l-nfpl", config, Catalog(n), horizon, spawn_stream(1, 1))
    pol = make_policy("l-nfpl", config, Catalog(n), horizon, spawn_stream(1, 1))
    want = sum(not ref.step(t, f, obs) for t, (f, obs) in enumerate(zip(trace, observed), 1))
    got = 0
    bounds = [0, 7_001, 12_345, 25_000, horizon]
    for lo, hi in zip(bounds, bounds[1:]):
        got += pol.run_block(lo, np.asarray(trace[lo:hi]), np.asarray(observed[lo:hi]))
    assert got == want
    assert state(pol) == state(ref)


@pytest.mark.parametrize("name", ("s-nfpl", "fpl", "l-nfpl"))
@pytest.mark.parametrize("p, q", [(0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)])
def test_unbatched_loop_over_a_long_run(name, p, q):
    # B = 1 over a catalog deep enough for inner heap nodes and frequent
    # swaps; random cuts include one-request blocks fed through step(), and
    # each cut compares misses, counters, cache, counts, scores and heap
    n, c, horizon = 400, 40, 20_000
    config = PolicyConfig(cache_capacity=c, batch_size=1, observe_prob=p, sample_prob=q,
                          eta=default_eta(1, c, horizon))
    catalog = Catalog(n)
    requests = gen_zipf_rr(catalog, horizon, 1.0, spawn_stream(3, 2)).requests.tolist()
    observed = spawn_stream(3, 0).bernoulli(p, horizon).tolist()
    rng = np.random.default_rng(int(p * 10 + q))
    cuts = {int(x) for x in rng.integers(1, horizon - 1, 40)}
    cuts |= {x + 1 for x in list(cuts)[:15]}  # a one-request block after each
    bounds = [0, *sorted(cuts), horizon]
    ref = make_reference(name, config, catalog, horizon, spawn_stream(3, 1))
    pol = make_policy(name, config, catalog, horizon, spawn_stream(3, 1))

    want = got = swaps = 0
    for lo, hi in zip(bounds, bounds[1:]):
        for t in range(lo + 1, hi + 1):
            before = set(ref.cache)
            want += not ref.step(t, requests[t - 1], observed[t - 1])
            swaps += set(ref.cache) != before
        if hi - lo == 1:
            got += not pol.step(hi, requests[lo], observed[lo]).hit
        else:
            got += pol.run_block(lo, np.asarray(requests[lo:hi]), np.asarray(observed[lo:hi]))
        assert got == want
        assert state(pol) == state(ref)
    assert swaps > 100
    assert pol.heap_ops > swaps
