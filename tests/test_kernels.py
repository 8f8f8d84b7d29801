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
from nfplcache.metrics import default_checkpoints
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
            self.cache = set(self.tracker.heap)

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

    def __init__(self, cache_capacity, catalog):
        self.counts = [0] * catalog.n_files
        self.cache = set(range(cache_capacity))
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
                _, victim = self._least_frequent()
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
    if name == "lru":
        return RefLru(config.cache_capacity, catalog)
    if name == "fpl":
        return RefNfpl("static", True, config, catalog, horizon, rng, **hooks)
    mode = {"s-nfpl": "static", "d-nfpl": "dynamic", "l-nfpl": "lazy"}[name]
    return RefNfpl(mode, False, config, catalog, horizon, rng, **hooks)


def state(policy, with_gamma=True) -> tuple:
    """Counters, cache and counts, plus an NFPL policy's tracker scores, heap
    layout, positions and noise. Lazy noise is compared only at batch
    boundaries: in between, the reference still holds the previous
    boundary's offsets."""
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
        None if tracker is None else (list(tracker.scores), list(tracker.heap), list(tracker.pos)),
        None if gamma is None or not with_gamma else gamma.tolist(),
    )


# ---------------------------------------------------------------- properties

NAMES = ("s-nfpl", "l-nfpl", "d-nfpl", "fpl", "lfu", "lru")


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
    pol = make_policy(name, config, catalog, horizon, spawn_stream(seed, 1), **hooks)

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
        if name in ("s-nfpl", "fpl") or (name == "l-nfpl" and config.batch_size == 1):
            # the cache mask takes a swap where its batch ends, so the
            # tracker's members run ahead of the cache while a batch is open
            if hi % config.batch_size == 0:
                assert set(pol.cache) == set(pol.tracker.heap)
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


@st.composite
def unbatched_lazy_scenarios(draw):
    """l-nfpl at B = 1 cut into one-request blocks and blocks of hundreds,
    some with no observed or no counted request, and eta down to 0.05, so
    that one file crosses several grid lines in a block."""
    n = draw(st.integers(2, 30))
    config = PolicyConfig(
        cache_capacity=draw(st.integers(1, n - 1)),
        batch_size=1,
        sample_prob=draw(st.sampled_from((0.3, 1.0))),
        eta=draw(st.sampled_from((0.05, 0.3, 1.0, 2.5, 7.5))),
    )
    sizes = draw(st.lists(st.sampled_from((1, 1, 2, 40, 300)), min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    horizon = sum(sizes)
    requests = (rng.zipf(1.3, horizon) % n).tolist()
    observed = []
    for size in sizes:
        share = draw(st.sampled_from((0.0, 0.5, 1.0)))  # 0: a block with nothing counted
        observed += (rng.random(size) < share).tolist()
    return n, config, requests, observed, np.cumsum([0, *sizes]).tolist()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=unbatched_lazy_scenarios(), seed=st.integers(0, 10**6))
def test_lazy_block_kernel_matches_reference(scenario, seed):
    check_blocks_against_reference("l-nfpl", scenario, seed)


@pytest.mark.parametrize("eta", (0.5, 4.0))
def test_lazy_block_kernel_over_a_catalog_wider_than_16_bits(eta):
    # ids above 65 535 sort as uint32; the requests mix ids on both sides
    # of that line, and blocks of one request sit between long ones
    n = 70_000
    config = PolicyConfig(cache_capacity=30, batch_size=1, sample_prob=0.5, eta=eta)
    rng = np.random.default_rng(7)
    horizon = 6000
    ranks = rng.zipf(1.2, horizon) % 200
    requests = np.where(ranks % 2 == 0, n - 1 - ranks, ranks * 300).tolist()
    observed = (rng.random(horizon) < 0.8).tolist()
    bounds = [0, 1, 2, 900, 901, 3000, 3001, 3002, horizon]
    pol = check_blocks_against_reference("l-nfpl", (n, config, requests, observed, bounds), 5)
    assert pol._id_dtype == np.uint32
    assert pol.score_changes > 100


def _first_rise(policy, f, steps):
    """The count of file ``f`` at which its score first rises when ``f`` is
    requested ``steps`` times, each as a one-request block."""
    for t in range(1, steps + 1):
        policy.step(t, f, True)
        if policy.score_changes:
            return t
    return None


@pytest.mark.parametrize("eta", (0.25, 1.0, 3.0, 7.5))
def test_first_score_rise_is_at_the_first_count_above_gamma0(eta):
    # gamma0 at 0, on whole numbers, one ulp below eta and on the
    # half-integer lattice: where a count meets its grid line exactly, the
    # score must not rise until the count passes it
    values = {0.0, float(np.nextafter(eta, 0.0))}
    values |= {float(k) for k in range(int(eta) + 1)} | {k + 0.5 for k in range(int(eta) + 1)}
    config = PolicyConfig(cache_capacity=1, batch_size=1, eta=eta)
    for g0 in sorted(v for v in values if v < eta):
        first = math.floor(g0) + 1
        gamma0 = [g0, 0.0]
        pol = make_policy("l-nfpl", config, Catalog(2), first + 1, spawn_stream(0, 1),
                          gamma0=gamma0)
        assert pol._next[0] == first
        assert _first_rise(pol, 0, first + 1) == first, g0
        ref = make_reference("l-nfpl", config, Catalog(2), first + 1, spawn_stream(0, 1),
                             gamma0=gamma0)
        assert _first_rise(ref, 0, first + 1) == first, g0


def _shared_multi_rise_batches(n, config, requests, cuts, seed):
    """The number of the reference's batches in which two or more files
    rise and which a cut splits after a counted request, so that the set
    of the batch's files began in an earlier block."""
    ref = make_reference("l-nfpl", config, Catalog(n), len(requests), spawn_stream(seed, 1))
    batch = config.batch_size
    found = 0
    split = False
    for t, f in enumerate(requests, start=1):
        before = list(ref.tracker.scores)
        ref.step(t, f, True)
        if t % batch:
            split = split or (t in cuts and bool(ref._dirty))
            continue
        rises = sum(s > s0 for s, s0 in zip(ref.tracker.scores, before))
        found += split and rises >= 2
        split = False
    return found


BUMP_ORDER = [
    *(pytest.param(10, seed, id=str(seed)) for seed in range(3)),
    *(pytest.param(64, seed, id=f"B64-{seed}") for seed in range(3)),
]


@pytest.mark.parametrize("batch, seed", BUMP_ORDER)
def test_lazy_refresh_bump_order_at_large_batches(batch, seed):
    # several files cross a grid line in one batch, and heap_ops and the
    # heap layout depend on the order in which the refresh bumps them;
    # random cuts fall inside batches, so some of those batches begin in
    # one block and end in another
    n, horizon = 150, 3000
    config = PolicyConfig(cache_capacity=12, batch_size=batch, eta=3.0)
    rng = np.random.default_rng(seed)
    requests = (rng.zipf(1.2, horizon) % n).tolist()
    cuts = {1234} | {int(x) for x in rng.integers(1, horizon, 40) if x % batch}
    assert _shared_multi_rise_batches(n, config, requests, cuts, seed) >= 1
    scenario = (n, config, requests, [True] * horizon, [0, *sorted(cuts), horizon])
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


def _check_lfu_heap(pol, n, c):
    heap = pol._heap
    assert len(heap) == c
    assert {n - 1 - key % n for key in heap} == pol.cache
    # a hit leaves its key behind: a stored key may lag but never lead
    assert all(key <= pol.counts[n - 1 - key % n] * n + key % n for key in heap)


def test_lfu_heap_stays_at_capacity_over_a_long_trace():
    n, c, t = 120, 100, 1_000_000
    trace = gen_zipf(Catalog(n), t, 1.0, spawn_stream(0, 2))
    observed = spawn_stream(0, 0).bernoulli(0.5, t).tolist()
    pol = LfuPolicy(c, Catalog(n))
    pol.run_block(0, trace.requests, np.asarray(observed))
    _check_lfu_heap(pol, n, c)


def test_lfu_heap_stays_at_capacity_at_run_one_cuts():
    # one block from t = 0 settles no member: every count starts at 0. Cut
    # where run_one cuts, most blocks of at least N requests settle members,
    # whose keys the loop leaves behind at their counts from the block's start.
    n, c, t = 120, 100, 1_000_000
    trace = gen_zipf(Catalog(n), t, 1.0, spawn_stream(0, 2))
    observed = spawn_stream(0, 0).bernoulli(0.5, t)
    pol = LfuPolicy(c, Catalog(n))
    lo = 0
    for hi in sorted({*range(65_536, t, 65_536), *default_checkpoints(t), t}):
        pol.run_block(lo, trace.requests[lo:hi], observed[lo:hi])
        _check_lfu_heap(pol, n, c)
        lo = hi


@st.composite
def long_lfu_scenarios(draw):
    """Long skewed traces in small catalogs at C >= N/2, cut into blocks of
    at least N requests, so that LFU's screen runs on every block."""
    n = draw(st.integers(3, 40))
    c = draw(st.integers((n + 1) // 2, n - 1))
    horizon = draw(st.integers(1_000, 20_000))
    p = draw(st.sampled_from((0.5, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    requests = rng.zipf(1.3, horizon) % n
    observed = rng.random(horizon) < p
    bounds = [0]
    for cut in sorted(draw(st.lists(st.integers(1, horizon), max_size=12))):
        if cut - bounds[-1] >= n and horizon - cut >= n:
            bounds.append(cut)
    return n, c, requests, observed, [*bounds, horizon]


def test_lfu_screen_settles_only_members_no_miss_evicts():
    settled_total = []

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=long_lfu_scenarios())
    def check(scenario):
        n, c, requests, observed, bounds = scenario
        ref = RefLfu(c, Catalog(n))
        pol = LfuPolicy(c, Catalog(n))
        for lo, hi in zip(bounds, bounds[1:]):
            block, bits = requests[lo:hi], observed[lo:hi]
            settled = set(pol._settle(block, bits)[0].tolist())
            settled_total.append(len(settled))
            misses = 0
            for t, (f, obs) in enumerate(zip(block.tolist(), bits.tolist()), lo + 1):
                assert settled <= ref.cache
                misses += not ref.step(t, f, obs)
            assert settled <= ref.cache
            assert pol.run_block(lo, block, bits) == misses
            assert pol.cache == ref.cache
            assert pol.counts == ref.counts
            assert pol.sampled_steps == ref.sampled_steps

    check()
    assert sum(settled_total) > 0


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


def _grid_value(ref, f):
    """The reference's lazy score of file ``f`` at its current count."""
    g0 = ref.gamma0[f]
    return g0 + ref.eta * math.ceil((int(ref.counts[f]) - g0) / ref.eta)


PQ = [(0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)]
LONG_RUNS = [
    *(pytest.param(name, p, q, 1, None, id=f"{p}-{q}-{name}")
      for name in ("s-nfpl", "fpl", "l-nfpl") for p, q in PQ),
    *(pytest.param(name, p, q, 7, None, id=f"B7-{p}-{q}-{name}")
      for name in ("s-nfpl", "fpl", "l-nfpl") for p, q in PQ),
    *(pytest.param(name, p, 1.0, 7, 3, id=f"B7-b3-{p}-{name}")
      for name in ("s-nfpl", "fpl", "l-nfpl") for p in (0.5, 1.0)),
]


@pytest.mark.parametrize("name, p, q, batch, fixed", LONG_RUNS)
def test_unbatched_loop_over_a_long_run(name, p, q, batch, fixed):
    # A catalog deep enough for inner heap nodes and frequent swaps; random
    # cuts include one-request blocks fed through step(), and each cut
    # compares misses, counters, cache, counts, scores and heap. At B > 1 a
    # block also ends wherever a swap waits for the end of its batch (at
    # most ten times), so that the next block must apply it; under lazy
    # noise, wherever a counted file's grid value has passed its score and
    # the rise waits for the end of the batch.
    n, c, horizon = 400, 40, 20_000
    sampling = {"sample_prob": q} if fixed is None else {"fixed_per_batch": fixed}
    config = PolicyConfig(cache_capacity=c, batch_size=batch, observe_prob=p,
                          eta=default_eta(batch, c, horizon), **sampling)
    catalog = Catalog(n)
    requests = gen_zipf_rr(catalog, horizon, 1.0, spawn_stream(3, 2)).requests.tolist()
    observed = spawn_stream(3, 0).bernoulli(p, horizon).tolist()
    rng = np.random.default_rng(int(p * 10 + q))
    cuts = {int(x) for x in rng.integers(1, horizon - 1, 40)}
    cuts |= {x + 1 for x in list(cuts)[:15]}  # a one-request block after each
    cuts.add(horizon)
    ref = make_reference(name, config, catalog, horizon, spawn_stream(3, 1))
    pol = make_policy(name, config, catalog, horizon, spawn_stream(3, 1))

    want = got = swaps = waits = lo = 0
    for hi in range(1, horizon + 1):
        before = set(ref.cache)
        want += not ref.step(hi, requests[hi - 1], observed[hi - 1])
        swaps += set(ref.cache) != before
        if name == "l-nfpl":
            waiting = bool(hi % batch) and any(_grid_value(ref, f) > ref.tracker.scores[f]
                                               for f in ref._dirty)
        else:
            waiting = bool(hi % batch and ref._pending)
        if hi not in cuts and not (waiting and waits < 10):
            continue
        waits += waiting
        if hi - lo == 1:
            got += not pol.step(hi, requests[lo], observed[lo]).hit
        else:
            got += pol.run_block(lo, np.asarray(requests[lo:hi]), np.asarray(observed[lo:hi]))
        lo = hi
        assert got == want
        # mid-batch, the lazy reference still holds the last boundary's offsets
        with_gamma = name != "l-nfpl" or hi % batch == 0
        assert state(pol, with_gamma) == state(ref, with_gamma)
        if waiting and name == "l-nfpl":  # the tracker waits with the cache
            assert set(pol.cache) == set(pol.tracker.heap)
            assert set(pol.cache) == set(np.flatnonzero(pol._in_cache).tolist())
        elif waiting:
            assert set(pol.cache) != set(pol.tracker.heap)
    assert swaps > (100 if batch == 1 else 50)
    assert pol.heap_ops > swaps
    assert waits >= 10 if batch > 1 else waits == 0
