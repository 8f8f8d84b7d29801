"""Cache policies: the noisy perturbed-leader family plus LFU and LRU.

The perturbed-leader policy keeps approximate request counts and stores the
C files with the largest perturbed counts ``counts + gamma``. A request is
counted only when its observation bit and the policy's own sampling bit
(Bernoulli(q), or exactly b per batch) are both set. The cache is recomputed
only at batch boundaries, and only when the batch contributed at least one
counted request. The three noise couplings share that skeleton:

* ``static``  - gamma stays at its initial draw; the top-C view is
  maintained incrementally through a heap.
* ``dynamic`` - gamma is redrawn i.i.d. at every refresh; the top-C is
  recomputed in full (:func:`~nfplcache.topk.top_c_indices`).
* ``lazy``    - gamma is the unique value in [0, eta) that keeps
  ``counts + gamma`` on the grid ``gamma0 + eta * Z``; the perturbed
  count of a file moves only when its count crosses a grid line, so
  most refreshes touch nothing. Only the perturbed counts are stored:
  ``gamma`` reads as ``scores - counts``, which at every batch boundary
  is that value.

Every argmax breaks ties toward the lower file id.

The counted path makes no call when nothing can move. Static noise and LFU
hits raise a score in place through :class:`~nfplcache.topk.TopCTracker`'s
increase-key protocol; the tracker is called only to sift a member at an
inner heap node or to swap in a non-member that beats the weakest member.
At B = 1 lazy noise sends a counted file to the refresh only when its count
may have crossed its grid line.

Each policy's one simulation loop is ``run_block(t0, requests, observed)``,
which feeds a block of requests and returns its misses; where the blocks
end, and so where miss ratios are read, is up to the caller.
``step`` is a one-request block that returns a :class:`PolicyStep`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .core import Catalog, PolicyConfig, RngStream
from .topk import TopCTracker, top_c_indices

POLICY_NAMES = ("s-nfpl", "d-nfpl", "l-nfpl", "fpl", "lfu", "lru")


class PolicyStep(NamedTuple):
    """Outcome of feeding one request to a policy through ``step()``."""

    request: int
    observed: bool
    hit: bool
    cache_after: object  # live view of the cache; copy before mutating anything


class _BlockPolicy:
    """The per-request entry point shared by every policy.

    A policy implements ``run_block(t0, requests, observed) -> misses``: one
    loop over requests t0+1 .. t0+len(requests), given as sequences of file
    ids and observation bits, with its state bound to locals; it scores each
    request against the cache it finds and then updates.
    """

    def step(self, t: int, request: int, observed: bool) -> PolicyStep:
        """Feed the single request number ``t``; a one-request block."""
        misses = self.run_block(t - 1, (request,), (observed,))
        return PolicyStep(request, observed, misses == 0, self.cache)


class NfplPolicy(_BlockPolicy):
    """Noisy perturbed-leader caching over a fixed horizon.

    ``_counted`` makes the whole sampling decision for a block.
    ``gamma0`` and ``beta`` are test hooks that bypass the stream draws:
    ``gamma0`` injects the initial noise vector, ``beta`` a full per-step
    sampling schedule. ``ignore_mask`` makes the policy count every
    request regardless of the observation bit (full-observation mode).
    """

    def __init__(
        self,
        config: PolicyConfig,
        catalog: Catalog,
        horizon: int,
        rng: RngStream,
        *,
        gamma0=None,
        beta=None,
        ignore_mask: bool = False,
    ):
        n = catalog.n_files
        if config.cache_capacity >= n:
            raise ValueError(
                f"cache capacity {config.cache_capacity} must be below "
                f"catalog size {n}"
            )
        if horizon < 1:
            raise ValueError("horizon must be positive")
        self.config = config
        self.n_files = n
        self.horizon = horizon
        self.eta = config.eta
        self._rng = rng
        self._ignore_mask = ignore_mask
        self._batch = config.batch_size
        self._mode = config.noise_mode

        if gamma0 is None:
            gamma0 = rng.uniform(0.0, self.eta, n)
        gamma0 = np.asarray(gamma0, dtype=float)
        if gamma0.shape != (n,):
            raise ValueError(f"gamma0 must have one entry per file, got {gamma0.shape}")
        if gamma0.min() < 0.0 or gamma0.max() >= self.eta:
            raise ValueError("gamma0 entries must lie in [0, eta)")
        self.gamma0 = gamma0

        # Sampling bits live on their own substream, drawn block by block
        # (or per batch in fixed mode), so policy state stays O(N+C)
        # whatever the horizon.
        self._beta_rng = rng.substream(1)
        self._beta = None
        self._batch_bits: list[bool] = []
        self._drawn_batch = -1
        if beta is not None:
            beta = np.asarray(beta, dtype=bool)
            if beta.shape != (horizon,):
                raise ValueError("beta schedule must cover the whole horizon")
            self._beta = beta.tolist()

        # Counts and noise are plain lists for the kernel; the ``counts``
        # and ``gamma`` properties give numpy copies. Only the dynamic
        # refresh replaces the noise; lazy mode reads it as its grid.
        self._counts = [0] * n
        self._gamma = gamma0.tolist()
        self.flag = False
        self.cache_refreshes = 0
        self.sampled_steps = 0
        self.score_changes = 0
        self._t = 0
        self._dirty: set[int] = set()  # lazy: files the next refresh checks
        self._pending: list[tuple[int, int]] = []  # (evicted, admitted) not yet applied
        self._unsynced: list[int] = []  # dynamic: counted ids not yet in _counts_np

        if self._mode == "dynamic":
            self.tracker = None
            # int64 mirror of the counts for the refresh's vector sum
            self._counts_np = np.zeros(n, dtype=np.int64)
            self.cache = set(top_c_indices(gamma0, config.cache_capacity).tolist())
        else:
            self.tracker = TopCTracker(self._gamma, config.cache_capacity)
            self.cache = self.tracker.members()

    @property
    def counts(self) -> np.ndarray:
        return np.array(self._counts, dtype=np.int64)

    @property
    def gamma(self) -> np.ndarray:
        if self._mode == "lazy":
            # the perturbed count less the count; at a batch boundary this
            # is the offset in [0, eta) that puts the count on its grid
            return np.array(self.tracker.scores) - self.counts
        return np.array(self._gamma, dtype=float)

    @property
    def heap_ops(self) -> int:
        return self.tracker.op_counter if self.tracker is not None else 0

    def _counted(self, t0: int, observed):
        """Counted bits of requests t0+1 .. t0+len(observed): observed
        (every request, for fpl) and sampled. Only observed requests draw a
        sampling bit: Bernoulli(q), or b of each batch's B positions drawn
        without replacement when the batch first needs a bit (a trailing
        partial batch is truncated)."""
        if self._ignore_mask:
            observed = [True] * len(observed)
        beta = self._beta
        if beta is not None:
            return [o and beta[t] for t, o in enumerate(observed, t0)]
        b = self.config.fixed_per_batch
        if b is None:
            q = self.config.sample_prob
            if q >= 1.0:
                return observed
            bits = iter(self._beta_rng.bernoulli(q, sum(observed)).tolist())
            return [o and next(bits) for o in observed]
        batch = self._batch
        if b == batch:
            return observed
        counted = []
        for t, o in enumerate(observed, t0):
            if o:
                i = t // batch
                if i != self._drawn_batch:
                    bits = [False] * batch
                    for pos in self._beta_rng.permutation(batch)[:b]:
                        bits[pos] = True
                    self._batch_bits = bits
                    self._drawn_batch = i
                o = self._batch_bits[t % batch]
            counted.append(o)
        return counted

    def _redraw(self) -> set[int]:
        """Dynamic refresh: fresh noise, then the top C of counts + noise."""
        gamma = self._rng.uniform(0.0, self.eta, self.n_files)
        self._gamma = gamma
        np.add.at(self._counts_np, self._unsynced, 1)
        self._unsynced.clear()
        top = top_c_indices(self._counts_np + gamma, self.config.cache_capacity)
        return set(top.tolist())

    def run_block(self, t0: int, requests, observed) -> int:
        if t0 != self._t:
            raise ValueError(
                f"steps must arrive in order: expected t={self._t + 1}, got {t0 + 1}"
            )
        t = t0
        end = t0 + len(requests)
        if end > self.horizon:
            raise ValueError(f"t={end} beyond horizon {self.horizon}")
        cache = self.cache
        counts = self._counts
        static = self._mode == "static"
        lazy = self._mode == "lazy"
        tracker = self.tracker
        if tracker is not None:
            bump = tracker.bump
            scores = tracker.scores
            heap = tracker.heap
            pos = tracker.pos
            sift_down = tracker.sift_down
            inner = len(heap) // 2  # heap[i] is a leaf from here on
        unsynced = self._unsynced
        pending = self._pending
        dirty = self._dirty
        grid = self._gamma  # lazy: gamma0, never rewritten
        eta = self.eta
        ceil = math.ceil
        batch = self._batch
        every_counted = batch > 1
        boundary = (t // batch + 1) * batch
        flag = self.flag
        misses = sampled = changes = refreshes = ops = 0

        for f, counted in zip(requests, self._counted(t0, observed)):
            t += 1
            if f not in cache:
                misses += 1
            if counted:
                counts[f] += 1
                sampled += 1
                flag = True
                if static:
                    # the tracker's increase-key protocol: a call only
                    # when the heap can move
                    changes += 1
                    s = scores[f] + 1.0
                    if f < 0:
                        bump(f, s)  # rejects the id
                    i = pos[f]
                    if i >= 0:
                        scores[f] = s
                        ops += 1
                        if i < inner:
                            sift_down(i)
                    else:
                        root = heap[0]
                        rs = scores[root]
                        if s < rs or (s == rs and f > root):
                            scores[f] = s
                        else:
                            pending.append(bump(f, s))
                elif lazy:
                    # At B = 1 a file joins only if its count may have
                    # crossed its grid line gamma0 + eta * k, its score s:
                    # a count c <= s - 0.5 keeps ceil((c - gamma0) / eta)
                    # <= k, as rounding moves that quotient by far less
                    # than 0.5 / eta for scores below 2**50. At B > 1 every
                    # counted file joins: the refresh bumps in the set's
                    # iteration order, heap_ops depend on that order, and
                    # a set of the crossing files alone can iterate in
                    # another order than the set of all counted files.
                    if every_counted or counts[f] + 0.5 > scores[f]:
                        dirty.add(f)
                else:
                    unsynced.append(f)
            if t == boundary:
                boundary += batch
                if flag:
                    flag = False
                    refreshes += 1
                    if lazy:
                        # move each such file back onto its grid; the
                        # score rises only when the count crossed a line
                        if dirty:
                            for g in dirty:
                                g0 = grid[g]
                                new_score = g0 + eta * ceil((counts[g] - g0) / eta)
                                if new_score > scores[g]:
                                    changes += 1
                                    swap = bump(g, new_score)
                                    if swap[0] is not None:
                                        pending.append(swap)
                            dirty.clear()
                    elif not static:
                        cache = self.cache = self._redraw()
                    if pending:
                        for evicted, admitted in pending:
                            cache.discard(evicted)
                            cache.add(admitted)
                        pending.clear()

        self._t = t
        self.flag = flag
        self.sampled_steps += sampled
        self.score_changes += changes
        self.cache_refreshes += refreshes
        if tracker is not None:
            tracker.op_counter += ops
        return misses


class LfuPolicy(_BlockPolicy):
    """Evict-least-frequent under partial observation.

    Counts use observed requests only. On an observed miss the requested
    file displaces the least-frequent cached file (ties evicting the
    higher id). With ``admission_threshold`` set, the swap happens only
    when the candidate's count strictly exceeds the smallest cached
    count, which protects established files on churning traces. Starts
    with files 0..C-1 cached.

    The cached files and their counts sit in a :class:`TopCTracker`, whose
    root is the next victim, so the heap holds exactly C entries.
    """

    heap_ops = 0  # the tracker's heap work is not reported yet
    cache_refreshes = 0
    score_changes = 0

    def __init__(
        self,
        cache_capacity: int,
        catalog: Catalog,
        admission_threshold: bool = False,
    ):
        if cache_capacity >= catalog.n_files:
            raise ValueError("cache capacity must be below catalog size")
        self.counts = [0] * catalog.n_files
        self.cache = set(range(cache_capacity))
        self.admission_threshold = admission_threshold
        self.sampled_steps = 0
        self._tracker = TopCTracker([0] * catalog.n_files, cache_capacity)

    def run_block(self, t0: int, requests, observed) -> int:
        cache = self.cache
        counts = self.counts
        tracker = self._tracker
        replace_min = tracker.replace_min
        scores = tracker.scores
        heap = tracker.heap
        pos = tracker.pos
        sift_down = tracker.sift_down
        inner = len(heap) // 2  # heap[i] is a leaf from here on
        threshold = self.admission_threshold
        misses = sampled = ops = 0
        for f, obs in zip(requests, observed):
            hit = f in cache
            if not hit:
                misses += 1
            if obs:
                sampled += 1
                c = counts[f] + 1
                counts[f] = c
                if hit:
                    if f < 0:
                        tracker.bump(f, c)  # rejects the id
                    # the tracker's increase-key protocol for a member
                    scores[f] = c
                    ops += 1
                    i = pos[f]
                    if i < inner:
                        sift_down(i)
                elif not threshold or c > scores[heap[0]]:
                    cache.remove(replace_min(f, c))
                    cache.add(f)
        self.sampled_steps += sampled
        tracker.op_counter += ops
        return misses


class LruPolicy(_BlockPolicy):
    """Evict-least-recently-used; recency moves on observed requests only."""

    heap_ops = 0
    cache_refreshes = 0
    score_changes = 0

    def __init__(self, cache_capacity: int, catalog: Catalog):
        if cache_capacity >= catalog.n_files:
            raise ValueError("cache capacity must be below catalog size")
        self._recency = OrderedDict((f, None) for f in range(cache_capacity))
        self.sampled_steps = 0

    @property
    def cache(self):
        return self._recency.keys()

    def run_block(self, t0: int, requests, observed) -> int:
        recency = self._recency
        to_front = recency.move_to_end
        pop_oldest = recency.popitem
        misses = sampled = 0
        for f, obs in zip(requests, observed):
            hit = f in recency
            if not hit:
                misses += 1
            if obs:
                sampled += 1
                if hit:
                    to_front(f)
                else:
                    pop_oldest(False)
                    recency[f] = None
        self.sampled_steps += sampled
        return misses


def make_policy(
    name: str,
    config: PolicyConfig,
    catalog: Catalog,
    horizon: int,
    rng: RngStream,
    **hooks,
):
    """Build a policy instance from its CLI name."""
    if name == "lfu":
        return LfuPolicy(config.cache_capacity, catalog)
    if name == "lru":
        return LruPolicy(config.cache_capacity, catalog)
    if name == "fpl":
        cfg = replace(config, noise_mode="static")
        return NfplPolicy(cfg, catalog, horizon, rng, ignore_mask=True, **hooks)
    mode = {"s-nfpl": "static", "d-nfpl": "dynamic", "l-nfpl": "lazy"}.get(name)
    if mode is None:
        raise ValueError(f"unknown policy {name!r}; valid names: {', '.join(POLICY_NAMES)}")
    return NfplPolicy(replace(config, noise_mode=mode), catalog, horizon, rng, **hooks)
