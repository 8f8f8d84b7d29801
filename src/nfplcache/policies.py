"""Cache policies: the noisy perturbed-leader family plus LFU and LRU.

The perturbed-leader policy keeps approximate request counts and stores the
C files with the largest perturbed counts ``counts + gamma``. A request is
counted only when its observation bit and the policy's own sampling bit
(Bernoulli(q), or exactly b per batch) are both set. The cache is recomputed
only at batch boundaries, and only when the batch contributed at least one
counted request. The three noise couplings share that skeleton:

* ``static``  - gamma stays at its initial draw; the top-C view is
  maintained incrementally through a heap.
* ``dynamic`` - gamma is redrawn i.i.d. at every refresh, and the top-C
  is ranked afresh (:func:`~nfplcache.topk.top_c_indices`). Only the
  files that can still enter the cache are ranked: at least C files
  count a floor or more, so a file with
  ``count + eta < floor`` ranks below them whatever its noise. Only files
  up to the last such candidate draw their noise; the stream skips the
  rest, and ``gamma`` replays the full draw when it is read. The cache is
  a boolean mask of N entries, set and cleared at each refresh; the set
  ``cache`` is built from the top C only when it is read.
* ``lazy``    - gamma is the unique value in [0, eta) that keeps
  ``counts + gamma`` on the grid ``gamma0 + eta * Z``; the perturbed
  count of a file moves only when its count crosses a grid line, so
  most refreshes touch nothing. Only the perturbed counts are stored:
  ``gamma`` reads as ``scores - counts``, which at every batch boundary
  is that value.

Every argmax breaks ties toward the lower file id.

The counted path makes no call when nothing can move. Static noise raises a
score in place through :class:`~nfplcache.topk.TopCTracker`'s increase-key
protocol; the tracker is called only to sift a member at an inner heap node
or to swap in a non-member that beats the weakest member. An LFU hit only
raises a count: its heap keys may lag, and a miss brings the root up to date.
At B = 1 static and lazy noise run a loop of their own with no batch
bookkeeping: every counted request is its own refresh, so a swap goes into
the cache at once, and lazy noise re-grids a counted file inline, only when
its count may have crossed its grid line. Dynamic noise changes its cache
only at the end of a batch that counted a request, so it scores and counts
the requests in between without a per-request Python loop: a stretch of
requests is scored as the number of true entries of the cache mask at
their ids, and its counted ids wait as a slice of the block's counted ids
for the refresh.

Each policy's one simulation loop is ``run_block(t0, requests, observed)``,
which feeds a block of requests and returns its misses; where the blocks
end, and so where miss ratios are read, is up to the caller. A block is a
pair of numpy arrays, the file ids (int) and the observation bits (bool),
which may be views of the caller's arrays; they are neither written nor
kept once the block returns. The per-request loops (static and lazy noise,
LFU, LRU) turn them into lists when they start; dynamic noise reads them
as arrays. ``step`` is a one-request block that returns a
:class:`PolicyStep`. Whatever the policy, ``cache`` holds Python ints.

File ids are checked once, where they enter the program: a
:class:`~nfplcache.core.Trace` holds only ids in ``[0, N)``, and ``step``
rejects any other id before it touches the policy. ``run_block`` takes
ids in ``[0, N)`` as its precondition and checks none of them, as
:class:`~nfplcache.topk.TopCTracker`'s increase-key protocol leaves the
check to its caller.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from heapq import heapreplace
from typing import NamedTuple

import numpy as np

from .core import Catalog, PolicyConfig, RngStream
from .topk import TopCTracker, top_c_indices

# Each NFPL variant by name: its noise mode, and whether it counts every
# request whatever its observation bit (fpl, full observation).
NFPL_VARIANTS = {
    "s-nfpl": ("static", False),
    "d-nfpl": ("dynamic", False),
    "l-nfpl": ("lazy", False),
    "fpl": ("static", True),
}
POLICY_NAMES = (*NFPL_VARIANTS, "lfu", "lru")


class PolicyStep(NamedTuple):
    """Outcome of feeding one request to a policy through ``step()``."""

    request: int
    observed: bool
    hit: bool
    cache_after: object  # live view of the cache; copy before mutating anything


def _in_reach(counts, ids, floor, eta):
    """Which of ``ids`` can still enter a dynamic-noise cache.

    At least C files count ``floor`` or more, so they score at least
    ``floor`` whatever their noise in [0, eta), while a file with
    ``count + eta < floor`` (as rounded) scores below it. The rule must not
    be strict: ``999_999 + (1 - 2**-53)`` rounds to ``1_000_000.0``, so a
    file whose ``count + eta`` equals the floor can tie a cached file and
    win on its lower id.
    """
    return counts[ids] + eta >= floor


def _top_by_noise(counts, candidates, capacity, noise):
    """The top ``capacity`` of the sorted ids ``candidates`` under
    (count + noise desc, id asc); ``noise`` is indexed by id and needs to
    cover only the ids up to the last candidate."""
    return candidates[top_c_indices(counts[candidates] + noise[candidates], capacity)]


class _BlockPolicy:
    """The per-request entry point shared by every policy.

    A policy has ``n_files`` and implements ``run_block(t0, requests,
    observed) -> misses``: one loop over requests t0+1 .. t0+len(requests),
    given as an int array of file ids in ``[0, n_files)`` and a bool array
    of observation bits, with its state bound to locals; it scores each
    request against the cache it finds and then updates. It keeps no
    reference to either array once it returns.
    """

    _one = None  # step()'s one-request block: made by the first call, rewritten by each

    def __init__(self, cache_capacity: int, catalog: Catalog):
        n = catalog.n_files
        if cache_capacity >= n:
            raise ValueError(f"cache capacity {cache_capacity} must be below catalog size {n}")
        self.n_files = n

    def step(self, t: int, request: int, observed: bool) -> PolicyStep:
        """Feed the single request number ``t``; a one-request block."""
        if not 0 <= request < self.n_files:
            raise ValueError(f"unknown file id {request}")
        if self._one is None:
            self._one = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool))
        requests, bits = self._one
        requests[0] = request
        bits[0] = observed
        misses = self.run_block(t - 1, requests, bits)
        return PolicyStep(request, observed, misses == 0, self.cache)


class NfplPolicy(_BlockPolicy):
    """Noisy perturbed-leader caching over a fixed horizon.

    ``name`` is one of :data:`NFPL_VARIANTS`, which gives the noise mode
    and whether every request is counted regardless of its observation bit.
    ``_counted`` makes the whole sampling decision for a block.
    ``gamma0`` and ``beta`` are test hooks that bypass the stream draws:
    ``gamma0`` injects the initial noise vector, ``beta`` a full per-step
    sampling schedule.
    """

    def __init__(
        self,
        name: str,
        config: PolicyConfig,
        catalog: Catalog,
        horizon: int,
        rng: RngStream,
        *,
        gamma0=None,
        beta=None,
    ):
        if name not in NFPL_VARIANTS:
            raise ValueError(
                f"unknown policy {name!r}; valid names: {', '.join(POLICY_NAMES)}"
            )
        self._mode, self._full_observation = NFPL_VARIANTS[name]
        super().__init__(config.cache_capacity, catalog)
        n = self.n_files
        if horizon < 1:
            raise ValueError("horizon must be positive")
        self.config = config
        self.horizon = horizon
        self.eta = config.eta
        self._rng = rng
        self._batch = config.batch_size

        if gamma0 is None:
            # no check needed: uniform(0, eta) is eta * random() < eta
            gamma0 = rng.uniform(0.0, self.eta, n)
        else:
            gamma0 = np.asarray(gamma0, dtype=float)
            if gamma0.shape != (n,):
                raise ValueError(f"gamma0 must have one entry per file, got {gamma0.shape}")
            if not np.all((gamma0 >= 0.0) & (gamma0 < self.eta)):
                raise ValueError("gamma0 entries must lie in [0, eta)")
        self.gamma0 = gamma0

        # Sampling bits live on their own substream, created on first use
        # (q = 1 never reads it) and drawn block by block (or per batch in
        # fixed mode), so policy state stays O(N+C) whatever the horizon.
        self._beta_rng = None
        self._batch_bits = None  # fixed mode: the sampled positions of the last batch drawn
        self._drawn_batch = -1
        if beta is not None:
            beta = np.asarray(beta, dtype=bool)
            if beta.shape != (horizon,):
                raise ValueError("beta schedule must cover the whole horizon")
        self._beta = beta

        self.flag = False
        self.cache_refreshes = 0
        self.sampled_steps = 0
        self.score_changes = 0
        self._t = 0

        if self._mode == "dynamic":
            self.tracker = None
            self._gamma = gamma0  # the last draw; None until read if only a prefix was drawn
            # Counts live in a float64 array (exact below 2**53, and no
            # int-to-float cast in the refresh's sums), brought up to date
            # from the counted ids at each refresh.
            self._counts_np = np.zeros(n)
            self._unsynced: list[np.ndarray] = []  # arrays of counted ids not yet in _counts_np
            self._perturbed = np.empty(n)  # counts + noise, at a refresh that ranks all files
            self._top = top_c_indices(gamma0, config.cache_capacity)
            self._in_cache = np.zeros(n, dtype=bool)
            self._in_cache[self._top] = True
            self._cache = None  # the set of _top, built when read
            # the refresh's filter (see _in_reach): a floor that at least C
            # files' counts reach
            self._floor = 0
            self._least = 0.0  # no count is below it: counts only grow
            self._candidates = None  # sorted ids that can enter the cache; None: all
            self._is_candidate = None  # their bool mask
            # A prefix draw leaves the rest of gamma to be rebuilt on read
            # from a snapshot of the stream, taken before the first such
            # draw, and the number of uniforms drawn since.
            self._noise_origin = None
            self._noise_drawn = 0
        else:
            # Counts and noise are plain lists for the kernel; the
            # ``counts`` and ``gamma`` properties give numpy copies. Lazy
            # mode reads the noise as its grid.
            self._counts = [0] * n
            self._gamma = gamma0.tolist()
            self._dirty: set[int] = set()  # lazy: files the next refresh checks
            self._pending: list[tuple[int, int]] = []  # (evicted, admitted) not yet applied
            self.tracker = TopCTracker(self._gamma, config.cache_capacity)
            self._cache = self.tracker.members()

    @property
    def cache(self) -> set[int]:
        """The cached file ids. Static and lazy noise keep this set up to
        date; dynamic noise builds it from its top C at the first read after
        a refresh."""
        if self._cache is None:
            self._cache = set(self._top.tolist())
        return self._cache

    @property
    def counts(self) -> np.ndarray:
        if self._mode == "dynamic":
            counts = self._counts_np.astype(np.int64)
            for ids in self._unsynced:
                np.add.at(counts, ids, 1)
            return counts
        return np.array(self._counts, dtype=np.int64)

    @property
    def gamma(self) -> np.ndarray:
        if self._mode == "lazy":
            # the perturbed count less the count; at a batch boundary this
            # is the offset in [0, eta) that puts the count on its grid
            return np.array(self.tracker.scores) - self.counts
        if self._gamma is None:
            # dynamic, after a prefix draw: replay the refresh's full draw
            stream = self._noise_origin.snapshot()
            stream.random_prefix(0, self._noise_drawn - self.n_files)
            self._gamma = self.eta * stream.random(self.n_files)
        return np.array(self._gamma, dtype=float)

    @property
    def heap_ops(self) -> int:
        return self.tracker.op_counter if self.tracker is not None else 0

    def _counted(self, t0: int, observed: np.ndarray) -> np.ndarray:
        """Counted bits of requests t0+1 .. t0+len(observed), as a bool
        array: observed (every request, for fpl) and sampled. Only observed
        requests draw a sampling bit: Bernoulli(q), or b of each batch's B
        positions drawn without replacement when the batch first needs a
        bit (a trailing partial batch is truncated). The result may be
        ``observed`` itself."""
        if self._full_observation:
            observed = np.ones(len(observed), dtype=bool)
        beta = self._beta
        if beta is not None:
            return observed & beta[t0:t0 + len(observed)]
        b = self.config.fixed_per_batch
        if b is None:
            q = self.config.sample_prob
            if q >= 1.0:
                return observed
            counted = observed.copy()
            counted[observed] = self._sampling_rng().bernoulli(q, int(np.count_nonzero(observed)))
            return counted
        batch = self._batch
        if b == batch:
            return observed
        n = len(observed)
        sampled = np.zeros(n, dtype=bool)
        # the batches holding an observed request, each in order
        for i in np.unique((np.flatnonzero(observed) + t0) // batch).tolist():
            if i != self._drawn_batch:
                bits = np.zeros(batch, dtype=bool)
                bits[self._sampling_rng().permutation(batch)[:b]] = True
                self._batch_bits = bits
                self._drawn_batch = i
            start = i * batch - t0  # the batch's first position in the block
            lo, hi = max(start, 0), min(start + batch, n)
            sampled[lo:hi] = self._batch_bits[lo - start:hi - start]
        return observed & sampled

    def _sampling_rng(self) -> RngStream:
        if self._beta_rng is None:
            self._beta_rng = self._rng.substream(1)
        return self._beta_rng

    def _redraw(self) -> None:
        """Dynamic refresh: fresh noise, then the top C of counts + noise
        become the cache.

        Once some file is out of reach (:func:`_in_reach`), only the
        candidates are ranked, and only files up to the last candidate draw
        noise. Every other file is out of reach: counts only grow and the
        floor only rises, so a file stays out until it is counted again,
        and a counted file joins when its count reaches the floor.
        """
        n = self.n_files
        eta = self.eta
        capacity = self.config.cache_capacity
        counts = self._counts_np
        least = np.minimum.reduce  # ndarray.min without its Python wrapper
        unsynced = self._unsynced
        ids = unsynced[0] if len(unsynced) == 1 else np.concatenate(unsynced)
        np.add.at(counts, ids, 1.0)
        unsynced.clear()
        candidates = self._candidates
        if candidates is None:
            # every file is in reach while the smallest count is within eta
            # of the floor. _least, a count no file is below, stands in for
            # the smallest count until it is too low to show that; rounding
            # is monotonic, so the outcome is the same.
            floor = int(least(counts[self._top]))
            if self._least + eta < floor:
                self._least = least(counts)
            if self._least + eta >= floor:
                # eta * random(n) is uniform(0, eta, n) bit for bit
                gamma = self._gamma = self._rng.random(n)
                gamma *= eta
                self._admit(top_c_indices(np.add(counts, gamma, out=self._perturbed), capacity))
                return
            # a file fell out of reach: from here on only candidates draw
            self._floor = floor
            self._is_candidate = _in_reach(counts, np.arange(n), floor, eta)
            candidates = np.flatnonzero(self._is_candidate)
            self._noise_origin = self._rng.snapshot()
        else:
            is_candidate = self._is_candidate
            # C files reach the floor: the cached files reach their least
            # count, and the files that reached an earlier floor still do
            floor = max(self._floor, int(least(counts[self._top])))
            if floor > self._floor:
                keep = _in_reach(counts, candidates, floor, eta)
                if not keep.all():
                    is_candidate[candidates[~keep]] = False
                    candidates = candidates[keep]
                self._floor = floor
            fresh = ids[~is_candidate[ids]]
            if len(fresh):
                fresh = fresh[_in_reach(counts, fresh, floor, eta)]
                if len(fresh):
                    is_candidate[fresh] = True
                    candidates = np.flatnonzero(is_candidate)
        self._candidates = candidates
        noise = eta * self._rng.random_prefix(int(candidates[-1]) + 1, n)
        self._admit(_top_by_noise(counts, candidates, capacity, noise))
        self._gamma = None
        self._noise_drawn += n

    def _admit(self, top: np.ndarray) -> None:
        """Make the ids ``top`` the dynamic-noise cache: move the mask and
        drop the stored set."""
        in_cache = self._in_cache
        in_cache[self._top] = False
        in_cache[top] = True
        self._top = top
        self._cache = None

    def run_block(self, t0: int, requests, observed) -> int:
        if t0 != self._t:
            raise ValueError(
                f"steps must arrive in order: expected t={self._t + 1}, got {t0 + 1}"
            )
        end = t0 + len(requests)
        if end > self.horizon:
            raise ValueError(f"t={end} beyond horizon {self.horizon}")
        counted = self._counted(t0, observed)
        if self._mode == "dynamic":
            misses = self._run_batches(t0, requests, counted)
        elif self._batch == 1:
            misses = self._run_unbatched(requests, counted)
        else:
            misses = self._run_requests(t0, requests, counted)
        self._t = end
        return misses

    def _run_batches(self, t0: int, requests: np.ndarray, counted: np.ndarray) -> int:
        """Dynamic noise. The cache changes only at the end of a batch that
        counted a request, so the block is cut into chunks that each run to
        the end of the batch holding the next counted request (or to the
        first boundary, when counted ids wait from the last block). A chunk
        is scored on the cache mask; its counted ids, a slice of the block's
        counted ids, wait in ``_unsynced`` for the refresh. A bool array's
        bytes are 0 or 1, so the next counted request is found with
        ``bytes.find``, and a chunk's hits and counted requests are counted
        with ``bytes.count``, which returns a Python int."""
        unsynced = self._unsynced
        batch = self._batch
        in_cache = self._in_cache  # updated in place by each refresh
        bits = counted.tobytes()
        ids = requests[counted]
        n = len(requests)
        hits = refreshes = j = lo = 0
        while lo < n:
            k = lo if unsynced else bits.find(1, lo)
            if k < 0:
                k = n
            hi = ((t0 + k) // batch + 1) * batch - t0  # the end of k's batch
            hits += in_cache[requests[lo:hi]].tobytes().count(1)
            m = j + bits.count(1, lo, hi)
            if m > j:
                unsynced.append(ids[j:m])
                j = m
            if hi > n:
                break
            refreshes += 1
            self._redraw()
            lo = hi
        self.sampled_steps += len(ids)
        self.cache_refreshes += refreshes
        return n - hits

    def _run_unbatched(self, requests: np.ndarray, counted: np.ndarray) -> int:
        """Static and lazy noise at B = 1. A batch boundary follows every
        request, so the next request is scored only after it: a counted
        request's swap goes into the cache at once, and every counted
        request is its own refresh."""
        requests, counted = requests.tolist(), counted.tolist()
        cache = self._cache
        counts = self._counts
        static = self._mode == "static"
        tracker = self.tracker
        bump = tracker.bump
        scores = tracker.scores
        heap = tracker.heap
        pos = tracker.pos
        sift_down = tracker.sift_down
        inner = len(heap) // 2  # heap[i] is a leaf from here on
        grid = self._gamma  # lazy: gamma0, never rewritten
        eta = self.eta
        ceil = math.ceil
        misses = changes = ops = 0

        for f, c in zip(requests, counted):
            if f not in cache:
                misses += 1
            if c:
                k = counts[f] + 1
                counts[f] = k
                if static:
                    # the tracker's increase-key protocol: a call only
                    # when the heap can move
                    s = scores[f] + 1.0
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
                            cache.remove(bump(f, s)[0])
                            cache.add(f)
                # A lazy file moves only if its count may have crossed its
                # grid line gamma0 + eta * j, its score: a count
                # k <= score - 0.5 keeps ceil((k - gamma0) / eta) <= j, as
                # rounding moves that quotient by far less than 0.5 / eta
                # for scores below 2**50. The score rises only when the
                # count crossed a line.
                elif k + 0.5 > scores[f]:
                    g0 = grid[f]
                    s = g0 + eta * ceil((k - g0) / eta)
                    if s > scores[f]:
                        changes += 1
                        evicted = bump(f, s)[0]
                        if evicted is not None:
                            cache.remove(evicted)
                            cache.add(f)

        refreshes = counted.count(True)
        self.sampled_steps += refreshes
        self.cache_refreshes += refreshes
        self.score_changes += refreshes if static else changes
        tracker.op_counter += ops
        return misses

    def _run_requests(self, t0: int, requests: np.ndarray, counted: np.ndarray) -> int:
        """Static and lazy noise at B > 1: one pass over the requests, with
        each batch's swaps applied to the cache at its boundary."""
        requests, counted = requests.tolist(), counted.tolist()
        t = t0
        cache = self._cache
        counts = self._counts
        static = self._mode == "static"
        tracker = self.tracker
        bump = tracker.bump
        scores = tracker.scores
        heap = tracker.heap
        pos = tracker.pos
        sift_down = tracker.sift_down
        inner = len(heap) // 2  # heap[i] is a leaf from here on
        pending = self._pending
        dirty = self._dirty
        grid = self._gamma  # lazy: gamma0, never rewritten
        eta = self.eta
        ceil = math.ceil
        batch = self._batch
        boundary = (t // batch + 1) * batch
        flag = self.flag
        misses = sampled = changes = refreshes = ops = 0

        for f, c in zip(requests, counted):
            t += 1
            if f not in cache:
                misses += 1
            if c:
                counts[f] += 1
                sampled += 1
                flag = True
                if static:
                    # the tracker's increase-key protocol: a call only
                    # when the heap can move
                    changes += 1
                    s = scores[f] + 1.0
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
                else:
                    # Every counted file joins, not only those that may
                    # have crossed a grid line: the refresh bumps in the
                    # set's iteration order, heap_ops depend on that order,
                    # and a set of the crossing files alone can iterate in
                    # another order than the set of all counted files.
                    dirty.add(f)
            if t == boundary:
                boundary += batch
                if flag:
                    flag = False
                    refreshes += 1
                    if dirty:
                        # lazy: move each such file back onto its grid;
                        # the score rises only when the count crossed a line
                        for g in dirty:
                            g0 = grid[g]
                            new_score = g0 + eta * ceil((counts[g] - g0) / eta)
                            if new_score > scores[g]:
                                changes += 1
                                swap = bump(g, new_score)
                                if swap[0] is not None:
                                    pending.append(swap)
                        dirty.clear()
                    if pending:
                        for evicted, admitted in pending:
                            cache.discard(evicted)
                            cache.add(admitted)
                        pending.clear()

        self.flag = flag
        self.sampled_steps += sampled
        self.score_changes += changes
        self.cache_refreshes += refreshes
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

    The cached files sit in a ``heapq`` list of exactly C int keys
    ``count * n + (n - 1 - id)``: the least key is the least count and,
    among equal counts, the higher id. A hit only raises the count, so a
    stored key may lag its file's current key but never exceeds it. An
    observed miss re-keys the root until its key is current, which makes
    it the true victim.
    """

    heap_ops = 0  # heapq calls are not counted; reporting them moves recorded results
    cache_refreshes = 0
    score_changes = 0

    def __init__(
        self,
        cache_capacity: int,
        catalog: Catalog,
        admission_threshold: bool = False,
    ):
        super().__init__(cache_capacity, catalog)
        n = self.n_files
        self.counts = [0] * n
        self.cache = set(range(cache_capacity))
        self.admission_threshold = admission_threshold
        self.sampled_steps = 0
        # the keys of files C-1..0 at count 0, ascending and so already a heap
        self._heap = list(range(n - cache_capacity, n))

    def run_block(self, t0: int, requests, observed) -> int:
        cache = self.cache
        counts = self.counts
        heap = self._heap
        n = len(counts)
        last = n - 1
        threshold = self.admission_threshold
        misses = sampled = 0
        for f, obs in zip(requests.tolist(), observed.tolist()):
            if f in cache:
                if obs:
                    sampled += 1
                    counts[f] += 1
                continue
            misses += 1
            if obs:
                sampled += 1
                c = counts[f] + 1
                counts[f] = c
                while True:  # re-key the root until its count is current
                    stale, r = divmod(heap[0], n)
                    count = counts[last - r]
                    if count == stale:
                        break
                    heapreplace(heap, count * n + r)
                if not threshold or c > count:
                    heapreplace(heap, c * n + last - f)
                    cache.remove(last - r)
                    cache.add(f)
        self.sampled_steps += sampled
        return misses


class LruPolicy(_BlockPolicy):
    """Evict-least-recently-used; recency moves on observed requests only."""

    heap_ops = 0
    cache_refreshes = 0
    score_changes = 0

    def __init__(self, cache_capacity: int, catalog: Catalog):
        super().__init__(cache_capacity, catalog)
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
        for f, obs in zip(requests.tolist(), observed.tolist()):
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
    """Build a policy instance from its CLI name.

    ``hooks`` are :class:`NfplPolicy`'s test hooks; LFU and LRU draw no
    noise and sample nothing, so they take none.
    """
    if name in ("lfu", "lru") and hooks:
        raise TypeError(f"{name} takes no hooks, got {', '.join(sorted(hooks))}")
    if name == "lfu":
        return LfuPolicy(config.cache_capacity, catalog)
    if name == "lru":
        return LruPolicy(config.cache_capacity, catalog)
    return NfplPolicy(name, config, catalog, horizon, rng, **hooks)
