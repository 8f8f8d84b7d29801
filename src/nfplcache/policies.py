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
  rest, and ``gamma`` replays the full draw when it is read.
* ``lazy``    - gamma is the unique value in [0, eta) that keeps
  ``counts + gamma`` on the grid ``gamma0 + eta * Z``; the perturbed
  count of a file moves only when its count crosses a grid line, so
  most refreshes touch nothing. Only the perturbed counts are stored:
  ``gamma`` reads as ``scores - counts``, which at every batch boundary
  is that value.

Every argmax breaks ties toward the lower file id. In every mode the cache
is kept once, as a bool mask of N entries that a swap or a refresh moves;
the set ``cache`` is built from the mask at the first read after it moves.

The counted path makes no call when nothing can move. Static noise raises a
score in place through :class:`~nfplcache.topk.TopCTracker`'s increase-key
protocol; the tracker is called only to sift a member at an inner heap node
or to swap in a non-member that beats the weakest member. An LFU hit only
raises a count: its heap keys may lag, and a miss brings the root up to date.
A block of at least N requests first settles the LFU members that no miss in
it can evict: those whose count already exceeds the C-th largest count at
the block's end, which one ``bincount`` gives. Each request for them is a
hit, so LFU's loop runs over the other requests only.

Static and lazy noise add a block's counts with one ``bincount``. The cache
changes only at a swap, which is rare and reaches the cache where its batch
ends, so the requests between two swaps are scored as the number of true
entries of the mask at their ids. Static noise loops in Python over the
counted requests only. Lazy noise is driven by grid crossings instead: each
file keeps the count at which its score next rises, and Python runs only
for the files whose count reaches it; a stable radix sort of their ids
locates their crossings, and each batch's rises go through the heap where
it ends. Dynamic noise changes its cache only at the end of a batch that
counted a request, so it scores the requests in between on its cache mask
in the same way. It adds their counted ids to the counts as it reaches
them, and keeps them, as slices of the block's, for the refresh.

Each policy's one simulation loop is ``run_block(t0, requests, observed)``,
which feeds a block of requests and returns its misses; where the blocks
end, and so where miss ratios are read, is up to the caller. A block is a
pair of numpy arrays, the file ids (int) and the observation bits (bool),
which may be views of the caller's arrays; they are neither written nor
kept once the block returns. The per-request loops of LFU and LRU turn them
into lists when they start (LFU only the requests its screen leaves); the
NFPL kernels read them as arrays. ``step`` is a one-request block that
returns a :class:`PolicyStep`. Whatever the policy, ``cache`` holds Python
ints.

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
from itertools import groupby
from operator import itemgetter
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
# Policies that read no randomness: they draw no noise and get no stream.
SEEDLESS = ("lfu", "lru")


class PolicyStep(NamedTuple):
    """Outcome of feeding one request to a policy through ``step()``."""

    request: int
    observed: bool
    hit: bool


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
    observed) -> misses`` over requests t0+1 .. t0+len(requests), given as
    an int array of file ids in ``[0, n_files)`` and a bool array of
    observation bits: LFU and LRU loop over the requests, NFPL only over the
    events that can move its cache. Each request is scored against the cache
    it finds, then counted. No reference to either array outlives the call.
    """

    _one = None  # step()'s one-request block: made by the first call, rewritten by each
    # The work counters of a run. Every loop reads ``sampled_steps`` from the
    # block's bits, not request by request: NFPL's counted bits, LFU's and
    # LRU's observation bits. NfplPolicy keeps the others: ``heap_ops`` is its
    # tracker's; ``cache_refreshes`` counts the batches that counted a
    # request, each where it ends; ``score_changes`` is the counted bits under
    # static noise and the grid crossings under lazy noise. LFU's heapq calls
    # are not counted, as reporting them would move recorded results.
    heap_ops = cache_refreshes = score_changes = sampled_steps = 0

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
        return PolicyStep(request, observed, misses == 0)


class NfplPolicy(_BlockPolicy):
    """Noisy perturbed-leader caching over a fixed horizon.

    ``name`` is one of :data:`NFPL_VARIANTS`, which gives the noise mode
    and whether every request is counted regardless of its observation bit.
    ``_counted`` makes the whole sampling decision for a block, from the
    policy's own stream. ``gamma0`` is the one test hook: it injects the
    initial noise vector in place of its draw.
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
    ):
        if name not in NFPL_VARIANTS:
            raise ValueError(
                f"unknown policy {name!r}; valid names: {', '.join(POLICY_NAMES)}"
            )
        self._mode, self._full_observation = NFPL_VARIANTS[name]
        self._kernel = self._KERNELS[self._mode]  # unbound: the policy holds no cycle
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
        self._gamma = gamma0  # dynamic noise rebinds it to each draw (None after a prefix draw)

        # Sampling bits live on their own substream, created on first use
        # (q = 1 never reads it) and drawn block by block (or per batch in
        # fixed mode), so policy state stays O(N+C) whatever the horizon.
        self._beta_rng = None
        self._batch_bits = None  # fixed mode: the sampled positions of the last batch drawn
        self._drawn_batch = -1

        self._t = 0
        # the cache as a bool mask of N entries, its one record; the set
        # ``cache`` is built from it when read
        self._in_cache = np.zeros(n, dtype=bool)
        self._cache = None

        if self._mode == "dynamic":
            self.tracker = None
            # Counts live in a float64 array: exact below 2**53, and no
            # int-to-float cast in the refresh's sums.
            self._counts = np.zeros(n)
            self._unsynced: list[np.ndarray] = []  # arrays of ids counted since the last refresh
            self._perturbed = np.empty(n)  # counts + noise, at a refresh that ranks all files
            self._top = top_c_indices(gamma0, config.cache_capacity)
            self._in_cache[self._top] = True
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
            self.tracker = TopCTracker(gamma0, config.cache_capacity)
            self._in_cache[self.tracker.heap] = True
            # the kernels' counts, and whether the batch open at the end of
            # the last block counted a request
            self._counts = np.zeros(n, dtype=np.int64)
            self._flag = False
            if self._mode == "lazy":
                # the count at which each file's score next rises: the
                # first count above gamma0 (>= 0, so truncation is floor)
                self._next = gamma0.astype(np.int64) + 1
                self._id_dtype = np.min_scalar_type(n - 1)
                # the files counted in that open batch, added in request
                # order: the batch's rises follow this set's iteration order
                self._dirty: set[int] = set()
            else:
                # the open batch's swaps, each as (the time at which it
                # reaches the cache, evicted, admitted)
                self._waiting: list[tuple[int, int, int]] = []

    @property
    def cache(self) -> set[int]:
        """The cached file ids, built from the cache mask at the first read
        after the mask moves. A set once read is never changed: a later
        swap or refresh shows in the next read's set."""
        if self._cache is None:
            self._cache = set(self._in_cache.nonzero()[0].tolist())
        return self._cache

    @property
    def counts(self) -> np.ndarray:
        """A copy of the counts, as int64."""
        return self._counts.astype(np.int64)

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
        counts = self._counts
        least = np.minimum.reduce  # ndarray.min without its Python wrapper
        unsynced = self._unsynced
        ids = unsynced[0] if len(unsynced) == 1 else np.concatenate(unsynced)
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
        drop the set built from it."""
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
        misses = self._kernel(self, t0, requests, self._counted(t0, observed))
        self._t = end
        return misses

    def _run_batches(self, t0: int, requests: np.ndarray, counted: np.ndarray) -> int:
        """Dynamic noise. The cache changes only at the end of a batch that
        counted a request, so the block is cut into chunks that each run to
        the end of the batch holding the next counted request (or to the
        first boundary, when counted ids wait from the last block). A chunk
        is scored on the cache mask; its counted ids, a slice of the block's
        counted ids, are added to the counts and wait in ``_unsynced`` for
        the refresh, which joins them to its candidates. A bool array's
        bytes are 0 or 1, so the next counted request is found with
        ``bytes.find``, and a chunk's hits and counted requests are counted
        with ``bytes.count``, which returns a Python int."""
        unsynced = self._unsynced
        counts = self._counts
        batch = self._batch
        in_cache = self._in_cache  # updated in place by each refresh
        bits = counted.tobytes()
        ids = requests.compress(counted)
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
                chunk = ids[j:m]
                np.add.at(counts, chunk, 1.0)
                unsynced.append(chunk)
                j = m
            if hi > n:
                break
            refreshes += 1
            self._redraw()
            lo = hi
        self.sampled_steps += len(ids)
        self.cache_refreshes += refreshes
        return n - hits

    def _run_static(self, t0: int, requests: np.ndarray, counted: np.ndarray) -> int:
        """Static noise, at every B. Python loops over the counted requests
        only, each raising its file's score by one through the tracker's
        increase-key protocol. A swap reaches the cache where its request's
        batch ends (at B = 1, right after the request); one whose batch ends
        past the block waits in ``_waiting``. A batch that counted a request
        is one refresh, tallied where it ends."""
        batch = self._batch
        at = counted.nonzero()[0]
        ids = requests[at]
        self._counts += np.bincount(ids, minlength=self.n_files)
        tracker = self.tracker
        bump, sift_down = tracker.bump, tracker.sift_down
        scores, heap, pos = tracker.scores, tracker.heap, tracker.pos
        inner = len(heap) // 2  # heap[i] is a leaf from here on
        waiting = self._waiting
        ops = 0

        for j, f in enumerate(ids.tolist()):
            # the tracker's increase-key protocol: a call only when the heap
            # can move
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
                    # request t0 + p + 1's batch ends at the next multiple of B
                    p = at.item(j)
                    waiting.append((((t0 + p) // batch + 1) * batch, bump(f, s)[0], f))

        tracker.op_counter += ops
        self.sampled_steps += len(ids)
        self.score_changes += len(ids)
        self._tally_refreshes(t0, len(requests), at)
        if not waiting:  # the cache stays as it is
            return len(requests) - self._in_cache[requests].tobytes().count(1)
        return self._score_between_swaps(t0, requests, waiting)

    def _tally_refreshes(self, t0: int, n: int, at: np.ndarray) -> None:
        """Add the refreshes of ``n`` requests from t0, counted at the block
        positions ``at``: the distinct batches that counted a request, with
        the batch open at t0 if an earlier block counted in it, less the one
        still open at the end, which carries its flag to the next block."""
        batch = self._batch
        last = t0 // batch if self._flag else -1
        refreshes = last >= 0
        if len(at):
            head, tail = (t0 + at.item(0)) // batch, (t0 + at.item(-1)) // batch
            refreshes += head != last
            if tail > head:  # count each counted request that opens a batch
                marks = (at + t0) // batch
                refreshes += (marks[1:] != marks[:-1]).tobytes().count(1)
            last = tail
        self._flag = last == (t0 + n) // batch
        self.cache_refreshes += refreshes - self._flag

    def _score_between_swaps(self, t0: int, requests: np.ndarray, swaps: list) -> int:
        """The misses of requests t0+1 .. t0+len(requests), where each swap
        ``(t, evicted, admitted)`` of the list, in order of t, reaches the
        cache right after request t and leaves the list. The requests
        between two swaps are scored with ``bytes.count`` on the cache mask
        at their ids; then the swap moves the mask."""
        in_cache = self._in_cache
        n = len(requests)
        misses = lo = done = 0
        for t, evicted, admitted in swaps:
            hi = t - t0
            if hi > n:
                break
            misses += hi - lo - in_cache[requests[lo:hi]].tobytes().count(1)
            in_cache[evicted] = False
            in_cache[admitted] = True
            lo = hi
            done += 1
        if done:
            del swaps[:done]
            self._cache = None
        return misses + n - lo - in_cache[requests[lo:]].tobytes().count(1)

    def _in_set_order(self, rises: list, dirty: set, ids, where) -> list:
        """The sorted ``rises``, those of a batch in which two or more files
        rise put in the iteration order of the set of the files counted in
        it, each added at its first counted request (``dirty`` holds the
        files of the batch open at t0 counted before it). heap_ops and the
        heap layout depend on that order, and a set of the rising files
        alone can iterate in another order."""
        ordered = []
        for last, group in groupby(rises, itemgetter(0)):
            group = list(group)
            if len(group) > 1:
                score = {f: s for _, f, s in group}
                begin = last + 1 - self._batch  # the batch's first block position
                lo, hi = where.searchsorted((begin, last + 1)).tolist()
                files = dirty if begin < 0 else set()
                files.update(ids[lo:hi].tolist())
                group = [(last, f, score[f]) for f in files if f in score]
            ordered += group
        return ordered

    def _run_lazy(self, t0: int, requests: np.ndarray, counted: np.ndarray) -> int:
        """Lazy noise, at every B, driven by grid crossings. A file's score
        rises only where a batch ends in which its count reached ``_next``,
        to the grid value of its count there. So the block is counted with
        one ``bincount``, and only the files whose count reached that value
        ("hot" files) have their counted requests located: one stable sort
        of their ids groups each file's requests in request order, and the
        j-th of them brings its count to its count before the block plus
        j + 1. A batch that ends past the block leaves the file hot, with
        its ``_next``. The rises go through the tracker's ``bump`` in batch
        order (see :meth:`_in_set_order`); a swap reaches the cache there."""
        ids = requests.compress(counted)
        counts = self._counts
        added = np.bincount(ids, minlength=self.n_files)
        counts += added
        reach = counts >= self._next
        hot = reach.nonzero()[0]
        self.sampled_steps += len(ids)
        batch = self._batch
        if batch == 1:  # each counted request is a batch, and a refresh, of its own
            self.cache_refreshes += len(ids)
            if not len(hot):
                return len(requests) - self._in_cache[requests].tobytes().count(1)
            where = counted.nonzero()[0]  # the counted requests' block positions
        else:
            n = len(requests)
            where = counted.nonzero()[0]
            self._tally_refreshes(t0, n, where)
            dirty = self._dirty  # the batch open at t0 may end in this block
            # carry the files counted in the batch open at the end
            begin = (t0 + n) // batch * batch - t0  # where the open batch starts
            if begin > 0:
                self._dirty = set()
            self._dirty.update(ids[where.searchsorted(begin):].tolist())
            if not len(hot) or begin <= 0:  # no file, or no batch, to rise
                return n - self._in_cache[requests].tobytes().count(1)

        # the hot files' counted requests, as block positions grouped by
        # file in ascending id order (that of ``hot``); ids narrowed to the
        # least dtype that holds them sort by radix sort
        at = where[reach[ids]]
        at = at[requests[at].astype(self._id_dtype).argsort(kind="stable")]
        eta = self.eta
        ceil = math.ceil
        floor = math.floor
        rises = []  # (block position of its batch's last request, file, new score)
        nexts = []
        lo = 0
        for f, g0, size, k1, k in zip(
            hot.tolist(), self.gamma0[hot].tolist(), added[hot].tolist(),
            counts[hot].tolist(), self._next[hot].tolist(),
        ):
            # f's count reaches k1 - size + i at its i-th request of the
            # block, at[lo + i - 1]; so count k is reached at at[shift + k].
            # Only the positions that locate a batch become Python ints.
            shift = lo + size - k1 - 1
            while k <= k1:
                if batch == 1:  # the request is its batch
                    last = at.item(shift + k)
                else:
                    i = shift + k
                    if i < lo:  # reached before the block, in the batch open at t0
                        i, p = lo - 1, -1
                    else:
                        p = at.item(i)
                    # the block position of the last request in p's batch
                    last = (t0 + p) // batch * batch + batch - 1 - t0
                    if last >= n:
                        break  # after the block: f stays hot, and k waits
                    while i + 1 < lo + size and at.item(i + 1) <= last:
                        i += 1
                    k = i - shift  # f's count where the batch ends
                s = g0 + eta * ceil((k - g0) / eta)
                rises.append((last, f, s))
                # the least count past k at which the score rises from s:
                # the first whose grid line lies above s, screened by
                # k + 0.5 > s (which such a count meets for any score
                # below 2**50). Both tests are monotone in the count, so a
                # search from below finds it, and no count below floor(s)
                # passes the screen.
                k = max(k + 1, floor(s))
                while not (k + 0.5 > s and g0 + eta * ceil((k - g0) / eta) > s):
                    k += 1
            nexts.append(k)
            lo += size
        self._next[hot] = nexts
        self.score_changes += len(rises)
        rises.sort()

        if batch > 1:
            rises = self._in_set_order(rises, dirty, ids, where)
        bump = self.tracker.bump
        swaps = []
        for last, f, s in rises:
            evicted = bump(f, s)[0]
            if evicted is not None:
                swaps.append((t0 + last + 1, evicted, f))
        return self._score_between_swaps(t0, requests, swaps)

    _KERNELS = {"dynamic": _run_batches, "static": _run_static, "lazy": _run_lazy}


class LfuPolicy(_BlockPolicy):
    """Evict-least-frequent under partial observation.

    Counts use observed requests only. On an observed miss the requested
    file displaces the least-frequent cached file (ties evicting the
    higher id). Starts with files 0..C-1 cached.

    The cached files sit in a ``heapq`` list of exactly C int keys
    ``count * n + (n - 1 - id)``: the least key is the least count and,
    among equal counts, the higher id. A hit only raises the count, so a
    stored key may lag its file's current key but never exceeds it. An
    observed miss re-keys the root until its key is current, which makes
    it the true victim.

    A block of at least n requests first settles the members that no miss
    in it can evict (:meth:`_settle`), and the loop runs over the other
    requests only: each request for a settled member is a hit. A settled
    member keeps its count from the block's start through the loop and
    takes its count at the block's end after it. The heap needs no change
    for that. A settled member's stored key never exceeds its key at that
    start count, and at every miss of the block some member's current key
    lies below that (see :meth:`_settle`), so the root is never a settled
    member whose key reads as current: re-keying ends at the true victim,
    as without the screen.
    """

    def __init__(self, cache_capacity: int, catalog: Catalog):
        super().__init__(cache_capacity, catalog)
        n = self.n_files
        self.counts = [0] * n
        self.cache = set(range(cache_capacity))
        # the keys of files C-1..0 at count 0, ascending and so already a heap
        self._heap = list(range(n - cache_capacity, n))

    def _settle(self, requests: np.ndarray, observed: np.ndarray):
        """The members that no miss among ``requests`` can evict, as an int
        array, and their counts at the block's end.

        Let K be the C-th largest count at the block's end. A member g whose
        count at the block's start already exceeds K is never the victim: the victim has the
        least count of the C members, so if g were evicted, all C of them
        would count more than K then, and so at the block's end, where at
        most C - 1 files do. The same argument puts some member's count at
        or below K < count(g) at every miss of the block.
        """
        counts = np.array(self.counts)
        # weighted by the bits, which costs about a third of counting
        # requests[observed]; the float sums are exact below 2**53
        observed_counts = np.bincount(requests, weights=observed, minlength=self.n_files)
        end = counts + observed_counts.astype(np.int64)
        # K is the least of the top C. A sort, not a partition: a block of at
        # least n requests dwarfs its cost, and np.partition would page in
        # about 0.4 MiB of code that a run without d-nfpl reads nowhere else
        bound = np.sort(end)[self.n_files - len(self._heap)]
        members = np.fromiter(self.cache, np.intp, len(self.cache))
        settled = members[counts[members] > bound]
        return settled, end[settled]

    def run_block(self, t0: int, requests, observed) -> int:
        cache = self.cache
        counts = self.counts
        heap = self._heap
        n = len(counts)
        last = n - 1
        self.sampled_steps += int(np.count_nonzero(observed))
        settled = ()  # (member, its count at the block's end) pairs
        if len(requests) >= n:  # the O(n) screen costs no more than the loop
            ids, ends = self._settle(requests, observed)
            if len(ids):
                keep = np.ones(n, dtype=bool)
                keep[ids] = False
                keep = keep[requests]
                requests, observed = requests.compress(keep), observed.compress(keep)
                settled = zip(ids.tolist(), ends.tolist())
        misses = 0
        for f, obs in zip(requests.tolist(), observed.tolist()):
            if f in cache:
                if obs:
                    counts[f] += 1
                continue
            misses += 1
            if obs:
                c = counts[f] + 1
                counts[f] = c
                while True:  # re-key the root until its count is current
                    stale, r = divmod(heap[0], n)
                    count = counts[last - r]
                    if count == stale:
                        break
                    heapreplace(heap, count * n + r)
                heapreplace(heap, c * n + last - f)
                cache.remove(last - r)
                cache.add(f)
        for g, c in settled:
            counts[g] = c
        return misses


class LruPolicy(_BlockPolicy):
    """Evict-least-recently-used; recency moves on observed requests only."""

    def __init__(self, cache_capacity: int, catalog: Catalog):
        super().__init__(cache_capacity, catalog)
        self._recency = OrderedDict((f, None) for f in range(cache_capacity))

    @property
    def cache(self):
        return self._recency.keys()

    def run_block(self, t0: int, requests, observed) -> int:
        recency = self._recency
        to_front = recency.move_to_end
        pop_oldest = recency.popitem
        observed = observed.tolist()
        misses = 0
        for f, obs in zip(requests.tolist(), observed):
            hit = f in recency
            if not hit:
                misses += 1
            if obs:
                if hit:
                    to_front(f)
                else:
                    pop_oldest(False)
                    recency[f] = None
        self.sampled_steps += observed.count(True)
        return misses


def make_policy(
    name: str,
    config: PolicyConfig,
    catalog: Catalog,
    horizon: int,
    rng: RngStream,
    *,
    gamma0=None,
):
    """Build a policy instance from its CLI name.

    ``gamma0`` is :class:`NfplPolicy`'s test hook for the initial noise;
    LFU and LRU draw no noise, so they reject it.
    """
    if name in SEEDLESS and gamma0 is not None:
        raise TypeError(f"{name} draws no noise and takes no gamma0")
    if name == "lfu":
        return LfuPolicy(config.cache_capacity, catalog)
    if name == "lru":
        return LruPolicy(config.cache_capacity, catalog)
    return NfplPolicy(name, config, catalog, horizon, rng, gamma0=gamma0)
