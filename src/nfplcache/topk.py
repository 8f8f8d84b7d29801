"""Incremental maintenance of the C files with the largest scores.

The tracker keeps the current top-C members in a position-indexed binary
min-heap keyed by (score asc, id desc), so the root is always the member
that would be displaced first. Scores only ever increase in this system,
which reduces every update to an increase-key or a replace-root, both
O(log C). ``op_counter`` tallies heap work (one per swap, plus one per
insert/delete event) so callers can measure amortized cost.

:func:`top_c_indices` is the one-shot counterpart for a score vector
that is redrawn wholesale, as dynamic noise does at every refresh.
"""

from __future__ import annotations

import heapq

import numpy as np


def top_c_indices(values: np.ndarray, c: int) -> np.ndarray:
    """Ids of the first ``c`` entries under (value desc, id asc).

    The same set as ``np.argsort(-values, kind="stable")[:c]`` without the
    full sort: a partition finds the c-th largest value, and only the
    candidates at or above it are ordered, by (-value, id), when ties at
    that value leave more than c of them.
    """
    n = len(values)
    if c >= n:
        return np.arange(n)
    kth = np.partition(values, n - c)[n - c]
    candidates = np.flatnonzero(values >= kth)
    if len(candidates) > c:
        order = np.lexsort((candidates, -values[candidates]))
        candidates = candidates[order[:c]]
    return candidates


class TopCTracker:
    """Top-C view over a dense score table with increase-only updates.

    Ties are broken toward the lower file id everywhere: the members are
    exactly the first C files under (score desc, id asc) ordering.
    """

    __slots__ = ("capacity", "scores", "_heap", "_pos", "op_counter")

    def __init__(self, scores, capacity: int):
        n = len(scores)
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if capacity > n:
            raise ValueError(f"capacity {capacity} exceeds file count {n}")
        self.capacity = capacity
        self.scores = [float(s) for s in scores]
        self.op_counter = 0
        members = heapq.nsmallest(capacity, range(n), key=lambda f: (-self.scores[f], f))
        self._heap = members
        self._pos = [-1] * n
        for i, f in enumerate(members):
            self._pos[f] = i
        for i in range(capacity // 2 - 1, -1, -1):
            self._sift_down(i)

    def __contains__(self, file_id: int) -> bool:
        return self._pos[file_id] >= 0

    def members(self) -> set[int]:
        return set(self._heap)

    def min_member(self) -> int:
        return self._heap[0]

    def _sift_down(self, i: int) -> None:
        # Moves heap[i] down past every child weaker than it under
        # (score asc, id desc); one op per level it descends.
        heap = self._heap
        pos = self._pos
        scores = self.scores
        size = len(heap)
        f = heap[i]
        sf = scores[f]
        moved = 0
        while True:
            child = 2 * i + 1
            if child >= size:
                break
            c = heap[child]
            sc = scores[c]
            right = child + 1
            if right < size:
                r = heap[right]
                sr = scores[r]
                if sr < sc or (sr == sc and r > c):
                    child, c, sc = right, r, sr
            if sc < sf or (sc == sf and c > f):
                heap[i] = c
                pos[c] = i
                i = child
                moved += 1
            else:
                break
        heap[i] = f
        pos[f] = i
        self.op_counter += moved

    def bump(self, file_id: int, new_score: float):
        """Raise a file's score; returns (evicted, admitted) file ids.

        Both are None when top-C membership did not change. A non-member
        displaces the weakest member only when strictly stronger under
        the (score, lower-id) order.
        """
        if not 0 <= file_id < len(self.scores):
            raise ValueError(f"unknown file id {file_id}")
        old = self.scores[file_id]
        if new_score < old:
            raise ValueError(
                f"scores only increase: file {file_id} has {old}, got {new_score}"
            )
        if new_score == old:
            return (None, None)
        self.scores[file_id] = new_score
        i = self._pos[file_id]
        if i >= 0:
            self.op_counter += 1
            self._sift_down(i)
            return (None, None)
        root = self._heap[0]
        root_score = self.scores[root]
        if new_score > root_score or (new_score == root_score and file_id < root):
            self._pos[root] = -1
            self._heap[0] = file_id
            self._pos[file_id] = 0
            self.op_counter += 2
            self._sift_down(0)
            return (root, file_id)
        return (None, None)

    def replace_min(self, file_id: int, new_score: float) -> int:
        """Put a non-member in the weakest member's place; returns the evicted id.

        Unlike :meth:`bump` the swap is unconditional: the caller decides
        admission (LFU admits every observed miss).
        """
        if self._pos[file_id] >= 0:
            raise ValueError(f"file {file_id} is already a member")
        root = self._heap[0]
        self._pos[root] = -1
        self.scores[file_id] = new_score
        self._heap[0] = file_id
        self._pos[file_id] = 0
        self.op_counter += 2
        self._sift_down(0)
        return root
