"""Incremental maintenance of the C files with the largest scores.

The tracker keeps the current top-C members in a position-indexed binary
min-heap keyed by (score asc, id desc), so the root is always the member
that would be displaced first. Scores only ever increase in this system,
which reduces every update to an increase-key or a replace-root, both
O(log C). ``op_counter`` tallies heap work (one per swap, plus one per
insert/delete event) so callers can measure amortized cost. Scores rise
through two methods: :meth:`TopCTracker.bump` raises one file and checks its
arguments, and :meth:`TopCTracker.raise_scores` raises a list of files and
touches the heap only where it moves. Nothing outside this module writes the
tracker's state.

:func:`top_c_indices` is the one-shot counterpart for a score vector
ranked once: the candidates of a dynamic-noise refresh, whose noise is
redrawn wholesale, the request counts of the static optimum, and the
scores a tracker is built from.
"""

from __future__ import annotations

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
    part = values.copy()  # ndarray.partition, without np.partition's Python wrapper
    part.partition(n - c)
    kth = part[n - c]
    candidates = (values >= kth).nonzero()[0]  # flatnonzero, without its wrappers
    if len(candidates) > c:
        order = np.lexsort((candidates, -values[candidates]))
        candidates = candidates[order[:c]]
    return candidates


class TopCTracker:
    """Top-C view over a dense score table with increase-only updates.

    Ties are broken toward the lower file id everywhere: the members are
    exactly the first C files under (score desc, id asc) ordering. The
    tracker copies the scores it is built from. It finds the members with
    :func:`top_c_indices`, lists them in that order and heapifies the list
    by sifting down from the last inner node, so ``heap`` and ``op_counter``
    depend only on the scores. The member set is ``set(heap)``.

    ``heap`` (member ids in heap order, weakest at index 0), ``pos`` (each
    file's index in ``heap``, -1 for a non-member), ``scores`` and
    ``op_counter`` are read-only views. Scores rise only through
    :meth:`bump` and :meth:`raise_scores`, which leave the heap valid;
    nothing outside this class writes these fields.
    """

    __slots__ = ("scores", "heap", "pos", "op_counter")

    def __init__(self, scores, capacity: int):
        n = len(scores)
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if capacity > n:
            raise ValueError(f"capacity {capacity} exceeds file count {n}")
        values = np.asarray(scores, dtype=float)
        self.scores = scores = values.tolist()
        self.op_counter = 0
        members = sorted(top_c_indices(values, capacity).tolist(), key=lambda f: (-scores[f], f))
        self.heap = members
        self.pos = [-1] * n
        for i, f in enumerate(members):
            self.pos[f] = i
        for i in range(capacity // 2 - 1, -1, -1):
            self._sift_down(i)

    def _sift_down(self, i: int) -> None:
        """Move ``heap[i]`` down past every child weaker than it under
        (score asc, id desc), adding one to ``op_counter`` per level."""
        heap = self.heap
        pos = self.pos
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
        i = self.pos[file_id]
        if i >= 0:
            self.op_counter += 1
            self._sift_down(i)
            return (None, None)
        root = self.heap[0]
        root_score = self.scores[root]
        if new_score > root_score or (new_score == root_score and file_id < root):
            self.pos[root] = -1
            self.heap[0] = file_id
            self.pos[file_id] = 0
            self.op_counter += 2
            self._sift_down(0)
            return (root, file_id)
        return (None, None)

    def raise_scores(self, files, new_scores=None) -> list:
        """Raise the files of the list ``files`` in turn; returns the swaps,
        each as ``(j, evicted)``: raising ``files[j]`` displaced the member
        ``evicted``.

        Without ``new_scores`` each raise adds one to the file's score as it
        reads at its turn, so a file listed twice rises by two. Otherwise
        ``files[j]`` rises to ``new_scores[j]``, which must exceed its score.
        Each raise leaves ``heap``, ``pos``, ``scores`` and ``op_counter`` as
        :meth:`bump` does, but calls nothing where the heap does not move: a
        member at a leaf only takes its score, a member at an inner node
        sifts down only past a child now weaker, and a non-member swaps in
        through :meth:`bump` only when it beats the root. Each member raise
        is one op, added once per call. The ids are not checked.
        """
        scores, heap, pos = self.scores, self.heap, self.pos
        bump, sift_down = self.bump, self._sift_down
        size = len(heap)
        inner = size // 2  # heap[i] is a leaf from here on
        by_one = new_scores is None
        outside = 0  # raises of non-members
        swaps = []
        for j, f in enumerate(files):
            s = scores[f] + 1.0 if by_one else new_scores[j]
            i = pos[f]
            if i >= inner:  # a leaf member
                scores[f] = s
            elif i >= 0:
                scores[f] = s
                k = 2 * i + 1
                c = heap[k]
                sc = scores[c]
                if sc < s or (sc == s and c > f):
                    sift_down(i)
                elif k + 1 < size:
                    c = heap[k + 1]
                    sc = scores[c]
                    if sc < s or (sc == s and c > f):
                        sift_down(i)
            else:
                outside += 1
                root = heap[0]
                rs = scores[root]
                if s < rs or (s == rs and f > root):
                    scores[f] = s
                else:
                    swaps.append((j, bump(f, s)[0]))
        self.op_counter += len(files) - outside
        return swaps
