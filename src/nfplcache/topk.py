"""Incremental maintenance of the C files with the largest scores.

The tracker keeps the current top-C members in a position-indexed binary
min-heap keyed by (score asc, id desc), so the root is always the member
that would be displaced first. Scores only ever increase in this system,
which reduces every update to an increase-key or a replace-root, both
O(log C). ``op_counter`` tallies heap work (one per swap, plus one per
insert/delete event) so callers can measure amortized cost. Hot loops
raise scores through the tracker's public views and call it only when the
heap moves (see :class:`TopCTracker`).

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
    file's index in ``heap``, -1 for a non-member) and ``scores`` are
    public views. A caller may raise file ``f``'s score to ``s`` without
    calling :meth:`bump` by following the increase-key protocol, which
    leaves ``heap``, ``pos``, ``scores`` and ``op_counter`` as :meth:`bump`
    does for a valid id and ``s > scores[f]``:

    * member (``i = pos[f] >= 0``): set ``scores[f] = s`` and add 1 to
      ``op_counter`` (a loop may sum these and add them once). Call
      ``sift_down(i)`` only when a child of ``i`` is weaker than ``f`` at
      its new score, that is ``scores[c] < s`` or ``scores[c] == s`` and
      ``c > f``. A leaf (``i >= len(heap) // 2``) has no child, and a
      ``sift_down`` past no weaker child moves nothing and adds nothing;
    * non-member that does not beat the root ``r = heap[0]``, that is
      ``s < scores[r]`` or ``s == scores[r]`` and ``f > r``: set
      ``scores[f] = s``; membership cannot change;
    * any other case goes through :meth:`bump`, which swaps the file in and
      returns ``(evicted, admitted)``.

    No other write to ``heap``, ``pos`` or ``scores`` keeps the heap valid.
    :meth:`bump` checks its arguments; the protocol leaves the id check to
    its caller.
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
            self.sift_down(i)

    def sift_down(self, i: int) -> None:
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
            self.sift_down(i)
            return (None, None)
        root = self.heap[0]
        root_score = self.scores[root]
        if new_score > root_score or (new_score == root_score and file_id < root):
            self.pos[root] = -1
            self.heap[0] = file_id
            self.pos[file_id] = 0
            self.op_counter += 2
            self.sift_down(0)
            return (root, file_id)
        return (None, None)
