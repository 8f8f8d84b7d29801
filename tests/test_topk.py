import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfplcache.oracle import top_c_reference
from nfplcache.topk import TopCTracker, top_c_indices


def test_build_plain_top2():
    tracker = TopCTracker([5, 1, 9, 7], 2)
    assert set(tracker.heap) == {2, 3}


def test_build_breaks_ties_by_lower_id():
    tracker = TopCTracker([1, 1, 1], 2)
    assert set(tracker.heap) == {0, 1}


def test_build_matches_full_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scores = rng.integers(0, 10, size=50).astype(float).tolist()
        tracker = TopCTracker(scores, 7)
        assert set(tracker.heap) == top_c_reference(scores, 7)


def test_build_rejects_capacity_beyond_catalog():
    with pytest.raises(ValueError):
        TopCTracker([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        TopCTracker([1.0, 2.0], 0)


def test_bump_displaces_weakest_member():
    tracker = TopCTracker([9, 7, 0], 2)
    assert set(tracker.heap) == {0, 1}
    evicted, admitted = tracker.bump(2, 8.0)
    assert (evicted, admitted) == (1, 2)
    assert set(tracker.heap) == {0, 2}


def test_bump_equal_score_kept_by_id_rule():
    # candidate id above the weakest member's id: tie keeps the member
    tracker = TopCTracker([9, 7, 0], 2)
    assert tracker.bump(2, 7.0) == (None, None)
    assert set(tracker.heap) == {0, 1}


def test_bump_equal_score_lower_id_wins():
    tracker = TopCTracker([5, 9, 7], 2)
    assert set(tracker.heap) == {1, 2}
    evicted, admitted = tracker.bump(0, 7.0)
    assert (evicted, admitted) == (2, 0)
    assert set(tracker.heap) == {0, 1}


def test_bump_member_increase_keeps_membership():
    tracker = TopCTracker([9, 7, 0], 2)
    assert tracker.bump(1, 20.0) == (None, None)
    assert set(tracker.heap) == {0, 1}
    assert tracker.heap[0] == 0


def test_bump_rejects_unknown_file_and_decreases():
    tracker = TopCTracker([1, 2, 3], 2)
    with pytest.raises(ValueError):
        tracker.bump(3, 1.0)
    with pytest.raises(ValueError):
        tracker.bump(-1, 1.0)
    with pytest.raises(ValueError):
        tracker.bump(2, 2.5)


def test_random_bumps_track_full_sort_oracle_stepwise():
    # membership must equal the sort oracle after every one of 10^4 bumps
    n, c = 30, 5
    rng = np.random.default_rng(42)
    scores = [0.0] * n
    tracker = TopCTracker(scores, c)
    files = rng.integers(0, n, size=10_000)
    grows = rng.integers(0, 4, size=10_000)
    for f, g in zip(files.tolist(), grows.tolist()):
        scores[f] += g
        tracker.bump(f, scores[f])
        assert set(tracker.heap) == top_c_reference(scores, c)


def test_op_counter_monotone_and_amortized_bound():
    n, c = 40, 9
    rng = np.random.default_rng(7)
    tracker = TopCTracker(rng.random(n).tolist(), c)
    base = tracker.op_counter
    changed = 0
    last = base
    per_bump = 2 * math.ceil(math.log2(c + 1)) + 2
    for f, g in zip(rng.integers(0, n, 5000).tolist(), rng.random(5000).tolist()):
        if g > 0:
            changed += 1
        tracker.bump(int(f), tracker.scores[f] + g)
        assert tracker.op_counter >= last
        last = tracker.op_counter
    assert tracker.op_counter - base <= changed * per_bump


def test_full_capacity_tracker_has_no_outsiders():
    tracker = TopCTracker([3.0, 1.0, 2.0], 3)
    assert set(tracker.heap) == {0, 1, 2}
    tracker.bump(1, 9.0)
    assert set(tracker.heap) == {0, 1, 2}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bump_sequences_track_top_c_reference(data):
    # small-integer scores and increments make ties common
    n = data.draw(st.integers(1, 20))
    c = data.draw(st.integers(1, n))
    scores = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    tracker = TopCTracker(scores, c)
    bumps = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2)),
                               max_size=80))
    for f, inc in bumps:
        scores[f] += inc
        tracker.bump(f, scores[f])
        members = set(tracker.heap)
        assert members == top_c_reference(scores, c)
        assert tracker.heap[0] == min(members, key=lambda g: (scores[g], -g))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(0, 4), min_size=1, max_size=60), data=st.data())
def test_top_c_indices_matches_stable_argsort_on_ties(values, data):
    c = data.draw(st.integers(1, len(values)))
    arr = np.array(values, dtype=float)  # five distinct values: ties everywhere
    want = np.argsort(-arr, kind="stable")[:c]
    assert set(top_c_indices(arr, c).tolist()) == set(want.tolist())


def reference_build(scores, c):
    """The tracker's construction order, kept independently: the members by
    ``heapq.nsmallest`` under (score desc, id asc), then a sift-down heapify
    under (score asc, id desc) from the last inner node, one op per level."""
    heap = heapq.nsmallest(c, range(len(scores)), key=lambda f: (-scores[f], f))

    def weaker(a, b):
        return scores[a] < scores[b] or (scores[a] == scores[b] and a > b)

    ops = 0
    for top in range(c // 2 - 1, -1, -1):
        i, f = top, heap[top]
        while 2 * i + 1 < c:
            child = 2 * i + 1
            if child + 1 < c and weaker(heap[child + 1], heap[child]):
                child += 1
            if not weaker(heap[child], f):
                break
            heap[i] = heap[child]
            i = child
            ops += 1
        heap[i] = f
    pos = [-1] * len(scores)
    for i, f in enumerate(heap):
        pos[f] = i
    return heap, pos, ops


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=1, max_size=40),
       data=st.data())
def test_build_order_matches_nsmallest_and_heapify(scores, data):
    # four distinct values make ties common; heap_ops and the heap layout of
    # every later bump follow from the order the tracker is built in
    c = data.draw(st.integers(1, len(scores)))
    tracker = TopCTracker(scores, c)
    heap, pos, ops = reference_build(scores, c)
    assert tracker.heap == heap
    assert tracker.pos == pos
    assert tracker.op_counter == ops


def raise_by_protocol(tracker, f, s):
    """Raise file ``f`` to ``s > scores[f]`` by the increase-key protocol of
    the tracker's docstring, as the static and lazy kernels do: the tracker
    is called only when the heap moves. Returns the op the caller owes for
    a member raise (1), or 0."""
    scores, heap, pos = tracker.scores, tracker.heap, tracker.pos
    size = len(heap)
    i = pos[f]
    if i >= size // 2:  # a leaf member
        scores[f] = s
        return 1
    if i >= 0:
        scores[f] = s
        for k in (2 * i + 1, 2 * i + 2):
            if k < size and (scores[heap[k]] < s or (scores[heap[k]] == s and heap[k] > f)):
                tracker.sift_down(i)
                break
        return 1
    root = heap[0]
    if s < scores[root] or (s == scores[root] and f > root):
        scores[f] = s
    else:
        tracker.bump(f, s)
    return 0


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_increase_key_protocol_matches_bump(data):
    # three distinct start scores and raises of 1.0 or 0.5 make a raised
    # member tie its children often, with lower and with higher ids
    n = data.draw(st.integers(1, 20))
    c = data.draw(st.integers(1, n))
    scores = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n))
    by_protocol, by_bump = TopCTracker(scores, c), TopCTracker(scores, c)
    raises = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([0.5, 1.0])),
                                max_size=80))
    owed = 0
    for f, inc in raises:
        s = by_bump.scores[f] + inc
        by_bump.bump(f, s)
        owed += raise_by_protocol(by_protocol, f, s)
        assert by_protocol.heap == by_bump.heap
        assert by_protocol.pos == by_bump.pos
        assert by_protocol.scores == by_bump.scores
    by_protocol.op_counter += owed  # tallied once, as the kernels do per block
    assert by_protocol.op_counter == by_bump.op_counter
