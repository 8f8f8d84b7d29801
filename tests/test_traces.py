import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nfplcache.core import STREAM_TRACE, Catalog, spawn_stream
from nfplcache.traces import (
    bpo_mask,
    bucket_count,
    gen_round_robin,
    gen_zipf,
    gen_zipf_rr,
    inverse_cdf,
    load_trace,
    save_trace,
    zipf_probs,
)


def test_zipf_two_file_ratio():
    trace = gen_zipf(Catalog(2), 1_000_000, 1.0, spawn_stream(3, 2))
    counts = np.bincount(trace.requests, minlength=2)
    assert counts[0] / counts[1] == pytest.approx(2.0, abs=0.01)


def test_zipf_single_file_catalog():
    trace = gen_zipf(Catalog(1), 5, 2.0, spawn_stream(0, 2))
    assert trace.requests.tolist() == [0, 0, 0, 0, 0]


def test_zipf_head_frequency_matches_harmonic_normalization():
    n = 10_000
    trace = gen_zipf(Catalog(n), 1_000_000, 1.0, spawn_stream(11, 2))
    freq0 = np.mean(trace.requests == 0)
    expected = 1.0 / np.sum(1.0 / np.arange(1, n + 1))
    assert expected == pytest.approx(0.1021, abs=0.0005)
    assert freq0 == pytest.approx(expected, abs=0.002)


def test_zipf_goodness_of_fit():
    n, t = 100, 1_000_000
    trace = gen_zipf(Catalog(n), t, 1.0, spawn_stream(5, 2))
    observed = np.bincount(trace.requests, minlength=n)
    expected = zipf_probs(n, 1.0) * t
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 1e-3


@pytest.mark.parametrize("n, t, alpha, seed, digest", [
    (1, 1000, 1.0, 0, "668946bab9868b28"),
    (120, 1_000_000, 1.0, 0, "f0c34a656a43cf73"),
    (10_000, 200_000, 1.0, 2024, "c5bfd7fbd3492dfc"),
    (1000, 100_003, 0.8, 7, "1624db21f2756496"),  # a partial last chunk
    (100_000, 300_000, 2.5, 3, "ee103dfd0ab570de"),  # wide buckets near 1
    (70_000, 65_537, 0.05, 11, "0e68399143e5b363"),
    (5, 65_536, 5.0, 1, "205507e3bfe3a8d8"),
])
def test_zipf_pinned_digests(n, t, alpha, seed, digest):
    trace = gen_zipf(Catalog(n), t, alpha, spawn_stream(seed, STREAM_TRACE))
    got = hashlib.sha256(trace.requests.astype("<i8").tobytes()).hexdigest()[:16]
    assert got == digest


def zipf_cdf(n, alpha):
    cum = np.cumsum(zipf_probs(n, alpha))
    cum[-1] = 1.0
    return cum


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 70_000), alpha=st.floats(0.05, 5.0),
       t=st.one_of(st.sampled_from([1, 65_535, 65_536, 65_537]), st.integers(1, 200_000)),
       seed=st.integers(0, 2**32 - 1))
def test_zipf_lookup_is_the_binary_search(n, alpha, t, seed):
    trace = gen_zipf(Catalog(n), t, alpha, spawn_stream(seed, STREAM_TRACE))
    u = spawn_stream(seed, STREAM_TRACE).random(t)
    want = np.searchsorted(zipf_cdf(n, alpha), u, side="right")
    assert np.array_equal(trace.requests, want)


class FixedUniforms:
    """Hands out given uniforms in order, as ``RngStream.random`` would."""

    def __init__(self, u):
        self.u = u
        self.at = 0

    def random(self, size):
        self.at += size
        return self.u[self.at - size:self.at]


def around(x):
    """x and its neighbouring doubles, kept in [0, 1)."""
    x = np.asarray(x, dtype=float)
    near = np.concatenate([np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)])
    return np.unique(near[(near >= 0.0) & (near < 1.0)])


def lookup(cum, k, u):
    return inverse_cdf(cum, k, len(u), FixedUniforms(u))


@pytest.mark.parametrize("n, alpha, t", [
    (1, 1.0, 1), (2, 1.0, 100), (5, 5.0, 1000), (120, 1.0, 1_000_000),
    (1000, 0.05, 100_000), (70_000, 5.0, 65_537), (100_000, 2.5, 300_000),
])
def test_zipf_lookup_on_bucket_edges_and_cdf_entries(n, alpha, t):
    cum = zipf_cdf(n, alpha)
    k = bucket_count(n, t)
    u = around(np.concatenate([np.arange(k) / k, cum]))
    assert np.array_equal(lookup(cum, k, u), np.searchsorted(cum, u, side="right"))


@pytest.mark.parametrize("side", [0.0, None, 1.0], ids=["below", "on", "above"])
@pytest.mark.parametrize("n, t", [(1, 1), (3, 40), (120, 1_000_000), (5000, 10_000)])
def test_lookup_where_the_cdf_sits_at_every_bucket_edge(n, t, side):
    # one cdf entry at each bucket edge, or one double to its side, so every
    # bucket holds one entry and takes the one-comparison answer
    k = bucket_count(n, t)
    edges = np.arange(1, k) / k
    cum = np.append(edges if side is None else np.nextafter(edges, side), 1.0)
    u = around(np.concatenate([np.arange(k) / k, cum]))
    assert np.array_equal(lookup(cum, k, u), np.searchsorted(cum, u, side="right"))


def test_zipf_draw_holds_one_trace_sized_array():
    # the ids take 7.6 MiB; the uniforms are drawn in 64k chunks beside them
    tracemalloc.start()
    try:
        gen_zipf(Catalog(120), 1_000_000, 1.0, spawn_stream(0, STREAM_TRACE))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_zipf_rejects_bad_alpha():
    with pytest.raises(ValueError):
        gen_zipf(Catalog(3), 10, 0.0, spawn_stream(0, 2))
    with pytest.raises(ValueError):
        gen_zipf(Catalog(3), 10, -1.0, spawn_stream(0, 2))


def test_zipf_rr_hand_traced_counts():
    trace = gen_zipf_rr(Catalog(3), 6, 1.0, counts=[3, 2, 1])
    assert trace.requests.tolist() == [2, 1, 0, 1, 0, 0]


def test_zipf_rr_single_descending_cycle():
    trace = gen_zipf_rr(Catalog(3), 3, 1.0, counts=[1, 1, 1])
    assert trace.requests.tolist() == [2, 1, 0]


def test_zipf_rr_relabels_by_popularity():
    # raw counts by original id get ranked: most-requested becomes label 0
    trace = gen_zipf_rr(Catalog(3), 6, 1.0, counts=[1, 2, 3])
    assert trace.requests.tolist() == [2, 1, 0, 1, 0, 0]


def test_zipf_rr_conserves_drawn_counts():
    n, t = 50, 4000
    trace = gen_zipf_rr(Catalog(n), t, 1.0, spawn_stream(9, 2))
    assert len(trace) == t
    emitted = np.bincount(trace.requests, minlength=n)
    # emitted counts are the sorted (descending) multinomial draw
    drawn = spawn_stream(9, 2).multinomial(t, zipf_probs(n, 1.0))
    assert emitted.tolist() == sorted(drawn.tolist(), reverse=True)


def test_zipf_rr_descending_between_restarts():
    trace = gen_zipf_rr(Catalog(20), 3000, 1.0, spawn_stream(13, 2))
    req = trace.requests
    # the trace ends with repeats of the single surviving file 0
    nonzero = np.nonzero(req)[0]
    head = req[: nonzero[-1] + 2]
    diffs = np.diff(head)
    # before that tail: strictly descending within a cycle, restarts jump up
    assert not np.any(diffs == 0)
    assert len(np.where(diffs > 0)[0]) > 0


def test_zipf_rr_early_cycles_are_complete():
    # while every file still has requests left, each cycle is N-1..0
    counts = [4, 3, 3, 2, 2]
    trace = gen_zipf_rr(Catalog(5), 14, 1.0, counts=counts)
    assert trace.requests.tolist()[:10] == [4, 3, 2, 1, 0, 4, 3, 2, 1, 0]


def ref_zipf_rr(counts) -> np.ndarray:
    """The trace as its spec states it: one descending cycle over the files
    with requests left, repeated, after ranking files by total (ties to the
    lower id)."""
    counts = np.asarray(counts, dtype=np.int64)
    order = np.lexsort((np.arange(len(counts)), -counts))
    ranked = counts[order]  # non-increasing
    neg = -ranked
    chunks = []
    for cycle in range(int(ranked[0])):
        active = int(np.searchsorted(neg, -cycle, side="left"))
        if active == 0:
            break
        chunks.append(np.arange(active - 1, -1, -1, dtype=np.int64))
    return np.concatenate(chunks)


@st.composite
def zipf_rr_counts(draw):
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):  # a single file holds every request
        counts = [0] * n
        counts[draw(st.integers(0, n - 1))] = draw(st.integers(1, 40))
        return counts
    # a small range makes zero totals and ties common
    return draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)
                .filter(lambda c: sum(c) > 0))


@settings(max_examples=300, deadline=None)
@given(counts=zipf_rr_counts())
def test_zipf_rr_closed_form_matches_cycle_loop(counts):
    trace = gen_zipf_rr(Catalog(len(counts)), sum(counts), 1.0, counts=counts)
    assert trace.requests.dtype == np.int64
    assert trace.requests.tolist() == ref_zipf_rr(counts).tolist()


@pytest.mark.parametrize("n, t, seed, digest", [
    (10_000, 200_000, 2024, "bc01e2609d1fb045"),
    (120, 1_000_000, 0, "6a21163feecfd84a"),
])
def test_zipf_rr_pinned_digests(n, t, seed, digest):
    trace = gen_zipf_rr(Catalog(n), t, 1.0, spawn_stream(seed, STREAM_TRACE))
    got = hashlib.sha256(trace.requests.astype("<i8").tobytes()).hexdigest()[:16]
    assert got == digest


def test_zipf_rr_rejects_negative_counts():
    # [3, -1, 2] sums to the length 4, yet is no valid set of totals
    with pytest.raises(ValueError, match="non-negative"):
        gen_zipf_rr(Catalog(3), 4, 1.0, counts=[3, -1, 2])


def test_round_robin_examples():
    assert gen_round_robin(Catalog(3), 7).requests.tolist() == [2, 1, 0, 2, 1, 0, 2]
    assert gen_round_robin(Catalog(1), 3).requests.tolist() == [0, 0, 0]


def test_round_robin_equal_totals():
    n, k = 7, 13
    trace = gen_round_robin(Catalog(n), k * n)
    assert np.bincount(trace.requests, minlength=n).tolist() == [k] * n


def test_bpo_mask_degenerate_probabilities():
    assert bpo_mask(64, 1.0, spawn_stream(0, 0)).bits.all()
    assert not bpo_mask(64, 0.0, spawn_stream(0, 0)).bits.any()


def test_bpo_mask_mean_concentrates():
    mask = bpo_mask(1_000_000, 0.5, spawn_stream(21, 0))
    assert 0.498 <= mask.bits.mean() <= 0.502


def test_bpo_mask_rejects_bad_probability():
    with pytest.raises(ValueError):
        bpo_mask(10, -0.1, spawn_stream(0, 0))
    with pytest.raises(ValueError):
        bpo_mask(10, 1.1, spawn_stream(0, 0))


def test_generators_are_pure_functions_of_stream():
    a = gen_zipf(Catalog(50), 1000, 1.0, spawn_stream(17, 2))
    b = gen_zipf(Catalog(50), 1000, 1.0, spawn_stream(17, 2))
    assert np.array_equal(a.requests, b.requests)
    c = gen_zipf_rr(Catalog(50), 1000, 1.0, spawn_stream(17, 2))
    d = gen_zipf_rr(Catalog(50), 1000, 1.0, spawn_stream(17, 2))
    assert np.array_equal(c.requests, d.requests)


def test_load_remaps_sparse_ids_by_first_appearance(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_text("7\n7\n3\n", encoding="utf-8")
    trace = load_trace(path)
    assert trace.catalog.n_files == 2
    assert trace.requests.tolist() == [0, 0, 1]


def test_load_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("abc\n1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_trace(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_trace(path)


def test_save_then_load_round_trips(tmp_path):
    trace = gen_round_robin(Catalog(5), 17)
    path = tmp_path / "rr.txt"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.catalog.n_files == trace.catalog.n_files
    assert loaded.requests.tolist() == trace.requests.tolist()


def test_dense_ids_are_kept_verbatim(tmp_path):
    # [1, 0] is dense 0-based: it must not be relabeled to [0, 1]
    path = tmp_path / "dense.txt"
    path.write_text("1\n0\n", encoding="utf-8")
    assert load_trace(path).requests.tolist() == [1, 0]


def test_csv_format_with_named_column(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("ts,obj_id\n1,42\n2,42\n3,9\n", encoding="utf-8")
    trace = load_trace(path, id_column="obj_id")
    assert trace.requests.tolist() == [0, 0, 1]
    with pytest.raises(ValueError, match="id column"):
        load_trace(path, id_column="nope")
    with pytest.raises(ValueError):
        load_trace(path)  # csv needs a column name


def test_plain_lines_file_rejects_an_id_column(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("3\n1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="only to a .csv trace"):
        load_trace(path, id_column="obj_id")
