"""Synthetic trace generators, trace file ingestion, and observation masks.

Generators are pure functions of their arguments and the supplied
:class:`~nfplcache.core.RngStream`. File ids are dense 0-based integers;
for synthetic traces id 0 is always the most popular file.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DRAW_CHUNK, Catalog, RngStream, Trace


@dataclass(eq=False)
class ObservationMask:
    """Per-request visibility bits: entry t is True when request t is seen."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.ndim != 1:
            raise ValueError("mask must be one-dimensional")

    def __len__(self) -> int:
        return len(self.bits)


def zipf_probs(n_files: int, alpha: float) -> np.ndarray:
    """Zipf pmf over dense ids: P(i) proportional to 1/(i+1)^alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    weights = 1.0 / np.power(np.arange(1, n_files + 1, dtype=float), alpha)
    return weights / weights.sum()


def bucket_count(n_files: int, length: int) -> int:
    """The number k of buckets ``gen_zipf`` cuts [0, 1) into: a power of two,
    about four per file and at most ``length / 4``, so building the table
    never costs more than the draws."""
    return 1 << min((n_files - 1).bit_length() + 2, (length // 4).bit_length())


def inverse_cdf(cum: np.ndarray, k: int, length: int, rng: RngStream) -> np.ndarray:
    """``searchsorted(cum, rng.random(length), side="right")`` through k
    buckets, for a non-decreasing ``cum`` that ends at 1.0 and a power of
    two k; the uniforms are drawn ``DRAW_CHUNK`` at a time."""
    # lo[b] = #{cum <= b/k}, exact as cum * k is
    lo = np.cumsum(np.bincount(np.ceil(cum * k).astype(np.intp), minlength=k + 1))
    first = lo[:k]
    edge = cum[first]  # the first entry above b/k
    wide = lo[1:k + 1] - first > 1
    ids = np.empty(length, dtype=np.int64)
    for start in range(0, length, DRAW_CHUNK):
        chunk = ids[start:start + DRAW_CHUNK]
        u = rng.random(len(chunk))
        b = (u * k).astype(np.intp)
        np.add(first[b], u >= edge[b], out=chunk)
        far = np.flatnonzero(wide[b])
        chunk[far] = np.searchsorted(cum, u[far], side="right")
    return ids


def gen_zipf(catalog: Catalog, length: int, alpha: float, rng: RngStream) -> Trace:
    """I.i.d. Zipf-distributed requests, sampled by inverse-cdf lookup.

    Request t is ``searchsorted(cum, u_t, side="right")`` for the t-th
    uniform u_t of ``rng``, exactly; the lookup reads a table of k buckets
    (``bucket_count``) instead of binary-searching every u_t.

    Since k is a power of two, ``u * k`` and ``cum * k`` are exact. So
    bucket ``b = floor(u * k)`` holds exactly the u with
    ``b/k <= u < (b+1)/k``, and the answer lies in ``lo[b] .. lo[b+1]``,
    where ``lo[b]`` is the number of ``cum`` entries ``<= b/k``:
    ``cumsum(bincount(ceil(cum * k)))``. Where a bucket holds at most one
    entry of ``cum``, the answer is ``lo[b] + (u >= cum[lo[b]])``. The u
    in a wider bucket take ``searchsorted`` itself. Buckets widen only
    where entries of ``cum`` lie closer than 1/k: in the flat tail of a
    steep Zipf, which few u reach, or wherever ``length / 4`` caps k well
    below 4N. The table costs O(N + k) and each request O(1).

    The uniforms are drawn in chunks into the id array, so no float array
    of the trace's length is ever held; ``Generator.random`` yields the
    same values however a draw is split.
    """
    if length < 1:
        raise ValueError("length must be positive")
    cum = np.cumsum(zipf_probs(catalog.n_files, alpha))
    cum[-1] = 1.0
    k = bucket_count(catalog.n_files, length)
    return Trace(catalog, inverse_cdf(cum, k, length, rng))


def gen_zipf_rr(
    catalog: Catalog,
    length: int,
    alpha: float,
    rng: RngStream | None = None,
    counts: np.ndarray | None = None,
) -> Trace:
    """Adversarially ordered trace with Zipf-distributed totals.

    Per-file totals are drawn multinomially, files are relabeled by
    popularity rank (0 = most requests, ties to the lower original id),
    and requests are emitted in descending round-robin cycles: each cycle
    walks the still-active files from the highest label down to 0, and a
    file drops out once its total is exhausted.

    The trace is built in closed form rather than cycle by cycle. Cycle c
    holds ``active[c]`` requests, the number of files with a total above
    c, and ends at position ``ends[c] = cumsum(active)[c]``; its request
    at position t has label ``ends[c] - 1 - t``. So the whole trace is
    ``repeat(ends - 1, active) - arange(length)``. The output holds only
    rank labels, so how ties between totals are ranked cannot change it.

    ``counts`` injects the per-file totals directly, bypassing the
    multinomial draw, so tests can assert the emitted order exactly.
    """
    n = catalog.n_files
    if length < 1:
        raise ValueError("length must be positive")
    if counts is None:
        if rng is None:
            raise ValueError("either rng or counts is required")
        counts = rng.multinomial(length, zipf_probs(n, alpha))
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (n,):
        raise ValueError(f"counts must have one entry per file, got {counts.shape}")
    if counts.min() < 0:
        raise ValueError("counts must be non-negative")
    if counts.sum() != length:
        raise ValueError("counts must sum to the trace length")

    # files with a total above c, for each cycle c below the largest total
    active = n - np.cumsum(np.bincount(counts))[:-1]
    ends = np.cumsum(active)
    requests = np.repeat(ends - 1, active)
    requests -= np.arange(length)
    return Trace(catalog, requests)


def gen_round_robin(catalog: Catalog, length: int) -> Trace:
    """Equal-popularity cycles N-1, N-2, ..., 0, truncated at length."""
    if length < 1:
        raise ValueError("length must be positive")
    n = catalog.n_files
    cycle = np.arange(n - 1, -1, -1, dtype=np.int64)
    reps = -(-length // n)
    return Trace(catalog, np.tile(cycle, reps)[:length])


def bpo_mask(length: int, p: float, rng: RngStream) -> ObservationMask:
    """I.i.d. Bernoulli(p) visibility bits for a length-T trace."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("observation probability must lie in [0, 1]")
    if length < 1:
        raise ValueError("length must be positive")
    return ObservationMask(rng.bernoulli(p, length))


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write one decimal file id per line (UTF-8)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(str, trace.requests.tolist())))
        fh.write("\n")


def _parse_lines(path: Path) -> list[int]:
    raw = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                continue
            try:
                raw.append(int(token))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not an integer id: {token!r}")
    return raw


def _parse_csv(path: Path, id_column: str) -> list[int]:
    raw = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or id_column not in reader.fieldnames:
            raise ValueError(
                f"{path}: id column {id_column!r} not found "
                f"(header: {reader.fieldnames})"
            )
        for row in reader:
            token = (row[id_column] or "").strip()
            try:
                raw.append(int(token))
            except ValueError:
                raise ValueError(
                    f"{path}: line {reader.line_num}: not an integer id: {token!r}"
                )
    return raw


def load_trace(path: str | Path, id_column: str | None = None) -> Trace:
    """Read a trace file: one decimal id per line, or for a ``.csv`` path a
    header row and the id column named ``id_column``, which only a ``.csv``
    path takes.

    Ids that are already dense and 0-based are kept as they are, so saving
    and reloading a trace is the identity. Other ids are remapped to dense
    0-based ids by first appearance. The catalog is sized to the ids.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        if id_column is None:
            raise ValueError("csv format requires an id column name")
        raw = _parse_csv(path, id_column)
    elif id_column is not None:
        raise ValueError(f"{path}: an id column applies only to a .csv trace")
    else:
        raw = _parse_lines(path)
    if not raw:
        raise ValueError(f"{path}: empty trace file")

    distinct = set(raw)
    if min(distinct) == 0 and max(distinct) == len(distinct) - 1:
        requests = np.asarray(raw, dtype=np.int64)
    else:
        mapping = {}
        for rid in raw:
            if rid not in mapping:
                mapping[rid] = len(mapping)
        requests = np.fromiter((mapping[r] for r in raw), dtype=np.int64, count=len(raw))
    return Trace(Catalog(len(distinct)), requests)
