"""Shared domain types and the deterministic random-number contract.

Randomness is organized as named substreams of a single 64-bit seed, so
that any simulation is a pure function of its configuration. Substreams
are built on numpy's PCG64 through ``SeedSequence(seed, spawn_key=...)``,
which guarantees bit-identical draws across platforms and statistically
independent streams for distinct stream ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Fixed stream ids: the observation mask, policy-internal randomness, and
# synthetic trace generation never share a stream.
STREAM_BPO = 0
STREAM_POLICY = 1
STREAM_TRACE = 2

DRAW_CHUNK = 65_536  # uniforms drawn per step of a chunked draw


@dataclass(frozen=True)
class Catalog:
    """The set of cacheable files, identified by dense ids 0..n_files-1."""

    n_files: int

    def __post_init__(self) -> None:
        if self.n_files < 1:
            raise ValueError(f"catalog needs at least one file, got {self.n_files}")


@dataclass(eq=False)
class Trace:
    """An ordered request sequence over a catalog."""

    catalog: Catalog
    requests: np.ndarray  # int array, each entry in [0, n_files)

    def __post_init__(self) -> None:
        self.requests = np.asarray(self.requests, dtype=np.int64)
        if self.requests.ndim != 1 or len(self.requests) < 1:
            raise ValueError("trace must contain at least one request")
        lo = int(self.requests.min())
        hi = int(self.requests.max())
        if lo < 0 or hi >= self.catalog.n_files:
            raise ValueError(
                f"request ids must lie in [0, {self.catalog.n_files}), "
                f"saw range [{lo}, {hi}]"
            )

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class CacheState:
    """An immutable snapshot of the stored file set."""

    stored: frozenset[int]

    def __contains__(self, file_id: int) -> bool:
        return file_id in self.stored

    def __len__(self) -> int:
        return len(self.stored)


@dataclass(frozen=True)
class PolicyConfig:
    """All tunables for one policy instance.

    ``eta`` is stored, not recomputed per step; use :func:`default_eta`
    to fill it from the horizon. Requests are sampled i.i.d. Bernoulli
    (``sample_prob``), or exactly ``fixed_per_batch`` per batch when it is
    set; fixed sampling takes no ``sample_prob``.
    """

    cache_capacity: int
    batch_size: int = 1
    observe_prob: float = 1.0
    sample_prob: float = 1.0
    eta: float = 1.0
    fixed_per_batch: int | None = None

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 0.0 < self.observe_prob <= 1.0:
            raise ValueError("observe_prob must lie in (0, 1]")
        if not 0.0 < self.sample_prob <= 1.0:
            raise ValueError("sample_prob must lie in (0, 1]")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError("eta must be positive and finite")
        b = self.fixed_per_batch
        if b is not None:
            if not 1 <= b <= self.batch_size:
                raise ValueError("fixed sampling needs 1 <= fixed_per_batch <= batch_size")
            if self.sample_prob != 1.0:
                raise ValueError("fixed sampling (fixed_per_batch) takes no sample_prob")


def default_eta(
    batch_size: int,
    cache_capacity: int,
    horizon: int,
    observe_prob: float = 1.0,
    kind: str = "theoretical",
) -> float:
    """Noise magnitude for a given horizon.

    ``theoretical`` returns sqrt(B*T / 2C); ``experimental`` scales it by
    the observation probability p.
    """
    if batch_size < 1 or cache_capacity < 1 or horizon < 1:
        raise ValueError("batch_size, cache_capacity and horizon must be positive")
    eta = math.sqrt(batch_size * horizon / (2.0 * cache_capacity))
    if kind == "theoretical":
        return eta
    if kind == "experimental":
        if not 0.0 < observe_prob <= 1.0:
            raise ValueError("observe_prob must lie in (0, 1]")
        return observe_prob * eta
    raise ValueError("kind must be 'theoretical' or 'experimental'")


@dataclass(eq=False)
class RngStream:
    """A named, reproducible substream of a master seed.

    Same (seed, stream_id) always yields the same draw sequence.
    """

    seed: int
    stream_id: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def substream(self, key: int) -> "RngStream":
        """Derive an independent stream keyed under this one."""
        child = object.__new__(RngStream)
        child.seed = self.seed
        child.stream_id = self.stream_id
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, key)
        )
        child._gen = np.random.Generator(np.random.PCG64(ss))
        return child

    def snapshot(self) -> "RngStream":
        """An independent copy that continues from this stream's position."""
        child = object.__new__(RngStream)
        child.seed = self.seed
        child.stream_id = self.stream_id
        bits = np.random.PCG64(0)
        bits.state = self._gen.bit_generator.state
        child._gen = np.random.Generator(bits)
        return child

    # Draw helpers: thin wrappers so policies never touch the generator.
    def random(self, size: int | None = None):
        return self._gen.random(size)

    def random_prefix(self, m: int, n: int) -> np.ndarray:
        """The first ``m`` of ``n`` uniforms in [0, 1); the other ``n - m``
        are skipped, not drawn, and the stream continues as after
        ``random(n)``. Each double takes one PCG64 output, so the skip is
        one ``advance``; ``random_prefix(0, k)`` skips k draws. Exact on a
        stream that draws doubles only: ``advance`` also drops the half
        output that a 32-bit draw leaves buffered."""
        if not 0 <= m <= n:
            raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
        values = self._gen.random(m)
        if m < n:
            self._gen.bit_generator.advance(n - m)
        return values

    def uniform(self, low: float, high: float, size: int | None = None):
        return self._gen.uniform(low, high, size)

    def bernoulli(self, p: float, size: int) -> np.ndarray:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if p >= 1.0:
            return np.ones(size, dtype=bool)
        if p <= 0.0:
            return np.zeros(size, dtype=bool)
        # chunked, so a long mask never needs a float64 temporary of its
        # own length; the generator yields the same values either way
        bits = np.empty(size, dtype=bool)
        for lo in range(0, size, DRAW_CHUNK):
            chunk = bits[lo:lo + DRAW_CHUNK]
            np.less(self._gen.random(len(chunk)), p, out=chunk)
        return bits

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def multinomial(self, n: int, pvals: np.ndarray) -> np.ndarray:
        return self._gen.multinomial(n, pvals)


def spawn_stream(seed: int, stream_id: int) -> RngStream:
    """Deterministic substream: repeated calls return identical streams."""
    return RngStream(seed, stream_id)
