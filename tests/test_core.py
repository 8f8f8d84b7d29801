import math

import numpy as np
import pytest

import nfplcache
from nfplcache.core import (
    DRAW_CHUNK,
    STREAM_BPO,
    STREAM_POLICY,
    STREAM_TRACE,
    Catalog,
    PolicyConfig,
    RngStream,
    Trace,
    default_eta,
    spawn_stream,
)
from nfplcache.engine import PolicySpec, TraceSpec, run_experiment


def test_default_eta_theoretical_simple():
    assert default_eta(1, 1, 8) == 2.0


def test_default_eta_experimental_at_long_horizon():
    # sqrt(1 * 2e5 / (2*100)) = sqrt(1000)
    got = default_eta(1, 100, 200_000, observe_prob=1.0, kind="experimental")
    assert got == pytest.approx(31.6228, abs=1e-4)


def test_default_eta_large_batch():
    assert default_eta(100, 100, 200_000) == pytest.approx(316.228, abs=1e-3)


def test_default_eta_rejects_zero_inputs():
    with pytest.raises(ValueError):
        default_eta(0, 1, 8)
    with pytest.raises(ValueError):
        default_eta(1, 0, 8)
    with pytest.raises(ValueError):
        default_eta(1, 1, 0)
    with pytest.raises(ValueError):
        default_eta(1, 1, 8, kind="nope")
    with pytest.raises(ValueError, match="observe_prob"):
        default_eta(1, 1, 8, observe_prob=0.0, kind="experimental")


def test_spawn_stream_is_deterministic():
    a = spawn_stream(1234, 0).random(100)
    b = spawn_stream(1234, 0).random(100)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    same = sum(
        spawn_stream(s, 0).random() == spawn_stream(s, 1).random()
        for s in range(1000)
    )
    assert same == 0


def test_uniform_respects_half_open_range():
    eta = 3.5
    draws = spawn_stream(7, 2).uniform(0.0, eta, 10_000)
    assert draws.min() >= 0.0
    assert draws.max() < eta


def test_substreams_are_reproducible_and_distinct():
    s = spawn_stream(5, 1)
    a = s.substream(0).random(8)
    b = s.substream(0).random(8)
    c = s.substream(1).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # a substream of a substream is keyed under it, not beside it
    nested = s.substream(1).substream(2).random(8)
    assert not np.array_equal(nested, s.substream(2).random(8))
    assert not np.array_equal(nested, c)


def raw_generator(seed, path):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


@pytest.mark.parametrize("path, build", [
    ((0,), lambda seed: spawn_stream(seed, STREAM_BPO)),
    ((0, 0), lambda seed: spawn_stream(seed, STREAM_BPO).substream(0)),
    ((0, 1), lambda seed: spawn_stream(seed, STREAM_BPO).substream(1)),
    ((1,), lambda seed: spawn_stream(seed, STREAM_POLICY)),
    ((1, 1), lambda seed: spawn_stream(seed, STREAM_POLICY).substream(1)),
    ((2,), lambda seed: spawn_stream(seed, STREAM_TRACE)),
], ids=["mask", "unpaired-mask-0", "unpaired-mask-1", "noise", "sampling", "trace"])
def test_each_key_path_draws_its_seed_sequence(path, build):
    # the stream the program builds for each path draws the raw numpy
    # stream of SeedSequence(seed, spawn_key=path)
    for seed in (0, 2024):
        stream = build(seed)
        assert stream.key == path
        assert np.array_equal(stream.random(16), raw_generator(seed, path).random(16))


def test_an_experiment_reads_only_the_listed_key_paths(monkeypatch):
    # unpaired masks at p < 1, sampled NFPL at q < 1, d-nfpl and a
    # generated trace: together every stream the program builds
    built = []
    init = RngStream.__init__

    def record(self, seed, *key):
        init(self, seed, *key)
        built.append(key)

    monkeypatch.setattr(RngStream, "__init__", record)
    cfg = PolicyConfig(cache_capacity=3, observe_prob=0.5, sample_prob=0.5, eta=2.0)
    specs = [PolicySpec(name, cfg) for name in ("s-nfpl", "d-nfpl", "lfu")]
    run_experiment(TraceSpec(kind="zipf", n_files=30, length=400), specs, runs=1,
                   base_seed=5, paired=False)
    assert set(built) == {(0,), (0, 0), (0, 1), (0, 2), (1,), (1, 1), (2,)}


def test_bernoulli_edge_probabilities():
    s = spawn_stream(0, 0)
    assert s.bernoulli(1.0, 50).all()
    assert not s.bernoulli(0.0, 50).any()
    with pytest.raises(ValueError):
        s.bernoulli(1.5, 10)


@pytest.mark.parametrize("size", [0, 1, DRAW_CHUNK - 1, DRAW_CHUNK,
                                  DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 3])
def test_bernoulli_bits_match_one_uniform_draw(size):
    # drawn chunk by chunk, yet the same bits as one draw of `size` uniforms,
    # and the stream continues where the chunks stopped
    s = spawn_stream(3, 0)
    got = np.concatenate([s.bernoulli(0.3, size), s.bernoulli(0.3, 5)])
    want = spawn_stream(3, 0).random(size + 5) < 0.3
    assert got.dtype == bool
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [0, 1, 9, 10])
def test_random_prefix_matches_one_uniform_draw(m):
    # the first m of one random(10) draw, and the stream continues after
    # all ten; m = 0 skips ten draws
    s = spawn_stream(4, 1)
    got = np.concatenate([s.random_prefix(m, 10), s.random(5)])
    full = spawn_stream(4, 1).random(15)
    assert np.array_equal(got, np.concatenate([full[:m], full[10:]]))


def test_random_prefix_rejects_a_prefix_longer_than_the_draw():
    with pytest.raises(ValueError):
        spawn_stream(4, 1).random_prefix(3, 2)


def test_snapshot_continues_from_the_current_position():
    s = spawn_stream(6, 1)
    s.random(3)
    copy = s.snapshot()
    ahead = s.random(4)
    assert np.array_equal(copy.random(4), ahead)
    assert np.array_equal(copy.random(2), s.random(2))
    # a substream's copy keeps its key path
    sub = s.substream(1)
    sub.bernoulli(0.5, 3)
    copy = sub.snapshot()
    assert (copy.seed, copy.key) == (6, (1, 1))
    assert np.array_equal(copy.random(4), sub.random(4))


def test_catalog_requires_files():
    with pytest.raises(ValueError):
        Catalog(0)
    assert Catalog(3).n_files == 3


def test_trace_validates_ids_and_length():
    cat = Catalog(3)
    with pytest.raises(ValueError):
        Trace(cat, [0, 3])
    with pytest.raises(ValueError):
        Trace(cat, [-1])
    with pytest.raises(ValueError):
        Trace(cat, [])
    assert len(Trace(cat, [0, 1, 2])) == 3


def test_policy_config_validation():
    PolicyConfig(cache_capacity=2, eta=1.0)
    with pytest.raises(ValueError):
        PolicyConfig(cache_capacity=0, eta=1.0)
    with pytest.raises(ValueError, match="batch_size"):
        PolicyConfig(cache_capacity=1, batch_size=0, eta=1.0)
    with pytest.raises(ValueError):
        PolicyConfig(cache_capacity=1, eta=0.0)
    for eta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="eta"):
            PolicyConfig(cache_capacity=1, eta=eta)
    with pytest.raises(ValueError):
        PolicyConfig(cache_capacity=1, eta=1.0, observe_prob=0.0)
    with pytest.raises(ValueError):
        PolicyConfig(cache_capacity=1, eta=1.0, sample_prob=1.5)
    with pytest.raises(ValueError):
        PolicyConfig(cache_capacity=1, batch_size=4, eta=1.0, fixed_per_batch=0)
    with pytest.raises(ValueError):
        PolicyConfig(cache_capacity=1, batch_size=4, eta=1.0, fixed_per_batch=5)
    # fixed sampling decides alone which requests count, so a Bernoulli
    # rate next to it would be silently ignored
    with pytest.raises(ValueError, match="sample_prob"):
        PolicyConfig(cache_capacity=1, batch_size=4, eta=1.0, sample_prob=0.5,
                     fixed_per_batch=2)
    cfg = PolicyConfig(cache_capacity=1, batch_size=4, eta=1.0, fixed_per_batch=2)
    assert cfg.fixed_per_batch == 2


def test_every_public_name_resolves():
    # a stale entry in __all__ breaks only ``from nfplcache import *``
    missing = [name for name in nfplcache.__all__ if not hasattr(nfplcache, name)]
    assert missing == []


def test_eta_formula_value():
    # closed form against a direct evaluation on odd inputs
    assert default_eta(3, 7, 1000) == pytest.approx(math.sqrt(3 * 1000 / 14))
