"""Microbenchmarks of the hot data paths.

These are classic pytest-benchmark loops (many rounds, statistical
timing) over the structures every simulated request exercises — useful
for catching performance regressions in the library itself, independent
of any figure.
"""

import numpy as np

from repro.core.cache import ICCache
from repro.core.descriptors import HashDescriptor, VectorDescriptor
from repro.core.index import LinearIndex, LshIndex
from repro.net import Link, Message
from repro.render.mesh import generate_mesh, pack_rmsh, unpack_rmsh
from repro.sim import Environment
from repro.vision.features import EmbeddingSpace

SPACE = EmbeddingSpace(dim=128, n_classes=2000, seed=0)


def _filled_cache(n_entries: int) -> ICCache:
    cache = ICCache(capacity_bytes=1_000_000_000)
    for cls in range(n_entries):
        vec = SPACE.observe(cls, 0.0, noise_key=cls).vector
        cache.insert(VectorDescriptor("recognition", vec), cls, 2048)
    return cache


def test_cache_vector_lookup_1k(benchmark):
    cache = _filled_cache(1000)
    probe = VectorDescriptor(
        "recognition", SPACE.observe(500, 0.3, noise_key=10_000).vector)
    result = benchmark(cache.lookup, probe, 0.0, 0.2)
    assert result is not None


def test_cache_hash_lookup(benchmark):
    cache = ICCache(capacity_bytes=1_000_000)
    for i in range(1000):
        cache.insert(HashDescriptor("model_load", f"{i:08x}"), i, 100)
    probe = HashDescriptor("model_load", f"{500:08x}")
    result = benchmark(cache.lookup, probe, 0.0)
    assert result is not None


def test_linear_index_query_5k(benchmark):
    index = LinearIndex()
    for cls in range(1000):
        for k in range(5):
            vec = SPACE.observe(cls, 0.1 * k, noise_key=cls * 10 + k).vector
            index.insert(cls * 10 + k, VectorDescriptor("r", vec))
    probe = VectorDescriptor(
        "r", SPACE.observe(123, 0.05, noise_key=99_999).vector)
    result = benchmark(index.query, probe, 0.2)
    assert result is not None


def test_lsh_index_query_5k(benchmark):
    index = LshIndex(dim=128)
    for cls in range(1000):
        for k in range(5):
            vec = SPACE.observe(cls, 0.1 * k, noise_key=cls * 10 + k).vector
            index.insert(cls * 10 + k, VectorDescriptor("r", vec))
    probe = VectorDescriptor(
        "r", SPACE.observe(123, 0.05, noise_key=99_999).vector)
    benchmark(index.query, probe, 0.2)


def test_embedding_observation(benchmark):
    benchmark(SPACE.observe, 42, 0.5, None, 7)


def test_mesh_pack_unpack_1mb(benchmark):
    mesh = generate_mesh(1, 1024, seed=0)

    def roundtrip():
        return unpack_rmsh(pack_rmsh(mesh), model_id=1)

    restored = benchmark(roundtrip)
    assert restored.n_vertices == mesh.n_vertices


def test_simulated_transfer_throughput(benchmark):
    """Events per second of the sim kernel moving 100 messages."""

    def run_transfers():
        env = Environment()
        link = Link(env, "l", 100e6, propagation_s=0.001)

        def sender(env):
            for _ in range(100):
                yield from link.transfer(Message(size_bytes=10_000))

        env.run(until=env.process(sender(env)))
        return env.now

    elapsed = benchmark(run_transfers)
    assert elapsed > 0


def test_lsh_index_insert_1k(benchmark):
    """Insert-heavy workload: matmul signatures, no per-bit loop."""
    descriptors = [VectorDescriptor(
        "r", SPACE.observe(cls, 0.0, noise_key=cls).vector)
        for cls in range(1000)]

    def build():
        index = LshIndex(dim=128)
        for entry_id, descriptor in enumerate(descriptors):
            index.insert(entry_id, descriptor)
        return index

    index = benchmark(build)
    assert len(index) == 1000
