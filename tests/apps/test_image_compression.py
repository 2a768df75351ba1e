"""Tests for the image compression application."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.image_compression import (
    rle_compress,
    rle_decompress,
    synthetic_image,
)
from repro.sim.rng import RandomStream

from tests.apps.backends import BACKENDS, image_clients


def test_rle_roundtrip_simple():
    data = b"aaaabbbcc"
    assert rle_decompress(rle_compress(data)) == data


def test_rle_empty():
    assert rle_compress(b"") == b""
    assert rle_decompress(b"") == b""


def test_rle_long_runs_split_at_255():
    data = b"x" * 600
    compressed = rle_compress(data)
    assert rle_decompress(compressed) == data
    assert len(compressed) == 6   # 255+255+90 -> three pairs


def test_rle_compresses_runs():
    image = synthetic_image(RandomStream(1, "img"), side=64)
    compressed = rle_compress(image)
    assert len(compressed) < len(image)


def test_rle_odd_stream_rejected():
    with pytest.raises(ValueError):
        rle_decompress(b"\x01")


@given(st.binary(min_size=0, max_size=2000))
@settings(max_examples=100)
def test_rle_roundtrip_property(data):
    assert rle_decompress(rle_compress(data)) == data


def test_synthetic_image_shape_and_determinism():
    a = synthetic_image(RandomStream(5, "img"), side=32)
    b = synthetic_image(RandomStream(5, "img"), side=32)
    assert len(a) == 32 * 32
    assert a == b


def run(env, generator):
    return env.run(until=env.process(generator))


@pytest.mark.parametrize("name", BACKENDS)
def test_compress_decompress_verifies(name):
    env, [client] = image_clients(name, 1, RandomStream(2, "photos"),
                                  image_side=32, slots=2)
    memory = client.memory

    def app():
        yield from client.setup()
        size = yield from client.compress_one(0)
        image = yield from client.decompress_one(0)
        original, _ = yield from memory.load(client.region, 0,
                                             client.image_bytes)
        return size, image, original

    size, image, original = run(env, app())
    assert image == original
    assert 0 < size < client.image_bytes


@pytest.mark.parametrize("name", BACKENDS)
def test_workload_counts_operations(name):
    env, [client] = image_clients(name, 1, RandomStream(3, "photos"),
                                  image_side=32, slots=2)

    def app():
        yield from client.setup()
        return (yield from client.run_workload(4))

    assert run(env, app()) > 0
    assert client.images_processed == 8   # 4 compress + 4 decompress


def test_each_rdma_client_needs_its_own_mr():
    """RDMA isolates clients only by giving each its own MR (and QP)."""
    env, clients = image_clients("rdma", 3, RandomStream(4, "photos"),
                                 image_side=32, slots=1)

    def setup_all():
        for client in clients:
            yield from client.setup()

    run(env, setup_all())
    assert len({client.region.mr_id for client in clients}) == 3
    assert len({client.region.qp.qp_id for client in clients}) == 3
