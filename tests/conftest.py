import contextlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from wetmark.bitmap import BinaryImage


def synth_image(width: int, height: int, seed: int,
                stroke_density: int = 300) -> BinaryImage:
    """Text-like synthetic image: random short strokes and small blobs."""
    r = np.random.default_rng(seed)
    g = np.zeros((height, width), dtype=np.uint8)
    for _ in range(max(4, width * height // stroke_density)):
        y = int(r.integers(1, height - 1))
        x = int(r.integers(1, width - 1))
        length = int(r.integers(3, 15))
        kind = int(r.integers(3))
        if kind == 0:
            g[y, x:min(width, x + length)] = 1
        elif kind == 1:
            g[y:min(height, y + length), x] = 1
        else:
            h2 = int(r.integers(2, 4))
            w2 = int(r.integers(2, 5))
            g[y:min(height, y + h2), x:min(width, x + w2)] = 1
    return BinaryImage(width, height, g.reshape(-1))


@contextlib.contextmanager
def memory_peak():
    """Trace the ``with`` block's allocations: the yielded probe's
    ``.peak`` is their tracemalloc peak in bytes once the block ends."""
    probe = SimpleNamespace(peak=None)
    tracemalloc.start()
    try:
        yield probe
    finally:
        probe.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
