import tracemalloc

import numpy as np
import pytest

from gevrey_bbm.analytics import random_band_limited_field
from gevrey_bbm.spectral import Grid


@pytest.fixture
def grid64():
    return Grid(64)


@pytest.fixture
def grid128():
    return Grid(128)


@pytest.fixture
def rng():
    return np.random.default_rng(20240823)


@pytest.fixture
def random_field(grid128, rng):
    return random_band_limited_field(grid128, rng)


def peak_bytes(fn) -> int:
    """tracemalloc's peak of the memory allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
