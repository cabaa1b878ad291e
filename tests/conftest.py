"""Shared fixtures."""

import numpy as np
import pytest

from repro.cts import kernels


@pytest.fixture
def snaked_lanes(monkeypatch):
    """The number of snaking lanes of each batched split made during
    the test, one entry per split."""
    counts = []

    class CountingSplit(kernels.BatchSplit):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts.append(int(np.count_nonzero(self.snake_a | self.snake_b)))

    monkeypatch.setattr(kernels, "BatchSplit", CountingSplit)
    return counts
