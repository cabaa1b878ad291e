"""Shared fixtures."""

import numpy as np
import pytest

from repro.cts import kernels


@pytest.fixture
def snaked_lanes(monkeypatch):
    """The number of snaking lanes of each batched split made during
    the test, one entry per split."""
    counts = []
    split = kernels.batch_zero_skew_split

    def counting(*args, **kwargs):
        result = split(*args, **kwargs)
        counts.append(int(np.count_nonzero(result.snake_a | result.snake_b)))
        return result

    monkeypatch.setattr(kernels, "batch_zero_skew_split", counting)
    return counts
