"""The exact sort kernels of :mod:`repro.vec.backend` against numpy's own."""

from __future__ import annotations

import numpy as np
import pytest

from repro.vec import backend
from tests.conftest import PYTEST_SEED

BOUNDS = (1, 2, 255, 256, 257, 65_535, 65_536, 65_537, 1 << 20, 1 << 32)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("size", [0, 1, 7, 5_000])
def test_stable_argsort_is_numpys_stable_sort(bound, size):
    rng = np.random.default_rng(PYTEST_SEED + bound % 97 + size)
    # Few distinct values at every bound, so ties (and stability) matter;
    # the largest admissible key is always present in the bigger draws.
    pool = rng.integers(0, bound, size=min(bound, 12))
    keys = rng.choice(np.append(pool, bound - 1), size=size).astype(np.int64)
    assert np.array_equal(
        backend.stable_argsort(keys, bound), np.argsort(keys, kind="stable")
    )


def test_stable_argsort_above_32_bits():
    keys = np.array([1 << 40, 3, 1 << 40, 0, 3], dtype=np.int64)
    assert backend.stable_argsort(keys, (1 << 40) + 1).tolist() == [3, 1, 4, 0, 2]


@pytest.mark.parametrize("bound", [3, 300, 70_000])
def test_lexsort_by_key_is_lexsort(bound):
    rng = np.random.default_rng(PYTEST_SEED + bound)
    keys = rng.integers(0, bound, size=4_000)
    values = rng.choice([-0.0, 0.0, 6.0, 12.0, 54.0], size=4_000)
    assert np.array_equal(
        backend.lexsort_by_key(values, keys, bound),
        np.lexsort((values, keys)),
    )
