"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SparseTensor
from repro.data import planted_lowrank_tensor
from repro.parallel.process_pool import PROCESS_CREW
from repro.util.linalg import random_orthonormal


#: A TTMc block cap small enough that most update lists and fiber groups
#: of the small test tensors split across blocks.
SMALL_BLOCK = 7


@pytest.fixture(autouse=True)
def close_process_crew():
    """Close the process's shared worker crew after every test.

    ``hooi(execution="process")`` runs borrow one crew per process
    (:data:`repro.parallel.process_pool.PROCESS_CREW`), which outlives the
    run.  Closing it here keeps every test's child-process and crew counts
    its own.
    """
    yield
    PROCESS_CREW.retire()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def block_cap(request, monkeypatch):
    """Cap every TTMc block at ``SMALL_BLOCK`` nonzeros (or fibers).

    The COO and dimension-tree kernels size their blocks with
    :func:`repro.core.ttmc.default_block_size`, which reads
    ``_DEFAULT_BLOCK_NNZ`` when called, so the cap reaches every kernel in
    this process, and the workers of a crew forked afterwards.  Parametrize
    it indirectly to pick the cap; ``None`` keeps the default blocks.
    Returns the cap.
    """
    from repro.core import ttmc

    cap = getattr(request, "param", SMALL_BLOCK)
    if cap is not None:
        monkeypatch.setattr(ttmc, "_DEFAULT_BLOCK_NNZ", cap)
    return cap


def _random_tensor(shape, nnz, seed) -> SparseTensor:
    gen = np.random.default_rng(seed)
    indices = np.column_stack(
        [gen.integers(0, s, size=nnz, dtype=np.int64) for s in shape]
    )
    values = gen.standard_normal(nnz)
    return SparseTensor(indices, values, shape, sum_duplicates=True)


@pytest.fixture
def small_tensor_3d() -> SparseTensor:
    """A 3-mode sparse tensor small enough to densify in every test."""
    return _random_tensor((20, 15, 12), 300, seed=7)


@pytest.fixture
def small_tensor_4d() -> SparseTensor:
    """A 4-mode sparse tensor small enough to densify in every test."""
    return _random_tensor((10, 9, 8, 7), 250, seed=11)


@pytest.fixture
def medium_tensor_3d() -> SparseTensor:
    """A 3-mode tensor used by the parallel / distributed integration tests."""
    return _random_tensor((60, 50, 40), 4000, seed=23)


@pytest.fixture
def factors_3d(small_tensor_3d) -> list:
    """Orthonormal factor matrices matching ``small_tensor_3d`` (ranks 5,4,3)."""
    ranks = (5, 4, 3)
    return [
        random_orthonormal(size, rank, seed=100 + i)
        for i, (size, rank) in enumerate(zip(small_tensor_3d.shape, ranks))
    ]


@pytest.fixture
def factors_4d(small_tensor_4d) -> list:
    ranks = (3, 3, 2, 2)
    return [
        random_orthonormal(size, rank, seed=200 + i)
        for i, (size, rank) in enumerate(zip(small_tensor_4d.shape, ranks))
    ]


@pytest.fixture(scope="session")
def tall_ranks() -> tuple:
    """Ranks of ``tall``: mode 0's block (about 3,970 × 100) is above
    ``CREW_TRSVD_MIN_ELEMENTS``, so a 2-worker process run splits its
    Lanczos solve over the crew; modes 1 and 2 (24 rows) stay on the driver.
    """
    return (4, 10, 10)


@pytest.fixture(scope="session")
def tall(tall_ranks) -> SparseTensor:
    """A 4000 × 24 × 24 planted low-rank tensor with 20,000 nonzeros."""
    tensor, _ = planted_lowrank_tensor(
        (4000, 24, 24), tall_ranks, 20000, noise=0.1, seed=5
    )
    return tensor
