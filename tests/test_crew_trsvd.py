"""Lanczos TRSVDs split by rows over a process run's crew.

Contract (:mod:`repro.parallel.crew_trsvd`): a process run solves each
Lanczos TRSVD of a block of at least ``CREW_TRSVD_MIN_ELEMENTS`` elements on
min(workers, usable CPUs) of its crew's workers, each rank over a
contiguous row block.  The split solve finds the block's singular values to
1e-12·σ_max; every rank ends with bit-identical singular values and right
vectors; runs repeat bit for bit; and a run matches the sequential run's
fit (1e-10), factor subspaces (the Lanczos bound of
``tests/test_dense_oracle.py``) and solver counters, with every factor
column of the same sign, with or without a seed.  Smaller blocks,
``gram`` solves, a single usable CPU, a host with a CPU to spare for the
driver's BLAS and a machine other than x86-64 keep the solve on the driver:
they dispatch no rank task and pack no segment for one.
"""

from __future__ import annotations

import platform

import numpy as np
import pytest

from dense_oracle import subspace_sine
from repro.core import HOOIOptions, hooi
from repro.data import make_dataset
from repro.engine import COORowsPlan, backend, parallel_symbolic
from repro.parallel import HOOIProcessPool, ProcessConfig, blas, crew_trsvd
from repro.parallel.process_pool import RANK_TASK
from repro.util.linalg import random_orthonormal

# The tall tensor's TTMc work is below the crew's break-even.
pytestmark = pytest.mark.usefixtures("every_job_on_the_crew")

#: Subspace-sine bound of the Lanczos solver (``tests/test_dense_oracle.py``).
LANCZOS_SINE = 5e-7

LANCZOS = dict(max_iterations=3, tolerance=0.0, seed=0, trsvd_method="lanczos")
SOLVER = dict(tol=1e-8, seed=0)


@pytest.fixture
def rank_tasks(monkeypatch):
    """Record the rank count of every rank batch the driver dispatches."""
    counts = []
    dispatch = HOOIProcessPool._dispatch

    def spy(self, tasks):
        ranks = [task for task in tasks if task[0] == RANK_TASK]
        if ranks:
            counts.append(len(ranks))
        return dispatch(self, tasks)

    monkeypatch.setattr(HOOIProcessPool, "_dispatch", spy)
    return counts


@pytest.fixture
def packs(monkeypatch):
    """Record the worker count of every generation that packs split segments."""
    counts = []
    pack = crew_trsvd.pack

    def spy(arena, plan, workers):
        counts.append(workers)
        return pack(arena, plan, workers)

    monkeypatch.setattr(crew_trsvd, "pack", spy)
    return counts


def _pool(tensor, ranks, split_trsvd=True):
    """A 2-worker generation over ``tensor`` with orthonormal factors written in."""
    plan = COORowsPlan(tensor, parallel_symbolic(tensor, 1), ranks)
    pool = HOOIProcessPool(
        plan, config=ProcessConfig(num_workers=2), split_trsvd=split_trsvd
    )
    for mode, size in enumerate(tensor.shape):
        pool.write_factor(mode, random_orthonormal(size, ranks[mode], seed=mode))
    return pool


def _process(tensor, ranks, workers=2, **options):
    options = dict(LANCZOS, **options)
    return hooi(
        tensor, ranks,
        HOOIOptions(**options, execution="process", num_workers=workers),
    )


def _sequential(tensor, ranks, **options):
    return hooi(tensor, ranks, HOOIOptions(**dict(LANCZOS, **options)))


def _assert_same_columns(mine, theirs, bound=LANCZOS_SINE):
    """Factors agree column for column within ``bound``, signs included."""
    for n, (a, b) in enumerate(zip(mine, theirs)):
        assert np.abs(a - b).max() <= bound, f"mode {n}"
        assert np.all(np.sum(a * b, axis=0) > 0), f"mode {n} flips a column"


class TestSplitSolve:
    def test_singular_values_match_numpy(self, tall, tall_ranks):
        rank = tall_ranks[0]
        with _pool(tall, tall_ranks) as pool:
            block = pool.ttmc(0)
            assert block.size >= backend.CREW_TRSVD_MIN_ELEMENTS
            result = pool.trsvd(0, rank, 2, **SOLVER)
            exact = np.linalg.svd(block, compute_uv=False)[:rank]
            sigma = result.singular_values
            assert np.abs(sigma - exact).max() <= 1e-12 * exact[0]
            left, right = result.left, result.right
            assert left.shape == (block.shape[0], rank)
            np.testing.assert_allclose(left.T @ left, np.eye(rank), atol=1e-10)
            np.testing.assert_allclose(
                block.T @ left, right * sigma, atol=1e-8 * exact[0]
            )
            assert result.converged and result.matvecs > 0

    def test_every_rank_agrees_bit_for_bit(self, tall, tall_ranks):
        rank = tall_ranks[0]
        with _pool(tall, tall_ranks) as pool:
            block = pool.ttmc(0)
            result = pool.trsvd(0, rank, 2, **SOLVER)
            k, width = result.rank, block.shape[1]
            reports = pool._arena["trsvd-reports"]
            used = 6 + k * (1 + width)
            assert reports[0, :used].tobytes() == reports[1, :used].tobytes()
            for report in reports:
                assert np.array_equal(report[6 : 6 + k], result.singular_values)
                right = report[6 + k : used].reshape(width, k)
                assert np.array_equal(right, result.right)
            # A rank that saw other sums fails the solve instead of joining it.
            reports[1, 6] += 1.0
            with pytest.raises(RuntimeError, match="disagree"):
                crew_trsvd.collect(pool._arena, block.shape, rank, 2)

    def test_float32_block(self, tall, tall_ranks):
        rank = tall_ranks[0]
        with _pool(tall.astype(np.float32), tall_ranks) as pool:
            block = pool.ttmc(0)
            assert block.dtype == np.float32
            result = pool.trsvd(0, rank, 2, **SOLVER)
            exact = np.linalg.svd(block.astype(np.float64), compute_uv=False)
            error = np.abs(result.singular_values - exact[:rank]).max()
            assert error <= 1e-12 * exact[0]

    def test_float32_run_matches_the_sequential_run(self, tall, tall_ranks,
                                                    rank_tasks):
        proc = _process(tall, tall_ranks, dtype="float32")
        seq = _sequential(tall, tall_ranks, dtype="float32")
        assert rank_tasks == [2] * LANCZOS["max_iterations"]
        assert all(f.dtype == np.float32 for f in proc.decomposition.factors)
        np.testing.assert_allclose(
            proc.fit_history, seq.fit_history, atol=1e-6, rtol=0
        )
        for a, b in zip(seq.decomposition.factors, proc.decomposition.factors):
            assert subspace_sine(a.astype(np.float64), b.astype(np.float64)) <= 1e-4

    def test_a_generation_without_split_segments_refuses(self, tall, tall_ranks):
        with _pool(tall, tall_ranks, split_trsvd=False) as pool:
            pool.ttmc(0)
            assert "trsvd-sync" not in pool._arena
            with pytest.raises(RuntimeError, match="without split_trsvd"):
                pool.trsvd(0, tall_ranks[0], 2, **SOLVER)


class TestProcessRuns:
    def test_runs_repeat_bit_for_bit(self, tall, tall_ranks, rank_tasks):
        first, second = _process(tall, tall_ranks), _process(tall, tall_ranks)
        assert rank_tasks == [2] * (2 * LANCZOS["max_iterations"])
        assert first.fit_history == second.fit_history
        for a, b in zip(first.decomposition.factors, second.decomposition.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(first.decomposition.core, second.decomposition.core)

    def test_matches_the_sequential_run(self, tall, tall_ranks, rank_tasks):
        proc = _process(tall, tall_ranks)
        seq = _sequential(tall, tall_ranks)
        assert rank_tasks == [2] * LANCZOS["max_iterations"]
        np.testing.assert_allclose(
            proc.fit_history, seq.fit_history, atol=1e-10, rtol=0
        )
        for a, b in zip(seq.decomposition.factors, proc.decomposition.factors):
            assert subspace_sine(a, b) <= LANCZOS_SINE
        _assert_same_columns(proc.decomposition.factors, seq.decomposition.factors)

    def test_unseeded_run_matches_the_sequential_run(self, tall, tall_ranks,
                                                     rank_tasks):
        """``seed=None``: every rank still starts from the same right vector.

        The initial factors are given, so only the Lanczos start vectors
        are drawn afresh, on the driver and for the ranks alike.
        """
        init = [
            random_orthonormal(size, rank, seed=mode)
            for mode, (size, rank) in enumerate(zip(tall.shape, tall_ranks))
        ]
        proc = _process(tall, tall_ranks, seed=None, init=init)
        seq = _sequential(tall, tall_ranks, seed=None, init=init)
        assert rank_tasks == [2] * LANCZOS["max_iterations"]
        np.testing.assert_allclose(
            proc.fit_history, seq.fit_history, atol=1e-10, rtol=0
        )
        for a, b in zip(seq.decomposition.factors, proc.decomposition.factors):
            assert subspace_sine(a, b) <= LANCZOS_SINE

    def test_trsvd_stats_match_driver_solves(self, tall, tall_ranks, rank_tasks):
        proc = _process(tall, tall_ranks)
        seq = _sequential(tall, tall_ranks)
        assert rank_tasks
        counters = [
            [(s.iterations, s.matvecs, s.rmatvecs, s.converged) for s in r.trsvd_stats]
            for r in (proc, seq)
        ]
        assert counters[0] == counters[1]
        assert all(s.matvecs > 0 for s in proc.trsvd_stats)
        for a, b in zip(proc.trsvd_stats, seq.trsvd_stats):
            np.testing.assert_allclose(
                a.singular_values, b.singular_values, rtol=1e-10
            )

    @pytest.mark.parametrize(
        "workers, cpus, ranks",
        [(3, 2, 2), (3, 3, 3), (3, 4, 3), (2, 1, None), (2, 4, None)],
        ids=[
            "3-workers-2-cpus", "3-workers-3-cpus", "3-workers-4-cpus",
            "2-workers-1-cpu", "2-workers-4-cpus",
        ],
    )
    def test_ranks_capped_at_usable_cpus(self, tall, tall_ranks, rank_tasks,
                                         monkeypatch, workers, cpus, ranks):
        """Ranks are min(workers, usable CPUs), and split only where measured.

        The split size was measured with one driver BLAS thread beside the
        crew; a host with CPUs to spare for a second one keeps the solves
        on the driver.
        """
        monkeypatch.setattr(blas, "usable_cpus", lambda: cpus)
        proc = _process(tall, tall_ranks, workers=workers)
        expected = [] if ranks is None else [ranks] * LANCZOS["max_iterations"]
        assert rank_tasks == expected
        seq = _sequential(tall, tall_ranks)
        np.testing.assert_allclose(
            proc.fit_history, seq.fit_history, atol=1e-10, rtol=0
        )
        _assert_same_columns(proc.decomposition.factors, seq.decomposition.factors)


class TestDriverPath:
    def test_split_starts_at_the_split_size(self, tall, tall_ranks, rank_tasks,
                                            packs, monkeypatch):
        rows = len(np.unique(tall.indices[:, 0]))
        size = rows * tall_ranks[1] * tall_ranks[2]
        monkeypatch.setattr(backend, "CREW_TRSVD_MIN_ELEMENTS", size + 1)
        below = _process(tall, tall_ranks)
        assert rank_tasks == [] and packs == []
        monkeypatch.setattr(backend, "CREW_TRSVD_MIN_ELEMENTS", size)
        at = _process(tall, tall_ranks)
        assert rank_tasks == [2] * LANCZOS["max_iterations"]
        assert packs == [2]
        np.testing.assert_allclose(
            below.fit_history, at.fit_history, atol=1e-10, rtol=0
        )

    def test_small_blocks_and_gram_stay_on_the_driver(self, tall, tall_ranks,
                                                      medium_tensor_3d,
                                                      rank_tasks, packs):
        small = hooi(
            medium_tensor_3d, 5,
            HOOIOptions(**LANCZOS, execution="process", num_workers=2),
        )
        _process(tall, tall_ranks, trsvd_method="gram")
        assert rank_tasks == [] and packs == []
        seq = hooi(medium_tensor_3d, 5, HOOIOptions(**LANCZOS))
        np.testing.assert_allclose(
            small.fit_history, seq.fit_history, atol=1e-10, rtol=0
        )
        for a, b in zip(seq.decomposition.factors, small.decomposition.factors):
            np.testing.assert_allclose(a, b, atol=1e-10, rtol=0)

    def test_other_machines_stay_on_the_driver(self, tall, tall_ranks, rank_tasks,
                                               packs, monkeypatch):
        """The ranks' barrier relies on x86-64's store order."""
        monkeypatch.setattr(platform, "machine", lambda: "aarch64")
        proc = _process(tall, tall_ranks)
        assert rank_tasks == [] and packs == []
        seq = _sequential(tall, tall_ranks)
        np.testing.assert_allclose(
            proc.fit_history, seq.fit_history, atol=1e-10, rtol=0
        )


class TestSigns:
    """One sign per singular triplet, on every host and every composition.

    On the Delicious analog (scale 3e-4, seed 3, CSF, rank 5) mode 2's
    block is the same with one and with two OpenBLAS threads, yet one
    column of its factor used to come back negated on one of them.
    """

    @pytest.fixture(scope="class")
    def delicious(self):
        return make_dataset("delicious", scale=3e-4, seed=3)

    OPTIONS = dict(LANCZOS, max_iterations=4, tensor_format="csf")

    def test_blas_thread_counts_agree_column_for_column(self, delicious):
        if not blas.can_set_threads():
            pytest.skip("no OpenBLAS thread setter in this process")
        before = blas.thread_counts()
        factors = []
        try:
            for threads in (1, 2):
                blas.set_threads(threads)
                result = hooi(delicious, 5, HOOIOptions(**self.OPTIONS))
                factors.append(result.decomposition.factors)
        finally:
            for (setter, _), count in zip(blas._libraries(), before):
                setter(count)
        _assert_same_columns(*factors)

    def test_crew_split_agrees_with_driver_solves(self, delicious, rank_tasks):
        seq = hooi(delicious, 5, HOOIOptions(**self.OPTIONS))
        proc = hooi(
            delicious, 5,
            HOOIOptions(**self.OPTIONS, execution="process", num_workers=2),
        )
        assert rank_tasks
        np.testing.assert_allclose(
            proc.fit_history, seq.fit_history, atol=1e-10, rtol=0
        )
        _assert_same_columns(proc.decomposition.factors, seq.decomposition.factors)


def test_a_rank_sets_one_blas_thread_once(monkeypatch):
    """A worker limits OpenBLAS before its first rank task, only if needed.

    A spawned worker starts at the library's default and must set one
    thread; a worker forked from a driver already at one thread keeps its
    inherited count, since setting it would restart the library's pool.
    """
    from repro.parallel import process_pool

    calls = []
    monkeypatch.setattr(blas, "set_threads", calls.append)
    for counts, expected in (([2, 2], [1]), ([1, 2], [1]), ([1, 1], [])):
        calls.clear()
        monkeypatch.setattr(blas, "thread_counts", lambda: counts)
        monkeypatch.setattr(process_pool, "_one_blas_thread_pid", None)
        process_pool._one_blas_thread()
        process_pool._one_blas_thread()
        assert calls == expected
