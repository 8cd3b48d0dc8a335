"""Tests for the shared-memory parallel layer (parallel_for, parallel TTMc, Alg. 3)."""

import threading

import numpy as np
import pytest

from repro import decompose
from repro.core import HOOIOptions, hooi, symbolic_ttmc, ttmc_matricized
from repro.core.ttmc import restrict_symbolic
from repro.engine import COORowsPlan, ThreadDispatcher, parallel_symbolic
from repro.experiments.table5 import predict_iteration_time
from repro.parallel import (
    BGQ_NODE,
    NodeModel,
    PhaseWork,
    core_phase_work,
    kron_width,
    make_chunks,
    parallel_for,
    trsvd_phase_work,
    ttmc_phase_work,
)


class TestChunks:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("items", [0, 1, 7, 100, 1000])
    def test_contiguous_chunks_of_a_quarter_share(self, items, workers):
        """``range(items)`` in order, every chunk but the last ⌈n / 4w⌉ long."""
        chunks = make_chunks(items, workers)
        size = -(-items // (4 * workers))
        assert [i for start, stop in chunks for i in range(start, stop)] == list(
            range(items)
        )
        assert all(stop - start == size for start, stop in chunks[:-1])
        assert all(0 < stop - start <= size for start, stop in chunks)

    def test_empty(self):
        assert len(make_chunks(0, 4)) == 0

    def test_dispatcher_needs_a_thread(self):
        with pytest.raises(ValueError, match="num_threads must be >= 1"):
            ThreadDispatcher(0)


class TestParallelFor:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("items", [3, 500])
    def test_every_item_processed_once(self, items, threads):
        """Three items make three one-item chunks for four threads: the
        thread that finds the queue empty returns without running a body."""
        seen = np.zeros(items, dtype=np.int64)
        lock = threading.Lock()

        def body(start, stop):
            with lock:
                seen[start:stop] += 1

        parallel_for(body, items, threads)
        assert np.all(seen == 1)

    def test_exception_propagates(self):
        def body(start, stop):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            parallel_for(body, 10, 2)

    def test_zero_items_is_noop(self):
        parallel_for(lambda a, b: pytest.fail("should not run"), 0, 1)


class TestParallelTTMc:
    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_matches_sequential(self, medium_tensor_3d, threads, rng):
        factors = [
            np.linalg.qr(rng.standard_normal((s, 4)))[0]
            for s in medium_tensor_3d.shape
        ]
        plan = COORowsPlan(medium_tensor_3d, parallel_symbolic(medium_tensor_3d, 1))
        dispatcher = ThreadDispatcher(threads)
        for mode in range(3):
            expected = ttmc_matricized(medium_tensor_3d, factors, mode)
            actual = dispatcher.ttmc(plan, mode, factors)
            assert np.allclose(actual, expected[plan.rows(mode)])

    def test_row_subset_plan_matches_full(self, small_tensor_3d, factors_3d):
        """A plan over some rows' update lists (a distributed rank's)."""
        mode = 1
        sym = symbolic_ttmc(small_tensor_3d, mode)
        full = ttmc_matricized(small_tensor_3d, factors_3d, mode, symbolic=sym)
        subset = restrict_symbolic(sym, np.arange(sym.num_rows)[::3])
        plan = COORowsPlan(small_tensor_3d, {mode: subset})
        threads = ThreadDispatcher(2)
        block = threads.ttmc(plan, mode, factors_3d)
        assert np.allclose(block, full[subset.rows])

    def test_empty_row_subset(self, small_tensor_3d, factors_3d):
        sym = symbolic_ttmc(small_tensor_3d, 0)
        subset = restrict_symbolic(sym, np.empty(0, dtype=np.int64))
        plan = COORowsPlan(small_tensor_3d, {0: subset})
        threads = ThreadDispatcher(2)
        assert threads.ttmc(plan, 0, factors_3d).shape[0] == 0

    def test_out_buffer(self, small_tensor_3d, factors_3d):
        """The dispatcher hands back the plan's own ``|J_n| × W`` block."""
        width = factors_3d[1].shape[1] * factors_3d[2].shape[1]
        plan = COORowsPlan(small_tensor_3d, parallel_symbolic(small_tensor_3d, 1))
        result = ThreadDispatcher(2).ttmc(
            plan, 0, factors_3d
        )
        assert result is plan.outs[0]
        assert result.shape == (small_tensor_3d.nonempty_rows(0).shape[0], width)


class TestSharedHOOI:
    def test_matches_sequential_fit(self, medium_tensor_3d):
        opts = HOOIOptions(max_iterations=3, init="hosvd", seed=0)
        seq = hooi(medium_tensor_3d, 5, opts)
        par = decompose(medium_tensor_3d, 5, execution="thread", num_workers=3,
                        options=opts)
        assert np.allclose(seq.fit_history, par.fit_history, atol=1e-9)


class TestNodeModel:
    def test_more_threads_never_slower(self):
        work = PhaseWork(flops=1e9, random_accesses=1e6, streamed_bytes=1e8)
        times = [BGQ_NODE.phase_time(work, t) for t in (1, 2, 4, 8, 16, 32)]
        assert all(b <= a + 1e-12 for a, b in zip(times, times[1:]))

    def test_latency_scales_past_core_count(self):
        model = NodeModel(cores=4, smt=2)
        work = PhaseWork(random_accesses=1e6)
        assert model.phase_time(work, 8) < model.phase_time(work, 4)
        # but not past cores * smt
        assert np.isclose(model.phase_time(work, 8), model.phase_time(work, 16))

    def test_bandwidth_saturates(self):
        model = NodeModel(cores=16)
        work = PhaseWork(streamed_bytes=1e9)
        assert np.isclose(model.phase_time(work, 8), model.phase_time(work, 32))

    def test_breakdown_keys(self):
        parts = BGQ_NODE.breakdown(PhaseWork(flops=1.0), 2)
        assert set(parts) == {"compute", "latency", "bandwidth"}

    def test_phasework_add_and_scale(self):
        a = PhaseWork(flops=1, random_accesses=2, streamed_bytes=3)
        b = a + a
        assert b.flops == 2 and b.streamed_bytes == 6
        assert a.scaled(2.0).random_accesses == 4


class TestWorkCounts:
    def test_kron_width(self):
        assert kron_width((10, 10, 10), 0) == 100
        assert kron_width((5, 5, 5, 5), 3) == 125

    def test_ttmc_work_scales_with_nnz(self):
        a = ttmc_phase_work(100, 3, (10, 10, 10), 0)
        b = ttmc_phase_work(200, 3, (10, 10, 10), 0)
        assert np.isclose(b.flops, 2 * a.flops)
        assert np.isclose(b.random_accesses, 2 * a.random_accesses)

    def test_trsvd_work_scales_with_rows(self):
        a = trsvd_phase_work(100, (10, 10, 10), 0)
        b = trsvd_phase_work(300, (10, 10, 10), 0)
        assert np.isclose(b.flops, 3 * a.flops)

    def test_core_work_positive(self):
        work = core_phase_work(1000, (10, 10, 10))
        assert work.flops > 0 and work.streamed_bytes > 0

    def test_predicted_time_decreases_with_threads(self, medium_tensor_3d):
        t1 = predict_iteration_time(medium_tensor_3d, 5, 1)
        t8 = predict_iteration_time(medium_tensor_3d, 5, 8)
        assert t8 < t1
