"""Tests for the distributed HOOI: plans, distributed TRSVD and Algorithm 4."""

import numpy as np
import pytest

from repro.core import (
    HOOIOptions,
    hooi,
    lanczos_svd,
    ttmc_matricized,
)
from repro.data import planted_lowrank_tensor, power_law_sparse_tensor
from repro.distributed import (
    DistributedTTMcMatrix,
    build_plans,
    collect_partition_statistics,
    distributed_hooi,
    estimate_iteration_time,
)
from repro.parallel.shared_ttmc import ttmc_row_block
from repro.partition import make_partition
from repro.simmpi import run_spmd
from repro.util.linalg import random_orthonormal


@pytest.fixture(scope="module")
def tensor():
    return power_law_sparse_tensor((40, 30, 50), 2500, exponents=0.6, seed=9)


@pytest.fixture(scope="module")
def ranks():
    return (6, 5, 4)


ALL_STRATEGIES = ["fine-hp", "fine-rd", "coarse-hp", "coarse-bl"]


class TestPlans:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_owned_rows_partition_every_mode(self, tensor, ranks, strategy):
        partition = make_partition(tensor, 4, strategy, seed=0)
        global_plan, plans = build_plans(tensor, partition, ranks)
        for mode in range(tensor.order):
            all_owned = np.concatenate([p.modes[mode].owned_rows for p in plans])
            assert sorted(all_owned.tolist()) == list(range(tensor.shape[mode]))

    def test_fine_compute_rows_equal_local_rows(self, tensor, ranks):
        partition = make_partition(tensor, 4, "fine-rd", seed=0)
        _, plans = build_plans(tensor, partition, ranks)
        for plan in plans:
            for mp in plan.modes:
                assert np.array_equal(mp.compute_rows, mp.local_rows)

    def test_coarse_compute_rows_are_owned(self, tensor, ranks):
        partition = make_partition(tensor, 4, "coarse-bl")
        _, plans = build_plans(tensor, partition, ranks)
        for plan in plans:
            for mp in plan.modes:
                assert np.array_equal(mp.compute_rows, mp.owned_rows)
                # coarse grain never folds partial results
                assert not mp.fold.send and not mp.fold.receive

    def test_factor_exchange_symmetry(self, tensor, ranks):
        partition = make_partition(tensor, 4, "fine-rd", seed=1)
        _, plans = build_plans(tensor, partition, ranks)
        for mode in range(tensor.order):
            for receiver in range(4):
                recv_plan = plans[receiver].modes[mode].factor_exchange
                for owner, rows in recv_plan.receive.items():
                    send_plan = plans[owner].modes[mode].factor_exchange
                    assert receiver in send_plan.send
                    assert np.array_equal(np.sort(send_plan.send[receiver]),
                                          np.sort(rows))

    def test_received_rows_are_owned_by_sender(self, tensor, ranks):
        partition = make_partition(tensor, 4, "fine-hp", seed=0)
        _, plans = build_plans(tensor, partition, ranks)
        for mode in range(tensor.order):
            for plan in plans:
                for owner, rows in plan.modes[mode].factor_exchange.receive.items():
                    assert np.all(partition.row_owner[mode][rows] == owner)

    def test_needed_rows_covered(self, tensor, ranks):
        """Every row a rank's local tensor touches is either owned or received."""
        partition = make_partition(tensor, 4, "coarse-hp", seed=0)
        _, plans = build_plans(tensor, partition, ranks)
        for plan in plans:
            for mode in range(tensor.order):
                mp = plan.modes[mode]
                available = set(mp.owned_rows.tolist())
                for rows in mp.factor_exchange.receive.values():
                    available.update(rows.tolist())
                assert set(mp.local_rows.tolist()) <= available

    def test_global_plan_metadata(self, tensor, ranks):
        partition = make_partition(tensor, 4, "fine-rd", seed=0)
        global_plan, plans = build_plans(tensor, partition, ranks)
        assert global_plan.num_ranks == 4
        assert np.isclose(global_plan.norm_x, tensor.norm())
        assert len(plans) == 4
        assert all(p.order == tensor.order for p in plans)


class TestDistributedTRSVD:
    @pytest.mark.parametrize("strategy", ["fine-hp", "coarse-bl"])
    def test_matches_sequential_lanczos(self, tensor, ranks, strategy):
        """The Lanczos loop on the distributed operator == on dense ``Y``."""
        partition = make_partition(tensor, 3, strategy, seed=0)
        _, plans = build_plans(tensor, partition, ranks)
        mode = 1
        factors = [random_orthonormal(s, r, seed=50 + i)
                   for i, (s, r) in enumerate(zip(tensor.shape, ranks))]
        y_full = ttmc_matricized(tensor, factors, mode)
        nonempty = tensor.nonempty_rows(mode)
        reference = lanczos_svd(y_full[nonempty], ranks[mode], seed=0)

        def program(comm):
            plan = plans[comm.rank]
            mp = plan.modes[mode]
            sym_rows = plan.symbolic[mode].rows
            positions = np.flatnonzero(np.isin(sym_rows, mp.compute_rows))
            block = ttmc_row_block(plan.local_tensor, factors, mode,
                                   plan.symbolic[mode], positions)
            op = DistributedTTMcMatrix(comm, mp, sym_rows[positions], block,
                                       charge_time=False)
            res = lanczos_svd(op, ranks[mode], seed=0, compute_right=False)
            assert res.right is None
            return mp.owned_nonempty_rows, res.left, res.singular_values

        spmd = run_spmd(program, 3)
        sing = spmd.values[0][2]
        assert np.allclose(sing, reference.singular_values, rtol=1e-6)
        # Assemble the distributed left vectors and compare subspaces.
        assembled = np.zeros((tensor.shape[mode], ranks[mode]))
        for rows, left, _ in spmd.values:
            assembled[rows] = left
        ours = assembled[nonempty] @ assembled[nonempty].T
        ref = reference.left @ reference.left.T
        assert np.allclose(ours, ref, atol=1e-5)

    @pytest.mark.parametrize("strategy", ["coarse-bl", "fine-rd", "fine-hp"])
    def test_rank_without_rows_joins_every_reduction(self, strategy):
        """A rank that owns no row of a mode still runs the whole loop.

        Its share of every left-space reduction covers zero rows, but it
        must join each allreduce, or the other ranks deadlock or diverge.
        """
        tensor, _ = planted_lowrank_tensor((3, 30, 25), (2, 3, 3), 500, seed=4)
        ranks = (2, 3, 3)
        partition = make_partition(tensor, 4, strategy, seed=0)
        _, plans = build_plans(tensor, partition, ranks)
        assert plans[3].modes[0].owned_nonempty_rows.size == 0
        options = HOOIOptions(max_iterations=3, init="random", seed=0)
        sequential = hooi(tensor, ranks, options)
        distributed = distributed_hooi(tensor, ranks, partition, options)
        assert np.allclose(
            distributed.fit_history, sequential.fit_history, atol=1e-10
        )

    def test_matvec_rmatvec_match_dense(self, tensor, ranks):
        partition = make_partition(tensor, 3, "fine-rd", seed=2)
        _, plans = build_plans(tensor, partition, ranks)
        mode = 2
        factors = [random_orthonormal(s, r, seed=60 + i)
                   for i, (s, r) in enumerate(zip(tensor.shape, ranks))]
        y_full = ttmc_matricized(tensor, factors, mode)
        width = y_full.shape[1]
        rng = np.random.default_rng(0)
        v = rng.standard_normal(width)

        def program(comm):
            plan = plans[comm.rank]
            mp = plan.modes[mode]
            sym_rows = plan.symbolic[mode].rows
            positions = np.flatnonzero(np.isin(sym_rows, mp.compute_rows))
            block = ttmc_row_block(plan.local_tensor, factors, mode,
                                   plan.symbolic[mode], positions)
            op = DistributedTTMcMatrix(comm, mp, sym_rows[positions], block,
                                       charge_time=False)
            y_owned = op.matvec(v)
            x = op.rmatvec(y_owned)
            return mp.owned_nonempty_rows, y_owned, x

        spmd = run_spmd(program, 3)
        y_assembled = np.zeros(tensor.shape[mode])
        for rows, y_owned, _ in spmd.values:
            y_assembled[rows] = y_owned
        assert np.allclose(y_assembled, y_full @ v, atol=1e-9)
        # rmatvec of the folded y must equal Yᵀ (Y v).
        expected_x = y_full.T @ (y_full @ v)
        for _, _, x in spmd.values:
            assert np.allclose(x, expected_x, atol=1e-8)


class TestDistributedHOOI:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_matches_sequential(self, tensor, ranks, strategy):
        options = HOOIOptions(max_iterations=3, init="random", seed=0)
        sequential = hooi(tensor, ranks, options)
        partition = make_partition(tensor, 4, strategy, seed=1)
        distributed = distributed_hooi(tensor, ranks, partition, options)
        assert np.allclose(distributed.fit_history, sequential.fit_history, atol=1e-6)

    def test_single_rank_matches_sequential(self, tensor, ranks):
        options = HOOIOptions(max_iterations=2, init="random", seed=0)
        sequential = hooi(tensor, ranks, options)
        partition = make_partition(tensor, 1, "coarse-bl")
        distributed = distributed_hooi(tensor, ranks, partition, options)
        assert np.allclose(distributed.fit_history, sequential.fit_history, atol=1e-8)

    def test_assembled_decomposition_reconstructs(self, tensor, ranks):
        options = HOOIOptions(max_iterations=3, init="random", seed=0)
        partition = make_partition(tensor, 4, "fine-hp", seed=0)
        result = distributed_hooi(tensor, ranks, partition, options)
        from repro.core import tucker_fit

        fit = tucker_fit(tensor, result.decomposition, assume_orthonormal=False)
        assert np.isclose(fit, result.fit, atol=1e-6)

    def test_statistics_populated(self, tensor, ranks):
        partition = make_partition(tensor, 4, "fine-rd", seed=0)
        result = distributed_hooi(
            tensor, ranks, partition, HOOIOptions(max_iterations=2, seed=0)
        )
        assert result.num_ranks == 4
        assert result.simulated_time_per_iteration > 0
        assert result.wall_time_per_iteration > 0
        assert result.comm_volume_elements().shape == (4,)
        assert result.comm_volume_elements().max() > 0
        fractions = result.phase_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        for rr in result.rank_results:
            assert len(rr.ttmc_work) == tensor.order
            assert len(rr.trsvd_rows) == tensor.order

    def test_fine_hp_less_comm_than_fine_rd(self, tensor, ranks):
        options = HOOIOptions(max_iterations=2, init="random", seed=0)
        hp = distributed_hooi(tensor, ranks,
                              make_partition(tensor, 4, "fine-hp", seed=0), options)
        rd = distributed_hooi(tensor, ranks,
                              make_partition(tensor, 4, "fine-rd", seed=0), options)
        assert hp.comm_volume_elements().mean() < rd.comm_volume_elements().mean()


HYBRID_CONFIGS = {
    "thread-per-mode": dict(execution="thread", num_workers=3),
    "thread-dimtree": dict(execution="thread", num_workers=3,
                           ttmc_strategy="dimtree"),
}


class TestHybridExecution:
    """The paper's hybrid ranks: per-rank threads and/or rank-local dimtrees.

    Execution strategy only changes local compute, so a hybrid run must
    match the sequential-rank run of the same TTMc strategy to 1e-10 with
    *byte-identical* communication statistics (volumes and message counts).
    """

    @pytest.mark.parametrize("partition_strategy", ["coarse-bl", "fine-hp"])
    @pytest.mark.parametrize("config", list(HYBRID_CONFIGS),
                             ids=list(HYBRID_CONFIGS))
    def test_matches_sequential_rank_oracle(
        self, tensor, ranks, partition_strategy, config
    ):
        hybrid = HYBRID_CONFIGS[config]
        partition = make_partition(tensor, 4, partition_strategy, seed=1)
        base = dict(max_iterations=3, init="random", seed=0)
        oracle = distributed_hooi(
            tensor, ranks, partition,
            HOOIOptions(
                **base, ttmc_strategy=hybrid.get("ttmc_strategy", "per-mode")
            ),
        )
        run = distributed_hooi(
            tensor, ranks, partition, HOOIOptions(**base, **hybrid)
        )
        assert np.allclose(run.fit_history, oracle.fit_history, atol=1e-10)
        for ours, ref in zip(
            run.decomposition.factors, oracle.decomposition.factors
        ):
            assert np.allclose(ours, ref, atol=1e-10)
        assert np.allclose(
            run.decomposition.core, oracle.decomposition.core, atol=1e-10
        )
        for rr, ref_rr in zip(run.rank_results, oracle.rank_results):
            assert rr.comm_stats == ref_rr.comm_stats
            assert rr.per_mode_comm_bytes == ref_rr.per_mode_comm_bytes

    @pytest.mark.parametrize("partition_strategy", ["coarse-bl", "fine-hp"])
    def test_dimtree_strategy_matches_per_mode(
        self, tensor, ranks, partition_strategy
    ):
        """Rank-local dimension trees reproduce per-mode fits and traffic."""
        partition = make_partition(tensor, 4, partition_strategy, seed=1)
        base = dict(max_iterations=3, init="random", seed=0)
        per_mode = distributed_hooi(
            tensor, ranks, partition, HOOIOptions(**base)
        )
        dimtree = distributed_hooi(
            tensor, ranks, partition,
            HOOIOptions(**base, ttmc_strategy="dimtree"),
        )
        assert np.allclose(
            dimtree.fit_history, per_mode.fit_history, atol=1e-10
        )
        for rr, ref_rr in zip(dimtree.rank_results, per_mode.rank_results):
            assert rr.comm_stats == ref_rr.comm_stats

    def test_hybrid_simulated_time_scales_with_threads(self, tensor, ranks):
        """Thread-level work items feed the per-thread roofline model."""
        partition = make_partition(tensor, 4, "fine-hp", seed=1)
        times = {}
        for threads in (1, 8):
            run = distributed_hooi(
                tensor, ranks, partition,
                HOOIOptions(max_iterations=2, init="random", seed=0,
                            execution="thread", num_workers=threads),
            )
            times[threads] = run.simulated_time_per_iteration
        assert times[8] < times[1]

    def test_empty_rank_runs_dimtree(self):
        """A rank with no local nonzeros still serves (zero) rows."""
        from repro.core import SparseTensor

        rng = np.random.default_rng(0)
        # All nonzeros in the low corner: the block partition leaves the
        # last rank(s) without any local nonzeros.
        indices = np.column_stack([rng.integers(0, 4, 120) for _ in range(3)])
        tensor = SparseTensor(
            indices, rng.standard_normal(120), (12, 10, 8),
            sum_duplicates=True,
        )
        partition = make_partition(tensor, 3, "coarse-bl")
        base = dict(max_iterations=2, init="random", seed=0)
        per_mode = distributed_hooi(tensor, 2, partition, HOOIOptions(**base))
        for config in HYBRID_CONFIGS.values():
            hybrid = distributed_hooi(
                tensor, 2, partition, HOOIOptions(**base, **config)
            )
            assert np.allclose(
                hybrid.fit_history, per_mode.fit_history, atol=1e-10
            )


class TestDistributedCallbackAndFit:
    def test_callback_fires_once_per_tracked_iteration(self, tensor, ranks):
        partition = make_partition(tensor, 3, "fine-rd", seed=0)
        calls = []
        result = distributed_hooi(
            tensor, ranks, partition,
            HOOIOptions(max_iterations=3, init="random", seed=0),
            callback=lambda it, fit: calls.append((it, fit)),
        )
        assert [it for it, _ in calls] == list(range(result.iterations))
        assert np.allclose([f for _, f in calls], result.fit_history)

    def test_callback_with_track_fit_disabled(self, tensor, ranks):
        """Regression: track_fit=False never fires the callback, yet the
        result still carries the single final fit (never silently NaN)."""
        partition = make_partition(tensor, 3, "fine-rd", seed=0)
        calls = []
        result = distributed_hooi(
            tensor, ranks, partition,
            HOOIOptions(max_iterations=2, init="random", seed=0,
                        track_fit=False),
            callback=lambda it, fit: calls.append((it, fit)),
        )
        assert calls == []
        assert len(result.fit_history) == 1
        assert np.isfinite(result.fit)
        assert result.iterations == 2

    def test_fit_raises_on_empty_history(self):
        from repro.core.tucker import TuckerTensor
        from repro.distributed.dist_hooi import DistributedHOOIResult

        broken = DistributedHOOIResult(
            decomposition=TuckerTensor(
                core=np.zeros((1, 1, 1)), factors=[np.zeros((2, 1))] * 3
            ),
            fit_history=[],
            iterations=0,
            converged=False,
            rank_results=[],
            strategy="fine-rd",
            num_ranks=0,
            simulated_time_per_iteration=0.0,
            wall_time_per_iteration=0.0,
        )
        with pytest.raises(ValueError, match="fit_history is empty"):
            broken.fit


class TestPerformanceEstimator:
    def test_statistics_match_partition_counts(self, tensor, ranks):
        partition = make_partition(tensor, 4, "fine-rd", seed=3)
        stats = collect_partition_statistics(tensor, partition, ranks)
        for mode in range(tensor.order):
            expected = partition.ttmc_nonzero_counts(tensor, mode)
            assert np.array_equal(stats.modes[mode].ttmc_work, expected)
            expected_rows = partition.trsvd_row_counts(tensor, mode)
            assert np.array_equal(stats.modes[mode].trsvd_rows, expected_rows)

    def test_estimate_decreases_with_more_ranks(self, tensor, ranks):
        # Use a network with negligible latency so the tiny test tensor is not
        # latency-dominated (the real experiments pair full-size work with the
        # real latency; see repro.experiments.calibration.scaled_machine).
        from repro.simmpi import BGQ_MACHINE

        machine = BGQ_MACHINE.with_overrides(
            network_latency=0.0, collective_latency_factor=0.0
        )
        t4 = estimate_iteration_time(
            tensor, make_partition(tensor, 4, "fine-hp", seed=0), ranks,
            machine=machine,
        )
        t16 = estimate_iteration_time(
            tensor, make_partition(tensor, 16, "fine-hp", seed=0), ranks,
            machine=machine,
        )
        assert t16 < t4

    def test_estimate_positive_for_all_strategies(self, tensor, ranks):
        for strategy in ALL_STRATEGIES:
            partition = make_partition(tensor, 4, strategy, seed=0)
            assert estimate_iteration_time(tensor, partition, ranks) > 0
