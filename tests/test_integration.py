"""End-to-end integration tests across subsystems.

These exercise the paths a user of the library would follow: generate or load
a tensor, decompose it sequentially, with threads, and with the simulated
distributed runtime, and check that all three agree and that the quality
metrics behave as the paper describes.
"""

import numpy as np
import pytest

from repro import decompose
from repro.baselines import met_hooi
from repro.core import HOOIOptions, SparseTensor, hooi, tucker_fit
from repro.data import (
    make_dataset,
    planted_lowrank_tensor,
    power_law_sparse_tensor,
    read_tns,
    write_tns,
)
from repro.distributed import collect_partition_statistics, distributed_hooi
from repro.partition import make_partition


@pytest.fixture(scope="module")
def workload():
    """A mid-size skewed tensor shared by the integration tests."""
    return power_law_sparse_tensor((120, 90, 150), 8000, exponents=0.8, seed=17)


class TestEndToEndConsistency:
    def test_sequential_threaded_distributed_met_agree(self, workload):
        options = HOOIOptions(max_iterations=3, init="random", seed=0)
        ranks = (6, 6, 6)
        sequential = hooi(workload, ranks, options)
        threaded = decompose(workload, ranks, execution="thread", num_workers=4,
                             options=options)
        met = met_hooi(workload, ranks, options)
        partition = make_partition(workload, 4, "fine-hp", seed=0)
        distributed = distributed_hooi(workload, ranks, partition, options)

        reference = sequential.fit_history
        assert np.allclose(threaded.fit_history, reference, atol=1e-9)
        assert np.allclose(met.fit_history, reference, atol=1e-9)
        assert np.allclose(distributed.fit_history, reference, atol=1e-6)

    def test_fit_improves_with_rank(self, workload):
        options = HOOIOptions(max_iterations=3, init="hosvd", seed=0)
        small = hooi(workload, 2, options).fit
        large = hooi(workload, 8, options).fit
        assert large > small

    def test_io_then_decompose(self, tmp_path, workload):
        path = tmp_path / "workload.tns"
        write_tns(workload, path)
        loaded = read_tns(path)
        options = HOOIOptions(max_iterations=2, init="random", seed=0)
        a = hooi(workload, 4, options)
        b = hooi(loaded, 4, options)
        assert np.allclose(a.fit_history, b.fit_history, atol=1e-9)

    def test_planted_model_recovered_through_full_pipeline(self):
        observed, truth = planted_lowrank_tensor((40, 30, 20), (3, 3, 3), 20000, seed=4)
        dense_model = SparseTensor.from_dense(truth.to_dense())
        result = hooi(dense_model, (3, 3, 3),
                      HOOIOptions(max_iterations=6, init="hosvd"))
        assert result.fit > 0.999
        # Held-out prediction: the recovered model should predict the observed
        # entries of the planted tensor almost exactly.
        predicted = result.decomposition.reconstruct_entries(observed.indices)
        assert np.allclose(predicted, observed.values, atol=1e-6)


class TestPaperQualitativeClaims:
    """Scaled-down checks of the paper's headline qualitative results."""

    def test_hypergraph_partitioning_reduces_communication(self, workload):
        ranks = (6, 6, 6)
        hp = collect_partition_statistics(
            workload, make_partition(workload, 8, "fine-hp", seed=0), ranks
        )
        rd = collect_partition_statistics(
            workload, make_partition(workload, 8, "fine-rd", seed=0), ranks
        )
        hp_volume = sum(m.comm_volume.sum() for m in hp.modes)
        rd_volume = sum(m.comm_volume.sum() for m in rd.modes)
        assert hp_volume < 0.6 * rd_volume

    def test_fine_grain_ttmc_balance_beats_coarse(self, workload):
        ranks = (6, 6, 6)
        fine = collect_partition_statistics(
            workload, make_partition(workload, 8, "fine-hp", seed=0), ranks
        )
        coarse = collect_partition_statistics(
            workload, make_partition(workload, 8, "coarse-bl", seed=0), ranks
        )
        for mode in range(workload.order):
            f = fine.modes[mode].ttmc_work
            c = coarse.modes[mode].ttmc_work
            fine_imbalance = f.max() / max(f.mean(), 1.0)
            coarse_imbalance = c.max() / max(c.mean(), 1.0)
            assert fine_imbalance <= coarse_imbalance + 1e-9

    def test_symbolic_preprocessing_amortized(self, workload):
        """Symbolic TTMc takes a minority of the total HOOI time (Section V)."""
        result = hooi(workload, 6, HOOIOptions(max_iterations=5, init="random", seed=0))
        symbolic = result.timings["symbolic"]
        total = result.timings.total()
        assert symbolic < 0.35 * total

    def test_trsvd_converges_in_few_restarts(self, workload):
        """The paper reports SLEPc converging in < 5 iterations."""
        result = hooi(workload, 6, HOOIOptions(max_iterations=2, init="random", seed=0))
        restarts = [r.iterations for r in result.trsvd_stats]
        assert np.mean(restarts) <= 6

    def test_distributed_simulated_time_decreases_with_ranks(self):
        from repro.experiments.calibration import scaled_machine

        tensor = make_dataset("nell", scale=5e-5, seed=0)
        ranks = (5, 5, 5)
        options = HOOIOptions(max_iterations=1, init="random", seed=0)
        # Pair the scaled-down analog with the scale-matched machine model so
        # compute (not per-message latency) dominates, as in the experiments.
        machine = scaled_machine(5e-5)
        times = {}
        for parts in (2, 8):
            partition = make_partition(tensor, parts, "fine-hp", seed=0)
            run = distributed_hooi(tensor, ranks, partition, options, machine=machine)
            times[parts] = run.simulated_time_per_iteration
        assert times[8] < times[2]

    def test_dataset_analog_pipeline(self):
        """Quickstart-style flow on a dataset analog: generate → decompose → fit."""
        tensor = make_dataset("netflix", scale=2e-4, seed=0)
        result = hooi(tensor, (8, 4, 4),
                      HOOIOptions(max_iterations=3, init="hosvd", seed=0))
        assert 0.0 < result.fit <= 1.0
        assert np.isclose(
            result.fit, tucker_fit(tensor, result.decomposition), atol=1e-9
        )
