"""Edge-case and failure-injection tests across modules.

These cover the awkward inputs a downstream user will eventually produce:
ranks exceeding mode sizes, empty slices, ranks with no local work in the
distributed algorithm, degenerate (all-zero) tensors, and single-nonzero
tensors.
"""

import numpy as np

from repro import decompose
from repro.core import (
    HOOIOptions,
    SparseTensor,
    hooi,
    symbolic_ttmc,
    ttmc_matricized,
)
from repro.data import random_sparse_tensor
from repro.distributed import build_plans, distributed_hooi
from repro.partition import TensorPartition, make_partition
from repro.util.linalg import random_orthonormal


def tensor_with_empty_slices():
    """A tensor whose mode-0 has several completely empty slices."""
    indices = np.array([
        [0, 0, 0],
        [0, 2, 1],
        [4, 1, 3],
        [4, 3, 0],
        [9, 0, 2],
    ])
    values = np.array([1.0, -2.0, 3.0, 0.5, 2.0])
    return SparseTensor(indices, values, (10, 4, 4))


class TestEmptySlices:
    def test_ttmc_rows_for_empty_slices_are_zero(self):
        tensor = tensor_with_empty_slices()
        factors = [random_orthonormal(s, 2, seed=i) for i, s in enumerate(tensor.shape)]
        y = ttmc_matricized(tensor, factors, 0)
        empty_rows = np.setdiff1d(np.arange(10), tensor.nonempty_rows(0))
        assert empty_rows.size > 0
        assert np.allclose(y[empty_rows], 0.0)

    def test_hooi_zero_rows_in_factor(self):
        tensor = tensor_with_empty_slices()
        result = hooi(tensor, 2, HOOIOptions(max_iterations=2, init="random", seed=0))
        u0 = result.decomposition.factors[0]
        empty_rows = np.setdiff1d(np.arange(10), tensor.nonempty_rows(0))
        # Rows of U corresponding to empty slices carry no energy.
        assert np.allclose(u0[empty_rows], 0.0, atol=1e-8)

    def test_distributed_with_empty_slices(self):
        tensor = tensor_with_empty_slices()
        options = HOOIOptions(max_iterations=2, init="random", seed=0)
        seq = hooi(tensor, 2, options)
        partition = make_partition(tensor, 2, "coarse-bl")
        dist = distributed_hooi(tensor, 2, partition, options)
        # The tensor is degenerate (near-null singular directions), so the two
        # solvers may pick slightly different basis vectors; the fits agree.
        assert np.allclose(dist.fit_history, seq.fit_history, atol=1e-3)


class TestDegenerateTensors:
    def test_single_nonzero_tensor(self):
        tensor = SparseTensor(np.array([[1, 2, 3]]), np.array([5.0]), (4, 5, 6))
        result = hooi(tensor, 1, HOOIOptions(max_iterations=2, init="random", seed=0))
        # A single nonzero is exactly rank one.
        assert result.fit > 1 - 1e-10

    def test_all_zero_values(self):
        tensor = SparseTensor(
            np.array([[0, 0], [1, 1]]), np.array([0.0, 0.0]), (3, 3)
        )
        result = hooi(tensor, 1, HOOIOptions(max_iterations=1, init="random", seed=0))
        assert result.fit == 1.0

    def test_rank_exceeding_mode_sizes_is_clipped(self):
        tensor = random_sparse_tensor((6, 5, 4), 40, seed=0)
        result = hooi(tensor, 50, HOOIOptions(max_iterations=2, init="random", seed=0))
        assert result.decomposition.ranks == (6, 5, 4)
        assert result.fit > 1 - 1e-6   # full rank reproduces the tensor

    def test_order_two_tensor_behaves_like_matrix_svd(self):
        tensor = random_sparse_tensor((30, 20), 150, seed=1)
        result = hooi(tensor, 4, HOOIOptions(max_iterations=4, init="hosvd"))
        dense = tensor.to_dense()
        _, s, _ = np.linalg.svd(dense)
        best_possible = np.sqrt(max(np.sum(s**2) - np.sum(s[:4] ** 2), 0.0))
        achieved = (1.0 - result.fit) * tensor.norm()
        assert achieved <= best_possible * 1.05 + 1e-9


class TestDistributedEdgeCases:
    def test_rank_with_no_nonzeros(self):
        """A rank owning zero nonzeros must still participate correctly."""
        tensor = random_sparse_tensor((12, 10, 8), 60, seed=2)
        nonzero_owner = np.zeros(tensor.nnz, dtype=np.int64)
        nonzero_owner[: tensor.nnz // 2] = 1     # ranks 0 and 1 share the data
        row_owner = [
            np.arange(s, dtype=np.int64) % 3 for s in tensor.shape
        ]  # rank 2 owns rows but no nonzeros
        partition = TensorPartition(
            kind="fine", strategy="custom", num_parts=3,
            row_owner=row_owner, nonzero_owner=nonzero_owner,
        )
        options = HOOIOptions(max_iterations=2, init="random", seed=0)
        seq = hooi(tensor, 3, options)
        dist = distributed_hooi(tensor, 3, partition, options)
        assert np.allclose(dist.fit_history, seq.fit_history, atol=1e-7)

    def test_more_ranks_than_rows_in_a_mode(self):
        tensor = random_sparse_tensor((3, 40, 40), 200, seed=3)
        options = HOOIOptions(max_iterations=2, init="random", seed=0)
        seq = hooi(tensor, 2, options)
        partition = make_partition(tensor, 6, "fine-rd", seed=0)
        dist = distributed_hooi(tensor, 2, partition, options)
        assert np.allclose(dist.fit_history, seq.fit_history, atol=1e-7)

    def test_plan_for_single_rank_has_no_communication(self):
        tensor = random_sparse_tensor((10, 10, 10), 100, seed=4)
        partition = make_partition(tensor, 1, "fine-rd", seed=0)
        _, plans = build_plans(tensor, partition, (2, 2, 2))
        plan = plans[0]
        for mp in plan.modes:
            assert not mp.factor_exchange.send
            assert not mp.factor_exchange.receive
            assert not mp.fold.send


class TestThreadedEdgeCases:
    def test_more_threads_than_rows(self):
        tensor = SparseTensor(
            np.array([[0, 0, 0], [1, 1, 1]]), np.array([1.0, 2.0]), (2, 2, 2)
        )
        result = decompose(tensor, 1, execution="thread", num_workers=8,
                           max_iterations=1, seed=0)
        assert result.fit_history

    def test_symbolic_of_dense_mode(self):
        """Every index of a mode occupied: rows must cover the full range."""
        tensor = random_sparse_tensor((4, 50, 50), 2000, seed=5)
        sym = symbolic_ttmc(tensor, 0)
        assert np.array_equal(sym.rows, np.arange(4))
