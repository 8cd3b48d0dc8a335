"""The compact TTMc contract: every plan hands the engine a ``|J_n| × W`` block.

A plan reports each mode's sorted non-empty rows ``J_n`` (``plan.rows(n)``,
fixed at build) and its TTMc returns the compact block whose row ``p`` is
``Y_(n)(J_n[p], :)``.  The blocks must equal ``ttmc_matricized(...)[J_n]``
under ``np.array_equal`` for every plan (COO rows, per-mode CSF slabs held
in memory or memory-mapped from an out-of-core directory, and the
dimension tree over either source), inline, on two threads and on a
two-worker crew, in the first sweep and in a later one.  Threads, workers
and the fiber formats reassociate sums, so the data are small integers:
every product and sum is exact, and any association gives the same bits.
Mode 0 uses only even indices, so it has empty rows.

The engine runs the TRSVD on the block.  When a mode has fewer non-empty
rows than its rank, the solver returns ``|J_n|`` columns and the factor is
completed with unit vectors on the lowest-index empty rows: every
execution path, the distributed drivers included, must return orthonormal
factors with the same completed columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import HOOIOptions, hooi
from repro.core import SparseTensor, ttmc_matricized
from repro.distributed import distributed_hooi
from repro.engine import (
    COORowsPlan,
    CSFSlabPlan,
    DimensionTree,
    HOOIEngine,
    InlineDispatcher,
    ThreadDispatcher,
    WorkspacePool,
    parallel_symbolic,
    resolve_ttmc_backend,
)
from repro.parallel import HOOIProcessPool
from repro.parallel.process_pool import PersistentWorkerCrew
from repro.partition import make_partition
from repro.sparse import CSFTensorSet
from repro.streaming import build_out_of_core

#: (shape, per-mode rank, nonzeros drawn) per order.
CASES = {
    3: ((24, 15, 12), 3, 300),
    4: ((12, 9, 8, 7), 2, 250),
}

#: Plan builders over (tensor, ranks, scratch directory); only the
#: memory-mapped trees are written to the directory.
PLANS = {
    "coo": lambda t, r, d: COORowsPlan(t, parallel_symbolic(t, 1), r),
    "csf": lambda t, r, d: CSFSlabPlan(CSFTensorSet.per_mode(t), r),
    "csf-mmap": lambda t, r, d: CSFSlabPlan(build_out_of_core(t, d).trees(), r),
    "dimtree-coo": lambda t, r, d: DimensionTree(t, source="coo", ranks=r),
    "dimtree-csf": lambda t, r, d: DimensionTree(t, source="csf", ranks=r),
}


def _tensor(order, seed=0):
    shape, _rank, nnz = CASES[order]
    rng = np.random.default_rng(seed)
    indices = np.column_stack([rng.integers(0, s, nnz) for s in shape])
    indices[:, 0] -= indices[:, 0] % 2
    values = rng.integers(1, 5, nnz) * rng.choice([-1, 1], nnz)
    return SparseTensor(indices, values.astype(np.float64), shape,
                        sum_duplicates=True)


def _factor_sets(order, count=2):
    shape, rank, _nnz = CASES[order]
    rng = np.random.default_rng(order)
    return [
        [rng.integers(-3, 4, (s, rank)).astype(np.float64) for s in shape]
        for _ in range(count)
    ]


def _engine_sweeps(tensor, plan, ttmc, update):
    """Two sweeps in engine order: after mode ``n``'s TTMc, ``U_n`` changes.

    ``ttmc(mode, factors)`` returns the plan's block and ``update(mode,
    factor)`` publishes a new factor.  Returns ``(got, expected)`` blocks.
    """
    sets = _factor_sets(tensor.order, 3)
    factors = list(sets[0])
    got, expected = [], []
    for following in sets[1:]:
        for mode in range(tensor.order):
            got.append(ttmc(mode, factors).copy())
            full = ttmc_matricized(tensor, factors, mode)
            expected.append(full[np.unique(tensor.indices[:, mode])])
            factors[mode] = following[mode]
            update(mode, factors[mode])
            plan.factor_updated(mode)
    return got, expected


def _assert_blocks(got, expected):
    for step, (a, b) in enumerate(zip(got, expected)):
        assert a.shape == b.shape, step
        assert np.array_equal(a, b), f"step {step} differs"


@pytest.fixture(scope="module")
def crew():
    with PersistentWorkerCrew(2) as crew:
        yield crew


@pytest.mark.parametrize("order", sorted(CASES))
@pytest.mark.parametrize("plan_name", sorted(PLANS))
class TestCompactBlocks:
    def test_rows_are_the_nonempty_rows(self, order, plan_name, tmp_path):
        tensor = _tensor(order)
        plan = PLANS[plan_name](tensor, None, tmp_path)
        assert np.unique(tensor.indices[:, 0]).shape[0] < tensor.shape[0]
        for mode in range(order):
            assert np.array_equal(
                plan.rows(mode), np.unique(tensor.indices[:, mode])
            )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_in_process(self, order, plan_name, threads, tmp_path):
        tensor = _tensor(order)
        plan = PLANS[plan_name](tensor, None, tmp_path)
        dispatcher = (
            InlineDispatcher() if threads == 1
            else ThreadDispatcher(threads)
        )
        got, expected = _engine_sweeps(
            tensor, plan,
            lambda mode, factors: dispatcher.ttmc(plan, mode, list(factors)),
            lambda mode, factor: None,
        )
        _assert_blocks(got, expected)

    def test_crew(self, order, plan_name, crew, tmp_path):
        tensor = _tensor(order)
        plan = PLANS[plan_name](tensor, [CASES[order][1]] * order, tmp_path)
        with HOOIProcessPool(plan, crew=crew) as pool:
            for mode, factor in enumerate(_factor_sets(order, 3)[0]):
                pool.write_factor(mode, factor)
            for mode in range(order):
                assert pool._arena[f"out{mode}"].shape[0] == plan.rows(mode).shape[0]
            got, expected = _engine_sweeps(
                tensor, plan,
                lambda mode, factors: pool.ttmc(mode),
                pool.write_factor,
            )
        _assert_blocks(got, expected)


def test_tree_serves_its_leaf_payload():
    tensor = _tensor(3)
    tree = DimensionTree(tensor)
    factors = _factor_sets(3)[0]
    for mode in range(3):
        block = InlineDispatcher().ttmc(tree, mode, factors)
        assert block is tree.leaves[mode].payload


def test_engine_buffers_are_compact():
    """The engine's pooled TTMc blocks hold ``|J_n|`` rows, never ``I_n``."""
    tensor = _tensor(3)
    pool = WorkspacePool()
    hooi(tensor, 3, HOOIOptions(max_iterations=2, seed=0), workspace=pool)
    rows = {
        tag: shape[0] for tag, shape, _ in pool._buffers if tag.startswith("ttmc-out-")
    }
    assert rows == {
        f"ttmc-out-{n}": np.unique(tensor.indices[:, n]).shape[0] for n in range(3)
    }


def _few_rows_tensor():
    """Mode 1 has 7 non-empty rows and rank 8 = I_1 (the NELL analog's case)."""
    rng = np.random.default_rng(3)
    nnz = 400
    indices = np.column_stack([
        rng.integers(0, 20, nnz),
        rng.choice([0, 1, 2, 4, 5, 6, 7], nnz),
        rng.integers(0, 16, nnz),
    ])
    return SparseTensor(indices, rng.standard_normal(nnz), (20, 8, 16),
                        sum_duplicates=True)


FEW_ROWS_RANKS = (3, 8, 3)


def _single_node(**options):
    return hooi(_few_rows_tensor(), FEW_ROWS_RANKS, HOOIOptions(
        max_iterations=3, tolerance=0.0, seed=0, **options,
    )).decomposition.factors


def _distributed(strategy):
    tensor = _few_rows_tensor()
    partition = make_partition(tensor, 4, strategy, seed=0)
    return distributed_hooi(tensor, FEW_ROWS_RANKS, partition, HOOIOptions(
        max_iterations=3, tolerance=0.0, seed=0,
    )).decomposition.factors


class TestFewerRowsThanRank:
    RUNS = {
        "sequential": lambda: _single_node(),
        "gram": lambda: _single_node(trsvd_method="gram"),
        "csf": lambda: _single_node(tensor_format="csf"),
        "dimtree": lambda: _single_node(ttmc_strategy="dimtree"),
        "thread": lambda: _single_node(execution="thread", num_workers=2),
        "fine-rd": lambda: _distributed("fine-rd"),
        "coarse-bl": lambda: _distributed("coarse-bl"),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_factors_are_orthonormal(self, run):
        reference = _single_node()
        factors = self.RUNS[run]()
        for n, factor in enumerate(factors):
            gram = factor.T @ factor
            assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-12, n
        # The completed column: the unit vector on row 3, the empty row.
        assert np.array_equal(factors[1][:, 7], reference[1][:, 7])
        assert factors[1][3, 7] == 1.0

    @pytest.mark.usefixtures("every_job_on_the_crew")
    def test_crew_factors_are_orthonormal(self):
        options = HOOIOptions(max_iterations=3, tolerance=0.0, seed=0,
                              execution="process", num_workers=2)
        backend = resolve_ttmc_backend(options)
        engine = HOOIEngine(_few_rows_tensor(), FEW_ROWS_RANKS, options,
                            backend=backend)
        result = engine.run()
        assert backend.dispatcher.name == "process"
        for factor in result.decomposition.factors:
            gram = factor.T @ factor
            assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-12
        assert result.decomposition.factors[1][3, 7] == 1.0
