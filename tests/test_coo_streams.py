"""The COO plan's mode streams: parity, reuse and index dtype.

A :class:`~repro.engine.plans.COORowsPlan` keeps each mode's nonzeros in
update-list order.  A mode's first TTMc fills its stream through ``perm``;
every later TTMc reads stream slices and never touches the tensor again.

* Parity: the plan's first and second sweeps equal the ``J_n`` rows of
  ``ttmc_matricized`` under ``np.array_equal`` for orders 2–5, both dtypes, inline, on threads
  and on a worker crew, with blocks small enough to split segments (the
  ``block_cap`` fixture) and a mode with empty rows.  The cap reaches a
  crew's workers only when the crew forks after it.  Threads and workers
  split the rows into ranges whose blocks start elsewhere than the
  sequential call's, which reassociates the sums of split segments, so
  those cases use small integer values and factor entries: every product
  and sum is exact, and any association gives the same bits.  Inline runs
  use the sequential call's blocks and random floats.
* Later sweeps stream: once every mode has run once, the plan's copy of the
  tensor is overwritten with out-of-range indices and NaN values, and the
  next sweep must still equal the first.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core import HOOIOptions, SparseTensor, ttmc_matricized
from repro.core.ttmc import restrict_symbolic
from repro.engine import (
    COORowsPlan,
    HOOIEngine,
    InlineDispatcher,
    ThreadDispatcher,
    parallel_symbolic,
    resolve_ttmc_backend,
)
from repro.parallel import HOOIProcessPool
from repro.parallel.process_pool import PersistentWorkerCrew
from repro.util.linalg import random_orthonormal

#: (shape, per-mode rank, nonzeros drawn) per order; mode 0 only uses even
#: indices, so it has empty rows.
CASES = {
    2: ((40, 25), 4, 300),
    3: ((24, 15, 12), 3, 300),
    4: ((12, 9, 8, 7), 2, 250),
    5: ((10, 6, 5, 4, 4), 2, 250),
}
#: Block caps (``block_cap``): the default blocks, and blocks small enough
#: that most update lists split across them.
CAPS = [None, 7]

#: Each thread count lays its ``⌈|J_n| / 4w⌉``-row chunks out differently;
#: one thread runs its four chunks in order on the caller, with no pool.
DISPATCHERS = {
    "inline": InlineDispatcher,
    "thread1": lambda: ThreadDispatcher(1),
    "thread2": lambda: ThreadDispatcher(2),
    "thread3": lambda: ThreadDispatcher(3),
    "thread4": lambda: ThreadDispatcher(4),
}


def _tensor(order, dtype, *, exact, seed=0):
    shape, _rank, nnz = CASES[order]
    rng = np.random.default_rng(seed)
    indices = np.column_stack([rng.integers(0, s, nnz) for s in shape])
    indices[:, 0] -= indices[:, 0] % 2
    if exact:
        values = rng.integers(1, 5, nnz) * rng.choice([-1, 1], nnz)
    else:
        values = rng.standard_normal(nnz)
    return SparseTensor(indices, values.astype(dtype), shape, sum_duplicates=True)


def _factors(order, dtype, *, exact, seed=0):
    shape, rank, _nnz = CASES[order]
    if exact:
        rng = np.random.default_rng(seed + 1)
        return [rng.integers(-3, 4, (s, rank)).astype(dtype) for s in shape]
    return [
        random_orthonormal(s, rank, seed=seed + t).astype(dtype)
        for t, s in enumerate(shape)
    ]


def _plan(tensor, ranks=None):
    return COORowsPlan(tensor, parallel_symbolic(tensor, 1), ranks)


def _sweep(ttmc, order):
    return [ttmc(mode).copy() for mode in range(order)]


def _expected(tensor, factors):
    """The plan's compact blocks: the ``J_n`` rows of the full TTMc."""
    return [
        ttmc_matricized(tensor, factors, mode)[tensor.nonempty_rows(mode)]
        for mode in range(tensor.order)
    ]


def _assert_equal(got, expected):
    for mode, (a, b) in enumerate(zip(got, expected)):
        assert a.dtype == b.dtype, mode
        assert np.array_equal(a, b), f"mode {mode} differs"


def _poison(indices, values):
    """Make any later read of the tensor fail or turn NaN."""
    indices[...] = np.iinfo(np.int32).max + 7
    values[...] = np.nan


@pytest.fixture(scope="module")
def crew():
    with PersistentWorkerCrew(2) as crew:
        yield crew


@pytest.mark.parametrize("order", sorted(CASES))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("block_cap", CAPS, indirect=True)
class TestParity:
    def test_inline_random_values(self, order, dtype, block_cap):
        tensor = _tensor(order, dtype, exact=False)
        factors = _factors(order, dtype, exact=False)
        plan = _plan(tensor)
        expected = _expected(tensor, factors)
        dispatcher = InlineDispatcher()
        for _ in range(2):
            _assert_equal(
                _sweep(lambda n: dispatcher.ttmc(plan, n, factors), order),
                expected,
            )
            assert plan.filled.all()

    @pytest.mark.parametrize("dispatcher", sorted(DISPATCHERS))
    def test_dispatchers_exact_values(self, order, dtype, block_cap, dispatcher):
        tensor = _tensor(order, dtype, exact=True)
        factors = _factors(order, dtype, exact=True)
        plan = _plan(tensor)
        expected = _expected(tensor, factors)
        run = DISPATCHERS[dispatcher]()
        for _ in range(2):
            _assert_equal(
                _sweep(lambda n: run.ttmc(plan, n, factors), order), expected
            )

    def test_crew_exact_values(self, order, dtype, block_cap, crew):
        """The module's crew starts before any cap: its workers run the
        default blocks, and exact values make them equal the capped ones."""
        tensor = _tensor(order, dtype, exact=True)
        factors = _factors(order, dtype, exact=True)
        ranks = [f.shape[1] for f in factors]
        expected = _expected(tensor, factors)
        with HOOIProcessPool(_plan(tensor, ranks), crew=crew) as pool:
            for mode, factor in enumerate(factors):
                pool.write_factor(mode, factor)
            for _ in range(2):
                _assert_equal(_sweep(pool.ttmc, order), expected)


class TestCappedCrew:
    def test_crew_started_after_the_cap(self, block_cap):
        """A crew forked after ``block_cap`` splits blocks in its workers.

        Under ``spawn`` the workers import the default cap instead; the
        exact values make either equal the capped inline blocks.
        """
        tensor = _tensor(4, np.float64, exact=True)
        factors = _factors(4, np.float64, exact=True)
        ranks = [f.shape[1] for f in factors]
        expected = _expected(tensor, factors)
        with PersistentWorkerCrew(2) as crew:
            with HOOIProcessPool(_plan(tensor, ranks), crew=crew) as pool:
                for mode, factor in enumerate(factors):
                    pool.write_factor(mode, factor)
                for _ in range(2):
                    _assert_equal(_sweep(pool.ttmc, 4), expected)


class TestLaterSweepsStream:
    @pytest.mark.parametrize("dispatcher", sorted(DISPATCHERS))
    @pytest.mark.parametrize("block_cap", CAPS, indirect=True)
    def test_poisoned_tensor_is_never_read_again(self, dispatcher, block_cap):
        tensor = _tensor(4, np.float64, exact=False)
        factors = _factors(4, np.float64, exact=False)
        plan = _plan(tensor.copy())
        run = DISPATCHERS[dispatcher]()
        first = _sweep(lambda n: run.ttmc(plan, n, factors), 4)
        _poison(plan.tensor.indices, plan.tensor.values)
        second = _sweep(lambda n: run.ttmc(plan, n, factors), 4)
        _assert_equal(second, first)

    def test_poisoned_arena_is_never_read_again(self, crew):
        tensor = _tensor(3, np.float64, exact=False)
        factors = _factors(3, np.float64, exact=False)
        plan = _plan(tensor, [f.shape[1] for f in factors])
        with HOOIProcessPool(plan, crew=crew) as pool:
            for mode, factor in enumerate(factors):
                pool.write_factor(mode, factor)
            first = _sweep(pool.ttmc, 3)
            _poison(pool._arena["indices"], pool._arena["values"])
            second = _sweep(pool.ttmc, 3)
        _assert_equal(second, first)

    @pytest.mark.usefixtures("every_job_on_the_crew")
    def test_crew_run_ignores_a_poisoned_arena(self):
        tensor = _tensor(3, np.float64, exact=False)
        options = HOOIOptions(
            execution="process", num_workers=2, max_iterations=3,
            tolerance=0.0, seed=0,
        )

        def run(callback):
            backend = resolve_ttmc_backend(options)
            engine = HOOIEngine(tensor, 3, options, backend=backend)
            return engine.run(callback=lambda it, fit: callback(backend))

        def poison(backend):
            arena = backend.pool._arena
            _poison(arena["indices"], arena["values"])

        clean = run(lambda backend: None)
        poisoned = run(poison)
        assert poisoned.fit_history == clean.fit_history
        for a, b in zip(
            poisoned.decomposition.factors, clean.decomposition.factors
        ):
            assert np.array_equal(a, b)
        assert np.array_equal(poisoned.decomposition.core, clean.decomposition.core)


class TestThreadStress:
    @pytest.mark.usefixtures("block_cap")
    def test_many_threads_fill_disjoint_slices(self):
        """More threads than cores, one row per chunk, frequent switches."""
        tensor = _tensor(4, np.float64, exact=True)
        factors = _factors(4, np.float64, exact=True)
        plan = _plan(tensor)
        expected = _expected(tensor, factors)
        run = ThreadDispatcher(6)
        # Six threads make chunks of ⌈|J_n| / 24⌉ rows: one row each here.
        assert max(plan.items(n) for n in range(4)) <= 24
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                _assert_equal(
                    _sweep(lambda n: run.ttmc(plan, n, factors), 4), expected
                )
        finally:
            sys.setswitchinterval(interval)


class TestStreamState:
    @pytest.mark.usefixtures("block_cap")
    def test_failed_ttmc_publishes_nothing(self):
        tensor = _tensor(3, np.float64, exact=False)
        factors = _factors(3, np.float64, exact=False)
        plan = _plan(tensor.copy())
        plan.factors = factors
        half = plan.items(1) // 2

        def fail_halfway(mode):
            plan.body(mode, 0, half)
            raise RuntimeError("cancelled")

        with pytest.raises(RuntimeError, match="cancelled"):
            plan.ttmc(1, fail_halfway)
        assert not plan.filled[1]
        got = InlineDispatcher().ttmc(plan, 1, factors)
        assert plan.filled[1]
        assert np.array_equal(got, ttmc_matricized(tensor, factors, 1)[plan.rows(1)])

    def test_row_subset_streams_its_own_nonzeros(self):
        """A plan over some rows' update lists (a distributed rank's) streams
        just their nonzeros, and its later sweeps read the stream."""
        tensor = _tensor(3, np.float64, exact=False)
        factors = _factors(3, np.float64, exact=False)
        full_lists = parallel_symbolic(tensor, 1)
        symbolic = {
            n: restrict_symbolic(sym, np.arange(0, sym.num_rows, 3))
            for n, sym in full_lists.items()
        }
        plan = COORowsPlan(tensor.copy(), symbolic)
        expected = [
            ttmc_matricized(tensor, factors, n)[symbolic[n].rows]
            for n in range(tensor.order)
        ]
        first = _sweep(lambda n: InlineDispatcher().ttmc(plan, n, factors), 3)
        assert plan.filled.all()
        for n, stream in plan.streams.items():
            assert stream.values.shape == (symbolic[n].nnz,)
            assert symbolic[n].nnz < tensor.nnz
        _poison(plan.tensor.indices, plan.tensor.values)
        second = _sweep(lambda n: InlineDispatcher().ttmc(plan, n, factors), 3)
        _assert_equal(first, expected)
        _assert_equal(second, expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stream_bytes(self, dtype):
        tensor = _tensor(4, dtype, exact=False)
        factors = _factors(4, dtype, exact=False)
        plan = _plan(tensor)
        _sweep(lambda n: InlineDispatcher().ttmc(plan, n, factors), 4)
        assert plan.index_dtype == np.int32
        assert all(s.cols.dtype == np.int32 for s in plan.streams.values())
        assert all(s.cols.flags.c_contiguous for s in plan.streams.values())
        stored = sum(s.cols.nbytes + s.values.nbytes for s in plan.streams.values())
        order, nnz = tensor.order, tensor.nnz
        assert stored == order * nnz * ((order - 1) * 4 + np.dtype(dtype).itemsize)

    def test_int64_columns_beyond_int32_mode_sizes(self):
        shape = (2**31 + 5, 3, 4)
        indices = np.array([[2**31 + 1, 0, 3], [7, 2, 1], [0, 1, 0]])
        tensor = SparseTensor(indices, np.array([1.0, 2.0, 3.0]), shape)
        assert _plan(tensor).index_dtype == np.int64
