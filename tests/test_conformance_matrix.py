"""The cross-backend conformance matrix — the spec of what composes.

One parametrized suite sweeps every point of

    grain ∈ {single-node, coarse, fine}
  × execution ∈ {sequential, thread}
  × ttmc_strategy ∈ {per-mode, dimtree}
  × trsvd_method ∈ {lanczos, gram} ∪ retired {randomized, dense}
  × dtype ∈ {float32, float64}
  × tensor_format ∈ {coo, csf}
  × kernel ∈ {numpy, numba}

on one small planted low-rank tensor (well-separated spectrum, so factor
parity is meaningful — on a near-degenerate spectrum individual singular
vectors rotate freely even though the fit agrees).

*Supported* combinations assert 1e-10 fit **and** factor parity against the
sequential float64 per-mode oracle of the same ``trsvd_method`` (float32
within 1e-3); the execution / grain / strategy / format / kernel axes must
never change the numbers.  *Unsupported* combinations assert
:class:`ValueError` with an actionable message.  Three composition rules
carve the matrix: a retired ``trsvd_method`` (a deleted solver) is an
unknown value on every path, the distributed grains support only the
Lanczos TRSVD, and ``kernel="numba"`` serves only the per-mode COO/CSF
sweeps — the dimension tree's subset-fiber kernels have no compiled
implementation (the rejection names the missing entry points and why
``REPRO_KERNEL_FORCE_PYTHON`` cannot bridge them).  The former csf holes
are closed: ``tensor_format="csf"`` composes with
``ttmc_strategy="dimtree"`` (the tree's nodes are built over the shared
CSF tree's fiber subtrees) and with ``execution="process"`` (the CSF level
arrays ride the shared-memory arena; parity asserted in
:class:`TestCSFProcessParity` alongside the other real-worker-pool
checks).
:meth:`repro.core.hooi.HOOIOptions.validate` is the single implementation of
these rules; this file is their executable spec — extend both together when
adding an option value (see CONTRIBUTING.md).

Without numba installed, the numba column runs through the registry's
interpreted-fallback hook (``REPRO_KERNEL_FORCE_PYTHON``) — the exact loop
bodies numba would compile, so the parity contract is still exercised.
"""

import os
from itertools import product

import numpy as np
import pytest

from repro.core import HOOIOptions, hooi
from repro.data import planted_lowrank_tensor
from repro.distributed import distributed_hooi
from repro.kernels import numba_available
from repro.partition import make_partition
from repro.util.validation import check_rank_feasibility

SHAPE = (16, 12, 10)
RANKS = (3, 3, 2)
NNZ = 600
ITERATIONS = 2

GRAINS = ("single-node", "coarse", "fine")
EXECUTIONS = ("sequential", "thread")
STRATEGIES = ("per-mode", "dimtree")
TRSVD_METHODS = ("lanczos", "gram")
#: Deleted solvers: every composition must reject them as unknown values.
RETIRED_TRSVD_METHODS = ("randomized", "dense")
DTYPES = ("float64", "float32")
FORMATS = ("coo", "csf")
KERNELS = ("numpy", "numba")

#: Partitioning strategy realizing each distributed grain.
GRAIN_PARTITION = {"coarse": "coarse-bl", "fine": "fine-rd"}


def combo_supported(
    grain: str, strategy: str, trsvd_method: str, fmt: str, kernel: str
) -> bool:
    """The composition rule of the matrix (mirrors HOOIOptions.validate)."""
    if trsvd_method in RETIRED_TRSVD_METHODS:
        return False  # validate checks the method before any other rule
    if kernel == "numba" and strategy == "dimtree":
        return False  # no compiled subset-fiber kernels
    if grain == "single-node":
        return True
    return trsvd_method == "lanczos"  # only TRSVD with a distributed impl


def unsupported_match(
    grain: str, strategy: str, trsvd_method: str, fmt: str, kernel: str
) -> str:
    """Substring the rejection message must contain."""
    if trsvd_method in RETIRED_TRSVD_METHODS:
        return "unknown trsvd_method"
    if kernel == "numba" and strategy == "dimtree":
        # The fail-fast must name the missing entry points and say why the
        # interpreted-fallback hook cannot serve them.
        return "REPRO_KERNEL_FORCE_PYTHON"
    return "lanczos"


ALL_COMBOS = list(
    product(
        GRAINS, EXECUTIONS, STRATEGIES,
        TRSVD_METHODS + RETIRED_TRSVD_METHODS, DTYPES, FORMATS, KERNELS,
    )
)
SUPPORTED = [c for c in ALL_COMBOS if combo_supported(c[0], c[2], c[3], c[5], c[6])]
UNSUPPORTED = [
    c for c in ALL_COMBOS if not combo_supported(c[0], c[2], c[3], c[5], c[6])
]


def combo_id(combo) -> str:
    return "-".join(combo)


@pytest.fixture(scope="module", autouse=True)
def _kernel_tier_fallback():
    """Serve the numba column interpreted when numba is not installed.

    The registry's ``REPRO_KERNEL_FORCE_PYTHON`` hook swaps the compiled
    dispatchers for the identical interpreted loop bodies, so the kernel
    axis of the matrix is exercised on every CI leg; with numba present the
    hook stays off and the column really compiles.
    """
    if numba_available() or os.environ.get("REPRO_KERNEL_FORCE_PYTHON"):
        yield
        return
    os.environ["REPRO_KERNEL_FORCE_PYTHON"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_KERNEL_FORCE_PYTHON", None)


@pytest.fixture(scope="module")
def tensor():
    tensor, _ = planted_lowrank_tensor(SHAPE, RANKS, NNZ, seed=3)
    return tensor


@pytest.fixture(scope="module")
def partitions(tensor):
    return {
        grain: make_partition(tensor, 3, strategy, seed=0)
        for grain, strategy in GRAIN_PARTITION.items()
    }


@pytest.fixture(scope="module")
def oracles(tensor):
    """Sequential float64 per-mode COO runs, one per trsvd_method.

    The trsvd_method axis legitimately changes the numerics (different
    solvers), so each method is its own oracle; every *other* axis must
    reproduce that oracle exactly.
    """
    return {
        method: hooi(
            tensor,
            RANKS,
            HOOIOptions(
                max_iterations=ITERATIONS, init="random", seed=0,
                trsvd_method=method,
            ),
        )
        for method in TRSVD_METHODS
    }


def build_options(
    execution, strategy, trsvd_method, dtype, fmt, kernel="numpy"
) -> HOOIOptions:
    return HOOIOptions(
        max_iterations=ITERATIONS,
        init="random",
        seed=0,
        execution=execution,
        num_workers=2 if execution != "sequential" else 1,
        ttmc_strategy=strategy,
        trsvd_method=trsvd_method,
        dtype=dtype,
        tensor_format=fmt,
        kernel=kernel,
    )


def run_combo(tensor, partitions, grain, options, ranks=RANKS):
    if grain == "single-node":
        result = hooi(tensor, ranks, options)
        return result.fit_history, result.decomposition.factors
    result = distributed_hooi(tensor, ranks, partitions[grain], options)
    return result.fit_history, result.decomposition.factors


class TestSupportedCombinations:
    @pytest.mark.parametrize(
        "grain,execution,strategy,trsvd_method,dtype,fmt,kernel",
        SUPPORTED,
        ids=[combo_id(c) for c in SUPPORTED],
    )
    def test_parity_with_sequential_oracle(
        self, tensor, partitions, oracles, grain, execution, strategy,
        trsvd_method, dtype, fmt, kernel,
    ):
        options = build_options(
            execution, strategy, trsvd_method, dtype, fmt, kernel
        )
        fits, factors = run_combo(tensor, partitions, grain, options)
        oracle = oracles[trsvd_method]
        tol = 1e-10 if dtype == "float64" else 1e-3
        assert np.allclose(fits, oracle.fit_history, atol=tol)
        for ours, ref in zip(factors, oracle.decomposition.factors):
            assert np.allclose(
                np.asarray(ours, dtype=np.float64), ref, atol=tol
            )


class TestUnsupportedCombinations:
    @pytest.mark.parametrize(
        "grain,execution,strategy,trsvd_method,dtype,fmt,kernel",
        UNSUPPORTED,
        ids=[combo_id(c) for c in UNSUPPORTED],
    )
    def test_fails_fast_with_actionable_message(
        self, tensor, partitions, grain, execution, strategy, trsvd_method,
        dtype, fmt, kernel,
    ):
        options = build_options(
            execution, strategy, trsvd_method, dtype, fmt, kernel
        )
        match = unsupported_match(grain, strategy, trsvd_method, fmt, kernel)
        with pytest.raises(ValueError, match=match):
            run_combo(tensor, partitions, grain, options)

    def test_numba_without_numba_is_actionable(self, monkeypatch):
        """kernel='numba' on a numba-less interpreter names the fix."""
        monkeypatch.delenv("REPRO_KERNEL_FORCE_PYTHON", raising=False)
        if numba_available():
            pytest.skip("numba is installed; the availability error cannot fire")
        with pytest.raises(ValueError, match="pip install numba"):
            HOOIOptions(kernel="numba").validate()

    @pytest.mark.parametrize("grain", ("coarse", "fine"))
    def test_distributed_rejects_process_execution(
        self, tensor, partitions, grain
    ):
        """One process pool per simulated rank would oversubscribe the node."""
        options = HOOIOptions(
            max_iterations=1, execution="process", num_workers=2
        )
        with pytest.raises(ValueError, match="oversubscribe"):
            distributed_hooi(tensor, RANKS, partitions[grain], options)

    def test_numba_dimtree_rejection_names_missing_kernels(self):
        """The fail-fast names the unimplemented entry points by name."""
        from repro.kernels import MISSING_DIMTREE_KERNELS

        options = HOOIOptions(kernel="numba", ttmc_strategy="dimtree")
        with pytest.raises(ValueError) as excinfo:
            options.validate()
        message = str(excinfo.value)
        for name in MISSING_DIMTREE_KERNELS:
            assert name in message
        assert "REPRO_KERNEL_FORCE_PYTHON" in message
        assert "MISSING_DIMTREE_KERNELS" in message


class TestInfeasibleRanks:
    """An infeasible rank vector fails with one message on every path.

    ``R_2 = 10`` exceeds ``R_0 · R_1 = 9``: ``Y_(2)`` has only 9 columns,
    so no TRSVD can keep 10 singular vectors.  Every supported composition
    must reject it before the first sweep with exactly the message of
    :func:`~repro.util.validation.check_rank_feasibility`.
    """

    INFEASIBLE = (3, 3, 10)

    @pytest.fixture(scope="class")
    def message(self):
        with pytest.raises(ValueError) as excinfo:
            check_rank_feasibility(self.INFEASIBLE)
        return str(excinfo.value)

    @pytest.mark.parametrize(
        "grain,execution,strategy,trsvd_method,dtype,fmt,kernel",
        SUPPORTED,
        ids=[combo_id(c) for c in SUPPORTED],
    )
    def test_same_rank_error_on_every_path(
        self, tensor, partitions, message, grain, execution, strategy,
        trsvd_method, dtype, fmt, kernel,
    ):
        options = build_options(
            execution, strategy, trsvd_method, dtype, fmt, kernel
        )
        with pytest.raises(ValueError) as excinfo:
            run_combo(tensor, partitions, grain, options, self.INFEASIBLE)
        assert str(excinfo.value) == message


class TestCSFProcessParity:
    """csf × process through the real worker pool, both TTMc strategies.

    The former hole: ``HOOIOptions.validate`` used to reject
    ``tensor_format='csf'`` with ``execution='process'``.  Now the CSF
    level arrays ride the shared-memory arena (per-mode rooted trees →
    root-fiber slabs; dimension trees → CSF-sourced node payloads) and the
    numbers must match the sequential COO oracle like every other
    execution tier.
    """

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_parity_with_sequential_oracle(
        self, tensor, oracles, strategy, dtype
    ):
        options = build_options("process", strategy, "lanczos", dtype, "csf")
        result = hooi(tensor, RANKS, options)
        oracle = oracles["lanczos"]
        tol = 1e-10 if dtype == "float64" else 1e-3
        assert np.allclose(result.fit_history, oracle.fit_history, atol=tol)
        for ours, ref in zip(
            result.decomposition.factors, oracle.decomposition.factors
        ):
            assert np.allclose(
                np.asarray(ours, dtype=np.float64), ref, atol=tol
            )


class TestDegradationRungs:
    """Every rung of the full (process, numba, csf) descent is sound.

    The ladder degrades one axis at a time (execution → kernel → format),
    so with csf × process legal every intermediate configuration —
    ``thread×numba×csf``, ``sequential×numba×csf``, ``sequential×numpy×csf``
    — must itself validate and reproduce the oracle at 1e-10.  A CSF job
    leaving a broken process pool keeps its compressed layout.
    """

    def test_descent_order(self):
        from repro.resilience import DegradationLadder

        steps = DegradationLadder().steps_from(
            execution="process", kernel="numba", tensor_format="csf"
        )
        assert [(s.field, s.to_value) for s in steps] == [
            ("execution", "thread"),
            ("execution", "sequential"),
            ("kernel", "numpy"),
            ("tensor_format", "coo"),
        ]

    def test_every_rung_valid_and_interchangeable(self, tensor, oracles):
        from repro.resilience import DegradationLadder

        current = {
            "execution": "process", "kernel": "numba", "tensor_format": "csf",
        }
        rungs = [dict(current)]
        for step in DegradationLadder().steps_from(**current):
            current[step.field] = step.to_value
            rungs.append(dict(current))
        oracle = oracles["lanczos"]
        for rung in rungs:
            options = HOOIOptions(
                max_iterations=ITERATIONS, init="random", seed=0,
                trsvd_method="lanczos",
                num_workers=2 if rung["execution"] != "sequential" else 1,
                **rung,
            ).validate()
            result = hooi(tensor, RANKS, options)
            assert np.allclose(
                result.fit_history, oracle.fit_history, atol=1e-10
            ), rung
            for ours, ref in zip(
                result.decomposition.factors, oracle.decomposition.factors
            ):
                assert np.allclose(ours, ref, atol=1e-10), rung


class TestUnknownOptionValues:
    """Unknown axis values fail in every context, via the one validator."""

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("trsvd_method", "qr", "trsvd_method"),
            ("ttmc_strategy", "kd-tree", "ttmc_strategy"),
            ("execution", "gpu", "execution"),
            ("dtype", "float16", "dtype"),
            ("tensor_format", "parquet", "tensor_format"),
            ("kernel", "fortran", "kernel"),
            ("num_workers", 0, "num_workers"),
            ("max_iterations", 0, "max_iterations"),
        ],
    )
    def test_rejected_single_node(self, tensor, field, value, match):
        options = HOOIOptions(**{field: value})
        with pytest.raises(ValueError, match=match):
            hooi(tensor, RANKS, options)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("trsvd_method", "qr", "trsvd_method"),
            ("ttmc_strategy", "kd-tree", "ttmc_strategy"),
            ("execution", "gpu", "execution"),
            ("dtype", "float16", "dtype"),
            ("tensor_format", "parquet", "tensor_format"),
        ],
    )
    def test_rejected_distributed(self, tensor, partitions, field, value, match):
        options = HOOIOptions(**{field: value})
        with pytest.raises(ValueError, match=match):
            distributed_hooi(tensor, RANKS, partitions["coarse"], options)

    def test_unknown_context_rejected(self):
        with pytest.raises(ValueError, match="context"):
            HOOIOptions().validate(context="multiverse")

    def test_validate_returns_options(self):
        options = HOOIOptions(execution="thread", num_workers=2)
        assert options.validate() is options
        assert options.validate(context="distributed") is options


class TestCSFDimtreeInvalidationProperty:
    """CSF-sourced trees obey the same cache semantics as COO-sourced ones.

    Property (hypothesis): build one COO-sourced and one CSF-sourced
    dimension tree over the same random tensor, refresh every mode, then
    replace factor ``n`` and invalidate it — the set of still-fresh nodes
    (by mode range) and every refreshed matricization must match the
    COO tree's exactly.  The tree's version-counter logic is shared, so
    this pins the *source* abstraction: swapping the leaf/edge walks from
    COO subset grouping to CSF pullups may not change what the cache
    considers stale nor what it recomputes.
    """

    @staticmethod
    def _random_tensor(rng, order):
        from repro.core.sparse_tensor import SparseTensor

        shape = tuple(int(rng.integers(3, 7)) for _ in range(order))
        raw = np.stack(
            [rng.integers(0, s, 60) for s in shape], axis=1
        )
        idx = np.unique(raw, axis=0)
        values = rng.standard_normal(len(idx))
        return SparseTensor(idx, values, shape)

    def test_invalidation_parity(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from repro.engine.dimtree import DimensionTree

        @settings(
            max_examples=25,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            seed=st.integers(0, 2**31 - 1),
            order=st.integers(3, 4),
            data=st.data(),
        )
        def property_case(seed, order, data):
            rng = np.random.default_rng(seed)
            tensor = self._random_tensor(rng, order)
            mode_n = data.draw(
                st.integers(0, order - 1), label="invalidated mode"
            )
            ranks = [int(rng.integers(1, 4)) for _ in range(order)]
            factors = [
                rng.standard_normal((s, r))
                for s, r in zip(tensor.shape, ranks)
            ]
            coo_tree = DimensionTree(tensor, source="coo")
            csf_tree = DimensionTree(tensor, source="csf")
            trees = (coo_tree, csf_tree)
            for tree in trees:
                for mode in range(order):
                    tree.leaf_matricized(mode, factors)
            # Replace factor n; both trees must agree on what went stale.
            factors[mode_n] = rng.standard_normal(factors[mode_n].shape)
            for tree in trees:
                tree.invalidate_factor(mode_n)
            fresh_coo = {(n.lo, n.hi) for n in coo_tree.fresh_nodes()}
            fresh_csf = {(n.lo, n.hi) for n in csf_tree.fresh_nodes()}
            assert fresh_csf == fresh_coo
            # A freshly built tree is the oracle for post-refresh numerics:
            # the stale-path refresh must equal a from-scratch evaluation.
            fresh_tree = DimensionTree(tensor, source="coo")
            for mode in range(order):
                expected = fresh_tree.leaf_matricized(mode, factors)
                got_coo = coo_tree.leaf_matricized(mode, factors)
                got_csf = csf_tree.leaf_matricized(mode, factors)
                np.testing.assert_allclose(got_coo, expected, atol=1e-12)
                np.testing.assert_allclose(got_csf, expected, atol=1e-12)
            assert {(n.lo, n.hi) for n in coo_tree.fresh_nodes()} == {
                (n.lo, n.hi) for n in csf_tree.fresh_nodes()
            }

        property_case()
