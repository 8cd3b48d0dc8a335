"""Core sparse-tensor algebra and the sequential HOOI algorithm.

This package contains the paper's primary computational kernels in their
single-process form:

* :class:`~repro.core.sparse_tensor.SparseTensor` — COO sparse tensors;
* dense matricization / folding / n-mode products (correctness oracles);
* the nonzero-based TTMc formulation with its symbolic preprocessing step;
* matrix-free truncated SVD (TRSVD);
* HOSVD/random initialization and the sequential HOOI driver;
* the :class:`~repro.core.tucker.TuckerTensor` result container.
"""

from repro.core.sparse_tensor import SparseTensor, SUPPORTED_DTYPES, resolve_dtype
from repro.core.dense import (
    dense_ttm,
    dense_ttm_chain,
    dense_ttv,
    fold,
    tensor_norm,
    unfold,
)
from repro.core.kron import (
    batch_kron_rows,
    kron_row_length,
    kron_rows,
    segment_kron_sum,
)
from repro.core.symbolic import (
    ModeSymbolic,
    SymbolicTTMc,
    stable_radix_order,
    symbolic_all_modes,
    symbolic_ttmc,
)
from repro.core.ttmc import (
    default_block_size,
    gather_ranges,
    ttmc_flops,
    ttmc_matricized,
)
from repro.core.subset_ttmc import (
    FiberGrouping,
    edge_update_groups,
    group_fibers,
    subset_widths,
)
from repro.core.ttm import SemiSparseTensor, sparse_ttm, sparse_ttm_chain, sparse_ttv
from repro.core.trsvd import (
    DenseOperator,
    LinearOperator,
    TRSVDResult,
    gram_svd,
    lanczos_svd,
    truncated_svd,
)
from repro.core.hosvd import hosvd_init, initialize_factors, random_init
from repro.core.tucker import TuckerTensor, core_from_ttmc, tucker_fit
from repro.core.hooi import HOOIOptions, HOOIResult, hooi, hooi_iteration_stats

__all__ = [
    "SparseTensor",
    "SUPPORTED_DTYPES",
    "resolve_dtype",
    "dense_ttm",
    "dense_ttm_chain",
    "dense_ttv",
    "fold",
    "tensor_norm",
    "unfold",
    "batch_kron_rows",
    "kron_row_length",
    "kron_rows",
    "segment_kron_sum",
    "ModeSymbolic",
    "SymbolicTTMc",
    "stable_radix_order",
    "symbolic_all_modes",
    "symbolic_ttmc",
    "default_block_size",
    "gather_ranges",
    "ttmc_flops",
    "ttmc_matricized",
    "FiberGrouping",
    "edge_update_groups",
    "group_fibers",
    "subset_widths",
    "SemiSparseTensor",
    "sparse_ttm",
    "sparse_ttm_chain",
    "sparse_ttv",
    "DenseOperator",
    "LinearOperator",
    "TRSVDResult",
    "gram_svd",
    "lanczos_svd",
    "truncated_svd",
    "hosvd_init",
    "initialize_factors",
    "random_init",
    "TuckerTensor",
    "core_from_ttmc",
    "tucker_fit",
    "HOOIOptions",
    "HOOIResult",
    "hooi",
    "hooi_iteration_stats",
]
