"""Matrix-free truncated SVD (the paper's TRSVD step).

HOOI needs, for each mode ``n``, the leading ``R_n`` *left* singular vectors
of the matricized TTMc result ``Y_(n)`` — a dense, usually tall-and-skinny
matrix with up to millions of rows, of which the engine passes only the
``|J_n|`` non-empty ones.  Following Section III-A.2 of the paper we
never form the Gram matrix ``Y Yᵀ`` (its side would be ``I_n``) and we never
compute a full SVD; instead we run an iterative method whose only access to
the matrix is through matrix-vector (``MxV``) and transposed matrix-vector
(``MTxV``) products.  That operator interface is exactly what the distributed
algorithm hooks into: the fine-grain variant keeps ``Y_(n)`` in sum-distributed
form and implements the two products with communication (see
:mod:`repro.distributed.dist_trsvd`).

Two solvers are provided:

* :func:`lanczos_svd` — Golub-Kahan Lanczos bidiagonalization with full
  reorthogonalization and implicit restarting; the default, mirroring the
  Krylov solvers SLEPc provides.  The same loop runs on a dense ``Y_(n)``,
  on one rank's block of a distributed ``Y_(n)`` and on one crew worker's
  row block of a process run's ``Y_(n)``: the operator supplies the
  row-space reductions (see :class:`LinearOperator` and
  :class:`RowSplitOperator`).
* :func:`gram_svd` — ``eigh`` of the *small* ``W × W`` Gram matrix ``YᵀY``
  plus the recovery ``U = Y V Σ⁻¹``; the fast path when the matricized
  width ``W = ∏_{t≠n} R_t`` is small relative to ``I_n`` (it squares the
  spectrum, so trailing singular values lose accuracy — see its docstring).

The Lanczos solver reports the number of operator applications so
experiments can account for per-iteration communication exactly as the
paper does.  Both solvers orient each singular triplet the same way: its
right vector's entry of largest magnitude is positive (the first such
entry on ties).  Right vectors are replicated on every rank of a split
solve, so split, distributed and driver solves pick the same signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.sparse_tensor import as_supported_float
from repro.util.linalg import orthonormalize

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "RowSplitOperator",
    "TRSVDResult",
    "lanczos_svd",
    "gram_svd",
    "truncated_svd",
]


class LinearOperator:
    """Minimal matrix-free operator: a shape plus ``matvec``/``rmatvec``.

    Subclasses implement ``matvec(x) -> A @ x`` (length ``shape[0]``) and
    ``rmatvec(y) -> A.T @ y`` (length ``shape[1]``).

    :func:`lanczos_svd` also reduces over the row (left) space: it needs the
    global row count, ``basisᵀ @ v`` against its left basis, left norms and
    a generator for left deflation vectors.  The defaults assume this
    process holds every row.  An operator whose rows are spread over ranks
    holds only a segment, so ``shape[0]`` is the local row count, and
    overrides these four with allreduces and a rank-local stream
    (:class:`RowSplitOperator`): a distributed rank's
    (:class:`~repro.distributed.dist_trsvd.DistributedTTMcMatrix`) and a
    crew worker's row block in a process run
    (:class:`~repro.parallel.crew_trsvd.RowBlockOperator`).
    """

    shape: Tuple[int, int]

    def matvec(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def rmatvec(self, y: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def global_rows(self) -> int:
        """Row count of the whole operator (clamps the rank and subspace)."""
        return int(self.shape[0])

    def left_dot(self, basis: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """``basisᵀ @ vector`` for a left basis ``(shape[0], j)``."""
        return basis.T @ vector

    def left_norm(self, vector: np.ndarray) -> float:
        """2-norm of a left vector."""
        return float(np.linalg.norm(vector))

    def left_rng(
        self, shared: np.random.Generator, seed: Optional[int]
    ) -> np.random.Generator:
        """Generator that deflated left vectors are redrawn from.

        ``shared`` is the solver's own stream (seeded with ``seed``), which
        also draws the right starting and deflation vectors.
        """
        return shared


class RowSplitOperator(LinearOperator):
    """An operator whose rows are split over ranks that run one solve together.

    ``shape[0]`` is this rank's row count.  Subclasses set ``rank`` and
    implement :meth:`allreduce`, the elementwise sum of a short vector over
    every rank, bit-identical on each.  :func:`lanczos_svd`'s row-space
    reductions become allreduces of this rank's partials, and left
    deflation vectors come from a rank-local stream: ranks hold different
    row counts, so drawing them from the shared stream would desynchronize
    the right vectors every rank draws from it.
    """

    rank: int = 0

    def allreduce(self, vector: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def global_rows(self) -> int:
        """Row counts summed over all ranks."""
        return int(self.allreduce(np.array([float(self.shape[0])]))[0])

    def left_dot(self, basis: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """Global ``basisᵀ @ vector`` for a local-segment basis (m × j)."""
        return self.allreduce(basis.T @ vector)

    def left_norm(self, vector: np.ndarray) -> float:
        """Global 2-norm of a local-segment vector."""
        total = float(self.allreduce(np.array([float(vector @ vector)]))[0])
        return float(np.sqrt(max(total, 0.0)))

    def left_rng(
        self, shared: np.random.Generator, seed: Optional[int]
    ) -> np.random.Generator:
        """A rank-local stream seeded ``seed + 7919 * (rank + 1)``."""
        return np.random.default_rng(
            None if seed is None else seed + 7919 * (self.rank + 1)
        )


class DenseOperator(LinearOperator):
    """Wrap a dense ndarray as a :class:`LinearOperator` (BLAS2 products).

    The matrix's floating dtype is preserved — a ``float32`` TTMc result is
    multiplied as ``float32`` (the solver's own vectors stay ``float64``, and
    mixed products promote exactly), so the dtype policy never forces an
    up-conversion copy of the big matricized operand.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = as_supported_float(matrix)
        if self.matrix.ndim != 2:
            raise ValueError("DenseOperator expects a 2-D array")
        self.shape = self.matrix.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.matrix.T @ y


@dataclass
class TRSVDResult:
    """Output of a truncated SVD solve."""

    left: np.ndarray          # (m, k) leading left singular vectors
    singular_values: np.ndarray  # (k,)
    right: Optional[np.ndarray]  # (n, k) or None if not requested
    iterations: int           # outer iterations (restarts for Lanczos)
    matvecs: int              # number of MxV applications
    rmatvecs: int             # number of MTxV applications
    converged: bool

    @property
    def rank(self) -> int:
        return int(self.singular_values.shape[0])


def _as_operator(matrix: Union[np.ndarray, LinearOperator]) -> LinearOperator:
    if isinstance(matrix, LinearOperator):
        return matrix
    return DenseOperator(np.asarray(matrix))


def _flips(right_rows: np.ndarray) -> np.ndarray:
    """Triplets to negate: those whose right vector's largest entry is negative.

    Row ``i`` of ``right_rows`` is triplet ``i``'s right vector; its entry
    of largest magnitude (the first on ties, ``argmax``'s choice) decides.
    """
    lead = np.abs(right_rows).argmax(axis=1)
    return right_rows[np.arange(right_rows.shape[0]), lead] < 0


def lanczos_svd(
    matrix: Union[np.ndarray, LinearOperator],
    rank: int,
    *,
    tol: float = 1e-8,
    max_restarts: int = 20,
    subspace: Optional[int] = None,
    seed: Optional[int] = 0,
    compute_right: bool = True,
) -> TRSVDResult:
    """Leading ``rank`` singular triplets via Golub-Kahan Lanczos bidiagonalization.

    The bidiagonalization is run with full reorthogonalization up to a
    subspace of ``subspace`` vectors (default ``max(2 * rank + 4, rank + 8)``,
    capped at the smaller global dimension); if the top-``rank`` triplets
    have not converged the factorization is (thick-)restarted from the
    current Ritz vectors, up to ``max_restarts`` times.  Convergence of
    triplet ``i`` is declared when its residual bound
    ``beta * |last Ritz component|`` falls below ``tol * sigma_max``.  When
    the subspace reaches the global row count (an operand with few rows),
    one pass is exact: the left basis spans every row, so the solver takes
    the SVD of the ``j × (j + 1)`` projection ``[B | beta_j e_j]`` and stops.

    Left vectors have ``op.shape[0]`` rows and every reduction over them
    goes through the operator's ``left_*`` methods, so on a row-split
    operator (:class:`RowSplitOperator`: a distributed rank, or a crew
    worker of a process run) each rank gets its own row segment of
    ``left`` back.  Right vectors are short and replicated; every rank runs
    the same scalar control flow, so the restart decisions agree without
    extra messages.  Each returned triplet is oriented so that its right
    vector's entry of largest magnitude is positive; every rank flips the
    same triplets.  A split solve sums in a different order than a solve
    of the whole block, so the two agree at rounding level, within ``tol``
    after the iterations.
    """
    op = _as_operator(matrix)
    m, n = op.shape
    rows = op.global_rows()
    rank = int(rank)
    if rank <= 0:
        raise ValueError("rank must be positive")
    cap = min(rows, n) if rows > 0 else n
    rank = max(min(rank, cap), 1)
    if subspace is None:
        subspace = max(2 * rank + 4, rank + 8)
    subspace = int(min(max(subspace, rank + 1), max(cap, 1)))
    # Once the left basis spans every row, Y = U [B | beta_j e_j] V_{j+1}ᵀ
    # holds exactly: the SVD of that j × (j + 1) matrix is the answer.
    spans_rows = 0 < rows <= subspace

    rng = np.random.default_rng(seed)
    left_rng = op.left_rng(rng, seed)
    # Right starting vector.
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)

    # One basis vector per row: reorthogonalization reads contiguous rows.
    V = np.zeros((subspace + 1, n))
    U = np.zeros((subspace, m))
    alphas = np.zeros(subspace)
    betas = np.zeros(subspace)

    total_restarts = 0
    matvecs = rmatvecs = 0
    converged = False
    left = np.zeros((rank, m))
    right = np.zeros((rank, n))
    sigma = np.zeros(rank)

    V[0] = v
    start = 0          # number of locked/restart basis vectors already in place
    beta_prev = 0.0
    u_prev = np.zeros(m)

    for restart in range(max_restarts):
        total_restarts = restart + 1
        j = start
        while j < subspace:
            u = op.matvec(V[j]) - beta_prev * u_prev
            matvecs += 1
            # Full reorthogonalization against previous left vectors.
            if j > 0:
                u -= op.left_dot(U[:j].T, u) @ U[:j]
            alpha = op.left_norm(u)
            if alpha < 1e-14:
                # Deflate with a random direction orthogonal to the basis.
                u = left_rng.standard_normal(m)
                if j > 0:
                    u -= op.left_dot(U[:j].T, u) @ U[:j]
                alpha_norm = op.left_norm(u)
                u = u / alpha_norm if alpha_norm > 0 else u
                alpha = 0.0
            else:
                u /= alpha
            U[j] = u
            alphas[j] = alpha

            w = op.rmatvec(u) - alpha * V[j]
            rmatvecs += 1
            w -= (V[: j + 1] @ w) @ V[: j + 1]
            beta = np.linalg.norm(w)
            if beta < 1e-14:
                w = rng.standard_normal(n)
                w -= (V[: j + 1] @ w) @ V[: j + 1]
                beta_norm = np.linalg.norm(w)
                w = w / beta_norm if beta_norm > 0 else w
                beta = 0.0
            else:
                w /= beta
            V[j + 1] = w
            betas[j] = beta
            beta_prev = beta
            u_prev = u
            j += 1

        # Build the (subspace x subspace) projected matrix B = Uᵀ A V.  The
        # fresh part (columns `start`..) is upper bidiagonal with the recurrence
        # coefficients; after a thick restart the first `start` columns hold
        # the locked Ritz values and couple to the first new column through
        # the saved residual coefficients (Baglama-Reichel style restart).
        width = subspace + 1 if spans_rows else subspace
        B = np.zeros((subspace, width))
        if start > 0:
            B[:start, :start] = np.diag(locked_sigma)
            B[:start, start] = restart_coupling
        for i in range(start, subspace):
            B[i, i] = alphas[i]
            if i + 1 < width:
                B[i, i + 1] = betas[i]

        P, s, Qt = np.linalg.svd(B, full_matrices=False)
        k = rank
        sigma = s[:k]
        # Residual bound for each Ritz triplet: beta_last * |P[last, i]|.
        beta_last = betas[subspace - 1]
        residuals = np.abs(beta_last * P[subspace - 1, :k])
        threshold = tol * max(s[0], 1e-300)
        left = P[:, :k].T @ U
        right = Qt[:k] @ V[:width]
        # Stop on convergence, on the restart budget, or when the subspace
        # already spans the whole problem (every row, or rank == subspace),
        # in which case a thick restart has nothing left to add.
        exact = spans_rows or rank >= subspace
        if (
            exact
            or np.all(residuals <= threshold)
            or restart == max_restarts - 1
        ):
            converged = exact or bool(np.all(residuals <= threshold))
            break

        # Thick restart: keep the top `rank` Ritz vectors plus the residual
        # direction V[:, subspace] and continue expanding.
        keep = rank
        locked_sigma = s[:keep].copy()
        restart_coupling = beta_last * P[subspace - 1, :keep].copy()
        U[:keep] = left[:keep]
        V[:keep] = right[:keep]
        V[keep] = V[subspace]
        start = keep
        beta_prev = 0.0
        u_prev = np.zeros(m)

    left, right = left[:rank], right[:rank]
    flip = _flips(right)
    left[flip] *= -1.0
    right[flip] *= -1.0
    return TRSVDResult(
        left=np.ascontiguousarray(left.T),
        singular_values=np.ascontiguousarray(sigma[:rank]),
        right=np.ascontiguousarray(right.T) if compute_right else None,
        iterations=total_restarts,
        matvecs=matvecs,
        rmatvecs=rmatvecs,
        converged=converged,
    )


def gram_svd(
    matrix: np.ndarray,
    rank: int,
    *,
    compute_right: bool = True,
) -> TRSVDResult:
    """Truncated SVD through the *small* Gram matrix ``G = Yᵀ Y`` (``W × W``).

    HOOI's operand ``Y_(n)`` is tall and skinny: ``I_n`` rows (up to
    millions) but only ``W = ∏_{t≠n} R_t`` columns.  When ``W`` is small
    relative to ``I_n`` the cheapest factor update is one GEMM to form the
    ``W × W`` Gram matrix, a dense ``eigh`` of it, and the recovery
    ``U = Y V Σ⁻¹`` — no Lanczos iteration, no MxV/MTxV passes over the tall
    operand.  (This is *not* the ``Y Yᵀ`` Gram of side ``I_n`` the paper
    argues against — that one is quadratic in the long dimension.)

    Conditioning caveat: the Gram matrix squares the spectrum, so singular
    values below roughly ``√ε · σ_max`` are lost to rounding and their
    vectors are unreliable.  Numerically tiny directions are replaced by a
    completion of the resolved ones to an orthonormal basis, keeping ``U``
    orthonormal; prefer ``"lanczos"`` when trailing singular values matter.
    """
    dense = as_supported_float(np.asarray(matrix))
    if dense.ndim != 2:
        raise ValueError("gram_svd expects a 2-D array")
    m, n = dense.shape
    rank = int(rank)
    if rank <= 0:
        raise ValueError("rank must be positive")
    rank = min(rank, m, n)
    # The big GEMM runs in the operand's dtype policy; the small W x W
    # eigenproblem is always solved in float64 for stability.
    gram = np.asarray(dense.T @ dense, dtype=np.float64)
    eigvals, eigvecs = np.linalg.eigh(gram)
    lead = np.argsort(eigvals)[::-1][:rank]
    sigma = np.sqrt(np.clip(eigvals[lead], 0.0, None))
    right = np.ascontiguousarray(eigvecs[:, lead])
    right[:, _flips(right.T)] *= -1.0
    left = np.asarray(
        dense @ right.astype(dense.dtype, copy=False), dtype=np.float64
    )
    # The Gram matrix's eigenvalues carry an absolute error of order
    # eps * sigma_max^2, so singular values below ~sqrt(eps) * sigma_max are
    # pure noise — the squared-spectrum resolution limit of this method.
    tol = np.sqrt(max(m, n) * np.finfo(np.float64).eps) * (
        sigma[0] if rank else 0.0
    )
    safe = sigma > tol
    left[:, safe] /= sigma[safe]
    if not np.all(safe):
        # Directions squashed by the squared spectrum: zero them out and let
        # the orthonormalization complete the basis.
        left[:, ~safe] = 0.0
        left = orthonormalize(left)
    return TRSVDResult(
        left=np.ascontiguousarray(left),
        singular_values=np.ascontiguousarray(sigma),
        right=right if compute_right else None,
        iterations=1,
        matvecs=0,
        rmatvecs=0,
        converged=True,
    )


def truncated_svd(
    matrix: Union[np.ndarray, LinearOperator],
    rank: int,
    *,
    method: str = "lanczos",
    **kwargs,
) -> TRSVDResult:
    """Dispatch to a truncated-SVD solver.

    ``method`` is ``"lanczos"`` (default, :func:`lanczos_svd`) or ``"gram"``
    (:func:`gram_svd`: ``eigh`` of the small ``W × W`` Gram matrix ``YᵀY``
    plus the recovery ``U = Y V Σ⁻¹`` — the fast path for tall-and-skinny
    operands, with a squared-spectrum conditioning caveat).
    """
    # Fault point "trsvd": the factor update of every mode of every sweep
    # (a single module-global None check when injection is disabled).
    # Imported here: repro.resilience imports repro.core.hooi, which
    # imports this module.
    from repro.resilience.faults import maybe_fail

    maybe_fail("trsvd")
    if method == "lanczos":
        return lanczos_svd(matrix, rank, **kwargs)
    if method == "gram":
        if isinstance(matrix, DenseOperator):
            matrix = matrix.matrix
        elif isinstance(matrix, LinearOperator):
            raise TypeError("method='gram' needs an explicit matrix")
        return gram_svd(matrix, rank, **kwargs)
    raise ValueError(f"unknown TRSVD method {method!r}")
