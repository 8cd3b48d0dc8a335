"""HOOI against an independent dense oracle (``tests/dense_oracle.py``).

The oracle is plain NumPy — unfold, full SVD, leading columns — and shares
no code with the engine.  Both start from the same explicit ``init``
factors and run the same sweeps; every TTMc plan (COO rows, CSF slabs and
the dimension tree over either source) with either TRSVD method, run
sequentially, on two threads or on a two-worker crew, must reach the
oracle's subspaces and its explicit-residual fit.

The NELL analog at ranks (10, 8, 10) has ``R_1 = I_1 = 8`` and a
rank-deficient ``Y_(1)`` (8 × 100 of rank 7, with one empty row): the
solvers see only the 7 non-empty rows, and the engine must still return
an orthonormal 8 × 8 factor there.

Bounds, with the largest gap measured over these cases (4 sweeps, every
plan and execution):

* ``lanczos`` (tolerance 1e-8): fit 1e-10 (measured 1.8e-12 explicit,
  1.7e-11 over the reported history); subspace sine 5e-7 (measured 3.4e-8);
* ``gram`` (a dense ``eigh`` of ``YᵀY``): fit 1e-13 (measured 1.8e-15);
  subspace sine 1e-12 (measured 1.7e-13).

Subspaces are compared by the sine of the largest principal angle,
``‖B − A(AᵀB)‖₂``: arccos-based angles bottom out near 3e-8 in float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from dense_oracle import explicit_fit, oracle_hooi, subspace_sine
from repro import HOOIOptions, hooi
from repro.data import make_dataset, planted_lowrank_tensor
from repro.parallel.process_pool import PersistentWorkerCrew

SWEEPS = 4

#: (fit, subspace sine) bounds per TRSVD method; see the module docstring.
BOUNDS = {"lanczos": (1e-10, 5e-7), "gram": (1e-13, 1e-12)}

PLANS = {
    "coo": dict(tensor_format="coo"),
    "csf": dict(tensor_format="csf"),
    "dimtree": dict(ttmc_strategy="dimtree"),
    "dimtree-csf": dict(ttmc_strategy="dimtree", tensor_format="csf"),
}

#: The execution axis; ``crew2`` keeps every job on a two-worker crew.
EXECUTIONS = {
    "sequential": dict(),
    "thread2": dict(execution="thread", num_workers=2),
    "crew2": dict(execution="process"),
}


def _cases():
    return {
        "planted-3mode": (
            planted_lowrank_tensor((30, 25, 20), (4, 3, 3), 3000,
                                   noise=0.1, seed=5)[0],
            (4, 3, 3),
        ),
        "planted-4mode": (
            planted_lowrank_tensor((10, 9, 8, 7), (3, 3, 2, 2), 400,
                                   noise=0.5, seed=6)[0],
            (3, 3, 2, 2),
        ),
        "nell": (make_dataset("nell", scale=2e-4, seed=0), (10, 8, 10)),
    }


@pytest.fixture(scope="module")
def oracle_runs():
    """Per case: tensor, ranks, dense tensor, init and the oracle's run."""
    runs = {}
    for name, (tensor, ranks) in _cases().items():
        dense = np.zeros(tensor.shape)
        np.add.at(dense, tuple(tensor.indices.T), tensor.values)
        rng = np.random.default_rng(0)
        init = [
            np.linalg.qr(rng.standard_normal((size, rank)))[0]
            for size, rank in zip(tensor.shape, ranks)
        ]
        runs[name] = (tensor, ranks, dense, init,
                      oracle_hooi(dense, ranks, init, SWEEPS))
    return runs


@pytest.fixture(scope="module")
def crew():
    with PersistentWorkerCrew(2) as crew:
        yield crew


@pytest.mark.parametrize("execution", sorted(EXECUTIONS))
@pytest.mark.parametrize("method", sorted(BOUNDS))
@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("case", ["planted-3mode", "planted-4mode", "nell"])
def test_engine_matches_dense_oracle(oracle_runs, request, case, plan, method,
                                     execution):
    tensor, ranks, dense, init, (factors, _, fits) = oracle_runs[case]
    fit_bound, sine_bound = BOUNDS[method]
    crew = None
    if execution == "crew2":
        request.getfixturevalue("every_job_on_the_crew")
        crew = request.getfixturevalue("crew")
        generations = crew.generations
    result = hooi(tensor, ranks, HOOIOptions(
        init=init, max_iterations=SWEEPS, tolerance=0.0, trsvd_method=method,
        seed=0, **PLANS[plan], **EXECUTIONS[execution],
    ), crew=crew)
    if crew is not None:
        assert crew.generations == generations + 1
    ours = result.decomposition
    residual_fit = explicit_fit(dense, ours.core, ours.factors)
    assert abs(residual_fit - fits[-1]) <= fit_bound
    np.testing.assert_allclose(result.fit_history, fits, rtol=0, atol=fit_bound)
    for n, (theirs, mine) in enumerate(zip(factors, ours.factors)):
        assert subspace_sine(theirs, mine) <= sine_bound, f"mode {n}"
