"""The top-level decomposition facade: one serializable entry point.

Both drivers — :func:`repro.core.hooi.hooi` (sequential / thread / process
execution through the engine; ``execution="thread"`` is the paper's
Algorithm 3) and :func:`repro.distributed.dist_hooi.distributed_hooi` (the
simulated-MPI Algorithm 4) — share :class:`~repro.core.hooi.HOOIOptions`
but expose their own positional signatures.  :func:`decompose` fronts both
with one keyword-only signature whose knobs *are* the options fields, so a
call is fully described by ``(tensor, rank, execution, options-dict)`` — the
same value-form contract the serving layer's job submissions use
(:meth:`HOOIOptions.from_dict` / :meth:`HOOIOptions.options_fingerprint`).

The driver functions remain the low-level API: reach for them when you need
their extras (``hooi``'s explicit ``crew=``, the distributed driver's
per-rank statistics).  The Table V roofline model that prices a threaded
sweep is :func:`repro.experiments.table5.predict_iteration_time`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.core.hooi import EXECUTIONS, HOOIOptions, hooi

__all__ = ["decompose", "DECOMPOSE_EXECUTIONS"]

#: ``execution=`` values :func:`decompose` routes (the single-node engine
#: values plus the simulated-MPI driver).
DECOMPOSE_EXECUTIONS = EXECUTIONS + ("distributed",)


def decompose(
    tensor,
    rank: Union[int, Sequence[int]],
    *,
    execution: str = "sequential",
    partition=None,
    machine=None,
    options: Optional[Union[HOOIOptions, dict]] = None,
    callback: Optional[Callable[[int, float], None]] = None,
    workspace=None,
    cancel_check: Optional[Callable[[], None]] = None,
    checkpoint=None,
    resume=None,
    resume_factors=None,
    **option_kwargs,
):
    """Tucker-decompose ``tensor`` at the given rank(s), one call for every driver.

    Parameters
    ----------
    tensor:
        The sparse input tensor (:class:`~repro.core.sparse_tensor.SparseTensor`),
        or a :class:`~repro.streaming.StreamingTensor` whose merged snapshot
        is decomposed.
    rank:
        Per-mode ranks ``R_1, ..., R_N`` (a scalar is broadcast).
    execution:
        ``"sequential"`` (default), ``"thread"``, ``"process"`` — the
        single-node engine's execution axis — or ``"distributed"`` (the
        simulated-MPI Algorithm 4 driver, which additionally needs
        ``partition``).  For ``"distributed"``, any ``execution`` key inside
        ``options`` / ``option_kwargs`` selects the *rank-local* execution
        model (``"sequential"`` or ``"thread"`` for hybrid ranks ×
        threads), mirroring :func:`~repro.distributed.dist_hooi.distributed_hooi`.
    partition:
        A :class:`~repro.distributed.plan.TensorPartition`; required by (and
        only meaningful for) ``execution="distributed"``.
    machine:
        Optional :class:`~repro.simmpi.machine.MachineModel` for the
        distributed driver's simulated clock.
    options:
        Base options as an :class:`HOOIOptions` or a plain dict (the wire
        format); ``option_kwargs`` override individual fields on top of it.
        Unknown keys are rejected with the field list
        (:meth:`HOOIOptions.from_dict`).
    callback / workspace / cancel_check:
        Passed through to the underlying driver (``workspace`` and
        ``cancel_check`` apply to the single-node engine only).
    checkpoint / resume:
        Sweep-boundary checkpointing and resume (single-node engine only):
        ``checkpoint`` overrides the :class:`repro.resilience.Checkpointer`
        built from ``checkpoint_dir`` / ``checkpoint_interval`` in the
        options; ``resume`` is a checkpoint state, a file path, or
        ``"auto"`` (see :func:`repro.core.hooi.hooi`).  The distributed
        driver has no checkpoint seam yet and rejects both.
    resume_factors:
        Warm-start factor matrices (single-node engine only), typically a
        previous run's ``result.decomposition.factors`` over a tensor that
        has since received streaming appends.  They are conformed to the
        current shape and ranks (:func:`repro.streaming.conform_factors` —
        grown modes get fresh rows, changed ranks keep the leading columns)
        and installed as the ``init``.  Distinct from ``resume``: a
        checkpoint resumes *this* run's sweep counter and RNG state, while
        ``resume_factors`` seed a *fresh* run from learned subspaces.
    **option_kwargs:
        Any :class:`HOOIOptions` field, e.g. ``trsvd_method="gram"``,
        ``tensor_format="csf"``, ``num_workers=4``, ``dtype="float32"``.

    Returns
    -------
    :class:`~repro.core.hooi.HOOIResult` for the single-node executions, a
    :class:`~repro.distributed.dist_hooi.DistributedHOOIResult` (an
    ``HOOIResult`` plus simulated times and per-rank statistics) for
    ``execution="distributed"``.
    """
    if execution not in DECOMPOSE_EXECUTIONS:
        raise ValueError(
            f"unknown execution {execution!r}: decompose() routes one of "
            f"{DECOMPOSE_EXECUTIONS} (single-node engine values plus "
            "'distributed' for the simulated-MPI driver)"
        )
    from repro.streaming.tensor import StreamingTensor

    if isinstance(tensor, StreamingTensor):
        tensor = tensor.tensor
    base = HOOIOptions.merge_dict(options, option_kwargs)

    if execution == "distributed":
        if resume_factors is not None:
            raise ValueError(
                "resume_factors= applies to the single-node engine only: "
                "the distributed driver initializes factors inside its "
                "simulated ranks — run the warm-started job on "
                "execution='sequential'/'thread'/'process', or drop "
                "resume_factors"
            )
        if checkpoint is not None or resume is not None:
            raise ValueError(
                "checkpoint=/resume= apply to the single-node engine only: "
                "the distributed driver has no sweep-checkpoint seam yet "
                "(rank-local state lives inside the simulated ranks) — run "
                "the resumable job on execution='sequential'/'thread'/"
                "'process', or drop the checkpoint arguments"
            )
        if partition is None:
            raise ValueError(
                "execution='distributed' needs a partition= (a "
                "TensorPartition describing rank ownership; see "
                "repro.partition.strategies for ready-made partitioners)"
            )
        from repro.distributed.dist_hooi import distributed_hooi

        opts = HOOIOptions.from_dict(base)
        kwargs = {"callback": callback}
        if machine is not None:
            kwargs["machine"] = machine
        return distributed_hooi(tensor, rank, partition, opts, **kwargs)

    if partition is not None or machine is not None:
        raise ValueError(
            "partition=/machine= only apply to execution='distributed'; "
            f"the {execution!r} execution runs on the single-node engine"
        )
    base["execution"] = execution
    opts = HOOIOptions.from_dict(base)
    if resume_factors is not None:
        import dataclasses

        from repro.streaming.warmstart import conform_factors

        opts = dataclasses.replace(
            opts,
            init=conform_factors(resume_factors, tensor.shape, rank),
        )
    return hooi(
        tensor,
        rank,
        opts,
        callback=callback,
        workspace=workspace,
        cancel_check=cancel_check,
        checkpoint=checkpoint,
        resume=resume,
    )
