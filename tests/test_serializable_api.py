"""The serializable API contract: options codec, fingerprints, the facade.

Three layers of the decomposition-as-a-service surface, tested bottom-up:

* :meth:`HOOIOptions.to_dict` / :meth:`HOOIOptions.from_dict` — the wire
  codec (roundtrip identity, unknown-key rejection with the field list);
* :meth:`HOOIOptions.options_fingerprint` and
  :meth:`SparseTensor.fingerprint` — the content-addressed identities the
  result cache is keyed by (order- and default-insensitive for options;
  storage-order-insensitive and value-sensitive for tensors, the latter
  property-based via hypothesis);
* :func:`repro.decompose` — the unified facade (routing, parity with the
  drivers it fronts, actionable rejection of bad combinations).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import HOOIOptions, SparseTensor, decompose, hooi
from repro.api import DECOMPOSE_EXECUTIONS


# --------------------------------------------------------------------------- #
# HOOIOptions codec
# --------------------------------------------------------------------------- #
class TestOptionsCodec:
    def test_roundtrip_identity(self):
        opts = HOOIOptions(
            max_iterations=7,
            trsvd_method="gram",
            seed=42,
            tolerance=1e-7,
            dtype="float32",
            execution="thread",
            num_workers=3,
        )
        assert HOOIOptions.from_dict(opts.to_dict()) == opts

    def test_to_dict_covers_every_field(self):
        payload = HOOIOptions().to_dict()
        assert set(payload) == {
            f.name for f in dataclasses.fields(HOOIOptions)
        }

    def test_from_dict_defaults_missing_fields(self):
        opts = HOOIOptions.from_dict({"max_iterations": 9})
        assert opts.max_iterations == 9
        assert opts.trsvd_method == HOOIOptions().trsvd_method

    def test_from_dict_rejects_unknown_keys_with_field_list(self):
        with pytest.raises(ValueError) as excinfo:
            HOOIOptions.from_dict({"max_iter": 3})
        message = str(excinfo.value)
        assert "max_iter" in message
        # The error must teach: every valid key is listed.
        assert "max_iterations" in message and "trsvd_method" in message

    @pytest.mark.parametrize("key, value", [("block_nnz", 1000), ("track_fit", False)])
    def test_from_dict_rejects_deleted_keys(self, key, value):
        """Every TTMc sizes its blocks itself and every sweep records a fit:
        the two options that set otherwise are unknown keys now."""
        with pytest.raises(ValueError, match=f"unknown HOOIOptions key.*{key}"):
            HOOIOptions.from_dict({key: value})

    def test_to_dict_rejects_array_init(self):
        opts = HOOIOptions(init=[np.eye(3)])
        with pytest.raises(ValueError, match="init"):
            opts.to_dict()


def _reject_via_decompose(tensor, options, tmp_path):
    decompose(tensor, 2, options=options)


def _reject_via_streaming_hooi(tensor, options, tmp_path):
    from repro.streaming import streaming_hooi

    streaming_hooi(tensor, 2, options)


def _reject_via_streaming_session(tensor, options, tmp_path):
    from repro.streaming import StreamingSession, StreamingTensor

    StreamingSession(StreamingTensor(tensor), 2, options=options)


def _reject_via_out_of_core_hooi(tensor, options, tmp_path):
    from repro.streaming import build_out_of_core, out_of_core_hooi

    out_of_core_hooi(build_out_of_core(tensor, tmp_path / "ooc"), 2, options)


def _reject_via_job_request(tensor, options, tmp_path):
    from repro.serving.jobs import JobRequest

    JobRequest.build(tensor, 2, options)


class TestOptionsMerge:
    """:meth:`HOOIOptions.merge_dict`, the one options-plus-overrides merge."""

    def test_options_object_then_overrides(self):
        merged = HOOIOptions.merge_dict(
            HOOIOptions(max_iterations=7, seed=3), {"seed": 5}
        )
        assert set(merged) == {f.name for f in dataclasses.fields(HOOIOptions)}
        assert HOOIOptions.from_dict(merged) == HOOIOptions(
            max_iterations=7, seed=5
        )

    def test_dict_is_copied_and_stays_partial(self):
        given = {"max_iterations": 4, "trsvd_method": "gram"}
        merged = HOOIOptions.merge_dict(given, {"max_iterations": 2})
        assert merged == {"max_iterations": 2, "trsvd_method": "gram"}
        assert given == {"max_iterations": 4, "trsvd_method": "gram"}

    def test_none_is_the_overrides_alone(self):
        assert HOOIOptions.merge_dict(None, {"seed": 1}) == {"seed": 1}
        assert HOOIOptions.merge_dict(None, {}) == {}

    @pytest.mark.parametrize(
        "entry_point",
        [
            _reject_via_decompose,
            _reject_via_streaming_hooi,
            _reject_via_streaming_session,
            _reject_via_out_of_core_hooi,
            _reject_via_job_request,
        ],
        ids=lambda fn: fn.__name__[len("_reject_via_"):],
    )
    def test_every_entry_point_rejects_other_types(
        self, entry_point, small_tensor_3d, tmp_path
    ):
        with pytest.raises(
            TypeError, match="^options must be an HOOIOptions or a dict, got list$"
        ):
            entry_point(small_tensor_3d, [("max_iterations", 2)], tmp_path)


class TestOptionsFingerprint:
    def test_insensitive_to_defaulted_vs_explicit(self):
        implicit = HOOIOptions(max_iterations=5)
        explicit = HOOIOptions.from_dict(
            {"max_iterations": 5, "trsvd_method": "lanczos"}
        )
        assert (
            implicit.options_fingerprint() == explicit.options_fingerprint()
        )

    def test_insensitive_to_construction_order(self):
        a = HOOIOptions.from_dict({"seed": 1, "dtype": "float32"})
        b = HOOIOptions.from_dict({"dtype": "float32", "seed": 1})
        assert a.options_fingerprint() == b.options_fingerprint()

    def test_sensitive_to_every_changed_field(self):
        base = HOOIOptions().options_fingerprint()
        for change in (
            {"max_iterations": 6},
            {"trsvd_method": "gram"},
            {"seed": 7},
            {"dtype": "float32"},
            {"execution": "thread"},
            {"tensor_format": "csf"},
        ):
            assert HOOIOptions.from_dict(change).options_fingerprint() != base


# --------------------------------------------------------------------------- #
# SparseTensor fingerprint
# --------------------------------------------------------------------------- #
def _tensor_from(indices, values, shape) -> SparseTensor:
    return SparseTensor(
        np.asarray(indices, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
        shape,
        sum_duplicates=True,
    )


@st.composite
def coo_tensors(draw):
    """A small random COO tensor plus its (indices, values, shape) raw form."""
    order = draw(st.integers(min_value=2, max_value=3))
    shape = tuple(
        draw(st.integers(min_value=2, max_value=6)) for _ in range(order)
    )
    nnz = draw(st.integers(min_value=1, max_value=12))
    cells = draw(
        st.lists(
            st.tuples(*[st.integers(0, s - 1) for s in shape]),
            min_size=nnz,
            max_size=nnz,
            unique=True,
        )
    )
    values = draw(
        st.lists(
            st.floats(
                min_value=-8.0,
                max_value=8.0,
                allow_nan=False,
                allow_infinity=False,
            ).filter(lambda v: v != 0.0),
            min_size=len(cells),
            max_size=len(cells),
        )
    )
    return np.asarray(cells, dtype=np.int64), np.asarray(values), shape


FP_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestTensorFingerprint:
    @FP_SETTINGS
    @given(coo_tensors(), st.randoms(use_true_random=False))
    def test_equal_tensors_hash_equal_under_permutation(self, raw, rnd):
        indices, values, shape = raw
        order = list(range(indices.shape[0]))
        rnd.shuffle(order)
        a = _tensor_from(indices, values, shape)
        b = _tensor_from(indices[order], values[order], shape)
        assert a.fingerprint() == b.fingerprint()

    @FP_SETTINGS
    @given(coo_tensors(), st.data())
    def test_single_nonzero_perturbation_changes_hash(self, raw, data):
        indices, values, shape = raw
        victim = data.draw(
            st.integers(0, values.shape[0] - 1), label="perturbed nonzero"
        )
        perturbed = values.copy()
        perturbed[victim] += 1.0
        if perturbed[victim] == 0.0:  # keep the nonzero a nonzero
            perturbed[victim] += 1.0
        a = _tensor_from(indices, values, shape)
        b = _tensor_from(indices, perturbed, shape)
        assert a.fingerprint() != b.fingerprint()

    def test_shape_is_part_of_the_identity(self):
        indices = [[0, 0], [1, 1]]
        values = [1.0, 2.0]
        a = _tensor_from(indices, values, (2, 2))
        b = _tensor_from(indices, values, (3, 2))
        assert a.fingerprint() != b.fingerprint()

    def test_dtype_is_part_of_the_identity(self, small_tensor_3d):
        assert (
            small_tensor_3d.fingerprint()
            != small_tensor_3d.astype(np.float32).fingerprint()
        )

    def test_empty_tensor_fingerprints(self):
        empty = SparseTensor(
            np.empty((0, 2), dtype=np.int64), np.empty(0), (4, 4)
        )
        assert empty.fingerprint() == empty.fingerprint()
        assert empty.fingerprint() != _tensor_from(
            [[0, 0]], [1.0], (4, 4)
        ).fingerprint()


# --------------------------------------------------------------------------- #
# The decompose facade
# --------------------------------------------------------------------------- #
class TestDecomposeFacade:
    def test_matches_hooi_sequential(self, small_tensor_3d):
        via_facade = decompose(
            small_tensor_3d, 4, trsvd_method="gram", max_iterations=3
        )
        via_driver = hooi(
            small_tensor_3d,
            4,
            HOOIOptions(trsvd_method="gram", max_iterations=3),
        )
        np.testing.assert_allclose(
            via_facade.decomposition.core,
            via_driver.decomposition.core,
            atol=1e-12,
        )

    def test_thread_execution_routes_through_engine(self, small_tensor_3d):
        result = decompose(
            small_tensor_3d,
            3,
            execution="thread",
            num_workers=2,
            trsvd_method="gram",
            max_iterations=2,
        )
        assert result.iterations == 2

    def test_options_dict_plus_kwarg_overrides(self, small_tensor_3d):
        result = decompose(
            small_tensor_3d,
            3,
            options={"max_iterations": 4, "trsvd_method": "gram"},
            max_iterations=2,
        )
        assert result.iterations <= 2

    def test_options_object_accepted(self, small_tensor_3d):
        opts = HOOIOptions(trsvd_method="gram", max_iterations=2)
        result = decompose(small_tensor_3d, 3, options=opts)
        assert result.iterations <= 2
        # The caller's object is not mutated by the facade's normalization.
        assert opts.execution == "sequential"

    def test_unknown_execution_rejected(self, small_tensor_3d):
        with pytest.raises(ValueError, match="decompose"):
            decompose(small_tensor_3d, 3, execution="gpu")
        assert "distributed" in DECOMPOSE_EXECUTIONS

    def test_unknown_option_rejected_with_field_list(self, small_tensor_3d):
        with pytest.raises(ValueError, match="max_iterations"):
            decompose(small_tensor_3d, 3, max_iter=3)

    def test_distributed_requires_partition(self, small_tensor_3d):
        with pytest.raises(ValueError, match="partition"):
            decompose(small_tensor_3d, 3, execution="distributed")

    def test_partition_rejected_for_single_node(self, small_tensor_3d):
        with pytest.raises(ValueError, match="distributed"):
            decompose(small_tensor_3d, 3, partition=object())

    def test_distributed_routing(self, medium_tensor_3d):
        from repro.distributed import distributed_hooi
        from repro.partition import make_partition

        partition = make_partition(medium_tensor_3d, 2, "coarse-bl")
        via_facade = decompose(
            medium_tensor_3d,
            3,
            execution="distributed",
            partition=partition,
            max_iterations=2,
        )
        via_driver = distributed_hooi(
            medium_tensor_3d,
            3,
            partition,
            HOOIOptions(max_iterations=2),
        )
        np.testing.assert_allclose(
            via_facade.decomposition.core,
            via_driver.decomposition.core,
            atol=1e-12,
        )

    def test_cancel_check_aborts_mid_run(self, small_tensor_3d):
        class Abort(Exception):
            pass

        calls = []

        def cancel_check():
            calls.append(len(calls))
            if len(calls) == 4:  # second iteration, first mode
                raise Abort()

        with pytest.raises(Abort):
            decompose(
                small_tensor_3d,
                3,
                trsvd_method="gram",
                max_iterations=10,
                tolerance=0.0,
                cancel_check=cancel_check,
            )
        # One check per mode boundary: the abort fired on the 4th check.
        assert len(calls) == 4
