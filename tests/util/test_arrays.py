"""Unit tests for repro.util.arrays."""

import numpy as np
import pytest

from repro.util.arrays import (
    as_float_array,
    broadcast_to_shape,
    check_positive,
    check_shape,
    ensure_3d,
)


class TestAsFloatArray:
    def test_converts_list(self):
        arr = as_float_array([1, 2, 3])
        assert arr.dtype == np.float64
        assert arr.flags["C_CONTIGUOUS"]

    def test_float32(self):
        arr = as_float_array([1.5], dtype=np.float32)
        assert arr.dtype == np.float32

    def test_rejects_integer_dtype(self):
        with pytest.raises(TypeError, match="floating"):
            as_float_array([1], dtype=np.int32)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_float_array([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_float_array([np.inf])

    def test_copy_flag_forces_copy(self):
        src = np.ones(3)
        out = as_float_array(src, copy=True)
        assert out is not src
        out[0] = 5.0
        assert src[0] == 1.0

    def test_no_copy_passthrough(self):
        src = np.ones(3)
        out = as_float_array(src)
        assert out is src

    def test_name_in_message(self):
        with pytest.raises(ValueError, match="myfield"):
            as_float_array([np.nan], name="myfield")

    def test_empty_array_ok(self):
        assert as_float_array([]).size == 0


class TestCheckShape:
    def test_pass(self):
        arr = np.zeros((2, 3))
        assert check_shape(arr, (2, 3)) is arr

    def test_fail(self):
        with pytest.raises(ValueError, match="expected shape"):
            check_shape(np.zeros((2, 3)), (3, 2))


class TestCheckPositive:
    def test_scalar_ok(self):
        assert check_positive(1.0) == 1.0

    def test_scalar_zero_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            check_positive(0.0)

    def test_zero_allowed(self):
        assert check_positive(0.0, allow_zero=True) == 0.0

    def test_negative_with_allow_zero(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_positive(-1.0, allow_zero=True)

    def test_array(self):
        with pytest.raises(ValueError):
            check_positive(np.array([1.0, -2.0]))


class TestEnsure3d:
    def test_pass(self):
        arr = np.zeros((1, 2, 3))
        assert ensure_3d(arr) is arr

    def test_fail(self):
        with pytest.raises(ValueError, match="3D"):
            ensure_3d(np.zeros((2, 3)))


class TestBroadcastToShape:
    def test_scalar(self):
        out = broadcast_to_shape(2.5, (2, 3, 4))
        assert out.shape == (2, 3, 4)
        assert np.all(out == 2.5)

    def test_array_matching(self):
        src = np.arange(6.0).reshape(2, 3)
        out = broadcast_to_shape(src, (2, 3))
        np.testing.assert_array_equal(out, src)
        out[0, 0] = 99.0
        assert src[0, 0] == 0.0  # always a fresh copy

    def test_array_mismatch(self):
        with pytest.raises(ValueError, match="expected shape"):
            broadcast_to_shape(np.zeros((2, 2)), (2, 3))

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_one_fresh_contiguous_copy(self, strided):
        """Strided or not, the input is copied once, into a C-contiguous,
        writable array that shares no memory with it."""
        import tracemalloc

        base = np.arange(2 * 64 * 64, dtype=np.float64).reshape(2, 64, 64)
        src = base[:, ::2, 1::2] if strided else base[:, :32, :32].copy()
        base.flags.writeable = False
        src.flags.writeable = False
        tracemalloc.start()
        try:
            out = broadcast_to_shape(src, (2, 32, 32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, src)
        np.testing.assert_array_equal(out, src)
        # one array's bytes (plus a little bookkeeping), not two
        assert out.nbytes <= peak < 2 * out.nbytes
