"""Tolerance classes and the ulp-distance metric.

The edge cases here are the ones that make naive float comparison lie:
negative zero, subnormals straddling zero, NaN payload bits, and
distances too large for float64 to resolve if computed in the wrong
domain.
"""

import numpy as np
import pytest

from repro.conform.tolerance import (
    BIT_EXACT,
    ULP_BOUNDED,
    ToleranceClass,
    default_tolerance,
    ulp_distance,
)


def _d(*vals):
    return np.asarray(vals, dtype=np.float64)


class TestUlpDistance:
    def test_identical_is_zero(self):
        x = _d(0.0, 1.0, -2.5, 1e300, 5e-324)
        assert ulp_distance(x, x.copy()).tolist() == [0.0] * 5

    def test_one_ulp_apart(self):
        x = _d(1.0, 1e18, 1e-300)
        y = np.nextafter(x, np.inf)
        assert ulp_distance(x, y).tolist() == [1.0, 1.0, 1.0]
        assert ulp_distance(y, x).tolist() == [1.0, 1.0, 1.0]

    def test_large_magnitude_one_ulp_not_lost(self):
        # computed as float64(int) - float64(int) this rounds to 0:
        # the ordered-int values are ~4.6e18, beyond float64's 2^53
        # integer range.  The metric must subtract in int64.
        x = _d(1e18)
        y = np.nextafter(x, np.inf)
        assert ulp_distance(x, y)[0] == 1.0

    def test_signed_zeros_equal(self):
        assert ulp_distance(_d(0.0), _d(-0.0))[0] == 0.0
        assert ulp_distance(_d(-0.0), _d(0.0))[0] == 0.0

    def test_subnormal_steps(self):
        tiny = 5e-324  # smallest positive subnormal
        assert ulp_distance(_d(0.0), _d(tiny))[0] == 1.0
        assert ulp_distance(_d(-tiny), _d(tiny))[0] == 2.0
        assert ulp_distance(_d(-tiny), _d(0.0))[0] == 1.0

    def test_cross_sign_distance_is_huge(self):
        # -1.0 vs 1.0 spans nearly the whole ordered-int line; the
        # cross-sign path must not overflow int64
        d = ulp_distance(_d(-1.0), _d(1.0))[0]
        assert d > 9e18 and np.isfinite(d)

    def test_nan_vs_nan_any_payload_is_zero(self):
        quiet = np.float64(np.nan)
        # a NaN with different payload bits
        other = np.array([0x7FF8000000000BAD], dtype=np.int64).view(
            np.float64
        )[0]
        assert ulp_distance(_d(quiet), _d(other))[0] == 0.0
        assert ulp_distance(_d(-quiet), _d(quiet))[0] == 0.0

    def test_nan_vs_number_is_inf(self):
        assert ulp_distance(_d(np.nan), _d(1.0))[0] == np.inf
        assert ulp_distance(_d(1.0), _d(np.nan))[0] == np.inf

    def test_float32_supported(self):
        x = np.asarray([1.0], dtype=np.float32)
        y = np.nextafter(x, np.float32(np.inf))
        assert ulp_distance(x, y)[0] == 1.0

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ulp_distance(_d(1.0), np.asarray([1.0], dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_distance_is_symmetric_and_monotone(self, dtype):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(64).astype(dtype)
        one = np.nextafter(x, dtype(np.inf))
        two = np.nextafter(one, dtype(np.inf))
        d1 = ulp_distance(x, one)
        d2 = ulp_distance(x, two)
        assert np.array_equal(d1, ulp_distance(one, x))
        assert np.all(d2 >= d1)
        assert np.all(d1 == 1.0)


class TestToleranceClasses:
    def test_bit_exact_accepts_identical_bits(self):
        x = _d(1.0, -0.0, np.nan)
        assert not BIT_EXACT.failures(x, x.copy()).any()

    def test_bit_exact_distinguishes_signed_zero(self):
        # bit-exact means bits, not value: -0.0 != +0.0
        assert BIT_EXACT.failures(_d(0.0), _d(-0.0)).any()

    def test_bit_exact_rejects_shape_dtype_mismatch(self):
        with pytest.raises(ValueError):
            BIT_EXACT.failures(_d(1.0), np.asarray([1.0], dtype=np.float32))
        with pytest.raises(ValueError):
            BIT_EXACT.failures(_d(1.0, 2.0), _d(1.0))

    def test_ulp_bounded_accepts_small_drift(self):
        x = _d(1.0, 1e6, -3.5)
        y = np.nextafter(x, np.inf)  # 1 ulp each
        assert not ULP_BOUNDED.failures(x, y).any()

    def test_ulp_bounded_rejects_large_drift(self):
        bad = ULP_BOUNDED.failures(_d(1.0), _d(1.0 + 1e-9))
        assert bad.any()

    def test_ulp_bounded_absolute_escape_near_zero(self):
        # tiny absolute noise in a near-zero cell is many ulps but
        # physically nothing relative to the field scale
        expected = _d(1e-20, 1.0)
        actual = _d(3e-20, 1.0)
        assert not ULP_BOUNDED.failures(expected, actual).any()

    def test_ulp_bounded_nan_vs_number_fails(self):
        # the rtol escape uses |expected - actual|, which is NaN here;
        # NaN must read as a failure, not slip through the comparison
        assert ULP_BOUNDED.failures(_d(np.nan), _d(1.0)).any()
        assert ULP_BOUNDED.failures(_d(1.0), _d(np.nan)).any()

    def test_ulp_bounded_nan_vs_nan_passes(self):
        assert not ULP_BOUNDED.failures(_d(np.nan), _d(np.nan)).any()

    def test_describe(self):
        assert "bit" in BIT_EXACT.describe()
        assert "ulp" in ULP_BOUNDED.describe()

    def test_custom_class(self):
        tol = ToleranceClass("loose", max_ulps=2.0)
        x = _d(1.0)
        two = np.nextafter(np.nextafter(x, np.inf), np.inf)
        three = np.nextafter(two, np.inf)
        assert not tol.failures(x, two).any()
        assert tol.failures(x, three).any()


class TestDefaultTolerance:
    def test_same_fold_class_is_bit_exact(self):
        assert default_tolerance("cluster", "par") is BIT_EXACT
        assert default_tolerance("par", "cluster") is BIT_EXACT
        assert default_tolerance("event", "event") is BIT_EXACT
        assert default_tolerance("gpu", "cluster") is BIT_EXACT
        assert default_tolerance("gpu", "lockstep") is BIT_EXACT

    def test_cross_fold_class_is_ulp_bounded(self):
        assert default_tolerance("cluster", "event") is ULP_BOUNDED
        assert default_tolerance("event", "lockstep") is ULP_BOUNDED
        assert default_tolerance("fused", "gpu") is ULP_BOUNDED
