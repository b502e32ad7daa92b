"""Tolerance classes for cross-backend conformance.

The equivalence tests (tests/integration/test_equivalence.py) encode
which backend pairs agree to the bit and which only to rounding; this
module turns that knowledge into two standardized tolerance classes:

* **bit-exact** — same bytes, no exceptions.  Applies when the
  recording and replaying backends share a residual *fold class*
  (identical summation order of one face-flux statement; declared per
  backend in :mod:`repro.backends`): two of lockstep/gpu/cluster/par
  (phased fold), event vs fused, or event vs phased on forced-order meshes.
* **ulp-bounded** — each cell within ``max_ulps`` units in the last
  place of the recording, OR within ``rtol * scale`` absolutely (the
  absolute escape keeps near-zero cells, where a fixed ulp budget is
  meaninglessly tight, from flagging rounding noise).  Applies across
  the two fold classes: event or fused vs any phased backend.

``ulp_distance`` maps IEEE-754 bit patterns onto an order-preserving
integer line (negative floats get reflected below zero), so the
distance between two finite floats counts the representable values
between them.  Signed zeros are 0 apart; two NaNs (any payloads) are
0 apart; NaN vs non-NaN is infinite.
"""

from __future__ import annotations

import numpy as np

from repro.backends import get_backend

__all__ = [
    "ulp_distance",
    "ToleranceClass",
    "BIT_EXACT",
    "ULP_BOUNDED",
    "default_tolerance",
]

_ORDERED_DTYPES = {
    np.dtype(np.float64): np.int64,
    np.dtype(np.float32): np.int32,
}


def _to_ordered_ints(a: np.ndarray) -> np.ndarray:
    """Map float bit patterns onto an order-preserving integer line."""
    int_type = _ORDERED_DTYPES[a.dtype]
    bits = a.view(int_type)
    info = np.iinfo(int_type)
    # Negative floats have sign bit set, so their raw two's-complement
    # view is negative and *decreasing* in magnitude order; reflecting
    # them through int_min restores monotonicity across the whole line
    # and keeps -0.0 adjacent to +0.0 (distance 0 after the map).
    return np.where(bits < 0, info.min - bits, bits)


def ulp_distance(expected: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Elementwise ulp distance between two same-dtype float arrays.

    Returns float64 (so NaN-vs-number can be ``inf``).  ``+0.0`` and
    ``-0.0`` are 0 apart; two NaNs are 0 apart regardless of payload.
    """
    expected = np.asarray(expected)
    actual = np.asarray(actual)
    if expected.dtype != actual.dtype:
        raise ValueError(
            f"dtype mismatch: {expected.dtype} vs {actual.dtype}"
        )
    if expected.dtype not in _ORDERED_DTYPES:
        raise TypeError(f"unsupported dtype {expected.dtype}")
    ea = _to_ordered_ints(expected)
    aa = _to_ordered_ints(actual)
    # Small distances must stay exact, so subtract in integer space
    # where it cannot overflow (same-sign ordered values differ by
    # < 2**63); only cross-sign distances — huge by construction — drop
    # to float64, where the rounding is irrelevant.
    same_sign = (ea >= 0) == (aa >= 0)
    with np.errstate(over="ignore"):
        diff_same = np.abs(np.where(same_sign, ea - aa, 0))
    diff_cross = np.abs(ea.astype(np.float64)) + np.abs(aa.astype(np.float64))
    dist = np.where(same_sign, diff_same.astype(np.float64), diff_cross)
    e_nan = np.isnan(expected)
    a_nan = np.isnan(actual)
    dist = np.where(e_nan & a_nan, 0.0, dist)
    dist = np.where(e_nan ^ a_nan, np.inf, dist)
    return dist


class ToleranceClass:
    """A named pass/fail rule comparing a replayed field to a recording."""

    def __init__(
        self,
        name: str,
        *,
        bit_exact: bool = False,
        max_ulps: float = 0.0,
        rtol: float = 0.0,
    ) -> None:
        self.name = name
        self.bit_exact = bit_exact
        self.max_ulps = float(max_ulps)
        self.rtol = float(rtol)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.bit_exact:
            return f"ToleranceClass({self.name!r}, bit_exact)"
        return (
            f"ToleranceClass({self.name!r}, max_ulps={self.max_ulps}, "
            f"rtol={self.rtol})"
        )

    def failures(
        self, expected: np.ndarray, actual: np.ndarray
    ) -> np.ndarray:
        """Boolean mask of cells violating this tolerance."""
        expected = np.asarray(expected)
        actual = np.asarray(actual)
        if self.bit_exact:
            if expected.dtype != actual.dtype or expected.shape != actual.shape:
                raise ValueError("bit-exact comparison needs matching layout")
            # byte-level comparison: ±0.0 and NaN payloads all count
            width = expected.dtype.itemsize
            e = np.ascontiguousarray(expected).view(np.uint8)
            a = np.ascontiguousarray(actual).view(np.uint8)
            e = e.reshape(expected.shape + (width,))
            a = a.reshape(actual.shape + (width,))
            return (e != a).any(axis=-1)
        ulps = ulp_distance(expected, actual)
        scale = float(np.max(np.abs(expected), initial=0.0))
        absdiff = np.abs(expected - actual)
        # NaN-vs-number must fail even though absdiff is NaN there
        within_abs = np.where(
            np.isnan(absdiff), False, absdiff <= self.rtol * scale
        )
        return ~((ulps <= self.max_ulps) | within_abs)

    def describe(self) -> str:
        if self.bit_exact:
            return f"{self.name} (identical bits required)"
        return (
            f"{self.name} (<= {self.max_ulps:g} ulps or "
            f"|diff| <= {self.rtol:g}*scale)"
        )


#: Same fold class: the replay must reproduce the recording's bytes.
BIT_EXACT = ToleranceClass("bit-exact", bit_exact=True)

#: Event vs phased fold class: rounding-order differences only.  16 ulps is
#: generous for a single fold over O(10) face contributions; the
#: 1e-12 relative escape covers near-zero cells (observed cross-class
#: spread in tests/integration/test_equivalence.py is ~1e-12 * scale).
ULP_BOUNDED = ToleranceClass("ulp-bounded", max_ulps=16, rtol=1e-12)


def default_tolerance(
    recorded_backend: str, replay_backend: str
) -> ToleranceClass:
    """The standard tolerance class for a backend pair."""
    rec = get_backend(recorded_backend).fold_class
    rep = get_backend(replay_backend).fold_class
    return BIT_EXACT if rec == rep else ULP_BOUNDED
