"""Validated array helpers used across the package.

These helpers enforce the conventions the rest of the code base relies on:
C-contiguous floating-point arrays, explicit shape checks with readable
error messages, and scalar-or-array broadcasting to a mesh shape.  They
exist so that every public entry point validates its inputs once and the
hot kernels can assume well-formed data.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "as_float_array",
    "broadcast_to_shape",
    "check_positive",
    "check_shape",
    "ensure_3d",
]


def as_float_array(
    value,
    *,
    dtype: np.dtype | type = np.float64,
    name: str = "array",
    copy: bool = False,
) -> np.ndarray:
    """Convert *value* to a C-contiguous floating point ndarray.

    Parameters
    ----------
    value:
        Anything ``np.asarray`` accepts.
    dtype:
        Target floating dtype (``np.float32`` or ``np.float64``).
    name:
        Name used in error messages.
    copy:
        Force a copy even when the input already matches.

    Returns
    -------
    numpy.ndarray
        C-contiguous array of the requested dtype.

    Raises
    ------
    TypeError
        If *dtype* is not a floating dtype.
    ValueError
        If the input contains NaN or infinities.
    """
    dt = np.dtype(dtype)
    if dt.kind != "f":
        raise TypeError(f"{name}: dtype must be floating, got {dt}")
    arr = np.array(value, dtype=dt, copy=copy, order="C") if copy else np.ascontiguousarray(value, dtype=dt)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: contains non-finite values")
    return arr


def check_shape(arr: np.ndarray, shape: Sequence[int], *, name: str = "array") -> np.ndarray:
    """Assert that *arr* has exactly *shape*; return it unchanged."""
    if tuple(arr.shape) != tuple(shape):
        raise ValueError(f"{name}: expected shape {tuple(shape)}, got {tuple(arr.shape)}")
    return arr


def check_positive(value, *, name: str = "value", allow_zero: bool = False):
    """Assert scalar or array positivity; return the value unchanged."""
    arr = np.asarray(value)
    if allow_zero:
        if np.any(arr < 0):
            raise ValueError(f"{name}: must be non-negative")
    else:
        if np.any(arr <= 0):
            raise ValueError(f"{name}: must be strictly positive")
    return value


def ensure_3d(arr: np.ndarray, *, name: str = "array") -> np.ndarray:
    """Assert that *arr* is three-dimensional; return it unchanged."""
    if arr.ndim != 3:
        raise ValueError(f"{name}: expected a 3D array, got ndim={arr.ndim}")
    return arr


def broadcast_to_shape(
    value,
    shape: Sequence[int],
    *,
    dtype: np.dtype | type = np.float64,
    name: str = "field",
) -> np.ndarray:
    """Broadcast a scalar or array *value* to a dense array of *shape*.

    Scalars become constant fields; arrays must already match *shape*.
    A fresh, writable, C-contiguous array is always returned, copied
    once whatever the input's strides or dtype.
    """
    arr = np.array(value, dtype=dtype, order="C")
    if arr.ndim == 0:
        return np.full(tuple(shape), arr, dtype=dtype)
    return check_shape(arr, shape, name=name)
