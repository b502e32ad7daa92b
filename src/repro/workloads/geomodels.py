"""Synthetic geomodels: permeability/porosity field generators.

The paper runs on "highly detailed geomodels" that are proprietary; these
generators produce seeded synthetic fields exercising the same code paths
— heterogeneous transmissibilities, layered contrasts, channelized
high-permeability streaks — at any mesh size (DESIGN.md substitution
table).
"""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401  (lazy in NumPy; pay for it at import, not in set-up)

from repro.core import constants
from repro.core.mesh import CartesianMesh3D

__all__ = [
    "uniform_permeability",
    "layered_permeability",
    "lognormal_permeability",
    "channelized_permeability",
    "make_geomodel",
]


def uniform_permeability(
    shape_zyx: tuple[int, int, int],
    value: float = constants.DEFAULT_PERMEABILITY,
) -> np.ndarray:
    """Homogeneous field (the paper's kernel benchmark setting)."""
    if value <= 0:
        raise ValueError("permeability must be positive")
    return np.full(shape_zyx, float(value))


def layered_permeability(
    shape_zyx: tuple[int, int, int],
    *,
    seed: int = 0,
    mean: float = constants.DEFAULT_PERMEABILITY,
    contrast: float = 100.0,
) -> np.ndarray:
    """Horizontally-layered field: one lognormal draw per Z layer.

    ``contrast`` sets the ratio between the most and least permeable
    layers (geometrically).
    """
    if contrast < 1.0:
        raise ValueError("contrast must be >= 1")
    nz = shape_zyx[0]
    rng = np.random.default_rng(seed)
    sigma = np.log(contrast) / 4.0  # +-2 sigma spans the contrast
    layers = mean * np.exp(sigma * rng.standard_normal(nz))
    return np.broadcast_to(layers[:, None, None], shape_zyx).copy()


def _gaussian_smooth(field: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(field, sigma, mode="nearest")``, byte for byte.

    The permeability bytes feed the conformance goldens and the ``.rpz``
    mesh recipes, so this restates SciPy's arithmetic exactly (DESIGN.md
    §2.1): kernel ``exp(-0.5/sigma^2 * x^2)`` over ``|x| <= int(4 sigma +
    0.5)`` normalised by its sum, axes 0, 1, 2 in turn with clamped
    edges, and ``correlate1d``'s symmetric fold ``acc = x*w[r]; acc +=
    (x[i+j] + x[i-j]) * w[r+j]`` for ``j = -r..-1`` as a separate add,
    multiply, add.  Axes 1 and 2 stay inside a z-plane, so each output
    plane is folded through all three axes while it is cache-resident.
    ``field`` is only read; a radius of zero returns it unchanged.
    """
    r = int(4.0 * sigma + 0.5)
    if r == 0:
        return field
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = (w / w.sum())[::-1]
    centre = float(w[r])
    taps = [(j, float(w[r + j])) for j in range(-r, 0)]

    def fold(acc, mid, pairs, tmp):
        np.multiply(mid, centre, out=acc)
        for lo, hi, wj in pairs:
            np.add(lo, hi, out=tmp)
            tmp *= wj
            acc += tmp

    nz, ny, nx = field.shape
    out = np.empty_like(field)
    tmp = np.empty((ny, nx))
    # Axis 0 folds the clamped neighbour planes of the input (views)
    # into the interior of a y-padded plane, so an axis-1 tap is a
    # contiguous block of rows.
    ypad = np.empty((ny + 2 * r, nx))
    acc0 = ypad[r:r + ny]
    pairs1 = [(ypad[r + j:r + j + ny], ypad[r - j:r - j + ny], wj) for j, wj in taps]
    acc1 = np.empty((ny, nx))
    # Axis 2 sweeps the x-padded plane as one flat span: a tap is a
    # constant flat shift, and the r pad cells each side of a row keep
    # the neighbouring rows out of every cell that is read back.
    xpad = np.empty((ny, nx + 2 * r))
    flat = xpad.reshape(-1)
    span = flat.size - 2 * r
    pairs2 = [
        (flat[r + j:r + j + span], flat[r - j:r - j + span], wj) for j, wj in taps
    ]
    acc2_plane = np.empty_like(xpad)
    acc2 = acc2_plane.reshape(-1)[r:r + span]
    tmp2 = np.empty(span)
    top = nz - 1
    for z in range(nz):
        pairs0 = [(field[max(z + j, 0)], field[min(z - j, top)], wj) for j, wj in taps]
        fold(acc0, field[z], pairs0, tmp)
        ypad[:r] = acc0[0]
        ypad[r + ny:] = acc0[-1]
        fold(acc1, acc0, pairs1, tmp)
        xpad[:, r:r + nx] = acc1
        xpad[:, :r] = acc1[:, :1]
        xpad[:, r + nx:] = acc1[:, -1:]
        fold(acc2, flat[r:r + span], pairs2, tmp2)
        out[z] = acc2_plane[:, r:r + nx]
    return out


def lognormal_permeability(
    shape_zyx: tuple[int, int, int],
    *,
    seed: int = 0,
    mean: float = constants.DEFAULT_PERMEABILITY,
    log_std: float = 1.0,
    correlation_length: float = 3.0,
) -> np.ndarray:
    """Spatially-correlated lognormal field (Gaussian-filtered noise).

    ``correlation_length`` is the filter's sigma in cells; the kernel
    reaches ``int(4 * correlation_length + 0.5)`` cells, so 0 — and
    anything below 0.125 — leaves the noise uncorrelated.  ``log_std``
    is the standard deviation of ``ln(kappa)`` after renormalization.
    """
    if log_std < 0:
        raise ValueError("log_std must be non-negative")
    if correlation_length < 0:
        raise ValueError("correlation_length must be non-negative")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(shape_zyx)
    smooth = _gaussian_smooth(noise, float(correlation_length))
    std = smooth.std()
    if std > 0:
        smooth = smooth / std * log_std
    return mean * np.exp(smooth - 0.5 * log_std**2)


def channelized_permeability(
    shape_zyx: tuple[int, int, int],
    *,
    seed: int = 0,
    background: float = 10.0 * constants.MILLIDARCY,
    channel: float = 1000.0 * constants.MILLIDARCY,
    num_channels: int = 2,
    width: int = 2,
) -> np.ndarray:
    """Fluvial-style channels: sinuous high-perm streaks along X.

    Each channel follows a random-walk centreline in Y, constant per Z
    bundle, embedded in a low-permeability background — a standard hard
    case for flow simulators (strong transmissibility contrasts).
    """
    if channel <= background:
        raise ValueError("channel permeability must exceed background")
    nz, ny, nx = shape_zyx
    rng = np.random.default_rng(seed)
    field = np.full(shape_zyx, float(background))
    for _ in range(num_channels):
        y = rng.integers(0, ny)
        z_lo = int(rng.integers(0, max(1, nz - 1)))
        z_hi = int(min(nz, z_lo + max(1, nz // 2)))
        for x in range(nx):
            y = int(np.clip(y + rng.integers(-1, 2), 0, ny - 1))
            y_lo = max(0, y - width // 2)
            y_hi = min(ny, y + (width + 1) // 2)
            field[z_lo:z_hi, y_lo:y_hi, x] = channel
    return field


def make_geomodel(
    nx: int,
    ny: int,
    nz: int,
    *,
    kind: str = "lognormal",
    seed: int = 0,
    dx: float = 10.0,
    dy: float = 10.0,
    dz: float = 2.0,
    dz_layers=None,
    **kwargs,
) -> CartesianMesh3D:
    """Build a mesh carrying a synthetic permeability field.

    Parameters
    ----------
    kind:
        One of ``"uniform"``, ``"layered"``, ``"lognormal"``,
        ``"channelized"``.
    dz_layers:
        Optional per-layer thicknesses (length ``nz``); overrides the
        uniform ``dz`` exactly as on :class:`CartesianMesh3D`.
    kwargs:
        Forwarded to the field generator.
    """
    shape = (nz, ny, nx)
    generators = {
        "uniform": uniform_permeability,
        "layered": layered_permeability,
        "lognormal": lognormal_permeability,
        "channelized": channelized_permeability,
    }
    try:
        gen = generators[kind]
    except KeyError:
        raise ValueError(
            f"unknown geomodel kind {kind!r}; choose from {sorted(generators)}"
        ) from None
    if kind == "uniform":
        kappa = gen(shape, **kwargs)
    else:
        kappa = gen(shape, seed=seed, **kwargs)
    return CartesianMesh3D(
        nx=nx, ny=ny, nz=nz, dx=dx, dy=dy, dz=dz,
        dz_layers=dz_layers, permeability=kappa,
    )
