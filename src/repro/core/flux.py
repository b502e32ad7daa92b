"""The reference fold of Algorithm 1: the flux part of the residual.

This module is the package's numerical ground truth.  It assembles

    (r_flux)_K = sum_{L in adj(K)} F_KL                      (Algorithm 1)

over the 10-connection stencil with no-flow boundaries.  Every flux is
:func:`repro.core.kernels.face_flux`, the statement every backend runs,
evaluated once per connection over whole ``interior_slices`` views (each
face from both of its cells, exactly like the paper's GPU kernels and
per-PE programs).  Each cell's fluxes are added from ``+0.0`` in one of
the package's two fold orders — asynchronous exchange changes only the
order in which a PE's fluxes arrive (paper Sec. 5.3):

* the **phased** order (lockstep, gpu, cluster, par): UP, DOWN, then
  the Sec. 5.2 exchange's cardinals and diagonals, ``XY_CONNECTIONS``;
* an **event** order (event, fused): UP, DOWN, then each PE's X-Y
  arrival order, given as the rectangles of
  :func:`repro.ir.schedule.schedule_classes`.

So a backend's residual equals the fold in its fold class's order byte
for byte, in the pressure's dtype, and a test tells a reordering from an
arithmetic defect.  The arithmetic itself is checked against the
independent one-face restatement
:func:`~repro.core.kernels.face_flux_scalar` in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.kernels import FluxScratch, face_flux
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import VERTICAL, XY_CONNECTIONS, interior_slices
from repro.core.transmissibility import Transmissibility

__all__ = ["compute_flux_residual"]


def compute_flux_residual(
    mesh: CartesianMesh3D,
    fluid: FluidProperties,
    pressure: np.ndarray,
    trans: Transmissibility | None = None,
    *,
    order=None,
    gravity: float = constants.GRAVITY,
) -> np.ndarray:
    """Assemble the flux residual of Algorithm 1 for one pressure field.

    Parameters
    ----------
    mesh, fluid:
        Problem definition (geometry, rock and fluid properties).
    pressure:
        Cell pressures, shape ``(nz, ny, nx)``; the residual has its dtype.
    trans:
        Precomputed transmissibilities, cast to the pressure's dtype;
        built on the fly when omitted.
    order:
        ``None`` for the phased order, or an event order:
        ``schedule_classes(nx, ny)``'s ``(connection names, y-slice,
        x-slice)`` rectangles, each folding its X-Y fluxes in its names'
        order.
    gravity:
        Gravitational acceleration ``g`` of Eq. 3b.

    Returns
    -------
    numpy.ndarray
        The residual field ``r_flux``, shape ``(nz, ny, nx)``.
    """
    mesh.validate_field(pressure, name="pressure")
    if trans is None:
        trans = Transmissibility(mesh, dtype=pressure.dtype)
    elif trans.mesh is not mesh:
        raise ValueError("trans was built for a different mesh")
    shape, dtype = mesh.shape_zyx, pressure.dtype
    rho = fluid.density(pressure)
    lam = fluid.mobility(rho)
    z = np.asarray(mesh.elevation[:, :1, :1], dtype)
    g = dtype.type(gravity)
    residual = np.zeros(shape, dtype)

    def flux(conn):
        """``(cells with a conn neighbour, their F_KL)``."""
        local, neigh = interior_slices(shape, conn)
        s = FluxScratch.empty(residual[local].shape, dtype)
        # X-Y neighbours share the layer: one elevation object selects the
        # statement's collapsed branch, whose bytes are the full one's
        z_k = z[local[0]]
        z_l = z[neigh[0]] if conn.is_vertical else z_k
        face_flux(
            s, pressure[local], pressure[neigh], z_k, z_l, rho[local], rho[neigh],
            lam[local], lam[neigh], trans.face_array(conn).astype(dtype, copy=False),
            s.dp, g,
        )
        return local, s.dp

    for conn in VERTICAL + (XY_CONNECTIONS if order is None else ()):
        local, f = flux(conn)
        residual[local] += f
    if order is not None:
        # each X-Y flux over the whole grid, +0.0 where a cell has no such
        # neighbour: adding it leaves a residual folded from +0.0 as it is
        fluxes = {}
        for conn in XY_CONNECTIONS:
            local, f = flux(conn)
            fluxes[conn.name] = np.zeros(shape, dtype)
            fluxes[conn.name][local] = f
        for names, ys, xs in order:
            cells = residual[:, ys, xs]
            for name in names:
                cells += fluxes[name][:, ys, xs]
    return residual
