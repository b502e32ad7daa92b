"""Implicit residual and Jacobian operators (extension, paper Secs. 3, 8).

The paper evaluates the flux kernel in isolation; Sec. 8 notes it "is
naturally extendable to a matrix-free operator ... for use in an
iterative Krylov method which would solve equation (2)".  This module
builds that extension:

* :class:`FlowResidual` — the full backward-Euler residual of Eq. 2,
  accumulation + flux + source terms;
* :class:`MatrixFreeJacobian` — the Jacobian action ``J @ v`` computed
  directly from the analytic per-face derivatives with the same stencil
  sweep as the flux kernel (no matrix is ever formed), plus its diagonal
  for Jacobi preconditioning;
* :func:`assemble_jacobian` — an explicit scipy CSR assembly used to
  validate the matrix-free operator and for small-mesh direct solves.

Porosity depends linearly on pressure (Sec. 3):
``phi(p) = phi_ref * (1 + c_r * (p - p_ref))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.kernels import face_flux_with_derivatives
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import interior_slices
from repro.core.transmissibility import CANONICAL_CONNECTIONS, Transmissibility

__all__ = ["FlowResidual", "MatrixFreeJacobian", "assemble_jacobian"]


def _porosity(mesh: CartesianMesh3D, fluid: FluidProperties, pressure, rock_c):
    """Pressure-dependent porosity (linear, Sec. 3)."""
    return mesh.porosity * (
        1.0 + rock_c * (pressure - fluid.reference_pressure)
    )


@dataclass
class FlowResidual:
    """Backward-Euler residual of Eq. 2 with optional source terms.

    ``R_K(p) = V_K * (phi(p) rho(p) - (phi rho)^n)_K / dt
             - sum_L F_KL(p) - q_K``

    where ``q_K`` [kg/s] is positive for injection.

    **Sign convention.**  The paper's Eq. 3b defines the potential as
    ``p_L - p_K + ...``, which makes ``F_KL`` positive for flow *into*
    cell K; mass balance therefore equates accumulation with net inflow
    plus sources, i.e. the flux sum enters the residual with a minus sign
    (equivalently, the paper's Eq. 2 with the flux written from the
    outflow perspective).  The flux kernel itself reproduces Eqs. 3-4
    exactly as printed.

    Parameters
    ----------
    mesh, fluid:
        Problem definition.
    dt:
        Time step size [s].
    trans:
        TPFA transmissibilities (built on demand).
    gravity:
        Gravitational acceleration.
    rock_compressibility:
        ``c_r`` of the linear porosity law.
    source:
        Optional (nz, ny, nx) mass source field [kg/s].
    """

    mesh: CartesianMesh3D
    fluid: FluidProperties
    dt: float
    trans: Transmissibility | None = None
    gravity: float = constants.GRAVITY
    rock_compressibility: float = constants.DEFAULT_ROCK_COMPRESSIBILITY
    source: np.ndarray | None = None
    _flux_kernel: object = field(init=False, repr=False)

    def __post_init__(self) -> None:
        from repro.core.flux import FluxKernel

        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.trans is None:
            self.trans = Transmissibility(self.mesh)
        if self.source is not None:
            self.mesh.validate_field(self.source, name="source")
        self._flux_kernel = FluxKernel(
            self.mesh, self.fluid, self.trans, gravity=self.gravity
        )

    # ------------------------------------------------------------------ #
    def mass_density(self, pressure: np.ndarray) -> np.ndarray:
        """``phi(p) * rho(p)``: stored mass per unit volume."""
        rho = self.fluid.density(pressure)
        phi = _porosity(self.mesh, self.fluid, pressure, self.rock_compressibility)
        return phi * rho

    def mass_density_derivative(self, pressure: np.ndarray) -> np.ndarray:
        """``d(phi rho)/dp`` for the accumulation Jacobian diagonal."""
        rho = self.fluid.density(pressure)
        drho = self.fluid.compressibility * rho
        phi = _porosity(self.mesh, self.fluid, pressure, self.rock_compressibility)
        dphi = self.mesh.porosity * self.rock_compressibility
        return phi * drho + dphi * rho

    def __call__(
        self, pressure: np.ndarray, previous_mass: np.ndarray
    ) -> np.ndarray:
        """Evaluate the residual for a candidate new pressure.

        Parameters
        ----------
        pressure:
            Candidate ``p^{n+1}`` field.
        previous_mass:
            ``(phi rho)^n`` of the previous time level (from
            :meth:`mass_density`).
        """
        self.mesh.validate_field(pressure, name="pressure")
        res = self._flux_kernel.residual(pressure)
        np.negative(res, out=res)  # accumulation balances net *inflow*
        acc = self.mass_density(pressure)
        acc -= previous_mass
        acc *= self.mesh.cell_volumes
        acc /= self.dt
        res += acc
        if self.source is not None:
            res -= self.source
        return res


class MatrixFreeJacobian:
    """Analytic Jacobian action of the backward-Euler residual.

    Applies ``J(p) @ v`` with one stencil sweep using the per-face
    derivatives of Eqs. 3-4 (upwind direction frozen at ``p``) — the
    matrix is never assembled.  The same sweep yields the diagonal for
    Jacobi preconditioning.
    """

    def __init__(self, residual: FlowResidual, pressure: np.ndarray) -> None:
        self.residual = residual
        self.mesh = residual.mesh
        self.shape_zyx = self.mesh.shape_zyx
        self.pressure = np.asarray(pressure)
        self.mesh.validate_field(self.pressure, name="pressure")
        fluid = residual.fluid
        rho = fluid.density(self.pressure)
        z = self.mesh.elevation
        self._faces = []
        for conn in CANONICAL_CONNECTIONS:
            local, neigh = interior_slices(self.shape_zyx, conn)
            _, dk, dl = face_flux_with_derivatives(
                self.pressure[local],
                self.pressure[neigh],
                z[local],
                z[neigh],
                rho[local],
                rho[neigh],
                residual.trans.face_array(conn),
                residual.gravity,
                fluid.viscosity,
                fluid.compressibility,
            )
            self._faces.append((local, neigh, dk, dl))
        self._acc_diag = (
            residual.mass_density_derivative(self.pressure)
            * self.mesh.cell_volumes
            / residual.dt
        )

    @property
    def n(self) -> int:
        """Unknown count (cells)."""
        return self.mesh.num_cells

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``J @ v`` for a flat or field-shaped vector ``v``."""
        v3 = np.asarray(v).reshape(self.shape_zyx)
        out = self._acc_diag * v3
        for local, neigh, dk, dl in self._faces:
            # the residual carries -F in K's row and +F in L's row
            dv = dk * v3[local] + dl * v3[neigh]
            out[local] -= dv
            out[neigh] += dv
        return out.reshape(np.asarray(v).shape)

    def diagonal(self) -> np.ndarray:
        """The Jacobian diagonal (field-shaped), for Jacobi scaling."""
        diag = self._acc_diag.copy()
        for local, neigh, dk, dl in self._faces:
            diag[local] -= dk
            diag[neigh] += dl
        return diag

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)


def assemble_jacobian(
    residual: FlowResidual, pressure: np.ndarray
) -> sp.csr_matrix:
    """Explicit sparse Jacobian (validation / direct small-mesh solves)."""
    import scipy.sparse as sp  # here only: a flux run never assembles a matrix

    mesh = residual.mesh
    mesh.validate_field(np.asarray(pressure), name="pressure")
    fluid = residual.fluid
    rho = fluid.density(pressure)
    z = mesh.elevation
    n = mesh.num_cells
    shape = mesh.shape_zyx
    idx = np.arange(n).reshape(shape)
    rows, cols, vals = [], [], []

    acc = (
        residual.mass_density_derivative(pressure)
        * mesh.cell_volumes
        / residual.dt
    ).ravel()
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(acc)

    for conn in CANONICAL_CONNECTIONS:
        local, neigh = interior_slices(shape, conn)
        _, dk, dl = face_flux_with_derivatives(
            pressure[local],
            pressure[neigh],
            z[local],
            z[neigh],
            rho[local],
            rho[neigh],
            residual.trans.face_array(conn),
            residual.gravity,
            fluid.viscosity,
            fluid.compressibility,
        )
        k = idx[local].ravel()
        l = idx[neigh].ravel()
        dkf, dlf = dk.ravel(), dl.ravel()
        # -F_KL in row K, +F_KL in row L (see FlowResidual sign note)
        rows.extend([k, k, l, l])
        cols.extend([k, l, k, l])
        vals.extend([-dkf, -dlf, dkf, dlf])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
