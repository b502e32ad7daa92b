"""Implicit flow solver on unstructured topologies.

Completes the Sec. 9 future-work path end to end: the connection-list
TPFA kernel (:mod:`repro.core.unstructured`) drives the same
backward-Euler + Newton + matrix-free Krylov stack as the structured
solver, so an arbitrary cell cloud (a networkx graph, a Delaunay mesh, a
flattened corner-point model) is a first-class simulation target.

On a connection list built from a Cartesian mesh the residual, Jacobian,
and Newton trajectory match the structured solver exactly — the
cross-check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.kernels import face_flux_with_derivatives
from repro.core.unstructured import UnstructuredMesh, unstructured_flux_residual
from repro.solver.krylov import bicgstab, jacobi_preconditioner
from repro.solver.newton import NewtonResult

__all__ = [
    "UnstructuredFlowResidual",
    "UnstructuredMatrixFreeJacobian",
    "assemble_unstructured_jacobian",
    "newton_solve_unstructured",
]


@dataclass
class UnstructuredFlowResidual:
    """Backward-Euler residual over a connection list.

    Same physics and sign convention as
    :class:`repro.solver.operators.FlowResidual` (accumulation balances
    net inflow plus sources), with per-cell volumes from the mesh and a
    uniform reference porosity (unstructured clouds carry no porosity
    field; pass ``porosity`` to override).
    """

    mesh: UnstructuredMesh
    fluid: FluidProperties
    dt: float
    gravity: float = constants.GRAVITY
    porosity: np.ndarray | float = constants.DEFAULT_POROSITY
    rock_compressibility: float = constants.DEFAULT_ROCK_COMPRESSIBILITY
    source: np.ndarray | None = None
    _phi_ref: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        n = self.mesh.num_cells
        phi = np.asarray(self.porosity, dtype=np.float64)
        self._phi_ref = (
            np.full(n, float(phi)) if phi.ndim == 0 else self.mesh.validate_vector(phi, name="porosity").astype(np.float64)
        )
        if np.any(self._phi_ref <= 0):
            raise ValueError("porosity must be strictly positive")
        if self.source is not None:
            self.source = self.mesh.validate_vector(
                np.asarray(self.source, dtype=np.float64), name="source"
            )

    def _porosity(self, pressure: np.ndarray) -> np.ndarray:
        return self._phi_ref * (
            1.0
            + self.rock_compressibility
            * (pressure - self.fluid.reference_pressure)
        )

    def mass_density(self, pressure: np.ndarray) -> np.ndarray:
        """``phi(p) rho(p)`` per cell."""
        return self._porosity(pressure) * self.fluid.density(pressure)

    def mass_density_derivative(self, pressure: np.ndarray) -> np.ndarray:
        """``d(phi rho)/dp`` per cell."""
        rho = self.fluid.density(pressure)
        return (
            self._porosity(pressure) * self.fluid.compressibility * rho
            + self._phi_ref * self.rock_compressibility * rho
        )

    def __call__(self, pressure: np.ndarray, previous_mass: np.ndarray) -> np.ndarray:
        pressure = self.mesh.validate_vector(
            np.asarray(pressure, dtype=np.float64), name="pressure"
        )
        flux = unstructured_flux_residual(
            self.mesh, self.fluid, pressure, gravity=self.gravity
        )
        res = -flux
        res += (
            (self.mass_density(pressure) - previous_mass)
            * self.mesh.volumes
            / self.dt
        )
        if self.source is not None:
            res -= self.source
        return res


class UnstructuredMatrixFreeJacobian:
    """Analytic ``J @ v`` over the connection list (no assembly)."""

    def __init__(
        self, residual: UnstructuredFlowResidual, pressure: np.ndarray
    ) -> None:
        self.residual = residual
        self.mesh = residual.mesh
        self.pressure = self.mesh.validate_vector(
            np.asarray(pressure, dtype=np.float64), name="pressure"
        )
        fluid = residual.fluid
        rho = fluid.density(self.pressure)
        z = self.mesh.elevation
        a, b = self.mesh.cell_a, self.mesh.cell_b
        _, self._dk, self._dl = face_flux_with_derivatives(
            self.pressure[a],
            self.pressure[b],
            z[a],
            z[b],
            rho[a],
            rho[b],
            self.mesh.trans,
            residual.gravity,
            fluid.viscosity,
            fluid.compressibility,
        )
        self._acc = (
            residual.mass_density_derivative(self.pressure)
            * self.mesh.volumes
            / residual.dt
        )

    @property
    def n(self) -> int:
        """Unknown count."""
        return self.mesh.num_cells

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """One gather/scatter sweep over the connections."""
        v = np.asarray(v, dtype=np.float64).ravel()
        if v.shape != (self.n,):
            raise ValueError(f"v must have {self.n} entries")
        a, b = self.mesh.cell_a, self.mesh.cell_b
        out = self._acc * v
        dv = self._dk * v[a] + self._dl * v[b]
        np.subtract.at(out, a, dv)  # row a carries -F
        np.add.at(out, b, dv)      # row b carries +F
        return out

    def diagonal(self) -> np.ndarray:
        """Jacobian diagonal (for Jacobi preconditioning)."""
        diag = self._acc.copy()
        np.subtract.at(diag, self.mesh.cell_a, self._dk)
        np.add.at(diag, self.mesh.cell_b, self._dl)
        return diag

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)


def assemble_unstructured_jacobian(
    residual: UnstructuredFlowResidual, pressure: np.ndarray
) -> sp.csr_matrix:
    """Explicit sparse Jacobian for validation / direct solves."""
    import scipy.sparse as sp  # here only: a flux run never assembles a matrix

    jac = UnstructuredMatrixFreeJacobian(residual, pressure)
    mesh = residual.mesh
    a, b = mesh.cell_a, mesh.cell_b
    n = mesh.num_cells
    rows = np.concatenate([np.arange(n), a, a, b, b])
    cols = np.concatenate([np.arange(n), a, b, a, b])
    vals = np.concatenate(
        [jac._acc, -jac._dk, -jac._dl, jac._dk, jac._dl]
    )
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def newton_solve_unstructured(
    residual: UnstructuredFlowResidual,
    pressure_old: np.ndarray,
    *,
    rtol: float = 1e-6,
    atol: float = 1e-8,
    max_iterations: int = 20,
    linear_rtol: float = 1e-8,
    max_line_search: int = 8,
) -> NewtonResult:
    """Newton for one backward-Euler step on the connection list.

    Mirrors :func:`repro.solver.newton.newton_solve`; the two produce
    matching iterates on equivalent problems (cross-checked in tests).
    """
    mesh = residual.mesh
    p = mesh.validate_vector(
        np.array(pressure_old, dtype=np.float64, copy=True), name="pressure_old"
    )
    mass_old = residual.mass_density(pressure_old)
    r = residual(p, mass_old)
    r0_norm = float(np.abs(r).max())
    history = [r0_norm]
    target = max(rtol * r0_norm, atol)
    linear_total = 0
    if r0_norm <= target:
        return NewtonResult(p, True, 0, r0_norm, history, 0)

    for it in range(1, max_iterations + 1):
        jac = UnstructuredMatrixFreeJacobian(residual, p)
        lin = bicgstab(
            jac.matvec,
            -r,
            rtol=linear_rtol,
            max_iterations=10 * jac.n,
            psolve=jacobi_preconditioner(jac.diagonal()),
        )
        linear_total += lin.iterations
        dp = lin.x

        step = 1.0
        best_norm = None
        for _ in range(max_line_search):
            p_try = p + step * dp
            r_try = residual(p_try, mass_old)
            norm_try = float(np.abs(r_try).max())
            if norm_try < history[-1]:
                best_norm = norm_try
                break
            step *= 0.5
        if best_norm is None:
            p_try = p + step * dp
            r_try = residual(p_try, mass_old)
            best_norm = float(np.abs(r_try).max())

        p, r = p_try, r_try
        history.append(best_norm)
        if best_norm <= target:
            return NewtonResult(p, True, it, best_norm, history, linear_total)
    return NewtonResult(p, False, max_iterations, history[-1], history, linear_total)
