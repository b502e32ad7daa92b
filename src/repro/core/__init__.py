"""Physics core: mesh, fluid model, TPFA transmissibilities, flux kernel.

This subpackage is the numerical ground truth of the reproduction — the
discretized single-phase compressible flow model of paper Sec. 3, the
face-flux statement every backend runs, and the reference fold of
Algorithm 1 in both fold orders.
"""

from repro.core import constants
from repro.core.flux import compute_flux_residual
from repro.core.fluid import FluidProperties
from repro.core.kernels import (
    FLOPS_PER_CELL,
    FLOPS_PER_FLUX,
    FLUXES_PER_CELL,
    face_flux_scalar,
    face_flux_with_derivatives,
)
from repro.core.mesh import CartesianMesh3D
from repro.core.state import PressureSequence, hydrostatic_pressure, random_pressure
from repro.core.stencil import (
    ALL_CONNECTIONS,
    CARDINAL_XY,
    DIAGONAL_XY,
    VERTICAL,
    XY_CONNECTIONS,
    Connection,
    interior_slices,
    iter_neighbours,
    opposite,
)
from repro.core.transmissibility import CANONICAL_CONNECTIONS, Transmissibility

__all__ = [
    "constants",
    "CartesianMesh3D",
    "FluidProperties",
    "Transmissibility",
    "CANONICAL_CONNECTIONS",
    "Connection",
    "ALL_CONNECTIONS",
    "CARDINAL_XY",
    "DIAGONAL_XY",
    "VERTICAL",
    "XY_CONNECTIONS",
    "interior_slices",
    "iter_neighbours",
    "opposite",
    "compute_flux_residual",
    "face_flux_scalar",
    "face_flux_with_derivatives",
    "FLOPS_PER_FLUX",
    "FLOPS_PER_CELL",
    "FLUXES_PER_CELL",
    "PressureSequence",
    "hydrostatic_pressure",
    "random_pressure",
]
