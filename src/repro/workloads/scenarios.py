"""Ready-made experiment scenarios.

Bundles a mesh, fluid, pressure driver, and (for the implicit solver) an
injection schedule into named configurations used by the examples and
benchmarks — the equivalents of the paper's experiment setups at
laptop-tractable sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.state import PressureSequence, hydrostatic_pressure
from repro.workloads.geomodels import make_geomodel

__all__ = ["FluxScenario", "InjectionScenario", "paper_mesh_scaled"]


def paper_mesh_scaled(scale: int = 32) -> tuple[int, int, int]:
    """The paper's 750 x 994 x 246 mesh divided by *scale* per axis.

    ``scale=1`` returns the full paper mesh; larger values give
    geometrically similar meshes tractable in pure Python.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    nx, ny, nz = constants.PAPER_MESH
    return (max(1, nx // scale), max(1, ny // scale), max(1, nz // scale))


@dataclass
class FluxScenario:
    """A repeated-flux-kernel experiment (Algorithm 1 driver).

    Parameters
    ----------
    nx, ny, nz:
        Mesh dimensions.
    geomodel:
        Permeability field kind (see workloads.geomodels).
    applications:
        Applications of Algorithm 1 (1000 in the paper; keep small for
        event-driven simulation).
    seed:
        Root seed of both the geomodel and the pressure stream.
    """

    nx: int
    ny: int
    nz: int
    geomodel: str = "lognormal"
    applications: int = 10
    seed: int = 0
    fluid: FluidProperties = field(default_factory=FluidProperties)

    def build_mesh(self) -> CartesianMesh3D:
        """Construct the mesh with its synthetic permeability."""
        return make_geomodel(
            self.nx, self.ny, self.nz, kind=self.geomodel, seed=self.seed
        )

    def pressure_sequence(self, mesh: CartesianMesh3D) -> PressureSequence:
        """The per-application pressure stream (Sec. 3)."""
        return PressureSequence(
            mesh, num_applications=self.applications, seed=self.seed
        )


@dataclass
class InjectionScenario:
    """A CO2-injection pressure build-up run for the implicit solver.

    One injector completed mid-reservoir, hydrostatic initial state,
    equal implicit steps.
    """

    nx: int = 12
    ny: int = 12
    nz: int = 6
    geomodel: str = "layered"
    seed: int = 0
    rate: float = 8.0  # kg/s (~0.25 Mt/yr)
    num_steps: int = 10
    dt: float = 86400.0  # one day
    fluid: FluidProperties = field(default_factory=FluidProperties)

    def build_mesh(self) -> CartesianMesh3D:
        """Construct the reservoir mesh."""
        return make_geomodel(
            self.nx, self.ny, self.nz, kind=self.geomodel, seed=self.seed
        )

    def wells(self) -> list[Well]:
        """The injection well, completed at the mesh centre bottom."""
        # Imported here so that `import repro.workloads` (every flux run)
        # does not load the implicit solver package.
        from repro.solver.simulator import Well

        return [
            Well(
                x=self.nx // 2,
                y=self.ny // 2,
                z=max(0, self.nz // 4),
                rate=self.rate,
                name="INJ-1",
            )
        ]

    def initial_pressure(self, mesh: CartesianMesh3D) -> np.ndarray:
        """Hydrostatic initial condition."""
        return hydrostatic_pressure(mesh, self.fluid)
