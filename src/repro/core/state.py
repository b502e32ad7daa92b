"""Pressure-field generators driving repeated applications of Algorithm 1.

"Algorithm 1 is applied 1,000 times with a different pressure vector at
every call" (paper Sec. 3).  :class:`PressureSequence` reproduces that
driver: a seeded, reproducible stream of pressure fields built from a base
state plus bounded perturbations, so every implementation (reference, GPU,
dataflow) consumes bit-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (lazy in NumPy; pay for it at import, not in set-up)

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D

__all__ = ["PressureSequence", "hydrostatic_pressure", "random_pressure"]


def hydrostatic_pressure(
    mesh: CartesianMesh3D,
    fluid: FluidProperties,
    *,
    pressure_at_origin: float = constants.DEFAULT_REFERENCE_PRESSURE,
    gravity: float = constants.GRAVITY,
) -> np.ndarray:
    """Hydrostatic equilibrium pressure field ``p(z) = p0 - rho_ref g z``.

    The potential difference of Eq. 3b is ``p_L - p_K + rho_avg g (z_L -
    z_K)``, so ``z`` is an *elevation* (positive upward) and equilibrium
    pressure decreases with z.  Uses the reference density (adequate for
    the slight-compressibility regime of Eq. 5); with gravity on, this
    field produces near-zero potential differences — a useful physical
    sanity state.
    """
    z = mesh.elevation - mesh.origin[2]
    return np.ascontiguousarray(
        pressure_at_origin - fluid.reference_density * gravity * z
    )


def random_pressure(
    mesh: CartesianMesh3D,
    *,
    seed: int = 0,
    base: float = constants.DEFAULT_REFERENCE_PRESSURE,
    amplitude: float = 1.0e6,
    dtype=np.float64,
) -> np.ndarray:
    """A single seeded random pressure field around *base* [Pa]."""
    rng = np.random.default_rng(seed)
    field = base + amplitude * rng.standard_normal(mesh.shape_zyx)
    return np.ascontiguousarray(field, dtype=dtype)


@dataclass
class PressureSequence:
    """Reproducible stream of per-application pressure fields.

    Application ``i`` returns ``base + amplitude * noise_i`` where the
    noise stream is derived from ``seed`` alone, so two consumers iterating
    independently observe identical fields.

    Parameters
    ----------
    mesh:
        Target mesh (fixes the field shape).
    num_applications:
        Length of the sequence (1000 in the paper's experiments).
    seed:
        Root seed of the noise stream.
    base:
        Mean pressure [Pa].
    amplitude:
        Standard deviation of the perturbation [Pa].
    dtype:
        Floating dtype of the generated fields.
    """

    mesh: CartesianMesh3D
    num_applications: int = constants.PAPER_ITERATIONS
    seed: int = 0
    base: float = constants.DEFAULT_REFERENCE_PRESSURE
    amplitude: float = 1.0e6
    dtype: type = np.float64

    def __post_init__(self) -> None:
        if self.num_applications < 1:
            raise ValueError("num_applications must be >= 1")

    def field(self, application: int) -> np.ndarray:
        """Pressure field for application index *application* (0-based)."""
        if not 0 <= application < self.num_applications:
            raise IndexError(
                f"application {application} outside [0, {self.num_applications})"
            )
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(application,))
        )
        noise = rng.standard_normal(self.mesh.shape_zyx)
        field = self.base + self.amplitude * noise
        return np.ascontiguousarray(field, dtype=self.dtype)

    def __len__(self) -> int:
        return self.num_applications

    def __iter__(self):
        for i in range(self.num_applications):
            yield self.field(i)
