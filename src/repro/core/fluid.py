"""Fluid property model: density EOS and mobility (paper Eqs. 4-5).

The fluid is slightly compressible with an exponential equation of state,

    rho(p) = rho_ref * exp(c_f * (p - p_ref))                        (Eq. 5)

and a constant viscosity.  The upwinded mobility used by the TPFA flux is

    lambda_upw = rho_K / mu   if dPhi_KL > 0
               = rho_L / mu   otherwise                              (Eq. 4)

which matches the paper's convention exactly (including the sign choice of
Eq. 4 as printed).  :meth:`FluidProperties.mobility` forms ``rho * (1/mu)``
per cell; the select is :func:`repro.core.kernels.upwind_select`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import constants
from repro.util.arrays import check_positive

__all__ = ["FluidProperties"]


@dataclass(frozen=True)
class FluidProperties:
    """Constant fluid parameters of the single-phase model (Sec. 3).

    Attributes
    ----------
    viscosity:
        Dynamic viscosity ``mu`` [Pa.s]; constant per Eq. 1a.
    compressibility:
        Fluid compressibility ``c_f`` [1/Pa] of Eq. 5.
    reference_density:
        ``rho_ref`` [kg/m^3] of Eq. 5.
    reference_pressure:
        ``p_ref`` [Pa] of Eq. 5.
    """

    viscosity: float = constants.DEFAULT_VISCOSITY
    compressibility: float = constants.DEFAULT_COMPRESSIBILITY
    reference_density: float = constants.DEFAULT_REFERENCE_DENSITY
    reference_pressure: float = constants.DEFAULT_REFERENCE_PRESSURE

    def __post_init__(self) -> None:
        check_positive(self.viscosity, name="viscosity")
        check_positive(self.compressibility, name="compressibility", allow_zero=True)
        check_positive(self.reference_density, name="reference_density")

    def density(self, pressure, out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate Eq. 5 for a scalar or array of pressures.

        Parameters
        ----------
        pressure:
            Cell pressure(s) [Pa].
        out:
            Optional output array reused in-place (hot-loop idiom).
        """
        p = np.asarray(pressure)
        if out is None:
            out = np.empty_like(p, dtype=np.result_type(p, np.float64) if p.dtype.kind != "f" else p.dtype)
        np.subtract(p, self.reference_pressure, out=out)
        out *= self.compressibility
        np.exp(out, out=out)
        out *= self.reference_density
        return out

    def density_derivative(self, pressure) -> np.ndarray:
        """d(rho)/dp = c_f * rho(p); used by the implicit solver's Jacobian."""
        return self.compressibility * self.density(pressure)

    def mobility(self, density, out: np.ndarray | None = None) -> np.ndarray:
        """Mobility ``rho * (1/mu)`` in *density*'s dtype, what the flux
        kernels' upwind select picks from: a multiply by the reciprocal,
        the bits of the DSD sequence's step 10 (paper Sec. 7.3)."""
        return np.multiply(density, 1.0 / self.viscosity, out=out)
