"""Per-face TPFA flux kernels (paper Eqs. 3-4).

Three variants of the identical math live here:

* :func:`face_flux_scalar` — one face at a time; the code the paper's CSL
  and CUDA kernels execute per neighbour, used by the per-PE dataflow
  simulator and as a brute-force oracle in tests.
* :func:`face_flux_array` — vectorized over arrays of faces with optional
  pre-allocated scratch, the building block of the reference and simulated
  GPU implementations.
* :func:`face_flux_with_derivatives` — flux plus analytic derivatives with
  respect to the two cell pressures (upwind direction frozen), used by the
  implicit solver's Jacobian (extension, paper Sec. 8).

All variants share the convention of Eq. 3:

    F_KL   = Upsilon_KL * lambda_upw * dPhi_KL
    dPhi_KL = p_L - p_K + rho_avg * g * (z_L - z_K)

with the upwinding of Eq. 4 exactly as printed (``rho_K`` when
``dPhi_KL > 0``, else ``rho_L``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "face_flux_scalar",
    "face_flux_array",
    "face_flux_with_derivatives",
    "FLOPS_PER_FLUX",
    "FLUXES_PER_CELL",
    "FLOPS_PER_CELL",
]

#: FLOPs per single flux evaluation in the paper's accounting (Sec. 7.3):
#: 6 FMUL + 4 FSUB + 1 FADD + 1 FNEG (1 FLOP each) + 1 FMA (2 FLOPs).
FLOPS_PER_FLUX = 14

#: Faces per interior cell (Sec. 5.1): 4 cardinal + 4 diagonal + 2 vertical.
FLUXES_PER_CELL = 10

#: FLOPs per cell = 10 fluxes x 14 FLOPs (Sec. 7.3).
FLOPS_PER_CELL = FLOPS_PER_FLUX * FLUXES_PER_CELL


def face_flux_scalar(
    p_k: float,
    p_l: float,
    z_k: float,
    z_l: float,
    rho_k: float,
    rho_l: float,
    trans: float,
    gravity: float,
    viscosity: float,
) -> float:
    """Evaluate Eqs. 3-4 for a single K-L face.

    Parameters mirror the quantities of Sec. 3; ``trans`` is
    ``Upsilon_KL``.  Returns ``F_KL`` (the contribution added to cell K's
    residual; the reciprocal face contributes ``-F_KL`` to cell L).
    """
    rho_avg = 0.5 * (rho_k + rho_l)
    dphi = (p_l - p_k) + rho_avg * gravity * (z_l - z_k)
    rho_upw = rho_k if dphi > 0.0 else rho_l
    return trans * (rho_upw / viscosity) * dphi


def face_flux_array(
    p_k: np.ndarray,
    p_l: np.ndarray,
    z_k: np.ndarray,
    z_l: np.ndarray,
    rho_k: np.ndarray,
    rho_l: np.ndarray,
    trans: np.ndarray,
    gravity: float,
    viscosity: float,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized Eqs. 3-4 over arrays of element-aligned face data.

    When *out* is given it receives the fluxes in place (and is returned),
    avoiding one allocation in the hot loop.
    """
    # dPhi = (p_l - p_k) + 0.5*(rho_k + rho_l) * g * (z_l - z_k)
    dphi = np.subtract(p_l, p_k, out=out)
    grav = (z_l - z_k) * gravity
    grav *= 0.5 * (rho_k + rho_l)
    dphi += grav
    # upwinded mobility (Eq. 4)
    rho_upw = np.where(dphi > 0.0, rho_k, rho_l)
    rho_upw /= viscosity
    dphi *= rho_upw
    dphi *= trans
    return dphi


def face_flux_with_derivatives(
    p_k: np.ndarray,
    p_l: np.ndarray,
    z_k: np.ndarray,
    z_l: np.ndarray,
    rho_k: np.ndarray,
    rho_l: np.ndarray,
    trans: np.ndarray,
    gravity: float,
    viscosity: float,
    compressibility: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flux and analytic derivatives ``(F, dF/dp_K, dF/dp_L)``.

    The upwind direction is treated as locally constant (standard practice
    for TPFA Newton): the kink of Eq. 4 at ``dPhi = 0`` carries zero flux,
    so the one-sided derivative is consistent.  Densities obey Eq. 5, hence
    ``d rho / d p = c_f * rho``.
    """
    dz = np.asarray(z_l) - np.asarray(z_k)
    rho_avg = 0.5 * (np.asarray(rho_k) + np.asarray(rho_l))
    dphi = (np.asarray(p_l) - np.asarray(p_k)) + rho_avg * gravity * dz

    upwind_k = dphi > 0.0
    rho_upw = np.where(upwind_k, rho_k, rho_l)
    lam = rho_upw / viscosity

    flux = trans * lam * dphi

    half_g_dz = 0.5 * gravity * dz
    # dPhi derivatives (rho_avg depends on both pressures through Eq. 5)
    ddphi_dpk = -1.0 + half_g_dz * compressibility * rho_k
    ddphi_dpl = 1.0 + half_g_dz * compressibility * rho_l
    # mobility derivative only w.r.t. the upwind cell's pressure
    dlam_dpk = np.where(upwind_k, compressibility * rho_k / viscosity, 0.0)
    dlam_dpl = np.where(upwind_k, 0.0, compressibility * rho_l / viscosity)

    dflux_dpk = trans * (dlam_dpk * dphi + lam * ddphi_dpk)
    dflux_dpl = trans * (dlam_dpl * dphi + lam * ddphi_dpl)
    return flux, dflux_dpk, dflux_dpl
