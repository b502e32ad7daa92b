"""The per-PE TPFA flux kernel, booked in DSD vector instructions.

This is the dataflow analogue of the CSL kernel (paper Secs. 5.3, 7.3):
one call computes a whole column of fluxes for one face direction and
accumulates them into the PE's local residual.  The instruction sequence
is a canonical decomposition of Eqs. 3-4 that matches the paper's
accounting *exactly* — per flux: 6 FMUL, 4 FSUB, 1 FADD, 1 FMA, 1 FNEG
(14 FLOPs) — so Table 4 is regenerated by measuring this code.  Steps
1-12 are :func:`repro.core.kernels.face_flux`, the statement the host
and gpu kernels run too; this module books them.

Sequence (with the hand-crafted buffer reuse of Sec. 5.3.1 — four scratch
columns serve every face direction):

====  =====  ==========================================
step  op     effect
====  =====  ==========================================
1     FSUB   dp   = p_L - p_K
2     FSUB   gz   = z_L - z_K
3     FMUL   gz  *= g                (in-place reuse)
4     FMUL   a    = rho_K * gz
5     FMUL   b    = rho_L * gz
6     FADD   a   += b                (s = a + b)
7     FMA    b    = 0.5 * a + dp     (dphi)
8     FSUB   a    = 0 - dphi         (upwind compare)
9     SEL    dp   = rho_K if a < 0 else rho_L  (predicated, no FLOP)
10    FMUL   dp  *= 1/mu             (upwinded mobility, hoisted)
11    FMUL   dp  *= Upsilon
12    FMUL   dp  *= dphi             (F_KL)
13    FNEG   a    = -F
14    FSUB   r    = r - a            (residual accumulate)
====  =====  ==========================================

Step 10 is hoisted: the statement selects from the mobility ``rho *
(1/mu)``, which the caller forms once per cell per application — the
same bits as the per-face multiply, which is booked and not executed,
like the FSUB of step 8 and the FNEG of step 13.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import FluxScratch, face_flux
from repro.wse.dsd import DsdEngine

__all__ = [
    "compute_face_flux_column",
    "store_face_flux_column",
    "evaluate_density_column",
]

#: Modelled cost of the Eq. 5 exponential per element (cycles); the exp is
#: evaluated once per cell per application and is excluded from Table 4.
DENSITY_EXP_CYCLES_PER_ELEMENT = 12.0

_sub = np.subtract
_mul = np.multiply
_add = np.add


def compute_face_flux_column(
    engine: DsdEngine,
    scratch: FluxScratch,
    p_k: np.ndarray,
    p_l: np.ndarray,
    z_k: np.ndarray,
    z_l: np.ndarray,
    rho_k: np.ndarray,
    rho_l: np.ndarray,
    lam_k: np.ndarray,
    lam_l: np.ndarray,
    trans: np.ndarray,
    residual: np.ndarray,
    *,
    gravity: float,
) -> None:
    """Accumulate one direction's fluxes into *residual* (all length n).

    All arrays must be element-aligned views of length ``n``; *residual*
    is updated in place with ``r += F_KL``.  ``lam`` is the cells'
    mobility ``rho * (1/mu)``; ``z_l is z_k`` picks the collapsed X-Y
    branch (:func:`~repro.core.kernels.face_flux`).

    The whole column is booked in one
    :meth:`~repro.wse.dsd.DsdEngine.account_flux_column` call, the
    booking the event backend's receive tasks make per halo while the
    arithmetic runs once per round (DESIGN.md §8 item 7).
    """
    _check_shape(scratch, residual)
    # F overwrites the scratch column that carried the upwinded mobility
    flux = scratch.a if z_l is z_k else scratch.dp
    face_flux(
        scratch, p_k, p_l, z_k, z_l, rho_k, rho_l, lam_k, lam_l, trans, flux,
        gravity,
    )
    # 13: FNEG -F; 14: FSUB r -= (-F).  IEEE subtraction is defined as
    # addition of the exact negation, so ``r - (-F)`` is bit-identical
    # to ``r + F`` (signed zeros included) — one ufunc instead of two.
    _add(residual, flux, residual)
    # the folded FSUB (8) and FNEG (13) are still *booked*: the hardware
    # executes all 14 steps and Table 4 counts them
    engine.account_flux_column(residual.size)


def store_face_flux_column(
    engine: DsdEngine,
    scratch: FluxScratch,
    p_k: np.ndarray,
    p_l: np.ndarray,
    z_k: np.ndarray,
    z_l: np.ndarray,
    rho_k: np.ndarray,
    rho_l: np.ndarray,
    lam_k: np.ndarray,
    lam_l: np.ndarray,
    trans: np.ndarray,
    flux: np.ndarray,
    *,
    gravity: float,
) -> None:
    """Write one direction's fluxes ``F_KL`` into *flux*; the caller folds.

    :func:`compute_face_flux_column` up to step 12, whose multiply lands
    in *flux* rather than in scratch.  For a backend that adds a column
    to its residual later, in an order of its own (the fused backend's
    fold program); all 14 steps are booked, the deferred 13-14 included.
    """
    _check_shape(scratch, flux)
    face_flux(
        scratch, p_k, p_l, z_k, z_l, rho_k, rho_l, lam_k, lam_l, trans, flux,
        gravity,
    )
    engine.account_flux_column(flux.size)


def _check_shape(scratch: FluxScratch, target: np.ndarray) -> None:
    if scratch.dp.shape != target.shape:
        raise ValueError(
            f"scratch shape {scratch.dp.shape} does not match target "
            f"{target.shape}"
        )


def evaluate_density_column(
    engine: DsdEngine,
    pressure: np.ndarray,
    density: np.ndarray,
    *,
    compressibility: float,
    reference_density: float,
    reference_pressure: float,
) -> None:
    """Eq. 5 over a PE's pressure column, once per application.

    The exponential is accounted as auxiliary cycles (``AUX_FEXP``) —
    Table 4 covers the flux kernel only (140 FLOPs/cell), consistent with
    the paper's per-cell accounting.
    """
    n = density.size
    _sub(pressure, reference_pressure, density)
    _mul(density, compressibility, density)
    np.exp(density, density)
    _mul(density, reference_density, density)
    engine.aux("FEXP", n, cycles_per_element=DENSITY_EXP_CYCLES_PER_ELEMENT)
