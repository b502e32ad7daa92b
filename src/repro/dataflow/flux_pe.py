"""The per-PE TPFA flux kernel, written in DSD vector instructions.

This is the dataflow analogue of the CSL kernel (paper Secs. 5.3, 7.3):
one call computes a whole column of fluxes for one face direction and
accumulates them into the PE's local residual.  The instruction sequence
is a canonical decomposition of Eqs. 3-4 that matches the paper's
accounting *exactly* — per flux: 6 FMUL, 4 FSUB, 1 FADD, 1 FMA, 1 FNEG
(14 FLOPs) — so Table 4 is regenerated by measuring this code.

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
10    FMUL   dp  *= 1/mu             (upwinded mobility)
11    FMUL   dp  *= Upsilon
12    FMUL   dp  *= dphi             (F_KL)
13    FNEG   a    = -F
14    FSUB   r    = r - a            (residual accumulate)
====  =====  ==========================================
"""

from __future__ import annotations

import numpy as np

from repro.wse.dsd import DsdEngine

__all__ = [
    "FluxScratch",
    "compute_face_flux_column",
    "store_face_flux_column",
    "evaluate_density_column",
]

#: Modelled cost of the Eq. 5 exponential per element (cycles); the exp is
#: evaluated once per cell per application and is excluded from Table 4.
DENSITY_EXP_CYCLES_PER_ELEMENT = 12.0

# module-level ufunc bindings: the kernel issues ~14 ufunc calls per
# column, each without a global or attribute load
_sub = np.subtract
_mul = np.multiply
_add = np.add
_gt = np.greater
_neg = np.negative
_xor = np.bitwise_xor
_and = np.bitwise_and


class FluxScratch:
    """The four shared scratch columns of the flux kernel, and its select
    buffer.

    Whole arrays of the target's shape: one set per PE column in the PE
    memory (buffer reuse, Sec. 5.3.1) serves every face direction, and a
    caller cuts it to a direction's faces (``nz - 1`` vertical, ``nz``
    X-Y) before the call.  ``sel`` is the caller's unsigned-integer array
    of dp's shape and item width, contiguous along its last axis: the
    upwind select negates there, and NumPy 2.4's ``negative`` is wrong on
    unsigned views strided by four elements (DESIGN.md §16).  The kernel
    allocates nothing.
    """

    __slots__ = ("dp", "gz", "a", "b", "sel")

    #: Scratchpad names of the four columns, in constructor order.
    NAMES = ("scratch_dp", "scratch_gz", "scratch_a", "scratch_b")

    def __init__(
        self,
        dp: np.ndarray,
        gz: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        sel: np.ndarray,
    ):
        self.dp = dp
        self.gz = gz
        self.a = a
        self.b = b
        self.sel = sel


def compute_face_flux_column(
    engine: DsdEngine,
    scratch: FluxScratch,
    p_k: np.ndarray,
    p_l: np.ndarray,
    z_k: np.ndarray,
    z_l: np.ndarray,
    rho_k: np.ndarray,
    rho_l: np.ndarray,
    trans: np.ndarray,
    residual: np.ndarray,
    *,
    gravity: float,
    inv_viscosity: float,
) -> None:
    """Accumulate one direction's fluxes into *residual* (all length n).

    All arrays must be element-aligned views of length ``n``; *residual*
    is updated in place with ``r += F_KL``.

    The branch is chosen by **object identity**: ``z_l is z_k`` selects
    the collapsed X-Y sequence (1 subtract, 3 multiplies), anything else
    the full one (2 subtracts, 7 multiplies) — same observable bytes,
    seven more passes.  A caller whose neighbours share the elevation
    column must pass the same view object twice; two equal slices of one
    array are two objects and take the full path.

    The numpy operations issued are exactly the ones the
    :class:`~repro.wse.dsd.DsdEngine` instruction methods issue, in the
    same order on the same buffers (so results are bit-identical); the
    per-op engine wrappers are bypassed and the whole column is booked in
    one :meth:`~repro.wse.dsd.DsdEngine.account_flux_column` call, the
    booking the event backend's receive tasks make per halo while the
    arithmetic runs once per round (DESIGN.md §8 item 7).
    """
    _check_shape(scratch, residual)
    # F overwrites the scratch column that carried the upwinded mobility
    flux = scratch.a if z_l is z_k else scratch.dp
    _face_flux(
        scratch, p_k, p_l, z_k, z_l, rho_k, rho_l, trans, flux, gravity,
        inv_viscosity,
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
    trans: np.ndarray,
    flux: np.ndarray,
    *,
    gravity: float,
    inv_viscosity: float,
) -> None:
    """Write one direction's fluxes ``F_KL`` into *flux*; the caller folds.

    :func:`compute_face_flux_column` up to step 12, whose multiply lands
    in *flux* rather than in scratch.  For a backend that adds a column
    to its residual later, in an order of its own (the fused backend's
    fold program); all 14 steps are booked, the deferred 13-14 included.
    """
    _check_shape(scratch, flux)
    _face_flux(
        scratch, p_k, p_l, z_k, z_l, rho_k, rho_l, trans, flux, gravity,
        inv_viscosity,
    )
    engine.account_flux_column(flux.size)


def _check_shape(scratch: FluxScratch, target: np.ndarray) -> None:
    if scratch.dp.shape != target.shape:
        raise ValueError(
            f"scratch shape {scratch.dp.shape} does not match target "
            f"{target.shape}"
        )


def _face_flux(
    s, p_k, p_l, z_k, z_l, rho_k, rho_l, trans, flux, gravity, inv_viscosity
) -> None:
    """Steps 1-12 on the scratch columns *s*; the last multiply writes *flux*."""
    dp, gz, a, b = s.dp, s.gz, s.a, s.b
    # out is passed positionally throughout: it skips the ufunc keyword
    # parsing, which is measurable at this call rate on 8-element columns
    _sub(p_l, p_k, dp)                              # 1: FSUB  dp
    if z_l is z_k:
        # X-Y neighbours share the elevation column (same array object),
        # so steps 2-7 collapse: gz = z - z = +0 exactly for finite z,
        # rho * (+0) = signed zero, their sum and half-sum stay signed
        # zeros, and dphi = (signed zero) + dp == dp bit-for-bit in every
        # case that can reach the final residual (a residual accumulated
        # from +0.0 can never be -0.0, so the one divergent bit — the
        # sign of a zero dphi — is unobservable).  Requires finite
        # densities, which Eq. 5 guarantees.  The hardware still runs
        # the full sequence; account_flux_column books all 14 steps.
        # dp doubles as dphi, and the select (8-9) targets the otherwise
        # unused ``a`` so dphi survives for step 12.
        _bit_select(s.sel, dp, rho_k, rho_l, a)
        _mul(a, inv_viscosity, a)                   # 10: FMUL lambda_upw
        _mul(a, trans, a)                           # 11: FMUL Upsilon*lambda
        _mul(a, dp, flux)                           # 12: FMUL F = ...*dphi
        return
    _sub(z_l, z_k, gz)                              # 2: FSUB  dz
    _mul(gz, gravity, gz)                           # 3: FMUL  gz = g*dz
    _mul(rho_k, gz, a)                              # 4: FMUL  a = rho_K*gz
    _mul(rho_l, gz, b)                              # 5: FMUL  b = rho_L*gz
    _add(a, b, a)                                   # 6: FADD  s = a + b
    _mul(a, 0.5, b)                                 # 7: FMA   dphi = 0.5*s + dp
    _add(b, dp, b)
    # 8: FSUB cmp = -dphi; 9: SEL rho_upw (Eq. 4).  The FSUB is folded
    # into the predicate — ``(0 - dphi) < 0`` iff ``dphi > 0`` exactly
    # (incl. signed zeros and NaN) — and the select writes through a
    # scratch-owned buffer, so steps 8-9 allocate nothing.
    _bit_select(s.sel, b, rho_k, rho_l, dp)
    _mul(dp, inv_viscosity, dp)                     # 10: FMUL lambda_upw
    _mul(dp, trans, dp)                             # 11: FMUL Upsilon*lambda
    _mul(dp, b, flux)                               # 12: FMUL F = ...*dphi


def _bit_select(sel, dphi, rho_k, rho_l, out) -> None:
    """``out = rho_k if dphi > 0 else rho_l`` without a masked copy.

    On same-width unsigned views, ``rho_L ^ ((rho_K ^ rho_L) & m)`` with
    ``m = -(dphi > 0)`` (all ones or zero) returns the bits of exactly
    one operand per element — the masked copy's result for every input,
    NaN included — in four contiguous integer passes after the compare.
    """
    u = sel.dtype
    k, l, o = rho_k.view(u), rho_l.view(u), out.view(u)
    _gt(dphi, 0.0, sel)
    _neg(sel, sel)
    _xor(k, l, o)
    _and(o, sel, o)
    _xor(o, l, o)


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
