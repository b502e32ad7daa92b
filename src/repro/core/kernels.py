"""Per-face TPFA flux kernels (paper Eqs. 3-4).

One production statement and two independent float64 restatements:

* :func:`face_flux` — steps 1-12 of the per-PE DSD sequence (the table
  is at :meth:`repro.wse.dsd.DsdEngine.account_flux_column`, which books
  it); its callers are the core slab sweep (:mod:`repro.core.sweep`:
  fused, lockstep, gpu, cluster and par), the event program's round
  hooks, and the reference fold (:mod:`repro.core.flux`, the implicit
  solver's residual) with the unstructured residual.
* :func:`face_flux_scalar` — one face at a time, the test suite's
  independent check of the statement's arithmetic.
* :func:`face_flux_with_derivatives` — flux plus analytic derivatives with
  respect to the two cell pressures (upwind direction frozen), used by the
  implicit solver's Jacobian (extension, paper Sec. 8).

All variants share the convention of Eq. 3:

    F_KL   = Upsilon_KL * lambda_upw * dPhi_KL
    dPhi_KL = p_L - p_K + rho_avg * g * (z_L - z_K)

with the upwinding of Eq. 4 exactly as printed (``rho_K`` when
``dPhi_KL > 0``, else ``rho_L``).  They round differently: everything
that folds :func:`face_flux` in the same order agrees bitwise, the
restatements agree with it to rounding.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FluxScratch",
    "face_flux",
    "upwind_select",
    "face_flux_scalar",
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

# module-level ufunc bindings: the statement issues ~14 ufunc calls per
# column, each without a global or attribute load
_sub = np.subtract
_mul = np.multiply
_add = np.add
_gt = np.greater
_neg = np.negative
_xor = np.bitwise_xor
_and = np.bitwise_and
_copyto = np.copyto


class FluxScratch:
    """The four shared scratch columns of :func:`face_flux`, and its
    select buffer.

    On the fabric, one set per PE column in the PE memory (buffer reuse,
    Sec. 5.3.1) serves every face direction, cut to a direction's faces
    (``nz - 1`` vertical, ``nz`` X-Y) before the call.  ``dp``, ``a``
    and ``b`` have the faces' shape; ``gz`` anything the faces'
    elevations broadcast to.  ``sel`` is an unsigned-integer array of
    dp's shape and item width, contiguous along its last axis and an
    allocation of its own: the upwind select compares and negates
    there, NumPy 2.4's ``negative`` is wrong on unsigned views strided
    by four elements (DESIGN.md §16), and the copy out of it must not
    overlap the other columns.  The statement allocates nothing.
    """

    __slots__ = ("dp", "gz", "a", "b", "sel")

    #: Scratchpad names of the four columns, in constructor order.
    NAMES = ("scratch_dp", "scratch_gz", "scratch_a", "scratch_b")

    def __init__(self, dp, gz, a, b, sel):
        self.dp, self.gz, self.a, self.b, self.sel = dp, gz, a, b, sel

    @classmethod
    def empty(cls, shape, dtype) -> "FluxScratch":
        """Fresh scratch for faces of *shape* in *dtype*."""
        dtype = np.dtype(dtype)
        return cls(
            *(np.empty(shape, dtype) for _ in cls.NAMES),
            np.empty(shape, f"u{dtype.itemsize}"),
        )


def face_flux(
    s: FluxScratch,
    p_k, p_l, z_k, z_l, rho_k, rho_l, lam_k, lam_l, trans, flux, gravity,
) -> None:
    """Steps 1-12 of the DSD sequence on the scratch *s*; the last
    multiply writes ``F_KL`` into *flux* (which may be ``s.dp``, or
    ``s.a`` on the collapsed branch).  ``lam`` is the cells' mobility
    ``rho * (1/mu)`` (:meth:`~repro.core.fluid.FluidProperties.mobility`,
    formed once per cell): selecting it is bit-identical to selecting
    ``rho`` and multiplying by ``1/mu`` (step 10), one pass per face less.

    The branch is chosen by **object identity**: ``z_l is z_k`` selects
    the collapsed X-Y sequence (1 subtract, 2 multiplies), anything else
    the full one (2 subtracts, 6 multiplies) — same observable bytes,
    seven more passes.  Two equal slices of one array are two objects.
    """
    dp, gz, a, b = s.dp, s.gz, s.a, s.b
    # out is passed positionally throughout: it skips the ufunc keyword
    # parsing, which is measurable at this call rate on 8-element columns
    _sub(p_l, p_k, dp)                              # 1: FSUB  dp
    if z_l is z_k:
        # X-Y neighbours share the elevation column, so steps 2-7 add a
        # signed zero to dp (finite densities): dphi == dp except for the
        # sign of a zero, which a residual accumulated from +0.0 cannot
        # show.  The hardware still runs the full sequence.  dp doubles
        # as dphi; the select (8-10) targets ``a`` so dphi survives 12.
        upwind_select(s.sel, dp, lam_k, lam_l, a)
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
    upwind_select(s.sel, b, lam_k, lam_l, dp)       # 8-10: lambda_upw
    _mul(dp, trans, dp)                             # 11: FMUL Upsilon*lambda
    _mul(dp, b, flux)                               # 12: FMUL F = ...*dphi


def upwind_select(sel, dphi, lam_k, lam_l, out) -> None:
    """Eq. 4: ``out = lam_k if dphi > 0 else lam_l``, without a masked copy.

    Steps 8-9 of the DSD sequence (FSUB ``cmp = -dphi``, SEL) with the
    FSUB folded into the predicate — ``(0 - dphi) < 0`` iff ``dphi > 0``
    exactly, signed zeros and NaN included — and step 10 (``*= 1/mu``)
    hoisted into *lam*.  On same-width unsigned views,
    ``lam_L ^ ((lam_K ^ lam_L) & m)`` with ``m = -(dphi > 0)`` (all ones
    or zero) returns the bits of exactly one operand per element — the
    masked copy's result for every input, NaN included — in three
    integer passes after the mask.

    The compare writes one bool per element into the first bytes of
    *sel*, which ``negative`` turns into 0 or -1 as ``int8`` and a
    signed copy widens into *out*, where the select ends.  A compare
    straight into an unsigned buffer made NumPy buffer a bool-to-unsigned
    cast, allocating a temporary on every call; the copy allocates
    nothing as long as *sel* and *out* are separate arrays (NumPy copies
    the source whole when their bounds overlap).
    """
    u = sel.dtype
    k, l, o = lam_k.view(u), lam_l.view(u), out.view(u)
    flags = sel.view(np.int8)[..., : sel.shape[-1]]
    _gt(dphi, 0.0, flags.view(np.bool_))
    _neg(flags, flags)
    _copyto(out.view(f"i{u.itemsize}"), flags)
    _xor(k, l, sel)
    _and(sel, o, o)
    _xor(o, l, o)


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
