"""The fused backend: the event fold class at whole-array speed.

Instead of simulating one message at a time (event), fused batches all
applications of a run along a leading axis and runs the core slab sweep
of :mod:`repro.core.sweep` (shared with lockstep, cluster and par;
DESIGN.md §16): the ufunc count grows with the number of z-slabs (at
most ``nz``), not with the number of applications.  What fused adds is
its fold program, UP, DOWN and then masked X-Y steps derived from the
fold schedule of :mod:`repro.ir.schedule`.  That schedule is
the one a program with Sec. 5.3.1 buffer reuse has, so fused lowers
such programs only; the event backend runs the others.

Bit-identity with the event backend (same conform fold class) comes from
two properties:

* Every kernel call issues exactly the element-wise operations of
  :func:`repro.core.kernels.face_flux` on the same values — element-wise
  ufuncs over a batched array produce the same bits per element as
  per-column calls.  X-Y faces take the kernel's collapsed branch
  exactly like the event backend's receive task does.
* Each face pair's kernel, the vertical pair's too, stores its fluxes
  into one contribution buffer, and the IR's fold program
  (:func:`repro.ir.schedule.fold_program`: a common supersequence of
  the <= 16 class orders) adds them, or subtracts the reciprocal's
  shifted fluxes, under lane masks that select the classes whose next
  arrival is that connection.  So every PE sees its own arrivals, in
  its own order, and nothing else.  The contribution holds ``F``
  itself, as the event backend's ``r += F`` sees it; ``r - F`` is the
  reciprocal's ``r += -F`` up to the sign of a zero flux, which the
  residual cannot show.

Fabric traffic is accounted arithmetically from the IR's exchange plan;
no halo copies are performed or booked.  The masked fold passes buy the
event fold class's bytes; the shared contribution buffers halve the
kernel passes of every backend on the sweep.

**Non-finite input.**  With ``inf`` / ``NaN`` pressure cells, every cell
whose event residual is finite gets event's bytes and every cell that
is non-finite there is non-finite here; the batch's other fields are
event's bytes (the contract of :mod:`repro.core.sweep`).  A flux
computed from a non-finite operand is non-finite from either side of
its face, so where a face is evaluated cannot move a cell between the
two sets.
"""

from __future__ import annotations

import numpy as np

from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import VERTICAL, Connection
from repro.core.transmissibility import Transmissibility
from repro.dataflow.padded import LockstepReport as FusedReport
from repro.dataflow.padded import LockstepRunResult as FusedRunResult
from repro.dataflow.padded import PaddedSweep
from repro.ir.schema import FabricProgramIR
from repro.ir.schedule import fold_program, schedule_classes
from repro.obs.spans import span

__all__ = ["FusedFluxComputation", "FusedReport", "FusedRunResult"]


class FusedFluxComputation(PaddedSweep):
    """IR-lowered whole-array flux computation.

    Built by :func:`repro.ir.lower.lower_to_fused`, which checks that
    the flux-program :class:`FabricProgramIR`
    (:func:`repro.ir.builder.derive_ir`) can be lowered here; its
    ``params`` block carries the dtype and the program options, and a
    program without buffer reuse is refused here, where its fold
    schedule would be chosen.
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        trans: Transmissibility | None = None,
        *,
        ir: FabricProgramIR,
        record=None,
    ) -> None:
        if not ir.params["reuse_buffers"]:
            raise ValueError(
                "fused backend lowers buffer-reuse programs only (its fold "
                "schedule is derived for reuse_buffers=True; lower a "
                "reuse_buffers=False IR to the event backend)"
            )
        # the fold schedule amortizes like a backend compile step
        with span("fused.schedule"):
            classes = schedule_classes(mesh.nx, mesh.ny)
            # plane-periodic and batch-independent
            fold = _fold_steps(classes, (mesh.ny + 2, mesh.nx + 2), ir.params["dtype"])
        program = [(conn, None) for conn in VERTICAL] + fold
        super().__init__(
            mesh, fluid, trans, ir, program, "fused", halo_copies=False, record=record
        )


def _fold_steps(classes, plane_shape, dtype) -> list[tuple[Connection, np.ndarray]]:
    """The fold program as ``(connection, lane mask)`` steps.

    A mask is one halo-padded plane of same-width unsigned words, flat:
    all ones on the lanes of the step's member classes, zero on every
    other lane, halo lanes included.
    """
    steps = []
    for name, members in fold_program(classes):
        mask = np.zeros(plane_shape, f"u{np.dtype(dtype).itemsize}")
        interior = mask[1:-1, 1:-1]
        for member in members:
            _order, ys, xs = classes[member]
            interior[ys, xs] = np.iinfo(mask.dtype).max
        steps.append((Connection[name], mask.ravel()))
    return steps

