"""The fused backend: the event fold class at whole-array speed.

Instead of simulating one message at a time (event), fused batches all
applications of a run along a leading axis and runs the slab sweep of
:mod:`repro.dataflow.padded` (shared with lockstep; DESIGN.md §16): the
ufunc count grows with the number of z-slabs (at most ``nz``), not with
the number of applications.  What fused adds is its fold program, derived
from the fold schedule of :mod:`repro.ir.schedule`.  That schedule is
the one a program with Sec. 5.3.1 buffer reuse has, so fused lowers
such programs only; the event backend runs the others.

Bit-identity with the event backend (same conform fold class) comes from
two properties:

* Every kernel call issues exactly the element-wise operations of
  :mod:`repro.dataflow.flux_pe` on the same values — element-wise
  ufuncs over a batched array produce the same bits per element as
  per-column calls.  X-Y faces take the kernel's collapsed branch
  exactly like the event backend's receive task does.
* Each X-Y kernel stores its fluxes into a contribution buffer, and the
  IR's fold program (:func:`repro.ir.schedule.fold_program`: a common
  supersequence of the <= 16 class orders) adds them under lane masks
  that select the classes whose next arrival is that connection.  So
  every PE sees its own arrivals, in its own order, and nothing else.
  The contribution holds ``F`` itself, signed zeros included, as the
  event backend's ``r += F`` sees it.

Fabric traffic is accounted arithmetically from the IR's exchange plan;
no halo copies are performed or booked.  The contribution buffers and
masked fold passes buy the event fold class's bytes, not speed.
"""

from __future__ import annotations

import numpy as np

from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import Connection
from repro.core.transmissibility import Transmissibility
from repro.dataflow.padded import LockstepReport as FusedReport
from repro.dataflow.padded import LockstepRunResult as FusedRunResult
from repro.dataflow.padded import PaddedFlatLayout, PaddedSweep
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
        layout = PaddedFlatLayout(mesh, fluid, trans, ir, halo_copies=False)
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
            fold = _fold_steps(classes, layout.padded_shape[1:], layout.dtype)
        super().__init__(layout, fold, "fused", record=record)


def _fold_steps(classes, plane_shape, dtype) -> list[tuple[Connection, np.ndarray]]:
    """The fold program as ``(connection, lane mask)`` steps.

    A mask is one halo-padded plane of same-width unsigned words, flat:
    all ones on the lanes of the step's member classes, zero on every
    other lane, halo lanes included.
    """
    steps = []
    for name, members in fold_program(classes):
        mask = np.zeros(plane_shape, f"u{dtype.itemsize}")
        interior = mask[1:-1, 1:-1]
        for member in members:
            _order, ys, xs = classes[member]
            interior[ys, xs] = np.iinfo(mask.dtype).max
        steps.append((Connection[name], mask.ravel()))
    return steps

