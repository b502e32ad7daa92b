"""Phase-accurate vectorized simulation of the dataflow kernel.

The event-driven simulator (:mod:`repro.dataflow.driver`) executes the
full message-level protocol but is only tractable on small fabrics in
Python.  This module runs the *same DSD instruction sequence* over
whole-fabric arrays, producing numerics identical to the per-PE kernel
(identical operations in identical order per element) and the same
fabric-wide instruction and traffic totals, at NumPy speed.

Each cell folds its faces in the phase order of Sec. 5: the vertical
(in-memory) fluxes after density, then the cardinal exchange (one hop
per word), then the diagonal one (two hops).  The driver is the core
slab sweep (:mod:`repro.core.sweep`, shared with fused, cluster and
par) with UP, DOWN and that exchange plan as its fold program, every
step a ``None`` mask: one kernel per X-Y face pair stores its fluxes,
reading the neighbour's ``(p, rho)`` in place one flat shift away, and
each step adds them to the residual, or subtracts them shifted for the
reciprocal connection, bit for bit what that connection's own kernel
would add.  The fabric's halo moves are booked by ``PaddedSweep.book``,
not executed: a copy would hand the kernel the same values.  ``run``
batches its applications; ``run_application`` is a batch of one.

With ``inf`` / ``NaN`` pressure cells, a cell whose per-face residual is
finite keeps its bytes and a non-finite one stays non-finite: a halo
face contributes ``+-inf * 0 = NaN`` only to a cell whose real faces are
non-finite already, and a cell whose faces are all finite reads only
fluxes computed from finite operands.
"""

from __future__ import annotations

import numpy as np

from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import VERTICAL
from repro.core.transmissibility import Transmissibility
from repro.dataflow.padded import LockstepReport, LockstepRunResult, PaddedSweep

__all__ = ["LockstepWseSimulation", "LockstepReport", "LockstepRunResult"]


class LockstepWseSimulation(PaddedSweep):
    """Vectorized whole-fabric execution of the dataflow flux program.

    Like :class:`~repro.ir.fused.FusedFluxComputation` it takes its
    program as a flux-program IR (:func:`repro.ir.builder.derive_ir`)
    and nothing that restates it; the IR's exchange plan is its fold
    order.  An IR with ``compute_fluxes=False`` reproduces the comm-only
    accounting of the paper's Table 3 experiment.
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        trans: Transmissibility | None = None,
        *,
        ir,
        record=None,
    ) -> None:
        program = [(conn, None) for conn in VERTICAL] + [
            (conn, None) for conns, _hops, _phase in ir.exchange_plan for conn in conns
        ]
        super().__init__(
            mesh, fluid, trans, ir, program, "lockstep", halo_copies=True, record=record
        )

    def run_application(self, pressure: np.ndarray) -> np.ndarray:
        """One application of Algorithm 1; returns the residual field."""
        return self.run([pressure]).residual
