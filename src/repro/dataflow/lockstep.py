"""Phase-accurate vectorized simulation of the dataflow kernel.

The event-driven simulator (:mod:`repro.dataflow.driver`) executes the
full message-level protocol but is only tractable on small fabrics in
Python.  This module runs the *same DSD instruction sequence* over
whole-fabric arrays, producing numerics identical to the per-PE kernel
(identical operations in identical order per element) and the same
fabric-wide instruction and traffic totals, at NumPy speed.

Each cell folds its faces in the phase order of Sec. 5: the vertical
(in-memory) fluxes after density, then the cardinal exchange (one hop
per word), then the diagonal one (two hops).  The driver is the slab
sweep of :mod:`repro.dataflow.padded` (shared with fused) with that
exchange plan as its fold program, every step a ``None`` mask: each X-Y
kernel accumulates straight into the residual, reading the neighbour's
``(p, rho)`` in place one flat shift away.  The fabric's halo moves are
booked by ``PaddedFlatLayout.book``, not executed: a copy would hand the
kernel the same values.  ``run`` batches its applications;
``run_application`` is a batch of one.

With ``inf`` / ``NaN`` pressure cells, a cell whose per-face residual is
finite keeps its bytes and a non-finite one stays non-finite: a halo
face contributes ``+-inf * 0 = NaN`` only to a cell whose real faces are
non-finite already.
"""

from __future__ import annotations

import numpy as np

from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import EXCHANGE_PLAN
from repro.core.transmissibility import Transmissibility
from repro.dataflow.padded import LockstepReport, LockstepRunResult, PaddedFlatLayout, PaddedSweep

__all__ = ["LockstepWseSimulation", "LockstepReport", "LockstepRunResult"]


class LockstepWseSimulation(PaddedSweep):
    """Vectorized whole-fabric execution of the dataflow flux program.

    Parameters match :class:`~repro.dataflow.driver.WseFluxComputation`
    where applicable.  ``compute_fluxes=False`` reproduces the comm-only
    accounting of the paper's Table 3 experiment.
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        trans: Transmissibility | None = None,
        *,
        dtype=np.float32,
        vectorized: bool = True,
        compute_fluxes: bool = True,
        record=None,
        ir=None,
    ) -> None:
        #: Fold-order contract: ``(connections, hops, phase)`` per
        #: communication phase — the IR's exchange plan, else the
        #: paper's cardinal-then-diagonal :data:`EXCHANGE_PLAN`.
        self.exchange_plan = ir.exchange_plan if ir is not None else EXCHANGE_PLAN
        layout = PaddedFlatLayout(
            mesh, fluid, trans, dtype, self.exchange_plan,
            vectorized=vectorized, compute_fluxes=compute_fluxes, halo_copies=True,
        )
        fold = [(conn, None) for conns, _hops, _phase in self.exchange_plan for conn in conns]
        super().__init__(layout, fold, "lockstep", record=record, ir=ir)

    def run_application(self, pressure: np.ndarray) -> np.ndarray:
        """One application of Algorithm 1; returns the residual field."""
        return self.run([pressure]).residual
