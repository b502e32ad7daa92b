"""Matrix-free Jacobian action on the wafer-scale fabric (paper Sec. 8).

"The FV flux computation is naturally extendable to a matrix-free
operator FV operator for use in an iterative Krylov method which would
solve equation (2). ... the availability of a performant matrix-free FV
operator on the Cerebras architecture will be an important step."

This module builds that operator: the Jacobian action ``J @ v`` runs as
a distributed fabric program with the *same communication machinery* as
the flux kernel (:class:`~repro.dataflow.exchange.ColumnExchange`,
installing the IR of :func:`~repro.ir.builder.derive_exchange`) — each
PE holds its Z column of ``v`` plus the precomputed per-face
derivative columns, exchanges ``v`` with its eight X-Y neighbours over
the cardinal/diagonal channels, and accumulates

    (J v)_K = A_K v_K - sum_L (dF/dp_K v_K + dF/dp_L v_L)

on arrival (A is the accumulation diagonal; the sign follows the
residual convention of :mod:`repro.solver.operators`).  Vertical
connections stay in PE memory.  Every PE holds the same columns: the
memory map is installed fabric-wide
(:meth:`~repro.wse.fabric.Fabric.install_memory`), and the host writes
the coefficient fields and ``v`` and reads ``J v`` through ``(nz, ny,
nx)`` views of its PE-major block, never PE by PE.

Krylov-level reductions (dot products, norms) are performed by the host,
which is how a first CS-2 port would look: the fabric supplies matvecs,
the host runs the short recurrences.
"""

from __future__ import annotations

import numpy as np

from repro.core.stencil import ALL_CONNECTIONS, Connection, opposite
from repro.core.transmissibility import CANONICAL_CONNECTIONS
from repro.dataflow.exchange import ColumnExchange
from repro.ir.builder import derive_exchange
from repro.wse.fabric import Fabric
from repro.wse.memory import column_plan
from repro.wse.runtime import EventRuntime

__all__ = ["WseMatrixFreeJacobian"]

#: Every PE's Z columns, in allocation order: four working columns and
#: the diagonal, then one off-diagonal coefficient column per connection.
_STATE = ("v", "out", "recv", "tmp", "diag")
_COLUMNS = (*_STATE, *(f"offd_{conn.name}" for conn in ALL_CONNECTIONS))


class WseMatrixFreeJacobian:
    """The implicit Jacobian action as a fabric program.

    Built from a host-side :class:`MatrixFreeJacobian` (which carries the
    analytic per-face derivatives at the current Newton iterate); every
    :meth:`matvec` call executes one full communication round on the
    event-driven simulator.

    Parameters
    ----------
    residual:
        The implicit residual operator (mesh, fluid, dt, trans).
    pressure:
        Linearization point ``p`` of the Newton iteration.
    """

    def __init__(self, residual: FlowResidual, pressure: np.ndarray) -> None:
        # Imported here so that `import repro.dataflow` (every flux run)
        # does not load the implicit solver package.
        from repro.solver.operators import MatrixFreeJacobian

        self.mesh = mesh = residual.mesh
        host = MatrixFreeJacobian(residual, pressure)
        self._host = host

        # --- fabric setup: the flux kernel's exchange, verbatim, and one
        # memory map for every PE (Sec. 5.1) -----------------------------
        self.fabric = Fabric(mesh.nx, mesh.ny)
        self.exchange = ColumnExchange(
            self.fabric,
            mesh.nx,
            mesh.ny,
            start=self._start_pe,
            payload=lambda pe: pe.state["v"],
            on_data=self._on_data,
            ir=derive_exchange(mesh.nx, mesh.ny),
        )
        self.colors = self.exchange.colors
        pes = self.exchange.pes
        columns = self.fabric.install_memory(
            column_plan(_COLUMNS, mesh.nz, np.float64),
            [pe.coord for _x, _y, pe in pes],
        )
        for (_x, _y, pe), *arrays in zip(pes, *columns.values()):
            pe.state.update(zip(_STATE, arrays))
            pe.state["offd"] = dict(zip(ALL_CONNECTIONS, arrays[len(_STATE):]))
        #: ``name -> (nz, ny, nx)`` view of every PE's column at once: row
        #: i of a block column is the PE of logical cell (i % nx, i // nx)
        self._fields = fields = {
            name: column.T.reshape(mesh.shape_zyx)
            for name, column in columns.items()
        }

        # Expand the face derivatives into full per-cell fields, written
        # straight into PE memory: row K of face (K, L) carries -dk at K
        # and -dl at L's column; row L carries +dk at K's column and +dl
        # at L.  Reorganize into per-connection "coefficient of my v"
        # (diag) and "coefficient of the neighbour's v" (offd), both
        # indexed at the owning cell.
        diag = fields["diag"]
        diag[...] = host._acc_diag
        offd = {conn: fields[f"offd_{conn.name}"] for conn in ALL_CONNECTIONS}
        for conn, (local, neigh, dk, dl) in zip(
            CANONICAL_CONNECTIONS, host._faces
        ):
            # row K (local): -dk * v_K  - dl * v_L
            diag[local] -= dk
            offd[conn][local] -= dl
            # row L (neigh): +dk * v_K  + dl * v_L
            diag[neigh] += dl
            offd[opposite(conn)][neigh] += dk
        self.matvec_count = 0
        self.total_device_cycles = 0.0

    # ------------------------------------------------------------------ #
    def _on_data(self, pe, msg, conn: Connection) -> None:
        recv, tmp, out = pe.state["recv"], pe.state["tmp"], pe.state["out"]
        pe.dsd.fmovs(recv, msg.payload, from_fabric=True)
        pe.dsd.fmuls(tmp, recv, pe.state["offd"][conn])
        pe.dsd.fadds(out, out, tmp)

    def _start_pe(self, pe) -> None:
        v, out, tmp = pe.state["v"], pe.state["out"], pe.state["tmp"]
        offd = pe.state["offd"]
        nz = self.mesh.nz
        pe.dsd.fmuls(out, v, pe.state["diag"])
        if nz >= 2:
            # vertical neighbours live in PE memory
            pe.dsd.fmuls(tmp[: nz - 1], v[1:], offd[Connection.UP][: nz - 1])
            pe.dsd.fadds(out[: nz - 1], out[: nz - 1], tmp[: nz - 1])
            pe.dsd.fmuls(tmp[1:], v[: nz - 1], offd[Connection.DOWN][1:])
            pe.dsd.fadds(out[1:], out[1:], tmp[1:])

    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Unknown count."""
        return self.mesh.num_cells

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``J @ v`` computed by one fabric communication round."""
        self._fields["v"][...] = np.reshape(v, self.mesh.shape_zyx)
        self.total_device_cycles += self.exchange.run(EventRuntime(self.fabric))
        self.matvec_count += 1
        return self._fields["out"].copy().reshape(np.shape(v))

    def diagonal(self) -> np.ndarray:
        """The Jacobian diagonal (host-side copy, for Jacobi scaling)."""
        return self._fields["diag"].copy()

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)
