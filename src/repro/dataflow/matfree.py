"""Matrix-free Jacobian action on the wafer-scale fabric (paper Sec. 8).

"The FV flux computation is naturally extendable to a matrix-free
operator FV operator for use in an iterative Krylov method which would
solve equation (2). ... the availability of a performant matrix-free FV
operator on the Cerebras architecture will be an important step."

This module builds that operator: the Jacobian action ``J @ v`` runs as
a distributed fabric program with the *same communication pattern* as
the flux kernel — each PE holds its Z column of ``v`` plus the
precomputed per-face derivative columns, exchanges ``v`` with its eight
X-Y neighbours over the cardinal/diagonal channels, and accumulates

    (J v)_K = A_K v_K - sum_L (dF/dp_K v_K + dF/dp_L v_L)

on arrival (A is the accumulation diagonal; the sign follows the
residual convention of :mod:`repro.solver.operators`).  Vertical
connections stay in PE memory.

Krylov-level reductions (dot products, norms) are performed by the host,
which is how a first CS-2 port would look: the fabric supplies matvecs,
the host runs the short recurrences.
"""

from __future__ import annotations

import numpy as np

from repro.core.stencil import (
    ALL_CONNECTIONS,
    Connection,
    XY_CONNECTIONS,
    interior_slices,
    opposite,
)
from repro.dataflow.cardinal import (
    CARDINAL_CHANNELS,
    is_step1_sender,
    switch_positions_for,
)
from repro.dataflow.diagonal import DIAGONAL_CHANNELS, static_position
from repro.wse.color import ColorAllocator
from repro.wse.fabric import Fabric
from repro.wse.packet import KIND_CONTROL
from repro.wse.runtime import EventRuntime

__all__ = ["WseMatrixFreeJacobian"]


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

        self.mesh = residual.mesh
        host = MatrixFreeJacobian(residual, pressure)
        self._host = host
        shape = self.mesh.shape_zyx
        nz = self.mesh.nz

        # Expand the face derivatives into full per-cell fields:
        # row K of face (K, L) carries -dk at K and -dl at L's column;
        # row L carries +dk at K's column and +dl at L.  Reorganize into
        # per-connection "coefficient of my v" (diag) and "coefficient of
        # the neighbour's v" (offd), both indexed at the owning cell.
        self._diag = np.array(
            np.broadcast_to(host._acc_diag, shape), dtype=np.float64
        )
        self._offd: dict[Connection, np.ndarray] = {
            conn: np.zeros(shape) for conn in ALL_CONNECTIONS
        }
        from repro.core.transmissibility import CANONICAL_CONNECTIONS

        for conn, (local, neigh, dk, dl) in zip(
            CANONICAL_CONNECTIONS, host._faces
        ):
            # row K (local): -dk * v_K  - dl * v_L
            self._diag[local] -= dk
            self._offd[conn][local] -= dl
            # row L (neigh): +dk * v_K  + dl * v_L
            self._diag[neigh] += dl
            self._offd[opposite(conn)][neigh] += dk

        # --- fabric setup: the flux kernel's channels, verbatim -------
        self.fabric = Fabric(self.mesh.nx, self.mesh.ny)
        self.colors = ColorAllocator()
        self._card_color = {}
        self._diag_color = {}
        w, h = self.fabric.width, self.fabric.height
        for channel in CARDINAL_CHANNELS:
            color = self.colors.allocate(channel.name)
            self._card_color[channel] = color
            self.fabric.configure_color(
                color,
                lambda c, _ch=channel: switch_positions_for(c, _ch, w, h)[0],
                initial_for=lambda c, _ch=channel: switch_positions_for(
                    c, _ch, w, h
                )[1],
            )
        for channel in DIAGONAL_CHANNELS:
            color = self.colors.allocate(channel.name)
            self._diag_color[channel] = color
            pos = static_position(channel)
            self.fabric.configure_color(color, lambda c, _p=pos: [_p])

        for pe in self.fabric.pes():
            x, y = pe.coord
            mem = pe.memory
            pe.state["v"] = mem.alloc_array("v", nz, np.float64)
            pe.state["out"] = mem.alloc_array("out", nz, np.float64)
            pe.state["recv"] = mem.alloc_array("recv", nz, np.float64)
            pe.state["tmp"] = mem.alloc_array("tmp", nz, np.float64)
            pe.state["diag"] = mem.alloc_array("diag", nz, np.float64)
            pe.state["diag"][:] = self._diag[:, y, x]
            offd = {}
            for conn in ALL_CONNECTIONS:
                col = mem.alloc_array(f"offd_{conn.name}", nz, np.float64)
                col[:] = self._offd[conn][:, y, x]
                offd[conn] = col
            pe.state["offd"] = offd
            pe.state["expected"] = sum(
                1
                for conn in XY_CONNECTIONS
                if self.fabric.contains(
                    (x + conn.offset[0], y + conn.offset[1])
                )
            )
        self._bind_tasks()
        self.matvec_count = 0
        self.total_device_cycles = 0.0

    # ------------------------------------------------------------------ #
    def _bind_tasks(self) -> None:
        for channel in CARDINAL_CHANNELS:
            color = self._card_color[channel]
            self.fabric.bind_all(
                color,
                lambda rt, pe, msg, _c=channel.delivers: self._on_data(pe, msg, _c),
            )
            self.fabric.bind_all(
                color,
                lambda rt, pe, msg, _ch=channel: self._maybe_send(rt, pe, _ch),
                control=True,
            )
        for channel in DIAGONAL_CHANNELS:
            color = self._diag_color[channel]
            self.fabric.bind_all(
                color,
                lambda rt, pe, msg, _c=channel.delivers: self._on_data(pe, msg, _c),
            )

    def _on_data(self, pe, msg, conn: Connection) -> None:
        recv, tmp, out = pe.state["recv"], pe.state["tmp"], pe.state["out"]
        pe.dsd.fmovs(recv, msg.payload, from_fabric=True)
        pe.dsd.fmuls(tmp, recv, pe.state["offd"][conn])
        pe.dsd.fadds(out, out, tmp)
        pe.state["received"] = pe.state.get("received", 0) + 1

    def _maybe_send(self, rt, pe, channel) -> None:
        color = self._card_color[channel]
        sent = pe.state.setdefault("sent", set())
        if color in sent:
            return
        sent.add(color)
        at = rt.pe_send_time(pe)
        rt.inject(pe.coord, color, pe.state["v"], at=at)
        rt.inject(pe.coord, color, kind=KIND_CONTROL, at=at)

    def _start_pe(self, rt, pe) -> None:
        start = max(rt.now, pe.busy_until)
        before = pe.dsd.cycles
        pe.exec_start = start
        pe.cycles_at_start = before

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

        at = rt.pe_send_time(pe)
        for channel in DIAGONAL_CHANNELS:
            rt.inject(pe.coord, self._diag_color[channel], v, at=at)
        w, h = self.fabric.width, self.fabric.height
        for channel in CARDINAL_CHANNELS:
            if is_step1_sender(pe.coord, channel, w, h):
                self._maybe_send(rt, pe, channel)
        pe.busy_until = start + (pe.dsd.cycles - before)

    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Unknown count."""
        return self.mesh.num_cells

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``J @ v`` computed by one fabric communication round."""
        v3 = np.asarray(v, dtype=np.float64).reshape(self.mesh.shape_zyx)
        for pe in self.fabric.pes():
            x, y = pe.coord
            pe.state["v"][:] = v3[:, y, x]
            pe.state["sent"] = set()
            pe.state["received"] = 0
        rt = EventRuntime(self.fabric)
        for pe in self.fabric.pes():
            rt.schedule(0.0, lambda _pe=pe, _rt=rt: self._start_pe(_rt, _pe))
        rt.run()
        out = np.zeros(self.mesh.shape_zyx)
        for pe in self.fabric.pes():
            if pe.state["received"] != pe.state["expected"]:
                raise RuntimeError(
                    f"PE {pe.coord}: {pe.state['received']} of "
                    f"{pe.state['expected']} v-columns arrived"
                )
            x, y = pe.coord
            out[:, y, x] = pe.state["out"]
            pe.busy_until = 0.0
        self.matvec_count += 1
        self.total_device_cycles += rt.now
        return out.reshape(np.asarray(v).shape)

    def diagonal(self) -> np.ndarray:
        """The Jacobian diagonal (host-side copy, for Jacobi scaling)."""
        return self._diag.copy()

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)
