"""TTI wave propagation on the wafer-scale fabric.

Demonstrates the paper's Sec. 8 claim in code: the flux kernel's
communication machinery — the two-step cardinal switch protocol and the
two-hop diagonal flows — is reused *unchanged* (the same
:class:`~repro.dataflow.exchange.ColumnExchange`, installing the IR of
:func:`~repro.ir.builder.derive_exchange`) to drive a completely
different physics kernel that also needs diagonal neighbour data.  Only
the memory map — five Z columns on every PE — is this program's.

Each PE owns a Z column of the wavefield.  Per time step it

1. accumulates the local stencil parts (vertical second derivative and
   the centre coefficients of the horizontal terms),
2. exchanges its ``u`` column with all eight X-Y neighbours over the
   flux kernel's channels (one column per train — half the flux
   kernel's payload, since no density travels), and
3. on the final expected arrival completes the leapfrog update
   ``u_next = 2 u - u_prev + (vp dt)^2 L(u) [+ dt^2 s]``.
"""

from __future__ import annotations

import numpy as np

from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import XY_CONNECTIONS, Connection
from repro.dataflow.exchange import ColumnExchange
from repro.ir.builder import derive_exchange
from repro.wave.medium import TTIMedium, stencil_coefficients
from repro.wse.fabric import Fabric
from repro.wse.memory import column_plan
from repro.wse.runtime import EventRuntime

__all__ = ["WseWavePropagator"]


class WseWavePropagator:
    """Event-driven TTI wave propagation on the simulated WSE.

    Parameters mirror :class:`~repro.wave.reference.WavePropagator`;
    results match it to floating-point accumulation order.
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        medium: TTIMedium,
        dt: float,
        *,
        source: tuple[int, int, int] | None = None,
        dtype=np.float64,
    ) -> None:
        if not mesh.is_uniform_z:
            raise ValueError(
                "the wave stencil assumes uniform spacing; variable "
                "dz_layers meshes are not supported"
            )
        limit = medium.max_stable_dt(mesh.dx, mesh.dy, mesh.dz)
        if dt <= 0 or dt > limit:
            raise ValueError(f"dt = {dt!r} outside (0, {limit:.3e}]")
        self.mesh = mesh
        self.medium = medium
        self.dt = float(dt)
        self.dtype = np.dtype(dtype)
        self.coeffs = stencil_coefficients(medium, mesh.dx, mesh.dy, mesh.dz)
        self._scale = (medium.velocity * dt) ** 2
        self.step_count = 0
        self._source = source
        self._source_amplitude = 0.0

        self.fabric = Fabric(mesh.nx, mesh.ny)
        #: The flux kernel's exchange, verbatim (Sec. 8 reuse claim).
        self.exchange = ColumnExchange(
            self.fabric,
            mesh.nx,
            mesh.ny,
            start=self._start_pe,
            payload=lambda pe: pe.state["send_field"],
            on_data=self._on_data,
            ir=derive_exchange(mesh.nx, mesh.ny),
        )
        self.colors = self.exchange.colors
        names = ("u_prev", "u_curr", "lap", "recv", "tmp")
        pes = self.exchange.pes
        columns = self.fabric.install_memory(
            column_plan(names, mesh.nz, self.dtype),
            [pe.coord for _x, _y, pe in pes],
        )
        for (_x, _y, pe), *arrays in zip(pes, *columns.values()):
            pe.state.update(zip(names, arrays))

    # ------------------------------------------------------------------ #
    def _on_data(self, pe, msg, conn: Connection) -> None:
        """Accumulate one neighbour's horizontal stencil contribution."""
        recv = pe.state["recv"]
        pe.dsd.fmovs(recv, msg.payload, from_fabric=True)
        a, _ = self.coeffs[conn]
        lap, tmp = pe.state["lap"], pe.state["tmp"]
        pe.dsd.fmuls(tmp, recv, a)
        pe.dsd.fadds(lap, lap, tmp)
        if pe.state["received"] == pe.state["expected"]:
            self._finalize(pe)

    def _start_pe(self, pe) -> None:
        """Local stencil parts of one step."""
        u = pe.state["u_curr"]
        # neighbours get the field captured here: a step-2 send may be
        # triggered *after* this PE already finalized its own update, and
        # the neighbour must see the pre-update field.  The captured
        # array is never written in place during the step, so sharing
        # the buffer with in-flight messages is safe (the same
        # discipline as the flux kernel's zero-copy send train).
        pe.state["send_field"] = u
        lap, tmp = pe.state["lap"], pe.state["tmp"]
        lap.fill(0.0)
        nz = self.mesh.nz
        # vertical second derivative (in-memory neighbours)
        if nz >= 2:
            a, b = self.coeffs[Connection.UP]
            pe.dsd.fmuls(tmp[: nz - 1], u[1:], a)
            pe.dsd.fadds(lap[: nz - 1], lap[: nz - 1], tmp[: nz - 1])
            pe.dsd.fmacs(tmp[: nz - 1], u[: nz - 1], b, lap[: nz - 1])
            pe.dsd.fmovs(lap[: nz - 1], tmp[: nz - 1])
            a, b = self.coeffs[Connection.DOWN]
            pe.dsd.fmuls(tmp[1:], u[: nz - 1], a)
            pe.dsd.fadds(lap[1:], lap[1:], tmp[1:])
            pe.dsd.fmacs(tmp[1:], u[1:], b, lap[1:])
            pe.dsd.fmovs(lap[1:], tmp[1:])
        # centre coefficients of in-bounds horizontal neighbours
        x, y = pe.coord
        for conn in XY_CONNECTIONS:
            dx, dy, _ = conn.offset
            if not self.fabric.contains((x + dx, y + dy)):
                continue
            _, b = self.coeffs[conn]
            if b == 0.0:
                continue
            pe.dsd.fmacs(tmp, u, b, lap)
            pe.dsd.fmovs(lap, tmp)
        if pe.state["expected"] == 0:  # a 1x1 fabric hears nothing
            self._finalize(pe)

    def _finalize(self, pe) -> None:
        """Complete the leapfrog update for this PE's column."""
        u, u_prev = pe.state["u_curr"], pe.state["u_prev"]
        lap, tmp = pe.state["lap"], pe.state["tmp"]
        # u_next = 2 u - u_prev + scale * lap  (into u_prev's storage)
        pe.dsd.fmuls(tmp, u, 2.0)
        pe.dsd.fsubs(tmp, tmp, u_prev)
        pe.dsd.fmacs(u_prev, lap, self._scale, tmp)
        if (
            self._source is not None
            and self._source_amplitude != 0.0
            and pe.coord == (self._source[0], self._source[1])
        ):
            u_prev[self._source[2]] += self.dt**2 * self._source_amplitude
        # swap roles: u_prev now holds u_next
        pe.state["u_prev"], pe.state["u_curr"] = u, u_prev

    # ------------------------------------------------------------------ #
    def step(self, source_amplitude: float = 0.0) -> None:
        """Advance one time step through the full fabric protocol."""
        self._source_amplitude = float(source_amplitude)
        self.exchange.run(EventRuntime(self.fabric))
        self.step_count += 1

    def run(self, wavelet: np.ndarray) -> np.ndarray:
        """Propagate through a source time function; returns the field."""
        for amplitude in np.asarray(wavelet, dtype=np.float64):
            self.step(float(amplitude))
        return self.wavefield()

    def wavefield(self) -> np.ndarray:
        """Gather the current wavefield into a (nz, ny, nx) array."""
        out = np.zeros(self.mesh.shape_zyx, dtype=self.dtype)
        for x, y, pe in self.exchange.pes:
            out[:, y, x] = pe.state["u_curr"]
        return out
