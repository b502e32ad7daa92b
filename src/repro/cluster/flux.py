"""Distributed-memory flux computation via halo exchange.

The traditional-HPC baseline the paper positions itself against
(Sec. 4): the X-Y plane is block-decomposed over ranks, each
application performs an 8-neighbour halo exchange of the pressure field
(sides and corners — on MPI a corner is a single direct message, unlike
the fabric's two-hop forward), densities are evaluated locally, and each
rank runs the host-order flat kernel (:mod:`repro.core.flat`) on its
halo-padded block — the reference kernel's bytes.

Numerically identical to the global reference; the communicator counts
the per-application traffic the decomposition actually moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import constants
from repro.core.flat import FlatFluxKernel, FlatWorkspace
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.cluster.comm import CartGrid, RetryPolicy, SimComm
from repro.cluster.decomposition import Block, BlockDecomposition
from repro.obs.spans import span

__all__ = [
    "ClusterFluxComputation",
    "ClusterRunResult",
    "HaloLink",
    "halo_links",
    "HALO_DIRECTIONS",
]

#: The eight halo directions (dx, dy) with their message tags.
HALO_DIRECTIONS = [
    (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
]


def _halo_intersection(sender: Block, receiver: Block) -> tuple[int, int, int, int] | None:
    """Global (x_lo, x_hi, y_lo, y_hi) of sender-owned cells inside the
    receiver's padded region; None when empty.  Both sides compute this
    deterministically, so no coordinate metadata travels in messages."""
    x_lo = max(sender.x0, receiver.gx0)
    x_hi = min(sender.x1, receiver.gx1)
    y_lo = max(sender.y0, receiver.gy0)
    y_hi = min(sender.y1, receiver.gy1)
    if x_lo >= x_hi or y_lo >= y_hi:
        return None
    return (x_lo, x_hi, y_lo, y_hi)


@dataclass(frozen=True)
class HaloLink:
    """One directed halo transfer: sender-owned cells a receiver pads.

    ``x_lo:x_hi / y_lo:y_hi`` is the strip in *global* coordinates; both
    endpoints derive the same range deterministically, so no coordinate
    metadata ever travels with the data (and the shared-memory runtime
    can pre-allocate one fixed slot per link).
    """

    source: int
    dest: int
    tag: int
    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    @property
    def shape_yx(self) -> tuple[int, int]:
        """Strip extent as ``(ny, nx)``, matching the padded-array axes."""
        return (self.y_hi - self.y_lo, self.x_hi - self.x_lo)

    def cells(self, nz: int) -> int:
        """Number of cells this link carries for an ``nz``-layer mesh."""
        return nz * (self.y_hi - self.y_lo) * (self.x_hi - self.x_lo)

    def strip(self, padded: np.ndarray, block: Block) -> np.ndarray:
        """The link's cells in *block*'s ``(nz, ny, nx)`` padded array."""
        return padded[
            :,
            self.y_lo - block.gy0 : self.y_hi - block.gy0,
            self.x_lo - block.gx0 : self.x_hi - block.gx0,
        ]


def halo_links(decomp: BlockDecomposition, grid: CartGrid) -> list[HaloLink]:
    """Every directed halo link of the decomposition, in the canonical
    deterministic order (sender rank major, tag minor) that both the
    serial exchange and the multiprocess runtime's shared-memory layout
    follow."""
    links: list[HaloLink] = []
    for block in decomp.blocks:
        for tag, (dx, dy) in enumerate(HALO_DIRECTIONS):
            dest = grid.neighbour(block.rank, dx, dy)
            if dest is None:
                continue
            rng = _halo_intersection(block, decomp.block(dest))
            if rng is None:
                continue
            links.append(HaloLink(block.rank, dest, tag, *rng))
    return links


@dataclass
class ClusterRunResult:
    """Outcome of a batch of applications on the rank grid."""

    residual: np.ndarray
    applications: int
    ranks: int
    messages_per_application: int
    halo_bytes_per_application: int
    total_bytes: int
    retransmissions: int = 0
    recovery_seconds: float = 0.0

    @property
    def halo_bytes_per_cell(self) -> float:
        """Halo traffic per owned cell per application."""
        return self.halo_bytes_per_application / self.residual.size

    def as_metrics(self) -> dict:
        """Counters as a plain dict for the obs metrics registry."""
        return {
            "applications": self.applications,
            "ranks": self.ranks,
            "messages_per_application": self.messages_per_application,
            "halo_bytes_per_application": self.halo_bytes_per_application,
            "total_bytes": self.total_bytes,
            "retransmissions": self.retransmissions,
            "recovery_seconds": self.recovery_seconds,
        }


class ClusterFluxComputation:
    """Algorithm 1 on a ``px x py`` rank grid with halo exchange.

    Parameters
    ----------
    mesh, fluid:
        Problem definition (global).
    px, py:
        Process grid dimensions.
    dtype:
        Floating dtype of the exchanged/computed fields.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector` with
        transient rank failures; the halo exchange then recovers lost
        strips by retransmitting under *retry*.
    retry:
        Receive :class:`~repro.cluster.comm.RetryPolicy`; defaults to a
        3-attempt exponential backoff when *faults* is given, else no
        retry (missing receives fail fast exactly as before).
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        *,
        px: int,
        py: int,
        gravity: float = constants.GRAVITY,
        dtype=np.float64,
        faults=None,
        retry: RetryPolicy | None = None,
        record=None,
    ) -> None:
        self.mesh = mesh
        self.fluid = fluid
        self.gravity = float(gravity)
        self.dtype = np.dtype(dtype)
        self.grid = CartGrid(px, py)
        self.decomp = BlockDecomposition(mesh, px, py)
        self.faults = faults
        self.retry = retry if retry is not None else (
            RetryPolicy() if faults is not None else None
        )
        self.comm = SimComm(self.grid.size, faults=faults)
        # per-rank state: the flat kernel, whose padded pressure buffer
        # is the rank's field (scatter and halo strips land in it), and
        # one workspace for all ranks, which compute in turn
        meshes = [self.decomp.local_mesh(block) for block in self.decomp.blocks]
        workspace = FlatWorkspace([m.shape_zyx for m in meshes], self.dtype)
        self._kernels = [
            FlatFluxKernel(m, fluid, workspace, gravity=gravity) for m in meshes
        ]
        # every strip both endpoints touch, as views made once: sends in
        # the canonical link order, receives per rank in tag order
        links = halo_links(self.decomp, self.grid)
        self._outgoing = {
            (lk.source, lk.dest, lk.tag): lk.strip(
                self._kernels[lk.source].pressure, self.decomp.block(lk.source)
            )
            for lk in links
        }
        self._incoming = [
            (
                (lk.dest, lk.source, lk.tag),
                lk.strip(self._kernels[lk.dest].pressure, self.decomp.block(lk.dest)),
            )
            for lk in sorted(links, key=lambda lk: (lk.dest, lk.tag))
        ]
        #: Optional :class:`~repro.obs.replay.ReplayRecorder` digesting
        #: every assembled (pressure, residual) application pair.
        self.record = record

    # ------------------------------------------------------------------ #
    def _scatter_owned(self, pressure: np.ndarray) -> None:
        """Each rank takes ownership of its block's pressure cells."""
        for block, kernel in zip(self.decomp.blocks, self._kernels):
            ys, xs = block.owned_slices_in_padded()
            kernel.pressure[:, ys, xs] = pressure[
                :, block.y0 : block.y1, block.x0 : block.x1
            ]

    def _retransmit(self, source: int, dest: int, tag: int, attempt: int) -> None:
        """Sender-side recovery: the receive timed out, so the (now
        possibly recovered) source pushes its strip again."""
        if self.faults is not None:
            self.faults.begin_retry()
        self.comm.isend(source, dest, tag, self._outgoing[source, dest, tag].copy())
        self.comm.stats[source].retransmissions += 1

    def _halo_exchange(self) -> None:
        """One deadlock-free exchange: every rank sends its 8 strips,
        then every rank drains its incoming strips.

        Under a transient rank failure the first send pass loses the
        down rank's strips; each missing receive then times out and
        triggers a bounded retransmit-with-backoff from the recovered
        source (:meth:`_retransmit`).  The closing :meth:`SimComm.barrier`
        asserts nothing leaked."""
        if self.faults is not None:
            self.faults.begin_exchange()
        for (source, dest, tag), strip in self._outgoing.items():
            self.comm.isend(source, dest, tag, strip.copy())
        for (dest, source, tag), halo in self._incoming:
            halo[...] = self.comm.recv(
                dest, source, tag, retry=self.retry, on_missing=self._retransmit
            )
        self.comm.barrier("halo exchange")

    # ------------------------------------------------------------------ #
    def run(self, pressures) -> ClusterRunResult:
        """One application of Algorithm 1 per pressure field."""
        residual = np.zeros(self.mesh.shape_zyx, self.dtype)
        applications = 0
        msgs_before = self.comm.total_messages()
        bytes_before = self.comm.total_bytes()
        retrans_before = sum(st.retransmissions for st in self.comm.stats)
        waited_before = self.comm.waited_seconds
        for pressure in pressures:
            with span("cluster.application", backend="cluster",
                      ranks=self.grid.size):
                self.mesh.validate_field(pressure, name="pressure")
                self._scatter_owned(np.asarray(pressure, dtype=self.dtype))
                with span("cluster.halo_exchange"):
                    self._halo_exchange()
                with span("cluster.compute"):
                    for block, kernel in zip(self.decomp.blocks, self._kernels):
                        ys, xs = block.owned_slices_in_padded()
                        residual[
                            :, block.y0 : block.y1, block.x0 : block.x1
                        ] = kernel.compute()[:, ys, xs]
                if self.record is not None:
                    self.record.record_step(pressure, residual)
                applications += 1
        if applications == 0:
            raise ValueError("no pressure fields supplied")
        total_msgs = self.comm.total_messages() - msgs_before
        total_bytes = self.comm.total_bytes() - bytes_before
        return ClusterRunResult(
            residual=residual,
            applications=applications,
            ranks=self.grid.size,
            messages_per_application=total_msgs // applications,
            halo_bytes_per_application=total_bytes // applications,
            total_bytes=self.comm.total_bytes(),
            retransmissions=sum(st.retransmissions for st in self.comm.stats)
            - retrans_before,
            recovery_seconds=self.comm.waited_seconds - waited_before,
        )

    def run_single(self, pressure: np.ndarray) -> ClusterRunResult:
        """Run one application."""
        return self.run([pressure])
