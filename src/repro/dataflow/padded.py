"""The x/y-halo-padded flat layout of the fused and lockstep backends.

One halo cell surrounds every z-plane and the block is flattened: cell
``(z, y, x)`` sits at ``z*plane + (y+1)*row + (x+1)`` and a connection
is the constant flat shift ``dz*plane + dy*row + dx``, so a kernel
sweeps one contiguous span per connection instead of ``nz*ny`` strided
rows.  Halo faces carry zero transmissibility and halo pressure is the
fluid's finite reference pressure: halo lanes compute finite zeros that
reach no real cell (DESIGN.md §16; ``core/flat.py`` restates the layout
for the host-order kernel, which may not import ``repro.dataflow``).

The kernels sweep padded lanes, so what they book on :attr:`swept` is
never read; :meth:`PaddedFlatLayout.book` books true cell and face
counts and :meth:`PaddedFlatLayout.report` is both backends' report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import Connection
from repro.core.transmissibility import Transmissibility, padded_trans_fields
from repro.dataflow.flux_pe import (
    DENSITY_EXP_CYCLES_PER_ELEMENT,
    FluxScratch,
    evaluate_density_column,
)
from repro.wse.dsd import DsdEngine

__all__ = ["LockstepReport", "LockstepRunResult", "PaddedFlatLayout"]


@dataclass
class LockstepReport:
    """Aggregate accounting of a lockstep or fused run."""

    applications: int
    instruction_counts: dict[str, int]
    flops: int
    fabric_words_received: int
    fabric_word_hops: int
    compute_cycles: float

    def as_metrics(self) -> dict:
        """Counters as a plain dict for the obs metrics registry."""
        return asdict(self)


@dataclass
class LockstepRunResult:
    """Outcome of a lockstep or fused ``run()``: the last residual and
    the driver's accounting so far (every residual goes to ``record=``)."""

    residual: np.ndarray
    applications: int
    report: LockstepReport

    def as_metrics(self) -> dict:
        """The report's counters (obs metrics registry shape)."""
        return self.report.as_metrics()


class PaddedFlatLayout:
    """Geometry, fields and accounting of one mesh on the padded layout.

    *exchange_plan* is ``(connections, hops, phase)`` per communication
    phase, in fold order.  ``halo_copies`` says whether the backend
    books the fabric's moves of neighbour columns into halo storage
    (lockstep: two FMOVs per face) or traffic only (fused).  Both read
    the neighbour in place.
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        trans: Transmissibility | None,
        dtype,
        exchange_plan,
        *,
        vectorized: bool,
        compute_fluxes: bool,
        halo_copies: bool,
    ) -> None:
        self.dtype = dtype = np.dtype(dtype)
        if trans is None:
            trans = Transmissibility(mesh, dtype=dtype)
        elif trans.mesh is not mesh:
            raise ValueError("trans was built for a different mesh")
        self.fluid = fluid
        #: the flux kernels' keyword arguments
        g, inv_mu = dtype.type(constants.GRAVITY), dtype.type(1.0 / fluid.viscosity)
        self.kernel = {"gravity": g, "inv_viscosity": inv_mu}
        self.exchange_plan = exchange_plan
        self.compute_fluxes = compute_fluxes
        self.halo_copies = halo_copies
        #: booked at true cell and face counts by :meth:`book`
        self.engine = DsdEngine(vectorized=vectorized)
        #: what the kernels are handed: books swept lanes, never read
        self.swept = DsdEngine(vectorized=vectorized)
        self.applications = self.fabric_loads = self.fabric_word_hops = 0
        self._words_per_element = max(1, dtype.itemsize // 4)

        nz, ny, nx = mesh.shape_zyx
        self.cells = nz * ny * nx
        row, self.plane = nx + 2, (ny + 2) * (nx + 2)
        self.padded_shape = (nz, ny + 2, row)
        #: an X-Y sweep runs from the first interior cell of a block of
        #: planes to its last: ``edge`` lanes in from either end
        self.edge = row + 1
        self.elevation = np.zeros(nz * self.plane, dtype)
        self.interior(self.elevation)[...] = mesh.elevation
        #: Upsilon per connection, zero on halo and boundary faces: flat,
        #: and the ``(nz, ny, nx)`` interior views of the same storage
        padded = padded_trans_fields(mesh, trans, dtype, xy_halo=1)
        self.trans = {conn: field.ravel() for conn, field in padded.items()}
        self.trans_fields = {c: f[:, 1:-1, 1:-1] for c, f in padded.items()}
        #: per connection: its constant flat neighbour shift and the
        #: true faces among the padded lanes the kernels sweep
        self.shifts, self.faces = {}, {}
        for conn in Connection:
            dx, dy, dz = conn.offset
            self.shifts[conn] = dz * self.plane + dy * row + dx
            self.faces[conn] = (nz - abs(dz)) * (ny - abs(dy)) * (nx - abs(dx))

    def interior(self, flat: np.ndarray) -> np.ndarray:
        """The real cells of a padded flat array, as a ``(..., nz, ny, nx)`` view."""
        return flat.reshape(flat.shape[:-1] + self.padded_shape)[..., 1:-1, 1:-1]

    def vertical_span(self, conn: Connection, z0: int, z1: int) -> tuple[int, int]:
        """``(lo, lanes)`` of the planes among ``[z0, z1)`` whose cells have
        a *conn* neighbour, in any plane; ``lanes <= 0`` when none has."""
        dz = conn.offset[2]
        first, last = max(z0, -dz), min(z1, self.padded_shape[0] - dz)
        return first * self.plane, (last - first) * self.plane

    def operands(self, conn: Connection, lo: int, lanes: int, scratch, p, rho) -> tuple:
        """The flux kernel's operands up to its target, *lanes* cells from
        *lo*: ``(dp, gz, a, b, sel)`` *scratch* cut to the span, then p,
        z and rho of the cells and of their *conn* neighbours, one flat
        shift away.  Leading batch axes are allowed."""
        here = slice(lo, lo + lanes)
        there = slice(lo + self.shifts[conn], lo + self.shifts[conn] + lanes)
        # X-Y neighbours share the elevation column: the same view object
        # twice selects the kernel's collapsed branch (an identity test)
        z_k = self.elevation[here]
        z_l = self.elevation[there] if conn.is_vertical else z_k
        return (
            FluxScratch(*(x[..., :lanes] for x in scratch)),
            p[..., here], p[..., there], z_k, z_l, rho[..., here], rho[..., there],
            self.trans[conn][here],
        )

    def density(self, p: np.ndarray, rho: np.ndarray) -> None:
        """Eq. 5 over a whole padded block, halo lanes included."""
        fluid = self.fluid
        evaluate_density_column(
            self.swept, p, rho, compressibility=fluid.compressibility,
            reference_density=fluid.reference_density,
            reference_pressure=fluid.reference_pressure,
        )

    def book(self, batch: int) -> None:
        """One batch of applications at its true cell and face counts,
        in per-face execution order (``compute_cycles`` is a float sum);
        traffic from the exchange plan."""
        engine, faces = self.engine, self.faces
        exp_cycles = DENSITY_EXP_CYCLES_PER_ELEMENT
        engine.aux("FEXP", self.cells * batch, cycles_per_element=exp_cycles)
        if self.compute_fluxes:
            for conn in (Connection.UP, Connection.DOWN):
                engine.account_flux_column(faces[conn] * batch)
        for connections, hops, _phase in self.exchange_plan:
            for conn in connections:
                n = faces[conn] * batch
                if self.halo_copies:
                    engine.account_fabric_moves(n)  # pressure
                    engine.account_fabric_moves(n)  # density
                if self.compute_fluxes:
                    engine.account_flux_column(n)
                self.fabric_loads += 2 * n
                self.fabric_word_hops += 2 * n * self._words_per_element * hops
        self.applications += batch

    def report(self) -> LockstepReport:
        """Accounting accumulated since construction."""
        return LockstepReport(
            applications=self.applications,
            instruction_counts=dict(self.engine.counts),
            flops=self.engine.flops,
            fabric_words_received=self.fabric_loads * self._words_per_element,
            fabric_word_hops=self.fabric_word_hops,
            compute_cycles=self.engine.cycles,
        )
