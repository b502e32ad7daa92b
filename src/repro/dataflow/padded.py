"""The x/y-halo-padded flat layout and the one slab sweep of the fused
and lockstep backends.

One halo cell surrounds every z-plane and the block is flattened: cell
``(z, y, x)`` sits at ``z*plane + (y+1)*row + (x+1)`` and a connection
is the constant flat shift ``dz*plane + dy*row + dx``, so a kernel
sweeps one contiguous span per connection instead of ``nz*ny`` strided
rows.  Halo faces carry zero transmissibility and halo pressure is the
fluid's finite reference pressure: halo lanes compute finite zeros that
reach no real cell (DESIGN.md §16; ``core/flat.py`` restates the layout
for the host-order kernel, which may not import ``repro.dataflow``).

A run (:class:`PaddedSweep`) batches its applications along a leading
axis and is **one sweep over z-slabs of whole planes**: density once
over the batch (a vertical face reads the plane next to its slab), then
per slab UP/DOWN into the residual, one kernel per X-Y face pair, and
the driver's fold program, so the ~16 batch-wide arrays a cell's faces
touch stay cache-resident from the first kernel to the last add.  A
cell's contributions all meet inside its own slab, so the slab size
cannot move a bit.

Each X-Y face is evaluated once (Eq. 3: cell L receives ``-F_KL`` from
the face K computes).  The member of a face pair with a positive flat
shift ``s`` (EAST, SOUTH, SOUTHEAST, SOUTHWEST) stores its fluxes ``C``
in a contribution buffer, ``s`` lanes earlier than the fold needs them;
the reciprocal connection's fold step subtracts ``C[xy - s]``.  That is
the reciprocal kernel's bytes: both sides read one transmissibility,
the collapsed branch negates exactly, a zero flux may differ only in
its sign, and ``r - C`` is ``r + (-C)`` (DESIGN.md §16).  The fold
program, ``(connection, lane mask)`` steps, is the only thing the
drivers do differently:

* a ``None`` mask (lockstep's exchange plan) means every lane: the
  step adds or subtracts the contribution over the slab's cells;
* a lane mask (fused's arrival orders; one padded plane of same-width
  unsigned words) first keeps the contribution on the mask's lanes:
  ``contribution & mask``, then ``residual +=`` or ``-=`` that.  Lanes
  the mask leaves out receive ``+0.0``, which changes neither a finite
  residual accumulated from ``+0.0`` (it can never be ``-0.0``) nor a
  non-finite one.

The kernels sweep padded lanes, so what they book on
:attr:`PaddedFlatLayout.swept` is never read;
:meth:`PaddedFlatLayout.book` books true cell and face counts once per
batch and :meth:`PaddedFlatLayout.report` is both backends' report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.kernels import FluxScratch
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import Connection, opposite
from repro.core.transmissibility import Transmissibility, padded_trans_fields
from repro.dataflow.flux_pe import (
    DENSITY_EXP_CYCLES_PER_ELEMENT,
    compute_face_flux_column,
    evaluate_density_column,
    store_face_flux_column,
)
from repro.obs.spans import span
from repro.wse.dsd import DsdEngine

__all__ = ["LockstepReport", "LockstepRunResult", "PaddedFlatLayout", "PaddedSweep"]

#: ``batch x lanes`` elements of one z-slab (whole planes, at least one,
#: at most the block): small enough that a slab's ~16 batch-wide arrays
#: stay in cache between its kernels and its fold, large enough that
#: ufunc call overhead does not take the gain back.  A measured constant
#: (DESIGN.md §16 has the scan), not an option; tests monkeypatch it.
_SLAB_ELEMENTS = 1 << 16

_and = np.bitwise_and
_add = np.add
_sub = np.subtract


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

    *ir* is the program's :class:`~repro.ir.schema.FabricProgramIR`: its
    ``params`` give the dtype and ``compute_fluxes``, ``vectorized`` the
    DSD cost model, and its exchange plan, ``(connections, hops,
    phase)`` per communication phase in fold order, the X-Y faces.  An
    IR built for another mesh, or one with no exchange plan, is refused.
    ``halo_copies`` says whether the backend books the fabric's moves of
    neighbour columns into halo storage (lockstep: two FMOVs per face)
    or traffic only (fused).  Both read the neighbour in place.
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        trans: Transmissibility | None,
        ir,
        *,
        halo_copies: bool,
    ) -> None:
        shape = (mesh.nx, mesh.ny, mesh.nz)
        if ir.mesh_shape != shape:
            raise ValueError(
                f"IR mismatch on mesh shape: program has {shape!r}, IR says {ir.mesh_shape!r}"
            )
        #: fold order: ``(connections, hops, phase)`` per phase
        self.exchange_plan = ir.exchange_plan
        if not self.exchange_plan:
            raise ValueError("IR carries no exchange plan to lower")
        #: the :class:`~repro.ir.schema.FabricProgramIR` this layout runs
        self.ir = ir
        params = ir.params
        self.mesh = mesh
        self.dtype = dtype = np.dtype(params["dtype"])
        if trans is None:
            trans = Transmissibility(mesh, dtype=dtype)
        elif trans.mesh is not mesh:
            raise ValueError("trans was built for a different mesh")
        self.fluid = fluid
        #: the flux kernels' keyword arguments
        self.kernel = {"gravity": dtype.type(constants.GRAVITY)}
        self.compute_fluxes = params["compute_fluxes"]
        self.halo_copies = halo_copies
        #: booked at true cell and face counts by :meth:`book`
        self.engine = DsdEngine(vectorized=ir.vectorized)
        #: what the kernels are handed: books swept lanes, never read
        self.swept = DsdEngine(vectorized=ir.vectorized)
        self.applications = self.fabric_loads = self.fabric_word_hops = 0
        self._words_per_element = max(1, dtype.itemsize // 4)

        nz, ny, nx = mesh.shape_zyx
        self.cells = nz * ny * nx
        row, self.plane = nx + 2, (ny + 2) * (nx + 2)
        self.padded_shape = (nz, ny + 2, row)
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


class PaddedSweep:
    """The batched slab sweep of the lockstep and fused drivers.

    *fold* is the driver's fold program, ``(connection, lane mask)``
    steps over the X-Y connections (module docstring); *name* prefixes
    the spans (``.run``, ``.local``, ``.rounds`` for the stored
    kernels, ``.fold``).
    """

    def __init__(self, layout: PaddedFlatLayout, fold, name: str, *, record) -> None:
        self.mesh, self.fluid, self.dtype = layout.mesh, layout.fluid, layout.dtype
        #: the :class:`~repro.ir.schema.FabricProgramIR` this driver runs
        self.ir = layout.ir
        #: optional :class:`~repro.obs.replay.ReplayRecorder` digesting
        #: every (pressure, residual) application pair
        self.record = record
        self.trans_fields = layout.trans_fields
        self._layout, self._fold = layout, fold
        self._name = name
        self._workspace: _Workspace | None = None

    def run(self, pressures) -> LockstepRunResult:
        """Run one application per pressure field, batched."""
        fields = list(pressures)
        if not fields:
            raise ValueError("no pressure fields supplied")
        for field in fields:
            self.mesh.validate_field(field, name="pressure")
        batch, layout, fluid = len(fields), self._layout, self.fluid
        swept, kernel = layout.swept, layout.kernel
        name = self._name
        local, rounds, fold = f"{name}.local", f"{name}.rounds", f"{name}.fold"

        with span(f"{name}.run", backend=name, applications=batch):
            ws = self._workspace
            if ws is None or ws.batch != batch:
                ws = self._workspace = _Workspace(layout, self._fold, batch)
            for i, field in enumerate(fields):
                ws.pressure[i] = field  # cast, exactly like load_pressure
            # what a run hands out must start from zero anyway: it is
            # allocated here and dropped with the run, so it neither
            # aliases a later run nor stays resident between runs
            residual = np.zeros_like(ws.p)

            with span(local):  # Eq. 5 over the padded block, halo lanes included
                evaluate_density_column(
                    swept, ws.p, ws.rho, compressibility=fluid.compressibility,
                    reference_density=fluid.reference_density,
                    reference_pressure=fluid.reference_pressure,
                )
                fluid.mobility(ws.rho, out=ws.lam)
            for slab in ws.slabs:
                if slab.vertical:
                    with span(local):
                        for operands, here in slab.vertical:
                            compute_face_flux_column(swept, *operands, residual[:, here], **kernel)
                if slab.stored:
                    # one kernel call per face pair, each into its own
                    # contribution buffer
                    with span(rounds):
                        for operands in slab.stored:
                            store_face_flux_column(swept, *operands, **kernel)
                with span(fold):
                    target = residual[:, slab.xy]
                    for op, mask, words, masked_words, operand in slab.fold:
                        if mask is not None:
                            _and(words, mask, masked_words)
                        op(target, operand, target)
            layout.book(batch)
            residual = layout.interior(residual)

        if self.record is not None:
            for i, field in enumerate(fields):
                self.record.record_step(field, residual[i])
        # the result is a contiguous copy: it does not pin the padded batch
        return LockstepRunResult(residual[batch - 1].copy(), batch, self.report())

    def report(self) -> LockstepReport:
        """Accounting accumulated since construction."""
        return self._layout.report()


class _Workspace:
    """What a run needs but does not return, for one batch size.

    Whole-batch pressure, density and mobility, halo-padded and flat
    ``(batch, nz*(ny+2)*(nx+2))``, and everything else one slab long, in
    one ``(batch, buffers, slab lanes)`` block: three float scratch
    buffers, the integer select buffer, the masked fold operand and one
    contribution buffer per X-Y face pair the fold program folds (four;
    none with ``compute_fluxes=False`` on lockstep, whose steps then
    vanish).  None needs initialising per run: halo pressure is a finite
    constant set here (so halo density is finite too), and the
    contribution lanes no kernel writes — the halo lanes at either end
    of a slab, all of them with ``compute_fluxes=False`` — stay the
    zeros they are allocated as.  Every kernel and fold operand is a
    view sliced here once, and with ``compute_fluxes=False`` no kernel
    is listed at all.

    One block rather than an array per buffer, so that a slab buffer is
    a strided view exactly like a slab of pressure or residual: where a
    C-contiguous 2-D operand of short rows (one 48x48 plane) meets
    strided ones, NumPy's iterator runs 2-3x slower than on operands
    that are all strided (measured, NumPy 2.4; DESIGN.md §16).
    """

    def __init__(self, layout: PaddedFlatLayout, program, batch: int) -> None:
        dtype, compute = layout.dtype, layout.compute_fluxes
        (nz, _rows, row), plane = layout.padded_shape, layout.plane
        shifts = layout.shifts
        self.batch = batch
        # whole planes per slab, and never more scratch than the block
        depth = max(1, min(nz, _SLAB_ELEMENTS // (batch * plane)))
        self.p = p = np.full((batch, nz * plane), layout.fluid.reference_pressure, dtype)
        self.rho = rho = np.empty_like(p)
        self.lam = lam = np.empty_like(p)
        self.pressure = layout.interior(p)
        # the member of each face pair with a positive shift computes the
        # pair's one flux; its reciprocal folds that flux negated, shifted
        program = [(conn, mask) for conn, mask in program if mask is not None or compute]
        kept = {conn: conn if shifts[conn] > 0 else opposite(conn) for conn, _mask in program}
        stored = list(dict.fromkeys(kept.values()))
        block = np.zeros((batch, 5 + len(stored), depth * plane), dtype)
        dp, a, b, masked, sel, *buffers = np.moveaxis(block, 1, 0)
        words = f"u{dtype.itemsize}"
        sel = sel.view(words)
        contributions = dict(zip(stored, buffers))
        gz = np.empty(depth * plane, dtype)  # g*(z_L - z_K) is the same for every field
        # the plane masks are tiled to the slab: broadcasting one over a
        # (batch, planes, plane) view costs NumPy's iterator 0.3 us per
        # row, 13 against 8 us per step at (8, 3, 2500)
        masks = [None if mask is None else np.tile(mask, depth) for _conn, mask in program]

        elevation, trans = layout.elevation, layout.trans

        def operands(conn, lo, lanes):
            """The flux kernel's operands up to its target, *lanes* cells
            from *lo*: the scratch cut to the span, then p, z, rho and
            lambda of the cells and of their *conn* neighbours, one flat
            shift away."""
            here = slice(lo, lo + lanes)
            there = slice(lo + shifts[conn], lo + shifts[conn] + lanes)
            # X-Y neighbours share the elevation column: the same view object
            # twice selects the kernel's collapsed branch (an identity test)
            z_k = elevation[here]
            z_l = elevation[there] if conn.is_vertical else z_k
            return (
                FluxScratch(*(x[..., :lanes] for x in (dp, gz, a, b, sel))),
                p[..., here], p[..., there], z_k, z_l, rho[..., here], rho[..., there],
                lam[..., here], lam[..., there], trans[conn][here],
            )

        self.slabs = []
        for z0 in range(0, nz, depth):
            z1 = min(nz, z0 + depth)
            lo, lanes = z0 * plane, (z1 - z0) * plane
            # the fold runs from the slab's first interior cell to its
            # last, ``edge`` lanes in from either end; every mask bit
            # lies in that span
            edge = row + 1
            xy, inner = slice(lo + edge, lo + lanes - edge), slice(edge, lanes - edge)
            vertical, stored_kernels = [], []
            if compute:
                for conn in (Connection.UP, Connection.DOWN):
                    # the slab's planes whose cells have a conn neighbour
                    dz = conn.offset[2]
                    first, last = max(z0, -dz) * plane, min(z1, nz - dz) * plane
                    if last > first:
                        vertical.append((operands(conn, first, last - first), slice(first, last)))
                for conn, buffer in contributions.items():
                    # s lanes early, so that the reciprocal finds every
                    # flux it folds at xy - s
                    s = shifts[conn]
                    stored_kernels.append(
                        operands(conn, xy.start - s, xy.stop - xy.start + s)
                        + (buffer[:, edge - s : lanes - edge],)
                    )
            fold = []
            for (conn, _mask), mask in zip(program, masks):
                # r - (-F) is r + F bit for bit: IEEE subtraction adds the
                # exact negation (DESIGN.md §16 has the reciprocity argument)
                s = 0 if kept[conn] is conn else shifts[kept[conn]]
                contribution = contributions[kept[conn]][:, edge - s : lanes - edge - s]
                op = _add if s == 0 else _sub
                if mask is None:
                    fold.append((op, None, None, None, contribution))
                else:
                    fold.append((
                        op, mask[inner], contribution.view(words),
                        masked[:, inner].view(words), masked[:, inner],
                    ))
            self.slabs.append(
                _Slab(slice(lo, lo + lanes), xy, vertical, stored_kernels, fold)
            )


@dataclass(frozen=True)
class _Slab:
    """One z-slab of whole planes: its lanes and prebuilt operand views."""

    here: slice
    #: the fold's lanes: the slab's first interior cell to its last
    xy: slice
    #: (accumulate-kernel operands, residual lanes) per vertical connection
    vertical: list
    #: store-kernel operands, contribution target included, per face pair
    stored: list
    #: per fold step: ``(add or subtract, lane mask, contribution words,
    #: masked words, operand)``; without a mask the operand is the
    #: contribution itself, else the masked copy the ``and`` writes
    fold: list
