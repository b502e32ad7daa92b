"""The fused backend: whole-array execution of the IR's per-color rounds.

This is the raw-speed ceiling for pure Python: instead of simulating one
message at a time (event) or one communication phase per application
(lockstep), the fused backend batches *all* applications of a run along
a leading axis and executes each per-color communication round as
whole-array NumPy kernel calls — the ufunc count grows with the number
of z-slabs (at most ``nz``), not with the number of applications.

Batched arrays are x/y-halo-padded and flat,
``(batch, nz*(ny+2)*(nx+2))``: every neighbour is a constant flat
shift, so every ufunc of every round — and of the fold — is a
contiguous op.  Halo faces carry zero transmissibility and halo
pressure is finite, so halo lanes compute finite zeros that no fold
mask selects (DESIGN.md §16).

A run is **one sweep over z-slabs of whole planes**.  Density is
evaluated once over the whole batch (a vertical face reads the plane
next to its slab); then, slab by slab, UP/DOWN accumulate into the
residual, each X-Y connection's kernel writes its fluxes into a
slab-sized contribution buffer, and the slab is folded before the sweep
moves on — so the ~16 batch-wide arrays a cell's ten faces touch are
``_SLAB_ELEMENTS`` long and stay cache-resident from the first kernel
to the last add, instead of streaming the whole batch through the cache
once per round.  A cell's contributions all meet inside its own slab,
so the slab size cannot move a bit.  Pressure, density, the slab
scratch and the contribution buffers persist in a per-instance
workspace; one run allocates the residual it returns and nothing else.

Bit-identity with the event backend (same conform fold class) comes from
two properties:

* Every kernel call issues exactly the element-wise operations of
  :mod:`repro.dataflow.flux_pe` on the same values — element-wise
  ufuncs over a batched array produce the same bits per element as
  per-column calls.  X-Y faces pass the *same* elevation view twice,
  taking the kernel's collapsed branch exactly like the event backend's
  receive task does.
* Contributions are folded into the residual **in the event backend's
  per-PE arrival order** by the IR's fold program
  (:func:`repro.ir.schedule.fold_program`: a common supersequence of
  the <= 16 class orders).  A step ``(connection, lane mask)`` is two
  contiguous passes over the slab — ``contribution & mask`` on
  same-width unsigned views, then ``residual += that`` — where the mask
  is all ones on the lanes of the classes whose next arrival is this
  connection.  Those lanes receive the contribution's own bits; every
  other lane receives ``+0.0``, which changes neither a finite residual
  accumulated from ``+0.0`` (it can never be ``-0.0``) nor a non-finite
  one.  So every PE sees its own arrivals, in its own order, and
  nothing else.  The contribution holds ``F`` itself, signed zeros
  included, as the event backend's ``r += F`` sees it.

Fabric traffic is accounted arithmetically from the IR's exchange plan
(2·nz words per face, 1 hop cardinal / 2 hops diagonal); no halo copies
are performed.  That is not a throughput win over lockstep any more:
lockstep sweeps this layout too (:mod:`repro.dataflow.padded` states it
for both) and reads 30 against fused's 27-28 Mcell/s in the ledger at
48x48x16 (it read 8.4 on strided 3-D views).  Its twenty halo copies
per application cost less than fused's contribution buffers and masked
fold passes, which buy the event fold class's bytes, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import Connection
from repro.core.transmissibility import Transmissibility
from repro.dataflow.flux_pe import compute_face_flux_column, store_face_flux_column
from repro.dataflow.padded import LockstepReport as FusedReport
from repro.dataflow.padded import LockstepRunResult as FusedRunResult
from repro.dataflow.padded import PaddedFlatLayout
from repro.ir.schema import KIND_PROGRAM, FabricProgramIR
from repro.ir.schedule import fold_program, schedule_classes
from repro.obs.spans import span

__all__ = ["FusedFluxComputation", "FusedReport", "FusedRunResult"]

#: ``batch x lanes`` elements of one z-slab (whole planes, at least one,
#: at most the block): small enough that a slab's ~16 batch-wide arrays
#: stay in cache between its kernels and its fold, large enough that
#: ufunc call overhead does not take the gain back.  A measured constant
#: (DESIGN.md §16 has the scan), not an option; tests monkeypatch it.
_SLAB_ELEMENTS = 1 << 16

_and = np.bitwise_and
_add = np.add


class FusedFluxComputation:
    """IR-lowered whole-array flux computation.

    Built by :func:`repro.ir.lower.lower_to_fused` from a flux-program
    :class:`FabricProgramIR` (:func:`repro.ir.builder.derive_ir`), whose
    ``params`` block carries the program options (``reuse_buffers``,
    ``vectorized``, ``compute_fluxes``, ``overlap_compute``).
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        trans: Transmissibility | None = None,
        *,
        ir: FabricProgramIR,
        gravity: float = constants.GRAVITY,
        dtype=np.float32,
        record=None,
    ) -> None:
        self.mesh = mesh
        self.fluid = fluid
        self.dtype = np.dtype(dtype)
        self.record = record

        _check_ir_lowerable(ir, mesh, self.dtype)
        self.ir = ir
        params = ir.params
        self._vectorized = ir.vectorized
        self.compute_fluxes = params["compute_fluxes"]

        #: the shared padded flat layout (repro.dataflow.padded): halo
        #: faces get zero Upsilon, so halo lanes compute finite zeros no
        #: fold mask selects; it books true counts, the kernels sweep lanes
        self._layout = layout = PaddedFlatLayout(
            mesh, fluid, trans, self.dtype, ir.exchange_plan, gravity=gravity,
            vectorized=self._vectorized, compute_fluxes=self.compute_fluxes,
            halo_copies=False,
        )
        self.engine = layout.engine
        self.trans_fields = layout.trans_fields
        self._workspace: _Workspace | None = None

        # the fold schedule is a derived annotation: it amortizes like a
        # backend compile step and stays out of the content hash
        with span("fused.schedule"):
            classes = schedule_classes(
                mesh.nx,
                mesh.ny,
                reuse_buffers=params["reuse_buffers"],
                overlap_compute=params["overlap_compute"],
                vectorized=self._vectorized,
            )
            #: the fold program, plane-periodic and batch-independent
            self._fold = _fold_steps(classes, layout.padded_shape[1:], self.dtype)
        ir.annotate(
            "fold_schedule",
            [
                {"order": list(order), "y": _triple(ys), "x": _triple(xs)}
                for order, ys, xs in classes
            ],
        )

    # ------------------------------------------------------------------ #
    def run(self, pressures, *, keep_all: bool = False) -> FusedRunResult:
        """Run one application per pressure field, batched."""
        fields = list(pressures)
        if not fields:
            raise ValueError("no pressure fields supplied")
        mesh = self.mesh
        for field in fields:
            mesh.validate_field(field, name="pressure")
        batch = len(fields)
        layout = self._layout
        swept, kernel = layout.swept, layout.kernel

        with span("fused.run", backend="fused", applications=batch):
            ws = self._workspace
            if ws is None or ws.batch != batch:
                ws = self._workspace = _Workspace(self, batch)
            for i, field in enumerate(fields):
                ws.pressure[i] = field  # cast, exactly like load_pressure
            # what a run hands out must start from zero anyway: it is
            # allocated here and dropped with the run, so it neither
            # aliases a later run nor stays resident between runs
            residual = np.zeros_like(ws.p)

            with span("fused.local"):
                layout.density(ws.p, ws.rho)
            for slab in ws.slabs:
                if self.compute_fluxes:
                    with span("fused.local"):
                        for operands, here in slab.vertical:
                            compute_face_flux_column(
                                swept, *operands, residual[:, here], **kernel
                            )
                    # one whole-slab kernel call per connection, each
                    # into its own contribution buffer
                    with span("fused.rounds"):
                        for operands in slab.horizontal:
                            store_face_flux_column(swept, *operands, **kernel)
                # serial fold in event arrival order: two contiguous
                # passes per step of the fold program
                with span("fused.fold"):
                    target = residual[:, slab.here]
                    for contribution, mask, words, masked in slab.fold:
                        _and(contribution, mask, words)
                        _add(target, masked, target)
            layout.book(batch)
            residual = layout.interior(residual)

        if self.record is not None:
            for i, field in enumerate(fields):
                self.record.record_step(field, residual[i])
        # results are contiguous copies: they do not pin the padded batch
        residuals = None
        if keep_all:
            residuals = [residual[i].copy() for i in range(batch)]
        return FusedRunResult(
            residual=residual[batch - 1].copy(),
            applications=batch,
            report=self.report(),
            residuals=residuals,
        )

    # ------------------------------------------------------------------ #
    def report(self) -> FusedReport:
        """Accounting accumulated since construction."""
        return self._layout.report()


class _Workspace:
    """What a run needs but does not return, for one batch size.

    Whole-batch pressure and density, halo-padded and flat
    ``(batch, nz*(ny+2)*(nx+2))``, and everything else one slab long, in
    one ``(batch, buffers, slab lanes)`` block: three float scratch
    buffers, the integer select buffer, the masked fold operand and one
    contribution buffer per X-Y connection.  None needs initialising per
    run: halo pressure is a finite constant set here (so halo density is
    finite too), and the contribution lanes no kernel writes — the halo
    lanes at either end of a slab, all of them with
    ``compute_fluxes=False`` — stay the zeros they are allocated as.
    Every kernel and fold operand is a view sliced here once.

    One block rather than an array per buffer, so that a slab buffer is
    a strided view exactly like a slab of pressure or residual: where a
    C-contiguous 2-D operand of short rows (one 48x48 plane) meets
    strided ones, NumPy's iterator runs 2-3x slower than on operands
    that are all strided (measured, NumPy 2.4; DESIGN.md §16).
    """

    def __init__(self, fused: FusedFluxComputation, batch: int) -> None:
        dtype = fused.dtype
        layout = fused._layout
        nz, plane, edge = layout.padded_shape[0], layout.plane, layout.edge
        self.batch = batch
        # whole planes per slab, and never more scratch than the block
        depth = max(1, min(nz, _SLAB_ELEMENTS // (batch * plane)))
        self.p = p = np.full(
            (batch, nz * plane), fused.fluid.reference_pressure, dtype
        )
        self.rho = rho = np.empty_like(p)
        self.pressure = layout.interior(p)
        xy = [
            conn
            for connections, _hops, _phase in fused.ir.exchange_plan
            for conn in connections
        ]
        block = np.zeros((batch, 5 + len(xy), depth * plane), dtype)
        dp, a, b, masked, sel, *buffers = np.moveaxis(block, 1, 0)
        words = f"u{dtype.itemsize}"
        sel = sel.view(words)
        contributions = dict(zip(xy, buffers))
        gz = np.empty(depth * plane, dtype)  # g*(z_L - z_K) is the same for every field
        # (contribution, lane mask, masked as words, masked) per fold step.
        # The plane masks are tiled to the slab: broadcasting one over a
        # (batch, planes, plane) view costs NumPy's iterator 0.3 us per
        # row, 13 against 8 us per step at (8, 3, 2500)
        steps = [
            (
                contributions[conn].view(words),
                np.tile(mask, depth),
                masked.view(words),
                masked,
            )
            for conn, mask in fused._fold
        ]

        def operands(conn, lo, lanes):
            return layout.operands(conn, lo, lanes, (dp, gz, a, b, sel), p, rho)

        folds: dict[int, list] = {}  # by lanes: only the last slab may be short
        self.slabs = []
        for z0 in range(0, nz, depth):
            z1 = min(nz, z0 + depth)
            lo, lanes = z0 * plane, (z1 - z0) * plane
            vertical = []
            for conn in (Connection.UP, Connection.DOWN):
                at, n = layout.vertical_span(conn, z0, z1)
                if n > 0:
                    vertical.append((operands(conn, at, n), slice(at, at + n)))
            # X-Y sweeps run from the slab's first interior cell to its last
            horizontal = [
                operands(conn, lo + edge, lanes - 2 * edge)
                + (buffer[:, edge : lanes - edge],)
                for conn, buffer in contributions.items()
            ]
            if lanes not in folds:
                folds[lanes] = [tuple(x[..., :lanes] for x in step) for step in steps]
            self.slabs.append(
                _Slab(slice(lo, lo + lanes), vertical, horizontal, folds[lanes])
            )


@dataclass(frozen=True)
class _Slab:
    """One z-slab of whole planes: its lanes and prebuilt operand views."""

    here: slice
    #: (accumulate-kernel operands, residual lanes) per vertical connection
    vertical: list
    #: store-kernel operands, contribution target included, per X-Y connection
    horizontal: list
    #: (contribution words, lane mask, masked words, masked) per fold step
    fold: list


def _check_ir_lowerable(
    ir: FabricProgramIR, mesh: CartesianMesh3D, dtype: np.dtype
) -> None:
    if ir.kind != KIND_PROGRAM:
        raise ValueError(
            f"cannot lower a {ir.kind!r} IR to the fused backend "
            "(needs a flux-program IR with mesh and params)"
        )
    if ir.remap is not None:
        raise ValueError(
            "fused backend does not support spare-column remapping "
            "(the fold schedule is tiled from a probe of the unmapped "
            "fabric; bypass columns break its period-2 law)"
        )
    if ir.mesh_shape != (mesh.nx, mesh.ny, mesh.nz):
        raise ValueError(
            f"IR was built for mesh {ir.mesh_shape}, got "
            f"({mesh.nx}, {mesh.ny}, {mesh.nz})"
        )
    if np.dtype(ir.params["dtype"]) != dtype:
        raise ValueError(
            f"IR was built for dtype {ir.params['dtype']}, got {dtype.name}"
        )
    if not ir.exchange_plan:
        raise ValueError("IR carries no exchange plan to lower")


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


def _triple(s: slice) -> list[int]:
    """``range(*_triple(s))`` are the indices a class's slice selects."""
    return list(s.indices(s.stop))
