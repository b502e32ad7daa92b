"""The halo-padded flat layout and the one slab sweep of Algorithm 1.

One halo cell surrounds every z-plane and the block is flattened: cell
``(z, y, x)`` sits at ``z*plane + (y+1)*row + (x+1)`` and a connection
is the constant flat shift ``dz*plane + dy*row + dx``, so a kernel
sweeps one contiguous span per connection instead of ``nz*ny`` strided
rows.  Halo faces carry zero transmissibility and halo pressure is the
fluid's finite reference pressure: halo lanes compute finite zeros that
reach no real cell (DESIGN.md §16).

A sweep (:class:`SlabSweep`) runs *batch* fields of one layout along a
leading axis: density and mobility once over the padded batch (a
vertical face reads the plane next to its slab), then **per z-slab of
whole planes** the five store kernels and the caller's fold program, so
the arrays a cell's faces touch stay cache-resident from the first
kernel to the last add.  The ``ceil(nz / depth)`` slabs are balanced,
their depths at most one plane apart.  A cell's contributions all meet
inside its own slab, in program order, so the slab size cannot move a
bit.

Each face is evaluated once (Eq. 3: cell L receives ``-F_KL`` from
the face K computes).  The member of a face pair with a positive flat
shift ``s`` (EAST, SOUTH, SOUTHEAST, SOUTHWEST, UP) stores its fluxes
``C`` in a contribution buffer; the reciprocal connection's fold step
subtracts ``C[cells - s]``.  An X-Y store starts ``s`` lanes before its
slab's first interior cell.  UP stores the slab's planes that have an
upper neighbour one plane into its buffer, whose front plane holds the
previous slab's last UP fluxes (carried there through a spare plane at
the end of each slab), so DOWN finds every flux it folds without a
kernel of its own.  That is the reciprocal kernel's bytes: both sides
read one transmissibility, the collapsed X-Y branch and the full
vertical sequence negate exactly, a zero flux may differ only in its
sign, and ``r - C`` is ``r + (-C)`` (DESIGN.md §16).

The **fold program**, ``(connection, lane mask | None)`` steps in
order, is the only thing the backends do differently
(:data:`PHASED_PROGRAM` for cluster and par, its steps from the IR's
exchange plan for lockstep, UP, DOWN and the masked schedule for fused):

* a step with a ``None`` mask adds or subtracts the contribution over
  the slab's cells that have that neighbour;
* an X-Y step with a lane mask (one padded plane of same-width unsigned
  words) first keeps the contribution on the mask's lanes:
  ``contribution & mask``, then ``residual +=`` or ``-=`` that.  Lanes
  the mask leaves out receive ``+0.0``, which changes neither a finite
  residual accumulated from ``+0.0`` (it can never be ``-0.0``) nor a
  non-finite one.

**Non-finite input.**  With ``inf`` / ``NaN`` pressure cells, a cell
whose per-face fold is finite keeps its bytes and a non-finite one stays
non-finite: a halo face contributes ``+-inf * 0 = NaN`` only to a cell
whose real faces are non-finite already, and a cell whose faces are all
finite reads only fluxes computed from finite operands.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core import constants
from repro.core.kernels import FluxScratch, face_flux
from repro.core.stencil import VERTICAL, XY_CONNECTIONS, Connection, interior_slices, opposite
from repro.core.transmissibility import Transmissibility
from repro.obs.spans import span

__all__ = ["PHASED_PROGRAM", "PaddedLayout", "SlabSweep", "SlabWorkspace"]

#: Bytes of ``batch x lanes`` elements one z-slab (whole planes, at
#: least one, at most the block) holds per array: small enough that a
#: slab's ~16 arrays stay in cache between its kernels and its fold,
#: large enough that ufunc call overhead does not take the gain back.
#: A measured constant (DESIGN.md §16 has the scan), not an option;
#: tests monkeypatch it.
_SLAB_BYTES = 1 << 18

#: The phased fold class's program (lockstep, gpu, cluster, par): UP and
#: DOWN from memory, then the Sec. 5.2 exchange's cardinals and diagonals.
PHASED_PROGRAM = tuple((conn, None) for conn in VERTICAL + XY_CONNECTIONS)

#: The member of each face pair with a positive flat shift, whose
#: kernel stores the pair's fluxes; UP reads the vertical pair's field.
_POSITIVE = (Connection.EAST, Connection.SOUTH, Connection.SOUTHEAST,
             Connection.SOUTHWEST, Connection.UP)

_and = np.bitwise_and
_add = np.add
_sub = np.subtract
_copyto = np.copyto
_QUIET = nullcontext()


class PaddedLayout:
    """One mesh on the padded layout: geometry, elevation, and one
    padded transmissibility field per face pair.

    The elevation is the mesh's layer column, ``nz`` values: X-Y faces
    never read it, and the sweep spreads it along each plane of its
    workspace for the vertical faces.

    ``trans[c][i]`` is Upsilon between lane ``i`` and lane ``i +
    shift(c)`` for the positive-shift member ``c`` of a pair, zero
    unless both are real cells; the reciprocal connection reads it one
    shift earlier.
    """

    def __init__(self, mesh, fluid, dtype, trans: Transmissibility | None = None) -> None:
        self.mesh, self.fluid = mesh, fluid
        self.dtype = dtype = np.dtype(dtype)
        if trans is None:
            trans = Transmissibility(mesh, dtype=dtype)
        elif trans.mesh is not mesh:
            raise ValueError("trans was built for a different mesh")
        self.gravity = dtype.type(constants.GRAVITY)
        nz, ny, nx = mesh.shape_zyx
        row = nx + 2
        self.plane = plane = (ny + 2) * row
        self.padded_shape = (nz, ny + 2, row)
        self.lanes = nz * plane
        self.shifts = {}
        for conn in Connection:
            dx, dy, dz = conn.offset
            self.shifts[conn] = dz * plane + dy * row + dx
        self.elevation = np.asarray(mesh.elevation[:, 0, 0], dtype)
        self.trans = {}
        for conn in _POSITIVE:
            field = np.zeros(self.padded_shape, dtype)
            local, _neighbour = interior_slices(mesh.shape_zyx, conn)
            field[:, 1:-1, 1:-1][local] = trans.face_array(conn)
            self.trans[conn] = field.ravel()

    def interior(self, flat: np.ndarray) -> np.ndarray:
        """The real cells of a padded flat array, as a ``(..., nz, ny, nx)`` view."""
        return flat.reshape(flat.shape[:-1] + self.padded_shape)[..., 1:-1, 1:-1]

    def depth(self, batch: int) -> int:
        """Whole planes per slab for *batch* fields: at least one, and
        never more than the block."""
        per_plane = batch * self.plane * self.dtype.itemsize
        return max(1, min(self.padded_shape[0], _SLAB_BYTES // per_plane))


def _cache_lines(shape, dtype) -> np.ndarray:
    """Zeros of *shape* on a 64-byte boundary: the kernels ran 13-16 %
    slower on slab scratch malloc placed 8-, 16- or 48-byte aligned
    (DESIGN.md §18), so a run's speed depended on heap layout."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.zeros(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def _whole_lines(lanes: int, dtype) -> int:
    """*lanes* rounded up to a whole number of 64-byte cache lines."""
    itemsize = np.dtype(dtype).itemsize
    return -(-lanes * itemsize // 64) * 64 // itemsize


class SlabWorkspace:
    """What lives only inside one :meth:`SlabSweep.run`, for *batch*
    fields of any of *layouts* (one dtype), run one at a time.

    Density, mobility and the elevation spread along each plane at the
    largest layout's padded lanes (:meth:`SlabSweep.run` respreads it
    when the layout differs from the last one that ran), and one
    ``(batch, buffers, slab lanes)`` block at its largest slab: three
    float scratch buffers and one contribution buffer per X-Y face pair
    (a masked fold step writes its masked operand into the third
    scratch buffer, which no kernel is using between steps); beside it
    a slab of ``g*dz``, the integer select buffer, an allocation of
    its own (:class:`~repro.core.kernels.FluxScratch`), the vertical
    pair's contribution buffer :attr:`up`, ``(batch, plane + slab)``
    lanes whose front plane carries the previous slab's last UP fluxes,
    and the one-plane :attr:`spare` the carry goes through.  One block
    rather than an array per X-Y buffer, so that a slab buffer is a
    strided view exactly like a slab of pressure or residual: where a
    C-contiguous 2-D operand of short rows (one 48x48 plane) meets
    strided ones, NumPy's iterator runs 2-3x slower than on operands
    that are all strided (measured, NumPy 2.4; DESIGN.md §16).  Every
    row starts on a cache line.
    """

    def __init__(self, layouts, batch: int = 1) -> None:
        layouts = list(layouts)
        self.dtype = dtype = layouts[0].dtype
        self.batch = batch
        self.lanes = max(layout.lanes for layout in layouts)
        self.plane = plane = max(layout.plane for layout in layouts)
        slab = max(layout.depth(batch) * layout.plane for layout in layouts)
        self.slab = slab = _whole_lines(slab, dtype)
        self.rho = np.empty((batch, self.lanes), dtype)
        self.lam = np.empty_like(self.rho)
        self.elevation = np.empty(self.lanes, dtype)
        #: ``(plane, layer bytes)`` of what :attr:`elevation` holds
        self.spread = None
        self.block = _cache_lines((batch, 3 + 4, slab), dtype)
        self.gz = _cache_lines((slab,), dtype)
        self.sel = _cache_lines((batch, slab), f"u{dtype.itemsize}")
        self.up = _cache_lines((batch, _whole_lines(plane + slab, dtype)), dtype)
        self.spare = _cache_lines((batch, _whole_lines(plane, dtype)), dtype)


class SlabSweep:
    """Algorithm 1 on one layout, in the order of a fold program.

    Holds the padded pressure of *workspace*'s batch (:attr:`pressure`
    is its ``(batch, nz, ny, nx)`` interior view) and every kernel and
    fold operand, sliced once.  *name*, if given, prefixes the spans
    (``.local`` for density and mobility, ``.rounds`` for the store
    kernels, ``.fold`` for the fold program).  With
    ``compute_fluxes=False`` no store kernel runs and the X-Y steps fold
    the zeros the contribution buffers are allocated as.
    """

    def __init__(self, layout: PaddedLayout, program, workspace: SlabWorkspace,
                 name: str | None = None, compute_fluxes: bool = True) -> None:
        dtype, batch = layout.dtype, workspace.batch
        (nz, _rows, row), plane, lanes = layout.padded_shape, layout.plane, layout.lanes
        depth = layout.depth(batch)
        if (dtype != workspace.dtype or lanes > workspace.lanes
                or depth * plane > workspace.slab or plane > workspace.plane):
            raise ValueError(f"workspace was not sized for a {layout.mesh.shape_zyx} block")
        self.layout, program = layout, tuple(program)
        self._spans = (
            (_quiet, (None,) * 3) if name is None
            else (span, (f"{name}.local", f"{name}.rounds", f"{name}.fold"))
        )
        shifts, gravity = layout.shifts, layout.gravity
        self.p = p = np.full((batch, lanes), layout.fluid.reference_pressure, dtype)
        self.pressure = layout.interior(p)
        self._rho = rho = workspace.rho[:, :lanes]
        self._lam = lam = workspace.lam[:, :lanes]
        dp, a, b, *buffers = np.moveaxis(workspace.block, 1, 0)
        words = f"u{dtype.itemsize}"
        gz, sel = workspace.gz, workspace.sel
        # the member of each face pair with a positive shift computes the
        # pair's one flux; its reciprocal folds that flux negated, shifted
        kept = {
            conn: conn if shifts[conn] > 0 else opposite(conn)
            for conn, _mask in program
        }
        contributions = dict(zip(
            (conn for conn in dict.fromkeys(kept.values()) if not conn.is_vertical), buffers
        ))
        if Connection.UP in kept.values():
            contributions[Connection.UP] = workspace.up
        # the plane masks are tiled to the slab: broadcasting one over a
        # (batch, planes, plane) view costs NumPy's iterator 0.3 us per
        # row, 13 against 8 us per step at (8, 3, 2500)
        masks = [None if mask is None else np.tile(mask, depth) for _c, mask in program]
        self._workspace = workspace
        # the layers spread along each plane: vertical faces read the
        # elevation per lane, so that every operand is one flat span
        elevation = workspace.elevation[:lanes]
        self._spread = (plane, layout.elevation.tobytes())

        def operands(conn, lo, n):
            """The statement's operands up to its flux target, *n* lanes
            from *lo*: the scratch cut to the span, then p, z, rho and
            lambda of the cells and of their *conn* neighbours, one flat
            shift away, and the pair's transmissibility."""
            here = slice(lo, lo + n)
            there = slice(lo + shifts[conn], lo + shifts[conn] + n)
            # X-Y neighbours share the elevation column: the same view object
            # twice selects the kernel's collapsed branch (an identity test)
            z_k = elevation[here]
            z_l = elevation[there] if conn.is_vertical else z_k
            pair, faces = (conn, here) if shifts[conn] > 0 else (opposite(conn), there)
            return (
                FluxScratch(*(x[..., :n] for x in (dp, gz, a, b, sel))),
                p[:, here], p[:, there], z_k, z_l, rho[:, here], rho[:, there],
                lam[:, here], lam[:, there], layout.trans[pair][faces],
            )

        edge = row + 1

        def cells(conn, z0, z1):
            """The lanes of slab ``[z0, z1)`` that fold *conn*: the planes
            whose cells have that vertical neighbour, or from the slab's
            first interior cell to its last, ``edge`` lanes in from either
            end (every mask bit lies in that span)."""
            if conn.is_vertical:
                dz = conn.offset[2]
                return slice(max(z0, -dz) * plane, min(z1, nz - dz) * plane)
            return slice(z0 * plane + edge, z1 * plane - edge)

        # lane i of a contribution buffer is lane lo - front + i of a slab
        # from lane lo; an X-Y store starts s lanes early, so that its
        # reciprocal finds every flux it folds at cells - s, while UP's
        # early plane is the previous slab's last, carried to the front
        front = {conn: plane if conn.is_vertical else 0 for conn in contributions}
        early = {conn: 0 if conn.is_vertical else shifts[conn] for conn in contributions}
        #: per slab: ``(store-kernel arguments, steps, carry)``; a step
        #: is ``(residual lanes, add or subtract, lane mask, contribution
        #: words, masked words, operand)``, the carry ``(source, spare,
        #: front)`` or None
        self._slabs = []
        for z0, z1 in _balanced(nz, depth):
            lo, n = z0 * plane, (z1 - z0) * plane
            inner = slice(edge, n - edge)
            stored = []
            if compute_fluxes:
                for conn, buffer in contributions.items():
                    lanes = cells(conn, z0, z1)
                    first, last = lanes.start - early[conn], lanes.stop
                    if last > first:
                        stored.append(
                            operands(conn, first, last - first)
                            + (buffer[:, first - lo + front[conn] : last - lo + front[conn]],
                               gravity)
                        )
            steps = []
            for (conn, _mask), mask in zip(program, masks):
                lanes = cells(conn, z0, z1)
                if lanes.stop <= lanes.start:
                    continue
                # r - (-F) is r + F bit for bit: IEEE subtraction adds the
                # exact negation (DESIGN.md §16 has the reciprocity argument)
                pair = kept[conn]
                s = 0 if pair is conn else shifts[pair]
                contribution = contributions[pair][
                    :, lanes.start - lo + front[pair] - s : lanes.stop - lo + front[pair] - s
                ]
                op = _add if s == 0 else _sub
                if mask is None:
                    steps.append((lanes, op, None, None, None, contribution))
                else:
                    steps.append((
                        lanes, op, mask[inner], contribution.view(words),
                        b[:, inner].view(words), b[:, inner],
                    ))
            carry = None
            if stored and Connection.UP in contributions and z1 < nz:
                # UP's last plane, z1 - 1, to the front for the next slab's
                # first DOWN plane, through the spare: a copy between views
                # whose bounds overlap makes NumPy copy the source first
                up = contributions[Connection.UP]
                carry = (up[:, n : n + plane], workspace.spare[:, :plane], up[:, :plane])
            self._slabs.append((stored, steps, carry))

    def load(self, fields) -> None:
        """Cast each of the batch's *fields* into :attr:`pressure`."""
        for i, field in enumerate(fields):
            self.layout.mesh.validate_field(field, name="pressure")
            self.pressure[i] = field

    def run(self, residual: np.ndarray) -> None:
        """Add the residual of what :attr:`pressure` holds into
        *residual*, a ``(batch, lanes)`` padded flat array the caller
        zeroed."""
        layout, workspace = self.layout, self._workspace
        if workspace.spread != self._spread:
            nz, plane = layout.padded_shape[0], layout.plane
            spread = workspace.elevation[: layout.lanes].reshape(nz, plane)
            np.copyto(spread, layout.elevation[:, None])
            workspace.spread = self._spread
        fluid = layout.fluid
        opened, (local, rounds, fold) = self._spans
        with opened(local):  # Eq. 5 over the padded block, halo lanes included
            fluid.density(self.p, out=self._rho)
            fluid.mobility(self._rho, out=self._lam)
        for stored, steps, carry in self._slabs:
            if stored:
                # one kernel call per face pair, each into its own
                # contribution buffer
                with opened(rounds):
                    for args in stored:
                        face_flux(*args)
            with opened(fold):
                for lanes, op, mask, words, masked_words, operand in steps:
                    if mask is not None:
                        _and(words, mask, masked_words)
                    target = residual[:, lanes]
                    op(target, operand, target)
            if carry is not None:
                last, spare, first = carry
                _copyto(spare, last)
                _copyto(first, spare)


def _balanced(nz: int, depth: int):
    """``(z0, z1)`` of ``ceil(nz / depth)`` slabs whose depths differ by
    at most one plane: 16 planes at depth 3 are 3, 3, 2, 2, 3, 3, not a
    one-plane tail.  The deeper slabs go to the two ends, where DOWN
    (first slab) and UP (last slab) span one plane less than the slab:
    NumPy's iterator buffers operands whose rows are shorter than a third
    of its buffer (one 48x48 plane at batch 8 allocates 61 KB per call)."""
    count = -(-nz // depth)
    base, extra = divmod(nz, count)
    z0 = 0
    for i in range(count):
        # ends first: 0, count - 1, 1, count - 2, ...
        rank = 2 * min(i, count - 1 - i) + (i > count - 1 - i)
        z1 = z0 + base + (rank < extra)
        yield z0, z1
        z0 = z1


def _quiet(_label):
    return _QUIET
