"""Algorithm 1 in host fold order on the halo-padded flat layout.

:class:`FlatFluxKernel` is the per-rank kernel of the cluster and par
backends.  It evaluates what ``FluxKernel(method="cell")`` (the oracle,
:mod:`repro.core.flux`) evaluates — the same per-face operation
sequence, connections folded in ``ALL_CONNECTIONS`` order — and returns
the same bytes, on the layout the fused backend uses (DESIGN.md §16):
one x/y halo cell around every z-plane, flattened, so cell ``(z, y, x)``
sits at ``z*plane + (y+1)*row + (x+1)`` and every connection is the
constant flat shift ``dz*plane + dy*row + dx``.  Halo faces carry zero
transmissibility and halo pressure is the fluid's reference pressure.

Three rewrites separate it from the oracle, each exact in IEEE
arithmetic:

1. ``lambda = rho / mu`` is divided once per application, before the
   upwind select instead of after it for every connection:
   ``select(rho_K, rho_L) / mu == select(rho_K / mu, rho_L / mu)``.
2. The select is the integer bit-select ``lam_L ^ ((lam_K ^ lam_L) &
   -(dphi > 0))`` on same-width unsigned views (as in
   :mod:`repro.dataflow.flux_pe`): the bits of exactly one operand per
   lane, like ``np.where``.
3. Every connection sweeps one contiguous span — X-Y connections from
   the first interior cell of a slab of planes to its last, vertical
   ones whole planes — and ends with one contiguous ``res[span] +=
   flux``.  Lanes that are not a real face have zero transmissibility,
   so they add ``+-0.0`` to a sum that started from ``+0.0``, which
   cannot change a bit.  X-Y faces skip the gravity term, which is
   ``+0.0`` for a :class:`~repro.core.mesh.CartesianMesh3D` (elevation
   is a layer column); the one bit that drops — ``dphi += +0.0`` turns
   a ``-0.0`` difference into ``+0.0`` — only changes the sign of a
   zero flux, unobservable by the same argument.

Planes are swept in slabs small enough to stay cache-resident; a cell's
ten connections fold inside exactly one slab, in order, so the slab size
cannot change a bit either.

**Non-finite input.**  ``validate_field`` checks shape only.  On a block
of more than one cell whose pressure holds ``inf`` or ``NaN`` cells,
every cell whose oracle residual is finite gets the oracle's bytes, and
every cell that is non-finite in the oracle is non-finite here: a halo
face contributes ``+-inf * 0 = NaN`` only to a cell that already has a
non-finite flux through a real face.
"""

from __future__ import annotations

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import ALL_CONNECTIONS, interior_slices, opposite
from repro.core.transmissibility import CANONICAL_CONNECTIONS, Transmissibility

__all__ = ["FlatFluxKernel", "FlatWorkspace"]

#: Most lanes one slab of planes sweeps (one plane at least).  A pass
#: touches about nine arrays, so a float64 slab works in ~1.2 MB: inside
#: a per-core cache even when two workers share one.
_SLAB_LANES = 1 << 14


def _layout(shape_zyx: tuple[int, int, int]) -> tuple[int, int, int]:
    """``(row, plane, planes per slab)`` of a block on the padded layout."""
    nz, ny, nx = shape_zyx
    row, plane = nx + 2, (ny + 2) * (nx + 2)
    return row, plane, max(1, min(nz, _SLAB_LANES // plane))


class FlatWorkspace:
    """What lives only inside one :meth:`FlatFluxKernel.compute`.

    Density, mobility and the residual accumulator at the largest
    block's padded size, plus slab-sized scratch.  One workspace serves
    the kernels of all *shapes* (``(nz, ny, nx)`` blocks) it was sized
    for; whoever runs them — the cluster driver, a par worker — owns it
    and runs them one at a time on one thread.  The residual a
    ``compute`` hands out is valid until the next ``compute`` on the
    same workspace.
    """

    def __init__(self, shapes, dtype=np.float64) -> None:
        self.dtype = dtype = np.dtype(dtype)
        lanes = slab = 0
        for shape in shapes:
            _row, plane, per_slab = _layout(shape)
            lanes = max(lanes, shape[0] * plane)
            slab = max(slab, per_slab * plane)
        self.rho = np.empty(lanes, dtype)
        self.lam = np.empty(lanes, dtype)
        self.res = np.empty(lanes, dtype)
        self.a = np.empty(slab, dtype)
        self.b = np.empty(slab, dtype)
        self.sel = np.empty(slab, f"u{dtype.itemsize}")
        #: the oracle's gravity term is float64 whatever the dtype
        #: (elevation is) and rounds once, when added into dphi
        self.grav = self.b if dtype == np.float64 else np.empty(slab, np.float64)


class FlatFluxKernel:
    """Algorithm 1 for one block; same bytes as ``FluxKernel(method="cell")``.

    Build once per block, write the field into :attr:`pressure` (the
    ``(nz, ny, nx)`` interior view of the padded buffer — scatter and
    halo strips land there directly), call :meth:`compute`.  Keeps the
    padded pressure and five padded transmissibility arrays; everything
    else is *workspace*'s.
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        workspace: FlatWorkspace,
        *,
        gravity: float = constants.GRAVITY,
    ) -> None:
        self.fluid = fluid
        self.shape_zyx = shape = mesh.shape_zyx
        dtype = workspace.dtype
        nz, ny, nx = shape
        row, plane, per_slab = _layout(shape)
        lanes = nz * plane
        if lanes > workspace.res.size or per_slab * plane > workspace.a.size:
            raise ValueError(f"workspace was not sized for a {shape} block")
        self._padded = (nz, ny + 2, row)
        self._rho = workspace.rho[:lanes]
        self._lam = workspace.lam[:lanes]
        self._res = workspace.res[:lanes]
        self._p = np.full(lanes, fluid.reference_pressure, dtype)
        self.pressure = self._interior(self._p)

        # trans[c][i] is Upsilon between cell i and cell i + shift(c),
        # zero unless both are real; the reciprocal connection reads it
        # through the neighbour-shifted view.  The unpadded arrays are
        # not kept.
        unpadded = Transmissibility(mesh, dtype=dtype)
        trans = {}
        for conn in CANONICAL_CONNECTIONS:
            field = np.zeros((nz - abs(conn.offset[2]), ny + 2, row), dtype)
            _z, ys, xs = interior_slices(shape, conn)[0]
            field[:, 1:-1, 1:-1][:, ys, xs] = unpadded.face_array(conn)
            trans[conn] = trans[opposite(conn)] = field.ravel()

        z = mesh.elevation[:, 0, 0]
        bits = workspace.sel.dtype
        lam_bits = self._lam.view(bits)
        #: per (slab, connection), in fold order: the operand views of
        #: one pass of :meth:`compute`
        self._plan = []
        for z0 in range(0, nz, per_slab):
            z1 = min(nz, z0 + per_slab)
            for conn in ALL_CONNECTIONS:
                dx, dy, dz = conn.offset
                shift = dz * plane + dy * row + dx
                if dz:
                    # the slab's planes that have the neighbour, 2-D so
                    # the gravity column broadcasts along each plane
                    first, last = max(z0, -dz), min(z1, nz - dz)
                    if first >= last:
                        continue
                    lo, count = first * plane, (last - first) * plane
                    form = (last - first, plane)
                    gz = (z[first + dz : last + dz] - z[first:last]) * float(gravity)
                else:
                    lo, count = z0 * plane + row + 1, (z1 - z0) * plane - 2 * (row + 1)
                    form = (count,)

                def span(flat, start):
                    return flat[start : start + count].reshape(form)

                there = lo + shift
                b = span(workspace.b, 0)
                self._plan.append((
                    span(self._p, lo), span(self._p, there),
                    span(lam_bits, lo), span(lam_bits, there),
                    span(trans[conn], lo if conn in CANONICAL_CONNECTIONS else there),
                    span(self._res, lo), span(workspace.a, 0), b, b.view(bits),
                    span(workspace.sel, 0),
                    (span(self._rho, lo), span(self._rho, there), gz[:, None],
                     span(workspace.grav, 0)) if dz else None,
                ))

    def _interior(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self._padded)[:, 1:-1, 1:-1]

    def compute(self) -> np.ndarray:
        """The residual of what :attr:`pressure` holds: the ``(nz, ny,
        nx)`` interior view of the workspace's accumulator."""
        self.fluid.density(self._p, out=self._rho)
        np.divide(self._rho, self.fluid.viscosity, out=self._lam)
        self._res.fill(0.0)
        for p_k, p_l, lam_k, lam_l, trans, res, a, b, b_bits, sel, grav in self._plan:
            np.subtract(p_l, p_k, out=a)
            if grav is not None:
                rho_k, rho_l, gz, g = grav
                np.add(rho_k, rho_l, out=b)
                np.multiply(b, 0.5, out=b)
                np.multiply(b, gz, out=g)
                np.add(a, g, out=a)
            # upwinded mobility (Eq. 4): lam_K where dphi > 0, else lam_L
            np.greater(a, 0.0, out=sel)
            np.negative(sel, out=sel)
            np.bitwise_xor(lam_k, lam_l, out=b_bits)
            np.bitwise_and(b_bits, sel, out=b_bits)
            np.bitwise_xor(b_bits, lam_l, out=b_bits)
            np.multiply(a, b, out=a)
            np.multiply(a, trans, out=a)
            np.add(res, a, out=res)
        return self._interior(self._res)

    def residual(
        self, pressure: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Copy *pressure* in, :meth:`compute`, copy the residual out
        (drop-in for ``FluxKernel.residual``)."""
        if np.shape(pressure) != self.shape_zyx:
            raise ValueError(
                f"pressure: expected shape {self.shape_zyx}, got {np.shape(pressure)}"
            )
        self.pressure[...] = pressure
        if out is None:
            return self.compute().copy()
        out[...] = self.compute()
        return out
