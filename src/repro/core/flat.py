"""Algorithm 1 in host fold order on the halo-padded flat layout.

:class:`FlatFluxKernel` is the per-rank kernel of the cluster and par
backends.  Per connection, in ``ALL_CONNECTIONS`` order, it runs the one
face-flux statement, :func:`repro.core.kernels.face_flux`, and adds the
fluxes into the residual — the gpu backend's sequence and fold, hence
its bytes.  It works on the layout the fused backend uses (DESIGN.md
§16): one x/y halo cell around every z-plane, flattened, so cell
``(z, y, x)`` sits at ``z*plane + (y+1)*row + (x+1)`` and every
connection is the constant flat shift ``dz*plane + dy*row + dx``.  Halo
faces carry zero transmissibility and halo pressure is the fluid's
reference pressure.

Every connection sweeps one contiguous span — X-Y connections from the
first interior cell of a slab of planes to its last, vertical ones
whole planes — and ends with one contiguous ``res[span] += flux``.
Lanes that are not a real face have zero transmissibility, so they add
``+-0.0`` to a sum that started from ``+0.0``, which cannot change a
bit.  X-Y faces hand the statement one elevation object twice, its
collapsed branch (elevation is a layer column on a
:class:`~repro.core.mesh.CartesianMesh3D`); vertical faces hand it the
slab's elevations as columns, so ``g*dz`` is formed once per plane and
broadcast along it.

Planes are swept in slabs small enough to stay cache-resident; a cell's
ten connections fold inside exactly one slab, in order, so the slab size
cannot change a bit either.

**Non-finite input.**  ``validate_field`` checks shape only.  On a block
of more than one cell whose pressure holds ``inf`` or ``NaN`` cells,
every cell whose residual is finite in the same fold over real faces
(the gpu backend's) gets those bytes, and every cell that is non-finite
there is non-finite here: a halo face contributes ``+-inf * 0 = NaN``
only to a cell that already has a non-finite flux through a real face.
"""

from __future__ import annotations

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.kernels import FluxScratch, face_flux
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


def _cache_line(n: int, dtype) -> np.ndarray:
    """*n* items of *dtype* on a 64-byte boundary: the kernels ran 13-16 %
    slower on slab scratch malloc placed 8-, 16- or 48-byte aligned
    (DESIGN.md §18), so a run's speed depended on heap layout."""
    dtype = np.dtype(dtype)
    raw = np.empty(n * dtype.itemsize + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + n * dtype.itemsize].view(dtype)


class FlatWorkspace:
    """What lives only inside one :meth:`FlatFluxKernel.compute`.

    Density, mobility and the residual accumulator at the largest
    block's padded size, plus slab-sized scratch.  One workspace serves
    the kernels of all *shapes* (``(nz, ny, nx)`` blocks) it was sized
    for; the rank program that runs them
    (:class:`~repro.cluster.flux.RankSet`) owns it and runs them one at
    a time on one thread.  The residual a
    ``compute`` hands out is valid until the next ``compute`` on the
    same workspace.
    """

    def __init__(self, shapes, dtype=np.float64) -> None:
        self.dtype = dtype = np.dtype(dtype)
        lanes = slab = planes = 0
        for shape in shapes:
            _row, plane, per_slab = _layout(shape)
            lanes = max(lanes, shape[0] * plane)
            slab = max(slab, per_slab * plane)
            planes = max(planes, per_slab)
        self.rho = np.empty(lanes, dtype)
        self.lam = np.empty(lanes, dtype)
        self.res = np.empty(lanes, dtype)
        #: one slab's scratch; ``gz`` holds one ``g*dz`` per plane
        self.scratch = FluxScratch(
            _cache_line(slab, dtype), np.empty((planes, 1), dtype), _cache_line(slab, dtype),
            _cache_line(slab, dtype), _cache_line(slab, f"u{dtype.itemsize}"),
        )


class FlatFluxKernel:
    """Algorithm 1 for one block; the gpu backend's bytes.

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
    ) -> None:
        self.fluid = fluid
        self.shape_zyx = shape = mesh.shape_zyx
        dtype = workspace.dtype
        nz, ny, nx = shape
        row, plane, per_slab = _layout(shape)
        lanes = nz * plane
        ws = workspace.scratch
        if lanes > workspace.res.size or per_slab * plane > ws.dp.size or per_slab > len(ws.gz):
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

        z = mesh.elevation[:, 0, 0].astype(dtype)
        g = dtype.type(constants.GRAVITY)
        #: per (slab, connection), in fold order: the statement's
        #: arguments, its flux target and the residual span
        self._plan = []
        for z0 in range(0, nz, per_slab):
            z1 = min(nz, z0 + per_slab)
            for conn in ALL_CONNECTIONS:
                dx, dy, dz = conn.offset
                shift = dz * plane + dy * row + dx
                if dz:
                    # the slab's planes that have the neighbour, 2-D so
                    # the elevation columns broadcast along each plane
                    first, last = max(z0, -dz), min(z1, nz - dz)
                    if first >= last:
                        continue
                    lo, count = first * plane, (last - first) * plane
                    form = (last - first, plane)
                    z_k, z_l = z[first:last, None], z[first + dz : last + dz, None]
                    gz = ws.gz[: last - first]
                else:
                    lo, count = z0 * plane + row + 1, (z1 - z0) * plane - 2 * (row + 1)
                    form = (count,)
                    z_k = z_l = z  # one object twice: the collapsed branch
                    gz = ws.gz

                def span(flat, start):
                    return flat[start : start + count].reshape(form)

                there = lo + shift
                scratch = FluxScratch(
                    span(ws.dp, 0), gz, span(ws.a, 0), span(ws.b, 0), span(ws.sel, 0)
                )
                flux = scratch.dp if dz else scratch.a
                self._plan.append((
                    (scratch, span(self._p, lo), span(self._p, there), z_k, z_l,
                     span(self._rho, lo), span(self._rho, there),
                     span(self._lam, lo), span(self._lam, there),
                     span(trans[conn], lo if conn in CANONICAL_CONNECTIONS else there),
                     flux, g),
                    flux, span(self._res, lo),
                ))

    def _interior(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self._padded)[:, 1:-1, 1:-1]

    def compute(self) -> np.ndarray:
        """The residual of what :attr:`pressure` holds: the ``(nz, ny,
        nx)`` interior view of the workspace's accumulator."""
        fluid = self.fluid
        fluid.density(self._p, out=self._rho)
        fluid.mobility(self._rho, out=self._lam)
        self._res.fill(0.0)
        for args, flux, res in self._plan:
            face_flux(*args)
            np.add(res, flux, res)
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
