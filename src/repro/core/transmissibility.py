"""TPFA transmissibilities for the 10-connection stencil (paper Eq. 3a).

The transmissibility ``Upsilon_KL`` is "a coefficient accounting for the
geometry of the cells and their permeability" (Sec. 3).  We use the standard
two-point construction: each cell contributes a half-transmissibility

    T_K = kappa_K * A / d_K

where ``A`` is the face area and ``d_K`` the distance from the cell centre
to the face, and the face value is the harmonic combination

    Upsilon_KL = T_K * T_L / (T_K + T_L).

**Diagonal connections.**  A Cartesian mesh has no geometric face between
diagonal neighbours; the paper computes these four extra fluxes anyway "to
prepare the communication pattern for either higher-accuracy schemes or more
intricate meshes" (Sec. 3).  We give them a documented pseudo-geometry:
centre distance ``d = hypot(dx, dy)`` and projected interface area
``A = dz * dx * dy / d``, scaled by a ``diagonal_weight`` factor (default 1,
set 0 to recover the classical 7-point TPFA).  Any symmetric positive choice
preserves the paper-relevant behaviour (flux antisymmetry, communication
volume, FLOP counts).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import (
    ALL_CONNECTIONS,
    Connection,
    interior_slices,
)

__all__ = ["Transmissibility", "CANONICAL_CONNECTIONS", "padded_trans_fields"]

#: One representative per reciprocal pair; the face array of the opposite
#: connection is identical (same set of faces, element-aligned).
CANONICAL_CONNECTIONS = (
    Connection.EAST,
    Connection.SOUTH,
    Connection.SOUTHEAST,
    Connection.NORTHEAST,
    Connection.UP,
)

_CANONICAL_OF = {
    Connection.EAST: Connection.EAST,
    Connection.WEST: Connection.EAST,
    Connection.SOUTH: Connection.SOUTH,
    Connection.NORTH: Connection.SOUTH,
    Connection.SOUTHEAST: Connection.SOUTHEAST,
    Connection.NORTHWEST: Connection.SOUTHEAST,
    Connection.NORTHEAST: Connection.NORTHEAST,
    Connection.SOUTHWEST: Connection.NORTHEAST,
    Connection.UP: Connection.UP,
    Connection.DOWN: Connection.UP,
}


class Transmissibility:
    """Per-face transmissibilities over a mesh for all 10 connections.

    Parameters
    ----------
    mesh:
        The Cartesian mesh providing geometry and permeability.
    diagonal_weight:
        Multiplier applied to the four X-Y diagonal transmissibilities
        (0 disables diagonal fluxes numerically while keeping the code
        path and communication pattern intact).
    dtype:
        Floating dtype of the stored arrays.
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        *,
        diagonal_weight: float = 1.0,
        dtype=np.float64,
    ) -> None:
        if diagonal_weight < 0:
            raise ValueError("diagonal_weight must be non-negative")
        self.mesh = mesh
        self.diagonal_weight = float(diagonal_weight)
        self.dtype = np.dtype(dtype)
        self._faces: dict[Connection, np.ndarray] = {}
        kappa = mesh.permeability
        for conn in CANONICAL_CONNECTIONS:
            geom_k, geom_l = self._half_factors(conn)
            local, neigh = interior_slices(mesh.shape_zyx, conn)
            t_k = kappa[local] * geom_k
            t_l = kappa[neigh] * geom_l
            with np.errstate(divide="ignore", invalid="ignore"):
                ups = np.where(t_k + t_l > 0, t_k * t_l / (t_k + t_l), 0.0)
            if conn.is_diagonal:
                ups = ups * self.diagonal_weight
            self._faces[conn] = np.ascontiguousarray(ups, dtype=self.dtype)

    def _half_factors(self, conn: Connection):
        """Half-face geometric factors ``A / d_half`` for both sides.

        Returned values are scalars or ``(nz', 1, 1)`` arrays
        broadcastable over the face slice; with variable layering
        (``mesh.dz_layers``) horizontal faces scale with each layer's
        thickness and vertical faces use each side's own half distance.
        """
        mesh = self.mesh
        dx, dy = mesh.dx, mesh.dy
        dz_col = mesh.dz_column[:, None, None]
        if conn is Connection.EAST:
            f = (dy * dz_col) / (dx / 2.0)
            return f, f
        if conn is Connection.SOUTH:
            f = (dx * dz_col) / (dy / 2.0)
            return f, f
        if conn is Connection.UP:
            area = dx * dy
            return (
                area / (dz_col[:-1] / 2.0),
                area / (dz_col[1:] / 2.0),
            )
        # diagonal pseudo-face (see module docstring)
        d = math.hypot(dx, dy)
        area = dz_col * dx * dy / d
        f = area / (d / 2.0)
        return f, f

    def face_array(self, conn: Connection) -> np.ndarray:
        """Transmissibilities for every face along *conn*.

        The returned array is element-aligned with
        ``field[interior_slices(mesh.shape_zyx, conn)[0]]`` — i.e. entry
        ``i`` is ``Upsilon_KL`` for the ``i``-th cell that has a neighbour
        in that direction.  Reciprocal connections share the same array
        (``Upsilon_KL == Upsilon_LK``).
        """
        return self._faces[_CANONICAL_OF[conn]]

    def for_cell(self, x: int, y: int, z: int) -> dict[Connection, float]:
        """All 10 transmissibilities of one cell (0 where no neighbour exists).

        Scalar companion used to provision per-PE memory in the dataflow
        implementation (Sec. 5.1: "10 transmissibilities for the fluxes
        between the cell and its neighbors").
        """
        nx, ny, nz = self.mesh.shape_xyz
        out: dict[Connection, float] = {}
        for conn in ALL_CONNECTIONS:
            ddx, ddy, ddz = conn.offset
            xx, yy, zz = x + ddx, y + ddy, z + ddz
            if not (0 <= xx < nx and 0 <= yy < ny and 0 <= zz < nz):
                out[conn] = 0.0
                continue
            canon = _CANONICAL_OF[conn]
            local, _ = interior_slices(self.mesh.shape_zyx, canon)
            # Identify the face index: the canonical local cell is the one
            # with the smaller coordinate along each offset axis.
            cx, cy, cz = (x, y, z) if conn is canon else (xx, yy, zz)
            zs, ys, xs = local
            iz = cz - (zs.start or 0)
            iy = cy - (ys.start or 0)
            ix = cx - (xs.start or 0)
            out[conn] = float(self._faces[canon][iz, iy, ix])
        return out

    def total_faces(self) -> int:
        """Total number of distinct faces carrying a transmissibility."""
        return sum(arr.size for arr in self._faces.values())


def padded_trans_fields(
    mesh: CartesianMesh3D,
    trans: Transmissibility,
    dtype=np.float32,
) -> dict[Connection, np.ndarray]:
    """Full-mesh transmissibility fields, zero where no neighbour exists.

    ``out[conn][z, y, x]`` is ``Upsilon`` between cell (x, y, z) and its
    *conn* neighbour (0 on the boundary), ready to slice into per-PE
    columns.
    """
    out: dict[Connection, np.ndarray] = {}
    for conn in ALL_CONNECTIONS:
        full = np.zeros(mesh.shape_zyx, dtype=dtype)
        local, _ = interior_slices(mesh.shape_zyx, conn)
        full[local] = trans.face_array(conn)
        out[conn] = full
    return out
