"""The 10-neighbour flux stencil (paper Sec. 5.1-5.2).

Every interior cell ``(x, y, z)`` exchanges a flux with

* four X-Y **cardinal** neighbours — east ``(x+1, y)``, west ``(x-1, y)``,
  north ``(x, y-1)``, south ``(x, y+1)`` (the paper's fabric convention,
  Sec. 5.2.1: "northbound neighbor at cell (x, y-1, z)");
* four X-Y **diagonal** neighbours — NE, NW, SE, SW; and
* two **vertical** neighbours — up ``(x, y, z+1)`` and down ``(x, y, z-1)``.

Fields are stored as C-ordered arrays of shape ``(nz, ny, nx)`` so that the
X dimension is innermost, matching the paper's GPU memory layout (Sec. 6).
"""

from __future__ import annotations

import enum
from typing import Iterator

__all__ = [
    "Connection",
    "CARDINAL_XY",
    "DIAGONAL_XY",
    "VERTICAL",
    "ALL_CONNECTIONS",
    "XY_CONNECTIONS",
    "EXCHANGE_PLAN",
    "opposite",
    "interior_slices",
]


class Connection(enum.Enum):
    """A directed connection from a cell to one of its 10 flux neighbours.

    The value is the cell-index offset ``(dx, dy, dz)``.
    """

    EAST = (1, 0, 0)
    WEST = (-1, 0, 0)
    NORTH = (0, -1, 0)
    SOUTH = (0, 1, 0)
    NORTHEAST = (1, -1, 0)
    NORTHWEST = (-1, -1, 0)
    SOUTHEAST = (1, 1, 0)
    SOUTHWEST = (-1, 1, 0)
    UP = (0, 0, 1)
    DOWN = (0, 0, -1)

    #: Members are singletons, so the C-level identity hash is valid and
    #: avoids the Python-level ``Enum.__hash__`` on halo-table lookups,
    #: which key on Connection in the simulator's per-message hot path.
    __hash__ = object.__hash__

    @property
    def offset(self) -> tuple[int, int, int]:
        """Cell-index offset ``(dx, dy, dz)`` of the neighbour."""
        return self.value

    @property
    def is_diagonal(self) -> bool:
        """True for the four X-Y diagonal connections."""
        dx, dy, _ = self.value
        return dx != 0 and dy != 0

    @property
    def is_vertical(self) -> bool:
        """True for UP/DOWN (neighbours resident in the same PE, Sec. 5.1)."""
        return self.value[2] != 0

    @property
    def is_cardinal_xy(self) -> bool:
        """True for E/W/N/S (single-hop fabric neighbours)."""
        return not self.is_diagonal and not self.is_vertical


#: The four X-Y cardinal connections in the paper's enumeration order.
CARDINAL_XY = (
    Connection.EAST,
    Connection.WEST,
    Connection.NORTH,
    Connection.SOUTH,
)

#: The four X-Y diagonal connections.
DIAGONAL_XY = (
    Connection.NORTHEAST,
    Connection.NORTHWEST,
    Connection.SOUTHEAST,
    Connection.SOUTHWEST,
)

#: The two vertical (in-PE-memory) connections.
VERTICAL = (Connection.UP, Connection.DOWN)

#: All 10 connections, cardinal first, then diagonal, then vertical.
ALL_CONNECTIONS = CARDINAL_XY + DIAGONAL_XY + VERTICAL

#: The eight connections requiring fabric communication (Sec. 5.2 a-b).
XY_CONNECTIONS = CARDINAL_XY + DIAGONAL_XY

#: The Sec. 5.2 exchange as ``(connections, hops, phase)`` per phase, in
#: the order the fold contract runs them: one-hop cardinals, then the
#: two-hop diagonal flows.
EXCHANGE_PLAN = ((CARDINAL_XY, 1, "cardinal"), (DIAGONAL_XY, 2, "diagonal"))

_OPPOSITE = {
    Connection.EAST: Connection.WEST,
    Connection.WEST: Connection.EAST,
    Connection.NORTH: Connection.SOUTH,
    Connection.SOUTH: Connection.NORTH,
    Connection.NORTHEAST: Connection.SOUTHWEST,
    Connection.SOUTHWEST: Connection.NORTHEAST,
    Connection.NORTHWEST: Connection.SOUTHEAST,
    Connection.SOUTHEAST: Connection.NORTHWEST,
    Connection.UP: Connection.DOWN,
    Connection.DOWN: Connection.UP,
}


def opposite(conn: Connection) -> Connection:
    """Return the reciprocal connection (L's view of the K-L face)."""
    return _OPPOSITE[conn]


def _axis_slices(n: int, delta: int) -> tuple[slice, slice]:
    """Slices selecting (cells-with-neighbour, their-neighbours) on one axis."""
    if delta == 0:
        return slice(None), slice(None)
    if delta > 0:
        return slice(0, n - delta), slice(delta, n)
    return slice(-delta, n), slice(0, n + delta)


def interior_slices(
    shape_zyx: tuple[int, int, int], conn: Connection
) -> tuple[tuple[slice, slice, slice], tuple[slice, slice, slice]]:
    """Return ``(local, neighbour)`` index tuples for arrays of shape (nz, ny, nx).

    ``array[local]`` selects every cell that *has* a neighbour along *conn*,
    and ``array[neighbour]`` selects those neighbours, element-aligned.  This
    is the core vectorization device of the reference kernel: a whole
    direction's fluxes are evaluated with two array views and no copies.
    """
    nz, ny, nx = shape_zyx
    dx, dy, dz = conn.offset
    kx = _axis_slices(nx, dx)
    ky = _axis_slices(ny, dy)
    kz = _axis_slices(nz, dz)
    local = (kz[0], ky[0], kx[0])
    neigh = (kz[1], ky[1], kx[1])
    return local, neigh


def iter_neighbours(
    x: int, y: int, z: int, shape_xyz: tuple[int, int, int]
) -> Iterator[tuple[Connection, tuple[int, int, int]]]:
    """Yield the in-bounds ``(connection, neighbour_coordinate)`` pairs of a cell.

    Scalar companion to :func:`interior_slices`, used by the per-PE dataflow
    kernel and by brute-force test oracles.
    """
    nx, ny, nz = shape_xyz
    for conn in ALL_CONNECTIONS:
        dx, dy, dz = conn.offset
        xx, yy, zz = x + dx, y + dy, z + dz
        if 0 <= xx < nx and 0 <= yy < ny and 0 <= zz < nz:
            yield conn, (xx, yy, zz)
