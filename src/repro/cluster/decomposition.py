"""Block domain decomposition of the X-Y plane across ranks.

The Z dimension stays whole per rank (the same choice the paper makes
per PE, Sec. 5.1); the X-Y plane splits into a ``px x py`` grid of
near-equal blocks.  Each rank's working set is its block padded by a
one-cell halo clipped to the global mesh — wide enough for the
10-neighbour stencil (all offsets are at most one cell).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mesh import CartesianMesh3D

__all__ = ["Block", "BlockDecomposition"]


def _split(n: int, parts: int) -> list[tuple[int, int]]:
    """Split range(n) into ``parts`` contiguous near-equal pieces."""
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out


@dataclass(frozen=True)
class Block:
    """One rank's region of the global mesh.

    ``x0:x1 / y0:y1`` is the *owned* cell range; ``gx0:gx1 / gy0:gy1``
    is the halo-padded range actually resident on the rank.
    """

    rank: int
    x0: int
    x1: int
    y0: int
    y1: int
    gx0: int
    gx1: int
    gy0: int
    gy1: int

    @property
    def padded_shape_xy(self) -> tuple[int, int]:
        return (self.gx1 - self.gx0, self.gy1 - self.gy0)

    def owned_slices_in_padded(self) -> tuple[slice, slice]:
        """(y, x) slices selecting owned cells within the padded arrays."""
        return (
            slice(self.y0 - self.gy0, self.y1 - self.gy0),
            slice(self.x0 - self.gx0, self.x1 - self.gx0),
        )


class BlockDecomposition:
    """Split a mesh's X-Y plane into ``px x py`` halo-padded blocks."""

    def __init__(self, mesh: CartesianMesh3D, px: int, py: int) -> None:
        if px < 1 or py < 1:
            raise ValueError("process grid dimensions must be >= 1")
        # px > Nx (or py > Ny) would make _split hand some ranks
        # zero-width pieces: name the offending axis and both sizes
        # instead of silently yielding empty blocks downstream.
        if px > mesh.nx:
            raise ValueError(
                f"process grid {px}x{py}: px={px} ranks along X exceed "
                f"mesh Nx={mesh.nx} (empty blocks)"
            )
        if py > mesh.ny:
            raise ValueError(
                f"process grid {px}x{py}: py={py} ranks along Y exceed "
                f"mesh Ny={mesh.ny} (empty blocks)"
            )
        self.mesh = mesh
        self.px = px
        self.py = py
        xs = _split(mesh.nx, px)
        ys = _split(mesh.ny, py)
        self.blocks: list[Block] = []
        for cy in range(py):
            for cx in range(px):
                x0, x1 = xs[cx]
                y0, y1 = ys[cy]
                self.blocks.append(
                    Block(
                        rank=cy * px + cx,
                        x0=x0, x1=x1, y0=y0, y1=y1,
                        gx0=max(0, x0 - 1), gx1=min(mesh.nx, x1 + 1),
                        gy0=max(0, y0 - 1), gy1=min(mesh.ny, y1 + 1),
                    )
                )

    @property
    def size(self) -> int:
        return self.px * self.py

    def block(self, rank: int) -> Block:
        """The block owned by *rank*."""
        return self.blocks[rank]

    def padded_field_slices(self, block: Block) -> tuple[slice, slice, slice]:
        """(z, y, x) slices of a global field giving the padded region."""
        return (
            slice(None),
            slice(block.gy0, block.gy1),
            slice(block.gx0, block.gx1),
        )

    def local_mesh(self, block: Block) -> CartesianMesh3D:
        """The halo-padded sub-mesh resident on *block*'s rank.

        Permeability is sliced from the global field so the harmonic
        face transmissibilities inside the padded region match the
        global build exactly.  Porosity is not carried (the sub-mesh
        has the default): the flux reads permeability alone
        (:class:`~repro.core.transmissibility.Transmissibility`).  So
        ``self.mesh`` needs the geometry of a
        :class:`~repro.core.mesh.CartesianMesh3D` and its permeability
        and nothing else — a par worker's stand-in reads the latter
        from shared memory.
        """
        mesh = self.mesh
        pw, ph = block.padded_shape_xy
        return CartesianMesh3D(
            nx=pw,
            ny=ph,
            nz=mesh.nz,
            dx=mesh.dx,
            dy=mesh.dy,
            dz=mesh.dz,
            dz_layers=mesh.dz_layers,
            origin=(
                mesh.origin[0] + block.gx0 * mesh.dx,
                mesh.origin[1] + block.gy0 * mesh.dy,
                mesh.origin[2],
            ),
            permeability=mesh.permeability[self.padded_field_slices(block)],
        )

    def coverage_check(self) -> None:
        """Assert the owned regions tile the plane exactly once."""
        cover = np.zeros((self.mesh.ny, self.mesh.nx), dtype=int)
        for block in self.blocks:
            cover[block.y0 : block.y1, block.x0 : block.x1] += 1
        if not np.all(cover == 1):
            raise AssertionError("blocks do not tile the plane exactly once")
