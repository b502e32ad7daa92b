"""Threadblock geometry of a kernel launch.

The reference kernels launch 3D threadblocks of 1024 threads tiled
``16 x 8 x 8`` with 16 along the innermost (X) dimension (paper Sec. 6).
:class:`TiledLaunch` computes the grid the GPU model counts its tiles
on; the RAJA-like launch clamps its tiles to the mesh, the CUDA-like
one bounds-checks each lane, and both launch the same grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TiledLaunch", "PAPER_TILE"]

#: The paper's threadblock tiling (X, Y, Z) = (16, 8, 8).
PAPER_TILE = (16, 8, 8)


@dataclass(frozen=True)
class TiledLaunch:
    """A 3D tiled kernel launch over an ``(nz, ny, nx)`` mesh.

    Parameters
    ----------
    shape_zyx:
        Mesh storage shape.
    tile_xyz:
        Threads per block along (X, Y, Z); the product must not exceed
        1024 (the GPU block-size limit the paper respects).
    clamp:
        True for RAJA-style tiles clamped to the mesh, False for
        CUDA-style full tiles whose kernel bounds-checks each lane.
    """

    shape_zyx: tuple[int, int, int]
    tile_xyz: tuple[int, int, int] = PAPER_TILE
    clamp: bool = True

    def __post_init__(self) -> None:
        tx, ty, tz = self.tile_xyz
        if tx < 1 or ty < 1 or tz < 1:
            raise ValueError("tile dimensions must be positive")
        if tx * ty * tz > 1024:
            raise ValueError(
                f"tile {self.tile_xyz} has {tx * ty * tz} threads; the GPU "
                "limit is 1024 threads per block"
            )

    @property
    def threads_per_block(self) -> int:
        """Threads per block (<= 1024)."""
        tx, ty, tz = self.tile_xyz
        return tx * ty * tz

    @property
    def grid_dims(self) -> tuple[int, int, int]:
        """Blocks along (X, Y, Z)."""
        nz, ny, nx = self.shape_zyx
        tx, ty, tz = self.tile_xyz
        return (
            math.ceil(nx / tx),
            math.ceil(ny / ty),
            math.ceil(nz / tz),
        )

    @property
    def num_blocks(self) -> int:
        """Total threadblocks in the launch."""
        gx, gy, gz = self.grid_dims
        return gx * gy * gz

    def describe(self) -> dict:
        """Launch geometry as span/report arguments (plain scalars)."""
        gx, gy, gz = self.grid_dims
        return {
            "grid": f"{gx}x{gy}x{gz}",
            "blocks": self.num_blocks,
            "threads_per_block": self.threads_per_block,
            "clamp": self.clamp,
        }
