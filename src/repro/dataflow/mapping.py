"""Problem-to-fabric mappings (paper Fig. 3, Sec. 5.1).

Two mapping techniques are considered by the paper: **cell-based** (each
cell column maps to a PE; chosen) and **face-based** (faces map to PEs;
considered and rejected).  The cell-based mapping assigns cell
``(x, y, z)`` to PE ``(x, y)`` with the whole Z column resident in that
PE's local memory, maximizing parallelism in the X-Y plane.

:class:`FaceBasedMapping` is provided for the ablation analysis: it
staggers cells and faces on a twice-refined fabric, which needs ~4x the
PEs for the same mesh and moves cell data for *every* flux (each face PE
needs both adjacent cell states), quantifying why the paper picks the
cell-based approach.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mesh import CartesianMesh3D

__all__ = [
    "CellBasedMapping",
    "FaceBasedMapping",
    "SpareColumnRemap",
    "MappingComparison",
    "compare_mappings",
]


@dataclass(frozen=True)
class CellBasedMapping:
    """Cell ``(x, y, z) -> PE (x, y)``; Z column in PE memory (Sec. 5.1)."""

    mesh: CartesianMesh3D

    @property
    def fabric_shape(self) -> tuple[int, int]:
        """Required fabric dimensions ``(width, height)``."""
        return (self.mesh.nx, self.mesh.ny)

    @property
    def num_pes(self) -> int:
        """PEs used by the mapping."""
        return self.mesh.nx * self.mesh.ny

    def pe_for_cell(self, x: int, y: int, z: int) -> tuple[int, int]:
        """Owning PE of a cell (validates coordinates)."""
        self.mesh.cell_index(x, y, z)
        return (x, y)

    def cells_per_pe(self) -> int:
        """Cells resident in each PE's memory: the whole Z column."""
        return self.mesh.nz

    def words_received_per_pe_per_iteration(self) -> int:
        """Fabric words an interior PE receives per application.

        Eight X-Y neighbours each contribute a ``(p, rho)`` column pair:
        ``8 * 2 * Nz`` words (Sec. 5.2; Fig. 5).
        """
        return 8 * 2 * self.mesh.nz

    def total_words_per_iteration(self) -> int:
        """Aggregate fabric words received per application (interior
        approximation: every cell PE drains all eight halos)."""
        return self.num_pes * self.words_received_per_pe_per_iteration()


@dataclass(frozen=True)
class FaceBasedMapping:
    """Faces on a staggered, twice-refined fabric (Fig. 3 alternative).

    Cell ``(x, y)`` columns sit at fabric ``(2x, 2y)``; X-face columns at
    ``(2x+1, 2y)``; Y-face columns at ``(2x, 2y+1)``; diagonal-face
    columns at ``(2x+1, 2y+1)``.  Face PEs compute the flux for their
    face, which requires receiving *both* adjacent cell states every
    iteration, and cell PEs then receive all flux contributions back.
    """

    mesh: CartesianMesh3D

    @property
    def fabric_shape(self) -> tuple[int, int]:
        """Required fabric dimensions (staggered grid)."""
        return (2 * self.mesh.nx - 1, 2 * self.mesh.ny - 1)

    @property
    def num_pes(self) -> int:
        w, h = self.fabric_shape
        return w * h

    def pe_for_cell(self, x: int, y: int, z: int) -> tuple[int, int]:
        """Owning PE of a cell column."""
        self.mesh.cell_index(x, y, z)
        return (2 * x, 2 * y)

    def pe_for_x_face(self, x: int, y: int) -> tuple[int, int]:
        """PE owning the face column between cells (x, y) and (x+1, y)."""
        if not (0 <= x < self.mesh.nx - 1 and 0 <= y < self.mesh.ny):
            raise IndexError(f"no X face at ({x}, {y})")
        return (2 * x + 1, 2 * y)

    def pe_for_y_face(self, x: int, y: int) -> tuple[int, int]:
        """PE owning the face column between cells (x, y) and (x, y+1)."""
        if not (0 <= x < self.mesh.nx and 0 <= y < self.mesh.ny - 1):
            raise IndexError(f"no Y face at ({x}, {y})")
        return (2 * x, 2 * y + 1)

    def cells_per_pe(self) -> int:
        """Cells resident in a cell PE's memory."""
        return self.mesh.nz

    def words_received_per_pe_per_iteration(self) -> int:
        """Fabric words an interior *face* PE receives per application:
        the two adjacent cell state columns of ``(p, rho)``."""
        return 2 * 2 * self.mesh.nz

    def total_words_per_iteration(self) -> int:
        """Aggregate fabric words received per application.

        Every face PE ingests both adjacent cell columns (there are
        roughly four face PEs per cell: X, Y, and two diagonal families),
        and every cell PE then receives its eight X-Y flux columns back —
        strictly more aggregate traffic than the cell-based mapping,
        which is one reason the paper picks cell-based.
        """
        nz = self.mesh.nz
        n_cells_xy = self.mesh.nx * self.mesh.ny
        face_pes = 4 * n_cells_xy  # interior approximation
        face_in = face_pes * 2 * 2 * nz
        cell_in = n_cells_xy * 8 * nz
        return face_in + cell_in


@dataclass(frozen=True)
class SpareColumnRemap:
    """Logical mesh columns remapped onto a wider fabric around dead PEs.

    This mirrors CS-2 yield handling: wafers ship with spare PE columns,
    and a column containing a manufacturing defect is fused out — its
    east/west links pass traffic straight through at no extra hop cost,
    and the logical program occupies the remaining columns in order.
    ``column_map[lx]`` is the physical fabric column hosting logical
    column ``lx``; physical columns absent from the map are *bypassed*
    (see ``Fabric(bypass_columns=...)``).

    Because a bypassed column is latency-transparent, the remapped
    program produces the same event timestamps, the same event order,
    and therefore **bit-identical** residuals as a healthy
    ``logical_width``-wide fabric.
    """

    logical_width: int
    height: int
    physical_width: int
    column_map: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.column_map) != self.logical_width:
            raise ValueError(
                f"column_map has {len(self.column_map)} entries for "
                f"{self.logical_width} logical columns"
            )
        last = -1
        for col in self.column_map:
            if not 0 <= col < self.physical_width:
                raise ValueError(
                    f"physical column {col} outside fabric width "
                    f"{self.physical_width}"
                )
            if col <= last:
                raise ValueError("column_map must be strictly increasing")
            last = col
        # logical index of each physical column (None = bypassed)
        object.__setattr__(
            self,
            "_logical_of",
            {col: lx for lx, col in enumerate(self.column_map)},
        )

    @property
    def bypassed_columns(self) -> frozenset[int]:
        """Physical columns fused out of the logical mesh."""
        return frozenset(range(self.physical_width)) - set(self.column_map)

    @property
    def fabric_shape(self) -> tuple[int, int]:
        """Physical fabric dimensions hosting the remapped program."""
        return (self.physical_width, self.height)

    def physical(self, coord: tuple[int, int]) -> tuple[int, int]:
        """Physical PE coordinate of a logical coordinate."""
        lx, ly = coord
        return (self.column_map[lx], ly)

    def logical(self, coord: tuple[int, int]) -> tuple[int, int] | None:
        """Logical coordinate of a physical PE, None when bypassed/unused."""
        px, py = coord
        if not 0 <= py < self.height:
            return None
        lx = self._logical_of.get(px)
        if lx is None:
            return None
        return (lx, py)

    @classmethod
    def identity(cls, width: int, height: int) -> "SpareColumnRemap":
        """The trivial remap (no spares, no bypass)."""
        return cls(width, height, width, tuple(range(width)))

    @classmethod
    def around_dead_pes(
        cls,
        logical_shape: tuple[int, int],
        dead_pes,
        *,
        spare_columns: int = 1,
    ) -> "SpareColumnRemap":
        """Remap a ``logical_shape`` program around dead PEs using spares.

        The physical fabric is ``spare_columns`` wider than the logical
        mesh; every column containing a dead PE is fused out and the
        logical columns shift right past it.  Raises when the dead PEs
        hit more distinct columns than there are spares.
        """
        from repro.faults.errors import FaultPlanError

        width, height = logical_shape
        dead_cols = sorted(
            {x for x, y in dead_pes if 0 <= x < width + spare_columns}
        )
        if len(dead_cols) > spare_columns:
            raise FaultPlanError(
                f"{len(dead_cols)} defective columns but only "
                f"{spare_columns} spare(s)"
            )
        physical_width = width + spare_columns
        bad = set(dead_cols)
        column_map = []
        col = 0
        while len(column_map) < width:
            if col >= physical_width:
                raise FaultPlanError(
                    "ran out of physical columns while remapping "
                    f"(defective: {dead_cols})"
                )
            if col not in bad:
                column_map.append(col)
            col += 1
        return cls(width, height, physical_width, tuple(column_map))


@dataclass(frozen=True)
class MappingComparison:
    """Head-to-head numbers motivating the cell-based choice."""

    cell_num_pes: int
    face_num_pes: int
    cell_total_words: int
    face_total_words: int
    cell_max_mesh_on_fabric: tuple[int, int]
    face_max_mesh_on_fabric: tuple[int, int]

    @property
    def pe_overhead_factor(self) -> float:
        """How many times more PEs the face-based mapping consumes."""
        return self.face_num_pes / self.cell_num_pes

    @property
    def traffic_overhead_factor(self) -> float:
        """Aggregate fabric traffic ratio, face-based over cell-based."""
        return self.face_total_words / self.cell_total_words


def compare_mappings(
    mesh: CartesianMesh3D,
    fabric_shape: tuple[int, int] = (750, 994),
) -> MappingComparison:
    """Quantify cell- vs face-based mapping for *mesh* (ablation input)."""
    cell = CellBasedMapping(mesh)
    face = FaceBasedMapping(mesh)
    fw, fh = fabric_shape
    return MappingComparison(
        cell_num_pes=cell.num_pes,
        face_num_pes=face.num_pes,
        cell_total_words=cell.total_words_per_iteration(),
        face_total_words=face.total_words_per_iteration(),
        cell_max_mesh_on_fabric=(fw, fh),
        face_max_mesh_on_fabric=((fw + 1) // 2, (fh + 1) // 2),
    )
