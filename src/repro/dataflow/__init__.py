"""The paper's contribution: TPFA flux computation on the dataflow fabric.

Maps the 3D mesh cell-based onto the 2D PE grid (Z columns in PE memory),
exchanges neighbour columns through the two-step cardinal switch protocol
and the two-hop diagonal flows (one :class:`ColumnExchange`, shared with
the wave and matrix-free programs), and computes fluxes in DSD instructions
as data arrives.  Runs on :mod:`repro.wse` event-driven (small fabrics,
full protocol) or lockstep-vectorized (large fabrics, same numerics).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "cardinal": (
            "CARDINAL_CHANNELS",
            "CardinalChannel",
            "is_step1_sender",
            "switch_positions_for",
        ),
        "diagonal": ("DIAGONAL_CHANNELS", "DiagonalChannel", "static_position"),
        "codegen": ("generate_listing",),
        "driver": ("WseFluxComputation", "WseRunResult"),
        "exchange": ("ColumnExchange",),
        "halos": ("layout_words_per_cell", "max_nz_for_memory", "plan_pe_memory"),
        "instrcount": (
            "CellInstructionTable",
            "interior_cell_table",
            "measure_flux_instruction_mix",
        ),
        "lockstep": (
            "LockstepReport",
            "LockstepRunResult",
            "LockstepWseSimulation",
        ),
        "matfree": ("WseMatrixFreeJacobian",),
        "mapping": (
            "CellBasedMapping",
            "FaceBasedMapping",
            "MappingComparison",
            "SpareColumnRemap",
            "compare_mappings",
        ),
        "program": ("FluxProgram",),
    },
)

__all__ = [
    "WseFluxComputation",
    "WseRunResult",
    "FluxProgram",
    "ColumnExchange",
    "LockstepWseSimulation",
    "LockstepReport",
    "LockstepRunResult",
    "WseMatrixFreeJacobian",
    "generate_listing",
    "CellBasedMapping",
    "FaceBasedMapping",
    "SpareColumnRemap",
    "MappingComparison",
    "compare_mappings",
    "CardinalChannel",
    "CARDINAL_CHANNELS",
    "is_step1_sender",
    "switch_positions_for",
    "DiagonalChannel",
    "DIAGONAL_CHANNELS",
    "static_position",
    "layout_words_per_cell",
    "max_nz_for_memory",
    "plan_pe_memory",
    "CellInstructionTable",
    "interior_cell_table",
    "measure_flux_instruction_mix",
]
