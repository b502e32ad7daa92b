"""repro.ir — the thin-waist fabric-program IR and its lowerings.

One declarative :class:`FabricProgramIR` describes colors, routes/switch
schedules, per-PE memory layouts, injector/receiver sets, and fold-order
contracts; every backend is *lowered* from it and ``repro check``
verifies it directly, so the verifier and the runtimes share one source
of truth.  See :mod:`repro.ir.schema` for the document layout.
"""

from repro.ir.builder import build_ir, derive_exchange, derive_ir, ir_from_fabric
from repro.ir.fused import FusedFluxComputation, FusedReport, FusedRunResult
from repro.ir.lower import lower_to_event, lower_to_fused, lower_to_lockstep
from repro.ir.schedule import arrival_schedule
from repro.ir.schema import (
    IR_SCHEMA_VERSION,
    KIND_FABRIC,
    KIND_PROGRAM,
    FabricProgramIR,
)

__all__ = [
    "FabricProgramIR",
    "IR_SCHEMA_VERSION",
    "KIND_PROGRAM",
    "KIND_FABRIC",
    "build_ir",
    "derive_exchange",
    "derive_ir",
    "ir_from_fabric",
    "arrival_schedule",
    "FusedFluxComputation",
    "FusedReport",
    "FusedRunResult",
    "lower_to_event",
    "lower_to_lockstep",
    "lower_to_fused",
]
