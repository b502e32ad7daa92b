"""Implicit solver extension (paper Sec. 8 future work).

Matrix-free FV Jacobian operator, from-scratch Krylov solvers (CG,
BiCGSTAB), Newton with line search, and a backward-Euler single-phase
flow simulator with injection wells.
"""

from repro.solver.checkpoint import Checkpoint, CheckpointStore
from repro.solver.errors import KrylovBreakdown, SolverDivergence
from repro.solver.krylov import (
    KrylovResult,
    bicgstab,
    conjugate_gradient,
    jacobi_preconditioner,
)
from repro.solver.newton import NewtonResult, newton_solve
from repro.solver.operators import (
    FlowResidual,
    MatrixFreeJacobian,
    assemble_jacobian,
)
from repro.solver.simulator import SinglePhaseFlowSimulator, StepReport, Well
from repro.solver.unstructured import (
    UnstructuredFlowResidual,
    UnstructuredMatrixFreeJacobian,
    assemble_unstructured_jacobian,
)

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "SolverDivergence",
    "KrylovBreakdown",
    "FlowResidual",
    "MatrixFreeJacobian",
    "assemble_jacobian",
    "KrylovResult",
    "conjugate_gradient",
    "bicgstab",
    "jacobi_preconditioner",
    "NewtonResult",
    "newton_solve",
    "SinglePhaseFlowSimulator",
    "StepReport",
    "Well",
    "UnstructuredFlowResidual",
    "UnstructuredMatrixFreeJacobian",
    "assemble_unstructured_jacobian",
]
