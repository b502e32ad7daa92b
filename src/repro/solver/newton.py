"""Newton's method for the backward-Euler step of Eq. 2.

Each nonlinear iteration asks the residual for its matrix-free Jacobian
at the current iterate, solves ``J dp = -R`` with preconditioned
BiCGSTAB, and applies a damped update with a simple backtracking line
search on the residual norm.  This closes the loop the paper leaves as
future work: an implicit single-phase flow step running entirely on
flux-kernel sweeps.  The one loop serves the structured
:class:`~repro.solver.operators.FlowResidual` and the connection-list
:class:`~repro.solver.unstructured.UnstructuredFlowResidual` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.spans import span
from repro.solver.errors import SolverDivergence
from repro.solver.krylov import bicgstab, jacobi_preconditioner
from repro.solver.operators import FlowResidual

__all__ = ["NewtonResult", "newton_solve"]


@dataclass
class NewtonResult:
    """Outcome of one implicit time step."""

    pressure: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    residual_history: list[float] = field(default_factory=list)
    linear_iterations: int = 0


def newton_solve(
    residual: FlowResidual,
    pressure_old: np.ndarray,
    *,
    rtol: float = 1e-6,
    atol: float = 1e-8,
    max_iterations: int = 20,
    linear_rtol: float = 1e-8,
    max_line_search: int = 8,
) -> NewtonResult:
    """Solve one backward-Euler step for ``p^{n+1}``.

    Parameters
    ----------
    residual:
        The implicit residual operator (holds dt, sources, trans): a
        :class:`FlowResidual` or an
        :class:`~repro.solver.unstructured.UnstructuredFlowResidual`.
        Calling it checks the field's shape, and ``residual.jacobian(p)``
        is its Jacobian at an iterate.
    pressure_old:
        Converged pressure of the previous time level ``p^n`` (also the
        initial Newton iterate).
    rtol / atol:
        Convergence on the infinity norm of the residual relative to the
        initial residual norm (rtol) or absolutely (atol).
    linear_rtol:
        BiCGSTAB relative tolerance per Newton iteration.
    max_line_search:
        Halvings attempted before accepting the step anyway.
    """
    p = np.array(pressure_old, dtype=np.float64, copy=True)
    mass_old = residual.mass_density(pressure_old)

    r = residual(p, mass_old)
    r0_norm = float(np.abs(r).max())
    history = [r0_norm]
    target = max(rtol * r0_norm, atol)
    linear_total = 0

    if not np.isfinite(r0_norm):
        raise SolverDivergence(
            "newton",
            f"initial residual is {r0_norm} (bad state or dt)",
            history=history,
        )
    if r0_norm <= target:
        return NewtonResult(p, True, 0, r0_norm, history, 0)

    for it in range(1, max_iterations + 1):
        with span("newton.iteration", cat="solver", iteration=it) as sp:
            jac = residual.jacobian(p)
            psolve = jacobi_preconditioner(jac.diagonal())
            try:
                lin = bicgstab(
                    jac.matvec,
                    -r.ravel(),
                    rtol=linear_rtol,
                    max_iterations=10 * jac.n,
                    psolve=psolve,
                )
            except SolverDivergence as exc:
                raise SolverDivergence(
                    "newton",
                    f"linear solve failed at iteration {it}: {exc}",
                    iterations=it - 1,
                    history=history,
                ) from exc
            linear_total += lin.iterations
            dp = lin.x.reshape(np.shape(p))

            # backtracking line search on the residual norm
            with span("newton.line_search", cat="solver"):
                step = 1.0
                best_norm = None
                for _ in range(max_line_search):
                    p_try = p + step * dp
                    r_try = residual(p_try, mass_old)
                    norm_try = float(np.abs(r_try).max())
                    if norm_try < history[-1]:
                        best_norm = norm_try
                        break
                    step *= 0.5
                if best_norm is None:
                    p_try = p + step * dp
                    r_try = residual(p_try, mass_old)
                    best_norm = float(np.abs(r_try).max())

            p, r = p_try, r_try
            history.append(best_norm)
            if not np.isfinite(best_norm):
                raise SolverDivergence(
                    "newton",
                    f"residual norm became {best_norm} at iteration {it}",
                    iterations=it,
                    history=history,
                )
            sp.set(
                linear_iterations=lin.iterations,
                residual_norm=best_norm,
                step=step,
            )
        if best_norm <= target:
            return NewtonResult(p, True, it, best_norm, history, linear_total)

    return NewtonResult(p, False, max_iterations, history[-1], history, linear_total)
