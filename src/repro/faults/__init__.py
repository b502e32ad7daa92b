"""Fault injection, detection and recovery (`repro.faults`).

Three pieces mirroring how real wafer-scale deployments stay up:

- **Injection** — :class:`FaultPlan` (deterministic, seed-driven,
  JSON-round-trippable) executed by :class:`FaultInjector`, wired into
  `EventRuntime`, `Router`-level stalls and `SimComm` behind
  zero-cost-when-disabled hooks.
- **Detection** — structured errors (:class:`FabricStallError` from the
  runtime's progress watchdog, :class:`EventBudgetError`,
  :class:`CommTimeoutError`, :class:`PendingLeakError`) carrying
  obs-layer diagnostics instead of bare ``RuntimeError`` strings.
- **Recovery** — spare-column remapping of dead PEs
  (`repro.dataflow.mapping.SpareColumnRemap`), cluster halo re-exchange
  with retry/backoff, and solver checkpoint/restart
  (`repro.solver.checkpoint`); exercised end to end by
  :func:`repro.faults.chaos.run_chaos` / ``repro chaos``.

The chaos harness imports solver/dataflow/cluster backends lazily, so
importing this package from the runtime layers stays cycle-free.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "chaos": ("ChaosReport", "FaultOutcome", "run_chaos"),
        "errors": (
            "CheckpointCorruptError",
            "CommTimeoutError",
            "EventBudgetError",
            "FabricStallError",
            "FaultError",
            "FaultPlanError",
            "PendingLeakError",
            "RankFailedError",
            "WorkerCrashError",
            "WorkerLeaseExpiredError",
        ),
        "injector": ("FaultInjector", "FaultStats"),
        "plan": (
            "LINK_FAULT_MODES",
            "DeadPE",
            "FaultPlan",
            "LinkFault",
            "RankFailure",
            "RouterStall",
        ),
    },
)

__all__ = [
    "FaultError",
    "FaultPlanError",
    "FabricStallError",
    "EventBudgetError",
    "CommTimeoutError",
    "PendingLeakError",
    "RankFailedError",
    "WorkerCrashError",
    "WorkerLeaseExpiredError",
    "CheckpointCorruptError",
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "DeadPE",
    "LinkFault",
    "RouterStall",
    "RankFailure",
    "LINK_FAULT_MODES",
    "ChaosReport",
    "FaultOutcome",
    "run_chaos",
]
