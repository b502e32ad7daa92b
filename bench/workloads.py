"""The seven workloads, as data.

This module imports nothing heavy: the fresh child interpreters read it
*before* they time ``import numpy`` and ``import repro``.

Every workload draws a lognormal geomodel from
``make_geomodel(kind="lognormal", seed=S)`` and its pressure fields
from ``PressureSequence(seed=S)``; ``S`` is the ``--seed`` argument and
nothing else is random.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: which driver runs: fused | lockstep | event | cluster | par
    backend: str
    #: (nx, ny, nz)
    mesh: tuple[int, int, int]
    #: applications (pressure fields) per batch
    batch: int
    dtype: str
    #: share of a batch's time that slows down with the interpreter (see
    #: yardstick.py): 1.0 for pure-Python or dispatch-bound batches, 0.5
    #: for whole-array kernels over megabytes.  Calibrated, not guessed.
    sensitivity: float
    #: share of ``--seconds`` spent on extra cold-start children; the
    #: rest is the warm phase of the first child
    cold_frac: float
    #: repro modules a user of this backend imports (timed as import.repro_s)
    imports: tuple[str, ...]
    #: constructor options beyond mesh/fluid/dtype
    options: dict = field(default_factory=dict)
    #: simulated statistics of one application that must repeat exactly
    pinned: dict = field(default_factory=dict)

    @property
    def cells(self) -> int:
        nx, ny, nz = self.mesh
        return nx * ny * nz


_IR = ("repro.core", "repro.workloads", "repro.ir")

#: One event application on the 24x24x8 fabric.  Simulated, so exact:
#: a simulator-only speed-up must leave all four unchanged.
_EVENT_24x24x8 = {
    "wse.events_per_app": 16228,
    "wse.messages_per_app": 6532,
    "wse.word_hops_per_app": 106720,
    "wse.sim_cycles_per_app": 861.0,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cold_fused_24x24x8",
            why="user-shaped request: import + IR build + schedule probe are >99% "
            "of the time and the kernel ~0.4%, so only set-up work can move it",
            backend="fused", mesh=(24, 24, 8), batch=3, dtype="float32",
            sensitivity=1.0, cold_frac=0.75, imports=_IR,
        ),
        Workload(
            name="warm_fused_48x48x16",
            why="kernel + fold dominate (arrays ~17 MB, beyond the 2 MB L2); set-up "
            "optimisations must move its setup_s and leave its mcells_per_s alone",
            backend="fused", mesh=(48, 48, 16), batch=8, dtype="float32",
            sensitivity=0.5, cold_frac=0.5, imports=_IR,
        ),
        Workload(
            name="warm_lockstep_48x48x16",
            why="same flux kernel family per application with real halo copies: a "
            "fused-batching gain that costs the shared kernel shows here",
            backend="lockstep", mesh=(48, 48, 16), batch=8, dtype="float32",
            sensitivity=1.0, cold_frac=0.5, imports=_IR,
        ),
        Workload(
            name="event_plain_24x24x8",
            why="wse.runtime event drain does nearly all the work; target of the "
            "calendar-queue item; simulated statistics pinned",
            backend="event", mesh=(24, 24, 8), batch=1, dtype="float32",
            sensitivity=1.0, cold_frac=0.5, imports=_IR,
            pinned=_EVENT_24x24x8,
        ),
        Workload(
            name="event_observed_24x24x8",
            why="same runtime with trace and replay sinks attached: an obs overhead "
            "fix must move this and not event_plain; a broken sink fast path shows",
            backend="event", mesh=(24, 24, 8), batch=1, dtype="float32",
            sensitivity=1.0, cold_frac=0.5,
            imports=_IR + ("repro.obs.replay",),
            options={"observed": True},
            pinned=_EVENT_24x24x8,
        ),
        Workload(
            name="cluster_serial_128x128x16",
            why="plain single-process baseline of the par problem; guards the "
            "reference decomposition that par's kernel rewrite will touch",
            backend="cluster", mesh=(128, 128, 16), batch=4, dtype="float64",
            sensitivity=0.5, cold_frac=0.5,
            imports=("repro.core", "repro.workloads", "repro.cluster.flux"),
            options={"px": 2, "py": 2},
        ),
        Workload(
            name="par_2w_128x128x16",
            why="IPC, shared-memory halos and worker wait dominate the difference to "
            "cluster_serial; setup_s carries the pool spawn",
            backend="par", mesh=(128, 128, 16), batch=4, dtype="float64",
            sensitivity=1.0, cold_frac=0.5,
            imports=("repro.core", "repro.workloads", "repro.par"),
            options={"px": 2, "py": 2, "workers": 2},
        ),
    )
}
