"""End-to-end dataflow flux computation: the paper's headline kernel.

:class:`WseFluxComputation` runs applications of Algorithm 1 on the
simulated wafer-scale engine: per application it loads a pressure field,
schedules every PE's program (local compute + the cardinal/diagonal
exchange protocols), drains the event queue, verifies exactly-once
delivery, and gathers the distributed residual.

The per-application device time is measured in model cycles by the
discrete-event runtime; instruction/traffic totals come from the PEs' DSD
engines.  The runtime's slotted-event fast path makes protocol-accurate
runs tractable well beyond toy fabrics (the ``event_plain_24x24x8``
workload of ``bench/`` tracks its throughput); for full paper-scale
meshes use :mod:`repro.dataflow.lockstep` for function and
:mod:`repro.perf.timing` for calibrated time projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.transmissibility import Transmissibility
from repro.dataflow.program import FluxProgram
from repro.obs.spans import span
from repro.obs.trace import TraceSink
from repro.wse.perf import WSE2, WsePerfModel
from repro.wse.runtime import EventRuntime, RuntimeStats

__all__ = ["WseFluxComputation", "WseRunResult"]


@dataclass
class WseRunResult:
    """Outcome of one or more applications of Algorithm 1.

    Attributes
    ----------
    residual:
        The residual field of the *last* application, shape (nz, ny, nx).
    applications:
        Number of applications executed.
    device_cycles:
        Summed end-to-end cycles of all applications (event-queue drain
        time per application).
    device_seconds:
        ``device_cycles`` converted through the perf model clock.
    compute_cycles:
        Total PE datapath cycles (sum over PEs of DSD cycles).
    instruction_counts:
        Fabric-wide instruction element totals by opcode.
    flops:
        Total floating-point operations executed.
    fabric_word_hops:
        Total fabric traffic (words x hops).
    stats:
        Runtime statistics merged over all applications
        (:meth:`~repro.wse.runtime.RuntimeStats.merge`).
    residuals:
        Per-application residual fields (only when ``keep_all=True``).
    """

    residual: np.ndarray
    applications: int
    device_cycles: float
    device_seconds: float
    compute_cycles: float
    instruction_counts: dict[str, int]
    flops: int
    fabric_word_hops: int
    stats: RuntimeStats
    residuals: list[np.ndarray] = field(default_factory=list)

    @property
    def seconds_per_application(self) -> float:
        """Average device seconds per application of Algorithm 1."""
        return self.device_seconds / self.applications

    @property
    def throughput_cells_per_second(self) -> float:
        """Cells processed per second of device time (Table 2 metric)."""
        cells = self.residual.size * self.applications
        return cells / self.device_seconds if self.device_seconds > 0 else 0.0

    def as_metrics(self) -> dict:
        """Headline counters (cycles, instructions, traffic) as a plain
        dict for the obs metrics registry."""
        return {
            "applications": self.applications,
            "device_cycles": self.device_cycles,
            "compute_cycles": self.compute_cycles,
            "flops": self.flops,
            "fabric_word_hops": self.fabric_word_hops,
            "instruction_counts": dict(self.instruction_counts),
        }

    def summary(self) -> str:
        """Multi-line human-readable run report."""
        nz, ny, nx = self.residual.shape
        ops = ", ".join(
            f"{op}={count}"
            for op, count in sorted(self.instruction_counts.items())
            if not op.startswith("AUX") and op != "FMOV_LOCAL"
        )
        return "\n".join(
            [
                f"WSE flux run: mesh {nx}x{ny}x{nz}, "
                f"{self.applications} application(s)",
                f"  device time : {self.device_cycles:.0f} cycles "
                f"({self.device_seconds * 1e6:.2f} us)",
                f"  throughput  : {self.throughput_cells_per_second / 1e6:.2f} Mcell/s",
                f"  flops       : {self.flops} ({ops})",
                f"  fabric      : {self.fabric_word_hops} word-hops, "
                f"{self.stats.messages_delivered} deliveries, "
                f"max {self.stats.max_hops_seen} hops",
            ]
        )


class WseFluxComputation:
    """Distributed TPFA flux computation on the simulated WSE.

    Names what the driver consumes itself — the perf model and the
    sinks threaded into its runtime (``trace``, ``faults``,
    ``watchdog_cycles``, ``record``); every other keyword goes to
    :class:`~repro.dataflow.program.FluxProgram`, which documents
    ``dtype``, ``reuse_buffers``, ``vectorized``, ``compute_fluxes``
    (comm-only mode), ``remap``, ``ir`` and the memory knobs and rejects
    an unknown one.

    Examples
    --------
    >>> from repro.core import CartesianMesh3D, FluidProperties
    >>> mesh = CartesianMesh3D(4, 3, 5)
    >>> wse = WseFluxComputation(mesh, FluidProperties(), dtype=np.float64)
    >>> result = wse.run_single(mesh.full(1.5e7))
    >>> result.residual.shape
    (5, 3, 4)
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        trans: Transmissibility | None = None,
        *,
        perf: WsePerfModel = WSE2,
        trace: bool = False,
        trace_capacity: int | None = 1024,
        faults=None,
        watchdog_cycles: float | None = None,
        record=None,
        **program_options,
    ) -> None:
        self.program = FluxProgram(mesh, fluid, trans, **program_options)
        #: The IR the program was lowered from (None: self-derived).
        self.ir = self.program.ir
        self.mesh = mesh
        self.perf = perf
        self.trace = trace
        #: Streaming trace aggregation spanning every application of this
        #: computation (the runtime's reset() does not clear it because
        #: the driver owns it); None when tracing is off.
        self.trace_sink: TraceSink | None = (
            TraceSink(capacity=trace_capacity) if trace else None
        )
        #: Optional FaultInjector / progress-watchdog threshold threaded
        #: through to every EventRuntime this driver creates.
        self.faults = faults
        self.watchdog_cycles = watchdog_cycles
        #: Optional :class:`~repro.obs.replay.ReplayRecorder`; when set,
        #: every application's (pressure, residual) pair is digested into
        #: the replay artifact right after the gather.
        self.record = record
        self.last_runtime: EventRuntime | None = None

    # ------------------------------------------------------------------ #
    def run(self, pressures, *, keep_all: bool = False) -> WseRunResult:
        """Execute one application per pressure field in *pressures*.

        Parameters
        ----------
        pressures:
            Iterable of (nz, ny, nx) pressure fields (e.g. a
            :class:`~repro.core.PressureSequence`).
        keep_all:
            Keep every application's residual (memory permitting).
        """
        program, exchange = self.program, self.program.exchange
        program.fabric.reset_counters()
        total_cycles = 0.0
        applications = 0
        residuals: list[np.ndarray] = []
        residual = None
        totals = RuntimeStats()
        # one runtime serves every application: reset() clears the event
        # heap, clock, link-occupancy map and per-run stats without
        # rebuilding them per pressure field
        rt = EventRuntime(
            program.fabric,
            self.perf,
            trace_sink=self.trace_sink,
            faults=self.faults,
            watchdog_cycles=self.watchdog_cycles,
        )
        self.last_runtime = rt
        for pressure in pressures:
            with span("wse.application", backend="event") as sp:
                if applications:
                    rt.reset()
                with span("wse.load_pressure"):
                    program.load_pressure(np.ascontiguousarray(pressure))
                exchange.begin(rt)
                with span("wse.drain_events"):
                    rt.run()
                exchange.verify()
                total_cycles += rt.now
                applications += 1
                totals.merge(rt.stats)
                with span("wse.gather_residual"):
                    residual = program.gather_residual()
                if self.record is not None:
                    self.record.record_step(pressure, residual)
                sp.set(
                    events=rt.stats.events_processed,
                    device_cycles=rt.now,
                )
                if keep_all:
                    residuals.append(residual.copy())
        if applications == 0:
            raise ValueError("no pressure fields supplied")
        fabric = program.fabric
        return WseRunResult(
            residual=residual,
            applications=applications,
            device_cycles=total_cycles,
            device_seconds=self.perf.seconds(total_cycles),
            compute_cycles=sum(pe.dsd.cycles for pe in fabric.pes()),
            instruction_counts=fabric.total_counts(),
            flops=fabric.total_flops(),
            fabric_word_hops=totals.fabric_word_hops,
            stats=totals,
            residuals=residuals,
        )

    def run_single(self, pressure: np.ndarray) -> WseRunResult:
        """Run one application of Algorithm 1."""
        return self.run([pressure])

    # ------------------------------------------------------------------ #
    def memory_high_water(self) -> int:
        """Largest PE scratchpad footprint (bytes) of the loaded program."""
        return self.program.fabric.max_memory_high_water()
