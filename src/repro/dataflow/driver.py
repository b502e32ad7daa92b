"""End-to-end dataflow flux computation: the paper's headline kernel.

:class:`WseFluxComputation` runs applications of Algorithm 1 on the
simulated wafer-scale engine: per application it loads a pressure field,
schedules every PE's program (local compute + the cardinal/diagonal
exchange protocols), drains the event queue, verifies exactly-once
delivery, and gathers the distributed residual.

The per-application device time is measured in model cycles by the
discrete-event runtime; instruction/traffic totals come from the PEs' DSD
engines.  Receive-compute overlap is modelled in the cycle booking: each
receive task books its partial flux at its simulated time, while the
arithmetic runs once per round over the PE-major block (the
``wse.flux_local`` and ``wse.flux_round`` spans inside each
``wse.application``; DESIGN.md §8 item 7).  The runtime's slotted-event
fast path makes protocol-accurate
runs tractable well beyond toy fabrics (the ``event_plain_24x24x8``
workload of ``bench/`` tracks its throughput); for full paper-scale
meshes use :mod:`repro.dataflow.lockstep` for function and
:mod:`repro.perf.timing` for calibrated time projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.transmissibility import Transmissibility
from repro.dataflow.program import FluxProgram
from repro.obs.spans import span
from repro.obs.trace import TraceSink
from repro.wse.perf import WSE2
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
        ``device_cycles`` converted through the WSE-2 clock.
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

    Every application's residual goes to the driver's ``record=`` hook.
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

    Names what the driver consumes itself — the sinks threaded into its
    runtime (``trace``, ``faults``, ``watchdog_cycles``, ``record``);
    every other keyword goes to
    :class:`~repro.dataflow.program.FluxProgram`, which documents
    ``dtype``, ``reuse_buffers``, ``vectorized``, ``compute_fluxes``
    (comm-only mode), ``remap``, ``ir`` and the memory knobs and rejects
    an unknown one.  Time is the WSE-2 cost model
    (:data:`~repro.wse.perf.WSE2`): hop latency and link rate decide the
    arrival order, and with it the residual's bits.

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
        self.trace = trace
        #: Streaming trace aggregation spanning every application of this
        #: computation (the runtime's reset() does not clear it because
        #: the driver owns it); None when tracing is off.
        self.trace_sink: TraceSink | None = (
            TraceSink(capacity=trace_capacity) if trace else None
        )
        #: Optional FaultInjector / progress-watchdog threshold threaded
        #: through to the driver's EventRuntime.
        self.faults = faults
        self.watchdog_cycles = watchdog_cycles
        #: Optional :class:`~repro.obs.replay.ReplayRecorder`; when set,
        #: every application's (pressure, residual) pair is digested into
        #: the replay artifact right after the gather.
        self.record = record
        #: The runtime every run() drains on, built by the first.
        self.last_runtime: EventRuntime | None = None

    # ------------------------------------------------------------------ #
    def run(self, pressures) -> WseRunResult:
        """Execute one application per (nz, ny, nx) pressure field in
        *pressures* (e.g. a :class:`~repro.core.PressureSequence`)."""
        program, exchange = self.program, self.program.exchange
        program.fabric.reset_counters()
        total_cycles = 0.0
        applications = 0
        residual = None
        totals = RuntimeStats()
        # one runtime serves every application of every run(), built on
        # the first: reset() clears the event queue, clock,
        # link-occupancy map and per-run stats
        rt = self.last_runtime
        if rt is None:
            rt = self.last_runtime = EventRuntime(
                program.fabric,
                WSE2,
                trace_sink=self.trace_sink,
                faults=self.faults,
                watchdog_cycles=self.watchdog_cycles,
            )
        for pressure in pressures:
            with span("wse.application", backend="event") as sp:
                rt.reset()
                with span("wse.load_pressure"):
                    program.load_pressure(np.ascontiguousarray(pressure))
                exchange.begin(rt)
                with span("wse.drain_events"):
                    rt.run()
                exchange.end()  # verify, then the X-Y pass (wse.flux_round)
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
        if applications == 0:
            raise ValueError("no pressure fields supplied")
        fabric = program.fabric
        return WseRunResult(
            residual=residual,
            applications=applications,
            device_cycles=total_cycles,
            device_seconds=WSE2.seconds(total_cycles),
            compute_cycles=fabric.compute_cycles(),
            instruction_counts=fabric.total_counts(),
            flops=fabric.total_flops(),
            fabric_word_hops=totals.fabric_word_hops,
            stats=totals,
        )

    def run_single(self, pressure: np.ndarray) -> WseRunResult:
        """Run one application of Algorithm 1."""
        return self.run([pressure])

    # ------------------------------------------------------------------ #
    def memory_high_water(self) -> int:
        """Largest PE scratchpad footprint (bytes) of the loaded program."""
        return self.program.fabric.max_memory_high_water()
