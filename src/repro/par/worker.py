"""The SPMD worker process body.

A worker process is *problem-agnostic* at spawn: :func:`worker_main`
serves a tiny command protocol over its pipe, so one long-lived process
(leased from the warm pool, :mod:`repro.par.runtime`) can host any
number of flux applications — and any number of *problems* — without
ever being respawned:

* ``("ping",)`` → ``("pong", pid)`` — liveness probe;
* ``("setup", WorkerSpec)`` then the shared arena's file descriptor
  → ``("ready", pid)`` — map the arena, close the descriptor and build
  the rank program over this worker's ranks
  (:class:`~repro.cluster.flux.RankSet`: flat kernels with their padded
  pressure and transmissibility arrays, one shared workspace, strip
  views) once.  The spec carries no array: the global mesh's geometry
  (:data:`GEOMETRY`) comes in it, the permeability is the arena's
  region, which the parent wrote before sending ``setup`` and nobody
  writes after (the send is the happens-before), and each rank's
  padded block is cut from it by the cluster backend's
  ``BlockDecomposition.local_mesh``.  Porosity is not shipped: the flux
  reads permeability alone.  This is the one-time prologue that warm
  pooling amortizes: only pressure payloads flow per application
  afterwards;
* ``("run",)`` → ``("ok", payload)`` — one flux application;
* ``("teardown",)`` → ``("released", pid)`` — drop the application
  state (unmap the arena) and go idle, ready for the next ``setup``;
* ``("quit",)`` — exit.

One worker executes one or more contiguous ranks of the decomposition.
An application is the serial cluster backend's rank program with
:class:`~repro.par.comm.ProcComm` as the transport:

1. **scatter** — each rank takes its owned cells of the arena's
   parity-``k % 2`` global pressure field;
2. **publish** — every outgoing halo strip (owned cells only) goes into
   its link's parity slot immediately, unblocking the neighbours;
3. **absorb** — spin-receive every incoming strip into the padded
   pressure;
4. **compute** — one whole-block kernel evaluation per rank, its owned
   residual block written straight into the arena's global field.

Compute starts after the receives: computing an interior box while
they are in flight measured no faster, and an interior/boundary split
has no contiguous form on the flat layout (DESIGN.md §12).  The program
is the serial cluster backend's, so the residual is bit-identical to
it.  Fault injection is real here: when the plan downs one of this
worker's ranks and ``kill_for_real`` is set, the process dies with
``os._exit`` — the parent's crash detector, not a simulated flag, has to
notice.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from multiprocessing.reduction import recv_handle
from types import SimpleNamespace

from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.cluster.decomposition import BlockDecomposition
from repro.cluster.flux import RankSet
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.spans import Span, SpanRecorder, spans_to_payload
from repro.par.comm import ProcComm
from repro.par.layout import HaloLayout
from repro.par.shm import SharedArena

__all__ = ["GEOMETRY", "WorkerSpec", "worker_main", "KILL_EXIT_CODE", "mesh_geometry"]

#: Exit code of a worker killed by an injected rank failure — lets the
#: parent (and tests) tell an injected crash from an organic one.
KILL_EXIT_CODE = 73

#: The :class:`~repro.core.mesh.CartesianMesh3D` fields a
#: :class:`WorkerSpec` carries: everything
#: :meth:`~repro.cluster.decomposition.BlockDecomposition.local_mesh`
#: reads of the global mesh but its permeability.
GEOMETRY = ("nx", "ny", "nz", "dx", "dy", "dz", "origin", "dz_layers")


def mesh_geometry(mesh: CartesianMesh3D) -> dict:
    """*mesh*'s :data:`GEOMETRY` as plain Python values (no arrays)."""
    geometry = {name: getattr(mesh, name) for name in GEOMETRY}
    geometry["origin"] = tuple(mesh.origin)
    if mesh.dz_layers is not None:
        geometry["dz_layers"] = tuple(mesh.dz_layers.tolist())
    return geometry


@dataclass
class WorkerSpec:
    """Everything a worker needs to rebuild its world (picklable)."""

    index: int
    ranks: tuple[int, ...]
    layout: HaloLayout
    #: The global mesh's geometry (:data:`GEOMETRY`); its permeability
    #: is the arena's shared field, and porosity is not shipped.
    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    dz: float
    origin: tuple[float, float, float]
    dz_layers: tuple[float, ...] | None
    fluid: FluidProperties
    px: int
    py: int
    dtype: str = "float64"
    plan: FaultPlan | None = None
    #: Die with ``os._exit(KILL_EXIT_CODE)`` when the plan downs one of
    #: our ranks (a *real* crashed process, not a dropped send).
    kill_for_real: bool = False
    #: How an injected failure manifests: ``"exit"`` is a real crash
    #: (``os._exit``); ``"hang"`` SIGSTOPs the process instead — alive
    #: but frozen, detectable only by the parent's heartbeat lease.
    failure_mode: str = "exit"
    #: Completed exchanges to resume from (respawn after a crash).
    start_exchange: int = 0
    #: ``begin_retry`` calls to replay on the first application so a
    #: respawned worker lands past the failure window instead of
    #: re-dying on the same exchange.
    attempt_offset: int = 0

    def global_mesh(self, permeability) -> SimpleNamespace:
        """The global mesh as ``BlockDecomposition`` reads it: this
        spec's geometry over *permeability* (the arena's shared field).
        No cell array is built or copied here; ``local_mesh`` copies
        each padded block."""
        return SimpleNamespace(
            **{name: getattr(self, name) for name in GEOMETRY},
            permeability=permeability,
        )


def _record(recorder: SpanRecorder, name: str, start_ns: int,
            end_ns: int, **args) -> None:
    """Append one explicitly-timed span (measured with perf_counter_ns,
    the same system-wide monotonic clock as the parent's recorder)."""
    sp = Span(name, "phase", start_ns, 0)
    sp.duration_ns = end_ns - start_ns
    sp.args.update(args)
    recorder.spans.append(sp)


class _AppRuntime:
    """Per-``setup`` state: the rank program, arena, communicator."""

    def __init__(self, spec: WorkerSpec, arena_fd: int) -> None:
        self.spec = spec
        self.arena = SharedArena(spec.layout, fd=arena_fd)
        self.rank_set = RankSet(
            BlockDecomposition(spec.global_mesh(self.arena.permeability),
                               spec.px, spec.py),
            spec.ranks,
            spec.fluid, spec.dtype, spec.layout.links,
        )

        self.injector = None
        if spec.plan is not None and spec.plan.rank_failures:
            self.injector = FaultInjector(spec.plan)
            # fast-forward past the exchanges completed before a respawn
            # so exchange-scoped failure windows line up globally
            for _ in range(spec.start_exchange):
                self.injector.begin_exchange()

        self.comm = ProcComm(
            spec.layout,
            self.arena,
            ranks=spec.ranks,
            faults=self.injector,
            start_exchange=spec.start_exchange,
            heartbeat=self._beat,
        )
        self.recorder = SpanRecorder()
        self.applications = 0

    # ------------------------------------------------------------------ #
    def _beat(self) -> None:
        """Bump this worker's ranks' shared heartbeat counters."""
        self.arena.bump_heartbeats(self.spec.ranks)

    def run_application(self, conn) -> None:
        """One flux application; replies ``("ok", payload)``."""
        spec = self.spec
        rank_set = self.rank_set
        if self.injector is not None:
            self.injector.begin_exchange()
            if self.applications == 0:
                for _ in range(spec.attempt_offset):
                    self.injector.begin_retry()
            if spec.kill_for_real and any(
                self.injector.rank_down(r) for r in spec.ranks
            ):
                if spec.failure_mode == "hang":
                    # hung, not dead: freeze mid-application without a
                    # reply — only the parent's heartbeat lease (not the
                    # exitcode poll) can tell this from a slow worker
                    os.kill(os.getpid(), signal.SIGSTOP)
                else:
                    # a real crash: no reply, no cleanup — the parent's
                    # liveness checks must detect and recover
                    os._exit(KILL_EXIT_CODE)

        self.recorder.clear()
        waited_before = self.comm.waited_seconds
        parity = self.comm.exchange_index  # one exchange per application
        global_pressure = self.arena.pressure(parity)
        t_app0 = time.perf_counter_ns()

        # 1. scatter owned pressure cells from the parity pressure field
        rank_set.scatter(global_pressure)
        t_scatter = time.perf_counter_ns()
        self._beat()
        _record(self.recorder, "par.scatter", t_app0, t_scatter,
                worker=spec.index)

        # 2. publish every outgoing strip (owned cells only) right away
        for key, strip in rank_set.outgoing.items():
            self.comm.isend(*key, strip)
        t_publish = time.perf_counter_ns()
        self._beat()
        _record(self.recorder, "par.publish", t_scatter, t_publish,
                worker=spec.index)

        # 3. absorb: spin-receive every incoming strip
        for key, halo in rank_set.incoming.items():
            halo[...] = self.comm.recv(*key)
        self.comm.complete_exchange()
        self._beat()
        t_absorb = time.perf_counter_ns()
        _record(self.recorder, "par.absorb", t_publish, t_absorb,
                worker=spec.index)
        exchange_ns = (t_absorb - t_scatter) // len(spec.ranks)

        # 4. compute, then gather owned residuals into the arena
        per_rank_ns = {}
        for i, rank in enumerate(spec.ranks):
            t_c0 = time.perf_counter_ns()
            rank_set.compute(self.arena.residual, i)
            t_c1 = time.perf_counter_ns()
            per_rank_ns[rank] = {
                "compute_ns": t_c1 - t_c0,
                "exchange_ns": exchange_ns,
            }
            _record(self.recorder, "par.compute", t_c0, t_c1,
                    worker=spec.index, rank=rank)

        self.applications += 1
        self._beat()
        payload = {
            "pid": os.getpid(),
            "worker": spec.index,
            "ranks": list(spec.ranks),
            "wall_ns": time.perf_counter_ns() - t_app0,
            "waited_seconds": self.comm.waited_seconds - waited_before,
            "per_rank_ns": {
                int(r): dict(ns) for r, ns in per_rank_ns.items()
            },
            "stats": {
                int(r): {
                    "messages_sent": self.comm.stats[r].messages_sent,
                    "messages_received": self.comm.stats[r].messages_received,
                    "bytes_sent": self.comm.stats[r].bytes_sent,
                    "bytes_received": self.comm.stats[r].bytes_received,
                    "sends_dropped": self.comm.stats[r].sends_dropped,
                    "retry_waits": self.comm.stats[r].retry_waits,
                }
                for r in spec.ranks
            },
            "spans": spans_to_payload(self.recorder),
        }
        conn.send(("ok", payload))

    def close(self) -> None:
        self.arena.close()


def worker_main(conn) -> None:
    """Process entry point: serve commands until ``("quit",)``.

    Module-level (not a closure) so it pickles under the ``spawn`` start
    method as well as inheriting under ``fork``.
    """
    try:
        _command_loop(conn)
    except BaseException as exc:  # noqa: BLE001 - report, then die nonzero
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        os._exit(1)


def _command_loop(conn) -> None:
    app: _AppRuntime | None = None
    parent = os.getppid()
    while True:
        # Block in short poll slices so an orphaned worker notices its
        # parent died.  A pipe EOF is not enough: under ``fork`` a
        # later-spawned sibling inherits this pipe's parent end, so a
        # SIGKILLed parent leaves the pipe open — the reparenting check
        # is what lets every worker wind down, and with the last holder
        # of the arena's memory file gone the kernel frees it.
        while not conn.poll(0.5):
            if os.getppid() != parent:
                os._exit(2)
        cmd = conn.recv()
        op = cmd[0]
        if op == "quit":
            break
        if op == "ping":
            conn.send(("pong", os.getpid()))
        elif op == "setup":
            if app is not None:  # pragma: no cover - defensive re-setup
                app.close()
            app = _AppRuntime(cmd[1], recv_handle(conn))
            conn.send(("ready", os.getpid()))
        elif op == "teardown":
            if app is not None:
                app.close()
                app = None
            conn.send(("released", os.getpid()))
        elif op == "run":
            if app is None:
                raise RuntimeError("run command before setup")
            app.run_application(conn)
        else:
            raise RuntimeError(f"unknown worker command {op!r}")
    if app is not None:
        app.close()
    conn.close()
