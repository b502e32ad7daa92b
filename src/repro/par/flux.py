"""`ParClusterFluxComputation` — the multiprocess twin of the serial
cluster backend.

Drop-in for :class:`~repro.cluster.flux.ClusterFluxComputation.run`:
the same ``px x py`` decomposition, the same canonical halo-link order,
the same rank program (:class:`~repro.cluster.flux.RankSet`, one per
worker over its ranks) — executed by real processes over shared memory.
Workers come warm from the process-wide reservoir
(:mod:`repro.par.runtime`) and applications pipeline to depth
:data:`PIPELINE_DEPTH` over the arena's parity slots.  Because every
worker runs the serial backend's rank program and the global residual
is assembled from
disjoint owned regions (each written by exactly one worker, no reduction
across workers), the result is **bit-identical** to the serial backend
on any worker count.

What the serial backend *models*, this one *measures*: per-rank
compute/exchange nanoseconds, receive-spin wait seconds and worker PIDs
come back over the reply pipes each application, and worker-side spans
merge into the parent's installed :class:`~repro.obs.spans.SpanRecorder`.

Crash recovery: an injected (or organic) worker death raises
:class:`~repro.faults.errors.WorkerCrashError` out of the pool; with
``respawn=True`` the parent terminates the survivors, rewinds the
arena's link sequence headers to the last completed exchange, respawns
the pool with ``start_exchange``/``attempt_offset`` carried forward and
retries the in-flight application — the process-level analogue of the
serial backend's retransmit-with-backoff recovery.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.cluster.comm import CartGrid
from repro.cluster.decomposition import BlockDecomposition, _split
from repro.faults.errors import WorkerCrashError
from repro.faults.plan import FaultPlan
from repro.obs.spans import get_recorder, ingest_spans, span
from repro.par.layout import NUM_PARITIES, HaloLayout
from repro.par.runtime import ProcPool
from repro.par.shm import SharedArena
from repro.par.worker import WorkerSpec, mesh_geometry

__all__ = ["ParClusterFluxComputation", "ParClusterRunResult"]

#: Applications the parent keeps in flight: it stages application ``k``
#: (pressure write + run command) before collecting ``k - 1``, so
#: workers stream from one application into the next without a
#: parent round-trip stall between them.  Bounded by the number of
#: pressure/link parity slots in the arena.
PIPELINE_DEPTH = min(2, NUM_PARITIES)

_COUNTERS = (
    "messages_sent",
    "messages_received",
    "bytes_sent",
    "bytes_received",
    "sends_dropped",
    "retry_waits",
)


@dataclass
class ParClusterRunResult:
    """Outcome of a batch of applications on the multiprocess rank grid.

    The traffic fields mirror
    :class:`~repro.cluster.flux.ClusterRunResult`; the measured fields
    (``wall_seconds``, ``per_rank``) have no serial counterpart — they
    are real wall-clock observations, not model outputs.
    """

    residual: np.ndarray
    applications: int
    ranks: int
    workers: int
    messages_per_application: int
    halo_bytes_per_application: int
    total_bytes: int
    wall_seconds: float
    respawns: int = 0
    #: Per-rank measurements: rank, worker, pid, compute_seconds,
    #: exchange_seconds, wait_seconds.
    per_rank: list[dict] = field(default_factory=list)

    @property
    def distinct_pids(self) -> int:
        """Distinct worker PIDs observed — the concurrency proof."""
        return len({row["pid"] for row in self.per_rank})

    @property
    def compute_seconds(self) -> float:
        return sum(row["compute_seconds"] for row in self.per_rank)

    @property
    def wait_seconds(self) -> float:
        return sum(row["wait_seconds"] for row in self.per_rank)

    def as_metrics(self) -> dict:
        """Counters as a plain dict for the obs metrics registry."""
        return {
            "applications": self.applications,
            "ranks": self.ranks,
            "workers": self.workers,
            "distinct_pids": self.distinct_pids,
            "messages_per_application": self.messages_per_application,
            "halo_bytes_per_application": self.halo_bytes_per_application,
            "total_bytes": self.total_bytes,
            "wall_seconds": self.wall_seconds,
            "compute_seconds": self.compute_seconds,
            "wait_seconds": self.wait_seconds,
            "respawns": self.respawns,
        }


class ParClusterFluxComputation:
    """Algorithm 1 on a ``px x py`` rank grid, ranks sharded over real
    processes with shared-memory halo exchange.

    Parameters
    ----------
    mesh, fluid:
        Problem definition (global).  Workers get the mesh's geometry
        and the fluid over their pipes and its permeability through
        the shared arena; the arrays are never pickled.
    px, py:
        Process grid dimensions (rank grid, as in the serial backend).
    workers:
        Worker *processes*; ranks are split contiguously across them.
        Defaults to ``min(size, os.cpu_count())``.
    plan:
        Optional :class:`~repro.faults.plan.FaultPlan` whose rank
        failures kill the owning worker process for real.
    respawn:
        Recover from worker crashes by respawning the pool and retrying
        the in-flight application (True), or let
        :class:`WorkerCrashError` propagate (False).  The respawn budget
        is the plan's worst-case failure attempts + 1 (1 with no plan);
        each application's replies get :meth:`ProcPool.collect`'s 120 s.
    lease_seconds:
        Heartbeat lease for hung-worker detection: when set, a live
        worker whose shared-arena heartbeat counter stalls for this long
        while the parent is waiting on it raises
        :class:`~repro.faults.errors.WorkerLeaseExpiredError` — which
        subclasses :class:`WorkerCrashError`, so ``respawn=True``
        recovers from a SIGSTOP'd worker exactly like a dead one.
    failure_mode:
        How injected rank failures manifest in workers: ``"exit"``
        (real crash) or ``"hang"`` (SIGSTOP — detectable only through
        the heartbeat lease).

    Worker spans (``par.scatter`` / ``publish`` / ``absorb`` /
    ``compute``) are always recorded and merge into the parent's
    installed recorder.
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        *,
        px: int,
        py: int,
        workers: int | None = None,
        dtype=np.float64,
        plan: FaultPlan | None = None,
        respawn: bool = True,
        record=None,
        lease_seconds: float | None = None,
        failure_mode: str = "exit",
    ) -> None:
        self.mesh = mesh
        self.fluid = fluid
        self.dtype = np.dtype(dtype)
        self.grid = CartGrid(px, py)
        self.decomp = BlockDecomposition(mesh, px, py)
        size = self.grid.size
        if workers is None:
            workers = min(size, os.cpu_count() or 1)
        if not 1 <= workers <= size:
            raise ValueError(
                f"workers must be in 1..{size} (ranks), got {workers}"
            )
        self.workers = int(workers)
        self.plan = plan
        self.respawn = bool(respawn)
        failures = plan.rank_failures if plan is not None else ()
        self.max_respawns = max((rf.attempts for rf in failures), default=0) + 1
        if failure_mode not in ("exit", "hang"):
            raise ValueError(
                f"failure_mode must be 'exit' or 'hang', got {failure_mode!r}"
            )
        self.failure_mode = failure_mode
        self.lease_seconds = (
            float(lease_seconds) if lease_seconds is not None else None
        )
        self.layout = HaloLayout.from_decomposition(
            self.decomp, self.grid, dtype=self.dtype
        )
        self._geometry = mesh_geometry(mesh)
        #: rank ranges per worker, contiguous (worker i runs ranks
        #: ``range(*self.rank_split[i])``)
        self.rank_split = _split(size, self.workers)
        self._arena: SharedArena | None = None
        self._pool: ProcPool | None = None
        self._exchanges_done = 0
        self._respawns = 0
        # committed per-rank counter totals (across respawns) and the
        # last cumulative snapshot seen from the current pool generation
        self._acc = [dict.fromkeys(_COUNTERS, 0) for _ in range(size)]
        self._cum = [dict.fromkeys(_COUNTERS, 0) for _ in range(size)]
        self._per_rank = [
            {
                "rank": r,
                "worker": -1,
                "pid": -1,
                "compute_seconds": 0.0,
                "exchange_seconds": 0.0,
                "wait_seconds": 0.0,
            }
            for r in range(size)
        ]
        self._applications = 0
        #: Optional :class:`~repro.obs.replay.ReplayRecorder`.  Recording
        #: needs the arena residual quiescent after every application, so
        #: it disables pipelining (see :meth:`run`); numerics are
        #: unaffected — the fold order never depends on the depth.
        self.record = record

    # ------------------------------------------------------------------ #
    def _specs(self, *, attempt_offset: int = 0) -> list[WorkerSpec]:
        specs = []
        for i, (lo, hi) in enumerate(self.rank_split):
            specs.append(
                WorkerSpec(
                    index=i,
                    ranks=tuple(range(lo, hi)),
                    layout=self.layout,
                    **self._geometry,
                    fluid=self.fluid,
                    px=self.grid.px,
                    py=self.grid.py,
                    dtype=self.dtype.name,
                    plan=self.plan,
                    kill_for_real=self.plan is not None,
                    start_exchange=self._exchanges_done,
                    attempt_offset=attempt_offset,
                    failure_mode=self.failure_mode,
                )
            )
        return specs

    def _liveness(self, worker_index: int) -> int:
        """Sum of a worker's ranks' heartbeat counters (lease probe)."""
        lo, hi = self.rank_split[worker_index]
        return sum(self._arena.heartbeat(r) for r in range(lo, hi))

    def _ensure_pool(self) -> None:
        if self._arena is None:
            self._arena = SharedArena(self.layout, create=True)
            # written once, before any setup is sent (the send orders it
            # before every worker's read); read-only from here on
            np.copyto(self._arena.permeability, self.mesh.permeability)
            self._arena.reset_seqs(self._exchanges_done)
        if self._pool is None:
            try:
                # workers come warm from the process-wide reservoir;
                # setup ships the specs and runs the per-rank state
                # build in parallel across them
                self._pool = ProcPool(
                    self._specs(),
                    arena_fd=self._arena.fd,
                    liveness=self._liveness,
                    lease_seconds=self.lease_seconds,
                    attempt=self._respawns,
                )
            except BaseException:
                # nothing usable was set up — release the arena now
                # instead of holding its memory until interpreter exit
                self._arena.close()
                self._arena = None
                raise
            self._cum = [
                dict.fromkeys(_COUNTERS, 0) for _ in range(self.grid.size)
            ]

    def _respawn_pool(self, pending: list[int]) -> None:
        """Crash recovery: kill survivors, rewind sequence headers to the
        last completed exchange, restart past the failure window and
        re-issue every application still in flight.  The in-flight
        pressures need no re-staging: workers never write the arena's
        pressure parity slots, so each pending application's field is
        still sitting in slot ``index % 2``."""
        self._pool.terminate()
        self._respawns += 1
        self._arena.reset_seqs(self._exchanges_done)
        self._pool = ProcPool(
            self._specs(attempt_offset=self._respawns),
            arena_fd=self._arena.fd,
            liveness=self._liveness,
            lease_seconds=self.lease_seconds,
            attempt=self._respawns,
        )
        self._cum = [
            dict.fromkeys(_COUNTERS, 0) for _ in range(self.grid.size)
        ]
        for _ in pending:
            self._pool.send_run()

    def _absorb(self, payloads: list[dict]) -> None:
        """Fold one application's worker payloads into the accumulators."""
        recorder = get_recorder()
        for payload in payloads:
            ranks = payload["ranks"]
            for rank in ranks:
                cum = payload["stats"][rank]
                acc = self._acc[rank]
                prev = self._cum[rank]
                for key in _COUNTERS:
                    acc[key] += cum[key] - prev[key]
                self._cum[rank] = dict(cum)
                row = self._per_rank[rank]
                row["worker"] = payload["worker"]
                row["pid"] = payload["pid"]
                ns = payload["per_rank_ns"][rank]
                row["compute_seconds"] += ns["compute_ns"] / 1e9
                row["exchange_seconds"] += ns["exchange_ns"] / 1e9
                row["wait_seconds"] += payload["waited_seconds"] / len(ranks)
            if recorder is not None and payload["spans"]:
                ingest_spans(
                    recorder, payload["spans"],
                    pid=payload["pid"], worker=payload["worker"],
                )

    def _collect_oldest(self, pending: list[int]) -> None:
        """Absorb the replies of the oldest in-flight application,
        respawning (and re-issuing all of ``pending``) on a crash."""
        index = pending[0]
        with span("par.application", backend="par", ranks=self.grid.size,
                  workers=self.workers, application=index):
            while True:
                try:
                    payloads = self._pool.collect(phase=f"application {index}")
                except WorkerCrashError:
                    if (
                        not self.respawn
                        or self._respawns >= self.max_respawns
                    ):
                        # nobody will recover this pool: kill it now,
                        # or close() waits out the teardown budget on
                        # every survivor spinning on the dead peer's halo
                        self._pool.terminate()
                        raise
                    self._respawn_pool(pending)
                    continue
                break
        self._absorb(payloads)
        self._exchanges_done += 1
        pending.pop(0)

    # ------------------------------------------------------------------ #
    def run(self, pressures) -> ParClusterRunResult:
        """One application per pressure field (bit-identical to the
        serial :meth:`ClusterFluxComputation.run` residual).

        Applications are pipelined to depth :data:`PIPELINE_DEPTH`: the
        pressure for application ``k`` lands in parity slot ``k % 2``
        and its run command is issued before ``k - 1``'s replies are
        collected, so workers flow between applications without waiting
        on the parent.  The batch is fully drained before the residual
        is read back.
        """
        self._ensure_pool()
        applications = 0
        msgs_before = sum(a["messages_sent"] for a in self._acc)
        bytes_before = sum(a["bytes_sent"] for a in self._acc)
        respawns_before = self._respawns
        t_run0 = time.perf_counter_ns()
        # in-flight application indices; each one's pressure lives in
        # arena parity slot ``index % 2`` until its replies are collected
        pending: list[int] = []
        # recording reads arena.residual after every application, which
        # is only safe once the workers are done with it — so the replay
        # path runs at depth 1 (collect before the next stage)
        depth = 1 if self.record is not None else PIPELINE_DEPTH
        for pressure in pressures:
            self.mesh.validate_field(pressure, name="pressure")
            if len(pending) >= depth:
                self._collect_oldest(pending)
            index = self._applications
            np.copyto(
                self._arena.pressure(index),
                np.asarray(pressure, dtype=self.dtype),
            )
            self._pool.send_run()
            pending.append(index)
            self._applications += 1
            applications += 1
            if self.record is not None:
                self._collect_oldest(pending)
                self.record.record_step(pressure, self._arena.residual)
        while pending:
            self._collect_oldest(pending)
        if applications == 0:
            raise ValueError("no pressure fields supplied")
        wall_seconds = (time.perf_counter_ns() - t_run0) / 1e9
        total_msgs = sum(a["messages_sent"] for a in self._acc) - msgs_before
        total_bytes = sum(a["bytes_sent"] for a in self._acc) - bytes_before
        return ParClusterRunResult(
            residual=np.array(self._arena.residual, dtype=self.dtype),
            applications=applications,
            ranks=self.grid.size,
            workers=self.workers,
            messages_per_application=total_msgs // applications,
            halo_bytes_per_application=total_bytes // applications,
            total_bytes=sum(a["bytes_sent"] for a in self._acc),
            wall_seconds=wall_seconds,
            respawns=self._respawns - respawns_before,
            per_rank=[dict(row) for row in self._per_rank],
        )

    def rank_stats(self) -> list[dict]:
        """Per-rank communication counters measured by the workers
        (committed totals across respawns), one dict per rank — ready to
        fold into one summary via ``MetricsRegistry.merge``."""
        return [dict(acc) for acc in self._acc]

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the workers and release the shared arena."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "ParClusterFluxComputation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
