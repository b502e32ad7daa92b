"""Warm process pools: spawn once, lease per problem, crash detection.

Worker processes are expensive to start (interpreter fork, numpy page
faults) and the per-problem prologue (mesh slicing, transmissibility
build) is expensive to repeat — so neither happens per application, and
with the warm pool neither happens per *problem* either:

* :class:`WarmPool` is a process-wide reservoir of idle,
  problem-agnostic worker processes (see
  :func:`~repro.par.worker.worker_main`'s command protocol).  Workers
  are spawned on first demand and returned to the reservoir when a
  computation closes, so back-to-back
  :class:`~repro.par.flux.ParClusterFluxComputation` instances reuse
  the same OS processes — ``spawn once, ship work over pipes``.
* :class:`ProcPool` is the per-problem view: it leases workers from the
  reservoir, ships each its :class:`~repro.par.worker.WorkerSpec` via a
  ``("setup", spec)`` command followed by the shared arena's file
  descriptor (:func:`multiprocessing.reduction.send_handle` over the
  same socketpair; the one-time state build then runs in parallel
  across workers), and drives applications with ``("run",)`` commands.
  A spec is a couple of KB of plain values — rank slice, arena map,
  mesh geometry, fluid, fault plan — so the sends do not serialise the
  workers' builds: the mesh's permeability, the one large input, is
  already in the shared arena (the parent writes it before the first
  ``setup``), and its porosity is not needed.
  ``shutdown()`` tears the problem state down and releases the workers
  back to the reservoir; ``terminate()`` (the crash path) kills them
  instead — a worker that crashed or may hold wedged state never
  re-enters the reservoir.

The collect loop polls each pipe in short slices interleaved with
liveness checks, so a worker that died (injected kill, OOM, organic
crash) surfaces as a structured
:class:`~repro.faults.errors.WorkerCrashError` within one poll slice
instead of hanging the parent until a timeout.

``fork`` is preferred (no re-import cost); everything is pickle-clean
so ``spawn`` works where fork is unavailable (a cold interpreter then
imports the worker module and maps the arena, permeability region
included, from the descriptor it is sent; ``tests/par/test_warm_pool.py``
runs that path).
Workers are daemons: they can never outlive the parent process, and
idle reservoir workers cost one sleeping process each until
:func:`shutdown_warm_pool`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from multiprocessing.reduction import send_handle

from repro.faults.errors import WorkerCrashError, WorkerLeaseExpiredError
from repro.par.worker import WorkerSpec, worker_main

__all__ = [
    "ProcPool",
    "WarmPool",
    "available_cpus",
    "warm_pool",
    "shutdown_warm_pool",
]

#: Seconds per pipe-poll slice in :meth:`ProcPool.collect`.
POLL_SLICE_SECONDS = 0.05


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``sched_getaffinity`` respects cgroup/taskset limits that
    ``os.cpu_count()`` ignores — in a 1-core container the difference
    decides whether a worker sweep measures scaling or contention.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _context() -> mp.context.BaseContext:
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context("spawn")


class _Handle:
    """One warm worker: the process and the parent end of its pipe."""

    __slots__ = ("proc", "conn")

    def __init__(self, proc: mp.Process, conn) -> None:
        self.proc = proc
        self.conn = conn

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            # SIGTERM cannot kill a SIGSTOP'd (hung) worker — the signal
            # stays pending while the process is stopped.  Escalate to
            # SIGKILL, which is delivered regardless.
            self.proc.kill()
            self.proc.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class WarmPool:
    """A reservoir of idle, problem-agnostic worker processes."""

    def __init__(self) -> None:
        self._idle: list[_Handle] = []
        self._spawned = 0

    # ------------------------------------------------------------------ #
    @property
    def idle_count(self) -> int:
        return len(self._idle)

    @property
    def total_spawned(self) -> int:
        """Processes ever spawned — the warm-reuse proof in tests."""
        return self._spawned

    def _spawn(self) -> _Handle:
        ctx = _context()
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"repro-par-warm-{self._spawned}",
        )
        proc.start()
        child_conn.close()
        self._spawned += 1
        return _Handle(proc, parent_conn)

    def lease(self, count: int) -> list[_Handle]:
        """Hand out ``count`` live workers, reusing idle ones LIFO."""
        handles: list[_Handle] = []
        while self._idle and len(handles) < count:
            handle = self._idle.pop()
            if handle.proc.is_alive():
                handles.append(handle)
            else:  # died while idle (should not happen; be safe)
                handle.kill()
        while len(handles) < count:
            handles.append(self._spawn())
        return handles

    def release(self, handles: list[_Handle]) -> None:
        """Return *live* workers to the reservoir (dead ones reaped)."""
        for handle in handles:
            if handle.proc.is_alive():
                self._idle.append(handle)
            else:
                handle.kill()

    def shutdown(self) -> None:
        """Quit every idle worker (leased ones belong to their pools)."""
        for handle in self._idle:
            if handle.proc.is_alive():
                try:
                    handle.conn.send(("quit",))
                except (OSError, BrokenPipeError):
                    pass
        for handle in self._idle:
            handle.proc.join(timeout=2.0)
            if handle.proc.is_alive():  # pragma: no cover - stuck worker
                handle.proc.terminate()
                handle.proc.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._idle = []


#: The process-wide reservoir; module-level so every
#: ParClusterFluxComputation in the process shares warm workers.
_GLOBAL_POOL: WarmPool | None = None


def warm_pool() -> WarmPool:
    """The process-wide :class:`WarmPool`, created on first use."""
    global _GLOBAL_POOL
    if _GLOBAL_POOL is None:
        _GLOBAL_POOL = WarmPool()
    return _GLOBAL_POOL


def shutdown_warm_pool() -> None:
    """Quit all idle warm workers (tests / explicit teardown)."""
    if _GLOBAL_POOL is not None:
        _GLOBAL_POOL.shutdown()


class ProcPool:
    """A fixed set of SPMD workers leased from a warm reservoir.

    Construction leases (or spawns) one worker per spec, ships the
    specs, each followed by *arena_fd* (the
    :class:`~repro.par.shm.SharedArena` descriptor), and waits for
    every ``("ready", pid)`` ack — the per-problem
    state build runs in parallel across the workers.  If anything goes
    wrong mid-setup (a spec that fails to pickle, a worker that dies
    building its state), every leased worker is killed before the
    exception propagates, so no half-configured process can ever
    re-enter the reservoir.
    """

    def __init__(
        self,
        specs: list[WorkerSpec],
        *,
        arena_fd: int,
        reservoir: WarmPool | None = None,
        setup_timeout_seconds: float = 120.0,
        liveness=None,
        lease_seconds: float | None = None,
        attempt: int = 0,
    ) -> None:
        self.specs = list(specs)
        self._reservoir = reservoir if reservoir is not None else warm_pool()
        self.handles: list[_Handle] = []
        self._released = False
        #: ``liveness(worker_index) -> int`` reads the worker's shared
        #: heartbeat counter; with ``lease_seconds`` set, a live worker
        #: whose counter stalls for a full lease of poll passes is
        #: reported as :class:`WorkerLeaseExpiredError` (hung, not dead).
        self._liveness = liveness
        self._lease_seconds = lease_seconds
        self._attempt = int(attempt)
        try:
            self.handles = self._reservoir.lease(len(self.specs))
            for spec, handle in zip(self.specs, self.handles):
                handle.conn.send(("setup", spec))
                send_handle(handle.conn, arena_fd, handle.proc.pid)
            self._gather("ready", phase="setup",
                         timeout_seconds=setup_timeout_seconds)
        except BaseException:
            self.terminate()
            raise

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return len(self.handles)

    @property
    def conns(self) -> list:
        return [handle.conn for handle in self.handles]

    def pids(self) -> list[int]:
        """OS process id of every worker, in worker-index order."""
        return [handle.proc.pid for handle in self.handles]

    def send_run(self) -> None:
        """Start one application on every worker.

        A worker that died mid-pipeline has a broken pipe here; the
        send is skipped — the next :meth:`collect`'s liveness check
        reports the crash as a structured
        :class:`~repro.faults.errors.WorkerCrashError` instead of an
        unstructured ``BrokenPipeError`` escaping from the staging
        path.
        """
        for handle in self.handles:
            try:
                handle.conn.send(("run",))
            except (BrokenPipeError, OSError):
                continue

    def dead_workers(self) -> list[tuple[int, int, int | None, tuple[int, ...]]]:
        """``(index, pid, exitcode, ranks)`` for every non-live worker."""
        dead = []
        for i, handle in enumerate(self.handles):
            if not handle.proc.is_alive():
                dead.append(
                    (i, handle.proc.pid, handle.proc.exitcode,
                     tuple(self.specs[i].ranks))
                )
        return dead

    def _gather(self, expect: str, *, phase: str,
                timeout_seconds: float) -> list:
        """One ``(expect, body)`` reply per worker, in worker order.

        Raises
        ------
        WorkerCrashError
            When a worker dies (or its pipe hits EOF) before replying.
        RuntimeError
            When a worker reports an error, replies out of protocol, or
            no reply arrives within the poll budget.
        """
        bodies: list = [None] * self.size
        got: list[bool] = [False] * self.size
        # a fixed slice count, not a wall-clock deadline: deterministic
        # control flow, and each slice doubles as a liveness check
        budget = max(1, int(timeout_seconds / POLL_SLICE_SECONDS))
        # heartbeat-lease bookkeeping: last observed counter and how
        # many consecutive poll passes it has been stale, per worker
        lease_passes = None
        # the lease only governs application phases: during setup a
        # worker legitimately computes for a long stretch (mesh slicing,
        # transmissibility build) without touching the arena
        if (self._liveness is not None and self._lease_seconds is not None
                and phase != "setup"):
            lease_passes = max(1, int(self._lease_seconds
                                      / POLL_SLICE_SECONDS))
            last_beat = [None] * self.size
            stale = [0] * self.size
        policy = {
            "poll_slice_seconds": POLL_SLICE_SECONDS,
            "timeout_seconds": timeout_seconds,
            "lease_seconds": self._lease_seconds,
        }
        for passes in range(1, budget + 1):
            waiting = False
            for i, handle in enumerate(self.handles):
                if got[i]:
                    continue
                try:
                    ready = handle.conn.poll(POLL_SLICE_SECONDS)
                except (OSError, EOFError):
                    ready = False
                if not ready:
                    waiting = True
                    continue
                try:
                    kind, body = handle.conn.recv()
                except (EOFError, OSError):
                    waiting = True
                    continue
                if kind == "error":
                    raise RuntimeError(
                        f"worker {self.specs[i].index} failed during "
                        f"{phase}: {body}"
                    )
                if kind != expect:
                    raise RuntimeError(
                        f"worker {self.specs[i].index} replied {kind!r} "
                        f"during {phase}, expected {expect!r}"
                    )
                bodies[i] = body
                got[i] = True
            elapsed = passes * POLL_SLICE_SECONDS
            dead = [
                entry for entry in self.dead_workers() if not got[entry[0]]
            ]
            if dead:
                raise WorkerCrashError(
                    dead, phase, elapsed_seconds=elapsed,
                    attempt=self._attempt, policy=policy,
                )
            if lease_passes is not None:
                expired = []
                for i, handle in enumerate(self.handles):
                    if got[i]:
                        continue
                    beat = self._liveness(i)
                    if beat != last_beat[i]:
                        last_beat[i] = beat
                        stale[i] = 0
                    else:
                        stale[i] += 1
                    if stale[i] >= lease_passes:
                        expired.append(
                            (i, handle.proc.pid, None,
                             tuple(self.specs[i].ranks))
                        )
                if expired:
                    raise WorkerLeaseExpiredError(
                        expired, phase,
                        lease_seconds=self._lease_seconds,
                        elapsed_seconds=elapsed,
                        attempt=self._attempt, policy=policy,
                    )
            if not waiting:
                return bodies
        missing = [
            self.specs[i].index for i, done in enumerate(got) if not done
        ]
        raise RuntimeError(
            f"timed out waiting for worker(s) {missing} during {phase} "
            f"({timeout_seconds:.0f}s budget)"
        )

    def collect(self, *, timeout_seconds: float = 120.0,
                phase: str = "application") -> list[dict]:
        """One application's ``("ok", payload)`` reply per worker."""
        return self._gather("ok", phase=phase,
                            timeout_seconds=timeout_seconds)

    # ------------------------------------------------------------------ #
    def terminate(self) -> None:
        """Hard-stop every worker (crash recovery path).

        Killed workers never return to the reservoir — a wedged or
        half-configured process must not serve the next problem.
        """
        self._released = True
        for handle in self.handles:
            handle.kill()

    def shutdown(self) -> None:
        """Graceful stop: tear down app state, release workers warm.

        Workers that acknowledge the teardown go back to the reservoir
        still running; stragglers are killed.
        """
        if self._released:
            return
        self._released = True
        keep: list[_Handle] = []
        for handle in self.handles:
            if not handle.proc.is_alive():
                handle.kill()
                continue
            try:
                handle.conn.send(("teardown",))
            except (OSError, BrokenPipeError):
                handle.kill()
                continue
            keep.append(handle)
        released: list[_Handle] = []
        for handle in keep:
            # bounded poll: a worker mid-application drains its pending
            # replies before acking the teardown
            budget = max(1, int(10.0 / POLL_SLICE_SECONDS))
            acked = False
            for _ in range(budget):
                try:
                    if not handle.conn.poll(POLL_SLICE_SECONDS):
                        if not handle.proc.is_alive():
                            break
                        continue
                    kind, _body = handle.conn.recv()
                except (EOFError, OSError):
                    break
                if kind == "released":
                    acked = True
                    break
                # stale ("ok", payload) replies from an abandoned
                # application drain here; anything else is fatal
                if kind == "error":
                    break
            if acked:
                released.append(handle)
            else:
                handle.kill()
        self._reservoir.release(released)
