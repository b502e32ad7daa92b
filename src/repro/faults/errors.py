"""Structured fault/robustness exceptions shared across layers.

Every error here subclasses :class:`RuntimeError` so existing callers
(and tests) that catch the old bare ``RuntimeError`` paths keep working;
the subclasses add machine-readable context — iteration counts, in-flight
diagnostics, retry budgets — for the chaos harness and the obs layer.

Message wording is part of the contract: the event-budget error keeps
the word "budget", the receive timeout keeps "deadlock" and the barrier
leak keeps "never received", because downstream tooling (and the
historical tests) match on those substrings.
"""

from __future__ import annotations

__all__ = [
    "FaultError",
    "FaultPlanError",
    "FabricStallError",
    "EventBudgetError",
    "CommTimeoutError",
    "PendingLeakError",
    "WorkerCrashError",
    "WorkerLeaseExpiredError",
    "CheckpointCorruptError",
]


class FaultError(RuntimeError):
    """Base class for fault-injection and fault-detection errors."""


class FaultPlanError(FaultError):
    """A fault plan is malformed or cannot be applied to this topology."""


class EventBudgetError(FaultError):
    """`EventRuntime.run(max_events=...)` hit its budget with work pending.

    Attributes
    ----------
    processed:
        Events processed before the budget fired.
    pending:
        Events still in the heap at that point.
    now:
        Simulation time when the budget fired.
    """

    def __init__(self, *, processed: int, pending: int, now: float) -> None:
        self.processed = processed
        self.pending = pending
        self.now = now
        super().__init__(
            f"event budget exhausted after {processed} events with "
            f"{pending} still pending at t={now:.0f} "
            "(possible protocol livelock)"
        )


class FabricStallError(FaultError):
    """The progress watchdog saw no delivery for too many cycles.

    Attributes
    ----------
    now:
        Simulation time of the event that tripped the watchdog.
    idle_cycles:
        Cycles since the last delivery made progress.
    watchdog_cycles:
        The configured no-progress threshold.
    report:
        Obs-layer diagnostic dict (in-flight messages, last-active
        links, runtime stats) built by
        :func:`repro.obs.report.stall_report`.
    """

    def __init__(
        self,
        *,
        now: float,
        idle_cycles: float,
        watchdog_cycles: float,
        report: dict | None = None,
    ) -> None:
        self.now = now
        self.idle_cycles = idle_cycles
        self.watchdog_cycles = watchdog_cycles
        self.report = report if report is not None else {}
        pending = self.report.get("pending_events", 0)
        super().__init__(
            f"fabric stalled: no delivery within {watchdog_cycles:.0f} "
            f"cycles (idle {idle_cycles:.0f} cycles at t={now:.0f}, "
            f"{pending} in-flight events)"
        )


class CommTimeoutError(FaultError):
    """A `SimComm.recv` found no matching send, even after retries.

    ``attempts`` is the number of retry attempts made (0 when no retry
    policy was in effect — the legacy immediate-deadlock path).
    ``elapsed_seconds`` and ``policy`` carry the wall time burned and
    the active retry/backoff parameters so supervisor timelines and
    post-mortems explain *why* detection fired; both stay out of the
    message so chaos reports remain byte-identical across runs.
    """

    def __init__(
        self,
        source: int,
        dest: int,
        tag: int,
        attempts: int = 0,
        *,
        elapsed_seconds: float = 0.0,
        policy: dict | None = None,
    ) -> None:
        self.source = source
        self.dest = dest
        self.tag = tag
        self.attempts = attempts
        self.elapsed_seconds = float(elapsed_seconds)
        self.policy = dict(policy) if policy else {}
        suffix = f" after {attempts} retries" if attempts else ""
        super().__init__(
            f"recv would deadlock: no message from rank {source} to "
            f"rank {dest} with tag {tag}{suffix}"
        )

    def as_dict(self) -> dict:
        """Machine-readable detection context for timelines/post-mortems."""
        return {
            "error": "CommTimeoutError",
            "source": self.source,
            "dest": self.dest,
            "tag": self.tag,
            "attempts": self.attempts,
            "elapsed_seconds": self.elapsed_seconds,
            "policy": dict(self.policy),
        }


class PendingLeakError(FaultError):
    """A phase barrier found sent-but-unreceived messages (leaked sends)."""

    def __init__(self, phase: str, leaked: list[tuple[int, int, int]]) -> None:
        self.phase = phase
        self.leaked = list(leaked)
        shown = ", ".join(str(key) for key in self.leaked[:8])
        more = "" if len(self.leaked) <= 8 else f", ... ({len(self.leaked)} total)"
        where = f" at end of {phase}" if phase else ""
        super().__init__(
            f"barrier{where}: {len(self.leaked)} message(s) were never "
            f"received (leaked sends: {shown}{more})"
        )


class WorkerCrashError(FaultError):
    """A multiprocess SPMD worker died mid-run (real process death).

    Raised by the :mod:`repro.par` pool when a worker process exits
    while an application is in flight — the genuine-crash analogue of
    the serial backend's modelled rank failure
    (:class:`~repro.faults.plan.RankFailure`).

    Attributes
    ----------
    crashed:
        ``(worker_index, pid, exitcode, ranks)`` per dead worker.
    phase:
        What the pool was waiting on when the crash surfaced.
    elapsed_seconds:
        Wall time the pool spent waiting before the crash surfaced
        (kept out of the message so chaos reports stay byte-stable).
    attempt:
        Which respawn generation was running when the crash surfaced.
    policy:
        The active liveness/polling parameters (slice length, budget).
    """

    def __init__(
        self,
        crashed: list[tuple[int, int, int | None, tuple[int, ...]]],
        phase: str = "",
        *,
        elapsed_seconds: float = 0.0,
        attempt: int = 0,
        policy: dict | None = None,
    ) -> None:
        self.crashed = list(crashed)
        self.phase = phase
        self.elapsed_seconds = float(elapsed_seconds)
        self.attempt = int(attempt)
        self.policy = dict(policy) if policy else {}
        where = f" during {phase}" if phase else ""
        desc = ", ".join(
            f"worker {idx} (pid {pid}, exit {code}, ranks {list(ranks)})"
            for idx, pid, code, ranks in self.crashed
        )
        super().__init__(
            f"{len(self.crashed)} SPMD worker(s) died{where}: {desc}"
        )

    def as_dict(self) -> dict:
        """Machine-readable detection context for timelines/post-mortems."""
        return {
            "error": type(self).__name__,
            "crashed": [
                {
                    "worker": idx,
                    "pid": pid,
                    "exitcode": code,
                    "ranks": list(ranks),
                }
                for idx, pid, code, ranks in self.crashed
            ],
            "phase": self.phase,
            "elapsed_seconds": self.elapsed_seconds,
            "attempt": self.attempt,
            "policy": dict(self.policy),
        }


class WorkerLeaseExpiredError(WorkerCrashError):
    """A worker is alive but its heartbeat lease expired (hung worker).

    Subclasses :class:`WorkerCrashError` so every existing respawn path
    treats a hung-but-alive worker (e.g. SIGSTOP'd, wedged in a
    syscall) exactly like a dead one — the supervisor kills and
    respawns it.  ``crashed`` entries carry ``exitcode=None`` because
    the process has not exited.

    Attributes
    ----------
    lease_seconds:
        The configured heartbeat lease that expired.
    """

    def __init__(
        self,
        crashed: list[tuple[int, int, int | None, tuple[int, ...]]],
        phase: str = "",
        *,
        lease_seconds: float = 0.0,
        elapsed_seconds: float = 0.0,
        attempt: int = 0,
        policy: dict | None = None,
    ) -> None:
        super().__init__(
            crashed,
            phase,
            elapsed_seconds=elapsed_seconds,
            attempt=attempt,
            policy=policy,
        )
        self.lease_seconds = float(lease_seconds)
        # rebuild the message: these workers are hung, not dead
        where = f" during {phase}" if phase else ""
        desc = ", ".join(
            f"worker {idx} (pid {pid}, ranks {list(ranks)})"
            for idx, pid, _code, ranks in self.crashed
        )
        self.args = (
            f"{len(self.crashed)} SPMD worker(s) exceeded heartbeat "
            f"lease{where} (hung, not dead): {desc}",
        )

    def as_dict(self) -> dict:
        doc = super().as_dict()
        doc["lease_seconds"] = self.lease_seconds
        return doc


class CheckpointCorruptError(FaultError):
    """A checkpoint file failed its integrity check on load.

    Raised instead of letting a truncated or bit-flipped ``.npz``
    surface as an opaque numpy/zipfile error; the supervisor catches
    this and falls back to the previous checkpoint.
    """

    def __init__(self, path, reason: str) -> None:
        self.path = str(path)
        self.reason = reason
        super().__init__(f"corrupt checkpoint {self.path}: {reason}")
