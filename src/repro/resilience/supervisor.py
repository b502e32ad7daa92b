"""`RunSupervisor` — policy-driven self-healing execution of a run.

The supervisor wraps any backend of :data:`repro.backends.BACKENDS` and
turns its driver's one-shot structured exceptions into bounded-loss
recovery:

1. **Checkpoint** — after every ``checkpoint_every`` committed
   applications the residual goes into a
   :class:`~repro.solver.checkpoint.CheckpointStore` (in memory, plus
   on disk when ``checkpoint_dir`` is set).
2. **Detect** — :class:`~repro.faults.errors.FabricStallError`,
   :class:`~repro.faults.errors.CommTimeoutError`,
   :class:`~repro.faults.errors.WorkerCrashError` (including the
   heartbeat-lease :class:`~repro.faults.errors.WorkerLeaseExpiredError`),
   :class:`~repro.faults.errors.EventBudgetError` and
   :class:`~repro.solver.errors.SolverDivergence` are recoverable; any
   other exception propagates untouched.
3. **Restore + replay** — the supervisor waits a jittered exponential
   backoff (seeded — decisions are reproducible), restores the newest
   *intact* checkpoint (a corrupt ``.npz`` is skipped with a timeline
   note, falling back to the previous one), rebuilds the driver, and —
   under ``verify_replay`` — re-runs the checkpointed application and
   requires it **bit-identical** to the checkpoint before resuming.
   Because every backend is deterministic given its inputs, the
   resumed run's remaining steps are bit-identical to an uninterrupted
   run's (the resilience tests assert exactly this).
4. **Degrade** — a backend that exhausts ``max_restarts`` falls down
   the policy ladder (par → cluster, gpu → lockstep, ...); under
   ``verify_degraded`` the new backend must reproduce the last
   committed application within the cross-backend fold-class tolerance
   (:func:`repro.conform.default_tolerance`) before it continues, and
   the result is stamped with the full ``backend_chain``.
5. **Post-mortem** — when nothing on the ladder is left, the
   supervisor emits a ``.rpz`` replay bundle of every committed step
   plus a byte-stable JSON timeline of each detect/restore/replay/
   degrade decision, then raises :class:`SupervisorGiveUp`.

Fault injection composes through ``plan``: the injected
:class:`~repro.faults.plan.FaultPlan` applies to the *first* attempt of
the starting backend only (a transient fault); restarts run clean.
Tests and the chaos harness use ``driver_factory`` for sharper control
— any callable ``(backend, attempt) -> (run_single, finish)`` replaces
the built-in drivers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backends import get_backend, release
from repro.faults.errors import (
    CommTimeoutError,
    EventBudgetError,
    FabricStallError,
    FaultError,
    WorkerCrashError,
)
from repro.resilience.policy import ResiliencePolicy
from repro.solver.checkpoint import Checkpoint, CheckpointStore
from repro.solver.errors import SolverDivergence
from repro.util.jsonio import write_stable_json

__all__ = [
    "RECOVERABLE_ERRORS",
    "RunSupervisor",
    "SupervisedResult",
    "SupervisorGiveUp",
]

#: Exceptions the supervisor recovers from; everything else propagates.
RECOVERABLE_ERRORS = (
    FabricStallError,
    CommTimeoutError,
    WorkerCrashError,
    EventBudgetError,
    SolverDivergence,
)


class SupervisorGiveUp(FaultError):
    """Every recovery avenue is exhausted; carries the decision record.

    Attributes
    ----------
    timeline:
        The supervisor's full decision timeline.
    cause:
        The final recoverable exception.
    postmortem_bundle / postmortem_timeline:
        Paths of the emitted artifacts (None when no ``postmortem_dir``
        was configured / no step ever committed).
    """

    def __init__(
        self,
        message: str,
        *,
        timeline: list[dict],
        cause: BaseException | None = None,
        postmortem_bundle=None,
        postmortem_timeline=None,
    ) -> None:
        self.timeline = timeline
        self.cause = cause
        self.postmortem_bundle = (
            str(postmortem_bundle) if postmortem_bundle else None
        )
        self.postmortem_timeline = (
            str(postmortem_timeline) if postmortem_timeline else None
        )
        super().__init__(message)


@dataclass
class SupervisedResult:
    """Outcome of a supervised run, stamped with its recovery history."""

    residual: np.ndarray
    applications: int
    backend: str
    backend_chain: list[str]
    restarts: int
    degradations: int
    checkpoints_written: int
    restores: int
    timeline: list[dict] = field(default_factory=list)
    #: Per committed application: index, executing backend, residual
    #: digest — the provenance record degradation stamps live in.
    steps: list[dict] = field(default_factory=list)
    policy: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return len(self.backend_chain) > 1

    def as_dict(self) -> dict:
        return {
            "applications": self.applications,
            "backend": self.backend,
            "backend_chain": list(self.backend_chain),
            "restarts": self.restarts,
            "degradations": self.degradations,
            "checkpoints_written": self.checkpoints_written,
            "restores": self.restores,
            "steps": [dict(s) for s in self.steps],
            "timeline": [dict(e) for e in self.timeline],
            "policy": dict(self.policy),
        }


class RunSupervisor:
    """Drive a batch of flux applications to completion under a policy.

    Parameters
    ----------
    mesh, fluid:
        The problem (any :class:`~repro.core.mesh.CartesianMesh3D` and
        :class:`~repro.core.fluid.FluidProperties`).
    policy:
        The :class:`~repro.resilience.policy.ResiliencePolicy`
        (defaults to ``ResiliencePolicy()``).
    backend:
        Starting backend (a :data:`repro.backends.BACKENDS` name).
    px, py, workers, dtype:
        Decomposition/config forwarded to the cluster/par drivers.
    plan:
        Optional :class:`~repro.faults.plan.FaultPlan`, applied to the
        *first attempt only* (transient-fault model); restarts and
        degraded backends run clean.
    failure_mode:
        How par-worker rank failures manifest (``"exit"`` or
        ``"hang"``); the hang mode is only detectable through the
        policy's heartbeat lease.
    watchdog_cycles:
        Progress-watchdog threshold forwarded to the event backend
        (None keeps the driver default); a stalled fabric then raises
        the recoverable :class:`~repro.faults.errors.FabricStallError`.
    checkpoint_dir:
        Mirror checkpoints to disk; restores then re-open the store
        from disk, which is what exercises (and survives) checkpoint
        corruption.
    record:
        Optional :class:`~repro.obs.replay.ReplayRecorder`: fed every
        *committed* application exactly once at the end of the run, so
        restored-and-replayed steps never appear twice.
    postmortem_dir:
        Where give-up bundles/timelines land.
    driver_factory:
        Override driver construction: ``(backend, attempt) ->
        (run_single, finish)`` with ``run_single(pressure) ->
        residual``.  The chaos harness and tests inject deterministic
        failures through this.
    mesh_meta:
        Mesh recipe dict for post-mortem metadata (``nx/ny/nz/kind/
        seed``); derived as a plain mesh when omitted.
    """

    def __init__(
        self,
        mesh,
        fluid,
        *,
        policy: ResiliencePolicy | None = None,
        backend: str = "event",
        px: int = 2,
        py: int = 2,
        workers: int | None = None,
        dtype=np.float64,
        plan=None,
        failure_mode: str = "exit",
        watchdog_cycles: float | None = None,
        checkpoint_dir=None,
        record=None,
        postmortem_dir=None,
        driver_factory=None,
        mesh_meta: dict | None = None,
    ) -> None:
        self.mesh = mesh
        self.fluid = fluid
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.backend = backend
        self.px = int(px)
        self.py = int(py)
        self.workers = workers
        self.dtype = np.dtype(dtype)
        self.plan = plan
        self.failure_mode = failure_mode
        self.watchdog_cycles = watchdog_cycles
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.record = record
        self.postmortem_dir = (
            Path(postmortem_dir) if postmortem_dir is not None else None
        )
        self._factory = (
            driver_factory if driver_factory is not None
            else self._default_factory
        )
        if mesh_meta is None:
            mesh_meta = {
                "nx": mesh.nx, "ny": mesh.ny, "nz": mesh.nz,
                "kind": "plain", "seed": 0,
            }
        self.mesh_meta = dict(mesh_meta)

    # ------------------------------------------------------------------ #
    # Default drivers
    # ------------------------------------------------------------------ #
    def _default_factory(self, backend: str, attempt: int):
        drv = get_backend(backend).build(
            self.mesh, self.fluid, dtype=self.dtype,
            # transient-fault model: the plan hits the first attempt only
            plan=self.plan if attempt == 0 else None,
            px=self.px, py=self.py, workers=self.workers,
            watchdog_cycles=self.watchdog_cycles,
            # respawn=False: crashes surface here so *this* layer (not
            # the par driver's internal respawn loop) owns the recovery
            respawn=False,
            lease_seconds=self.policy.lease_seconds,
            failure_mode=self.failure_mode,
        )
        return (lambda p: drv.run([p]).residual), (lambda: release(drv))

    # ------------------------------------------------------------------ #
    # Supervision loop
    # ------------------------------------------------------------------ #
    def run(self, pressures) -> SupervisedResult:
        """Run every pressure field to a committed residual, healing as
        the policy allows; raises :class:`SupervisorGiveUp` otherwise."""
        from repro.obs.replay import digest_array

        pressures = [np.asarray(p) for p in pressures]
        n = len(pressures)
        if n == 0:
            raise ValueError("no pressure fields supplied")
        policy = self.policy
        rng = random.Random(policy.seed)
        timeline: list[dict] = []
        residuals: list[np.ndarray | None] = [None] * n
        step_backends: list[str | None] = [None] * n
        store = CheckpointStore(
            self.checkpoint_dir, keep=policy.keep_checkpoints
        )
        current = self.backend
        chain = [current]
        attempt = 0          # restarts burned on the current backend
        restarts = 0
        restores = 0
        checkpoints_written = 0
        completed = 0
        # (checkpoint, mode, reference_backend) still to be verified on
        # the freshly (re)built driver before new work is committed
        pending_verify: tuple[Checkpoint, str, str] | None = None
        timeline.append({
            "event": "start", "backend": current, "applications": n,
            "policy": policy.to_dict(),
        })
        run_single, finish = self._factory(current, attempt)
        try:
            while completed < n:
                try:
                    if pending_verify is not None:
                        ckpt, mode, ref_backend = pending_verify
                        self._verify(
                            run_single, pressures, ckpt, mode,
                            ref_backend, current, timeline,
                        )
                        pending_verify = None
                    residual = run_single(pressures[completed])
                except RECOVERABLE_ERRORS as exc:
                    finish()
                    timeline.append(self._failure_event(
                        exc, backend=current, step=completed,
                        attempt=attempt,
                    ))
                    if attempt < policy.max_restarts:
                        delay = policy.backoff_delay(attempt, rng)
                        attempt += 1
                        restarts += 1
                        timeline.append({
                            "event": "backoff", "attempt": attempt,
                            "delay_seconds": round(delay, 9),
                        })
                        if delay > 0:
                            time.sleep(delay)
                        ckpt = self._restore(store, timeline)
                        completed = self._rewind(
                            ckpt, residuals, step_backends, completed
                        )
                        restores += 1
                        run_single, finish = self._factory(current, attempt)
                        if policy.verify_replay and ckpt is not None:
                            pending_verify = (ckpt, "bit", current)
                        continue
                    nxt = policy.next_backend(current)
                    if nxt is None:
                        self._give_up(
                            exc, timeline, pressures, residuals,
                            step_backends, completed, chain, policy,
                        )
                    ckpt = self._restore(store, timeline)
                    completed = self._rewind(
                        ckpt, residuals, step_backends, completed
                    )
                    restores += 1
                    ref = (
                        step_backends[ckpt.step - 1]
                        if ckpt is not None and ckpt.step >= 1
                        else current
                    )
                    timeline.append({
                        "event": "degrade", "from": current, "to": nxt,
                        "at_step": completed,
                    })
                    current = nxt
                    chain.append(current)
                    attempt = 0
                    run_single, finish = self._factory(current, attempt)
                    if policy.verify_degraded and ckpt is not None:
                        pending_verify = (ckpt, "tolerance", ref)
                    continue
                # commit
                residuals[completed] = np.array(residual, copy=True)
                step_backends[completed] = current
                completed += 1
                if completed % policy.checkpoint_every == 0:
                    store.save(Checkpoint(
                        step=completed, time=float(completed),
                        pressure=residuals[completed - 1],
                    ))
                    checkpoints_written += 1
                    timeline.append({
                        "event": "checkpoint", "step": completed,
                    })
        finally:
            finish()
        timeline.append({
            "event": "complete", "applications": n, "restarts": restarts,
            "backend_chain": list(chain),
        })
        if self.record is not None:
            # committed steps only, fed exactly once: restored-and-
            # replayed applications never appear twice in the artifact
            for pressure, residual in zip(pressures, residuals):
                self.record.record_step(pressure, residual)
        return SupervisedResult(
            residual=residuals[-1],
            applications=n,
            backend=current,
            backend_chain=chain,
            restarts=restarts,
            degradations=len(chain) - 1,
            checkpoints_written=checkpoints_written,
            restores=restores,
            timeline=timeline,
            steps=[
                {
                    "index": i,
                    "backend": step_backends[i],
                    "residual_sha256": digest_array(residuals[i]),
                }
                for i in range(n)
            ],
            policy=policy.to_dict(),
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _failure_event(exc, *, backend, step, attempt) -> dict:
        event = {
            "event": "failure", "backend": backend, "step": step,
            "attempt": attempt, "error": type(exc).__name__,
        }
        as_dict = getattr(exc, "as_dict", None)
        if callable(as_dict):
            try:
                event["context"] = as_dict()
            except Exception:  # pragma: no cover - diagnostic best-effort
                pass
        return event

    def _restore(self, store: CheckpointStore, timeline: list[dict]):
        """Newest intact checkpoint (None = restart from scratch).

        With a checkpoint directory the store is re-opened from disk —
        the real crash-restart path — so a corrupt newest ``.npz`` is
        detected by its checksum and skipped in favour of the previous
        intact file.
        """
        corrupt: list[str] = []
        if self.checkpoint_dir is not None:
            reopened = CheckpointStore.open(
                self.checkpoint_dir, keep=self.policy.keep_checkpoints
            )
            corrupt = list(reopened.corrupt)
            ckpt = reopened.latest()
        else:
            ckpt = store.latest()
        timeline.append({
            "event": "restore",
            "to_step": ckpt.step if ckpt is not None else 0,
            "source": "disk" if self.checkpoint_dir is not None
            else "memory",
            "corrupt_skipped": [Path(p).name for p in corrupt],
        })
        return ckpt

    @staticmethod
    def _rewind(ckpt, residuals, step_backends, completed) -> int:
        """Drop committed state past the checkpoint; new completed count."""
        to_step = ckpt.step if ckpt is not None else 0
        for i in range(to_step, completed):
            residuals[i] = None
            step_backends[i] = None
        return to_step

    def _verify(
        self, run_single, pressures, ckpt, mode, ref_backend,
        current_backend, timeline,
    ) -> None:
        """Prove the (re)built driver reproduces the checkpointed step.

        ``mode="bit"`` (same backend after a restore) requires exact
        bit identity; ``mode="tolerance"`` (after a ladder fallback)
        allows the recorded-vs-replayed fold-class tolerance.  A failed
        verification is *not* recoverable — the run's provenance is
        broken — so it goes straight to give-up.
        """
        from repro.conform.tolerance import default_tolerance
        from repro.obs.replay import digest_array

        expected = np.asarray(ckpt.pressure)
        actual = np.asarray(run_single(pressures[ckpt.step - 1]))
        if mode == "bit":
            ok = digest_array(expected) == digest_array(actual)
            rule = "bit-exact"
        else:
            tol = default_tolerance(ref_backend, current_backend)
            ok = not bool(tol.failures(expected, actual).any())
            rule = tol.describe()
        timeline.append({
            "event": "replay_verify", "step": ckpt.step, "mode": mode,
            "rule": rule, "backend": current_backend,
            "reference_backend": ref_backend, "ok": bool(ok),
        })
        if not ok:
            raise SupervisorGiveUp(
                f"replay verification failed at step {ckpt.step}: "
                f"{current_backend} does not reproduce {ref_backend} "
                f"under {rule}",
                timeline=timeline,
            )

    # ------------------------------------------------------------------ #
    def _give_up(
        self, exc, timeline, pressures, residuals, step_backends,
        completed, chain, policy,
    ) -> None:
        """Emit post-mortem artifacts, then raise :class:`SupervisorGiveUp`."""
        timeline.append({
            "event": "give_up", "backend": chain[-1], "step": completed,
            "error": type(exc).__name__, "backend_chain": list(chain),
        })
        bundle_path = None
        timeline_path = None
        if self.postmortem_dir is not None:
            self.postmortem_dir.mkdir(parents=True, exist_ok=True)
            if completed >= 1:
                from repro.obs.replay import ReplayRecorder

                meta = {
                    "backend": chain[-1],
                    "backend_config": {
                        "px": self.px, "py": self.py,
                        "workers": self.workers, "variant": None,
                    },
                    "mesh": dict(self.mesh_meta),
                    "dtype": self.dtype.name,
                    "pressure_seed": None,
                    "fault_plan": (
                        self.plan.to_dict() if self.plan is not None
                        else None
                    ),
                    "supervisor": {
                        "policy": policy.to_dict(),
                        "backend_chain": list(chain),
                        "committed_steps": completed,
                        "failure": type(exc).__name__,
                    },
                }
                recorder = ReplayRecorder(meta, snapshot_every=1)
                for i in range(completed):
                    recorder.record_step(pressures[i], residuals[i])
                artifact = recorder.finalize()
                bundle_path = artifact.save(
                    self.postmortem_dir / "supervisor-postmortem.rpz"
                )
            timeline_path = write_stable_json(
                self.postmortem_dir / "supervisor-timeline.json",
                {"timeline": timeline},
            )
        raise SupervisorGiveUp(
            f"supervision exhausted after {completed} committed step(s) "
            f"on chain {' -> '.join(chain)}: {exc}",
            timeline=timeline,
            cause=exc,
            postmortem_bundle=bundle_path,
            postmortem_timeline=timeline_path,
        ) from exc
