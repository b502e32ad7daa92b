"""Chaos harness: run the backends under a fault plan, end to end.

:func:`run_chaos` takes a :class:`~repro.faults.plan.FaultPlan` (or
builds the canonical seeded one), derives one *scenario* per fault
group, and reports for each whether the fault was actually injected,
whether the stack **detected** it (structured error or cross-check
mismatch), and whether the recovery mechanism **recovered** from it:

- dead PEs      -> exactly-once delivery verification detects them; a
                   :class:`~repro.dataflow.mapping.SpareColumnRemap`
                   recovers bit-identically (CS-2 yield handling);
- drop links    -> missing neighbour columns at verification;
- corrupt links -> silent data corruption, caught by cross-checking the
                   residual against a healthy run;
- delay links   -> packets late, caught as extra device cycles;
- router stalls -> the progress watchdog raises
                   :class:`~repro.faults.errors.FabricStallError`;
- rank failures -> halo re-exchange with retry/backoff recovers the
                   lost strips and the residual still matches the
                   reference kernel;
- plus a checkpoint/restart drill: the implicit solver is killed
  mid-campaign and must resume bit-identically from its last
  checkpoint.

Backends (dataflow/cluster/solver) are imported lazily inside
:func:`run_chaos`, so ``repro.faults`` stays importable from the runtime
layers without cycles.  ``repro chaos`` is the CLI front end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.faults.errors import FabricStallError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFault

__all__ = ["FaultOutcome", "ChaosReport", "SCENARIOS", "run_chaos"]

#: Every scenario :func:`run_chaos` can grow, with a one-line intent
#: (``repro chaos --list`` prints this; ``--only`` validates against it).
#: Whether a given run actually *grows* a scenario still depends on the
#: plan contents and the ``include_*`` switches.
SCENARIOS = {
    "dead-pe/detect": (
        "dead PE breaks exactly-once delivery; verification must flag it"
    ),
    "dead-pe/remap": (
        "spare-column remap routes around dead PEs bit-identically"
    ),
    "link-drop/detect": (
        "dropped packets leave missing neighbour columns at verification"
    ),
    "link-corrupt/cross-check": (
        "silent payload corruption caught by residual cross-check"
    ),
    "link-delay/detect": (
        "delayed packets surface as extra device cycles (or a stall)"
    ),
    "router-stall/watchdog": (
        "stalled router must trip the progress watchdog"
    ),
    "rank-failure/re-exchange": (
        "transient rank failure healed by halo re-exchange with retry"
    ),
    "par/worker-kill/detect": (
        "killed worker process detected by pool exit-code reaping"
    ),
    "par/worker-kill/respawn": (
        "killed worker respawned; residual bit-identical to serial run"
    ),
    "par/worker-hang/lease": (
        "hung (SIGSTOP) worker caught by heartbeat lease; supervisor "
        "restarts bit-identically"
    ),
    "solver/checkpoint-restart": (
        "solver killed mid-campaign resumes bit-identically from its "
        "checkpoint"
    ),
    "checkpoint/corruption": (
        "bit-flipped checkpoint rejected by checksum; store falls back "
        "to the previous intact one"
    ),
    "supervisor/transient-repeat": (
        "repeated transient faults absorbed by bounded-loss restarts"
    ),
    "supervisor/crash-during-recovery": (
        "second fault during replay-verify still recovered within the "
        "retry budget"
    ),
    "supervisor/degrade-ladder": (
        "persistently failing backend degrades down the ladder, "
        "conformance-verified"
    ),
}


@dataclass
class FaultOutcome:
    """One chaos scenario: what was injected and what the stack did."""

    scenario: str
    fault: str
    injected: bool
    detected: bool
    recovered: bool
    benign: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        """An injected fault must be detected, recovered from, or proven
        benign (it fired but demonstrably did not alter the result —
        e.g. a bit flip in an upwind-unused payload word)."""
        return self.injected and (self.detected or self.recovered or self.benign)

    @property
    def status(self) -> str:
        if not self.injected:
            return "NOT INJECTED"
        if self.recovered:
            return "RECOVERED"
        if self.detected:
            return "DETECTED"
        if self.benign:
            return "BENIGN"
        return "MISSED"

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "fault": self.fault,
            "injected": self.injected,
            "detected": self.detected,
            "recovered": self.recovered,
            "benign": self.benign,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass
class ChaosReport:
    """Every scenario outcome of one chaos run."""

    seed: int
    fabric_shape: tuple[int, int]
    ranks: int
    plan: FaultPlan
    outcomes: list[FaultOutcome] = field(default_factory=list)
    #: Replay bundle recorded when any scenario failed (see
    #: :func:`run_chaos`'s ``postmortem_dir``); None when all passed.
    postmortem_path: str | None = None

    @property
    def ok(self) -> bool:
        """All scenarios injected their fault and it was caught."""
        return bool(self.outcomes) and all(o.ok for o in self.outcomes)

    @property
    def failed(self) -> list[FaultOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "fabric_shape": list(self.fabric_shape),
            "ranks": self.ranks,
            "plan": self.plan.to_dict(),
            "outcomes": [o.as_dict() for o in self.outcomes],
            "ok": self.ok,
            "postmortem_path": self.postmortem_path,
        }

    def render(self) -> str:
        from repro.util.reporting import Table

        width, height = self.fabric_shape
        lines = [
            f"chaos run: seed {self.seed}, fabric {width}x{height}, "
            f"{self.ranks} rank(s)",
            "injected plan:",
        ]
        lines += [f"  - {line}" for line in self.plan.describe()]
        table = Table(
            "Fault scenarios",
            ["Scenario", "Fault", "Status", "Detail"],
        )
        for o in self.outcomes:
            table.add_row([o.scenario, o.fault, o.status, o.detail])
        lines += ["", table.render()]
        caught = sum(o.ok for o in self.outcomes)
        verdict = "CHAOS PASSED" if self.ok else "CHAOS FAILED"
        postmortem = (
            f" (post-mortem replay bundle: {self.postmortem_path})"
            if self.postmortem_path
            else ""
        )
        lines.append(
            f"{verdict}: {caught}/{len(self.outcomes)} fault scenarios "
            f"detected or recovered{postmortem}"
        )
        return "\n".join(lines)


def _first_line(exc: BaseException) -> str:
    return str(exc).splitlines()[0]


def run_chaos(
    plan: FaultPlan | None = None,
    *,
    nx: int = 4,
    ny: int = 4,
    nz: int = 3,
    seed: int = 7,
    px: int = 2,
    py: int = 2,
    watchdog_cycles: float = 20_000.0,
    steps: int = 4,
    dt: float = 3600.0,
    include_corruption: bool = True,
    include_checkpoint_drill: bool = True,
    include_par_drill: bool = True,
    include_supervisor_drills: bool = True,
    only=None,
    postmortem_dir: str | None = None,
) -> ChaosReport:
    """Run every backend under *plan* and report per-fault outcomes.

    With ``plan=None`` the canonical seeded plan for the ``nx x ny``
    fabric and ``px x py`` rank grid is used (1 dead PE, 1 lossy link,
    1 transient rank failure).  The same seed always reproduces the
    same plan, scenarios, and outcomes.

    ``only`` restricts the run to the named scenarios (any iterable of
    :data:`SCENARIOS` keys); unknown names raise ``ValueError`` listing
    the valid set.  The ``include_*`` switches still apply on top.

    With ``postmortem_dir`` set, any failed scenario (MISSED or NOT
    INJECTED) records a replay artifact there — the healthy reference
    run's per-step digests plus the offending plan and the failed
    outcomes under the ``postmortem`` meta key — so the failure can be
    reproduced and bisected offline (``repro conform`` reads it).
    """
    from repro.cluster.flux import ClusterFluxComputation
    from repro.core import (
        CartesianMesh3D,
        FluidProperties,
        Transmissibility,
        compute_flux_residual,
        random_pressure,
    )
    from repro.dataflow import SpareColumnRemap, WseFluxComputation

    if only is not None:
        only = tuple(only)
        unknown = sorted(set(only) - set(SCENARIOS))
        if unknown:
            raise ValueError(
                "unknown chaos scenario(s) "
                + ", ".join(repr(u) for u in unknown)
                + "; valid: " + ", ".join(sorted(SCENARIOS))
            )
    wanted = None if only is None else set(only)

    def want(name: str) -> bool:
        return wanted is None or name in wanted

    if plan is None:
        plan = FaultPlan.seeded(seed, fabric_shape=(nx, ny), ranks=px * py)
    report = ChaosReport(
        seed=plan.seed, fabric_shape=(nx, ny), ranks=px * py, plan=plan
    )

    mesh = CartesianMesh3D(nx, ny, nz)
    fluid = FluidProperties()
    trans = Transmissibility(mesh)
    pressure = random_pressure(mesh, seed=plan.seed)

    def wse(**kwargs):
        return WseFluxComputation(
            mesh, fluid, trans, dtype=np.float64,
            watchdog_cycles=watchdog_cycles, **kwargs,
        )

    healthy = wse().run_single(pressure)
    healthy_bytes = healthy.residual.tobytes()

    # ---------------------------------------------------------------- #
    # Dead PEs: detection (missing deliveries), then spare-column
    # recovery with a bit-identity check against the healthy fabric.
    # ---------------------------------------------------------------- #
    if plan.dead_pes and (want("dead-pe/detect") or want("dead-pe/remap")):
        label = ", ".join(str(d.coord) for d in plan.dead_pes)
        sub = FaultPlan(seed=plan.seed, dead_pes=plan.dead_pes)
    if plan.dead_pes and want("dead-pe/detect"):
        injector = FaultInjector(sub)
        try:
            wse(faults=injector).run_single(pressure)
            detected, detail = False, "run completed without any error"
        except RuntimeError as exc:
            detected, detail = True, _first_line(exc)
        report.outcomes.append(
            FaultOutcome(
                scenario="dead-pe/detect",
                fault=f"dead PE {label}",
                injected=injector.stats.fabric_events > 0,
                detected=detected,
                recovered=False,
                detail=detail,
            )
        )

    if plan.dead_pes and want("dead-pe/remap"):
        try:
            remap = SpareColumnRemap.around_dead_pes(
                (nx, ny), [d.coord for d in plan.dead_pes]
            )
            injector = FaultInjector(sub)
            result = wse(faults=injector, remap=remap).run_single(pressure)
            recovered = result.residual.tobytes() == healthy_bytes
            detail = (
                "spare column(s) "
                f"{sorted(remap.bypassed_columns)} bypassed; residual "
                + ("bit-identical to healthy fabric" if recovered else "DIFFERS")
            )
        except RuntimeError as exc:
            recovered, detail = False, _first_line(exc)
        report.outcomes.append(
            FaultOutcome(
                scenario="dead-pe/remap",
                fault=f"dead PE {label}",
                injected=True,
                detected=False,
                recovered=recovered,
                detail=detail,
            )
        )

    # ---------------------------------------------------------------- #
    # Link faults, one scenario per mode present in the plan.
    # ---------------------------------------------------------------- #
    drops = tuple(lf for lf in plan.link_faults if lf.mode == "drop")
    delays = tuple(lf for lf in plan.link_faults if lf.mode == "delay")
    corrupts = tuple(lf for lf in plan.link_faults if lf.mode == "corrupt")
    if include_corruption and drops and not corrupts:
        # derive a silent-corruption twin of the first lossy link so the
        # cross-check path is exercised even by pure-drop seeded plans
        lf = drops[0]
        corrupts = (LinkFault(lf.x, lf.y, lf.port, mode="corrupt"),)

    def link_label(faults) -> str:
        return ", ".join(f"{lf.coord}->{lf.port.name}" for lf in faults)

    if drops and want("link-drop/detect"):
        injector = FaultInjector(FaultPlan(seed=plan.seed, link_faults=drops))
        try:
            wse(faults=injector).run_single(pressure)
            detected, detail = False, "run completed without any error"
        except RuntimeError as exc:
            detected, detail = True, _first_line(exc)
        report.outcomes.append(
            FaultOutcome(
                scenario="link-drop/detect",
                fault=f"drop link {link_label(drops)}",
                injected=injector.stats.packets_dropped > 0,
                detected=detected,
                recovered=False,
                detail=f"{injector.stats.packets_dropped} packet(s) dropped; {detail}",
            )
        )

    if corrupts and want("link-corrupt/cross-check"):
        injector = FaultInjector(FaultPlan(seed=plan.seed, link_faults=corrupts))
        benign = False
        try:
            result = wse(faults=injector).run_single(pressure)
            differs = result.residual.tobytes() != healthy_bytes
            deviation = float(np.abs(result.residual - healthy.residual).max())
            detected = differs and injector.stats.packets_corrupted > 0
            detail = (
                f"{injector.stats.packets_corrupted} packet(s) corrupted; "
                f"residual cross-check deviation {deviation:.3e}"
            )
            if not differs:
                # the flipped bits landed in words the receivers never
                # read (e.g. upwind-unused densities): zero effect
                benign = True
                detail += " (absorbed: flipped words unused downstream)"
        except RuntimeError as exc:
            # a corrupted control word can also break the protocol outright
            detected, detail = True, _first_line(exc)
        report.outcomes.append(
            FaultOutcome(
                scenario="link-corrupt/cross-check",
                fault=f"corrupt link {link_label(corrupts)}",
                injected=injector.stats.packets_corrupted > 0,
                detected=detected,
                recovered=False,
                benign=benign,
                detail=detail,
            )
        )

    if delays and want("link-delay/detect"):
        injector = FaultInjector(FaultPlan(seed=plan.seed, link_faults=delays))
        benign = False
        try:
            result = wse(faults=injector).run_single(pressure)
            slowdown = result.device_cycles - healthy.device_cycles
            detected = injector.stats.packets_delayed > 0 and slowdown > 0
            detail = (
                f"{injector.stats.packets_delayed} packet(s) delayed; "
                f"+{slowdown:g} device cycles vs healthy"
            )
            if not detected and result.residual.tobytes() == healthy_bytes:
                # delays off the critical path are absorbed by overlap
                benign = True
                detail += " (absorbed by fabric slack)"
        except FabricStallError as exc:
            detected, detail = True, _first_line(exc)
        report.outcomes.append(
            FaultOutcome(
                scenario="link-delay/detect",
                fault=f"delay link {link_label(delays)}",
                injected=injector.stats.packets_delayed > 0,
                detected=detected,
                recovered=False,
                benign=benign,
                detail=detail,
            )
        )

    # ---------------------------------------------------------------- #
    # Router stalls: the progress watchdog must fire with a stall report.
    # ---------------------------------------------------------------- #
    if plan.router_stalls and want("router-stall/watchdog"):
        label = ", ".join(str(st.coord) for st in plan.router_stalls)
        injector = FaultInjector(
            FaultPlan(seed=plan.seed, router_stalls=plan.router_stalls)
        )
        try:
            wse(faults=injector).run_single(pressure)
            detected, detail = False, "watchdog never fired"
        except FabricStallError as exc:
            in_flight = len(exc.report.get("in_flight", ()))
            detected = True
            detail = f"{_first_line(exc)} ({in_flight} in-flight sampled)"
        except RuntimeError as exc:
            detected, detail = True, _first_line(exc)
        report.outcomes.append(
            FaultOutcome(
                scenario="router-stall/watchdog",
                fault=f"stalled router {label}",
                injected=injector.stats.hops_stalled > 0,
                detected=detected,
                recovered=False,
                detail=detail,
            )
        )

    # ---------------------------------------------------------------- #
    # Transient rank failures: halo re-exchange with retry must recover
    # and the residual must still match the reference kernel.
    # ---------------------------------------------------------------- #
    if plan.rank_failures and want("rank-failure/re-exchange"):
        label = ", ".join(str(rf.rank) for rf in plan.rank_failures)
        reference = compute_flux_residual(mesh, fluid, pressure, trans)
        injector = FaultInjector(plan.only_ranks())
        try:
            cluster = ClusterFluxComputation(
                mesh, fluid, px=px, py=py, faults=injector
            )
            result = cluster.run([pressure])
            recovered = bool(np.array_equal(result.residual, reference))
            detected = result.retransmissions > 0
            detail = (
                f"{injector.stats.sends_dropped} send(s) dropped, "
                f"{result.retransmissions} retransmission(s) in "
                f"{result.recovery_seconds * 1e6:.1f} us; residual "
                + ("matches reference" if recovered else "DIFFERS")
            )
        except RuntimeError as exc:
            detected, recovered, detail = True, False, _first_line(exc)
        report.outcomes.append(
            FaultOutcome(
                scenario="rank-failure/re-exchange",
                fault=f"transient failure of rank(s) {label}",
                injected=injector.stats.sends_dropped > 0,
                detected=detected,
                recovered=recovered,
                detail=detail,
            )
        )

    # ---------------------------------------------------------------- #
    # Multiprocess worker kill: the same rank failures, but the plan
    # now terminates a *real* worker process (os._exit) — the pool must
    # detect the death and, with respawn on, recover bit-identically.
    # ---------------------------------------------------------------- #
    par_scenarios_wanted = (
        want("par/worker-kill/detect")
        or want("par/worker-kill/respawn")
        or want("par/worker-hang/lease")
    )
    if include_par_drill and plan.rank_failures and par_scenarios_wanted:
        from repro.faults.errors import WorkerCrashError
        from repro.par.flux import ParClusterFluxComputation
        from repro.par.worker import KILL_EXIT_CODE

        label = ", ".join(str(rf.rank) for rf in plan.rank_failures)
        rank_plan = plan.only_ranks()
        # enough applications to reach the latest failure window
        par_apps = max(rf.exchange for rf in rank_plan.rank_failures) + 1
        par_pressures = [
            random_pressure(mesh, seed=plan.seed + i) for i in range(par_apps)
        ]
        serial_ref = ClusterFluxComputation(mesh, fluid, px=px, py=py).run(
            list(par_pressures)
        )

    if (
        include_par_drill and plan.rank_failures
        and want("par/worker-kill/detect")
    ):
        try:
            with ParClusterFluxComputation(
                mesh, fluid, px=px, py=py, workers=px * py,
                plan=rank_plan, respawn=False, record_spans=False,
            ) as par:
                par.run(list(par_pressures))
            detected, injected, detail = False, False, (
                "run completed without any worker death"
            )
        except WorkerCrashError as exc:
            detected = True
            injected = any(code == KILL_EXIT_CODE for _, _, code, _ in exc.crashed)
            # summarize without the OS pid so seeded reports stay
            # byte-identical across runs
            detail = "; ".join(
                f"worker {idx} died (exit {code}, ranks {list(ranks)})"
                for idx, _pid, code, ranks in exc.crashed
            )
        report.outcomes.append(
            FaultOutcome(
                scenario="par/worker-kill/detect",
                fault=f"killed worker process of rank(s) {label}",
                injected=injected,
                detected=detected,
                recovered=False,
                detail=detail,
            )
        )

    if (
        include_par_drill and plan.rank_failures
        and want("par/worker-kill/respawn")
    ):
        try:
            with ParClusterFluxComputation(
                mesh, fluid, px=px, py=py, workers=px * py,
                plan=rank_plan, respawn=True, record_spans=False,
            ) as par:
                result = par.run(list(par_pressures))
            recovered = bool(
                np.array_equal(result.residual, serial_ref.residual)
            )
            injected = result.respawns > 0
            detail = (
                f"{result.respawns} respawn(s); residual "
                + ("bit-identical to serial cluster backend"
                   if recovered else "DIFFERS")
            )
        except RuntimeError as exc:
            injected, recovered, detail = True, False, _first_line(exc)
        report.outcomes.append(
            FaultOutcome(
                scenario="par/worker-kill/respawn",
                fault=f"killed worker process of rank(s) {label}",
                injected=injected,
                detected=injected,
                recovered=recovered,
                detail=detail,
            )
        )

    # ---------------------------------------------------------------- #
    # Hung worker: the planned rank failure now SIGSTOPs its process
    # instead of exiting — only the heartbeat lease can see it.  The
    # supervisor must detect the expired lease, kill/restart the pool,
    # and resume bit-identically from its checkpoint.
    # ---------------------------------------------------------------- #
    if (
        include_par_drill and plan.rank_failures
        and want("par/worker-hang/lease")
    ):
        from repro.resilience import ResiliencePolicy, RunSupervisor

        hang_policy = ResiliencePolicy(
            max_restarts=1, backoff_base=0.0, backoff_jitter=0.0,
            seed=plan.seed, checkpoint_every=1, lease_seconds=0.75,
        )
        sup = RunSupervisor(
            mesh, fluid, policy=hang_policy, backend="par",
            px=px, py=py, workers=px * py, plan=rank_plan,
            failure_mode="hang",
        )
        try:
            res = sup.run(list(par_pressures))
            lease_hits = sum(
                e.get("error") == "WorkerLeaseExpiredError"
                for e in res.timeline if e["event"] == "failure"
            )
            detected = lease_hits > 0
            recovered = detected and bool(
                np.array_equal(res.residual, serial_ref.residual)
            )
            detail = (
                f"{lease_hits} lease expiry(ies), {res.restarts} "
                "restart(s); residual "
                + ("bit-identical to serial cluster backend"
                   if recovered else "DIFFERS")
            )
        except RuntimeError as exc:
            detected, recovered, detail = True, False, _first_line(exc)
        report.outcomes.append(
            FaultOutcome(
                scenario="par/worker-hang/lease",
                fault=f"hung (SIGSTOP) worker process of rank(s) {label}",
                injected=detected,
                detected=detected,
                recovered=recovered,
                detail=detail,
            )
        )

    # ---------------------------------------------------------------- #
    # Checkpoint/restart drill: kill the implicit solver mid-campaign,
    # resume from its last checkpoint, demand a bit-identical trajectory.
    # ---------------------------------------------------------------- #
    if (
        include_checkpoint_drill and steps >= 2
        and want("solver/checkpoint-restart")
    ):
        from repro.solver import CheckpointStore, SinglePhaseFlowSimulator, Well

        def make_sim():
            return SinglePhaseFlowSimulator(
                mesh, fluid, trans=trans,
                wells=[Well(nx // 2, ny // 2, nz // 2, rate=0.5)],
            )

        crash_at = steps // 2
        reference_sim = make_sim()
        reference_sim.run(steps, dt)
        store = CheckpointStore(keep=2)
        victim = make_sim()
        victim.run(crash_at, dt, checkpoint_store=store)
        del victim  # the "crash": the process state is gone
        resumed = make_sim()
        resumed.restore(store.latest())
        resumed.run(steps - crash_at, dt)
        recovered = (
            resumed.pressure.tobytes() == reference_sim.pressure.tobytes()
            and resumed.time == reference_sim.time
            and resumed.steps_completed == reference_sim.steps_completed
        )
        report.outcomes.append(
            FaultOutcome(
                scenario="solver/checkpoint-restart",
                fault=f"simulated crash after step {crash_at}/{steps}",
                injected=True,
                detected=True,
                recovered=recovered,
                detail=(
                    f"resumed from checkpoint at step {crash_at}; "
                    + (
                        "trajectory bit-identical to uninterrupted run"
                        if recovered
                        else "trajectory DIFFERS from uninterrupted run"
                    )
                ),
            )
        )

    # ---------------------------------------------------------------- #
    # Checkpoint corruption: bit-flip the newest on-disk checkpoint; the
    # checksum must reject it and the store must fall back to the
    # previous intact file with the exact state it saved.
    # ---------------------------------------------------------------- #
    if include_checkpoint_drill and want("checkpoint/corruption"):
        import tempfile

        from repro.faults.errors import CheckpointCorruptError
        from repro.solver import Checkpoint, CheckpointStore

        intact = random_pressure(mesh, seed=plan.seed + 31)
        newest = random_pressure(mesh, seed=plan.seed + 32)
        with tempfile.TemporaryDirectory() as tmp:
            disk = CheckpointStore(tmp, keep=2)
            disk.save(Checkpoint(step=1, time=1.0, pressure=intact))
            disk.save(Checkpoint(step=2, time=2.0, pressure=newest))
            target = sorted(Path(tmp).glob("checkpoint_*.npz"))[-1]
            blob = bytearray(target.read_bytes())
            # flip inside the pressure entry's payload (always
            # integrity-covered; zip local-header slack is not)
            blob[blob.index(b"pressure.npy") + 150] ^= 0x40
            target.write_bytes(bytes(blob))
            try:
                Checkpoint.load(target)
                detected, reason = False, "corrupt checkpoint loaded silently"
            except CheckpointCorruptError as exc:
                # category only: the mismatch digests would be
                # content-dependent noise in the seeded report
                detected, reason = True, exc.reason.split(" (")[0]
            survivors = CheckpointStore.open(tmp, keep=2)
            latest = survivors.latest()
            recovered = (
                detected
                and len(survivors.corrupt) == 1
                and latest is not None
                and latest.step == 1
                and np.array_equal(
                    np.asarray(latest.pressure),
                    np.asarray(intact, dtype=np.float64),
                )
            )
        report.outcomes.append(
            FaultOutcome(
                scenario="checkpoint/corruption",
                fault="bit flip in newest on-disk checkpoint",
                injected=True,
                detected=detected,
                recovered=recovered,
                detail=(
                    f"load rejected ({reason}); store "
                    + ("quarantined 1 corrupt file and fell back to the "
                       "intact checkpoint at step 1, state bit-identical"
                       if recovered else "FAILED to fall back intact")
                ),
            )
        )

    # ---------------------------------------------------------------- #
    # Supervisor drills: compound faults against the resilience layer —
    # repeated transients, a crash during recovery itself, and a
    # persistent backend failure that must degrade down the ladder.
    # ---------------------------------------------------------------- #
    if include_supervisor_drills and (
        want("supervisor/transient-repeat")
        or want("supervisor/crash-during-recovery")
    ):
        from repro.faults.errors import CommTimeoutError
        from repro.obs.replay import digest_array
        from repro.resilience import ResiliencePolicy, RunSupervisor

        sup_pressures = [
            random_pressure(mesh, seed=plan.seed + 10 + i) for i in range(3)
        ]
        sup_reference = [
            digest_array(wse().run_single(p).residual) for p in sup_pressures
        ]
        sup_policy = ResiliencePolicy(
            max_restarts=2, backoff_base=0.0, backoff_jitter=0.0,
            seed=plan.seed, checkpoint_every=1,
        )

        def flaky_event_factory(fail_calls):
            calls = {"n": 0}

            def factory(backend, attempt):
                drv = wse()

                def run_single(p):
                    calls["n"] += 1
                    if calls["n"] in fail_calls:
                        raise CommTimeoutError(
                            0, 1, calls["n"], 3,
                            policy={"attempts": 3},
                        )
                    return drv.run_single(p).residual

                return run_single, (lambda: None)

            return factory

        def supervisor_drill(scenario, fault, fail_calls):
            sup = RunSupervisor(
                mesh, fluid, policy=sup_policy, backend="event",
                driver_factory=flaky_event_factory(fail_calls),
            )
            try:
                res = sup.run(list(sup_pressures))
                failures = sum(
                    e["event"] == "failure" for e in res.timeline
                )
                detected = failures == len(fail_calls)
                recovered = detected and all(
                    s["residual_sha256"] == ref
                    for s, ref in zip(res.steps, sup_reference)
                )
                detail = (
                    f"{failures} injected timeout(s), {res.restarts} "
                    f"restart(s), {res.restores} restore(s); "
                    + ("all 3 residual digests bit-identical to the "
                       "uninterrupted run" if recovered
                       else "residual digests DIFFER")
                )
            except RuntimeError as exc:
                detected, recovered, detail = True, False, _first_line(exc)
            report.outcomes.append(
                FaultOutcome(
                    scenario=scenario,
                    fault=fault,
                    injected=True,
                    detected=detected,
                    recovered=recovered,
                    detail=detail,
                )
            )

        if want("supervisor/transient-repeat"):
            # both fault-free attempts at application 1 die: two full
            # detect -> backoff -> restore -> replay-verify cycles
            supervisor_drill(
                "supervisor/transient-repeat",
                "comm timeout on applications 1 of attempts 0 and 1",
                fail_calls={2, 4},
            )
        if want("supervisor/crash-during-recovery"):
            # the second fault lands on the restart's replay-verify of
            # the checkpointed application — recovery itself crashes
            supervisor_drill(
                "supervisor/crash-during-recovery",
                "comm timeout at application 1, again during replay-verify",
                fail_calls={2, 3},
            )

    if include_supervisor_drills and want("supervisor/degrade-ladder"):
        from repro.dataflow.lockstep import LockstepWseSimulation
        from repro.faults.errors import CommTimeoutError
        from repro.gpu.reference import GpuFluxComputation
        from repro.resilience import ResiliencePolicy, RunSupervisor

        ladder_pressures = [
            random_pressure(mesh, seed=plan.seed + 20 + i) for i in range(3)
        ]
        lockstep_ref = LockstepWseSimulation(
            mesh, fluid, dtype=np.float64
        ).run([ladder_pressures[-1]]).residual
        gpu_calls = {"n": 0}

        def ladder_factory(backend, attempt):
            if backend == "gpu":
                drv = GpuFluxComputation(mesh, fluid, dtype=np.float64)

                def run_single(p):
                    gpu_calls["n"] += 1
                    if gpu_calls["n"] >= 2:
                        # persistent failure: every call after the first
                        # committed application dies
                        raise CommTimeoutError(0, 1, 9, 1)
                    return drv.run_single(p).residual

                return run_single, (lambda: None)
            drv = LockstepWseSimulation(mesh, fluid, dtype=np.float64)
            return (lambda p: drv.run([p]).residual), (lambda: None)

        sup = RunSupervisor(
            mesh, fluid, backend="gpu",
            policy=ResiliencePolicy(
                max_restarts=1, backoff_base=0.0, backoff_jitter=0.0,
                seed=plan.seed, checkpoint_every=1,
                ladder=("gpu", "lockstep"),
            ),
            driver_factory=ladder_factory,
        )
        try:
            res = sup.run(list(ladder_pressures))
            verified = any(
                e["event"] == "replay_verify"
                and e["mode"] == "tolerance" and e["ok"]
                for e in res.timeline
            )
            detected = res.backend_chain == ["gpu", "lockstep"]
            recovered = (
                detected and verified
                and bool(np.array_equal(res.residual, lockstep_ref))
            )
            detail = (
                f"chain {' -> '.join(res.backend_chain)} after "
                f"{res.restarts} restart(s); fallback "
                + ("conformance-verified against the gpu checkpoint; "
                   "finish bit-identical to a pure lockstep run"
                   if recovered else "FAILED verification")
            )
        except RuntimeError as exc:
            detected, recovered, detail = True, False, _first_line(exc)
        report.outcomes.append(
            FaultOutcome(
                scenario="supervisor/degrade-ladder",
                fault="persistent gpu-model failure after first application",
                injected=True,
                detected=detected,
                recovered=recovered,
                detail=detail,
            )
        )

    if postmortem_dir is not None and not report.ok:
        bundle = _record_postmortem(report, nx=nx, ny=ny, nz=nz, px=px, py=py)
        report.postmortem_path = str(
            bundle.save(
                Path(postmortem_dir)
                / f"chaos-seed{plan.seed}-postmortem.rpz"
            )
        )
    return report


def _record_postmortem(report: ChaosReport, *, nx, ny, nz, px, py):
    """Record the failure evidence bundle for a failed chaos run.

    The artifact captures the *healthy* reference run (so its digests
    are the ground truth any debugging replay diffs against) and carries
    the offending fault plan plus the failed outcomes under the
    ``postmortem`` meta key — deliberately NOT under ``fault_plan``, so
    a plain ``repro conform`` replay of the bundle runs clean and the
    investigator opts into re-injecting the plan explicitly.
    """
    from repro.conform.runner import record_run

    return record_run(
        "event",
        nx=nx, ny=ny, nz=nz,
        geomodel="plain",
        seed=report.plan.seed,
        applications=1,
        px=px, py=py,
        pressure_seed=report.plan.seed,
        extra_meta={
            "postmortem": {
                "plan": report.plan.to_dict(),
                "failed": [o.as_dict() for o in report.failed],
                "px": px,
                "py": py,
            }
        },
    )
