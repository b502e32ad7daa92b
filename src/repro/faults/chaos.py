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

Each scenario is one small function registered in a table with its
``--list`` intent line and the predicate that says whether a plan grows
it; all of them share one :class:`_Context` (the problem, the plan and
lazily computed healthy / serial reference runs) and build every driver
— the supervisor drills' flaky ones included — through
:data:`repro.backends.BACKENDS`, so the harness drills the programs
users run.  ``repro chaos`` is the CLI front end.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

import numpy as np

from repro.backends import get_backend, release
from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    compute_flux_residual,
    random_pressure,
)
from repro.dataflow.mapping import SpareColumnRemap
from repro.faults.errors import (
    CheckpointCorruptError,
    CommTimeoutError,
    FabricStallError,
    WorkerCrashError,
)
from repro.faults.plan import FaultPlan, LinkFault

__all__ = ["FaultOutcome", "ChaosReport", "SCENARIOS", "run_chaos"]


@dataclass
class FaultOutcome:
    """One chaos scenario: what was injected and what the stack did."""

    scenario: str
    fault: str
    #: a drill counts as injected until an injector counter says otherwise
    injected: bool = True
    detected: bool = False
    recovered: bool = False
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
        return {**asdict(self), "status": self.status}


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


@dataclass
class _Context:
    """What the scenarios of one run share: the problem, the plan and the
    reference runs, each computed by the first scenario that asks."""

    plan: FaultPlan
    mesh: CartesianMesh3D
    px: int
    py: int
    watchdog_cycles: float
    steps: int

    def __post_init__(self) -> None:
        self.fluid = FluidProperties()
        self.pressure = random_pressure(self.mesh, seed=self.plan.seed)

    def build(self, backend: str, plan: FaultPlan | None = None, **config):
        """A float64 driver from the backend table; the entry keeps the
        half of *plan* it can inject and the config keys it takes."""
        return get_backend(backend).build(
            self.mesh, self.fluid, dtype=np.float64, plan=plan,
            px=self.px, py=self.py, workers=self.px * self.py,
            watchdog_cycles=self.watchdog_cycles, **config,
        )

    def faulted(self, remap=None, **faults):
        """An event driver under a plan of only *faults* (laid out around
        *remap*'s bypassed columns), and its injector's counters."""
        plan = FaultPlan(seed=self.plan.seed, **faults)
        drv = self.build("event", plan, remap=remap)
        return drv, drv.faults.stats

    def pressures(self, count: int, offset: int) -> list:
        seed = self.plan.seed + offset
        return [random_pressure(self.mesh, seed=seed + i) for i in range(count)]

    def links(self, mode: str) -> tuple[LinkFault, ...]:
        return tuple(lf for lf in self.plan.link_faults if lf.mode == mode)

    @cached_property
    def corrupts(self) -> tuple[LinkFault, ...]:
        """The plan's corrupting links, or a silent-corruption twin of
        its first lossy link, so that pure-drop seeded plans exercise
        the cross-check path too."""
        corrupts, drops = self.links("corrupt"), self.links("drop")
        if drops and not corrupts:
            lf = drops[0]
            corrupts = (LinkFault(lf.x, lf.y, lf.port, mode="corrupt"),)
        return corrupts

    @cached_property
    def healthy(self):
        """The fault-free event run the fabric drills compare with."""
        return self.build("event").run([self.pressure])

    @cached_property
    def par_pressures(self) -> list:
        """Enough applications to reach the latest rank-failure window."""
        latest = max(rf.exchange for rf in self.plan.rank_failures)
        return self.pressures(latest + 1, 0)

    @cached_property
    def serial_ref(self):
        """The par drills' reference: the serial cluster backend."""
        return self.build("cluster").run(list(self.par_pressures))

    def supervise(
        self, backend, pressures, *, factory=None, failure_mode="exit", **policy
    ):
        """Run *pressures* on *backend* under a supervisor with a
        backoff-free, checkpoint-every-application policy."""
        from repro.resilience import ResiliencePolicy, RunSupervisor

        return RunSupervisor(
            self.mesh, self.fluid, backend=backend, plan=self.plan,
            px=self.px, py=self.py, workers=self.px * self.py,
            failure_mode=failure_mode, driver_factory=factory,
            policy=ResiliencePolicy(
                backoff_base=0.0, backoff_jitter=0.0, seed=self.plan.seed,
                checkpoint_every=1, **policy,
            ),
        ).run(list(pressures))


@contextmanager
def _caught(outcome, catch=RuntimeError, *, detected=True, line=_first_line):
    """The one ``try -> FaultOutcome`` step the scenarios share: a *catch*
    error inside the block ends the drill as detected (remap: as not
    recovered) with ``line(exc)``, the error's first line, as its detail."""
    try:
        yield
    except catch as exc:
        outcome.detected, outcome.detail = detected, line(exc)


def _label(items, attr: str) -> str:
    return ", ".join(str(getattr(item, attr)) for item in items)


def _link_label(faults) -> str:
    return ", ".join(f"{lf.coord}->{lf.port.name}" for lf in faults)


def _residual(same: bool, as_what: str) -> str:
    return "residual " + (as_what if same else "DIFFERS")


def _dead_pe_detect(ctx, name):
    dead = ctx.plan.dead_pes
    drv, stats = ctx.faulted(dead_pes=dead)
    out = FaultOutcome(name, f"dead PE {_label(dead, 'coord')}")
    with _caught(out):
        drv.run([ctx.pressure])
        out.detail = "run completed without any error"
    out.injected = stats.fabric_events > 0
    return out


def _dead_pe_remap(ctx, name):
    dead = ctx.plan.dead_pes
    out = FaultOutcome(name, f"dead PE {_label(dead, 'coord')}")
    with _caught(out, detected=False):
        remap = SpareColumnRemap.around_dead_pes(
            (ctx.mesh.nx, ctx.mesh.ny), [d.coord for d in dead]
        )
        drv, _ = ctx.faulted(remap, dead_pes=dead)
        result = drv.run([ctx.pressure])
        out.recovered = result.residual.tobytes() == ctx.healthy.residual.tobytes()
        out.detail = (
            f"spare column(s) {sorted(remap.bypassed_columns)} bypassed; "
            + _residual(out.recovered, "bit-identical to healthy fabric")
        )
    return out


def _link_drop(ctx, name):
    drops = ctx.links("drop")
    drv, stats = ctx.faulted(link_faults=drops)
    out = FaultOutcome(name, f"drop link {_link_label(drops)}")
    with _caught(out):
        drv.run([ctx.pressure])
        out.detail = "run completed without any error"
    out.injected = stats.packets_dropped > 0
    out.detail = f"{stats.packets_dropped} packet(s) dropped; {out.detail}"
    return out


def _link_corrupt(ctx, name):
    drv, stats = ctx.faulted(link_faults=ctx.corrupts)
    out = FaultOutcome(name, f"corrupt link {_link_label(ctx.corrupts)}")
    # a corrupted control word can also break the protocol outright
    with _caught(out):
        residual, healthy = drv.run([ctx.pressure]).residual, ctx.healthy.residual
        differs = residual.tobytes() != healthy.tobytes()
        out.detected = differs and stats.packets_corrupted > 0
        out.detail = (
            f"{stats.packets_corrupted} packet(s) corrupted; residual "
            f"cross-check deviation {float(np.abs(residual - healthy).max()):.3e}"
        )
        if not differs:
            # the flipped bits landed in words the receivers never read
            # (e.g. upwind-unused densities): zero effect
            out.benign = True
            out.detail += " (absorbed: flipped words unused downstream)"
    out.injected = stats.packets_corrupted > 0
    return out


def _link_delay(ctx, name):
    delays = ctx.links("delay")
    drv, stats = ctx.faulted(link_faults=delays)
    out = FaultOutcome(name, f"delay link {_link_label(delays)}")
    with _caught(out, FabricStallError):
        result = drv.run([ctx.pressure])
        slowdown = result.device_cycles - ctx.healthy.device_cycles
        out.detected = stats.packets_delayed > 0 and slowdown > 0
        out.detail = (
            f"{stats.packets_delayed} packet(s) delayed; "
            f"+{slowdown:g} device cycles vs healthy"
        )
        if not out.detected and (
            result.residual.tobytes() == ctx.healthy.residual.tobytes()
        ):
            # delays off the critical path are absorbed by overlap
            out.benign = True
            out.detail += " (absorbed by fabric slack)"
    out.injected = stats.packets_delayed > 0
    return out


def _router_stall(ctx, name):
    """The progress watchdog must fire, with a stall report."""
    stalls = ctx.plan.router_stalls
    drv, stats = ctx.faulted(router_stalls=stalls)

    def line(exc):
        if not isinstance(exc, FabricStallError):
            return _first_line(exc)
        in_flight = len(exc.report.get("in_flight", ()))
        return f"{_first_line(exc)} ({in_flight} in-flight sampled)"

    out = FaultOutcome(name, f"stalled router {_label(stalls, 'coord')}")
    with _caught(out, line=line):
        drv.run([ctx.pressure])
        out.detail = "watchdog never fired"
    out.injected = stats.hops_stalled > 0
    return out


def _rank_failure(ctx, name):
    """Halo re-exchange with retry must recover the lost strips, and the
    residual must still match the reference kernel."""
    ranks = _label(ctx.plan.rank_failures, "rank")
    reference = compute_flux_residual(ctx.mesh, ctx.fluid, ctx.pressure)
    drv = ctx.build("cluster", ctx.plan)
    stats = drv.faults.stats
    out = FaultOutcome(name, f"transient failure of rank(s) {ranks}")
    with _caught(out):
        result = drv.run([ctx.pressure])
        out.detected = result.retransmissions > 0
        out.recovered = bool(np.array_equal(result.residual, reference))
        out.detail = (
            f"{stats.sends_dropped} send(s) dropped, "
            f"{result.retransmissions} retransmission(s) in "
            f"{result.recovery_seconds * 1e6:.1f} us; "
            + _residual(out.recovered, "matches reference")
        )
    out.injected = stats.sends_dropped > 0
    return out


# -------------------------------------------------------------------- #
# Multiprocess workers: the same rank failures, but the plan now kills
# (os._exit) or hangs (SIGSTOP) a *real* worker process — the pool must
# detect it and the recovery must be bit-identical to the serial run.
# -------------------------------------------------------------------- #
_AS_SERIAL = "bit-identical to serial cluster backend"


def _run_par(ctx, *, respawn: bool):
    drv = ctx.build("par", ctx.plan, respawn=respawn)
    try:
        return drv.run(list(ctx.par_pressures))
    finally:
        release(drv)


def _par_outcome(ctx, scenario: str, how: str) -> FaultOutcome:
    ranks = _label(ctx.plan.rank_failures, "rank")
    return FaultOutcome(scenario, f"{how} worker process of rank(s) {ranks}")


def _par_kill_detect(ctx, name):
    from repro.par.worker import KILL_EXIT_CODE

    out = _par_outcome(ctx, name, "killed")
    try:
        _run_par(ctx, respawn=False)
        out.injected, out.detail = False, "run completed without any worker death"
    except WorkerCrashError as exc:
        out.detected = True
        out.injected = any(code == KILL_EXIT_CODE for _, _, code, _ in exc.crashed)
        # summarized without the OS pid so seeded reports stay
        # byte-identical across runs
        out.detail = "; ".join(
            f"worker {idx} died (exit {code}, ranks {list(ranks)})"
            for idx, _pid, code, ranks in exc.crashed
        )
    return out


def _par_kill_respawn(ctx, name):
    out = _par_outcome(ctx, name, "killed")
    with _caught(out):
        result = _run_par(ctx, respawn=True)
        out.injected = out.detected = result.respawns > 0
        out.recovered = bool(
            np.array_equal(result.residual, ctx.serial_ref.residual)
        )
        out.detail = (
            f"{result.respawns} respawn(s); " + _residual(out.recovered, _AS_SERIAL)
        )
    return out


def _par_hang_lease(ctx, name):
    """Only the heartbeat lease can see a stopped worker: the supervisor
    must detect the expired lease, kill/restart the pool, and resume
    bit-identically from its checkpoint."""
    out = _par_outcome(ctx, name, "hung (SIGSTOP)")
    with _caught(out):
        res = ctx.supervise(
            "par", ctx.par_pressures, failure_mode="hang",
            max_restarts=1, lease_seconds=0.75,
        )
        lease_hits = sum(
            e.get("error") == "WorkerLeaseExpiredError"
            for e in res.timeline if e["event"] == "failure"
        )
        out.injected = out.detected = lease_hits > 0
        out.recovered = out.detected and bool(
            np.array_equal(res.residual, ctx.serial_ref.residual)
        )
        out.detail = (
            f"{lease_hits} lease expiry(ies), {res.restarts} restart(s); "
            + _residual(out.recovered, _AS_SERIAL)
        )
    return out


#: Time step [s] of the solver checkpoint drill's implicit simulator.
_SOLVER_DT = 3600.0


def _solver_checkpoint_restart(ctx, name):
    from repro.solver import CheckpointStore, SinglePhaseFlowSimulator, Well

    def make_sim():
        mesh = ctx.mesh
        well = Well(mesh.nx // 2, mesh.ny // 2, mesh.nz // 2, rate=0.5)
        return SinglePhaseFlowSimulator(mesh, ctx.fluid, wells=[well])

    steps, crash_at = ctx.steps, ctx.steps // 2
    reference_sim = make_sim()
    reference_sim.run(steps, _SOLVER_DT)
    store = CheckpointStore(keep=2)
    victim = make_sim()
    victim.run(crash_at, _SOLVER_DT, checkpoint_store=store)
    del victim  # the "crash": the process state is gone
    resumed = make_sim()
    resumed.restore(store.latest())
    resumed.run(steps - crash_at, _SOLVER_DT)
    recovered = (
        resumed.pressure.tobytes() == reference_sim.pressure.tobytes()
        and resumed.time == reference_sim.time
        and resumed.steps_completed == reference_sim.steps_completed
    )
    return FaultOutcome(
        name, f"simulated crash after step {crash_at}/{steps}",
        detected=True, recovered=recovered,
        detail=f"resumed from checkpoint at step {crash_at}; trajectory "
        + ("bit-identical to" if recovered else "DIFFERS from")
        + " uninterrupted run",
    )


def _checkpoint_corruption(ctx, name):
    """The checksum must reject the flipped file and the store fall back
    to the previous intact one with the exact state it saved."""
    import tempfile

    from repro.solver import Checkpoint, CheckpointStore

    intact, newest = ctx.pressures(2, 31)
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
                np.asarray(latest.pressure), np.asarray(intact, dtype=np.float64)
            )
        )
    return FaultOutcome(
        name, "bit flip in newest on-disk checkpoint",
        detected=detected, recovered=recovered,
        detail=f"load rejected ({reason}); store "
        + ("quarantined 1 corrupt file and fell back to the "
           "intact checkpoint at step 1, state bit-identical"
           if recovered else "FAILED to fall back intact"),
    )


# -------------------------------------------------------------------- #
# Supervisor drills: compound faults against the resilience layer —
# repeated transients, a crash during recovery itself, and a persistent
# backend failure that must degrade down the ladder.
# -------------------------------------------------------------------- #
def _supervised(ctx, backend, pressures, fails, **policy):
    """Run *pressures* under a supervisor whose drivers, built from the
    backend table, fail on schedule: the *n*-th call (1-based, counted
    per backend across restarts) raises ``fails(backend, n)`` if that
    returns an error."""
    calls = Counter()

    def factory(backend, attempt):
        drv = ctx.build(backend)

        def run_single(p):
            calls[backend] += 1
            error = fails(backend, calls[backend])
            if error is not None:
                raise error
            return drv.run([p]).residual

        return run_single, (lambda: release(drv))

    return ctx.supervise(backend, pressures, factory=factory, **policy)


def _timeout_drill(ctx, name, *, fault, fail_calls) -> FaultOutcome:
    """Comm timeouts on the event calls *fail_calls*; the committed
    residuals must still digest as an uninterrupted run's."""
    from repro.obs.replay import digest_array

    pressures = ctx.pressures(3, 10)
    clean = ctx.build("event")
    reference = [digest_array(clean.run([p]).residual) for p in pressures]

    def fails(backend, n):
        if n in fail_calls:
            return CommTimeoutError(0, 1, n, 3, policy={"attempts": 3})

    out = FaultOutcome(name, fault)
    with _caught(out):
        res = _supervised(ctx, "event", pressures, fails, max_restarts=2)
        failures = sum(e["event"] == "failure" for e in res.timeline)
        out.detected = failures == len(fail_calls)
        out.recovered = out.detected and all(
            step["residual_sha256"] == ref for step, ref in zip(res.steps, reference)
        )
        out.detail = (
            f"{failures} injected timeout(s), {res.restarts} "
            f"restart(s), {res.restores} restore(s); "
            + ("all 3 residual digests bit-identical to the "
               "uninterrupted run" if out.recovered else "residual digests DIFFER")
        )
    return out


def _degrade_ladder(ctx, name):
    pressures = ctx.pressures(3, 20)
    lockstep_ref = ctx.build("lockstep").run([pressures[-1]]).residual

    def fails(backend, n):
        # persistent: every gpu call after the first committed application
        if backend == "gpu" and n >= 2:
            return CommTimeoutError(0, 1, 9, 1)

    out = FaultOutcome(name, "persistent gpu-model failure after first application")
    with _caught(out):
        res = _supervised(
            ctx, "gpu", pressures, fails, max_restarts=1, ladder=("gpu", "lockstep")
        )
        verified = any(
            e["event"] == "replay_verify" and e["mode"] == "tolerance" and e["ok"]
            for e in res.timeline
        )
        out.detected = res.backend_chain == ["gpu", "lockstep"]
        out.recovered = (
            out.detected and verified
            and bool(np.array_equal(res.residual, lockstep_ref))
        )
        out.detail = (
            f"chain {' -> '.join(res.backend_chain)} after "
            f"{res.restarts} restart(s); fallback "
            + ("conformance-verified against the gpu checkpoint; "
               "finish bit-identical to a pure lockstep run"
               if out.recovered else "FAILED verification")
        )
    return out


@dataclass(frozen=True)
class _Scenario:
    """One row of the scenario table."""

    #: the ``repro chaos --list`` line
    intent: str
    #: does this run (its plan, its ``steps``) grow the scenario at all?
    grows: Callable[[_Context], bool]
    #: ``run(ctx, name)``: the drill, told the name it is registered under
    run: Callable[[_Context, str], FaultOutcome]


def _plan_has(group: str):
    return lambda ctx: bool(getattr(ctx.plan, group))


def _always(ctx) -> bool:
    return True


#: name -> row, in report order.
_TABLE = {
    "dead-pe/detect": _Scenario(
        "dead PE breaks exactly-once delivery; verification must flag it",
        _plan_has("dead_pes"), _dead_pe_detect,
    ),
    "dead-pe/remap": _Scenario(
        "spare-column remap routes around dead PEs bit-identically",
        _plan_has("dead_pes"), _dead_pe_remap,
    ),
    "link-drop/detect": _Scenario(
        "dropped packets leave missing neighbour columns at verification",
        lambda ctx: bool(ctx.links("drop")), _link_drop,
    ),
    "link-corrupt/cross-check": _Scenario(
        "silent payload corruption caught by residual cross-check",
        lambda ctx: bool(ctx.corrupts), _link_corrupt,
    ),
    "link-delay/detect": _Scenario(
        "delayed packets surface as extra device cycles (or a stall)",
        lambda ctx: bool(ctx.links("delay")), _link_delay,
    ),
    "router-stall/watchdog": _Scenario(
        "stalled router must trip the progress watchdog",
        _plan_has("router_stalls"), _router_stall,
    ),
    "rank-failure/re-exchange": _Scenario(
        "transient rank failure healed by halo re-exchange with retry",
        _plan_has("rank_failures"), _rank_failure,
    ),
    "par/worker-kill/detect": _Scenario(
        "killed worker process detected by pool exit-code reaping",
        _plan_has("rank_failures"), _par_kill_detect,
    ),
    "par/worker-kill/respawn": _Scenario(
        "killed worker respawned; residual bit-identical to serial run",
        _plan_has("rank_failures"), _par_kill_respawn,
    ),
    "par/worker-hang/lease": _Scenario(
        "hung (SIGSTOP) worker caught by heartbeat lease; supervisor "
        "restarts bit-identically",
        _plan_has("rank_failures"), _par_hang_lease,
    ),
    "solver/checkpoint-restart": _Scenario(
        "solver killed mid-campaign resumes bit-identically from its "
        "checkpoint",
        lambda ctx: ctx.steps >= 2, _solver_checkpoint_restart,
    ),
    "checkpoint/corruption": _Scenario(
        "bit-flipped checkpoint rejected by checksum; store falls back "
        "to the previous intact one",
        _always, _checkpoint_corruption,
    ),
    "supervisor/transient-repeat": _Scenario(
        "repeated transient faults absorbed by bounded-loss restarts", _always,
        # both fault-free attempts at application 1 die: two full
        # detect -> backoff -> restore -> replay-verify cycles
        partial(
            _timeout_drill, fail_calls={2, 4},
            fault="comm timeout on applications 1 of attempts 0 and 1",
        ),
    ),
    "supervisor/crash-during-recovery": _Scenario(
        "second fault during replay-verify still recovered within the "
        "retry budget", _always,
        # the second fault lands on the restart's replay-verify of the
        # checkpointed application — recovery itself crashes
        partial(
            _timeout_drill, fail_calls={2, 3},
            fault="comm timeout at application 1, again during replay-verify",
        ),
    ),
    "supervisor/degrade-ladder": _Scenario(
        "persistently failing backend degrades down the ladder, "
        "conformance-verified",
        _always, _degrade_ladder,
    ),
}

#: Every scenario :func:`run_chaos` can grow, with a one-line intent
#: (``repro chaos --list`` prints this; ``--only`` validates against it).
#: Whether a given run actually *grows* a scenario still depends on the
#: plan contents (and, for the solver drill, on ``steps``).
SCENARIOS = {name: row.intent for name, row in _TABLE.items()}


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
    only=None,
    postmortem_dir: str | None = None,
) -> ChaosReport:
    """Run every backend under *plan* and report per-fault outcomes.

    With ``plan=None`` the canonical seeded plan for the ``nx x ny``
    fabric and ``px x py`` rank grid is used (1 dead PE, 1 lossy link,
    1 transient rank failure).  The same seed always reproduces the
    same plan, scenarios, and outcomes.

    ``only``, the one selector, restricts the run to the named scenarios
    (any iterable of :data:`SCENARIOS` keys); unknown names raise
    ``ValueError`` listing the valid set.

    With ``postmortem_dir`` set, any failed scenario (MISSED or NOT
    INJECTED) records a replay artifact there — the healthy reference
    run's per-step digests plus the offending plan and the failed
    outcomes under the ``postmortem`` meta key — so the failure can be
    reproduced and bisected offline (``repro conform`` reads it).
    """
    wanted = set(SCENARIOS if only is None else only)
    unknown = sorted(wanted - set(SCENARIOS))
    if unknown:
        raise ValueError(
            "unknown chaos scenario(s) "
            + ", ".join(repr(u) for u in unknown)
            + "; valid: " + ", ".join(sorted(SCENARIOS))
        )
    if plan is None:
        plan = FaultPlan.seeded(seed, fabric_shape=(nx, ny), ranks=px * py)
    report = ChaosReport(
        seed=plan.seed, fabric_shape=(nx, ny), ranks=px * py, plan=plan
    )
    ctx = _Context(
        plan, CartesianMesh3D(nx, ny, nz), px=px, py=py,
        watchdog_cycles=watchdog_cycles, steps=steps,
    )
    for name, row in _TABLE.items():
        if name in wanted and row.grows(ctx):
            report.outcomes.append(row.run(ctx, name))

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
