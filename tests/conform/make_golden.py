"""Regenerate the golden replay-artifact registry.

Run from the repo root::

    PYTHONPATH=src python tests/conform/make_golden.py

The artifacts are deterministic byte-for-byte (stored ZIP, epoch
timestamps, canonical JSON), so re-running this script on any machine
must produce identical files; ``git diff`` after a regeneration is the
cheapest possible conformance check.  Keep the meshes tiny — these
files are committed.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from repro.conform import record_run
from repro.faults import FaultPlan
from repro.obs.replay import ReplayArtifact
from repro.util.jsonio import write_stable_json

GOLDEN = Path(__file__).resolve().parent / "golden"


def record_supervised_recovery():
    """Record a *supervisor-recovered* run as a replay artifact.

    A deterministic transient fault kills the second application of the
    first attempt; the supervisor restores its checkpoint, replay-
    verifies it, and finishes.  Because recovery is bounded-loss and
    bit-exact, the committed steps it feeds the recorder are identical
    to an uninterrupted run's — so the artifact replays clean on any
    conformant backend, and its ``supervisor`` meta key preserves the
    recovery provenance (chain, restarts, policy).
    """
    from repro.conform.runner import _build_mesh, _pressures
    from repro.core import FluidProperties
    from repro.faults.errors import CommTimeoutError
    from repro.obs.replay import ReplayRecorder
    from repro.resilience import ResiliencePolicy, RunSupervisor

    mesh_meta = {"nx": 4, "ny": 4, "nz": 3, "kind": "lognormal", "seed": 3}
    mesh = _build_mesh(mesh_meta)
    policy = ResiliencePolicy(
        backoff_base=0.0, backoff_jitter=0.0, checkpoint_every=1
    )
    meta = {
        "backend": "event",
        "backend_config": {
            "px": 2, "py": 2, "workers": None, "variant": "raja",
        },
        "mesh": dict(mesh_meta),
        "dtype": "float64",
        "pressure_seed": 1000,
        "fault_plan": None,
    }
    recorder = ReplayRecorder(meta, snapshot_every=1)
    sup = RunSupervisor(
        mesh, FluidProperties(), policy=policy, backend="event",
        record=recorder, mesh_meta=mesh_meta,
    )
    calls = {"n": 0}
    real_factory = sup._default_factory

    def factory(backend, attempt):
        run, finish = real_factory(backend, attempt)

        def run_single(p):
            calls["n"] += 1
            if calls["n"] == 2:  # transient fault at application 1
                raise CommTimeoutError(0, 1, 2, 3)
            return run(p)

        return run_single, finish

    sup._factory = factory
    result = sup.run(_pressures(mesh, 1000, 3))
    assert result.restarts == 1, "the golden recovery must actually recover"
    recorder.meta["supervisor"] = {
        "policy": policy.to_dict(),
        "backend_chain": result.backend_chain,
        "restarts": result.restarts,
        "restores": result.restores,
    }
    return recorder.finalize()


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    entries = []

    # 1. The flagship: a cluster recording that every backend must
    #    reproduce.  lockstep/gpu/cluster/par replay bit-exactly (one
    #    face-flux statement, phased fold order); event/fused replay
    #    within the ulp budget.
    art = record_run(
        "cluster", nx=4, ny=4, nz=3, geomodel="lognormal", seed=0,
        applications=3, px=2, py=2,
    )
    art.save(GOLDEN / "small-lognormal.rpz")
    entries.append(
        {
            "name": "small-lognormal",
            "file": "small-lognormal.rpz",
            "backends": ["event", "fused", "lockstep", "gpu", "cluster", "par"],
        }
    )

    # 2. A forced-order mesh (single interior column along Y): the
    #    event fabric's arrival order is forced, so the phased fold
    #    class (lockstep, and gpu's sweep) must match it bit-for-bit,
    #    not just within tolerance.  fused shares the event fold class,
    #    so it is bit-exact on every shape.
    art = record_run(
        "event", nx=2, ny=1, nz=5, geomodel="layered", seed=1,
        applications=2,
    )
    art.save(GOLDEN / "forced-order.rpz")
    entries.append(
        {
            "name": "forced-order",
            "file": "forced-order.rpz",
            "backends": ["event", "fused", "lockstep", "gpu"],
            "tolerance_overrides": {"lockstep": "bit-exact", "gpu": "bit-exact"},
        }
    )

    # 3. A faulted scenario: transient rank failures during recording.
    #    Recovery must reproduce the fault-free bits, so the replay
    #    (which re-injects the recorded plan) stays bit-exact.
    plan = FaultPlan.seeded(7, fabric_shape=(4, 4), ranks=4).only_ranks()
    art = record_run(
        "cluster", nx=4, ny=4, nz=3, geomodel="channelized", seed=7,
        applications=2, px=2, py=2, plan=plan,
    )
    art.save(GOLDEN / "faulted-recovery.rpz")
    entries.append(
        {
            "name": "faulted-recovery",
            "file": "faulted-recovery.rpz",
            "backends": ["cluster", "par"],
        }
    )

    # 4. A supervisor-recovered run: a transient fault mid-recording,
    #    healed by checkpoint restart.  The committed steps must be
    #    indistinguishable from an uninterrupted run, so every replay
    #    backend treats it like any clean event recording.
    art = record_supervised_recovery()
    art.save(GOLDEN / "supervised-recovery.rpz")
    entries.append(
        {
            "name": "supervised-recovery",
            "file": "supervised-recovery.rpz",
            "backends": ["event", "fused", "lockstep", "gpu"],
        }
    )

    # 5. A variable-thickness mesh (dz_layers) on a channelized
    #    geomodel, recorded on the event fabric: the mesh recipe
    #    carries the per-layer thicknesses, so replays must rebuild
    #    the exact transmissibilities.  fused must match to the bit.
    art = record_run(
        "event", nx=4, ny=3, nz=4, geomodel="channelized", seed=11,
        applications=2, dz_layers=[1.0, 2.5, 0.5, 3.0],
    )
    art.save(GOLDEN / "dz-layers.rpz")
    entries.append(
        {
            "name": "dz-layers",
            "file": "dz-layers.rpz",
            "backends": ["event", "fused", "lockstep", "gpu"],
        }
    )

    write_stable_json(GOLDEN / "registry.json", {"artifacts": entries})
    # each file's sha256 and its steps' residual_sha256, 16 hex apiece:
    # what a migration note quotes
    for entry in entries:
        path = GOLDEN / entry["file"]
        steps = " ".join(s["residual_sha256"][:16] for s in ReplayArtifact.load(path).steps)
        print(f"wrote {path} sha256 {_sha16(path)} residuals {steps}")
    print(f"wrote {GOLDEN / 'registry.json'} sha256 {_sha16(GOLDEN / 'registry.json')}")
    return 0


def _sha16(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
