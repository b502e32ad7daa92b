"""RunSupervisor: bounded-loss restart, degradation, give-up artifacts.

The acceptance bar from the resilience design: a supervised run that
takes a recoverable fault mid-campaign must finish with residuals
**bit-identical** to an uninterrupted run (restore + replay-verify), a
backend that keeps failing must degrade down the policy ladder under a
cross-backend conformance check, and an unrecoverable run must leave a
post-mortem replay bundle plus a decision timeline.
"""

import json

import numpy as np
import pytest

from repro.core import CartesianMesh3D, FluidProperties, random_pressure
from repro.faults.errors import CommTimeoutError
from repro.obs.replay import ReplayArtifact, digest_array
from repro.resilience import (
    ResiliencePolicy,
    RunSupervisor,
    SupervisorGiveUp,
)

MESH = CartesianMesh3D(4, 4, 3)
FLUID = FluidProperties()
PRESSURES = [random_pressure(MESH, seed=20 + i) for i in range(3)]

FAST = ResiliencePolicy(
    backoff_base=0.0, backoff_jitter=0.0, checkpoint_every=1
)


def flaky_factory(supervisor, fail_calls, error=None):
    """Wrap the real drivers; raise on the numbered run_single calls."""
    calls = {"n": 0}

    def factory(backend, attempt):
        run, finish = supervisor._default_factory(backend, attempt)

        def run_single(p):
            calls["n"] += 1
            if calls["n"] in fail_calls:
                raise error if error is not None else CommTimeoutError(
                    0, 1, calls["n"], 3
                )
            return run(p)

        return run_single, finish

    return factory


def uninterrupted(backend="event"):
    sup = RunSupervisor(MESH, FLUID, policy=FAST, backend=backend)
    run, finish = sup._default_factory(backend, attempt=1)  # no plan
    try:
        return [np.array(run(p), copy=True) for p in PRESSURES]
    finally:
        finish()


class TestCleanRun:
    def test_fused_commits_the_event_backends_bytes(self):
        reference = uninterrupted("event")
        res = RunSupervisor(
            MESH, FLUID, policy=FAST, backend="fused"
        ).run(PRESSURES)
        assert res.backend_chain == ["fused"] and res.restarts == 0
        for step, ref in zip(res.steps, reference):
            assert step["residual_sha256"] == digest_array(ref)
        assert res.residual.tobytes() == reference[-1].tobytes()


class TestRecovery:
    def test_transient_failure_resumes_bit_identically(self):
        reference = uninterrupted()
        sup = RunSupervisor(MESH, FLUID, policy=FAST, backend="event")
        sup._factory = flaky_factory(sup, fail_calls={2})
        res = sup.run(PRESSURES)
        assert res.restarts == 1
        assert res.restores == 1
        assert res.backend_chain == ["event"]
        for step, ref in zip(res.steps, reference):
            assert step["residual_sha256"] == digest_array(ref)
        assert res.residual.tobytes() == reference[-1].tobytes()
        events = [e["event"] for e in res.timeline]
        assert events[:2] == ["start", "checkpoint"]
        assert "failure" in events and "restore" in events
        assert events[-1] == "complete"

    def test_replay_verify_runs_after_every_restore(self):
        sup = RunSupervisor(MESH, FLUID, policy=FAST, backend="event")
        sup._factory = flaky_factory(sup, fail_calls={2})
        res = sup.run(PRESSURES)
        verifies = [
            e for e in res.timeline if e["event"] == "replay_verify"
        ]
        assert verifies and all(e["ok"] for e in verifies)
        assert all(e["mode"] == "bit" for e in verifies)

    def test_failure_during_recovery_is_still_recovered(self):
        """The second fault lands on the replay-verify itself."""
        reference = uninterrupted()
        sup = RunSupervisor(MESH, FLUID, policy=FAST, backend="event")
        sup._factory = flaky_factory(sup, fail_calls={2, 3})
        res = sup.run(PRESSURES)
        assert res.restarts == 2
        assert res.residual.tobytes() == reference[-1].tobytes()

    def test_failure_before_any_checkpoint_restarts_from_scratch(self):
        reference = uninterrupted()
        sup = RunSupervisor(MESH, FLUID, policy=FAST, backend="event")
        sup._factory = flaky_factory(sup, fail_calls={1})
        res = sup.run(PRESSURES)
        restore = next(e for e in res.timeline if e["event"] == "restore")
        assert restore["to_step"] == 0
        assert res.residual.tobytes() == reference[-1].tobytes()

    def test_unrecoverable_errors_propagate_untouched(self):
        sup = RunSupervisor(MESH, FLUID, policy=FAST, backend="event")
        sup._factory = flaky_factory(
            sup, fail_calls={1}, error=ValueError("solver bug")
        )
        with pytest.raises(ValueError, match="solver bug"):
            sup.run(PRESSURES)

    def test_backoff_delays_follow_the_seeded_policy(self):
        policy = ResiliencePolicy(
            backoff_base=0.0, backoff_jitter=0.5, seed=9
        )
        sup = RunSupervisor(MESH, FLUID, policy=policy, backend="event")
        sup._factory = flaky_factory(sup, fail_calls={2, 4})
        delays = [
            e["delay_seconds"] for e in sup.run(PRESSURES).timeline
            if e["event"] == "backoff"
        ]
        sup2 = RunSupervisor(MESH, FLUID, policy=policy, backend="event")
        sup2._factory = flaky_factory(sup2, fail_calls={2, 4})
        delays2 = [
            e["delay_seconds"] for e in sup2.run(PRESSURES).timeline
            if e["event"] == "backoff"
        ]
        assert delays == delays2  # same seed, same recovery decisions


class TestDiskCheckpoints:
    def test_corrupt_newest_checkpoint_falls_back_intact(self, tmp_path):
        """Restore re-opens the store from disk; a bit-flipped newest
        checkpoint is checksum-rejected and the previous intact one is
        used — at the price of replaying one more application."""
        reference = uninterrupted()
        ckdir = tmp_path / "ck"
        sup = RunSupervisor(
            MESH, FLUID, policy=FAST, backend="event",
            checkpoint_dir=ckdir,
        )
        calls = {"n": 0}
        real_factory = sup._default_factory

        def factory(backend, attempt):
            run, finish = real_factory(backend, attempt)

            def run_single(p):
                calls["n"] += 1
                if calls["n"] == 3:  # step 2 of attempt 0: two ckpts exist
                    newest = sorted(ckdir.glob("checkpoint_*.npz"))[-1]
                    blob = bytearray(newest.read_bytes())
                    blob[blob.index(b"pressure.npy") + 150] ^= 0x40
                    newest.write_bytes(bytes(blob))
                    raise CommTimeoutError(0, 1, 5, 3)
                return run(p)

            return run_single, finish

        sup._factory = factory
        res = sup.run(PRESSURES)
        restore = next(e for e in res.timeline if e["event"] == "restore")
        assert restore["source"] == "disk"
        assert restore["to_step"] == 1  # fell back past the corrupt file
        assert restore["corrupt_skipped"] == ["checkpoint_000002.npz"]
        assert res.residual.tobytes() == reference[-1].tobytes()


class TestDegradation:
    def test_gpu_exhaustion_degrades_to_lockstep_conformant(self):
        from repro.dataflow.lockstep import LockstepWseSimulation
        from repro.ir import derive_ir

        lockstep_ref = LockstepWseSimulation(
            MESH, FLUID, ir=derive_ir(MESH, dtype=np.float64)
        ).run([PRESSURES[-1]]).residual
        policy = ResiliencePolicy(
            max_restarts=1, backoff_base=0.0, backoff_jitter=0.0,
            checkpoint_every=1, ladder=("gpu", "lockstep"),
        )
        sup = RunSupervisor(MESH, FLUID, policy=policy, backend="gpu")
        calls = {"n": 0}
        real_factory = sup._default_factory

        def factory(backend, attempt):
            run, finish = real_factory(backend, attempt)
            if backend != "gpu":
                return run, finish

            def run_single(p):
                calls["n"] += 1
                if calls["n"] >= 2:  # persistent gpu failure
                    raise CommTimeoutError(0, 1, 9, 1)
                return run(p)

            return run_single, finish

        sup._factory = factory
        res = sup.run(PRESSURES)
        assert res.backend_chain == ["gpu", "lockstep"]
        assert res.degraded and res.degradations == 1
        assert [s["backend"] for s in res.steps] == [
            "gpu", "lockstep", "lockstep"
        ]
        verify = next(
            e for e in res.timeline
            if e["event"] == "replay_verify" and e["mode"] == "tolerance"
        )
        assert verify["ok"]
        assert verify["reference_backend"] == "gpu"
        assert res.residual.tobytes() == lockstep_ref.tobytes()


class TestGiveUp:
    def test_exhausted_run_emits_postmortem_artifacts(self, tmp_path):
        policy = ResiliencePolicy(
            max_restarts=1, backoff_base=0.0, backoff_jitter=0.0,
            checkpoint_every=1, ladder=(),
        )
        sup = RunSupervisor(
            MESH, FLUID, policy=policy, backend="event",
            postmortem_dir=tmp_path,
        )
        sup._factory = flaky_factory(sup, fail_calls={2, 3, 4, 5, 6})
        with pytest.raises(SupervisorGiveUp) as info:
            sup.run(PRESSURES)
        exc = info.value
        assert exc.timeline[-1]["event"] == "give_up"
        bundle = tmp_path / "supervisor-postmortem.rpz"
        timeline = tmp_path / "supervisor-timeline.json"
        assert str(bundle) == exc.postmortem_bundle and bundle.exists()
        assert str(timeline) == exc.postmortem_timeline and timeline.exists()
        artifact = ReplayArtifact.load(bundle)
        supmeta = artifact.meta["supervisor"]
        assert supmeta["failure"] == "CommTimeoutError"
        assert supmeta["committed_steps"] == 1  # only step 0 survived
        doc = json.loads(timeline.read_text())
        assert doc["timeline"][-1]["event"] == "give_up"

    def test_failed_replay_verification_gives_up(self):
        """A restore that cannot reproduce the checkpoint is a broken
        provenance chain, not a retryable fault."""
        sup = RunSupervisor(MESH, FLUID, policy=FAST, backend="event")
        calls = {"n": 0}
        real_factory = sup._default_factory

        def factory(backend, attempt):
            run, finish = real_factory(backend, attempt)

            def run_single(p):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise CommTimeoutError(0, 1, 2, 3)
                out = np.array(run(p), copy=True)
                if calls["n"] > 2:
                    out[0, 0, 0] += 1.0  # rebuilt driver is subtly wrong
                return out

            return run_single, finish

        sup._factory = factory
        with pytest.raises(SupervisorGiveUp, match="replay verification"):
            sup.run(PRESSURES)

    def test_failure_context_lands_in_the_timeline(self):
        policy = ResiliencePolicy(
            max_restarts=0, backoff_base=0.0, ladder=()
        )
        sup = RunSupervisor(
            MESH, FLUID, policy=policy, backend="event"
        )
        sup._factory = flaky_factory(
            sup, fail_calls={1},
            error=CommTimeoutError(
                0, 3, 7, 4, elapsed_seconds=0.5,
                policy={"attempts": 4},
            ),
        )
        with pytest.raises(SupervisorGiveUp) as info:
            sup.run(PRESSURES)
        failure = next(
            e for e in info.value.timeline if e["event"] == "failure"
        )
        assert failure["error"] == "CommTimeoutError"
        assert failure["context"]["attempts"] == 4
        assert failure["context"]["elapsed_seconds"] == 0.5
