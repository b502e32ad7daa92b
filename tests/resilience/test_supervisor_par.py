"""Supervised recovery of the real multiprocess SPMD backend.

Two fault modes, both against live worker processes: a worker that
*dies* (``os._exit``) and a worker that *hangs* (``SIGSTOP``) — the
latter is invisible to exit-code reaping and only the heartbeat lease
can catch it.  In both cases the supervisor must restart from its
checkpoint and finish bit-identical to the serial cluster backend.
"""

import numpy as np
import pytest

from repro.cluster.flux import ClusterFluxComputation
from repro.core import CartesianMesh3D, FluidProperties, random_pressure
from repro.faults.errors import WorkerCrashError, WorkerLeaseExpiredError
from repro.faults.plan import FaultPlan, RankFailure
from repro.par.flux import ParClusterFluxComputation
from repro.par.runtime import shutdown_warm_pool
from repro.resilience import ResiliencePolicy, RunSupervisor

MESH = CartesianMesh3D(6, 6, 3)
FLUID = FluidProperties()
PRESSURES = [random_pressure(MESH, seed=30 + i) for i in range(3)]
PLAN = FaultPlan(
    seed=5, rank_failures=(RankFailure(rank=1, exchange=1, attempts=1),)
)


@pytest.fixture(autouse=True, scope="module")
def _drain_warm_pool():
    yield
    shutdown_warm_pool()


def serial_reference():
    drv = ClusterFluxComputation(MESH, FLUID, px=2, py=2)
    return [
        np.array(drv.run([p]).residual, copy=True) for p in PRESSURES
    ]


class TestCrashRecovery:
    def test_worker_death_resumes_bit_identically(self):
        reference = serial_reference()
        policy = ResiliencePolicy(
            backoff_base=0.0, backoff_jitter=0.0, checkpoint_every=1
        )
        sup = RunSupervisor(
            MESH, FLUID, policy=policy, backend="par",
            px=2, py=2, workers=2, plan=PLAN,
        )
        res = sup.run(PRESSURES)
        assert res.restarts == 1
        assert res.backend_chain == ["par"]
        failure = next(
            e for e in res.timeline if e["event"] == "failure"
        )
        assert failure["error"] == "WorkerCrashError"
        assert res.residual.tobytes() == reference[-1].tobytes()


class TestHungWorker:
    def test_lease_expiry_detects_a_sigstopped_worker(self):
        """Without respawn the driver itself must surface the hang as a
        WorkerLeaseExpiredError (a WorkerCrashError subclass), naming
        the hung worker."""
        with pytest.raises(WorkerLeaseExpiredError) as info:
            with ParClusterFluxComputation(
                MESH, FLUID, px=2, py=2, workers=2, plan=PLAN,
                respawn=False, failure_mode="hang", lease_seconds=0.5,
            ) as par:
                for p in PRESSURES:
                    par.run([p])
        exc = info.value
        assert isinstance(exc, WorkerCrashError)
        assert "heartbeat lease" in str(exc)
        assert "hung, not dead" in str(exc)
        assert exc.lease_seconds == 0.5

    def test_supervisor_recovers_the_hang_bit_identically(self):
        reference = serial_reference()
        policy = ResiliencePolicy(
            backoff_base=0.0, backoff_jitter=0.0, checkpoint_every=1,
            lease_seconds=0.5,
        )
        sup = RunSupervisor(
            MESH, FLUID, policy=policy, backend="par",
            px=2, py=2, workers=2, plan=PLAN, failure_mode="hang",
        )
        res = sup.run(PRESSURES)
        assert res.restarts >= 1
        lease_failures = [
            e for e in res.timeline
            if e["event"] == "failure"
            and e["error"] == "WorkerLeaseExpiredError"
        ]
        assert lease_failures, "the hang must be detected via the lease"
        assert res.residual.tobytes() == reference[-1].tobytes()
