"""SimComm fault paths and cluster halo re-exchange recovery."""

import numpy as np
import pytest

from repro.cluster import RetryPolicy, SimComm
from repro.cluster.flux import ClusterFluxComputation
from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    compute_flux_residual,
    random_pressure,
)
from repro.faults import (
    CommTimeoutError,
    FaultInjector,
    FaultPlan,
    PendingLeakError,
    RankFailure,
)


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(attempts=3, base_delay=1e-6, multiplier=2.0)
        assert [policy.delay(a) for a in range(3)] == [1e-6, 2e-6, 4e-6]

    def test_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)


class TestSimCommFaultPaths:
    def test_missing_recv_fails_fast_without_retry(self):
        comm = SimComm(2)
        with pytest.raises(CommTimeoutError, match="deadlock") as info:
            comm.recv(1, 0, tag=5)
        assert (info.value.source, info.value.dest, info.value.tag) == (0, 1, 5)
        assert info.value.attempts == 0

    def test_retry_recovers_when_sender_retransmits(self):
        comm = SimComm(2)
        resent = []

        def retransmit(source, dest, tag, attempt):
            resent.append(attempt)
            if attempt == 1:  # sender comes back on the second retry
                comm.isend(source, dest, tag, np.arange(4.0))

        got = comm.recv(
            1, 0, tag=9,
            retry=RetryPolicy(attempts=3), on_missing=retransmit,
        )
        np.testing.assert_array_equal(got, np.arange(4.0))
        assert resent == [0, 1]
        assert comm.stats[1].retry_waits == 2
        assert comm.waited_seconds == pytest.approx(1e-6 + 2e-6)

    def test_retry_budget_exhaustion_reports_attempts(self):
        comm = SimComm(2)
        with pytest.raises(CommTimeoutError, match="3 retries") as info:
            comm.recv(1, 0, tag=0, retry=RetryPolicy(attempts=3))
        assert info.value.attempts == 3
        assert comm.stats[1].retry_waits == 3

    def test_barrier_fails_fast_on_leaked_sends(self):
        comm = SimComm(2)
        comm.isend(0, 1, 7, np.zeros(3))
        with pytest.raises(PendingLeakError, match="never received") as info:
            comm.barrier("halo exchange")
        assert info.value.leaked == [(0, 1, 7)]
        assert "halo exchange" in str(info.value)
        comm.recv(1, 0, 7)
        comm.barrier("halo exchange")  # clean now

    def test_double_send_still_rejected(self):
        comm = SimComm(2)
        comm.isend(0, 1, 0, np.zeros(1))
        with pytest.raises(RuntimeError, match="unmatched"):
            comm.isend(0, 1, 0, np.zeros(1))

    def test_total_bytes_sides(self):
        comm = SimComm(2)
        comm.isend(0, 1, 0, np.zeros(4))  # 32 bytes
        assert comm.total_bytes() == 32
        assert comm.total_bytes(side="received") == 0
        comm.recv(1, 0, 0)
        assert comm.total_bytes(side="received") == 32
        assert comm.total_bytes(side="both") == 64
        with pytest.raises(ValueError, match="side"):
            comm.total_bytes(side="sideways")

    def test_down_rank_drops_sends(self):
        inj = FaultInjector(
            FaultPlan(rank_failures=(RankFailure(rank=1, exchange=0),))
        )
        comm = SimComm(2, faults=inj)
        inj.begin_exchange()
        comm.isend(0, 1, 0, np.zeros(8))  # towards the down rank: dropped
        comm.isend(1, 0, 1, np.zeros(8))  # from the down rank: dropped
        assert comm.pending == 0
        assert comm.stats[0].sends_dropped == 1
        assert comm.stats[1].sends_dropped == 1
        assert inj.stats.sends_dropped == 2
        inj.begin_retry()  # rank back up
        comm.isend(0, 1, 0, np.zeros(8))
        assert comm.pending == 1


class TestClusterRecovery:
    def make_problem(self):
        mesh = CartesianMesh3D(8, 8, 3)
        fluid = FluidProperties()
        pressure = random_pressure(mesh, seed=5)
        return mesh, fluid, pressure

    def test_transient_rank_failure_recovers_exactly(self):
        mesh, fluid, pressure = self.make_problem()
        reference = compute_flux_residual(mesh, fluid, pressure)
        injector = FaultInjector(
            FaultPlan(rank_failures=(RankFailure(rank=1, exchange=0),))
        )
        cluster = ClusterFluxComputation(
            mesh, fluid, px=2, py=2, faults=injector
        )
        result = cluster.run([pressure])
        assert injector.stats.sends_dropped > 0
        assert result.retransmissions == injector.stats.sends_dropped
        assert result.recovery_seconds > 0.0
        assert result.residual.tobytes() == reference.tobytes()
        # every dropped strip was retransmitted and received: symmetric
        assert cluster.comm.total_bytes() == cluster.comm.total_bytes(
            side="received"
        )

    def test_second_application_is_unaffected(self):
        """The failure window is exchange 0 only: application 2 runs with
        zero retransmissions and still matches the reference."""
        mesh, fluid, pressure = self.make_problem()
        p2 = random_pressure(mesh, seed=6)
        injector = FaultInjector(
            FaultPlan(rank_failures=(RankFailure(rank=2, exchange=0),))
        )
        cluster = ClusterFluxComputation(
            mesh, fluid, px=2, py=2, faults=injector
        )
        result = cluster.run([pressure, p2])
        assert result.residual.tobytes() == compute_flux_residual(mesh, fluid, p2).tobytes()

    def test_persistent_failure_exhausts_retries(self):
        mesh, fluid, pressure = self.make_problem()
        injector = FaultInjector(
            FaultPlan(rank_failures=(RankFailure(rank=1, exchange=0, attempts=99),))
        )
        cluster = ClusterFluxComputation(
            mesh, fluid, px=2, py=2, faults=injector
        )
        with pytest.raises(
            CommTimeoutError, match=f"{RetryPolicy().attempts} retries"
        ):
            cluster.run([pressure])

    def test_healthy_cluster_has_no_recovery_cost(self):
        mesh, fluid, pressure = self.make_problem()
        cluster = ClusterFluxComputation(mesh, fluid, px=2, py=2)
        result = cluster.run([pressure])
        assert result.retransmissions == 0
        assert result.recovery_seconds == 0.0
        assert result.residual.tobytes() == compute_flux_residual(mesh, fluid, pressure).tobytes()
