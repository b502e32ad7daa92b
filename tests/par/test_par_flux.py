"""End-to-end tests of the multiprocess SPMD flux computation.

The acceptance bar: bit-identical residuals vs the serial cluster
backend on square and non-square rank grids, with genuinely concurrent
workers (distinct PIDs), plus real crash detection and respawn
recovery under an injected rank failure.
"""

import numpy as np
import pytest

from repro.core import FluidProperties, PressureSequence
from repro.cluster.flux import ClusterFluxComputation
from repro.faults.errors import WorkerCrashError
from repro.faults.plan import FaultPlan, RankFailure
from repro.par import ParClusterFluxComputation
from repro.par.worker import KILL_EXIT_CODE
from repro.workloads import make_geomodel


@pytest.fixture(scope="module")
def problem():
    mesh = make_geomodel(15, 14, 3, kind="lognormal", seed=11)
    fluid = FluidProperties()
    seq = PressureSequence(mesh, num_applications=3, seed=11)
    return mesh, fluid, seq


def serial_residual(mesh, fluid, seq, px, py):
    return ClusterFluxComputation(mesh, fluid, px=px, py=py).run(iter(seq))


class TestBitIdentity:
    @pytest.mark.parametrize(
        "px,py,workers", [(2, 2, 4), (3, 2, 6), (3, 2, 2), (2, 2, 3)]
    )
    def test_matches_serial_cluster(self, problem, px, py, workers):
        mesh, fluid, seq = problem
        ref = serial_residual(mesh, fluid, seq, px, py)
        with ParClusterFluxComputation(
            mesh, fluid, px=px, py=py, workers=workers
        ) as par:
            res = par.run(iter(seq))
        assert np.array_equal(res.residual, ref.residual)
        assert res.residual.tobytes() == ref.residual.tobytes()
        assert res.messages_per_application == ref.messages_per_application
        assert res.halo_bytes_per_application == ref.halo_bytes_per_application

    def test_matches_global_reference_kernel(self, problem, statement_fold):
        mesh, fluid, seq = problem
        p = seq.field(0)
        reference = statement_fold(mesh, fluid, p)
        with ParClusterFluxComputation(mesh, fluid, px=2, py=2) as par:
            res = par.run([p])
        assert res.residual.tobytes() == reference.tobytes()

    def test_workers_are_real_processes(self, problem):
        import os

        mesh, fluid, seq = problem
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=4
        ) as par:
            res = par.run([seq.field(0)])
        assert res.distinct_pids == 4
        pids = {row["pid"] for row in res.per_rank}
        assert os.getpid() not in pids
        assert all(row["compute_seconds"] > 0 for row in res.per_rank)

    def test_multiple_applications_accumulate(self, problem):
        mesh, fluid, seq = problem
        with ParClusterFluxComputation(mesh, fluid, px=2, py=2) as par:
            first = par.run([seq.field(0)])
            second = par.run(seq.field(i) for i in (1, 2))
        assert first.applications == 1
        assert second.applications == 2
        # messages-per-application is invariant across batches
        assert (
            first.messages_per_application == second.messages_per_application
        )

    def test_rejects_bad_worker_count(self, problem):
        mesh, fluid, _ = problem
        with pytest.raises(ValueError, match="workers"):
            ParClusterFluxComputation(mesh, fluid, px=2, py=2, workers=5)

    def test_rejects_empty_batch(self, problem):
        mesh, fluid, _ = problem
        with ParClusterFluxComputation(mesh, fluid, px=2, py=2) as par:
            with pytest.raises(ValueError, match="no pressure fields"):
                par.run([])


class TestCrashRecovery:
    @pytest.fixture()
    def plan(self):
        return FaultPlan(
            seed=3, rank_failures=(RankFailure(rank=2, exchange=1, attempts=1),)
        )

    def test_detects_killed_worker(self, problem, plan):
        mesh, fluid, seq = problem
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=4, plan=plan, respawn=False
        ) as par:
            with pytest.raises(WorkerCrashError) as info:
                par.run(iter(seq))
        (idx, pid, code, ranks) = info.value.crashed[0]
        assert code == KILL_EXIT_CODE
        assert 2 in ranks
        assert "died" in str(info.value)

    def test_respawn_recovers_bit_identically(self, problem, plan):
        mesh, fluid, seq = problem
        ref = serial_residual(mesh, fluid, seq, 2, 2)
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=4, plan=plan, respawn=True
        ) as par:
            res = par.run(iter(seq))
        assert res.respawns == 1
        assert np.array_equal(res.residual, ref.residual)

    def test_respawn_with_multirank_workers(self, problem, plan):
        mesh, fluid, seq = problem
        ref = serial_residual(mesh, fluid, seq, 2, 2)
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=2, plan=plan, respawn=True
        ) as par:
            res = par.run(iter(seq))
        assert res.respawns == 1
        assert np.array_equal(res.residual, ref.residual)
