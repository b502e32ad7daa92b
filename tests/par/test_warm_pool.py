"""Warm-pool lifecycle tests: spawn once, reuse across runs, problems
and crash recoveries, never leak a worker or a wedged process."""

import os
import time

import numpy as np
import pytest

from repro.core import FluidProperties, PressureSequence
from repro.cluster.flux import ClusterFluxComputation
from repro.faults.errors import WorkerCrashError
from repro.faults.plan import FaultPlan, RankFailure
from repro.par import ParClusterFluxComputation
from repro.par.runtime import warm_pool, shutdown_warm_pool


@pytest.fixture(scope="module")
def problem():
    from repro.workloads import make_geomodel

    mesh = make_geomodel(14, 12, 3, kind="lognormal", seed=5)
    fluid = FluidProperties()
    seq = PressureSequence(mesh, num_applications=3, seed=5)
    return mesh, fluid, seq


@pytest.fixture()
def fresh_reservoir():
    """Start each test from an empty reservoir, and leave none behind.

    ``total_spawned`` is a process-lifetime counter (the reservoir
    object is module-global), so tests assert spawn *deltas* against
    the count captured here.
    """
    shutdown_warm_pool()
    reservoir = warm_pool()
    reservoir._base_spawned = reservoir.total_spawned
    yield reservoir
    shutdown_warm_pool()


def serial_residual(mesh, fluid, seq):
    return ClusterFluxComputation(mesh, fluid, px=2, py=2).run(iter(seq))


class TestWarmReuse:
    def test_back_to_back_runs_keep_pids(self, problem, fresh_reservoir):
        mesh, fluid, seq = problem
        ref = serial_residual(mesh, fluid, seq)
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=4
        ) as par:
            first = par.run(iter(seq))
            second = par.run(iter(seq))
        assert np.array_equal(second.residual, ref.residual)
        pids_first = {row["pid"] for row in first.per_rank}
        pids_second = {row["pid"] for row in second.per_rank}
        assert pids_first == pids_second
        assert len(pids_first) == 4

    def test_sequential_instances_reuse_processes(
        self, problem, fresh_reservoir
    ):
        mesh, fluid, seq = problem
        ref = serial_residual(mesh, fluid, seq)
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=4
        ) as par:
            first = par.run(iter(seq))
        spawned_after_first = fresh_reservoir.total_spawned
        assert (
            spawned_after_first - fresh_reservoir._base_spawned == 4
        )
        assert fresh_reservoir.idle_count == 4  # released warm
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=4
        ) as par:
            second = par.run(iter(seq))
        # same OS processes served a brand-new problem...
        assert {row["pid"] for row in first.per_rank} == {
            row["pid"] for row in second.per_rank
        }
        # ...and nothing new was spawned for it
        assert fresh_reservoir.total_spawned == spawned_after_first
        assert np.array_equal(second.residual, ref.residual)

    def test_second_problem_stays_bit_identical(
        self, problem, fresh_reservoir
    ):
        """A reused worker must rebuild per-problem state completely."""
        from repro.workloads import make_geomodel

        mesh, fluid, seq = problem
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=4
        ) as par:
            par.run(iter(seq))
        other_mesh = make_geomodel(11, 13, 2, kind="channelized", seed=9)
        other_seq = PressureSequence(other_mesh, num_applications=2, seed=9)
        ref = ClusterFluxComputation(other_mesh, fluid, px=2, py=2).run(
            iter(other_seq)
        )
        with ParClusterFluxComputation(
            other_mesh, fluid, px=2, py=2, workers=4
        ) as par:
            res = par.run(iter(other_seq))
        assert res.residual.tobytes() == ref.residual.tobytes()

    def test_partial_lease_spawns_only_missing(
        self, problem, fresh_reservoir
    ):
        mesh, fluid, seq = problem
        base = fresh_reservoir._base_spawned
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=2
        ) as par:
            par.run([seq.field(0)])
        assert fresh_reservoir.total_spawned - base == 2
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=4
        ) as par:
            par.run([seq.field(0)])
        # two came warm, two were spawned to fill the lease
        assert fresh_reservoir.total_spawned - base == 4
        assert fresh_reservoir.idle_count == 4


class TestWarmCrashRecovery:
    def test_respawn_from_warm_pool_is_bit_identical(
        self, problem, fresh_reservoir
    ):
        """A crash mid-problem respawns and replays correctly even when
        the original workers were leased from the warm reservoir."""
        mesh, fluid, seq = problem
        ref = serial_residual(mesh, fluid, seq)
        # prime the reservoir with a clean problem first
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=4
        ) as par:
            par.run(iter(seq))
        assert fresh_reservoir.idle_count == 4
        plan = FaultPlan(
            seed=3,
            rank_failures=(RankFailure(rank=1, exchange=1, attempts=1),),
        )
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=4, plan=plan, respawn=True
        ) as par:
            res = par.run(iter(seq))
        assert res.respawns == 1
        assert np.array_equal(res.residual, ref.residual)
        # crashed-generation workers were killed, not released: only the
        # respawned generation went back to the reservoir
        assert fresh_reservoir.idle_count == 4

    def test_terminated_workers_never_reenter_reservoir(
        self, problem, fresh_reservoir
    ):
        mesh, fluid, seq = problem
        par = ParClusterFluxComputation(mesh, fluid, px=2, py=2, workers=4)
        par.run([seq.field(0)])
        pool = par._pool
        pool.terminate()
        par._pool = None
        par.close()
        assert fresh_reservoir.idle_count == 0
        assert all(not h.proc.is_alive() for h in pool.handles)


class TestUnrecoveredCrash:
    """A crash nobody will respawn kills the pool where it is raised:
    ``close()`` must not wait out the teardown budget on every survivor
    blocked in a halo spin on the dead peer (10 s / 22 s before)."""

    @pytest.mark.parametrize(
        "options",
        [
            {"failure_mode": "exit"},
            {"failure_mode": "hang", "lease_seconds": 0.5},
        ],
        ids=["exit", "hang"],
    )
    def test_close_is_prompt_and_leaves_nothing_behind(
        self, problem, fresh_reservoir, options, arena_holders
    ):
        mesh, fluid, seq = problem
        plan = FaultPlan(
            seed=3,
            rank_failures=(RankFailure(rank=2, exchange=1, attempts=1),),
        )
        par = ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=2, plan=plan, respawn=False,
            **options,
        )
        with pytest.raises(WorkerCrashError):
            par.run(iter(seq))
        inode = os.fstat(par._arena.fd).st_ino
        handles = par._pool.handles
        started = time.perf_counter()
        par.close()
        assert time.perf_counter() - started < 2.0
        assert arena_holders(inode) == []
        assert fresh_reservoir.idle_count == 0
        assert all(not h.proc.is_alive() for h in handles)


class TestSpawnStartMethod:
    def test_spawned_workers_match_cluster(
        self, problem, fresh_reservoir, monkeypatch, arena_holders
    ):
        """Where fork is unavailable a cold interpreter imports the
        worker, unpickles its spec and maps the arena (permeability
        region included) from the descriptor sent after it: same bytes,
        and once the workers are released nobody holds the arena."""
        import multiprocessing as mp

        import repro.par.runtime as runtime

        monkeypatch.setattr(runtime, "_context",
                            lambda: mp.get_context("spawn"))
        mesh, fluid, seq = problem
        ref = ClusterFluxComputation(mesh, fluid, px=2, py=2).run(
            [seq.field(0)]
        )
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=2
        ) as par:
            res = par.run([seq.field(0)])
            inode = os.fstat(par._arena.fd).st_ino
            kinds = {type(h.proc).__name__ for h in par._pool.handles}
            assert {pid for pid, _ in arena_holders(inode)} >= set(
                par._pool.pids()
            )
        assert kinds == {"SpawnProcess"}
        assert res.distinct_pids == 2
        assert res.residual.tobytes() == ref.residual.tobytes()
        assert fresh_reservoir.idle_count == 2  # released warm ...
        assert arena_holders(inode) == []  # ... with the arena unmapped
