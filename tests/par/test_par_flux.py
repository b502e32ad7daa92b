"""End-to-end tests of the multiprocess SPMD flux computation.

The acceptance bar: bit-identical residuals vs the serial cluster
backend on square and non-square rank grids, with genuinely concurrent
workers (distinct PIDs), plus real crash detection and respawn
recovery under an injected rank failure.
"""

from dataclasses import fields
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    PressureSequence,
    compute_flux_residual,
)
from repro.cluster.decomposition import BlockDecomposition
from repro.cluster.flux import ClusterFluxComputation
from repro.faults.errors import WorkerCrashError
from repro.faults.plan import FaultPlan, RankFailure
from repro.par import ParClusterFluxComputation
from repro.par.worker import GEOMETRY, KILL_EXIT_CODE
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

    def test_matches_global_reference_kernel(self, problem):
        mesh, fluid, seq = problem
        p = seq.field(0)
        reference = compute_flux_residual(mesh, fluid, p)
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


#: Meshes on which every geometry field changes the residual's bytes:
#: non-uniform layers under a shifted origin, and uniform non-default
#: spacing on every axis.
GEOMETRIES = {
    "dz-layers": dict(dx=7.0, dy=12.0, origin=(100.0, -50.0, 1234.5),
                      dz_layers=(1.0, 2.5, 0.75, 4.0)),
    "uniform": dict(dx=13.0, dy=6.0, dz=3.5, origin=(-3.0, 8.0, 250.25)),
}


def _capture_specs(monkeypatch, par, pressure):
    """The specs ``par`` would send, with no worker started."""
    import repro.par.flux as flux_mod

    captured = []

    class CapturePool:
        def __init__(self, specs, **kwargs):
            captured.extend(specs)
            raise RuntimeError("captured")

    monkeypatch.setattr(flux_mod, "ProcPool", CapturePool)
    with pytest.raises(RuntimeError, match="captured"):
        par.run([pressure])
    return captured


class TestShippedGeometry:
    """A worker rebuilds its blocks from the spec's geometry and the
    arena's permeability: par == cluster wherever the geometry shows."""

    @pytest.fixture(params=sorted(GEOMETRIES))
    def mesh(self, request):
        rng = np.random.default_rng(5)
        kappa = rng.lognormal(np.log(1e-13), 1.0, size=(4, 5, 7))
        return CartesianMesh3D(7, 5, 4, permeability=kappa,
                               **GEOMETRIES[request.param])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uneven_split_matches_cluster(self, mesh, dtype):
        fluid = FluidProperties()
        seq = PressureSequence(mesh, num_applications=2, seed=3)
        ref = ClusterFluxComputation(
            mesh, fluid, px=2, py=2, dtype=dtype
        ).run(iter(seq))
        with ParClusterFluxComputation(
            mesh, fluid, px=2, py=2, workers=2, dtype=dtype
        ) as par:
            res = par.run(iter(seq))
        assert res.residual.dtype == dtype
        assert res.residual.tobytes() == ref.residual.tobytes()

    def test_worker_blocks_equal_cluster_blocks(self, mesh, monkeypatch):
        """Every field of a worker's local mesh is cluster's: a geometry
        field the spec drops or garbles shows here."""
        par = ParClusterFluxComputation(
            mesh, FluidProperties(), px=2, py=2, workers=2
        )
        specs = _capture_specs(monkeypatch, par, mesh.full(2e7))
        decomp = BlockDecomposition(mesh, 2, 2)
        for spec in specs:
            assert {f.name for f in fields(spec)} >= set(GEOMETRY)
            worker = BlockDecomposition(
                spec.global_mesh(mesh.permeability.copy()), 2, 2
            )
            for rank in spec.ranks:
                ours = worker.local_mesh(worker.block(rank))
                theirs = decomp.local_mesh(decomp.block(rank))
                assert ours.shape_zyx == theirs.shape_zyx
                assert ours.spacing == theirs.spacing
                assert ours.origin == theirs.origin
                for name in ("permeability", "elevation", "dz_column"):
                    assert (getattr(ours, name).tobytes()
                            == getattr(theirs, name).tobytes()), name


class TestSetupPayload:
    def test_setup_message_ships_no_array(self, monkeypatch):
        """The pickled ``("setup", spec)`` is plain values: under 64 KiB
        at 128x128x16, where the whole mesh pickled to 6.3 MB."""
        mesh = CartesianMesh3D(128, 128, 16)
        par = ParClusterFluxComputation(
            mesh, FluidProperties(), px=2, py=2, workers=2
        )
        specs = _capture_specs(monkeypatch, par, mesh.full(2e7))
        assert len(specs) == 2
        for spec in specs:
            assert not any(isinstance(getattr(spec, f.name), np.ndarray)
                           for f in fields(spec))
            assert len(ForkingPickler.dumps(("setup", spec))) < 64 * 1024
