"""Tests for block decomposition and the halo-exchange flux computation."""

import numpy as np
import pytest

from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    PressureSequence,
    compute_flux_residual,
    random_pressure,
)
from repro.cluster import (
    BlockDecomposition,
    ClusterFluxComputation,
    ClusterPerfModel,
)
from repro.workloads import make_geomodel


class TestBlockDecomposition:
    def test_blocks_tile_plane(self):
        mesh = CartesianMesh3D(13, 7, 2)
        decomp = BlockDecomposition(mesh, 4, 3)
        decomp.coverage_check()

    def test_near_equal_split(self):
        mesh = CartesianMesh3D(10, 10, 1)
        decomp = BlockDecomposition(mesh, 3, 1)
        widths = sorted(b.x1 - b.x0 for b in decomp.blocks)
        assert widths == [3, 3, 4]

    def test_halo_clipped_at_boundary(self):
        mesh = CartesianMesh3D(8, 8, 1)
        decomp = BlockDecomposition(mesh, 2, 2)
        corner = decomp.block(0)
        assert corner.gx0 == 0 and corner.gy0 == 0  # no pad past the mesh
        assert corner.gx1 == corner.x1 + 1

    def test_owned_slices_in_padded(self):
        mesh = CartesianMesh3D(8, 8, 1)
        decomp = BlockDecomposition(mesh, 2, 2)
        block = decomp.block(3)  # interior-ish corner block
        ys, xs = block.owned_slices_in_padded()
        assert xs.start == block.x0 - block.gx0 == 1
        assert ys.start == 1

    def test_local_mesh_preserves_trans(self, fluid):
        """Faces inside the padded region match the global build."""
        from repro.core import Connection, Transmissibility

        mesh = make_geomodel(9, 8, 3, kind="lognormal", seed=1)
        decomp = BlockDecomposition(mesh, 2, 2)
        block = decomp.block(0)
        local = decomp.local_mesh(block)
        t_global = Transmissibility(mesh)
        t_local = Transmissibility(local)
        g = t_global.face_array(Connection.EAST)
        l = t_local.face_array(Connection.EAST)
        np.testing.assert_allclose(
            l, g[:, block.gy0 : block.gy1, block.gx0 : block.gx1 - 1]
        )

    def test_rejects_oversubscription(self):
        mesh = CartesianMesh3D(3, 3, 1)
        with pytest.raises(ValueError, match="empty blocks"):
            BlockDecomposition(mesh, 4, 1)

    def test_oversubscription_names_x_axis(self):
        mesh = CartesianMesh3D(3, 8, 1)
        with pytest.raises(ValueError, match=r"px=4 ranks along X exceed mesh Nx=3"):
            BlockDecomposition(mesh, 4, 2)

    def test_oversubscription_names_y_axis(self):
        mesh = CartesianMesh3D(8, 3, 1)
        with pytest.raises(ValueError, match=r"py=5 ranks along Y exceed mesh Ny=3"):
            BlockDecomposition(mesh, 2, 5)

    def test_oversubscription_message_includes_grid(self):
        mesh = CartesianMesh3D(2, 9, 1)
        with pytest.raises(ValueError, match=r"process grid 3x3"):
            BlockDecomposition(mesh, 3, 3)


class TestClusterFlux:
    @pytest.fixture(scope="class")
    def problem(self):
        mesh = make_geomodel(11, 9, 4, kind="lognormal", seed=6)
        fluid = FluidProperties()
        p = random_pressure(mesh, seed=2)
        ref = compute_flux_residual(mesh, fluid, p)
        return mesh, fluid, p, ref

    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (3, 2), (2, 3), (4, 3), (11, 1), (1, 9)])
    def test_matches_reference_any_grid(self, problem, grid):
        mesh, fluid, p, ref = problem
        cluster = ClusterFluxComputation(mesh, fluid, px=grid[0], py=grid[1])
        result = cluster.run([p])
        assert result.residual.tobytes() == ref.tobytes()

    def test_single_rank_no_messages(self, problem):
        mesh, fluid, p, _ = problem
        cluster = ClusterFluxComputation(mesh, fluid, px=1, py=1)
        result = cluster.run([p])
        assert result.messages_per_application == 0
        assert result.halo_bytes_per_application == 0

    def test_message_count_2x2(self, problem):
        """2x2 grid: each rank talks to 2 sides + 1 corner = 3 messages."""
        mesh, fluid, p, _ = problem
        cluster = ClusterFluxComputation(mesh, fluid, px=2, py=2)
        result = cluster.run([p])
        assert result.messages_per_application == 4 * 3

    def test_halo_bytes_formula(self, problem):
        """Halo volume: each interior edge moves nz cells per side column."""
        mesh, fluid, p, _ = problem
        cluster = ClusterFluxComputation(mesh, fluid, px=2, py=1)
        result = cluster.run([p])
        # one vertical cut: each side sends one x-column: ny*nz cells
        expected = 2 * mesh.ny * mesh.nz * 8
        assert result.halo_bytes_per_application == expected

    def test_multiple_applications(self, problem):
        mesh, fluid, _, _ = problem
        seq = PressureSequence(mesh, num_applications=3, seed=4)
        cluster = ClusterFluxComputation(mesh, fluid, px=2, py=2)
        result = cluster.run(seq)
        assert result.applications == 3
        ref = compute_flux_residual(mesh, fluid, seq.field(2))
        assert result.residual.tobytes() == ref.tobytes()

    def test_traffic_grows_with_ranks(self, problem):
        mesh, fluid, p, _ = problem
        small = ClusterFluxComputation(mesh, fluid, px=2, py=1).run([p])
        large = ClusterFluxComputation(mesh, fluid, px=4, py=3).run([p])
        assert large.halo_bytes_per_application > small.halo_bytes_per_application

    def test_empty_run_rejected(self, problem):
        mesh, fluid, _, _ = problem
        with pytest.raises(ValueError):
            ClusterFluxComputation(mesh, fluid, px=1, py=1).run([])


class TestClusterPerfModel:
    def test_more_ranks_less_time_until_latency_bound(self):
        mesh = CartesianMesh3D(256, 256, 32)
        model = ClusterPerfModel()
        t1 = model.application_seconds(BlockDecomposition(mesh, 1, 1))
        t4 = model.application_seconds(BlockDecomposition(mesh, 2, 2))
        t16 = model.application_seconds(BlockDecomposition(mesh, 4, 4))
        assert t4 < t1
        assert t16 < t4

    def test_efficiency_degrades_with_surface_to_volume(self):
        mesh = CartesianMesh3D(64, 64, 8)
        model = ClusterPerfModel()
        e4 = model.parallel_efficiency(BlockDecomposition(mesh, 2, 2))
        e64 = model.parallel_efficiency(BlockDecomposition(mesh, 8, 8))
        assert 0 < e64 < e4 <= 1.0

    def test_single_rank_efficiency_is_one(self):
        mesh = CartesianMesh3D(32, 32, 8)
        model = ClusterPerfModel()
        assert model.parallel_efficiency(
            BlockDecomposition(mesh, 1, 1)
        ) == pytest.approx(1.0)
