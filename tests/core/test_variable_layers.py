"""Tests for variable layer thickness (rectilinear Z) support."""

import numpy as np
import pytest

from repro.core import (
    CartesianMesh3D,
    Connection,
    FluidProperties,
    Transmissibility,
    compute_flux_residual,
    random_pressure,
)
from repro.core.unstructured import from_cartesian, unstructured_flux_residual
from repro.dataflow import WseFluxComputation
from repro.gpu import GpuFluxComputation
from repro.ir.schedule import schedule_classes
from repro.solver import SinglePhaseFlowSimulator, Well


@pytest.fixture
def layered_mesh():
    """5 layers with strongly varying thicknesses."""
    return CartesianMesh3D(
        6, 5, 5, dx=10.0, dy=10.0, dz_layers=np.array([1.0, 4.0, 2.0, 8.0, 0.5])
    )


class TestGeometry:
    def test_uniform_flag(self, layered_mesh, small_mesh):
        assert not layered_mesh.is_uniform_z
        assert small_mesh.is_uniform_z

    def test_dz_column(self, layered_mesh):
        np.testing.assert_array_equal(
            layered_mesh.dz_column, [1.0, 4.0, 2.0, 8.0, 0.5]
        )
        assert layered_mesh.dz == pytest.approx(3.1)  # mean

    def test_elevation_cumulative(self, layered_mesh):
        z = layered_mesh.elevation[:, 0, 0]
        np.testing.assert_allclose(z, [0.5, 3.0, 6.0, 11.0, 15.25])

    def test_cell_volume_scalar_rejected(self, layered_mesh):
        with pytest.raises(ValueError, match="cell_volumes"):
            layered_mesh.cell_volume

    def test_cell_volumes(self, layered_mesh):
        v = layered_mesh.cell_volumes
        assert v.shape == (5, 1, 1)
        np.testing.assert_allclose(v[:, 0, 0], 100.0 * layered_mesh.dz_column)

    def test_cell_centre_uses_layering(self, layered_mesh):
        assert layered_mesh.cell_centre(0, 0, 3)[2] == pytest.approx(11.0)

    def test_uniform_mesh_unchanged(self):
        m = CartesianMesh3D(3, 3, 4, dz=2.0)
        np.testing.assert_allclose(m.dz_column, 2.0)
        assert m.cell_volume == pytest.approx(m.dx * m.dy * 2.0)
        np.testing.assert_allclose(m.cell_volumes, m.cell_volume)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="dz_layers"):
            CartesianMesh3D(2, 2, 3, dz_layers=np.ones(4))

    def test_rejects_nonpositive_thickness(self):
        with pytest.raises(ValueError, match="dz_layers"):
            CartesianMesh3D(2, 2, 3, dz_layers=np.array([1.0, 0.0, 1.0]))


class TestTransmissibility:
    def test_vertical_uses_each_sides_half_distance(self):
        mesh = CartesianMesh3D(
            1, 1, 2, dx=10.0, dy=10.0, dz_layers=np.array([2.0, 6.0])
        )
        t = Transmissibility(mesh)
        area = 100.0
        t_k = mesh.permeability[0, 0, 0] * area / 1.0  # dz/2 = 1
        t_l = mesh.permeability[1, 0, 0] * area / 3.0  # dz/2 = 3
        expected = t_k * t_l / (t_k + t_l)
        assert t.face_array(Connection.UP)[0, 0, 0] == pytest.approx(expected)

    def test_horizontal_scales_with_layer_thickness(self):
        mesh = CartesianMesh3D(
            2, 1, 2, dx=10.0, dy=10.0, dz_layers=np.array([1.0, 5.0])
        )
        t = Transmissibility(mesh)
        east = t.face_array(Connection.EAST)
        assert east[1, 0, 0] == pytest.approx(5.0 * east[0, 0, 0])

    def test_matches_uniform_when_layers_equal(self):
        a = CartesianMesh3D(4, 3, 3, dz=2.0)
        b = CartesianMesh3D(4, 3, 3, dz_layers=np.full(3, 2.0))
        ta, tb = Transmissibility(a), Transmissibility(b)
        for conn in (Connection.EAST, Connection.UP, Connection.SOUTHEAST):
            np.testing.assert_allclose(ta.face_array(conn), tb.face_array(conn))

    def test_for_cell_consistent(self, layered_mesh):
        t = Transmissibility(layered_mesh)
        vals = t.for_cell(2, 2, 1)
        assert vals[Connection.UP] > 0
        assert vals[Connection.UP] != vals[Connection.DOWN]


class TestCrossImplementation:
    def test_all_implementations_agree(self, layered_mesh, fluid):
        """Each backend returns the reference fold in its own order."""
        trans = Transmissibility(layered_mesh)
        p = random_pressure(layered_mesh, seed=17)
        phased = compute_flux_residual(layered_mesh, fluid, p, trans)
        event = compute_flux_residual(
            layered_mesh, fluid, p, trans,
            order=schedule_classes(layered_mesh.nx, layered_mesh.ny),
        )
        wse = WseFluxComputation(
            layered_mesh, fluid, trans, dtype=np.float64
        ).run_single(p)
        gpu = GpuFluxComputation(
            layered_mesh, fluid, trans, dtype=np.float64
        ).run([p])
        assert wse.residual.tobytes() == event.tobytes()
        assert gpu.residual.tobytes() == phased.tobytes()

    def test_unstructured_agrees(self, layered_mesh, fluid):
        trans = Transmissibility(layered_mesh)
        umesh = from_cartesian(layered_mesh, trans)
        p = random_pressure(layered_mesh, seed=18)
        r_u = unstructured_flux_residual(umesh, fluid, p.ravel())
        r_s = compute_flux_residual(layered_mesh, fluid, p, trans)
        scale = np.abs(r_s).max()
        np.testing.assert_allclose(
            r_u.reshape(layered_mesh.shape_zyx), r_s, atol=1e-12 * scale
        )

    def test_unstructured_volumes_vary(self, layered_mesh):
        umesh = from_cartesian(layered_mesh)
        assert umesh.volumes.min() != umesh.volumes.max()

    def test_mass_balance_holds(self, layered_mesh, fluid):
        p = random_pressure(layered_mesh, seed=19)
        r = compute_flux_residual(layered_mesh, fluid, p)
        scale = np.abs(r).max()
        assert abs(r.sum()) <= 1e-12 * scale * r.size


class TestSolverWithLayering:
    def test_mass_conservation(self, fluid):
        mesh = CartesianMesh3D(
            5, 5, 4, dz_layers=np.array([1.0, 3.0, 2.0, 6.0])
        )
        sim = SinglePhaseFlowSimulator(
            mesh, fluid, wells=[Well(2, 2, 1, rate=3.0)], gravity=0.0
        )
        m0 = sim.mass_in_place()
        sim.run(num_steps=3, dt=3600.0, rtol=1e-10)
        injected = 3.0 * 3 * 3600.0
        assert sim.mass_in_place() - m0 == pytest.approx(injected, rel=1e-6)

    def test_jacobian_matches_fd(self, fluid):
        from repro.solver import FlowResidual, MatrixFreeJacobian

        mesh = CartesianMesh3D(4, 3, 3, dz_layers=np.array([1.0, 2.0, 4.0]))
        res = FlowResidual(mesh, fluid, dt=3600.0)
        p = random_pressure(mesh, seed=20, amplitude=1e5)
        jac = MatrixFreeJacobian(res, p)
        mass = res.mass_density(p)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(mesh.shape_zyx)
        eps = 1.0
        fd = (res(p + eps * v, mass) - res(p - eps * v, mass)) / (2 * eps)
        mv = jac.matvec(v)
        scale = np.abs(fd).max()
        np.testing.assert_allclose(mv, fd, atol=1e-6 * scale)

    def test_cluster_decomposition_with_layering(self, fluid):
        from repro.cluster import ClusterFluxComputation

        mesh = CartesianMesh3D(8, 6, 3, dz_layers=np.array([1.0, 4.0, 2.0]))
        p = random_pressure(mesh, seed=21)
        ref = compute_flux_residual(mesh, fluid, p)
        cl = ClusterFluxComputation(mesh, fluid, px=2, py=2)
        result = cl.run([p])
        assert result.residual.tobytes() == ref.tobytes()
