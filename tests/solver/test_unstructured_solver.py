"""Tests for the implicit solver on unstructured topologies."""

import numpy as np
import pytest

from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    Transmissibility,
    random_pressure,
)
from repro.core.unstructured import delaunay_mesh_2d, from_cartesian
from repro.solver import (
    FlowResidual,
    MatrixFreeJacobian,
    SolverDivergence,
    UnstructuredFlowResidual,
    UnstructuredMatrixFreeJacobian,
    assemble_unstructured_jacobian,
    newton_solve,
)

FLUID = FluidProperties()


@pytest.fixture(scope="module")
def cartesian_pair():
    """A structured problem and its connection-list twin."""
    mesh = CartesianMesh3D(5, 4, 3)
    trans = Transmissibility(mesh)
    umesh = from_cartesian(mesh, trans)
    s_res = FlowResidual(mesh, FLUID, dt=3600.0, trans=trans)
    u_res = UnstructuredFlowResidual(
        umesh, FLUID, dt=3600.0, porosity=float(mesh.porosity[0, 0, 0])
    )
    p = random_pressure(mesh, seed=40, amplitude=2e5)
    return mesh, s_res, u_res, p


class TestResidualEquivalence:
    def test_matches_structured_residual(self, cartesian_pair):
        mesh, s_res, u_res, p = cartesian_pair
        mass_s = s_res.mass_density(p)
        mass_u = u_res.mass_density(p.ravel())
        np.testing.assert_allclose(mass_u, mass_s.ravel(), rtol=1e-13)
        r_s = s_res(p, mass_s)
        r_u = u_res(p.ravel(), mass_u)
        scale = np.abs(r_s).max()
        np.testing.assert_allclose(r_u, r_s.ravel(), atol=1e-11 * scale)

    def test_source_term(self, cartesian_pair):
        mesh, _, _, p = cartesian_pair
        umesh = from_cartesian(mesh)
        src = np.zeros(umesh.num_cells)
        src[5] = 3.0
        res = UnstructuredFlowResidual(umesh, FLUID, dt=10.0, source=src)
        r = res(p.ravel(), res.mass_density(p.ravel()))
        r0 = UnstructuredFlowResidual(umesh, FLUID, dt=10.0)(
            p.ravel(), res.mass_density(p.ravel())
        )
        np.testing.assert_allclose(r, r0 - src)

    def test_rejects_bad_inputs(self):
        umesh = delaunay_mesh_2d(20, seed=0)
        with pytest.raises(ValueError, match="dt"):
            UnstructuredFlowResidual(umesh, FLUID, dt=0.0)
        with pytest.raises(ValueError, match="porosity"):
            UnstructuredFlowResidual(umesh, FLUID, dt=1.0, porosity=0.0)
        with pytest.raises(ValueError, match="source"):
            UnstructuredFlowResidual(umesh, FLUID, dt=1.0, source=np.zeros(3))


class TestJacobian:
    def test_matches_structured_jacobian(self, cartesian_pair):
        mesh, s_res, u_res, p = cartesian_pair
        s_jac = MatrixFreeJacobian(s_res, p)
        u_jac = UnstructuredMatrixFreeJacobian(u_res, p.ravel())
        rng = np.random.default_rng(2)
        v = rng.standard_normal(mesh.num_cells)
        mv_s = s_jac.matvec(v)
        mv_u = u_jac.matvec(v)
        scale = np.abs(mv_s).max()
        np.testing.assert_allclose(mv_u, mv_s, atol=1e-11 * scale)
        np.testing.assert_allclose(
            u_jac.diagonal(), s_jac.diagonal().ravel(), rtol=1e-10
        )

    def test_matches_finite_difference_on_delaunay(self):
        umesh = delaunay_mesh_2d(60, seed=3)
        res = UnstructuredFlowResidual(umesh, FLUID, dt=3600.0, gravity=0.0)
        rng = np.random.default_rng(4)
        p = 1e7 + 2e5 * rng.standard_normal(umesh.num_cells)
        jac = UnstructuredMatrixFreeJacobian(res, p)
        mass = res.mass_density(p)
        v = rng.standard_normal(umesh.num_cells)
        eps = 1.0
        fd = (res(p + eps * v, mass) - res(p - eps * v, mass)) / (2 * eps)
        mv = jac.matvec(v)
        scale = np.abs(fd).max()
        np.testing.assert_allclose(mv, fd, atol=1e-6 * scale)

    def test_assembled_matches_matfree(self):
        umesh = delaunay_mesh_2d(40, seed=5)
        res = UnstructuredFlowResidual(umesh, FLUID, dt=100.0)
        rng = np.random.default_rng(6)
        p = 1e7 + 1e5 * rng.standard_normal(umesh.num_cells)
        jac = UnstructuredMatrixFreeJacobian(res, p)
        J = assemble_unstructured_jacobian(res, p)
        v = rng.standard_normal(umesh.num_cells)
        np.testing.assert_allclose(jac.matvec(v), J @ v, rtol=1e-12, atol=1e-20)

    def test_rejects_wrong_size(self):
        umesh = delaunay_mesh_2d(10, seed=0)
        res = UnstructuredFlowResidual(umesh, FLUID, dt=1.0)
        jac = UnstructuredMatrixFreeJacobian(res, np.full(10, 1e7))
        with pytest.raises(ValueError):
            jac.matvec(np.zeros(11))


class TestNewton:
    def test_matches_structured_newton(self, cartesian_pair):
        """Same problem, same Newton trajectory, same answer."""
        mesh, s_res, u_res, p = cartesian_pair
        s_result = newton_solve(s_res, p, rtol=1e-9)
        u_result = newton_solve(u_res, p.ravel(), rtol=1e-9)
        assert s_result.converged and u_result.converged
        assert s_result.iterations == u_result.iterations
        scale = np.abs(s_result.pressure).max()
        np.testing.assert_allclose(
            u_result.pressure,
            s_result.pressure.ravel(),
            atol=1e-7 * scale,
        )

    def test_injection_on_delaunay_conserves_mass(self):
        """A source on a random triangulation: implicit step conserves
        mass to Newton tolerance."""
        umesh = delaunay_mesh_2d(80, seed=7)
        src = np.zeros(umesh.num_cells)
        src[40] = 2.0
        dt = 3600.0
        res = UnstructuredFlowResidual(
            umesh, FLUID, dt=dt, gravity=0.0, source=src
        )
        p0 = np.full(umesh.num_cells, 1.5e7)
        result = newton_solve(res, p0, rtol=1e-10)
        assert result.converged
        mass0 = (res.mass_density(p0) * umesh.volumes).sum()
        mass1 = (res.mass_density(result.pressure) * umesh.volumes).sum()
        assert mass1 - mass0 == pytest.approx(2.0 * dt, rel=1e-6)

    def test_pressure_peaks_at_source(self):
        umesh = delaunay_mesh_2d(80, seed=8)
        src = np.zeros(umesh.num_cells)
        src[10] = 4.0
        res = UnstructuredFlowResidual(
            umesh, FLUID, dt=3600.0, gravity=0.0, source=src
        )
        result = newton_solve(
            res, np.full(umesh.num_cells, 1.5e7), rtol=1e-9
        )
        assert result.converged
        assert int(np.argmax(result.pressure)) == 10

    def test_nan_state_is_reported_by_newton(self, cartesian_pair):
        """One Newton loop: a NaN cell on the connection list diverges
        in Newton with its history, as on the structured mesh — not in
        the Krylov solve."""
        mesh, s_res, u_res, p = cartesian_pair
        p = p.copy()
        p[1, 2, 3] = np.nan
        for res, field in ((s_res, p), (u_res, p.ravel())):
            with pytest.raises(SolverDivergence, match="initial residual is nan") as info:
                newton_solve(res, field)
            assert info.value.solver == "newton"
            assert info.value.history
