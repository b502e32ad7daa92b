"""Tests for the implicit residual and Jacobian operators."""

import numpy as np
import pytest

from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    Transmissibility,
    compute_flux_residual,
    random_pressure,
)
from repro.solver.operators import (
    FlowResidual,
    MatrixFreeJacobian,
    assemble_jacobian,
)


@pytest.fixture
def problem(hetero_mesh, fluid):
    res = FlowResidual(hetero_mesh, fluid, dt=3600.0)
    p = random_pressure(hetero_mesh, seed=13, amplitude=2e5)
    return res, p


class TestFlowResidual:
    def test_steady_uniform_no_gravity_residual_is_zero(self, fluid):
        mesh = CartesianMesh3D(4, 4, 3)
        res = FlowResidual(mesh, fluid, dt=100.0, gravity=0.0)
        p = mesh.full(2e7)
        mass = res.mass_density(p)
        np.testing.assert_allclose(res(p, mass), 0.0, atol=1e-12)

    def test_reduces_to_flux_when_dt_large(self, problem, hetero_mesh, fluid):
        """With the accumulation term ~0 (huge dt, same state), the
        residual is minus the (inflow-positive) flux residual of
        Algorithm 1 — see the FlowResidual sign note."""
        res = FlowResidual(hetero_mesh, fluid, dt=1e30)
        p = random_pressure(hetero_mesh, seed=1)
        mass = res.mass_density(p)
        flux = compute_flux_residual(hetero_mesh, fluid, p, res.trans)
        scale = np.abs(flux).max()
        np.testing.assert_allclose(res(p, mass), -flux, atol=1e-10 * scale)

    def test_accumulation_sign(self, fluid):
        """Raising pressure stores mass: positive accumulation residual."""
        mesh = CartesianMesh3D(3, 3, 2)
        res = FlowResidual(mesh, fluid, dt=10.0, gravity=0.0)
        p_old = mesh.full(1e7)
        mass_old = res.mass_density(p_old)
        p_new = mesh.full(1.1e7)
        r = res(p_new, mass_old)
        assert np.all(r > 0)

    def test_source_subtracts(self, fluid):
        mesh = CartesianMesh3D(3, 3, 2)
        src = mesh.zeros()
        src[0, 0, 0] = 5.0
        res = FlowResidual(mesh, fluid, dt=10.0, gravity=0.0, source=src)
        p = mesh.full(1e7)
        r = res(p, res.mass_density(p))
        assert r[0, 0, 0] == pytest.approx(-5.0)
        assert r[1, 1, 1] == 0.0

    def test_mass_density_positive(self, problem):
        res, p = problem
        assert np.all(res.mass_density(p) > 0)

    def test_mass_density_derivative_fd(self, problem):
        res, p = problem
        eps = 10.0
        fd = (res.mass_density(p + eps) - res.mass_density(p - eps)) / (2 * eps)
        np.testing.assert_allclose(
            res.mass_density_derivative(p), fd, rtol=1e-6
        )

    def test_rejects_nonpositive_dt(self, hetero_mesh, fluid):
        with pytest.raises(ValueError, match="dt"):
            FlowResidual(hetero_mesh, fluid, dt=0.0)

    def test_rejects_bad_source_shape(self, hetero_mesh, fluid):
        with pytest.raises(ValueError, match="source"):
            FlowResidual(hetero_mesh, fluid, dt=1.0, source=np.zeros((1, 1, 1)))


class TestMatrixFreeJacobian:
    def test_matches_assembled(self, problem):
        res, p = problem
        jac = MatrixFreeJacobian(res, p)
        J = assemble_jacobian(res, p)
        rng = np.random.default_rng(3)
        for _ in range(3):
            v = rng.standard_normal(jac.n)
            mv = jac.matvec(v)
            av = J @ v
            np.testing.assert_allclose(mv, av, rtol=1e-12, atol=1e-20)

    def test_diagonal_matches_assembled(self, problem):
        res, p = problem
        jac = MatrixFreeJacobian(res, p)
        J = assemble_jacobian(res, p)
        np.testing.assert_allclose(
            jac.diagonal().ravel(), J.diagonal(), rtol=1e-12
        )

    def test_matches_finite_difference(self, problem):
        res, p = problem
        jac = MatrixFreeJacobian(res, p)
        mass = res.mass_density(p)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(res.mesh.shape_zyx)
        eps = 1.0
        fd = (res(p + eps * v, mass) - res(p - eps * v, mass)) / (2 * eps)
        mv = jac.matvec(v)
        scale = np.abs(fd).max()
        np.testing.assert_allclose(mv, fd, atol=1e-6 * scale)

    def test_field_and_flat_shapes(self, problem):
        res, p = problem
        jac = MatrixFreeJacobian(res, p)
        v = np.ones(jac.n)
        flat = jac.matvec(v)
        field = jac.matvec(v.reshape(res.mesh.shape_zyx))
        assert flat.shape == (jac.n,)
        assert field.shape == res.mesh.shape_zyx
        np.testing.assert_array_equal(flat, field.ravel())

    def test_matmul_operator(self, problem):
        res, p = problem
        jac = MatrixFreeJacobian(res, p)
        v = np.ones(jac.n)
        np.testing.assert_array_equal(jac @ v, jac.matvec(v))

    def test_diagonal_positive(self, problem):
        """Accumulation + outflow derivatives make the diagonal positive
        (an M-matrix-like structure required by Jacobi scaling)."""
        res, p = problem
        jac = MatrixFreeJacobian(res, p)
        assert np.all(jac.diagonal() > 0)


class TestAssembledJacobian:
    def test_shape_and_sparsity(self, problem):
        res, p = problem
        J = assemble_jacobian(res, p)
        n = res.mesh.num_cells
        assert J.shape == (n, n)
        # at most 11 entries per row (diagonal + 10 neighbours)
        assert J.nnz <= 11 * n

    def test_scipy_is_imported_by_the_assembly_and_not_before(
        self, fresh_interpreter
    ):
        """The implicit solver is matrix-free; only asking for the
        explicit matrix pays SciPy's ~0.3 s import."""
        out = fresh_interpreter(
            "import sys\n"
            "from repro.core import CartesianMesh3D, FluidProperties\n"
            "from repro.core import random_pressure\n"
            "import repro.solver as solver\n"
            "mesh = CartesianMesh3D(4, 3, 2)\n"
            "res = solver.FlowResidual(mesh, FluidProperties(), dt=3600.0)\n"
            "p = random_pressure(mesh, seed=1)\n"
            "solver.MatrixFreeJacobian(res, p).diagonal()\n"
            "print('scipy' in sys.modules)\n"
            "J = solver.assemble_jacobian(res, p)\n"
            "print(type(J).__name__, 'scipy.sparse' in sys.modules)\n"
        )
        assert out.split() == ["False", "csr_matrix", "True"]

    def test_row_sums_without_compressibility(self, hetero_mesh):
        """With incompressible fluid and no gravity the flux Jacobian has
        zero row sums (pure difference operator) plus accumulation."""
        fluid = FluidProperties(compressibility=0.0)
        res = FlowResidual(
            hetero_mesh, fluid, dt=1.0, gravity=0.0, rock_compressibility=0.0
        )
        p = random_pressure(hetero_mesh, seed=5)
        J = assemble_jacobian(res, p)
        row_sums = np.asarray(J.sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, 0.0, atol=1e-6)
