"""Unit tests for the reference fold of Algorithm 1.

The fold shares the face-flux statement with every backend, so its
arithmetic is checked here against the one independent restatement,
:func:`~repro.core.kernels.face_flux_scalar`, summed cell by cell.
"""

import numpy as np
import pytest

from repro.core import (
    XY_CONNECTIONS,
    CartesianMesh3D,
    Transmissibility,
    compute_flux_residual,
    face_flux_scalar,
    hydrostatic_pressure,
    iter_neighbours,
    random_pressure,
)
from repro.core.constants import GRAVITY
from repro.ir.schedule import schedule_classes

PHASED_XY = tuple(conn.name for conn in XY_CONNECTIONS)


def event_order(mesh):
    return schedule_classes(mesh.nx, mesh.ny)


def brute_force_residual(mesh, fluid, pressure, trans, gravity=GRAVITY):
    """Direct transcription of Algorithm 1: loop cells, loop neighbours."""
    res = mesh.zeros()
    rho = fluid.density(pressure)
    z = mesh.elevation
    nx, ny, nz = mesh.shape_xyz
    for x in range(nx):
        for y in range(ny):
            for zc in range(nz):
                t_cell = trans.for_cell(x, y, zc)
                k = mesh.cell_index(x, y, zc)
                for conn, (xx, yy, zz) in iter_neighbours(x, y, zc, mesh.shape_xyz):
                    l = mesh.cell_index(xx, yy, zz)
                    res[k] += face_flux_scalar(
                        pressure[k], pressure[l], z[k], z[l],
                        rho[k], rho[l], t_cell[conn], gravity, fluid.viscosity,
                    )
    return res


class TestAgainstBruteForce:
    def test_small_homogeneous(self, small_mesh, fluid, small_trans, small_pressure):
        expected = brute_force_residual(small_mesh, fluid, small_pressure, small_trans)
        got = compute_flux_residual(small_mesh, fluid, small_pressure, small_trans)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-20)

    def test_heterogeneous(self, hetero_mesh, fluid, hetero_trans, hetero_pressure):
        expected = brute_force_residual(
            hetero_mesh, fluid, hetero_pressure, hetero_trans
        )
        got = compute_flux_residual(hetero_mesh, fluid, hetero_pressure, hetero_trans)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-20)

    def test_event_order_heterogeneous(
        self, hetero_mesh, fluid, hetero_trans, hetero_pressure
    ):
        expected = brute_force_residual(
            hetero_mesh, fluid, hetero_pressure, hetero_trans
        )
        got = compute_flux_residual(
            hetero_mesh, fluid, hetero_pressure, hetero_trans,
            order=event_order(hetero_mesh),
        )
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-20)


class TestOrders:
    def test_the_orders_differ_only_by_rounding(
        self, hetero_mesh, fluid, hetero_trans, hetero_pressure
    ):
        phased = compute_flux_residual(hetero_mesh, fluid, hetero_pressure, hetero_trans)
        event = compute_flux_residual(
            hetero_mesh, fluid, hetero_pressure, hetero_trans,
            order=event_order(hetero_mesh),
        )
        assert phased.tobytes() != event.tobytes()
        scale = np.abs(phased).max()
        np.testing.assert_allclose(phased, event, atol=1e-12 * scale)

    def test_one_rectangle_in_the_phased_order_is_the_phased_fold(
        self, hetero_mesh, fluid, hetero_pressure
    ):
        """An order rectangle may hold cells without some neighbour:
        they add ``+0.0``, which a residual folded from ``+0.0`` cannot
        show."""
        whole = [(PHASED_XY, slice(None), slice(None))]
        assert (
            compute_flux_residual(hetero_mesh, fluid, hetero_pressure, order=whole).tobytes()
            == compute_flux_residual(hetero_mesh, fluid, hetero_pressure).tobytes()
        )

    def test_each_rectangle_folds_in_its_own_order(self, hetero_mesh, fluid, hetero_pressure):
        """Two rectangles, two orders: each half has the bytes of the
        fold whose one order is its own."""
        ny = hetero_mesh.ny
        mixed = [
            (PHASED_XY, slice(0, 3), slice(None)),
            (PHASED_XY[::-1], slice(3, ny), slice(None)),
        ]
        got = compute_flux_residual(hetero_mesh, fluid, hetero_pressure, order=mixed)
        for names, ys, _xs in mixed:
            alone = compute_flux_residual(
                hetero_mesh, fluid, hetero_pressure,
                order=[(names, slice(None), slice(None))],
            )
            assert got[:, ys].tobytes() == alone[:, ys].tobytes()
        reversed_order = [(PHASED_XY[::-1], slice(None), slice(None))]
        assert got.tobytes() != compute_flux_residual(
            hetero_mesh, fluid, hetero_pressure, order=reversed_order
        ).tobytes()

    @pytest.mark.parametrize("order", ["phased", "event"])
    def test_global_mass_balance(
        self, hetero_mesh, fluid, hetero_trans, hetero_pressure, order
    ):
        """No-flow boundaries: fluxes cancel pairwise, sum(r) == 0."""
        r = compute_flux_residual(
            hetero_mesh, fluid, hetero_pressure, hetero_trans,
            order=event_order(hetero_mesh) if order == "event" else None,
        )
        scale = np.abs(r).max()
        assert abs(r.sum()) <= 1e-12 * scale * r.size


class TestInvariants:
    def test_uniform_pressure_no_gravity_zero_residual(self, small_mesh, fluid):
        p = small_mesh.full(1.5e7)
        r = compute_flux_residual(small_mesh, fluid, p, gravity=0.0)
        np.testing.assert_array_equal(r, 0.0)

    def test_uniform_pressure_with_gravity_nonzero(self, small_mesh, fluid):
        """Gravity drives vertical segregation flux even at uniform p."""
        p = small_mesh.full(1.5e7)
        r = compute_flux_residual(small_mesh, fluid, p)
        assert np.abs(r).max() > 0.0

    def test_hydrostatic_near_equilibrium(self, small_mesh, fluid):
        """Hydrostatic p nearly cancels the gravity flux of a uniform p.

        The rho_ref-based hydrostatic profile is only first-order exact for
        a compressible fluid, so we compare against the fully-segregating
        uniform-pressure state rather than demanding machine zero.
        """
        p_eq = hydrostatic_pressure(small_mesh, fluid)
        r_eq = np.abs(compute_flux_residual(small_mesh, fluid, p_eq)).max()
        p_uniform = small_mesh.full(float(p_eq.mean()))
        r_uniform = np.abs(compute_flux_residual(small_mesh, fluid, p_uniform)).max()
        assert r_eq < 1e-3 * r_uniform

    def test_diagonal_weight_zero_matches_seven_point(
        self, hetero_mesh, fluid, hetero_pressure
    ):
        """With diagonal_weight=0, only the 6 axis connections contribute."""
        t0 = Transmissibility(hetero_mesh, diagonal_weight=0.0)
        r = compute_flux_residual(hetero_mesh, fluid, hetero_pressure, t0)
        # brute force over the 6 axis connections only
        expected = brute_force_residual(hetero_mesh, fluid, hetero_pressure, t0)
        np.testing.assert_allclose(r, expected, rtol=1e-10)

    def test_single_column_mesh(self, fluid):
        """nx = ny = 1: only vertical fluxes exist."""
        mesh = CartesianMesh3D(1, 1, 8)
        p = random_pressure(mesh, seed=2)
        r = compute_flux_residual(mesh, fluid, p)
        scale = np.abs(r).max()
        assert scale > 0
        assert abs(r.sum()) <= 1e-12 * scale * r.size

    def test_single_layer_mesh(self, fluid):
        """nz = 1: no vertical fluxes; diagonals active."""
        mesh = CartesianMesh3D(5, 4, 1)
        p = random_pressure(mesh, seed=3)
        r = compute_flux_residual(mesh, fluid, p)
        assert np.abs(r).max() > 0

    def test_1x1x1_mesh_zero_residual(self, fluid):
        mesh = CartesianMesh3D(1, 1, 1)
        r = compute_flux_residual(mesh, fluid, mesh.full(2e7))
        np.testing.assert_array_equal(r, 0.0)


class TestReferenceFold:
    def test_repeated_calls_are_independent(
        self, small_mesh, fluid, small_trans
    ):
        p1 = random_pressure(small_mesh, seed=1)
        p2 = random_pressure(small_mesh, seed=2)
        r1a = compute_flux_residual(small_mesh, fluid, p1, small_trans)
        compute_flux_residual(small_mesh, fluid, p2, small_trans)
        r1b = compute_flux_residual(small_mesh, fluid, p1, small_trans)
        assert r1a.tobytes() == r1b.tobytes()

    def test_rejects_foreign_trans(self, small_mesh, hetero_mesh, fluid, small_pressure):
        t_other = Transmissibility(hetero_mesh)
        with pytest.raises(ValueError, match="different mesh"):
            compute_flux_residual(small_mesh, fluid, small_pressure, t_other)

    def test_rejects_wrong_shape_pressure(self, small_mesh, fluid):
        with pytest.raises(ValueError, match="pressure"):
            compute_flux_residual(small_mesh, fluid, np.zeros((1, 2, 3)))

    def test_float32_within_rounding_of_float64(self, small_mesh, fluid, small_pressure):
        """The fold runs in the pressure's dtype; a float64 trans is cast."""
        r32 = compute_flux_residual(
            small_mesh, fluid, small_pressure.astype(np.float32), Transmissibility(small_mesh)
        )
        assert r32.dtype == np.float32
        assert r32.tobytes() == compute_flux_residual(
            small_mesh, fluid, small_pressure.astype(np.float32)
        ).tobytes()
        r64 = compute_flux_residual(small_mesh, fluid, small_pressure)
        scale = np.abs(r64).max()
        np.testing.assert_allclose(r32, r64, atol=2e-4 * scale)
