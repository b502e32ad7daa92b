"""Property-based tests of the physics kernel invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    Transmissibility,
    compute_flux_residual,
    face_flux_scalar,
)
from repro.core.kernels import FluxScratch, face_flux
from repro.ir.schedule import schedule_classes

G = 9.80665

pressures = st.floats(min_value=1e5, max_value=1e8, allow_subnormal=False)
elevations = st.floats(
    min_value=-1000.0, max_value=1000.0, allow_subnormal=False
)
densities = st.floats(min_value=1.0, max_value=2000.0, allow_subnormal=False)
transmissibilities = st.floats(
    min_value=1e-18, max_value=1e-8, allow_subnormal=False
)


@st.composite
def face_args(draw):
    return dict(
        p_k=draw(pressures),
        p_l=draw(pressures),
        z_k=draw(elevations),
        z_l=draw(elevations),
        rho_k=draw(densities),
        rho_l=draw(densities),
        trans=draw(transmissibilities),
    )


class TestFaceFluxProperties:
    @given(face_args())
    def test_antisymmetry_exact(self, args):
        """F_LK == -F_KL bit for bit (Sec. 3 flux reciprocity)."""
        fwd = face_flux_scalar(**args, gravity=G, viscosity=5e-5)
        rev = face_flux_scalar(
            p_k=args["p_l"], p_l=args["p_k"],
            z_k=args["z_l"], z_l=args["z_k"],
            rho_k=args["rho_l"], rho_l=args["rho_k"],
            trans=args["trans"], gravity=G, viscosity=5e-5,
        )
        assert rev == -fwd

    @given(face_args())
    def test_zero_at_equal_potential(self, args):
        args["p_l"] = args["p_k"]
        args["z_l"] = args["z_k"]
        f = face_flux_scalar(**args, gravity=G, viscosity=5e-5)
        assert f == 0.0

    @given(face_args(), st.floats(min_value=0.1, max_value=10.0))
    def test_linear_in_transmissibility(self, args, factor):
        f1 = face_flux_scalar(**args, gravity=G, viscosity=5e-5)
        args2 = dict(args)
        args2["trans"] = args["trans"] * factor
        f2 = face_flux_scalar(**args2, gravity=G, viscosity=5e-5)
        assert f2 == np.float64(f1) * factor or np.isclose(f2, f1 * factor, rtol=1e-12)

    @given(face_args(), st.floats(min_value=0.5, max_value=2.0))
    def test_inverse_in_viscosity(self, args, mu_factor):
        mu = 5e-5
        f1 = face_flux_scalar(**args, gravity=G, viscosity=mu)
        f2 = face_flux_scalar(**args, gravity=G, viscosity=mu * mu_factor)
        np.testing.assert_allclose(f2 * mu_factor, f1, rtol=1e-12, atol=1e-300)

    @given(face_args())
    def test_sign_follows_potential(self, args):
        """Flux and potential difference share their sign."""
        rho_avg = 0.5 * (args["rho_k"] + args["rho_l"])
        dphi = (args["p_l"] - args["p_k"]) + rho_avg * G * (
            args["z_l"] - args["z_k"]
        )
        f = face_flux_scalar(**args, gravity=G, viscosity=5e-5)
        # f may underflow to exact zero for denormal-scale potentials
        assert np.sign(f) == np.sign(dphi) or f == 0.0

    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=64),
            elements=st.floats(min_value=9e6, max_value=1.1e7),
        )
    )
    def test_vectorized_matches_scalar(self, p_l):
        n = p_l.size
        p_k = np.full(n, 1e7)
        z = np.zeros(n)
        rho = np.full(n, 700.0)
        trans = np.full(n, 1e-13)
        lam = rho * (1.0 / 5e-5)
        s = FluxScratch.empty(n, np.float64)
        face_flux(s, p_k, p_l, z, z, rho, rho, lam, lam, trans, s.a, G)
        vec = s.a
        for i in range(n):
            expected = face_flux_scalar(
                p_k[i], p_l[i], 0.0, 0.0, 700.0, 700.0, 1e-13, G, 5e-5
            )
            np.testing.assert_allclose(vec[i], expected, rtol=1e-12)


class TestEosProperties:
    @given(st.floats(min_value=1e5, max_value=1e8))
    def test_density_positive(self, p):
        assert FluidProperties().density(p) > 0

    @given(
        st.floats(min_value=1e5, max_value=1e8),
        st.floats(min_value=1e5, max_value=1e8),
    )
    def test_density_monotone(self, p1, p2):
        # non-strict: pressures a few ulps apart may round to one density
        f = FluidProperties()
        if p1 < p2:
            assert f.density(p1) <= f.density(p2)
        elif p1 > p2:
            assert f.density(p1) >= f.density(p2)

    @given(st.floats(min_value=1e5, max_value=1e8))
    def test_density_derivative_consistent(self, p):
        f = FluidProperties()
        assert f.density_derivative(p) == f.compressibility * f.density(p)


class TestResidualProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        nx=st.integers(min_value=1, max_value=5),
        ny=st.integers(min_value=1, max_value=5),
        nz=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_global_mass_balance_any_shape(self, nx, ny, nz, seed):
        """sum(residual) == 0 for every mesh shape and pressure field."""
        mesh = CartesianMesh3D(nx, ny, nz)
        fluid = FluidProperties()
        rng = np.random.default_rng(seed)
        p = 1e7 + 1e6 * rng.standard_normal(mesh.shape_zyx)
        r = compute_flux_residual(mesh, fluid, p)
        scale = max(np.abs(r).max(), 1e-30)
        assert abs(r.sum()) <= 1e-10 * scale * max(r.size, 1)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        weight=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_methods_agree_for_any_diagonal_weight(self, seed, weight):
        """The two fold orders differ by the rounding of the last
        additions only, whatever the diagonal weight."""
        mesh = CartesianMesh3D(4, 3, 3)
        fluid = FluidProperties()
        trans = Transmissibility(mesh, diagonal_weight=weight)
        rng = np.random.default_rng(seed)
        p = 1e7 + 1e6 * rng.standard_normal(mesh.shape_zyx)
        phased = compute_flux_residual(mesh, fluid, p, trans)
        event = compute_flux_residual(
            mesh, fluid, p, trans, order=schedule_classes(mesh.nx, mesh.ny)
        )
        scale = max(np.abs(phased).max(), 1e-30)
        np.testing.assert_allclose(phased, event, atol=1e-12 * scale)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shift=st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_incompressible_pressure_shift_invariance(self, seed, shift):
        """With c_f = 0 and no gravity, shifting p uniformly leaves the
        residual unchanged (the kernel sees only differences)."""
        mesh = CartesianMesh3D(4, 4, 2)
        fluid = FluidProperties(compressibility=0.0)
        rng = np.random.default_rng(seed)
        p = 1e7 + 1e6 * rng.standard_normal(mesh.shape_zyx)
        r1 = compute_flux_residual(mesh, fluid, p, gravity=0.0)
        r2 = compute_flux_residual(mesh, fluid, p + shift, gravity=0.0)
        scale = max(np.abs(r1).max(), 1e-30)
        np.testing.assert_allclose(r1, r2, atol=1e-9 * scale)
