"""Unit tests for the fluid property model (paper Eqs. 4-5)."""

import numpy as np
import pytest

from repro.core import FluidProperties, constants
from repro.core.kernels import upwind_select


class TestFluidProperties:
    def test_density_at_reference(self, fluid):
        assert fluid.density(fluid.reference_pressure) == pytest.approx(
            fluid.reference_density
        )

    def test_density_exponential_form(self, fluid):
        p = fluid.reference_pressure + 5e6
        expected = fluid.reference_density * np.exp(
            fluid.compressibility * (p - fluid.reference_pressure)
        )
        assert fluid.density(p) == pytest.approx(expected, rel=1e-14)

    def test_density_array(self, fluid):
        p = np.array([1e7, 2e7, 3e7])
        rho = fluid.density(p)
        assert rho.shape == (3,)
        assert np.all(np.diff(rho) > 0)  # monotone increasing in p

    def test_density_out_parameter_in_place(self, fluid):
        p = np.array([1e7, 2e7])
        out = np.empty(2)
        result = fluid.density(p, out=out)
        assert result is out
        np.testing.assert_allclose(out, fluid.density(p))

    def test_density_derivative_matches_finite_difference(self, fluid):
        p = 1.3e7
        eps = 1.0
        fd = (fluid.density(p + eps) - fluid.density(p - eps)) / (2 * eps)
        assert fluid.density_derivative(p) == pytest.approx(fd, rel=1e-6)

    def test_incompressible_limit(self):
        f = FluidProperties(compressibility=0.0)
        assert f.density(1e5) == f.reference_density
        assert f.density(9e7) == f.reference_density

    def test_mobility(self, fluid):
        rho = 700.0
        assert fluid.mobility(rho) == pytest.approx(rho / fluid.viscosity)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mobility_multiplies_by_the_reciprocal_in_place(self, fluid, dtype):
        """``rho * (1/mu)`` in the density's dtype, into ``out``: the
        bits the DSD sequence's per-face multiply gives (step 10)."""
        rho = (700.0 + np.random.default_rng(0).random(64)).astype(dtype)
        out = np.empty_like(rho)
        assert fluid.mobility(rho, out=out) is out
        want = rho * dtype(1.0 / fluid.viscosity)
        assert out.dtype == dtype and out.tobytes() == want.tobytes()

    def test_rejects_nonpositive_viscosity(self):
        with pytest.raises(ValueError, match="viscosity"):
            FluidProperties(viscosity=0.0)

    def test_rejects_negative_compressibility(self):
        with pytest.raises(ValueError, match="compressibility"):
            FluidProperties(compressibility=-1e-9)

    def test_rejects_nonpositive_reference_density(self):
        with pytest.raises(ValueError, match="reference_density"):
            FluidProperties(reference_density=-1.0)

    def test_frozen(self, fluid):
        with pytest.raises(AttributeError):
            fluid.viscosity = 1.0

    def test_defaults_match_constants(self):
        f = FluidProperties()
        assert f.viscosity == constants.DEFAULT_VISCOSITY
        assert f.compressibility == constants.DEFAULT_COMPRESSIBILITY


def upwind_mobility(dphi, rho_k, rho_l, viscosity):
    """Eq. 4 as the flux kernels form it: each side's mobility from
    :meth:`FluidProperties.mobility`, then :func:`upwind_select`."""
    fluid = FluidProperties(viscosity=viscosity)
    dphi, rho_k, rho_l = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, np.float64)) for x in (dphi, rho_k, rho_l))
    )
    out = np.empty(dphi.shape)
    upwind_select(
        np.empty(dphi.shape, np.uint64), dphi,
        fluid.mobility(rho_k), fluid.mobility(rho_l), out,
    )
    return out


class TestUpwindMobility:
    """Eq. 4: rho_K / mu when dPhi > 0, rho_L / mu otherwise."""

    def test_positive_potential_picks_local(self):
        lam = upwind_mobility(1.0, 700.0, 800.0, viscosity=2.0)
        assert lam.tolist() == [350.0]

    def test_negative_potential_picks_neighbour(self):
        lam = upwind_mobility(-1.0, 700.0, 800.0, viscosity=2.0)
        assert lam.tolist() == [400.0]

    def test_zero_potential_picks_neighbour_branch(self):
        # Eq. 4's 'otherwise' covers dPhi == 0 (flux is zero regardless).
        lam = upwind_mobility(0.0, 700.0, 800.0, viscosity=2.0)
        assert lam.tolist() == [400.0]

    def test_vectorized(self):
        dphi = np.array([2.0, -3.0, 0.0])
        lam = upwind_mobility(dphi, 10.0, 20.0, viscosity=1.0)
        np.testing.assert_allclose(lam, [10.0, 20.0, 20.0])

    def test_array_densities(self):
        dphi = np.array([1.0, -1.0])
        rho_k = np.array([1.0, 2.0])
        rho_l = np.array([3.0, 4.0])
        lam = upwind_mobility(dphi, rho_k, rho_l, viscosity=1.0)
        np.testing.assert_allclose(lam, [1.0, 4.0])
