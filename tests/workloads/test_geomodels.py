"""Unit tests for synthetic geomodel generators."""

import numpy as np
import pytest

from repro.core.constants import DEFAULT_PERMEABILITY, MILLIDARCY
from repro.workloads.geomodels import (
    _gaussian_smooth,
    channelized_permeability,
    layered_permeability,
    lognormal_permeability,
    make_geomodel,
    uniform_permeability,
)

SHAPE = (5, 8, 10)


class TestUniform:
    def test_constant(self):
        k = uniform_permeability(SHAPE, 3e-13)
        assert k.shape == SHAPE
        assert np.all(k == 3e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            uniform_permeability(SHAPE, 0.0)


class TestLayered:
    def test_constant_within_layers(self):
        k = layered_permeability(SHAPE, seed=1)
        for z in range(SHAPE[0]):
            assert np.all(k[z] == k[z, 0, 0])

    def test_layers_differ(self):
        k = layered_permeability(SHAPE, seed=1)
        assert len({float(k[z, 0, 0]) for z in range(SHAPE[0])}) > 1

    def test_deterministic(self):
        np.testing.assert_array_equal(
            layered_permeability(SHAPE, seed=5), layered_permeability(SHAPE, seed=5)
        )

    def test_rejects_contrast_below_one(self):
        with pytest.raises(ValueError):
            layered_permeability(SHAPE, contrast=0.5)

    def test_all_positive(self):
        assert np.all(layered_permeability(SHAPE, seed=2) > 0)


class TestLognormal:
    def test_shape_and_positivity(self):
        k = lognormal_permeability(SHAPE, seed=0)
        assert k.shape == SHAPE
        assert np.all(k > 0)

    def test_log_std_controls_spread(self):
        tight = lognormal_permeability(SHAPE, seed=0, log_std=0.1)
        wide = lognormal_permeability(SHAPE, seed=0, log_std=2.0)
        assert np.log(wide).std() > np.log(tight).std()

    def test_log_std_normalized(self):
        k = lognormal_permeability((12, 24, 24), seed=3, log_std=1.0)
        assert np.log(k).std() == pytest.approx(1.0, rel=1e-6)

    def test_spatial_correlation(self):
        """Adjacent cells correlate more than distant ones."""
        k = np.log(lognormal_permeability((4, 32, 32), seed=1, correlation_length=4.0))
        x = k[2]
        near = np.corrcoef(x[:, :-1].ravel(), x[:, 1:].ravel())[0, 1]
        far = np.corrcoef(x[:, :-16].ravel(), x[:, 16:].ravel())[0, 1]
        assert near > 0.8
        assert near > far

    def test_zero_log_std_uniform(self):
        k = lognormal_permeability(SHAPE, seed=0, log_std=0.0)
        assert np.allclose(k, k.flat[0])

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            lognormal_permeability(SHAPE, log_std=-1.0)

    def test_rejects_negative_correlation_length(self):
        with pytest.raises(ValueError, match="correlation_length"):
            lognormal_permeability(SHAPE, correlation_length=-1.0)

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.12])
    def test_kernel_radius_zero_is_uncorrelated(self, sigma):
        """int(4 sigma + 0.5) == 0: the filter is the identity, so the
        field is the renormalised white noise itself."""
        noise = np.random.default_rng(2).standard_normal(SHAPE)
        assert _gaussian_smooth(noise, sigma) is noise
        k = lognormal_permeability(
            SHAPE, seed=2, mean=1.0, log_std=1.0, correlation_length=sigma
        )
        expected = np.exp(noise / noise.std() - 0.5)
        assert k.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (1, 30, 2), (40, 3, 3), (8, 24, 24), (16, 48, 48)]
    )
    def test_equals_the_scipy_formula_byte_for_byte(self, shape):
        """Goldens and ``.rpz`` mesh recipes pin these bytes (DESIGN.md
        §2.1): the NumPy fold must be SciPy's filter, not close to it —
        including meshes narrower than the kernel radius."""
        ndimage = pytest.importorskip("scipy.ndimage")
        for seed in range(3):
            noise = np.random.default_rng(seed).standard_normal(shape)
            untouched = noise.copy()
            for sigma in (0.1, 0.5, 1, 2.5, 3, 7):
                ref = ndimage.gaussian_filter(noise, sigma=sigma, mode="nearest")
                with np.errstate(all="raise"):
                    smooth = _gaussian_smooth(noise, float(sigma))
                    field = lognormal_permeability(
                        shape, seed=seed, correlation_length=sigma
                    )
                assert smooth.tobytes() == ref.tobytes(), (seed, sigma)
                if ref.std() > 0:
                    ref = ref / ref.std()
                expected = DEFAULT_PERMEABILITY * np.exp(ref - 0.5)  # log_std 1
                assert field.tobytes() == expected.tobytes(), (seed, sigma)
            assert noise.tobytes() == untouched.tobytes()


class TestChannelized:
    def test_two_populations(self):
        k = channelized_permeability(SHAPE, seed=0)
        values = np.unique(k)
        assert len(values) == 2
        assert values[0] == pytest.approx(10 * MILLIDARCY)
        assert values[1] == pytest.approx(1000 * MILLIDARCY)

    def test_channels_present(self):
        k = channelized_permeability(SHAPE, seed=0)
        assert (k == k.max()).sum() > 0

    def test_deterministic(self):
        np.testing.assert_array_equal(
            channelized_permeability(SHAPE, seed=4),
            channelized_permeability(SHAPE, seed=4),
        )

    def test_rejects_inverted_contrast(self):
        with pytest.raises(ValueError):
            channelized_permeability(SHAPE, background=1e-12, channel=1e-13)

    def test_channels_span_x(self):
        """Each X column contains channel cells (channels run along X)."""
        k = channelized_permeability((6, 10, 12), seed=2, num_channels=3)
        for x in range(12):
            assert (k[:, :, x] == k.max()).any()


class TestMakeGeomodel:
    @pytest.mark.parametrize("kind", ["uniform", "layered", "lognormal", "channelized"])
    def test_builds_mesh(self, kind):
        mesh = make_geomodel(6, 5, 4, kind=kind, seed=0)
        assert mesh.shape_xyz == (6, 5, 4)
        assert mesh.permeability.shape == (4, 5, 6)
        assert np.all(mesh.permeability > 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown geomodel"):
            make_geomodel(2, 2, 2, kind="fractal")

    def test_spacing_forwarded(self):
        mesh = make_geomodel(2, 2, 2, kind="uniform", dx=25.0)
        assert mesh.dx == 25.0
