"""Property-based tests for the extension subsystems (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterFluxComputation
from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    compute_flux_residual,
)
from repro.core.unstructured import delaunay_mesh_2d, unstructured_flux_residual
from repro.dataflow.unstructured_map import GridEmbedding, analyze_embedding
from repro.wave import TTIMedium

FLUID = FluidProperties()


class TestClusterProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        px=st.integers(min_value=1, max_value=4),
        py=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_any_decomposition_matches_reference(self, px, py, seed):
        """Halo exchange is correct for every process-grid shape."""
        mesh = CartesianMesh3D(7, 6, 3)
        rng = np.random.default_rng(seed)
        p = 1e7 + 1e6 * rng.standard_normal(mesh.shape_zyx)
        ref = compute_flux_residual(mesh, FLUID, p)
        result = ClusterFluxComputation(mesh, FLUID, px=px, py=py).run([p])
        assert result.residual.tobytes() == ref.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(
        nx=st.integers(min_value=4, max_value=12),
        ny=st.integers(min_value=4, max_value=12),
    )
    def test_halo_volume_formula(self, nx, ny):
        """2x1 split: halo bytes = 2 sides x ny x nz x 8 B, any mesh."""
        nz = 2
        mesh = CartesianMesh3D(nx, ny, nz)
        result = ClusterFluxComputation(mesh, FLUID, px=2, py=1).run(
            [mesh.full(1.2e7)]
        )
        assert result.halo_bytes_per_application == 2 * ny * nz * 8


class TestUnstructuredProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=10, max_value=120),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_mass_balance_any_delaunay(self, n, seed):
        mesh = delaunay_mesh_2d(n, seed=seed)
        rng = np.random.default_rng(seed)
        p = 1e7 + 1e5 * rng.standard_normal(mesh.num_cells)
        r = unstructured_flux_residual(mesh, FLUID, p, gravity=0.0)
        scale = max(np.abs(r).max(), 1e-30)
        assert abs(r.sum()) <= 1e-10 * scale * mesh.num_cells

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=100),
        seed=st.integers(min_value=0, max_value=2**16),
        strategy=st.sampled_from(["spatial", "bfs", "random"]),
    )
    def test_embedding_always_valid(self, n, seed, strategy):
        """Every strategy produces an injective on-fabric embedding."""
        mesh = delaunay_mesh_2d(max(n, 3), seed=seed)
        emb = GridEmbedding.build(mesh, strategy=strategy, seed=seed)
        analysis = analyze_embedding(mesh, emb)
        assert analysis.num_connections == mesh.num_connections
        assert analysis.max_hops >= 1
        assert 0.0 <= analysis.single_hop_fraction <= 1.0
        assert analysis.within_two_hops_fraction >= analysis.single_hop_fraction


class TestWaveMediumProperties:
    @settings(max_examples=50)
    @given(
        eps=st.floats(min_value=-0.4, max_value=0.6, allow_subnormal=False),
        theta=st.floats(min_value=-3.2, max_value=3.2, allow_subnormal=False),
    )
    def test_horizontal_operator_trace_invariant(self, eps, theta):
        """wxx + wyy is rotation invariant: 2 + 2 eps for any tilt."""
        m = TTIMedium(epsilon=eps, theta=theta)
        assert m.wxx + m.wyy == np.float64(2 + 2 * eps) or np.isclose(
            m.wxx + m.wyy, 2 + 2 * eps, rtol=1e-12
        )

    @settings(max_examples=50)
    @given(
        eps=st.floats(min_value=-0.4, max_value=0.6, allow_subnormal=False),
        theta=st.floats(min_value=-3.2, max_value=3.2, allow_subnormal=False),
    )
    def test_operator_stays_elliptic(self, eps, theta):
        """Eigenvalues of the horizontal operator are 1+2eps and 1 > 0:
        wxx*wyy - (wxy/2)^2 = (1+2eps) exactly."""
        m = TTIMedium(epsilon=eps, theta=theta)
        det = m.wxx * m.wyy - (m.wxy / 2.0) ** 2
        assert np.isclose(det, 1 + 2 * eps, rtol=1e-10)
        assert det > 0

    @settings(max_examples=30)
    @given(
        vel=st.floats(min_value=500.0, max_value=6000.0, allow_subnormal=False),
        eps=st.floats(min_value=0.0, max_value=0.5, allow_subnormal=False),
    )
    def test_cfl_scales_inversely_with_velocity(self, vel, eps):
        m = TTIMedium(velocity=vel, epsilon=eps)
        dt = m.max_stable_dt(10.0, 10.0, 10.0)
        m2 = TTIMedium(velocity=2 * vel, epsilon=eps)
        assert np.isclose(m2.max_stable_dt(10.0, 10.0, 10.0), dt / 2, rtol=1e-12)
