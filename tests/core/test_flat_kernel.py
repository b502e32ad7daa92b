"""Byte-identity tests for the host-order flat kernel.

:class:`~repro.core.flat.FlatFluxKernel` (the per-rank kernel of the
cluster and par backends) must reproduce the reference
:class:`~repro.core.flux.FluxKernel` residual to the last bit, in both
dtypes, on every block shape, without tripping a floating-point error
on its halo lanes.
"""

import numpy as np
import pytest

from repro.core import CartesianMesh3D, FluidProperties, PressureSequence
from repro.core import flat
from repro.core.flat import FlatFluxKernel, FlatWorkspace
from repro.core.flux import FluxKernel
from repro.cluster.decomposition import BlockDecomposition
from repro.workloads import make_geomodel

DTYPES = (np.float64, np.float32)


@pytest.fixture(scope="module")
def fluid():
    return FluidProperties()


def field(mesh, seed, dtype):
    """One pressure field, cast to the kernel dtype first (as the
    cluster driver does)."""
    p = PressureSequence(mesh, num_applications=1, seed=seed).field(0)
    return p.astype(dtype)


def reference(mesh, fluid, pressure):
    return FluxKernel(mesh, fluid, dtype=pressure.dtype).residual(pressure)


def flat_kernel(mesh, fluid, dtype):
    return FlatFluxKernel(mesh, fluid, FlatWorkspace([mesh.shape_zyx], dtype))


def assert_same_bytes(mesh, fluid, seed):
    for dtype in DTYPES:
        p = field(mesh, seed, dtype)
        with np.errstate(all="raise"):
            res = flat_kernel(mesh, fluid, dtype).residual(p)
        assert res.dtype == p.dtype
        assert res.tobytes() == reference(mesh, fluid, p).tobytes(), dtype


class TestFullBlock:
    @pytest.mark.parametrize("kind", ["lognormal", "channelized", "layered"])
    def test_matches_reference_kernel(self, fluid, kind):
        mesh = make_geomodel(9, 7, 4, kind=kind, seed=5)
        seq = PressureSequence(mesh, num_applications=2, seed=5)
        for dtype in DTYPES:
            kernel = flat_kernel(mesh, fluid, dtype)
            out = np.empty(mesh.shape_zyx, dtype)
            for i in range(2):
                p = seq.field(i).astype(dtype)
                with np.errstate(all="raise"):
                    kernel.residual(p, out=out)
                assert out.tobytes() == reference(mesh, fluid, p).tobytes()

    def test_variable_layer_thickness(self, fluid):
        mesh = CartesianMesh3D(6, 5, 4, dz_layers=[1.0, 2.5, 0.75, 3.0])
        assert_same_bytes(mesh, fluid, seed=2)

    def test_single_layer_mesh(self, fluid):
        assert_same_bytes(make_geomodel(8, 6, 1, seed=3), fluid, seed=3)

    def test_padded_rank_blocks(self, fluid):
        """The actual driver inputs: halo-padded local meshes, one
        workspace for blocks of different sizes."""
        mesh = make_geomodel(15, 14, 3, kind="lognormal", seed=11)
        decomp = BlockDecomposition(mesh, 3, 2)
        meshes = [decomp.local_mesh(block) for block in decomp.blocks]
        assert len({m.shape_zyx for m in meshes}) > 1
        for dtype in DTYPES:
            p = field(mesh, 11, dtype)
            workspace = FlatWorkspace([m.shape_zyx for m in meshes], dtype)
            for block, local_mesh in zip(decomp.blocks, meshes):
                local_p = np.ascontiguousarray(p[decomp.padded_field_slices(block)])
                kernel = FlatFluxKernel(local_mesh, fluid, workspace)
                with np.errstate(all="raise"):
                    res = kernel.residual(local_p)
                assert res.tobytes() == reference(local_mesh, fluid, local_p).tobytes()

    @pytest.mark.parametrize(
        "shape",
        [(1, 1, 1), (1, 1, 5), (1, 6, 1), (7, 1, 1), (1, 4, 3), (5, 1, 3), (2, 2, 2)],
    )
    def test_degenerate_shapes(self, fluid, shape):
        assert_same_bytes(make_geomodel(*shape, seed=4), fluid, seed=4)

    @pytest.mark.parametrize("slab_lanes", [1, 100, 1 << 30])
    def test_slab_size_cannot_change_a_bit(self, fluid, monkeypatch, slab_lanes):
        """One plane per slab, a few, the whole block: same bytes."""
        monkeypatch.setattr(flat, "_SLAB_LANES", slab_lanes)
        assert_same_bytes(make_geomodel(6, 5, 7, seed=9), fluid, seed=9)


class TestWorkspace:
    def test_shared_workspace_called_alternately(self, fluid):
        """Two kernels of equal padded size share every scratch array
        and the residual accumulator; neither may see the other."""
        mesh_a = make_geomodel(7, 6, 3, kind="lognormal", seed=1)
        mesh_b = make_geomodel(7, 6, 3, kind="channelized", seed=2)
        for dtype in DTYPES:
            workspace = FlatWorkspace([mesh_a.shape_zyx], dtype)
            pairs = [
                (FlatFluxKernel(mesh, fluid, workspace), mesh, field(mesh, seed, dtype))
                for mesh, seed in ((mesh_a, 1), (mesh_b, 2))
            ]
            for kernel, _mesh, p in pairs:
                kernel.pressure[...] = p
            for _ in range(3):
                for kernel, mesh, p in pairs:
                    with np.errstate(all="raise"):
                        res = kernel.compute()
                    assert res.tobytes() == reference(mesh, fluid, p).tobytes()

    def test_pressure_view_equals_copy_in(self, fluid):
        """Writing the field into ``pressure`` in place (what the
        drivers do) and ``residual(pressure)`` give the same bytes."""
        mesh = make_geomodel(9, 8, 4, seed=6)
        p = field(mesh, 6, np.float64)
        kernel = flat_kernel(mesh, fluid, np.float64)
        copied = kernel.residual(p)
        other = flat_kernel(mesh, fluid, np.float64)
        other.pressure[:, :, :4] = p[:, :, :4]
        other.pressure[:, :, 4:] = p[:, :, 4:]
        assert other.compute().tobytes() == copied.tobytes()

    def test_undersized_workspace_is_rejected(self, fluid):
        mesh = make_geomodel(6, 6, 2, seed=0)
        with pytest.raises(ValueError, match="not sized"):
            FlatFluxKernel(mesh, fluid, FlatWorkspace([(2, 5, 6)]))

    def test_residual_checks_the_shape(self, fluid):
        mesh = make_geomodel(4, 4, 2, seed=0)
        with pytest.raises(ValueError, match="expected shape"):
            flat_kernel(mesh, fluid, np.float64).residual(np.zeros((2, 4)))


class TestNonFinite:
    """The contract of the module docstring, pinned."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_inf_and_nan_cells(self, fluid, dtype):
        mesh = make_geomodel(7, 6, 3, seed=8)
        p = field(mesh, 8, dtype)
        p[1, 0, 0] = np.inf  # a corner column: five halo faces
        p[2, 3, 6] = np.nan  # an edge cell
        with np.errstate(all="ignore"):
            ref = reference(mesh, fluid, p)
            res = flat_kernel(mesh, fluid, dtype).residual(p)
        finite = np.isfinite(ref)
        assert not finite.all() and finite.any()
        assert res[finite].tobytes() == ref[finite].tobytes()
        assert not np.isfinite(res[~finite]).any()
