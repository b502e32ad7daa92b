"""Byte-identity tests for the rank kernel: the core slab sweep with
the phased fold program.

:class:`~repro.core.sweep.SlabSweep` running ``PHASED_PROGRAM`` (the
per-rank kernel of the cluster and par backends) must reproduce the
reference fold in the phased order
(:func:`~repro.core.flux.compute_flux_residual`) to the last bit, in
both dtypes, on every block shape, without tripping a floating-point
error on its halo lanes.
"""

import numpy as np
import pytest

from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    PressureSequence,
    compute_flux_residual,
)
from repro.core import sweep as sweep_module
from repro.core.sweep import PHASED_PROGRAM, PaddedLayout, SlabSweep, SlabWorkspace
from repro.cluster import ClusterFluxComputation
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


def assert_matches(res, mesh, fluid, pressure):
    """The reference fold's bytes in the phased order."""
    assert res.tobytes() == compute_flux_residual(mesh, fluid, pressure).tobytes(), res.dtype


def rank_kernels(meshes, fluid, dtype):
    """The phased program on each of *meshes*, over one workspace (what
    ``RankSet`` builds for its ranks)."""
    layouts = [PaddedLayout(mesh, fluid, dtype) for mesh in meshes]
    workspace = SlabWorkspace(layouts)
    return [SlabSweep(layout, PHASED_PROGRAM, workspace) for layout in layouts]


def flat_kernel(mesh, fluid, dtype):
    return rank_kernels([mesh], fluid, dtype)[0]


def compute(kernel):
    """The residual of what ``kernel.pressure`` holds, as a ``(nz, ny,
    nx)`` view of a fresh accumulator."""
    residual = np.zeros_like(kernel.p)
    kernel.run(residual)
    return kernel.layout.interior(residual)[0]


def residual(kernel, pressure, out=None):
    """Load *pressure*, run, and copy the residual out."""
    kernel.load([pressure])
    if out is None:
        return compute(kernel).copy()
    out[...] = compute(kernel)
    return out


def assert_same_bytes(mesh, fluid, seed):
    for dtype in DTYPES:
        p = field(mesh, seed, dtype)
        with np.errstate(all="raise"):
            res = residual(flat_kernel(mesh, fluid, dtype), p)
        assert res.dtype == p.dtype
        assert_matches(res, mesh, fluid, p)


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
                    residual(kernel, p, out=out)
                assert_matches(out, mesh, fluid, p)

    def test_variable_layer_thickness(self, fluid):
        mesh = CartesianMesh3D(6, 5, 4, dz_layers=[1.0, 2.5, 0.75, 3.0])
        assert_same_bytes(mesh, fluid, 2)

    def test_single_layer_mesh(self, fluid):
        assert_same_bytes(make_geomodel(8, 6, 1, seed=3), fluid, 3)

    def test_padded_rank_blocks(self, fluid):
        """The actual driver inputs: halo-padded local meshes, one
        workspace for blocks of different sizes."""
        mesh = make_geomodel(15, 14, 3, kind="lognormal", seed=11)
        decomp = BlockDecomposition(mesh, 3, 2)
        meshes = [decomp.local_mesh(block) for block in decomp.blocks]
        assert len({m.shape_zyx for m in meshes}) > 1
        for dtype in DTYPES:
            p = field(mesh, 11, dtype)
            kernels = rank_kernels(meshes, fluid, dtype)
            for block, local_mesh, kernel in zip(decomp.blocks, meshes, kernels):
                local_p = np.ascontiguousarray(p[decomp.padded_field_slices(block)])
                with np.errstate(all="raise"):
                    res = residual(kernel, local_p)
                assert_matches(res, local_mesh, fluid, local_p)

    @pytest.mark.parametrize(
        "shape",
        [(1, 1, 1), (1, 1, 5), (1, 6, 1), (7, 1, 1), (1, 4, 3), (5, 1, 3), (2, 2, 2)],
    )
    def test_degenerate_shapes(self, fluid, shape):
        assert_same_bytes(make_geomodel(*shape, seed=4), fluid, 4)

    @pytest.mark.parametrize("slab_lanes", [1, 100, 112, 168, 1 << 30])
    def test_slab_size_cannot_change_a_bit(
        self, fluid, monkeypatch, slab_lanes
    ):
        """One plane per slab, a few, the whole block: same bytes.  The
        padded plane is 56 lanes: 100 and 112 are one and two float64
        planes (2, 2, 1, 2 over 7 layers: an inner slab a plane short),
        168 three (3, 2, 2: a short tail); float32 fits twice the lanes."""
        monkeypatch.setattr(sweep_module, "_SLAB_BYTES", 8 * slab_lanes)
        assert_same_bytes(make_geomodel(6, 5, 7, seed=9), fluid, 9)


class TestWorkspace:
    def test_shared_workspace_called_alternately(self, fluid):
        """Two kernels of equal padded size share every scratch array
        and the residual accumulator; neither may see the other."""
        mesh_a = make_geomodel(7, 6, 3, kind="lognormal", seed=1)
        mesh_b = make_geomodel(7, 6, 3, kind="channelized", seed=2)
        for dtype in DTYPES:
            kernels = rank_kernels([mesh_a, mesh_b], fluid, dtype)
            pairs = [
                (kernel, mesh, field(mesh, seed, dtype))
                for kernel, mesh, seed in zip(kernels, (mesh_a, mesh_b), (1, 2))
            ]
            for kernel, _mesh, p in pairs:
                kernel.pressure[0] = p
            for _ in range(3):
                for kernel, mesh, p in pairs:
                    with np.errstate(all="raise"):
                        res = compute(kernel)
                    assert res.tobytes() == compute_flux_residual(mesh, fluid, p).tobytes()

    def test_shared_workspace_respreads_the_elevation(self, fluid):
        """Two blocks of one padded size whose layers differ share the
        workspace's spread elevation: each run spreads its own."""
        thin = CartesianMesh3D(6, 5, 4, dz_layers=[1.0, 2.5, 0.75, 3.0])
        thick = CartesianMesh3D(6, 5, 4, dz_layers=[4.0, 0.5, 2.0, 1.0])
        for dtype in DTYPES:
            kernels = rank_kernels([thin, thick], fluid, dtype)
            for _ in range(2):
                for kernel, mesh, seed in zip(kernels, (thin, thick), (3, 4)):
                    p = field(mesh, seed, dtype)
                    with np.errstate(all="raise"):
                        res = residual(kernel, p)
                    assert res.tobytes() == compute_flux_residual(mesh, fluid, p).tobytes()

    def test_pressure_view_equals_copy_in(self, fluid):
        """Writing the field into ``pressure`` in place (what the
        drivers do) and ``residual(pressure)`` give the same bytes."""
        mesh = make_geomodel(9, 8, 4, seed=6)
        p = field(mesh, 6, np.float64)
        kernel = flat_kernel(mesh, fluid, np.float64)
        copied = residual(kernel, p)
        other = flat_kernel(mesh, fluid, np.float64)
        other.pressure[0, :, :, :4] = p[:, :, :4]
        other.pressure[0, :, :, 4:] = p[:, :, 4:]
        assert compute(other).tobytes() == copied.tobytes()

    def test_undersized_workspace_is_rejected(self, fluid):
        mesh = make_geomodel(6, 6, 2, seed=0)
        small = SlabWorkspace([PaddedLayout(make_geomodel(6, 5, 2, seed=0), fluid, np.float64)])
        with pytest.raises(ValueError, match="not sized"):
            SlabSweep(PaddedLayout(mesh, fluid, np.float64), PHASED_PROGRAM, small)

    def test_residual_checks_the_shape(self, fluid):
        mesh = make_geomodel(4, 4, 2, seed=0)
        with pytest.raises(ValueError, match="expected shape"):
            residual(flat_kernel(mesh, fluid, np.float64), np.zeros((2, 4)))


class TestNonFinite:
    """The contract of the module docstring, pinned."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_inf_and_nan_cells(self, fluid, dtype):
        mesh = make_geomodel(7, 6, 3, seed=8)
        p = field(mesh, 8, dtype)
        p[1, 0, 0] = np.inf  # a corner column: five halo faces
        p[2, 3, 6] = np.nan  # an edge cell
        with np.errstate(all="ignore"):
            ref = compute_flux_residual(mesh, fluid, p)
            res = residual(flat_kernel(mesh, fluid, dtype), p)
        finite = np.isfinite(ref)
        assert not finite.all() and finite.any()
        assert res[finite].tobytes() == ref[finite].tobytes()
        assert not np.isfinite(res[~finite]).any()


@pytest.mark.slow
@pytest.mark.parametrize("slab", ["measured", "one-plane"])
def test_cluster_bytes_at_the_ledger_size(fluid, slab, monkeypatch):
    """``cluster_serial_128x128x16``'s shape: 128x128x16 float64 on 2x2
    ranks returns the statement's fold, at the measured slab size and at
    one plane per slab."""
    if slab == "one-plane":
        monkeypatch.setattr(sweep_module, "_SLAB_BYTES", 1)
    mesh = make_geomodel(128, 128, 16, kind="lognormal", seed=7)
    p = PressureSequence(mesh, num_applications=1, seed=7).field(0)
    cluster = ClusterFluxComputation(mesh, fluid, px=2, py=2)
    residual = cluster.run([p]).residual
    assert residual.dtype == np.float64
    assert residual.tobytes() == compute_flux_residual(mesh, fluid, p).tobytes()
