"""Lowering equivalence: one IR, three runtimes, one set of bits.

Property test over randomized small meshes (channelized and variable
``dz_layers`` geomodels, both float dtypes): the event and fused
lowerings of the same IR must agree **bitwise** (they share a conform
fold class), and lockstep must agree within the documented
summation-order tolerance (identical operations, different final
additions — see tests/integration/test_equivalence.py).  On
forced-order fabric shapes all three coincide exactly.
"""

import numpy as np
import pytest

from repro.core import CartesianMesh3D, FluidProperties, random_pressure
from repro.core.stencil import Connection
from repro.dataflow import WseFluxComputation
from repro.ir import derive_ir, ir_from_fabric
from repro.ir import fused as fused_module
from repro.ir.lower import (
    lower_to_event,
    lower_to_fused,
    lower_to_lockstep,
)
from repro.workloads.geomodels import make_geomodel
from repro.wse.fabric import Fabric

DTYPES = (np.float32, np.float64)
SEEDS = range(4)
APPLICATIONS = 2


def _random_mesh(seed: int, geomodel: str) -> CartesianMesh3D:
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(2, 6))
    ny = int(rng.integers(1, 5))
    nz = int(rng.integers(2, 6))
    if geomodel == "dz_layers":
        dz_layers = [round(t, 3) for t in rng.uniform(0.5, 3.0, size=nz)]
        return make_geomodel(
            nx, ny, nz, kind="channelized", seed=seed, dz_layers=dz_layers
        )
    return make_geomodel(nx, ny, nz, kind=geomodel, seed=seed)


class TestLoweringsAgree:
    @pytest.mark.parametrize("geomodel", ["channelized", "dz_layers"])
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_event_fused_bitwise_lockstep_ulp_bounded(
        self, seed, dtype, geomodel
    ):
        mesh = _random_mesh(seed, geomodel)
        fluid = FluidProperties()
        ir = derive_ir(mesh, dtype=dtype)
        pressures = [
            random_pressure(mesh, seed=100 * seed + k)
            for k in range(APPLICATIONS)
        ]
        event = lower_to_event(ir, mesh, fluid)
        lockstep = lower_to_lockstep(ir, mesh, fluid)
        fused = lower_to_fused(ir, mesh, fluid)
        batch = fused.run(pressures, keep_all=True)
        for k, pressure in enumerate(pressures):
            r_event = event.run_single(pressure).residual
            r_fused = batch.residuals[k]
            assert r_fused.dtype == r_event.dtype == np.dtype(dtype)
            assert (r_event == r_fused).all(), (
                f"fused diverged from event bitwise on seed={seed} "
                f"{geomodel} {mesh.nx}x{mesh.ny}x{mesh.nz} app {k}"
            )
            r_lock = lockstep.run_application(pressure)
            tol = 1e-6 if dtype is np.float32 else 1e-14
            scale = float(np.abs(r_event).max())
            np.testing.assert_allclose(r_lock, r_event, atol=tol * scale)

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_forced_order_mesh_makes_all_three_bitwise(self, dtype):
        mesh = CartesianMesh3D(2, 1, 5)
        fluid = FluidProperties()
        ir = derive_ir(mesh, dtype=dtype)
        pressure = random_pressure(mesh, seed=7)
        r_event = lower_to_event(ir, mesh, fluid).run_single(pressure).residual
        r_lock = lower_to_lockstep(ir, mesh, fluid).run_application(pressure)
        r_fused = lower_to_fused(ir, mesh, fluid).run([pressure]).residual
        assert (r_event == r_lock).all()
        assert (r_event == r_fused).all()

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize(
        "shape",
        [
            (1, 1, 3),
            (1, 5, 2),
            (3, 1, 2),
            (2, 2, 1),
            (5, 5, 2),
            (6, 5, 2),
            (7, 9, 2),
            (25, 24, 2),
        ],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_event_fused_bytes_at_and_past_the_tiling_threshold(
        self, shape, dtype
    ):
        """Odd/even mixes, degenerate axes, and footprints at and just
        past the <=5 reduction threshold of ``repro.ir.schedule``."""
        mesh = make_geomodel(*shape, kind="channelized", seed=sum(shape))
        fluid = FluidProperties()
        ir = derive_ir(mesh, dtype=dtype)
        pressure = random_pressure(mesh, seed=5)
        r_event = lower_to_event(ir, mesh, fluid).run_single(pressure).residual
        r_fused = lower_to_fused(ir, mesh, fluid).run([pressure]).residual
        assert r_event.dtype == r_fused.dtype == np.dtype(dtype)
        assert r_event.tobytes() == r_fused.tobytes()

    def test_ir_lowered_event_matches_the_plain_event_driver(self):
        """Consuming IR-carried routes must not change the event bits."""
        mesh = make_geomodel(4, 3, 4, kind="channelized", seed=3)
        fluid = FluidProperties()
        pressure = random_pressure(mesh, seed=1)
        plain = WseFluxComputation(mesh, fluid).run_single(pressure).residual
        lowered = (
            lower_to_event(derive_ir(mesh), mesh, fluid)
            .run_single(pressure)
            .residual
        )
        assert (plain == lowered).all()


class TestLoweringGuards:
    def test_bare_fabric_ir_refuses_to_lower(self):
        ir = ir_from_fabric(Fabric(2, 2))
        mesh = CartesianMesh3D(2, 2, 2)
        with pytest.raises(ValueError, match="fabric"):
            lower_to_fused(ir, mesh, FluidProperties())

    def test_mesh_mismatch_is_rejected(self):
        ir = derive_ir(CartesianMesh3D(3, 3, 3))
        with pytest.raises(ValueError, match="mesh"):
            lower_to_fused(ir, CartesianMesh3D(3, 3, 4), FluidProperties())

    def test_an_ir_for_other_bypassed_columns_is_rejected_at_lowering(self):
        """Same fabric width, another column out of service: the IR's
        routes would land one column off and the run would fail late
        with `PE (0, 0): received 2 neighbour columns, expected 3`."""
        from repro.dataflow.mapping import SpareColumnRemap

        mesh = CartesianMesh3D(5, 4, 3)
        ir = derive_ir(mesh, remap=SpareColumnRemap(5, 4, 6, (0, 1, 2, 4, 5)))
        with pytest.raises(
            ValueError,
            match=r"IR mismatch on bypassed columns: program has \[2\], "
            r"IR says \[3\]",
        ):
            lower_to_event(
                ir, mesh, FluidProperties(),
                remap=SpareColumnRemap(5, 4, 6, (0, 1, 3, 4, 5)),
            )
        # an IR whose two remap blocks disagree is caught by the other one
        ir.doc["fabric"]["bypass_columns"] = [2]
        with pytest.raises(ValueError, match="IR mismatch on remap column map"):
            lower_to_event(
                ir, mesh, FluidProperties(),
                remap=SpareColumnRemap(5, 4, 6, (0, 1, 3, 4, 5)),
            )


def _assert_fused_bytes_equal_event(fused, ir, mesh, fluid, pressures):
    """One fused batch under ``errstate(all="raise")`` against one event
    application per field; returns the fused result."""
    with np.errstate(all="raise"):
        got = fused.run(pressures, keep_all=True)
    event = lower_to_event(ir, mesh, fluid)
    want = [event.run_single(p).residual.tobytes() for p in pressures]
    assert [r.tobytes() for r in got.residuals] == want
    assert got.residual.tobytes() == want[-1]
    return got


class TestPaddedLayout:
    """The halo-padded flat layout and its per-instance workspace.

    Every fused run is under ``np.errstate(all="raise")``: a halo lane
    that ever produced inf/NaN (non-finite halo pressure, a non-zero
    transmissibility on a halo face) fails here even though the fold
    never reads it.
    """

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("nz", [1, 2, 8])
    @pytest.mark.parametrize(
        "fabric",
        [(1, 6), (6, 1), (2, 2), (3, 5), (6, 6), (7, 9), (25, 24)],
        ids=lambda f: "x".join(map(str, f)),
    )
    def test_fused_bytes_equal_event(self, fabric, nz, dtype, batch):
        mesh = make_geomodel(*fabric, nz, kind="lognormal", seed=nz + sum(fabric))
        fluid = FluidProperties()
        ir = derive_ir(mesh, dtype=dtype)
        pressures = [random_pressure(mesh, seed=k) for k in range(batch)]
        got = _assert_fused_bytes_equal_event(
            lower_to_fused(ir, mesh, fluid), ir, mesh, fluid, pressures
        )
        assert got.residual.flags.c_contiguous

    @pytest.mark.slow
    @pytest.mark.parametrize("slab", ["measured", "one-plane"])
    def test_fused_bytes_equal_event_at_the_benchmark_size(self, slab, monkeypatch):
        if slab == "one-plane":
            monkeypatch.setattr(fused_module, "_SLAB_ELEMENTS", 1)
        mesh = make_geomodel(48, 48, 16, kind="lognormal", seed=0)
        fluid = FluidProperties()
        ir = derive_ir(mesh)
        pressures = [random_pressure(mesh, seed=k) for k in range(8)]
        _assert_fused_bytes_equal_event(
            lower_to_fused(ir, mesh, fluid), ir, mesh, fluid, pressures
        )

    def test_results_are_not_views_of_the_workspace(self):
        """A later run rewrites the workspace; nothing handed out —
        ``residual``, ``residuals``, the recorder's arrays — may change."""

        class KeepsWhatItGets:
            def __init__(self):
                self.seen = []

            def record_step(self, pressure, residual):
                self.seen.append(residual)

        mesh = make_geomodel(5, 4, 3, kind="lognormal", seed=2)
        recorder = KeepsWhatItGets()
        fused = lower_to_fused(
            derive_ir(mesh), mesh, FluidProperties(), record=recorder
        )
        first = fused.run(
            [random_pressure(mesh, seed=k) for k in (0, 1)], keep_all=True
        )
        handed_out = [first.residual, *first.residuals, *recorder.seen]
        before = [r.tobytes() for r in handed_out]
        second = fused.run([random_pressure(mesh, seed=k) for k in (2, 3)])
        assert second.residual.tobytes() != first.residual.tobytes()
        assert [r.tobytes() for r in handed_out] == before

    def test_batch_size_may_change_between_runs(self):
        mesh = make_geomodel(7, 6, 4, kind="lognormal", seed=4)
        fluid = FluidProperties()
        ir = derive_ir(mesh)
        fused = lower_to_fused(ir, mesh, fluid)
        seed = 0
        for batch in (3, 8, 1, 1):
            pressures = [random_pressure(mesh, seed=seed + k) for k in range(batch)]
            seed += batch
            _assert_fused_bytes_equal_event(fused, ir, mesh, fluid, pressures)

    @pytest.mark.parametrize("compute_fluxes", [True, False])
    def test_accounting_does_not_see_the_padding(self, compute_fluxes):
        """Counts are those of the true faces and cells: equal to the
        lockstep simulation's, which sweeps unpadded arrays."""
        mesh = make_geomodel(6, 5, 4, kind="lognormal", seed=1)
        fluid = FluidProperties()
        ir = derive_ir(mesh, compute_fluxes=compute_fluxes)
        pressures = [random_pressure(mesh, seed=k) for k in range(3)]
        fused = lower_to_fused(ir, mesh, fluid)
        fused.run(pressures)
        lockstep = lower_to_lockstep(ir, mesh, fluid)
        lockstep.run(pressures)
        got, want = fused.report().as_metrics(), lockstep.report().as_metrics()
        for key in ("flops", "fabric_words_received", "fabric_word_hops"):
            assert got[key] == want[key], key
        if compute_fluxes:
            assert got["flops"] == 14 * 3 * sum(
                (mesh.nz - abs(dz)) * (mesh.ny - abs(dy)) * (mesh.nx - abs(dx))
                for dx, dy, dz in (c.offset for c in Connection)
            )
        else:
            assert got["flops"] == 0
            assert not fused.run(pressures).residual.any()


class TestSlabSweep:
    """A cell's ten contributions meet inside its own slab, so the slab
    constant may change the speed of a run and nothing else."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("nz", [1, 2, 8])
    @pytest.mark.parametrize("planes", [1, 3, 8], ids=lambda n: f"{n}-per-slab")
    def test_slab_size_cannot_move_a_bit(
        self, monkeypatch, planes, nz, dtype, batch
    ):
        """One plane per slab, a few (8 planes: the last slab is shorter
        than the rest), and the whole block."""
        nx, ny = 7, 6
        monkeypatch.setattr(
            fused_module, "_SLAB_ELEMENTS", planes * batch * (ny + 2) * (nx + 2)
        )
        mesh = make_geomodel(nx, ny, nz, kind="lognormal", seed=nz)
        fluid = FluidProperties()
        ir = derive_ir(mesh, dtype=dtype)
        fused = lower_to_fused(ir, mesh, fluid)
        pressures = [random_pressure(mesh, seed=k) for k in range(batch)]
        _assert_fused_bytes_equal_event(fused, ir, mesh, fluid, pressures)
        slabs = [s.here.stop - s.here.start for s in fused._workspace.slabs]
        plane = (ny + 2) * (nx + 2)
        assert sum(slabs) == nz * plane
        assert max(slabs) == min(planes, nz) * plane  # scratch capped at nz planes

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_signed_zero_fluxes_fold_to_positive_zero(self, dtype):
        """Uniform pressure on one flat layer: every X-Y flux is an exact
        signed zero written as it is (``F``, not ``0.0 + F``), and the
        residual is all ``+0.0``, byte for byte event's."""
        mesh = make_geomodel(7, 6, 1, kind="lognormal", seed=9)
        fluid = FluidProperties()
        ir = derive_ir(mesh, dtype=dtype)
        pressure = np.full(mesh.shape_zyx, 2.0e7)
        got = _assert_fused_bytes_equal_event(
            lower_to_fused(ir, mesh, fluid), ir, mesh, fluid, [pressure] * 2
        )
        assert got.residual.tobytes() == bytes(got.residual.nbytes)
