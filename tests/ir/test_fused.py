"""Lowering equivalence: one IR, three runtimes, one set of bits.

Property test over randomized small meshes (channelized and variable
``dz_layers`` geomodels, both float dtypes): the event and fused
lowerings of the same IR must agree **bitwise** (they share a conform
fold class), and lockstep must agree within the documented
summation-order tolerance (identical operations, different final
additions — see tests/integration/test_equivalence.py).  On
forced-order fabric shapes all three coincide exactly, and the rest of
lockstep's fold class (gpu, cluster) with them.
"""

import tracemalloc

import numpy as np
import pytest

from repro.backends import BACKENDS, release
from repro.core import CartesianMesh3D, FluidProperties, compute_flux_residual, random_pressure
from repro.core.stencil import Connection
from repro.dataflow import WseFluxComputation
from repro.core import sweep as sweep_module
from repro.ir import derive_ir, ir_from_fabric
from repro.ir.lower import (
    lower_to_event,
    lower_to_fused,
    lower_to_lockstep,
)
from repro.ir.schedule import schedule_classes
from repro.workloads.geomodels import make_geomodel
from repro.wse.fabric import Fabric

DTYPES = (np.float32, np.float64)
SEEDS = range(4)
APPLICATIONS = 2


class Residuals(list):
    """A ``record=`` hook that keeps every application's residual."""

    def record_step(self, pressure, residual):
        self.append(residual)


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
        batch = Residuals()
        lower_to_fused(ir, mesh, fluid, record=batch).run(pressures)
        classes = schedule_classes(mesh.nx, mesh.ny)
        for k, pressure in enumerate(pressures):
            r_event = event.run_single(pressure).residual
            r_fused = batch[k]
            assert r_fused.dtype == r_event.dtype == np.dtype(dtype)
            assert (r_event == r_fused).all(), (
                f"fused diverged from event bitwise on seed={seed} "
                f"{geomodel} {mesh.nx}x{mesh.ny}x{mesh.nz} app {k}"
            )
            r_lock = lockstep.run_application(pressure)
            tol = 1e-6 if dtype is np.float32 else 1e-14
            scale = float(np.abs(r_event).max())
            np.testing.assert_allclose(r_lock, r_event, atol=tol * scale)
            # each is the reference fold's bytes in its own order
            p = pressure.astype(dtype)
            assert r_lock.tobytes() == compute_flux_residual(mesh, fluid, p).tobytes()
            event_fold = compute_flux_residual(mesh, fluid, p, order=classes)
            assert r_event.tobytes() == event_fold.tobytes()

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
        # the rest of the phased fold class: gpu's block and cluster's ranks
        for name, config in (("gpu", {}), ("cluster", {"px": 2, "py": 1})):
            driver = BACKENDS[name].build(mesh, fluid, dtype=dtype, **config)
            try:
                assert driver.run([pressure]).residual.tobytes() == r_event.tobytes(), name
            finally:
                release(driver)

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

    def test_a_remapped_ir_is_refused_with_the_real_reason(self):
        from repro.dataflow.mapping import SpareColumnRemap

        mesh = CartesianMesh3D(5, 4, 3)
        remap = SpareColumnRemap.around_dead_pes((5, 4), [(2, 1)])
        with pytest.raises(ValueError) as refusal:
            lower_to_fused(derive_ir(mesh, remap=remap), mesh, FluidProperties())
        assert str(refusal.value) == (
            "fused backend does not support spare-column remapping "
            "(it runs the logical fabric only; lower a remapped IR to "
            "the event backend, whose bytes and cycles equal the "
            "healthy fabric's)"
        )

    @pytest.mark.parametrize(
        "options",
        [{"reuse_buffers": False}, {"reuse_buffers": False, "overlap_compute": False}],
        ids=["no-reuse", "no-reuse-deferred"],
    )
    def test_a_program_without_buffer_reuse_is_refused(self, options):
        """Fused folds in the order a buffer-reuse program's halos
        arrive; it refuses another program, by either way in, and says
        which backend runs it."""
        from repro.ir.fused import FusedFluxComputation

        mesh, fluid = CartesianMesh3D(5, 4, 3), FluidProperties()
        ir = derive_ir(mesh, **options)
        for build in (
            lambda: lower_to_fused(ir, mesh, fluid),
            lambda: FusedFluxComputation(mesh, fluid, ir=ir),
        ):
            with pytest.raises(ValueError, match="reuse_buffers=False IR to the event backend"):
                build()

    @pytest.mark.parametrize(
        "lower", [lower_to_event, lower_to_lockstep, lower_to_fused],
        ids=["event", "lockstep", "fused"],
    )
    def test_lowering_does_not_edit_its_input(self, lower):
        mesh = CartesianMesh3D(6, 5, 3)
        ir = derive_ir(mesh)
        before = ir.dumps()
        lower(ir, mesh, FluidProperties()).run([random_pressure(mesh, seed=2)])
        assert ir.dumps() == before

    @pytest.mark.parametrize(
        "shape, dead, cycles",
        [
            ((5, 4, 3), (2, 1), 311.0),
            ((5, 4, 3), (0, 3), 311.0),
            ((7, 6, 2), (3, 2), 201.0),
            ((7, 6, 2), (6, 0), 201.0),
        ],
    )
    def test_event_under_a_remap_is_the_healthy_fabric(self, shape, dead, cycles):
        """What the refusal tells the user to do: bypassed columns cost
        neither bits nor device cycles, and fused on the logical fabric
        has those bits too."""
        from repro.dataflow.mapping import SpareColumnRemap

        mesh = make_geomodel(*shape, kind="lognormal", seed=sum(shape))
        fluid = FluidProperties()
        pressure = random_pressure(mesh, seed=3)
        remap = SpareColumnRemap.around_dead_pes(shape[:2], [dead])
        remapped = lower_to_event(
            derive_ir(mesh, remap=remap), mesh, fluid, remap=remap
        ).run_single(pressure)
        ir = derive_ir(mesh)
        healthy = lower_to_event(ir, mesh, fluid).run_single(pressure)
        fused = lower_to_fused(ir, mesh, fluid).run([pressure])
        assert remapped.residual.tobytes() == healthy.residual.tobytes()
        assert remapped.residual.tobytes() == fused.residual.tobytes()
        assert remapped.device_cycles == healthy.device_cycles == cycles


def _assert_fused_bytes_equal_event(fused, ir, mesh, fluid, pressures):
    """One fused batch under ``errstate(all="raise")`` against one event
    application per field; returns the fused result."""
    fused.record = recorded = Residuals()
    with np.errstate(all="raise"):
        got = fused.run(pressures)
    event = lower_to_event(ir, mesh, fluid)
    want = [event.run_single(p).residual.tobytes() for p in pressures]
    assert [r.tobytes() for r in recorded] == want
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
            monkeypatch.setattr(sweep_module, "_SLAB_BYTES", 1)
        mesh = make_geomodel(48, 48, 16, kind="lognormal", seed=0)
        fluid = FluidProperties()
        ir = derive_ir(mesh)
        pressures = [random_pressure(mesh, seed=k) for k in range(8)]
        _assert_fused_bytes_equal_event(
            lower_to_fused(ir, mesh, fluid), ir, mesh, fluid, pressures
        )

    def test_results_are_not_views_of_the_workspace(self):
        """A later run rewrites the workspace; nothing handed out —
        ``residual``, the recorder's arrays — may change."""
        mesh = make_geomodel(5, 4, 3, kind="lognormal", seed=2)
        recorder = Residuals()
        fused = lower_to_fused(
            derive_ir(mesh), mesh, FluidProperties(), record=recorder
        )
        first = fused.run([random_pressure(mesh, seed=k) for k in (0, 1)])
        handed_out = [first.residual, *recorder]
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
            sweep_module, "_SLAB_BYTES",
            planes * batch * (ny + 2) * (nx + 2) * np.dtype(dtype).itemsize,
        )
        mesh = make_geomodel(nx, ny, nz, kind="lognormal", seed=nz)
        fluid = FluidProperties()
        ir = derive_ir(mesh, dtype=dtype)
        fused = lower_to_fused(ir, mesh, fluid)
        pressures = [random_pressure(mesh, seed=k) for k in range(batch)]
        _assert_fused_bytes_equal_event(fused, ir, mesh, fluid, pressures)
        depth = fused.layout.depth(batch)
        assert depth == min(planes, nz)  # scratch capped at nz planes
        assert len(fused._sweep._slabs) == -(-nz // depth)

    def test_slabs_are_balanced_with_the_deeper_ones_at_the_ends(self):
        """``ceil(nz / depth)`` slabs, depths at most ``depth`` and one
        plane apart, the deeper ones first at the two ends (DOWN's span
        in the first slab and UP's in the last are a plane short)."""
        spans = lambda nz, depth: [z1 - z0 for z0, z1 in sweep_module._balanced(nz, depth)]
        assert spans(16, 3) == [3, 3, 2, 2, 3, 3]  # warm_fused_48x48x16
        assert spans(16, 7) == [6, 5, 5]  # a cluster_serial_128x128x16 rank block
        for nz in range(1, 20):
            for depth in range(1, nz + 2):
                got = spans(nz, depth)
                assert sum(got) == nz and len(got) == -(-nz // depth)
                assert max(got) <= depth and max(got) - min(got) <= 1
                # deeper, shallower, deeper: a valley, its first end deepest
                valley = got.index(min(got))
                assert got[: valley + 1] == sorted(got[: valley + 1], reverse=True)
                assert got[valley:] == sorted(got[valley:]) and got[0] >= got[-1]

    @pytest.mark.parametrize(
        "lower", [lower_to_fused, lower_to_lockstep], ids=["fused", "lockstep"]
    )
    def test_a_warm_sweep_allocates_only_views(self, lower):
        """``warm_fused_48x48x16``'s shape, float32 batch 8: a warm
        ``SlabSweep.run`` allocates view objects and nothing else.  NumPy
        buffers a call whose rows are shorter than a third of its 8192-
        element buffer, 15-61 KB per call (one 48x48 plane is 2500
        lanes), and copies an operand whose bounds overlap the output;
        balanced slabs and UP's spare carry plane keep every span of
        this shape off both paths."""
        mesh = make_geomodel(48, 48, 16, kind="lognormal", seed=7)
        driver = lower(derive_ir(mesh), mesh, FluidProperties())
        driver.run([random_pressure(mesh, seed=k) for k in range(8)])
        sweep = driver._sweep
        residual = np.zeros_like(sweep.p)
        sweep.run(residual)
        tracemalloc.start()
        try:
            sweep.run(residual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096

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


class TestNonFinite:
    """The contract of ``ir/fused.py``: with ``inf`` / ``NaN`` pressure
    cells, every cell whose event residual is finite keeps event's
    bytes and every non-finite one stays non-finite; the other fields of
    the batch are event's bytes."""

    @pytest.mark.parametrize("slab", ["measured", "one-plane"])
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "cell", [(0, 0, 0), (0, 2, 5), (2, 2, 3)], ids=["corner", "edge", "interior"]
    )
    def test_non_finite_cells_stay_where_event_has_them(
        self, cell, bad, dtype, slab, monkeypatch
    ):
        if slab == "one-plane":
            monkeypatch.setattr(sweep_module, "_SLAB_BYTES", 1)
        mesh = make_geomodel(6, 5, 4, kind="lognormal", seed=3)
        fluid = FluidProperties()
        field = np.array(random_pressure(mesh, seed=2))
        field[cell] = bad
        clean = random_pressure(mesh, seed=5)
        ir = derive_ir(mesh, dtype=dtype)
        fused = lower_to_fused(ir, mesh, fluid, record=Residuals())
        event = lower_to_event(ir, mesh, fluid)
        with np.errstate(all="ignore"):
            fused.run([field, clean])
            want = event.run_single(field).residual
        got, got_clean = fused.record
        finite = np.isfinite(want)
        assert not finite[cell] and 0 < finite.sum() < finite.size
        assert got[finite].tobytes() == want[finite].tobytes()
        assert not np.isfinite(got[~finite]).any()
        assert got_clean.tobytes() == event.run_single(clean).residual.tobytes()
        # and nothing non-finite stays behind in the workspace
        _assert_fused_bytes_equal_event(fused, ir, mesh, fluid, [clean, clean])
