"""Unit tests for the lockstep (vectorized) dataflow simulation."""

import numpy as np
import pytest

import repro.dataflow.flux_pe as flux_pe
import repro.dataflow.lockstep as lockstep_module
import repro.dataflow.padded as padded_module
import repro.ir.fused as fused_module
from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    PressureSequence,
    Transmissibility,
    compute_flux_residual,
    constants,
    random_pressure,
)
from repro.core.stencil import Connection, interior_slices
from repro.core.transmissibility import padded_trans_fields
from repro.dataflow import (
    FluxScratch,
    LockstepReport,
    LockstepWseSimulation,
    WseFluxComputation,
    compute_face_flux_column,
    evaluate_density_column,
)
from repro.ir import FusedReport, derive_ir, lower_to_fused, lower_to_lockstep
from repro.ir.fused import FusedFluxComputation
from repro.workloads import make_geomodel
from repro.wse.dsd import DsdEngine


class TestNumerics:
    def test_matches_reference(self, fluid):
        mesh = make_geomodel(12, 10, 6, kind="lognormal", seed=2)
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=9)
        sim = LockstepWseSimulation(mesh, fluid, trans, ir=derive_ir(mesh, dtype=np.float64))
        r = sim.run_application(p)
        ref = compute_flux_residual(mesh, fluid, p, trans)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(r, ref, atol=1e-12 * scale)

    def test_matches_event_driven(self, fluid):
        """Lockstep and event-driven run the same DSD ops per element."""
        mesh = CartesianMesh3D(5, 4, 3)
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=1)
        lock = LockstepWseSimulation(mesh, fluid, trans, ir=derive_ir(mesh, dtype=np.float64))
        event = WseFluxComputation(mesh, fluid, trans, dtype=np.float64)
        r_lock = lock.run_application(p)
        r_event = event.run_single(p).residual
        scale = np.abs(r_lock).max()
        np.testing.assert_allclose(r_event, r_lock, atol=1e-13 * scale)

    def test_run_over_sequence(self, fluid):
        mesh = CartesianMesh3D(4, 4, 3)
        seq = PressureSequence(mesh, num_applications=3, seed=0)
        sim = LockstepWseSimulation(mesh, fluid, ir=derive_ir(mesh, dtype=np.float64))
        result = sim.run(seq)
        r = result.residual
        assert result.applications == 3
        assert result.as_metrics() == sim.report().as_metrics()
        ref = compute_flux_residual(mesh, fluid, seq.field(2))
        scale = np.abs(ref).max()
        np.testing.assert_allclose(r, ref, atol=1e-12 * scale)
        assert sim.report().applications == 3

    def test_float32(self, fluid):
        mesh = CartesianMesh3D(6, 5, 4)
        p = random_pressure(mesh, seed=3)
        sim = LockstepWseSimulation(mesh, fluid, ir=derive_ir(mesh, dtype=np.float32))
        r = sim.run_application(p)
        ref = compute_flux_residual(mesh, fluid, p)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(r, ref, atol=5e-4 * scale)

    def test_empty_run_rejected(self, fluid):
        mesh = CartesianMesh3D(2, 2, 2)
        sim = LockstepWseSimulation(mesh, fluid, ir=derive_ir(mesh))
        with pytest.raises(ValueError):
            sim.run([])


class TestAccounting:
    def test_instruction_totals_match_event_driven(self, fluid):
        mesh = CartesianMesh3D(4, 3, 3)
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=1)
        lock = LockstepWseSimulation(mesh, fluid, trans, ir=derive_ir(mesh, dtype=np.float64))
        lock.run_application(p)
        event = WseFluxComputation(mesh, fluid, trans, dtype=np.float64)
        ev = event.run_single(p)
        lk = lock.report()
        for op in ("FMUL", "FSUB", "FADD", "FMA", "FNEG", "FMOV"):
            assert lk.instruction_counts.get(op) == ev.instruction_counts.get(
                op
            ), op
        assert lk.flops == ev.flops

    def test_fabric_hops_cardinal_one_diagonal_two(self, fluid):
        mesh = CartesianMesh3D(3, 3, 2)
        sim = LockstepWseSimulation(mesh, fluid, ir=derive_ir(mesh, dtype=np.float32))
        sim.run_application(random_pressure(mesh, seed=0))
        rep = sim.report()
        nz, words = 2, 2
        card = (2 * 3 + 3 * 2) * 2 * words * nz  # directed pairs, 1 hop
        diag = (2 * 2 * 2) * 2 * words * nz * 2  # directed pairs, 2 hops
        assert rep.fabric_word_hops == card + diag

    def test_comm_only_mode(self, fluid):
        mesh = CartesianMesh3D(4, 4, 3)
        p = random_pressure(mesh, seed=0)
        sim = LockstepWseSimulation(
            mesh, fluid, ir=derive_ir(mesh, dtype=np.float32, compute_fluxes=False)
        )
        r = sim.run_application(p)
        np.testing.assert_array_equal(r, 0.0)
        rep = sim.report()
        assert rep.flops == 0
        assert rep.fabric_words_received > 0

    def test_flops_scale_with_applications(self, fluid):
        mesh = CartesianMesh3D(3, 3, 3)
        sim = LockstepWseSimulation(mesh, fluid, ir=derive_ir(mesh, dtype=np.float64))
        p = random_pressure(mesh, seed=0)
        sim.run_application(p)
        one = sim.report().flops
        sim.run_application(p)
        assert sim.report().flops == 2 * one

    def test_scales_to_larger_meshes(self, fluid):
        """Lockstep handles meshes far beyond event-sim tractability."""
        mesh = CartesianMesh3D(40, 30, 10)
        sim = LockstepWseSimulation(mesh, fluid, ir=derive_ir(mesh, dtype=np.float32))
        p = random_pressure(mesh, seed=0, dtype=np.float32)
        r = sim.run_application(p)
        assert r.shape == mesh.shape_zyx
        assert np.all(np.isfinite(r))


# The reference's select buffer is its own contiguous array, whatever
# the strides of the views it selects between: NumPy 2.4's ``negative``
# returns zeros on an unsigned view strided by four elements, so a
# select buffer cut from the strided views took the wrong density on
# 2x2xN float32 meshes (test_flux_pe.py pins the contiguous case).
def strided_reference(mesh, fluid, fields, dtype, plan, compute_fluxes=True, vectorized=True):
    """The parent's lockstep: the same kernel over strided 3-D views, UP,
    DOWN, then exchange-plan order.  Residual per field, and the report."""
    dtype, shape, engine = np.dtype(dtype), mesh.shape_zyx, DsdEngine(vectorized=vectorized)
    trans = padded_trans_fields(mesh, Transmissibility(mesh, dtype=dtype), dtype)
    elev = np.ascontiguousarray(mesh.elevation, dtype=dtype)
    rho, halo_p, halo_rho, *scratch = (np.zeros(shape, dtype) for _ in range(7))
    words, word_hops, residuals = max(1, dtype.itemsize // 4), 0, []
    words_dtype = f"u{dtype.itemsize}"
    density = {k: getattr(fluid, k) for k in ("compressibility", "reference_density", "reference_pressure")}
    kernel = {"gravity": constants.GRAVITY, "inv_viscosity": 1.0 / fluid.viscosity}

    def face_flux(conn, local, p_l, rho_l, z_l):
        if compute_fluxes:
            compute_face_flux_column(
                engine, FluxScratch(*(x[local] for x in scratch), np.empty(p[local].shape, words_dtype)),
                p[local], p_l, elev[local], z_l,
                rho[local], rho_l, trans[conn][local], residuals[-1][local], **kernel,
            )

    for field in fields:
        p = np.ascontiguousarray(field, dtype=dtype)
        residuals.append(np.zeros(shape, dtype))
        evaluate_density_column(engine, p, rho, **density)
        for conn in (Connection.UP, Connection.DOWN):
            local, neigh = interior_slices(shape, conn)
            face_flux(conn, local, p[neigh], rho[neigh], elev[neigh])
        for conn, hops in [(c, hops) for conns, hops, _phase in plan for c in conns]:
            local, neigh = interior_slices(shape, conn)
            engine.fmovs(halo_p[local], p[neigh], from_fabric=True)
            engine.fmovs(halo_rho[local], rho[neigh], from_fabric=True)
            word_hops += 2 * halo_p[local].size * words * hops
            face_flux(conn, local, halo_p[local], halo_rho[local], elev[local])
    counts, loads = dict(engine.counts), engine.fabric_loads * words
    return residuals, LockstepReport(len(fields), counts, engine.flops, loads, word_hops, engine.cycles)


def _build(mesh, fluid, dtype, lowered, **options):
    ir = derive_ir(mesh, dtype=dtype, **options)
    if lowered:
        return lower_to_lockstep(ir, mesh, fluid)
    return LockstepWseSimulation(mesh, fluid, ir=ir)


class TestBitIdentityWithTheStridedPath:
    """The padded flat layout and the collapsed X-Y branch change speed
    and nothing else: residual bytes and every report field equal the
    strided 3-D execution they replaced."""

    @pytest.mark.parametrize("lowered", [False, True], ids=["direct", "lowered"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "dims",
        [(1, 6, 4), (5, 1, 3), (4, 3, 1), (1, 1, 5), (1, 4, 1), (7, 5, 3), (6, 4, 2), (2, 2, 2)],
    )
    def test_three_applications_on_one_instance(self, fluid, dims, dtype, lowered):
        mesh = make_geomodel(*dims, kind="lognormal", seed=3)
        fields = list(PressureSequence(mesh, num_applications=3, seed=5))
        sim = _build(mesh, fluid, dtype, lowered)
        result = sim.run(fields)  # buffers persist between applications
        residuals, report = strided_reference(mesh, fluid, fields, dtype, sim.ir.exchange_plan)
        assert result.residual.tobytes() == residuals[-1].tobytes()
        assert result.residual.flags.c_contiguous and result.residual.dtype == dtype
        assert result.report == report == sim.report()
        assert list(result.report.instruction_counts) == list(report.instruction_counts)
        assert repr(result.report.compute_cycles) == repr(report.compute_cycles)

    @pytest.mark.parametrize("lowered", [False, True], ids=["direct", "lowered"])
    @pytest.mark.parametrize(
        "options", [{"compute_fluxes": False}, {"vectorized": False}], ids=["comm_only", "scalar"]
    )
    @pytest.mark.parametrize("dims", [(1, 5, 3), (6, 5, 1), (5, 4, 3)])
    def test_options(self, fluid, dims, options, lowered):
        mesh = make_geomodel(*dims, kind="lognormal", seed=4)
        fields = list(PressureSequence(mesh, num_applications=2, seed=6))
        sim = _build(mesh, fluid, np.float32, lowered, **options)
        got = [sim.run_application(field) for field in fields]
        residuals, report = strided_reference(
            mesh, fluid, fields, np.float32, sim.ir.exchange_plan, **options
        )
        assert [r.tobytes() for r in got] == [r.tobytes() for r in residuals]
        assert sim.report() == report
        assert list(sim.report().instruction_counts) == list(report.instruction_counts)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("cell", [(0, 0, 0), (0, 2, 5), (2, 2, 3)], ids=["corner", "edge", "interior"])
    def test_non_finite_cells_stay_where_the_reference_has_them(self, fluid, cell, bad, dtype):
        """Halo lanes compute now (``+-inf * 0``): every cell whose
        strided residual is finite keeps its bytes, every non-finite one
        stays non-finite (PR 16's contract for ``core/flat.py``)."""
        mesh = make_geomodel(6, 5, 4, kind="lognormal", seed=3)
        field = np.array(random_pressure(mesh, seed=2))
        field[cell] = bad
        sim = LockstepWseSimulation(mesh, fluid, ir=derive_ir(mesh, dtype=dtype))
        with np.errstate(all="ignore"):
            got = sim.run_application(field)
            (want,), _report = strided_reference(mesh, fluid, [field], dtype, sim.ir.exchange_plan)
        finite = np.isfinite(want)
        assert not finite[cell] and 0 < finite.sum() < finite.size
        assert got[finite].tobytes() == want[finite].tobytes()
        assert not np.isfinite(got[~finite]).any()
        # and nothing non-finite stays behind in the persistent buffers
        clean = random_pressure(mesh, seed=2)
        (after,), _report = strided_reference(mesh, fluid, [clean], dtype, sim.ir.exchange_plan)
        assert sim.run_application(clean).tobytes() == after.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dims", [(1, 6, 4), (4, 3, 1), (7, 5, 3)])
    def test_a_batched_run_equals_one_application_at_a_time(self, fluid, dims, dtype):
        """``run(fields)`` sweeps the fields as one batch; every recorded
        residual and the report (booked once per batch) equal per-field
        ``run_application`` calls and the strided reference."""
        mesh = make_geomodel(*dims, kind="lognormal", seed=8)
        fields = list(PressureSequence(mesh, num_applications=3, seed=9))
        recorded = []

        class Recorder:
            def record_step(self, pressure, residual):
                recorded.append(residual.tobytes())

        batched = LockstepWseSimulation(
            mesh, fluid, ir=derive_ir(mesh, dtype=dtype), record=Recorder()
        )
        result = batched.run(fields)
        single = LockstepWseSimulation(mesh, fluid, ir=derive_ir(mesh, dtype=dtype))
        one_at_a_time = [single.run_application(field).tobytes() for field in fields]
        residuals, report = strided_reference(mesh, fluid, fields, dtype, batched.ir.exchange_plan)
        assert recorded == one_at_a_time == [r.tobytes() for r in residuals]
        assert result.residual.tobytes() == one_at_a_time[-1]
        assert result.report == single.report() == report
        assert repr(result.report.compute_cycles) == repr(report.compute_cycles)


class TestBitIdentityAtOnePlanePerSlab(TestBitIdentityWithTheStridedPath):
    """Every case above again with one plane per slab, so that each
    X-Y span, vertical face and fold step is cut at every plane."""

    @pytest.fixture(autouse=True)
    def one_plane_per_slab(self, monkeypatch):
        monkeypatch.setattr(padded_module, "_SLAB_ELEMENTS", 1)


@pytest.mark.slow
@pytest.mark.parametrize("slab", ["default", "one-plane"])
def test_strided_bytes_at_the_ledger_size(fluid, slab, monkeypatch):
    """``warm_lockstep_48x48x16``'s shape: 48x48x16 float32, 8
    applications, batched and one at a time."""
    if slab == "one-plane":
        monkeypatch.setattr(padded_module, "_SLAB_ELEMENTS", 1)
    mesh = make_geomodel(48, 48, 16, kind="lognormal", seed=7)
    fields = list(PressureSequence(mesh, num_applications=8, seed=7))
    sim = lower_to_lockstep(derive_ir(mesh), mesh, fluid)
    residuals, report = strided_reference(mesh, fluid, fields, np.float32, sim.ir.exchange_plan)
    assert [sim.run_application(f).tobytes() for f in fields] == [r.tobytes() for r in residuals]
    assert sim.report() == report
    assert sim.run(fields).residual.tobytes() == residuals[-1].tobytes()


class TestIrCheck:
    """A driver runs the program its IR's ``content_hash`` names, or
    refuses to be built: every program value comes from the IR, so the
    mesh is the one thing a caller can pass that an IR can contradict."""

    @pytest.mark.parametrize(
        "build, field",
        [
            (
                lambda m, f: LockstepWseSimulation(m, f, ir=derive_ir(CartesianMesh3D(4, 3, 2))),
                "mesh shape",
            ),
            (
                lambda m, f: FusedFluxComputation(m, f, ir=derive_ir(CartesianMesh3D(4, 3, 2))),
                "mesh shape",
            ),
        ],
        ids=["lockstep-mesh", "fused-mesh"],
    )
    def test_a_mismatched_ir_is_refused(self, fluid, build, field):
        with pytest.raises(ValueError, match=f"IR mismatch on {field}: program has"):
            build(CartesianMesh3D(5, 3, 2), fluid)


class TestCollapsedBranch:
    def test_xy_connections_issue_the_collapsed_sequence(self, fluid, monkeypatch):
        """``_face_flux`` picks its branch by ``z_l is z_k``: two equal
        slices of one elevation array are two objects and silently cost
        seven more passes per connection (lockstep did, until PR 23)."""
        issued = {"sub": 0, "mul": 0}

        def counting(name):
            ufunc = getattr(flux_pe, f"_{name}")

            def call(*args):
                issued[name] += 1
                return ufunc(*args)

            return call

        def spying(kernel, calls):
            def call(engine, scratch, p_k, p_l, z_k, z_l, *rest, **kwargs):
                before = dict(issued)
                kernel(engine, scratch, p_k, p_l, z_k, z_l, *rest, **kwargs)
                calls.append(
                    (z_l is z_k, issued["sub"] - before["sub"], issued["mul"] - before["mul"])
                )

            return call

        monkeypatch.setattr(flux_pe, "_sub", counting("sub"))
        monkeypatch.setattr(flux_pe, "_mul", counting("mul"))
        # the one sweep calls the kernels for both drivers
        accumulated, stored = [], []
        for name, calls in (
            ("compute_face_flux_column", accumulated), ("store_face_flux_column", stored)
        ):
            monkeypatch.setattr(
                padded_module, name, spying(getattr(padded_module, name), calls)
            )
        mesh = CartesianMesh3D(5, 4, 3)
        p = random_pressure(mesh, seed=1)
        LockstepWseSimulation(mesh, fluid, ir=derive_ir(mesh)).run_application(p)
        # UP and DOWN run the full sequence, the eight X-Y connections
        # the collapsed one — what fused's X-Y kernels issue
        assert accumulated == [(False, 2, 7)] * 2 + [(True, 1, 3)] * 8
        assert stored == []
        accumulated.clear()
        lower_to_fused(derive_ir(mesh), mesh, fluid).run([p])
        assert accumulated == [(False, 2, 7)] * 2
        assert stored == [(True, 1, 3)] * 8


def test_fused_and_lockstep_share_one_report_class():
    assert FusedReport is LockstepReport
    assert fused_module.FusedReport is lockstep_module.LockstepReport
