"""Unit tests for the per-PE DSD flux kernel: the face-flux statement
every backend runs, and the per-column booking of its fourteen steps."""

import numpy as np
import pytest

from repro.core import FluidProperties, face_flux_scalar
from repro.core.kernels import FluxScratch, face_flux, upwind_select
from repro.dataflow.halos import plan_pe_memory
from repro.wse.dsd import DENSITY_EXP_CYCLES_PER_ELEMENT, DsdEngine
from repro.wse.memory import Scratchpad

G = 9.80665
MU = 5e-5


def make_face_data(n, seed=0):
    rng = np.random.default_rng(seed)
    return dict(
        p_k=1e7 + 1e6 * rng.standard_normal(n),
        p_l=1e7 + 1e6 * rng.standard_normal(n),
        z_k=10.0 * rng.random(n),
        z_l=10.0 * rng.random(n),
        rho_k=700.0 + rng.random(n),
        rho_l=700.0 + rng.random(n),
        trans=1e-13 * (0.5 + rng.random(n)),
    )


def with_mobility(data, viscosity=MU):
    """*data* plus each side's mobility ``rho * (1/mu)``, the kernel's
    hoisted operand; :func:`face_flux_scalar` takes the viscosity."""
    inv = 1.0 / viscosity
    return {**data, "lam_k": data["rho_k"] * inv, "lam_l": data["rho_l"] * inv}


def scalar_fluxes(data):
    """``F_KL`` of each face of *data*, one :func:`face_flux_scalar` call
    per face (the independent restatement of Eqs. 3-4)."""
    keys = ("p_k", "p_l", "z_k", "z_l", "rho_k", "rho_l", "trans")
    n = data["p_k"].size
    return np.array([face_flux_scalar(*(data[k][i] for k in keys), G, MU) for i in range(n)])


def make_scratch(shape, dtype=np.float64):
    return FluxScratch.empty(shape, dtype)


def accumulate_column(engine, scratch, *, residual, gravity, **data):
    """One direction's fluxes accumulated into *residual* (``r += F``,
    the event and lockstep form), booked as one column on *engine*.
    ``F`` lands in the scratch column that carried the upwinded
    mobility (``a`` on the collapsed branch, ``dp`` otherwise)."""
    flux = scratch.a if data["z_l"] is data["z_k"] else scratch.dp
    face_flux(scratch, **data, flux=flux, gravity=gravity)
    np.add(residual, flux, residual)
    engine.account_flux_column(residual.size)


def store_column(engine, scratch, *, flux, gravity, **data):
    """One direction's fluxes written into *flux* (the fused and event
    round form), booked as one column on *engine*."""
    face_flux(scratch, **data, flux=flux, gravity=gravity)
    engine.account_flux_column(flux.size)


def in_one_block(arrays):
    """Copies of same-shape ``(rows, n)`` arrays as the columns of one
    PE-major ``(rows, len(arrays), n)`` block: each strided by a row."""
    return list(np.moveaxis(np.stack(arrays, axis=1), 1, 0))


def block_columns(n_pes, nz, dtype):
    """``name -> (n_pes, *shape)`` views of a PE-major block holding the
    flux program's memory map, as `FluxProgram` installs it: every
    column cut from it is strided by a whole PE row."""
    pad = Scratchpad()
    plan_pe_memory(pad, nz, dtype=dtype)
    plan = pad.plan()
    return plan.columns(plan.block(n_pes))


class TestFluxColumn:
    def test_matches_reference_kernel(self):
        n = 57
        data = make_face_data(n)
        engine = DsdEngine()
        residual = np.zeros(n)
        accumulate_column(
            engine,
            make_scratch(n),
            **with_mobility(data),
            residual=residual,
            gravity=G,
        )
        expected = scalar_fluxes(data)
        np.testing.assert_allclose(residual, expected, rtol=1e-12)

    def test_accumulates_into_residual(self):
        n = 8
        data = make_face_data(n)
        engine = DsdEngine()
        residual = np.ones(n)
        accumulate_column(
            engine, make_scratch(n), **with_mobility(data),
            residual=residual, gravity=G,
        )
        expected = 1.0 + scalar_fluxes(data)
        np.testing.assert_allclose(residual, expected, rtol=1e-12)

    def test_paper_instruction_mix(self):
        """The canonical sequence: 6 FMUL, 4 FSUB, 1 FADD, 1 FMA, 1 FNEG."""
        n = 13
        engine = DsdEngine()
        residual = np.zeros(n)
        accumulate_column(
            engine, make_scratch(n), **with_mobility(make_face_data(n)),
            residual=residual, gravity=G,
        )
        assert engine.counts["FMUL"] == 6 * n
        assert engine.counts["FSUB"] == 4 * n
        assert engine.counts["FADD"] == 1 * n
        assert engine.counts["FMA"] == 1 * n
        assert engine.counts["FNEG"] == 1 * n
        assert engine.flops == 14 * n

    def test_upwind_selection(self):
        """dPhi > 0 picks rho_K (Eq. 4 as printed)."""
        engine = DsdEngine()
        residual = np.zeros(2)
        accumulate_column(
            engine,
            make_scratch(2),
            p_k=np.array([1.0, 2.0]),
            p_l=np.array([2.0, 1.0]),
            z_k=np.zeros(2),
            z_l=np.zeros(2),
            rho_k=np.array([700.0, 700.0]),
            rho_l=np.array([800.0, 800.0]),
            lam_k=np.array([700.0, 700.0]),
            lam_l=np.array([800.0, 800.0]),
            trans=np.ones(2),
            residual=residual,
            gravity=G,
        )
        assert residual[0] == pytest.approx(700.0)   # dPhi=+1 -> rho_K
        assert residual[1] == pytest.approx(-800.0)  # dPhi=-1 -> rho_L


class TestBitSelect:
    """The upwind select of steps 8-10 is a bit-select; it must agree on
    every bit with the masked copy it replaced, the oracle here."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_agrees_with_masked_copy_on_special_values(self, dtype):
        rng = np.random.default_rng(3)
        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]
        n = 4096
        dphi = rng.standard_normal(n).astype(dtype)
        rho_k = rng.standard_normal(n).astype(dtype)
        rho_l = rng.standard_normal(n).astype(dtype)
        for array in (dphi, rho_k, rho_l):
            array[rng.integers(0, n, 600)] = rng.choice(special, 600)
        out = np.empty(n, dtype)
        sel = np.empty(n, f"u{out.itemsize}")
        with np.errstate(all="raise"):
            upwind_select(sel, dphi, rho_k, rho_l, out)
        want = rho_l.copy()
        np.copyto(want, rho_k, where=dphi > 0.0)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "fabric", [(1, 1), (2, 2), (2, 5), (24, 24)], ids=lambda f: "%dx%d" % f
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_strided_block_operands_with_a_contiguous_sel(self, dtype, fabric):
        """`FluxProgram._begin_round`'s case: every operand a strided
        ``(n_pes, nz - 1)`` cut of the PE-major block, ``sel`` its own
        contiguous array.  NumPy 2.4's ``negative`` misbehaves on
        strided unsigned views (DESIGN.md §16); the select's integer
        passes on ``sel`` must keep it clear of that."""
        nz, n_pes = 8, fabric[0] * fabric[1]
        columns = block_columns(n_pes, nz, dtype)
        lower, upper = np.s_[:, : nz - 1], np.s_[:, 1:]
        rho = columns["p_rho"][:, 1]
        dphi, rho_k, rho_l = columns["scratch_b"][lower], rho[lower], rho[upper]
        out = columns["scratch_dp"][lower]
        assert n_pes == 1 or not dphi.flags.c_contiguous  # a PE row apart
        rng = np.random.default_rng(n_pes)
        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]
        for array in (columns["scratch_b"], rho):
            array[...] = rng.standard_normal(array.shape)
            hit = rng.random(array.shape) < 0.2
            array[hit] = rng.choice(special, hit.sum())
        out[...] = np.nan
        sel = np.empty(out.shape, f"u{out.itemsize}")
        with np.errstate(all="raise"):
            upwind_select(sel, dphi, rho_k, rho_l, out)
        want = rho_l.copy()
        np.copyto(want, rho_k, where=dphi > 0.0)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("collapsed", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernel_bytes_equal_with_either_buffer(self, dtype, collapsed):
        """The kernel's bytes do not depend on where its buffers live:
        fresh contiguous arrays, or rows of one PE-major block (strided,
        as `FluxProgram`'s vertical kernels get them)."""
        shape = (3, 41)
        data = {
            k: v.reshape(shape).astype(dtype)
            for k, v in with_mobility(make_face_data(3 * 41, seed=9)).items()
        }
        data["p_l"][:, ::7] = data["p_k"][:, ::7]  # dphi == 0 lanes
        if collapsed:
            data["z_l"] = data["z_k"]
        residuals = []
        for strided in (False, True):
            arrays = {**data, "residual": np.zeros(shape, dtype)}
            columns = [*arrays.values(), *(np.empty(shape, dtype) for _ in range(4))]
            if strided:
                columns = in_one_block(columns)
            *operands, dp, gz, a, b = columns
            arrays = dict(zip(arrays, operands))
            if collapsed:
                arrays["z_l"] = arrays["z_k"]  # one object: the collapsed branch
            sel = np.empty(shape, f"u{np.dtype(dtype).itemsize}")
            accumulate_column(
                DsdEngine(), FluxScratch(dp, gz, a, b, sel), **arrays, gravity=G,
            )
            residuals.append(arrays["residual"].tobytes())
        assert residuals[0] == residuals[1]


class TestStoreForm:
    @pytest.mark.parametrize("from_block", [True, False])
    @pytest.mark.parametrize("collapsed", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stored_flux_is_what_the_accumulate_form_adds(
        self, dtype, collapsed, from_block
    ):
        """``store`` then ``r += flux`` is ``compute``, byte for byte and
        count for count; the stored flux keeps its signed zeros."""
        n = 41
        data = {k: v.astype(dtype) for k, v in make_face_data(n, seed=3).items()}
        data = with_mobility(data)
        data["p_l"][::7] = data["p_k"][::7]  # dphi == 0 lanes
        data["trans"][::5] = 0.0  # zero faces: F = +-0.0
        if collapsed:
            data["z_l"] = data["z_k"]

        def scratch():
            """Four fresh columns, or a PE-major block's, strided."""
            if not from_block:
                return make_scratch(n, dtype)
            columns = block_columns(n, 1, dtype)
            return FluxScratch(
                *(columns[name][:, 0] for name in FluxScratch.NAMES),
                np.empty(n, f"u{np.dtype(dtype).itemsize}"),
            )

        kernel = dict(gravity=dtype(G))
        start = np.linspace(-1.0, 1.0, n).astype(dtype)
        accumulated, booked = start.copy(), DsdEngine()
        accumulate_column(
            booked, scratch(), **data, residual=accumulated, **kernel
        )
        flux, stored = np.full(n, np.nan, dtype), DsdEngine()
        store_column(stored, scratch(), **data, flux=flux, **kernel)
        assert (start + flux).tobytes() == accumulated.tobytes()
        assert np.signbit(flux[data["trans"] == 0.0]).any()  # -0.0 kept as is
        assert stored.snapshot() == booked.snapshot()


class TestDensityColumn:
    def test_matches_eq5(self):
        p = np.array([1e7, 1.5e7, 2e7])
        rho = np.empty(3)
        fluid = FluidProperties(
            compressibility=1e-9, reference_density=700.0, reference_pressure=1e7
        )
        fluid.density(p, out=rho)
        expected = 700.0 * np.exp(1e-9 * (p - 1e7))
        np.testing.assert_allclose(rho, expected, rtol=1e-14)

    def test_counts_as_aux_not_table4(self):
        engine = DsdEngine()
        engine.aux("FEXP", 5, cycles_per_element=DENSITY_EXP_CYCLES_PER_ELEMENT)
        assert engine.counts == {"AUX_FEXP": 5}
        assert engine.flops == 0
        assert engine.cycles > 0
