"""Unit tests for the per-PE DSD flux kernel."""

import numpy as np
import pytest

from repro.core.kernels import face_flux_array
from repro.dataflow.flux_pe import (
    FluxScratch,
    _bit_select,
    compute_face_flux_column,
    evaluate_density_column,
    store_face_flux_column,
)
from repro.wse.dsd import DsdEngine
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


def make_scratch(n, dtype=np.float64):
    return FluxScratch(
        np.empty(n, dtype), np.empty(n, dtype), np.empty(n, dtype), np.empty(n, dtype)
    )


class TestFluxColumn:
    def test_matches_reference_kernel(self):
        n = 57
        data = make_face_data(n)
        engine = DsdEngine()
        residual = np.zeros(n)
        compute_face_flux_column(
            engine,
            make_scratch(n),
            **data,
            residual=residual,
            gravity=G,
            inv_viscosity=1.0 / MU,
        )
        expected = face_flux_array(**data, gravity=G, viscosity=MU)
        np.testing.assert_allclose(residual, expected, rtol=1e-12)

    def test_accumulates_into_residual(self):
        n = 8
        data = make_face_data(n)
        engine = DsdEngine()
        residual = np.ones(n)
        compute_face_flux_column(
            engine, make_scratch(n), **data,
            residual=residual, gravity=G, inv_viscosity=1.0 / MU,
        )
        expected = 1.0 + face_flux_array(**data, gravity=G, viscosity=MU)
        np.testing.assert_allclose(residual, expected, rtol=1e-12)

    def test_paper_instruction_mix(self):
        """The canonical sequence: 6 FMUL, 4 FSUB, 1 FADD, 1 FMA, 1 FNEG."""
        n = 13
        engine = DsdEngine()
        residual = np.zeros(n)
        compute_face_flux_column(
            engine, make_scratch(n), **make_face_data(n),
            residual=residual, gravity=G, inv_viscosity=1.0 / MU,
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
        compute_face_flux_column(
            engine,
            make_scratch(2),
            p_k=np.array([1.0, 2.0]),
            p_l=np.array([2.0, 1.0]),
            z_k=np.zeros(2),
            z_l=np.zeros(2),
            rho_k=np.array([700.0, 700.0]),
            rho_l=np.array([800.0, 800.0]),
            trans=np.ones(2),
            residual=residual,
            gravity=G,
            inv_viscosity=1.0,
        )
        assert residual[0] == pytest.approx(700.0)   # dPhi=+1 -> rho_K
        assert residual[1] == pytest.approx(-800.0)  # dPhi=-1 -> rho_L

    def test_scratch_views_shorter_than_storage(self):
        """Vertical faces reuse the same scratch at length n-1."""
        n = 10
        scratch = make_scratch(n)
        data = make_face_data(n - 1)
        engine = DsdEngine()
        residual = np.zeros(n - 1)
        compute_face_flux_column(
            engine, scratch, **data,
            residual=residual, gravity=G, inv_viscosity=1.0 / MU,
        )
        expected = face_flux_array(**data, gravity=G, viscosity=MU)
        np.testing.assert_allclose(residual, expected, rtol=1e-12)

    def test_3d_scratch_shape_mismatch_rejected(self):
        scratch = FluxScratch(
            np.empty((2, 3)), np.empty((2, 3)), np.empty((2, 3)), np.empty((2, 3))
        )
        with pytest.raises(ValueError, match="scratch shape"):
            compute_face_flux_column(
                DsdEngine(), scratch,
                p_k=np.zeros((3, 2)), p_l=np.zeros((3, 2)),
                z_k=np.zeros((3, 2)), z_l=np.zeros((3, 2)),
                rho_k=np.zeros((3, 2)), rho_l=np.zeros((3, 2)),
                trans=np.zeros((3, 2)), residual=np.zeros((3, 2)),
                gravity=G, inv_viscosity=1.0,
            )


class TestBitSelect:
    """Whole-array scratch (``sel=``) replaces the masked copy of steps
    8-9 by a bit-select; the two must agree on every bit."""

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
            _bit_select(sel, dphi, rho_k, rho_l, out)
        want = rho_l.copy()
        np.copyto(want, rho_k, where=dphi > 0.0)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("collapsed", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernel_bytes_equal_with_either_buffer(self, dtype, collapsed):
        shape = (3, 41)
        data = {
            k: v.reshape(shape).astype(dtype)
            for k, v in make_face_data(3 * 41, seed=9).items()
        }
        data["p_l"][:, ::7] = data["p_k"][:, ::7]  # dphi == 0 lanes
        if collapsed:
            data["z_l"] = data["z_k"]
        residuals = []
        for sel in (None, np.empty(shape, f"u{np.dtype(dtype).itemsize}")):
            scratch = FluxScratch(*(np.empty(shape, dtype) for _ in range(4)), sel=sel)
            assert (scratch.mask is None) == (sel is not None)
            residual = np.zeros(shape, dtype)
            compute_face_flux_column(
                DsdEngine(), scratch, **data,
                residual=residual, gravity=G, inv_viscosity=1.0 / MU,
            )
            residuals.append(residual.tobytes())
        assert residuals[0] == residuals[1]


class TestStoreForm:
    @pytest.mark.parametrize("whole_array", [True, False])
    @pytest.mark.parametrize("collapsed", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stored_flux_is_what_the_accumulate_form_adds(
        self, dtype, collapsed, whole_array
    ):
        """``store`` then ``r += flux`` is ``compute``, byte for byte and
        count for count; the stored flux keeps its signed zeros."""
        n = 41
        data = {k: v.astype(dtype) for k, v in make_face_data(n, seed=3).items()}
        data["p_l"][::7] = data["p_k"][::7]  # dphi == 0 lanes
        data["trans"][::5] = 0.0  # zero faces: F = +-0.0
        if collapsed:
            data["z_l"] = data["z_k"]

        def scratch():
            sel = np.empty(n, f"u{np.dtype(dtype).itemsize}") if whole_array else None
            return FluxScratch(*(np.empty(n, dtype) for _ in range(4)), sel=sel)

        kernel = dict(gravity=dtype(G), inv_viscosity=dtype(1.0 / MU))
        start = np.linspace(-1.0, 1.0, n).astype(dtype)
        accumulated, booked = start.copy(), DsdEngine()
        compute_face_flux_column(
            booked, scratch(), **data, residual=accumulated, **kernel
        )
        flux, stored = np.full(n, np.nan, dtype), DsdEngine()
        store_face_flux_column(stored, scratch(), **data, flux=flux, **kernel)
        assert (start + flux).tobytes() == accumulated.tobytes()
        assert np.signbit(flux[data["trans"] == 0.0]).any()  # -0.0 kept as is
        assert stored.snapshot() == booked.snapshot()


class TestFluxScratchAllocate:
    def test_allocates_four_columns(self):
        pad = Scratchpad(4096)
        scratch = FluxScratch.allocate(pad, 16, np.float32)
        assert pad.used == 4 * 16 * 4
        assert scratch.dp.shape == (16,)

    def test_view(self):
        pad = Scratchpad(4096)
        scratch = FluxScratch.allocate(pad, 16)
        v = scratch.view(5)
        assert v.dp.shape == (5,)
        assert v.dp.base is scratch.dp or v.dp.base is scratch.dp.base


class TestDensityColumn:
    def test_matches_eq5(self):
        engine = DsdEngine()
        p = np.array([1e7, 1.5e7, 2e7])
        rho = np.empty(3)
        evaluate_density_column(
            engine, p, rho,
            compressibility=1e-9,
            reference_density=700.0,
            reference_pressure=1e7,
        )
        expected = 700.0 * np.exp(1e-9 * (p - 1e7))
        np.testing.assert_allclose(rho, expected, rtol=1e-14)

    def test_counts_as_aux_not_table4(self):
        engine = DsdEngine()
        p = np.full(5, 1e7)
        rho = np.empty(5)
        evaluate_density_column(
            engine, p, rho,
            compressibility=1e-9, reference_density=700.0,
            reference_pressure=1e7,
        )
        assert engine.counts == {"AUX_FEXP": 5}
        assert engine.flops == 0
        assert engine.cycles > 0
